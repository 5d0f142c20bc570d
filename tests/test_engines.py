"""Cross-engine behavior: equivalence, convergence contracts, RunResult."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.frameworks import (
    CuShaEngine,
    MTCPUEngine,
    ScalarReferenceEngine,
    VWCEngine,
)
from repro.frameworks.base import ConvergenceError
from repro.frameworks.base import RunConfig
from tests.conftest import random_graph


DETERMINISTIC_PROGRAMS = ("bfs", "sssp", "cc", "sswp")
"""Programs whose fixpoint is schedule-independent and exact (integer
lattices), so all engines must agree bit-for-bit."""


@pytest.mark.parametrize("name", DETERMINISTIC_PROGRAMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_all_engines_agree_exactly(name, seed):
    g = random_graph(seed, n=64, m=280)
    results = {}
    for engine in [
        ScalarReferenceEngine(vertices_per_shard=8),
        CuShaEngine("gs", vertices_per_shard=16),
        CuShaEngine("cw", vertices_per_shard=16),
        CuShaEngine("cw", vertices_per_shard=16, sync_mode="async"),
        CuShaEngine("cw", vertices_per_shard=16, sync_mode="bsp"),
        VWCEngine(4),
        VWCEngine(32),
        MTCPUEngine(2),
    ]:
        p = make_program(name, g)
        results[id(engine)] = engine.run(g, p).values
    first = next(iter(results.values()))
    for vals in results.values():
        for f in first.dtype.names:
            assert np.array_equal(first[f], vals[f])


@pytest.mark.parametrize("mode", ["gs", "cw"])
def test_gs_and_cw_converge_identically(mode, rmat_small):
    """CW only reorders write-back work — values and iteration counts of the
    two modes must match exactly."""
    p = make_program("sssp", rmat_small)
    gs = CuShaEngine("gs", vertices_per_shard=32).run(rmat_small, p)
    cw = CuShaEngine("cw", vertices_per_shard=32).run(rmat_small, p)
    assert gs.iterations == cw.iterations
    assert np.array_equal(gs.values["dist"], cw.values["dist"])


class TestConvergenceContract:
    def test_raises_without_allow_partial(self):
        g = random_graph(0, n=40, m=150)
        p = make_program("sssp", g)
        with pytest.raises(ConvergenceError):
            CuShaEngine("cw", vertices_per_shard=16).run(g, p, config=RunConfig(max_iterations=1))

    def test_allow_partial_returns_unconverged(self):
        g = random_graph(0, n=40, m=150)
        p = make_program("sssp", g)
        res = CuShaEngine("cw", vertices_per_shard=16).run(g, p, config=RunConfig(max_iterations=1, allow_partial=True))
        assert not res.converged
        assert res.iterations == 1

    def test_final_iteration_has_no_updates(self, rmat_small):
        p = make_program("bfs", rmat_small)
        res = CuShaEngine("cw").run(rmat_small, p)
        assert res.traces[-1].updated_vertices == 0
        assert all(t.updated_vertices > 0 for t in res.traces[:-1])

    def test_edgeless_graph_converges_immediately(self):
        from repro.graph.digraph import DiGraph

        g = DiGraph.empty(50)
        p = make_program("cc", g)
        for engine in [CuShaEngine("cw", vertices_per_shard=16), VWCEngine(8),
                       MTCPUEngine(1)]:
            res = engine.run(g, p)
            assert res.converged
            assert res.iterations == 1


class TestRunResult:
    def test_total_includes_transfers(self, rmat_small):
        res = CuShaEngine("cw").run(rmat_small, make_program("bfs", rmat_small))
        assert res.total_ms == pytest.approx(
            res.kernel_time_ms + res.h2d_ms + res.d2h_ms
        )
        assert res.h2d_ms > 0 and res.d2h_ms > 0

    def test_teps_definition(self, rmat_small):
        res = CuShaEngine("cw").run(rmat_small, make_program("bfs", rmat_small))
        assert res.teps == pytest.approx(
            rmat_small.num_edges / (res.total_ms / 1e3)
        )

    def test_traces_cumulative_time_monotone(self, rmat_small):
        res = VWCEngine(8).run(rmat_small, make_program("pr", rmat_small))
        cum = [t.cumulative_time_ms for t in res.traces]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] == pytest.approx(res.kernel_time_ms)

    def test_field_values_accessor(self, rmat_small):
        res = CuShaEngine("cw").run(rmat_small, make_program("bfs", rmat_small))
        assert np.array_equal(res.field_values(), res.values["level"])
        assert np.array_equal(res.field_values("level"), res.values["level"])

    def test_kernel_launch_count_matches_iterations(self, rmat_small):
        res = CuShaEngine("cw").run(rmat_small, make_program("bfs", rmat_small))
        assert res.stats.kernel_launches == res.iterations


class TestCuShaSpecifics:
    def test_explicit_shard_size_respected(self, rmat_small):
        eng = CuShaEngine("cw", vertices_per_shard=32)
        assert eng._choose_shard_size(rmat_small, make_program("bfs", rmat_small)) == 32

    def test_auto_shard_size_uses_selector(self, rmat_small):
        eng = CuShaEngine("cw")
        n = eng._choose_shard_size(rmat_small, make_program("bfs", rmat_small))
        assert n % 32 == 0 and n >= 32

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CuShaEngine("csr")

    def test_invalid_sync_mode_rejected(self):
        with pytest.raises(ValueError):
            CuShaEngine("cw", sync_mode="jacobi")

    def test_stage4_skipped_after_convergence_region(self):
        """The converged final iteration (no shard updates, so no write-back
        stage) must be cheaper than the peak iteration.  Launch overhead is
        zeroed so per-iteration work differences are visible at test scale."""
        import dataclasses

        from repro.gpu.spec import GTX780

        g = random_graph(1, n=2000, m=60_000)
        spec = dataclasses.replace(GTX780, kernel_launch_overhead_us=0.0)
        p = make_program("bfs", g)
        res = CuShaEngine("cw", vertices_per_shard=128, spec=spec).run(g, p)
        peak = max(t.time_ms for t in res.traces)
        assert res.traces[-1].time_ms < peak

    def test_gs_stats_differ_from_cw(self, rmat_small):
        p = make_program("sssp", rmat_small)
        gs = CuShaEngine("gs", vertices_per_shard=32).run(rmat_small, p)
        cw = CuShaEngine("cw", vertices_per_shard=32).run(rmat_small, p)
        assert gs.stats.total_transactions != cw.stats.total_transactions
        assert cw.stats.warp_execution_efficiency >= gs.stats.warp_execution_efficiency

    def test_cw_representation_larger_than_gs(self, rmat_small):
        p = make_program("sssp", rmat_small)
        gs = CuShaEngine("gs", vertices_per_shard=32).run(rmat_small, p)
        cw = CuShaEngine("cw", vertices_per_shard=32).run(rmat_small, p)
        assert cw.representation_bytes > gs.representation_bytes
        assert cw.h2d_ms > gs.h2d_ms


class TestVWCSpecifics:
    def test_invalid_warp_size(self):
        with pytest.raises(ValueError):
            VWCEngine(3)

    def test_invalid_dilation(self):
        with pytest.raises(ValueError):
            VWCEngine(8, address_dilation=0)

    def test_warp_efficiency_decreases_with_virtual_warp_size(self, rmat_small):
        """Bigger virtual warps idle more lanes on low-degree vertices."""
        p = make_program("bfs", rmat_small)
        wee = [
            VWCEngine(w).run(rmat_small, p).stats.warp_execution_efficiency
            for w in (2, 8, 32)
        ]
        assert wee[0] > wee[2]

    def test_dilation_lowers_load_efficiency(self, rmat_small):
        p = make_program("bfs", rmat_small)
        near = VWCEngine(8, address_dilation=1).run(rmat_small, p)
        far = VWCEngine(8, address_dilation=64).run(rmat_small, p)
        assert far.stats.gld_efficiency < near.stats.gld_efficiency
        # Dilation is a pricing device: values must be unaffected.
        assert np.array_equal(near.values["level"], far.values["level"])

    def test_edge_lane_activity_covers_every_edge(self, rmat_small):
        """The lockstep schedule must process each edge exactly once per
        iteration: active lane slots ≈ m + vertex/reduction terms."""
        from repro.frameworks.csrloop import CSRProblem

        p = make_program("cc", rmat_small)
        eng = VWCEngine(8)
        stats = eng._static_stats(CSRProblem.build(rmat_small, p))
        assert stats.active_lane_slots >= rmat_small.num_edges

    def test_store_efficiency_drops_with_virtual_warp_size(self, rmat_small):
        p = make_program("pr", rmat_small)
        s2 = VWCEngine(2).run(rmat_small, p).stats.gst_efficiency
        s32 = VWCEngine(32).run(rmat_small, p).stats.gst_efficiency
        assert s32 < s2


class TestMTCPUSpecifics:
    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            MTCPUEngine(0)

    def test_single_thread_slower_than_best(self):
        # Needs enough work per iteration that compute, not the per-barrier
        # sync overhead, dominates (as at the paper's scale).
        g = random_graph(0, n=2000, m=60_000)
        p = make_program("pr", g)
        t1 = MTCPUEngine(1).run(g, p).total_ms
        t12 = MTCPUEngine(12).run(g, p).total_ms
        assert t1 > 2 * t12

    def test_oversubscription_slower_than_best(self):
        g = random_graph(0, n=2000, m=60_000)
        p = make_program("pr", g)
        t12 = MTCPUEngine(12).run(g, p).total_ms
        t128 = MTCPUEngine(128).run(g, p).total_ms
        assert t128 > t12

    def test_no_pcie_charges(self, rmat_small):
        res = MTCPUEngine(4).run(rmat_small, make_program("bfs", rmat_small))
        assert res.h2d_ms == 0.0 and res.d2h_ms == 0.0

    def test_iteration_cost_scales_with_graph(self):
        small = random_graph(0, n=100, m=500)
        big = random_graph(0, n=100, m=5000)
        eng = MTCPUEngine(4)
        p_small = make_program("pr", small)
        p_big = make_program("pr", big)
        assert eng._iteration_ms(big, p_big) > eng._iteration_ms(small, p_small)


class TestScalarReference:
    def test_matches_paper_pseudocode_iteration_structure(self, example_graph):
        p = make_program("bfs", example_graph, source=0)
        res = ScalarReferenceEngine(vertices_per_shard=4).run(example_graph, p)
        assert res.converged
        assert res.traces[-1].updated_vertices == 0
