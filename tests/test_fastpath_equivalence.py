"""Equivalence gate for the wave-batched fast path.

The modeled hardware numbers are the paper's results: the fast execution
path must reproduce the reference per-shard loop *exactly* — vertex values
bit-identical, :class:`~repro.gpu.stats.KernelStats` equal field by field,
same iteration count, same per-stage breakdowns — on every engine, program,
and sync-mode combination.  Any drift, even a single transaction, fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import PROGRAM_NAMES, make_program
from repro.frameworks import CuShaEngine, RunConfig, StreamedCuShaEngine, cusha
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_weights, rmat
from repro.telemetry.tracer import Tracer


def _assert_equivalent(fast, ref, label=""):
    assert fast.iterations == ref.iterations, label
    assert fast.converged == ref.converged, label
    assert fast.values.tobytes() == ref.values.tobytes(), label
    assert fast.stats == ref.stats, label
    assert fast.kernel_time_ms == ref.kernel_time_ms, label
    assert fast.h2d_ms == ref.h2d_ms and fast.d2h_ms == ref.d2h_ms, label
    assert fast.representation_bytes == ref.representation_bytes, label
    assert fast.traces == ref.traces, label
    if fast.stage_stats is not None or ref.stage_stats is not None:
        assert fast.stage_stats.keys() == ref.stage_stats.keys(), label
        for k in fast.stage_stats:
            assert fast.stage_stats[k] == ref.stage_stats[k], (label, k)


def _assert_same_stage_spans(tf, tr):
    sf = [s for s in tf.spans if s.kind in ("stage", "transfer")]
    sr = [s for s in tr.spans if s.kind in ("stage", "transfer")]
    assert len(sf) == len(sr) > 0
    for a, b in zip(sf, sr):
        assert a.name == b.name
        assert a.model_ms == b.model_ms
        assert a.attrs.get("stats") == b.attrs.get("stats")


def _run_both(engine, graph, program_name, max_iterations=80, **prog_kwargs):
    fast = engine.run(
        graph, make_program(program_name, graph, **prog_kwargs),
        config=RunConfig(exec_path="fast", allow_partial=True,
                         max_iterations=max_iterations),
    )
    ref = engine.run(
        graph, make_program(program_name, graph, **prog_kwargs),
        config=RunConfig(exec_path="reference", allow_partial=True,
                         max_iterations=max_iterations),
    )
    return fast, ref


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(1200, 9000, seed=41), seed=42)


class TestCuShaMatrix:
    """Fast ≡ reference across mode × sync_mode × program."""

    @pytest.mark.parametrize("mode", ["gs", "cw"])
    @pytest.mark.parametrize("sync_mode", ["wave", "async", "bsp"])
    @pytest.mark.parametrize("program_name", ["bfs", "sssp", "pr", "cc"])
    def test_exact_equivalence(self, graph, mode, sync_mode, program_name):
        eng = CuShaEngine(mode, sync_mode=sync_mode, vertices_per_shard=128)
        fast, ref = _run_both(eng, graph, program_name)
        _assert_equivalent(fast, ref, f"{mode}/{sync_mode}/{program_name}")

    @pytest.mark.parametrize("program_name", sorted(PROGRAM_NAMES))
    def test_all_programs_auto_shard(self, graph, program_name):
        eng = CuShaEngine("cw")
        fast, ref = _run_both(eng, graph, program_name, max_iterations=50)
        _assert_equivalent(fast, ref, program_name)

    @pytest.mark.parametrize("mode", ["gs", "cw"])
    def test_always_writeback_ablation(self, graph, mode):
        eng = CuShaEngine(mode, vertices_per_shard=64, always_writeback=True)
        fast, ref = _run_both(eng, graph, "pr", max_iterations=30)
        _assert_equivalent(fast, ref)

    def test_stage_spans_identical(self, graph):
        eng = CuShaEngine("gs", vertices_per_shard=128)
        tf, tr = Tracer(), Tracer()
        fast = eng.run(graph, make_program("pr", graph), config=RunConfig(
            exec_path="fast", tracer=tf, allow_partial=True,
            max_iterations=25))
        ref = eng.run(graph, make_program("pr", graph), config=RunConfig(
            exec_path="reference", tracer=tr, allow_partial=True,
            max_iterations=25))
        _assert_equivalent(fast, ref)
        _assert_same_stage_spans(tf, tr)

    @pytest.mark.parametrize("mode", ["gs", "cw"])
    @pytest.mark.parametrize("frontier", ["off", "sparse"])
    @pytest.mark.parametrize("always_writeback", [False, True])
    @pytest.mark.parametrize("program_name", ["bfs", "sssp", "pr", "cc"])
    def test_waves_of_many_shards(self, graph, mode, frontier,
                                  always_writeback, program_name):
        """75 shards of 16 vertices run as a wave of 48 and a wave of 27
        on the GTX 780 model, so every iteration's stores, stage rows and
        frontier marks span several waves of several shards each."""
        eng = CuShaEngine(mode, vertices_per_shard=16,
                          always_writeback=always_writeback)
        runs = []
        for path in ("fast", "reference"):
            tracer = Tracer()
            result = eng.run(graph, make_program(program_name, graph),
                             config=RunConfig(
                                 exec_path=path, tracer=tracer,
                                 frontier=frontier, allow_partial=True,
                                 max_iterations=40))
            gauges = tracer.metrics
            assert gauges.gauge("cusha.num_shards").value == 75
            assert gauges.gauge("cusha.wave_size").value == 48
            runs.append((result, tracer))
        (fast, tf), (ref, tr) = runs
        label = f"{mode}/{frontier}/{always_writeback}/{program_name}"
        _assert_equivalent(fast, ref, label)
        assert fast.edges_processed == ref.edges_processed, label
        assert fast.shards_skipped == ref.shards_skipped, label
        if frontier != "off":
            assert np.array_equal(fast.frontier_mask, ref.frontier_mask)
        _assert_same_stage_spans(tf, tr)

    def test_one_store_pricing_call_per_iteration(self, graph, monkeypatch):
        calls = []
        price = cusha.gather_transactions_segmented

        def counted(*args, **kwargs):
            calls.append(args)
            return price(*args, **kwargs)

        monkeypatch.setattr(cusha, "gather_transactions_segmented", counted)
        eng = CuShaEngine("cw", vertices_per_shard=16)  # two waves
        r = eng.run(graph, make_program("pr", graph), config=RunConfig(
            allow_partial=True, max_iterations=10))
        assert len(calls) == r.iterations == 10


class TestStreamedMatrix:
    @pytest.mark.parametrize("program_name", ["bfs", "sssp", "pr", "cc"])
    @pytest.mark.parametrize("device_memory", [64 * 1024 * 1024, 48 * 1024])
    def test_exact_equivalence(self, graph, program_name, device_memory):
        eng = StreamedCuShaEngine(
            device_memory_bytes=device_memory, vertices_per_shard=128
        )
        fast, ref = _run_both(eng, graph, program_name)
        _assert_equivalent(fast, ref, f"{program_name}/{device_memory}")
        assert fast.unoverlapped_ms == ref.unoverlapped_ms
        assert fast.num_chunks == ref.num_chunks

    def test_chunked_overlap_model_identical(self, graph):
        eng = StreamedCuShaEngine(
            device_memory_bytes=32 * 1024, vertices_per_shard=64
        )
        tf, tr = Tracer(), Tracer()
        fast = eng.run(graph, make_program("cc", graph), config=RunConfig(
            exec_path="fast", tracer=tf, allow_partial=True,
            max_iterations=25))
        ref = eng.run(graph, make_program("cc", graph), config=RunConfig(
            exec_path="reference", tracer=tr, allow_partial=True,
            max_iterations=25))
        _assert_equivalent(fast, ref)
        # Per-chunk compute spans drive the overlap model: compare each.
        cf = [s for s in tf.spans if s.name.startswith("chunk-")]
        cr = [s for s in tr.spans if s.name.startswith("chunk-")]
        assert len(cf) == len(cr) > 0
        for a, b in zip(cf, cr):
            assert (a.name, a.model_ms) == (b.name, b.model_ms)
            assert a.attrs.get("stats") == b.attrs.get("stats")


class TestEdgeCases:
    @pytest.mark.parametrize("mode", ["gs", "cw"])
    def test_empty_and_tiny_graphs(self, mode):
        empty = DiGraph(np.array([], np.int64), np.array([], np.int64), 1)
        tiny = DiGraph(np.array([0, 1, 2]), np.array([1, 2, 3]), 5)
        for g in (empty, tiny):
            eng = CuShaEngine(mode, vertices_per_shard=2)
            fast, ref = _run_both(eng, g, "cc")
            _assert_equivalent(fast, ref)

    def test_exec_path_validation(self):
        with pytest.raises(ValueError):
            RunConfig(exec_path="turbo")
        assert RunConfig().exec_path == "fast"
        assert RunConfig(exec_path="reference").exec_path == "reference"


@st.composite
def small_graphs(draw, max_vertices=40, max_edges=160):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=1, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.integers(1, 30), min_size=m, max_size=m))
    return DiGraph(
        np.array(src, np.int64), np.array(dst, np.int64), n,
        np.array(w, np.float64),
    )


class TestPropertyEquivalence:
    @given(small_graphs(), st.sampled_from(["wave", "async", "bsp"]),
           st.sampled_from(["bfs", "sssp", "cc", "pr"]),
           st.integers(2, 16))
    @settings(max_examples=30, deadline=None)
    def test_cusha_cw_random(self, g, sync_mode, program_name, shard_size):
        eng = CuShaEngine("cw", sync_mode=sync_mode,
                          vertices_per_shard=shard_size)
        fast, ref = _run_both(eng, g, program_name, max_iterations=400)
        _assert_equivalent(fast, ref)

    @given(small_graphs(), st.sampled_from(["sssp", "cc"]),
           st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_cusha_gs_random(self, g, program_name, shard_size):
        eng = CuShaEngine("gs", vertices_per_shard=shard_size)
        fast, ref = _run_both(eng, g, program_name, max_iterations=400)
        _assert_equivalent(fast, ref)

    @given(small_graphs(), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_streamed_random(self, g, budget_kb):
        eng = StreamedCuShaEngine(
            device_memory_bytes=budget_kb * 1024, vertices_per_shard=4
        )
        fast, ref = _run_both(eng, g, "bfs", max_iterations=400)
        _assert_equivalent(fast, ref)
