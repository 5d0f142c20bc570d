"""Tests for the out-of-core streaming engine (paper §5.1 future work)."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import CuShaEngine, StreamedCuShaEngine
from repro.gpu.spec import PCIeSpec
from repro.frameworks.base import RunConfig
from tests.conftest import random_graph


@pytest.fixture
def graph():
    return random_graph(0, n=600, m=4000)


class TestCorrectness:
    @pytest.mark.parametrize("name", ["bfs", "sssp", "cc", "pr"])
    def test_matches_resident_engine(self, graph, name):
        p = make_program(name, graph)
        resident = CuShaEngine("cw", vertices_per_shard=32).run(graph, p, config=RunConfig(max_iterations=5000))
        p2 = make_program(name, graph)
        streamed = StreamedCuShaEngine(
            device_memory_bytes=16 * 1024, vertices_per_shard=32
        ).run(graph, p2, config=RunConfig(max_iterations=5000))
        for f in resident.values.dtype.names:
            assert np.allclose(
                resident.values[f].astype(np.float64),
                streamed.values[f].astype(np.float64),
                atol=2e-3,
            ), f"{name}: field {f}"

    def test_single_chunk_when_memory_ample(self, graph):
        p = make_program("bfs", graph)
        res = StreamedCuShaEngine(
            device_memory_bytes=1 << 30, vertices_per_shard=32
        ).run(graph, p)
        assert res.num_chunks == 1

    def test_many_chunks_when_memory_tight(self, graph):
        p = make_program("bfs", graph)
        res = StreamedCuShaEngine(
            device_memory_bytes=8 * 1024, vertices_per_shard=32
        ).run(graph, p)
        assert res.num_chunks > 3

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            StreamedCuShaEngine(device_memory_bytes=0)


class TestOverlapModel:
    def test_pipelined_never_slower_than_serial(self, graph):
        p = make_program("pr", graph)
        res = StreamedCuShaEngine(
            device_memory_bytes=16 * 1024, vertices_per_shard=32
        ).run(graph, p, config=RunConfig(max_iterations=2000))
        assert res.kernel_time_ms <= res.unoverlapped_ms

    def test_overlap_saving_grows_with_transfer_cost(self, graph):
        """The absolute time hidden by overlap grows as transfers get more
        expensive (saving peaks where transfer ≈ compute per chunk)."""
        savings = []
        for bw in (12.0, 0.05):
            pcie = PCIeSpec(bandwidth_gb_per_s=bw, latency_us=1.0)
            p = make_program("pr", graph)
            res = StreamedCuShaEngine(
                device_memory_bytes=16 * 1024,
                vertices_per_shard=32,
                pcie=pcie,
            ).run(graph, p, config=RunConfig(max_iterations=2000))
            savings.append(res.unoverlapped_ms - res.kernel_time_ms)
            assert res.kernel_time_ms <= res.unoverlapped_ms
        assert savings[1] > savings[0]

    def test_transfers_charged_per_iteration(self, graph):
        """Streaming re-ships chunks every iteration, so its kernel time
        grows with iteration count faster than the resident engine's."""
        p = make_program("bfs", graph)
        streamed = StreamedCuShaEngine(
            device_memory_bytes=16 * 1024, vertices_per_shard=32
        ).run(graph, p)
        # Fixed H2D covers only VertexValues/static, far below the resident
        # engine's full-representation copy.
        resident = CuShaEngine("cw", vertices_per_shard=32).run(
            graph, make_program("bfs", graph)
        )
        assert streamed.h2d_ms < resident.h2d_ms


class TestCuShaBSPContract:
    """Streamed CuSha is CuSha-CW on a BSP schedule plus chunked transfer
    pricing: its fast path runs CuSha's wave kernel over one whole-iteration
    wave and prices from CuSha-CW's cached static bundle."""

    @pytest.mark.parametrize("frontier", ["off", "sparse"])
    @pytest.mark.parametrize("name", ["bfs", "sssp", "pr", "cc"])
    def test_bit_exact_with_cusha_cw_bsp(self, graph, name, frontier):
        config = RunConfig(max_iterations=5000, frontier=frontier)
        streamed_engine = StreamedCuShaEngine(
            device_memory_bytes=16 * 1024, vertices_per_shard=32, cache=False
        )
        streamed = streamed_engine.run(
            graph, make_program(name, graph), config=config
        )
        bsp = CuShaEngine(
            "cw", sync_mode="bsp", vertices_per_shard=32, cache=False
        ).run(graph, make_program(name, graph), config=config)
        assert streamed.num_chunks > 3
        assert streamed.values.tobytes() == bsp.values.tobytes()
        assert streamed.iterations == bsp.iterations
        assert [t.updated_vertices for t in streamed.traces] == [
            t.updated_vertices for t in bsp.traces
        ]
        assert streamed.edges_processed == bsp.edges_processed
        if frontier == "off":
            assert streamed.frontier_mask is bsp.frontier_mask is None
        else:
            assert np.array_equal(streamed.frontier_mask, bsp.frontier_mask)

    def test_reuses_cusha_cw_cache_entries(self, graph):
        cache = RepresentationCache()
        CuShaEngine("cw", vertices_per_shard=32, cache=cache).run(
            graph, make_program("sssp", graph)
        )
        streamed = StreamedCuShaEngine(
            device_memory_bytes=16 * 1024, vertices_per_shard=32, cache=cache
        ).run(graph, make_program("sssp", graph))
        assert streamed.cache_misses == 0
        assert streamed.cache_hits == 2
