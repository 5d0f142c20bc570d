"""Build-memory ceiling: the tracemalloc peak of each representation build,
in bytes per edge, on fixed R-MAT graphs at two scales.

The peak counts everything allocated during the call, including the
arrays the representation keeps.  Measured with this build (B/edge, small
and large scale): CSR 12.5 / 12.5, G-Shards 20.0 / 20.0, CW 32.1 / 29.0
(CW includes its G-Shards build).  The builds that sorted with
``np.lexsort`` and a stable ``argsort`` peaked at 20.5, 33.1 and 48.0.
Each ceiling sits about 1 B/edge above the current peak, so one more
per-edge int64 temporary alive at the peak fails the test.

VWC prices its lockstep schedule (``VWCEngine._static_stat_phases``) in
blocks of ``_ROW_CHUNK`` warp rows, so that peak is a fixed block budget
plus per-vertex and per-row arrays, and its ceilings are per scale.
Measured (B/edge, small and large scale, the highest of vwc-8, vwc-32 and
vwc-8 with deferred outliers): 39.6 / 12.9.  With 32768-row blocks and
per-lane degree/offset tables it peaked at 172.6 / 153.7.
"""

import tracemalloc

import pytest

from repro.algorithms import make_program
from repro.frameworks import VWCEngine
from repro.frameworks.csrloop import CSRProblem
from repro.graph import CSR, ConcatenatedWindows, GShards, generators

CEILING_BYTES_PER_EDGE = {"csr": 13.5, "gshards": 21.0, "cw": 33.0}

SCALES = [(1 << 13, 1 << 17, 256), (1 << 15, 1 << 19, 1024)]

# Keyed by the graph's vertex count (the SCALES entries).
VWC_CEILING_BYTES_PER_EDGE = {1 << 13: 40.5, 1 << 15: 14.0}


def _build(name, graph, vertices_per_shard):
    if name == "csr":
        return CSR.from_graph(graph)
    if name == "gshards":
        return GShards(graph, vertices_per_shard)
    return ConcatenatedWindows.from_graph(graph, vertices_per_shard)


@pytest.fixture(scope="module", params=SCALES, ids=lambda s: f"rmat{s[0]}x{s[1]}")
def scaled_graph(request):
    n, m, vertices_per_shard = request.param
    return generators.rmat(n, m, seed=3), vertices_per_shard


@pytest.mark.parametrize("name", sorted(CEILING_BYTES_PER_EDGE))
def test_build_peak_bytes_per_edge(scaled_graph, name):
    graph, vertices_per_shard = scaled_graph
    _build(name, graph, vertices_per_shard)  # first-call imports and caches
    tracemalloc.start()
    try:
        _build(name, graph, vertices_per_shard)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_edge = peak / graph.num_edges
    assert per_edge <= CEILING_BYTES_PER_EDGE[name], (
        f"{name} build peaked at {per_edge:.2f} B/edge, ceiling "
        f"{CEILING_BYTES_PER_EDGE[name]}"
    )


def _peak_bytes_per_edge(call, graph):
    call()  # first-call imports and caches
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / graph.num_edges


@pytest.mark.parametrize("engine", [
    VWCEngine(8), VWCEngine(32), VWCEngine(8, defer_outliers=True),
], ids=lambda e: e.name)
def test_vwc_static_pricing_peak_bytes_per_edge(scaled_graph, engine):
    graph, _ = scaled_graph
    problem = CSRProblem.build(graph, make_program("pr", graph), cache=False)
    per_edge = _peak_bytes_per_edge(
        lambda: engine._static_stat_phases(problem), graph)
    ceiling = VWC_CEILING_BYTES_PER_EDGE[graph.num_vertices]
    assert per_edge <= ceiling, (
        f"{engine.name} static pricing peaked at {per_edge:.2f} B/edge, "
        f"ceiling {ceiling}"
    )
