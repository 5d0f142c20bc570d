"""Property-based tests (hypothesis) over the core structures and engines."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import make_program
from repro.frameworks import CuShaEngine, VWCEngine
from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.shards import GShards
from repro.gpu.memory import contiguous_transactions, gather_transactions
from repro.reference import golden
from repro.vertexcentric.datatypes import UINT_INF


@st.composite
def small_graphs(draw, max_vertices=40, max_edges=160):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return DiGraph(np.array(src, np.int64), np.array(dst, np.int64), n)


@given(small_graphs(), st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_shards_are_a_partition_of_the_edges(g, N):
    sh = GShards(g, N)
    assert np.array_equal(np.sort(sh.edge_positions), np.arange(g.num_edges))
    # Partitioned: destination in owner range; Ordered: sources sorted.
    for i in range(sh.num_shards):
        lo, hi = sh.vertex_range(i)
        sl = sh.shard_slice(i)
        d = sh.dest_index[sl]
        assert ((d >= lo) & (d < hi)).all()
        s = sh.src_index[sl].astype(np.int64)
        assert (np.diff(s) >= 0).all()


@given(small_graphs(), st.integers(1, 17))
@settings(max_examples=60, deadline=None)
def test_cw_mapper_is_a_bijection_preserving_sources(g, N):
    cw = ConcatenatedWindows.from_graph(g, N)
    assert np.array_equal(np.sort(cw.mapper), np.arange(g.num_edges))
    assert np.array_equal(cw.shards.src_index[cw.mapper], cw.cw_src_index)
    assert cw.cw_offsets[-1] == g.num_edges


@st.composite
def multigraphs(draw, max_vertices=40, max_edges=120):
    """Graphs with duplicate edges and self-loops mixed in, in any order."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return DiGraph.empty(0)
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    pairs += [(v, v) for v in draw(st.lists(vertex, max_size=8))]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=20))
    pairs = draw(st.permutations(pairs))
    src = np.array([p[0] for p in pairs], np.int64)
    dst = np.array([p[1] for p in pairs], np.int64)
    return DiGraph(src, dst, n)


_DUPS_AND_LOOPS = DiGraph(
    np.array([3, 1, 3, 4, 1, 0, 4], np.int64),
    np.array([0, 4, 0, 4, 4, 2, 4], np.int64),
    5,
)


@given(multigraphs(), st.integers(1, 17))
@example(DiGraph.empty(0), 4)
@example(_DUPS_AND_LOOPS, 3)  # 5 % 3 != 0: a short last shard
@settings(max_examples=80, deadline=None)
def test_gshards_order_is_the_lexsort_definition(g, N):
    # Edge ids sorted by (destination shard, source, destination), ties in
    # edge order: the stable three-key lexsort the layout is defined by.
    expected = np.lexsort((g.dst, g.src, g.dst.astype(np.int64) // N))
    assert np.array_equal(GShards(g, N).edge_positions, expected)


@given(multigraphs(), st.integers(1, 17))
@example(DiGraph.empty(0), 4)
@example(_DUPS_AND_LOOPS, 3)
@settings(max_examples=80, deadline=None)
def test_cw_mapper_is_the_lexsort_definition(g, N):
    cw = ConcatenatedWindows.from_graph(g, N)
    sh = cw.shards
    dst_shard = np.repeat(
        np.arange(sh.num_shards, dtype=np.int64), np.diff(sh.shard_offsets)
    )
    src_shard = sh.src_index.astype(np.int64) // N
    assert np.array_equal(cw.mapper, np.lexsort((dst_shard, src_shard)))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_csr_round_trips_every_edge(g):
    csr = CSR.from_graph(g)
    dests = csr.destinations()
    rebuilt = set(zip(csr.src_indxs.tolist(), dests.tolist()))
    original = set(zip(g.src.tolist(), g.dst.tolist()))
    assert rebuilt == original
    assert np.diff(csr.in_edge_idxs).sum() == g.num_edges


@given(small_graphs(), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_window_sizes_account_every_edge(g, N):
    sh = GShards(g, N)
    assert sh.window_sizes().sum() == g.num_edges


@given(small_graphs())
@settings(max_examples=25, deadline=None)
def test_cusha_bfs_always_matches_oracle(g):
    p = make_program("bfs", g, source=0)
    res = CuShaEngine("cw", vertices_per_shard=8).run(g, p)
    expected = golden.bfs_levels(g, 0)
    got = res.values["level"].astype(np.float64)
    got[res.values["level"] == UINT_INF] = np.inf
    assert np.array_equal(got, expected)


@given(small_graphs())
@settings(max_examples=15, deadline=None)
def test_vwc_cc_labels_are_reachability_minima(g):
    p = make_program("cc", g)
    res = VWCEngine(8).run(g, p)
    labels = res.values["cmpnent"].astype(np.int64)
    # Fixpoint inequalities: label(v) <= v and label(dst) <= label(src).
    assert (labels <= np.arange(g.num_vertices)).all()
    if g.num_edges:
        assert (labels[g.dst] <= labels[g.src]).all()


@given(
    st.lists(st.integers(0, 100_000), min_size=1, max_size=200),
    st.sampled_from([4, 8]),
)
@settings(max_examples=60, deadline=None)
def test_gather_transaction_bounds(indices, item_bytes):
    idx = np.array(indices, dtype=np.int64)
    tc = gather_transactions(idx, item_bytes, transaction_bytes=128)
    warps = -(-idx.size // 32)
    # At least one transaction per warp, at most one per lane.
    assert warps <= tc.transactions <= idx.size
    assert tc.bytes_requested == idx.size * item_bytes


@given(st.integers(0, 5000), st.sampled_from([4, 8]), st.integers(0, 256))
@settings(max_examples=60, deadline=None)
def test_contiguous_transactions_near_optimal(num, item_bytes, start):
    tc = contiguous_transactions(num, item_bytes, start_byte=start,
                                 transaction_bytes=32)
    if num == 0:
        assert tc.transactions == 0
    else:
        optimal = -(-num * item_bytes // 32)
        rows = -(-num // 32)
        assert optimal <= tc.transactions <= optimal + rows + 1


@given(small_graphs(max_vertices=25, max_edges=80), st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_gs_and_cw_identical_fixpoints(g, N):
    p = make_program("sssp", g, source=0)
    gs = CuShaEngine("gs", vertices_per_shard=N).run(g, p)
    cwr = CuShaEngine("cw", vertices_per_shard=N).run(g, p)
    assert np.array_equal(gs.values["dist"], cwr.values["dist"])
    assert gs.iterations == cwr.iterations
