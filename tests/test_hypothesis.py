"""Property-based tests (hypothesis) over the core structures and engines."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.algorithms import make_program
from repro.frameworks import CuShaEngine, VWCEngine
from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.order import edge_order
from repro.graph.shards import GShards
from repro.gpu.memory import (
    contiguous_transactions,
    gather_transactions,
    gather_transactions_segmented,
    segments_rowwise,
)
from repro.gpu.sharedmem import (
    bank_multiplicity_histogram,
    conflict_replays,
    conflict_replays_segmented,
)
from repro.gpu.stats import (KernelStats, STAT_FIELDS, stats_from_row,
                             stats_to_row)
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


_NEAR_INT32_MAX = 2**31 - 4


@st.composite
def edge_keys(draw, max_edges=60):
    """1-3 keys over the same edges: small ranges (many duplicates) or
    values near 2**31, two of which no longer fit one 63-bit word."""
    m = draw(st.integers(0, max_edges))
    keys = []
    for _ in range(draw(st.integers(1, 3))):
        low = draw(st.sampled_from([0, _NEAR_INT32_MAX]))
        values = draw(st.lists(st.integers(low, low + 3), min_size=m, max_size=m))
        keys.append(np.array(values, dtype=np.int32))
    return keys


@given(edge_keys())
@example([np.empty(0, np.int32)])
@example([np.array([7], np.int32), np.array([_NEAR_INT32_MAX], np.int32)])
@example([np.full(5, _NEAR_INT32_MAX, np.int32)] * 3)  # a second pass
@settings(max_examples=120, deadline=None)
def test_edge_order_is_lexsort(keys):
    order = edge_order(*keys)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.lexsort(keys))


@given(multigraphs())
@example(DiGraph.empty(0))
@example(_DUPS_AND_LOOPS)
@settings(max_examples=80, deadline=None)
def test_csr_is_the_lexsort_definition(g):
    # Edge ids grouped by destination, sources ascending, parallel edges in
    # edge order; offsets are the in-degree prefix sums.
    csr = CSR.from_graph(g)
    expected = np.lexsort((g.src, g.dst))
    assert np.array_equal(csr.edge_positions, expected)
    assert csr.edge_positions.dtype == np.int64
    assert np.array_equal(csr.src_indxs, g.src[expected])
    assert csr.src_indxs.dtype == np.int32
    offsets = np.concatenate(
        [[0], np.cumsum(np.bincount(g.dst, minlength=g.num_vertices))]
    )
    assert np.array_equal(csr.in_edge_idxs, offsets)


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


@st.composite
def segmented_indices(draw, max_size=150):
    """Indices split into segments, some of them empty."""
    idx = draw(st.lists(st.integers(0, 3000), max_size=max_size))
    cuts = draw(st.lists(st.integers(0, len(idx)), max_size=6))
    offsets = np.array([0, *sorted(cuts), len(idx)], dtype=np.int64)
    return np.array(idx, dtype=np.int64), offsets


def _segments(idx, offsets):
    return [idx[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


@given(segmented_indices(), st.sampled_from([4, 8]), st.integers(0, 300),
       st.sampled_from([8, 32]))
@settings(max_examples=80, deadline=None)
def test_segmented_gather_is_per_segment_gather(seg_idx, item_bytes, base, warp):
    idx, offsets = seg_idx
    kw = dict(warp_size=warp, transaction_bytes=128, base_byte=base)
    total, per = gather_transactions_segmented(
        idx, item_bytes, offsets, per_segment=True, **kw)
    expected = [gather_transactions(part, item_bytes, **kw).transactions
                for part in _segments(idx, offsets)]
    assert per.tolist() == expected
    assert total.transactions == sum(expected)
    assert total.bytes_requested == idx.size * item_bytes


def _rowwise_gather(idx, item_bytes, active, warp, base):
    """The sort-based definition: pad to whole warp rows, then count the
    distinct segments of each row's active lanes."""
    pad = (-idx.size) % warp
    seg = (base + np.concatenate([idx, np.zeros(pad, np.int64)]) * item_bytes
           ) // 128
    mask = np.concatenate([active, np.zeros(pad, bool)])
    return segments_rowwise(seg.reshape(-1, warp), mask.reshape(-1, warp))


@st.composite
def monotone_masked(draw, max_size=300):
    """Nondecreasing indices with duplicates, a random active mask and
    some warp rows switched off entirely."""
    idx = np.sort(np.array(
        draw(st.lists(st.integers(0, 400), min_size=1, max_size=max_size)),
        dtype=np.int64))
    warp = draw(st.integers(1, 32))
    active = np.array(draw(st.lists(st.booleans(), min_size=idx.size,
                                    max_size=idx.size)), dtype=bool)
    rows = -(-idx.size // warp)
    for row in draw(st.lists(st.integers(0, rows - 1), max_size=4)):
        active[row * warp:(row + 1) * warp] = False
    return idx, active, warp


@given(monotone_masked(), st.sampled_from([4, 8]), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
@example((np.zeros(5, np.int64), np.zeros(5, bool), 2), 4, 0)
@example((np.arange(64, dtype=np.int64), np.ones(64, bool), 32), 8, 300)
def test_monotone_gather_is_rowwise_count(case, item_bytes, base):
    idx, active, warp = case
    tc = gather_transactions(idx, item_bytes, active=active, warp_size=warp,
                             transaction_bytes=128, base_byte=base)
    assert tc.transactions == _rowwise_gather(idx, item_bytes, active, warp,
                                              base)
    assert tc.bytes_requested == int(active.sum()) * item_bytes


@given(segmented_indices(), st.sampled_from([4, 8]), st.integers(0, 300),
       st.sampled_from([1, 8, 32]))
@settings(max_examples=80, deadline=None)
def test_sorted_segments_gather_is_per_segment_gather(seg_idx, item_bytes,
                                                      base, warp):
    idx, offsets = seg_idx
    for part in _segments(idx, offsets):
        part.sort()  # in place: indices sorted within each segment
    kw = dict(warp_size=warp, transaction_bytes=128, base_byte=base)
    total, per = gather_transactions_segmented(
        idx, item_bytes, offsets, per_segment=True, **kw)
    expected = [_rowwise_gather(part, item_bytes, np.ones(part.size, bool),
                                warp, base)
                for part in _segments(idx, offsets)]
    calls = [gather_transactions(part, item_bytes, **kw).transactions
             for part in _segments(idx, offsets)]
    assert per.tolist() == expected == calls
    assert total.transactions == sum(expected)


@given(segmented_indices(), st.sampled_from([1, 2]))
@settings(max_examples=80, deadline=None)
def test_segmented_replays_are_per_segment_replays(seg_idx, value_words):
    idx, offsets = seg_idx
    total, per = conflict_replays_segmented(
        idx, offsets, value_words=value_words, per_segment=True)
    expected = [conflict_replays(part, value_words=value_words)
                for part in _segments(idx, offsets)]
    assert per.tolist() == expected
    assert total == sum(expected)


@given(st.lists(st.integers(0, 3000), max_size=200))
@settings(max_examples=80, deadline=None)
def test_bank_histogram_is_per_row_unique_count(indices):
    idx = np.array(indices, dtype=np.int64)
    expected = np.zeros(33, dtype=np.int64)
    for start in range(0, idx.size, 32):
        _, counts = np.unique(idx[start:start + 32] % 32, return_counts=True)
        expected[counts.max()] += 1
    assert np.array_equal(bank_multiplicity_histogram(idx), expected)


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


@st.composite
def stage_stats(draw):
    """A stage's stats: integer counters, and ``warp_instructions`` in
    quarters (VWC's ``vw=2`` reduction charges 1/4 per vertex)."""
    counters = {f: draw(st.integers(0, 2**50)) for f in STAT_FIELDS
                if f != "warp_instructions"}
    quarters = draw(st.integers(0, 2**50))
    return KernelStats(warp_instructions=quarters / 4, **counters)


@given(stage_stats())
@settings(max_examples=100, deadline=None)
@example(KernelStats())
@example(KernelStats(warp_instructions=0.25, total_lane_slots=2))
def test_stats_row_round_trip(stats):
    row = stats_to_row(stats)
    assert row.dtype == np.float64 and row.shape == (len(STAT_FIELDS),)
    back = stats_from_row(row)
    assert back == stats
    assert all(type(getattr(back, f)) is type(getattr(stats, f))
               for f in STAT_FIELDS)


@given(small_graphs(max_vertices=25, max_edges=80), st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_gs_and_cw_identical_fixpoints(g, N):
    p = make_program("sssp", g, source=0)
    gs = CuShaEngine("gs", vertices_per_shard=N).run(g, p)
    cwr = CuShaEngine("cw", vertices_per_shard=N).run(g, p)
    assert np.array_equal(gs.values["dist"], cwr.values["dist"])
    assert gs.iterations == cwr.iterations
