"""Vectorized building blocks for the wave-batched engine fast paths.

The CuSha engines' reference implementation loops over shards in Python —
thousands of tiny numpy calls per iteration on sparse graphs where the
shard count ``S`` is large.  This module provides the batched equivalents
that the CuSha and streamed fast operators share (the batched kernel step
itself is :func:`repro.frameworks.cusha.wave_kernel`):

- per-shard static :class:`~repro.gpu.stats.KernelStats` computed as one
  ``(S, 9)`` matrix per stage (:data:`~repro.gpu.stats.STAT_FIELDS` column
  order) via the segmented pricing helpers, so an iteration's stage rows
  are row sums instead of ``S`` object additions;
- :func:`cusha_static_bundle` — the whole O(S) setup loop of ``cusha.py``
  evaluated without a Python-level shard loop (and cacheable across runs,
  see :mod:`repro.cache`).  The streamed engine prices its chunks from the
  same CW bundle;
- :func:`multi_arange` — concatenated index ranges.

Everything here is **equivalence-gated**: every quantity is integer-valued
(the ``INSTR_*`` costs are integers and lane-slot totals are warp
multiples), so the vectorized float64 sums are exact and the resulting
stats match the reference per-shard loop field by field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frameworks import costs
from repro.gpu.memory import (
    contiguous_transactions,
    contiguous_transactions_segmented,
    gather_transactions_segmented,
)
from repro.gpu.sharedmem import conflict_replays_segmented
from repro.gpu.stats import (LOAD_GRANULARITY_BYTES, STAT_FIELDS,
                             STORE_GRANULARITY_BYTES)

__all__ = [
    "multi_arange",
    "window_rows_grouped",
    "CuShaStaticBundle",
    "cusha_static_bundle",
]

_WINDOW_CHUNK = 1 << 20


def multi_arange(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, b) for a, b in zip(starts, stops)])``."""
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    sizes = stops - starts
    total = int(sizes.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return (
        np.arange(total, dtype=np.int64)
        + np.repeat(starts - offsets, sizes)
    )


def window_rows_grouped(
    starts: np.ndarray,
    stops: np.ndarray,
    group: np.ndarray,
    num_groups: int,
    item_bytes: int,
    *,
    warp_size: int = 32,
    transaction_bytes: int = 128,
) -> np.ndarray:
    """Per-group transaction counts of warp-per-window walks.

    The row math mirrors ``cusha._window_rows_transactions`` exactly; each
    window's rows are attributed to ``group[k]`` and summed per group.
    """
    sizes = stops - starts
    nz = sizes > 0
    per_group = np.zeros(num_groups, dtype=np.int64)
    if not nz.any():
        return per_group
    st = starts[nz].astype(np.int64)
    sz = sizes[nz].astype(np.int64)
    grp = np.asarray(group)[nz]
    rows_per = -(-sz // warp_size)
    total_rows = int(rows_per.sum())
    w_idx = np.repeat(np.arange(st.size, dtype=np.int64), rows_per)
    row_starts = np.concatenate([[0], np.cumsum(rows_per)[:-1]])
    row_in_window = np.arange(total_rows, dtype=np.int64) - np.repeat(
        row_starts, rows_per
    )
    row_lo = st[w_idx] + row_in_window * warp_size
    row_hi = np.minimum(row_lo + warp_size, st[w_idx] + sz[w_idx])
    lo_b = row_lo * item_bytes
    hi_b = row_hi * item_bytes
    txs = (hi_b - 1) // transaction_bytes - lo_b // transaction_bytes + 1
    sums = np.bincount(grp[w_idx], weights=txs, minlength=num_groups)
    per_group += sums.astype(np.int64)
    return per_group


# ----------------------------------------------------------------------
# CuSha (resident) static bundle
# ----------------------------------------------------------------------
@dataclass
class CuShaStaticBundle:
    """Everything the CuSha fast path precomputes once per (graph, N, mode,
    program layout): the per-shard stats matrices of the four stages (an
    iteration charges the row sums over the shards it processes, and
    stage 4 over the shards that write back), plus each shard's stage-2
    bank-conflict replay count."""

    stage1: np.ndarray  # (S, len(STAT_FIELDS)) float64
    stage2: np.ndarray  # (S, len(STAT_FIELDS)) float64
    stage3: np.ndarray  # (S, len(STAT_FIELDS)) float64
    stage4: np.ndarray  # (S, len(STAT_FIELDS)) float64
    replays: np.ndarray  # (S,) shared-atomic bank-conflict replays
    dest_global: np.ndarray  # dest_index as int64 (shared, read-only)


def _stage_base_matrices(
    sh, warp: int, vbytes: int, sbytes: int, ebytes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stages 1-3 per-shard static stats matrices, vectorized over shards,
    plus the per-shard replay counts priced into stage 2.

    Every entry is integer-valued, so the full-sweep stage stats are exact
    row sums of these matrices — the frontier-gated partial sums and the
    full-sweep aggregates can never drift apart.
    """
    n = sh.num_vertices
    N = sh.vertices_per_shard
    S = sh.num_shards
    lo_arr = np.arange(S, dtype=np.int64) * N
    n_arr = np.minimum(lo_arr + N, n) - lo_arr
    m_arr = np.diff(sh.shard_offsets)
    o_arr = sh.shard_offsets[:-1]
    n_rows = -(-n_arr // warp)
    m_rows = -(-m_arr // warp)

    st1 = np.zeros((S, len(STAT_FIELDS)), dtype=np.float64)
    _, tx = contiguous_transactions_segmented(
        n_arr, vbytes, start_bytes=lo_arr * vbytes, warp_size=warp,
        transaction_bytes=LOAD_GRANULARITY_BYTES, per_segment=True)
    st1[:, 0] = tx
    st1[:, 1] = n_arr * vbytes
    st1[:, 4] = n_arr
    st1[:, 5] = n_rows * warp
    st1[:, 6] = n_rows * costs.INSTR_INIT

    st2 = np.zeros((S, len(STAT_FIELDS)), dtype=np.float64)
    for b in filter(None, (vbytes, 4, sbytes, ebytes)):
        # SrcValue, DestIndex, then the optional static / edge fields.
        _, tx = contiguous_transactions_segmented(
            m_arr, b, start_bytes=o_arr * b, warp_size=warp,
            transaction_bytes=LOAD_GRANULARITY_BYTES, per_segment=True)
        st2[:, 0] += tx
        st2[:, 1] += m_arr * b
    st2[:, 4] = m_arr
    st2[:, 5] = m_rows * warp
    dest_rel = sh.dest_index.astype(np.int64) - np.repeat(lo_arr, m_arr)
    _, replays = conflict_replays_segmented(
        dest_rel, sh.shard_offsets, warp_size=warp, per_segment=True
    )
    st2[:, 6] = (
        m_rows * costs.INSTR_COMPUTE + replays * costs.INSTR_ATOMIC_REPLAY
    )

    st3 = np.zeros((S, len(STAT_FIELDS)), dtype=np.float64)
    st3[:, 0] = st1[:, 0]
    st3[:, 1] = st1[:, 1]
    st3[:, 4] = n_arr
    st3[:, 5] = n_rows * warp
    st3[:, 6] = n_rows * costs.INSTR_UPDATE
    return st1, st2, st3, replays


def _stage4_matrix_cw(cw, warp: int, vbytes: int) -> np.ndarray:
    S = cw.num_shards
    L_arr = np.diff(cw.cw_offsets)
    mat = np.zeros((S, len(STAT_FIELDS)), dtype=np.float64)
    # SrcIndex and Mapper are both contiguous 4-byte reads over the same CW
    # slot range, so their pricing is identical: compute once, charge twice.
    _, load_tx = contiguous_transactions_segmented(
        L_arr, 4, start_bytes=cw.cw_offsets[:-1] * 4, warp_size=warp,
        transaction_bytes=LOAD_GRANULARITY_BYTES, per_segment=True)
    mat[:, 0] = 2 * load_tx
    mat[:, 1] = 2 * L_arr * 4
    _, store_tx = gather_transactions_segmented(
        cw.mapper, vbytes, cw.cw_offsets, warp_size=warp,
        transaction_bytes=STORE_GRANULARITY_BYTES, per_segment=True)
    mat[:, 2] = store_tx
    mat[:, 3] = L_arr * vbytes
    rows = -(-L_arr // warp)
    mat[:, 4] = L_arr
    mat[:, 5] = rows * warp
    mat[:, 6] = rows * costs.INSTR_WRITEBACK
    return mat


def _stage4_matrix_gs(sh, warp: int, vbytes: int) -> np.ndarray:
    S = sh.num_shards
    wo = sh.window_offsets  # (S, S + 1); W_ij = wo[j, i] : wo[j, i + 1]
    mat = np.zeros((S, len(STAT_FIELDS)), dtype=np.float64)
    # Every shard's write-back also reads the S + 1 window bounds and scans
    # all S windows (the O(S^2)-per-iteration cost CW eliminates).
    bounds_tc = contiguous_transactions(
        S + 1, 8, warp_size=warp, transaction_bytes=LOAD_GRANULARITY_BYTES
    )
    cols_per_chunk = max(1, _WINDOW_CHUNK // S)
    for i0 in range(0, S, cols_per_chunk):
        i1 = min(i0 + cols_per_chunk, S)
        ci = i1 - i0
        starts = wo[:, i0:i1]
        stops = wo[:, i0 + 1:i1 + 1]
        sz = stops - starts  # (S, ci): rows j, columns are shards i0..i1-1
        group = np.broadcast_to(
            np.arange(ci, dtype=np.int64), (S, ci)
        ).ravel()
        load_tx = window_rows_grouped(
            starts.ravel(), stops.ravel(), group, ci, 4, warp_size=warp,
            transaction_bytes=LOAD_GRANULARITY_BYTES)
        store_tx = window_rows_grouped(
            starts.ravel(), stops.ravel(), group, ci, vbytes, warp_size=warp,
            transaction_bytes=STORE_GRANULARITY_BYTES)
        out_edges = sz.sum(axis=0)
        rows = (-(-sz // warp)).sum(axis=0)
        mat[i0:i1, 0] = load_tx + bounds_tc.transactions
        mat[i0:i1, 1] = out_edges * 4 + bounds_tc.bytes_requested
        mat[i0:i1, 2] = store_tx
        mat[i0:i1, 3] = out_edges * vbytes
        mat[i0:i1, 4] = out_edges
        mat[i0:i1, 5] = rows * warp
        mat[i0:i1, 6] = (
            rows * costs.INSTR_WRITEBACK + S * costs.INSTR_GS_WINDOW_SCAN
        )
    return mat


def cusha_static_bundle(
    cw, mode: str, warp: int, vbytes: int, sbytes: int, ebytes: int
) -> CuShaStaticBundle:
    """The whole static-stats setup of ``CuShaEngine`` in vectorized form."""
    sh = cw.shards
    st1, st2, st3, replays = _stage_base_matrices(
        sh, warp, vbytes, sbytes, ebytes
    )
    if mode == "gs":
        stage4 = _stage4_matrix_gs(sh, warp, vbytes)
    else:
        stage4 = _stage4_matrix_cw(cw, warp, vbytes)
    return CuShaStaticBundle(
        stage1=st1,
        stage2=st2,
        stage3=st3,
        stage4=stage4,
        replays=replays,
        dest_global=sh.dest_index.astype(np.int64),
    )
