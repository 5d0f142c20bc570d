"""Global-memory coalescing model.

A warp's 32 lanes issue one memory request each; the memory controller
services the set of distinct ``transaction_bytes``-sized (128 B) aligned
segments those requests touch.  Perfectly coalesced access by a full warp to
4-byte items touches exactly one segment; a random gather can touch up to 32.

The CUDA profiler's *global load/store efficiency* is the ratio of bytes the
program asked for to bytes the controller moved
(``requested / (transactions * 128)``) — the definitions used in the paper's
Table 2 and Figure 8.  This module counts transactions for the three access
shapes the engines produce:

- :func:`gather_transactions` — data-dependent gathers/scatters
  (e.g. ``VertexValues[SrcIndex[e]]`` in VWC-CSR, the CW ``Mapper`` stores);
- :func:`contiguous_transactions` — unit-stride sweeps (shard entries,
  ``VertexValues`` block loads);
- :func:`strided_transactions` — AoS field accesses (for the layout
  ablation).

All counting is vectorized and chunked so multi-million-edge streams fit in
memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransactionCount",
    "gather_transactions",
    "gather_transactions_segmented",
    "contiguous_transactions",
    "contiguous_transactions_segmented",
    "strided_transactions",
    "segments_rowwise",
]

_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class TransactionCount:
    """Outcome of pricing one access pattern."""

    transactions: int
    bytes_requested: int

    def __add__(self, other: "TransactionCount") -> "TransactionCount":
        return TransactionCount(
            self.transactions + other.transactions,
            self.bytes_requested + other.bytes_requested,
        )

    def efficiency(self, transaction_bytes: int = 128) -> float:
        """Requested bytes over moved bytes (1.0 = perfectly coalesced)."""
        if self.transactions == 0:
            return 1.0
        return self.bytes_requested / (self.transactions * transaction_bytes)


ZERO = TransactionCount(0, 0)


def segments_rowwise(
    segments: np.ndarray, active: np.ndarray | None = None
) -> int:
    """Count distinct values per row of ``segments`` and sum over rows.

    ``segments`` is ``(rows, lanes)`` of non-negative segment ids; ``active``
    masks lanes that issued no request.  The per-row distinct count is the
    number of memory transactions that warp-step costs.  A negative id
    raises ``ValueError`` (inactive lanes are marked -1 internally, so a
    negative address would otherwise go unpriced).
    """
    if segments.size == 0:
        return 0
    _check_non_negative(segments, "segment id")
    seg = segments.astype(np.int64, copy=True)
    if active is not None:
        seg[~active] = -1
    seg.sort(axis=1)
    first = seg[:, 0] >= 0
    fresh = (seg[:, 1:] != seg[:, :-1]) & (seg[:, 1:] >= 0)
    return int(first.sum()) + int(fresh.sum())


def gather_transactions(
    indices: np.ndarray,
    item_bytes: int,
    *,
    active: np.ndarray | None = None,
    warp_size: int = 32,
    transaction_bytes: int = 128,
    base_byte: int = 0,
) -> TransactionCount:
    """Price a data-dependent gather/scatter.

    ``indices[k]`` is the element index accessed by thread ``k``; threads
    are packed into warps in order.  ``active`` marks threads that actually
    issue the access (inactive lanes cost nothing).  Items are assumed
    aligned, so one access touches one segment (true for the 4- and 8-byte
    fields used throughout).

    Nondecreasing ``indices`` (e.g. lane-0 stores to consecutive vertices)
    need no sort: the active lanes' ``(warp row, segment)`` pairs are then
    in order too, so a lane starts a transaction exactly when its pair
    differs from the previous active lane's.
    """
    indices = np.asarray(indices)
    n = indices.size
    if n == 0:
        return ZERO
    _check_non_negative(indices, "index", base_byte)
    if active is None:
        requested = n * item_bytes
    else:
        active = np.asarray(active, dtype=bool)
        if active.shape != indices.shape:
            raise ValueError("active mask must align with indices")
        requested = int(active.sum()) * item_bytes
    if _nondecreasing(indices):
        threads = (np.arange(n, dtype=np.int64) if active is None
                   else np.flatnonzero(active))
        if threads.size == 0:
            return TransactionCount(0, int(requested))
        seg = indices[threads].astype(np.int64)
        seg *= item_bytes
        seg += base_byte
        seg //= transaction_bytes
        new = seg[1:] != seg[:-1]
        threads //= warp_size  # each active thread's warp row
        new |= threads[1:] != threads[:-1]
        return TransactionCount(1 + int(new.sum()), int(requested))
    transactions = 0
    lanes = warp_size
    for start in range(0, n, _CHUNK_ROWS * lanes):
        stop = min(start + _CHUNK_ROWS * lanes, n)
        chunk = indices[start:stop].astype(np.int64)
        mask = None if active is None else active[start:stop]
        pad = (-chunk.size) % lanes
        if pad:
            chunk = np.concatenate([chunk, np.zeros(pad, dtype=np.int64)])
            m = np.ones(chunk.size, dtype=bool) if mask is None else np.concatenate(
                [mask, np.zeros(pad, dtype=bool)]
            )
            m[-pad:] = False
            mask = m
        seg = (base_byte + chunk * item_bytes) // transaction_bytes
        transactions += segments_rowwise(
            seg.reshape(-1, lanes),
            None if mask is None else mask.reshape(-1, lanes),
        )
    return TransactionCount(transactions, int(requested))


def gather_transactions_segmented(
    indices: np.ndarray,
    item_bytes: int,
    seg_offsets: np.ndarray,
    *,
    warp_size: int = 32,
    transaction_bytes: int = 128,
    base_byte: int = 0,
    per_segment: bool = False,
) -> TransactionCount | tuple[TransactionCount, np.ndarray]:
    """Price many independent gathers in one vectorized pass.

    Segment ``k`` is ``indices[seg_offsets[k] : seg_offsets[k + 1]]`` and is
    priced exactly like a standalone :func:`gather_transactions` call on it:
    threads pack into warps *within* a segment, so warp rows never span
    segment boundaries (each segment is its own thread block / work list).
    The total equals the sum of the per-segment calls; with
    ``per_segment=True`` the per-segment transaction counts are returned as
    well (``(total, per_segment_transactions)``).

    Each access is one int64 key ``row * width + segment`` (``width`` one
    past the largest segment id), so the transaction count is the number of
    distinct keys, found by one in-place sort (skipped when the keys are
    already nondecreasing, as for indices sorted within each segment); a
    key's row maps back to its gather segment for the per-segment counts.
    """
    indices = np.asarray(indices)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    num_segments = seg_offsets.size - 1
    sizes = np.diff(seg_offsets)
    m = int(indices.size)
    if m == 0:
        if per_segment:
            return ZERO, np.zeros(num_segments, dtype=np.int64)
        return ZERO
    _check_non_negative(indices, "index", base_byte)
    rows_per = -(-sizes // warp_size)
    row_offsets = np.concatenate([[0], np.cumsum(rows_per)])
    # Thread k of gather segment s runs in warp row
    # row_offsets[s] + (k - seg_offsets[s]) // warp_size.
    key = np.arange(m, dtype=np.int64)
    key -= np.repeat(seg_offsets[:-1], sizes)
    key //= warp_size
    key += np.repeat(row_offsets[:-1], sizes)
    seg = indices.astype(np.int64)
    seg *= item_bytes
    seg += base_byte
    seg //= transaction_bytes
    width = int(seg.max()) + 1
    key *= width
    key += seg
    del seg
    if not _nondecreasing(key):
        key.sort()
    new = np.empty(m, dtype=bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    total = TransactionCount(int(new.sum()), m * item_bytes)
    if not per_segment:
        return total
    row_seg = np.repeat(np.arange(num_segments, dtype=np.int64), rows_per)
    per_seg = np.bincount(row_seg[key[new] // width], minlength=num_segments)
    return total, per_seg


def _nondecreasing(values: np.ndarray) -> bool:
    """Whether ``values`` (1-D) never decreases."""
    return bool(np.all(values[1:] >= values[:-1]))


def _check_non_negative(values: np.ndarray, what: str, base_byte: int = 0) -> None:
    """Reject negative addresses, which no pricing here can count."""
    if base_byte < 0:
        raise ValueError(f"base_byte must be non-negative, got {base_byte}")
    low = int(values.min())
    if low < 0:
        raise ValueError(f"every {what} must be non-negative, found {low}")


def contiguous_transactions(
    num_items: int,
    item_bytes: int,
    *,
    start_byte: int = 0,
    warp_size: int = 32,
    transaction_bytes: int = 128,
) -> TransactionCount:
    """Price a unit-stride sweep of ``num_items`` items by consecutive threads.

    Each warp-row of 32 consecutive items touches the segments its byte span
    covers; computed analytically (no materialized address array).
    """
    if num_items <= 0:
        return ZERO
    row_bytes = warp_size * item_bytes
    rows = -(-num_items // warp_size)
    row_ids = np.arange(rows, dtype=np.int64)
    lo = start_byte + row_ids * row_bytes
    hi = np.minimum(
        start_byte + (row_ids + 1) * row_bytes,
        start_byte + num_items * item_bytes,
    )
    txs = (hi - 1) // transaction_bytes - lo // transaction_bytes + 1
    return TransactionCount(int(txs.sum()), num_items * item_bytes)


def contiguous_transactions_segmented(
    sizes: np.ndarray,
    item_bytes: int,
    *,
    start_bytes: np.ndarray | None = None,
    warp_size: int = 32,
    transaction_bytes: int = 128,
    per_segment: bool = False,
) -> TransactionCount | tuple[TransactionCount, np.ndarray]:
    """Price many unit-stride sweeps in one vectorized pass.

    Window ``k`` covers ``sizes[k]`` items starting at byte
    ``start_bytes[k]`` and is priced exactly like a standalone
    :func:`contiguous_transactions` call (warp rows never span windows).
    ``per_segment=True`` additionally returns per-window transaction counts.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    num = sizes.size
    if start_bytes is None:
        start_bytes = np.zeros(num, dtype=np.int64)
    else:
        start_bytes = np.asarray(start_bytes, dtype=np.int64)
    rows_per = np.maximum(sizes, 0)
    rows_per = -(-rows_per // warp_size)
    total_rows = int(rows_per.sum())
    requested = int(np.maximum(sizes, 0).sum()) * item_bytes
    if total_rows == 0:
        if per_segment:
            return ZERO, np.zeros(num, dtype=np.int64)
        return ZERO
    row_offsets = np.concatenate([[0], np.cumsum(rows_per)])
    win = np.repeat(np.arange(num, dtype=np.int64), rows_per)
    local = np.arange(total_rows, dtype=np.int64) - row_offsets[win]
    row_bytes = warp_size * item_bytes
    lo = start_bytes[win] + local * row_bytes
    hi = np.minimum(
        start_bytes[win] + (local + 1) * row_bytes,
        start_bytes[win] + sizes[win] * item_bytes,
    )
    txs = (hi - 1) // transaction_bytes - lo // transaction_bytes + 1
    total = TransactionCount(int(txs.sum()), requested)
    if not per_segment:
        return total
    per = np.bincount(win, weights=txs, minlength=num).astype(np.int64)
    return total, per


def strided_transactions(
    num_items: int,
    stride_bytes: int,
    item_bytes: int,
    *,
    start_byte: int = 0,
    warp_size: int = 32,
    transaction_bytes: int = 128,
) -> TransactionCount:
    """Price a constant-stride sweep (AoS field access; layout ablation).

    Thread ``k`` reads ``item_bytes`` at ``start + k * stride_bytes``.  With
    ``stride_bytes == item_bytes`` this degenerates to
    :func:`contiguous_transactions`.
    """
    if num_items <= 0:
        return ZERO
    if stride_bytes == item_bytes:
        return contiguous_transactions(
            num_items,
            item_bytes,
            start_byte=start_byte,
            warp_size=warp_size,
            transaction_bytes=transaction_bytes,
        )
    row_span = warp_size * stride_bytes
    rows = -(-num_items // warp_size)
    row_ids = np.arange(rows, dtype=np.int64)
    items_in_row = np.minimum(num_items - row_ids * warp_size, warp_size)
    lo = start_byte + row_ids * row_span
    hi = lo + (items_in_row - 1) * stride_bytes + item_bytes
    txs = (hi - 1) // transaction_bytes - lo // transaction_bytes + 1
    return TransactionCount(int(txs.sum()), num_items * item_bytes)
