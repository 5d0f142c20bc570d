"""Shared-memory bank-conflict model.

Kepler shared memory has 32 banks; when several lanes of a warp issue
atomics to addresses in the same bank, the accesses serialize into replays.
CuSha's stage 2 reduces into ``local_vertices[DestIndex - offset]``, so the
destination pattern of each warp-row of shard entries determines the
replay count — low for shards with spread destinations (the paper's "lock
contention is low because of the size of shards"), high when many entries
share a destination.

:func:`conflict_replays` counts, for each warp-row of 32 consecutive
entries, ``max_bank_multiplicity - 1`` (the extra serialized rounds) and
returns the total.  It is computed once per shard (the pattern is static).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conflict_replays",
    "conflict_replays_segmented",
    "bank_multiplicity_histogram",
    "replay_fraction",
]


def _row_max_multiplicity(banks: np.ndarray) -> np.ndarray:
    """Per row, the largest number of lanes hitting one bank.

    ``banks`` is ``(rows, lanes)`` of non-negative bank ids; one
    ``bincount`` over ``row * width + bank`` counts every (row, bank) pair.
    """
    rows = banks.shape[0]
    width = int(banks.max()) + 1
    key = banks + (np.arange(rows, dtype=np.int64) * width)[:, None]
    counts = np.bincount(key.ravel(), minlength=rows * width)
    return counts.reshape(rows, width).max(axis=1)


def conflict_replays(
    dest_idx: np.ndarray, *, warp_size: int = 32, banks: int = 32,
    value_words: int = 1,
) -> int:
    """Total atomic replay rounds for a warp-schedule over ``dest_idx``.

    ``dest_idx[k]`` is the shared-memory slot lane ``k`` atomically updates
    (consecutive lanes form warps).  A row whose 32 lanes hit 32 distinct
    banks replays 0 times; a row where ``m`` lanes share a bank replays
    ``m - 1`` times.  ``value_words`` scales slot indices to 4-byte words
    (8-byte vertex values stride two banks).
    """
    idx = np.asarray(dest_idx, dtype=np.int64)
    if idx.size == 0:
        return 0
    bank = (idx * value_words) % banks
    pad = (-bank.size) % warp_size
    if pad:
        # Padding lanes get unique out-of-range "banks": runs of length one
        # that never create (or mask) a conflict.
        filler = banks + np.arange(pad, dtype=np.int64)
        bank = np.concatenate([bank, filler])
    rows = bank.reshape(-1, warp_size)
    max_mult = _row_max_multiplicity(rows)
    return int((max_mult - 1).sum())


def conflict_replays_segmented(
    dest_idx: np.ndarray,
    seg_offsets: np.ndarray,
    *,
    warp_size: int = 32,
    banks: int = 32,
    value_words: int = 1,
    per_segment: bool = False,
) -> int | tuple[int, np.ndarray]:
    """Replay rounds for many independent warp-schedules in one pass.

    Segment ``k`` is ``dest_idx[seg_offsets[k] : seg_offsets[k + 1]]`` and
    is priced exactly like a standalone :func:`conflict_replays` call on it
    (warp rows never span segments; each segment pads its last row with
    conflict-free filler lanes).  ``per_segment=True`` additionally returns
    the per-segment replay totals.
    """
    idx = np.asarray(dest_idx, dtype=np.int64)
    seg_offsets = np.asarray(seg_offsets, dtype=np.int64)
    num_segments = seg_offsets.size - 1
    sizes = np.diff(seg_offsets)
    if idx.size == 0:
        if per_segment:
            return 0, np.zeros(num_segments, dtype=np.int64)
        return 0
    rows_per = -(-sizes // warp_size)
    total_rows = int(rows_per.sum())
    row_offsets = np.concatenate([[0], np.cumsum(rows_per)])
    # Filler lanes take distinct out-of-range banks per row (runs of length
    # one); real entries are scattered over them at their in-segment slot.
    padded = np.tile(banks + np.arange(warp_size, dtype=np.int64), total_rows)
    seg_id = np.repeat(np.arange(num_segments, dtype=np.int64), sizes)
    rank = np.arange(idx.size, dtype=np.int64) - np.repeat(seg_offsets[:-1], sizes)
    pos = (row_offsets[seg_id] + rank // warp_size) * warp_size + rank % warp_size
    padded[pos] = (idx * value_words) % banks
    max_mult = _row_max_multiplicity(padded.reshape(total_rows, warp_size))
    replays = max_mult - 1
    total = int(replays.sum())
    if not per_segment:
        return total
    row_seg = np.repeat(np.arange(num_segments, dtype=np.int64), rows_per)
    per = np.bincount(row_seg, weights=replays, minlength=num_segments)
    return total, per.astype(np.int64)


def bank_multiplicity_histogram(
    dest_idx: np.ndarray, *, warp_size: int = 32, banks: int = 32
) -> np.ndarray:
    """Histogram of per-row maximum bank multiplicities (1..warp_size)."""
    idx = np.asarray(dest_idx, dtype=np.int64)
    if idx.size == 0:
        return np.zeros(warp_size + 1, dtype=np.int64)
    bank = idx % banks
    pad = (-bank.size) % warp_size
    if pad:
        filler = banks + np.arange(pad, dtype=np.int64)
        bank = np.concatenate([bank, filler])
    rows = bank.reshape(-1, warp_size)
    mult = _row_max_multiplicity(rows)
    return np.bincount(mult, minlength=warp_size + 1).astype(np.int64)


def replay_fraction(
    replays: int, rows: int, *, warp_size: int = 32
) -> float:
    """Replays as a fraction of the fully serialized worst case.

    The worst a warp-row can do is ``warp_size - 1`` replay rounds (all
    lanes on one bank); ``1.0`` means every row serializes completely.
    Used by the perf auditor's ``P305`` lock-contention warning.
    """
    if rows <= 0 or warp_size <= 1:
        return 0.0
    return replays / (rows * (warp_size - 1))
