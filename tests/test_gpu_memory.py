"""Unit tests for the coalescing model, with hand-computed expectations."""

import numpy as np
import pytest

from repro.gpu import memory
from repro.gpu.memory import (
    TransactionCount,
    contiguous_transactions,
    gather_transactions,
    gather_transactions_segmented,
    segments_rowwise,
    strided_transactions,
)


class TestSegmentsRowwise:
    def test_single_row_distinct(self):
        seg = np.array([[0, 1, 2, 3]])
        assert segments_rowwise(seg) == 4

    def test_single_row_shared(self):
        seg = np.array([[5, 5, 5, 5]])
        assert segments_rowwise(seg) == 1

    def test_mask_excludes_lanes(self):
        seg = np.array([[0, 1, 2, 3]])
        mask = np.array([[True, False, True, False]])
        assert segments_rowwise(seg, mask) == 2

    def test_fully_masked_row(self):
        seg = np.array([[0, 1]])
        assert segments_rowwise(seg, np.zeros((1, 2), dtype=bool)) == 0

    def test_multiple_rows_sum(self):
        seg = np.array([[0, 0], [1, 2]])
        assert segments_rowwise(seg) == 3

    def test_empty(self):
        assert segments_rowwise(np.empty((0, 32), dtype=np.int64)) == 0


class TestGather:
    def test_fully_coalesced_warp(self):
        tc = gather_transactions(np.arange(32), 4, transaction_bytes=128)
        assert tc == TransactionCount(1, 128)

    def test_fully_scattered_warp(self):
        tc = gather_transactions(np.arange(32) * 64, 4, transaction_bytes=128)
        assert tc.transactions == 32

    def test_sector_granularity(self):
        """Kepler loads: 32 consecutive 4-byte items span 4 sectors of 32B."""
        tc = gather_transactions(np.arange(32), 4, transaction_bytes=32)
        assert tc.transactions == 4
        assert tc.efficiency(32) == 1.0

    def test_two_warps_counted_separately(self):
        """The same address touched by two warps costs two transactions."""
        idx = np.concatenate([np.zeros(32, dtype=int), np.zeros(32, dtype=int)])
        tc = gather_transactions(idx, 4, transaction_bytes=128)
        assert tc.transactions == 2

    def test_partial_tail_warp(self):
        tc = gather_transactions(np.arange(40), 4, transaction_bytes=128)
        assert tc.transactions == 2  # full warp 1 + tail crossing into seg 2
        assert tc.bytes_requested == 160

    def test_active_mask_reduces_requested_bytes(self):
        idx = np.arange(64)
        act = idx % 2 == 0
        tc = gather_transactions(idx, 4, active=act, transaction_bytes=128)
        assert tc.bytes_requested == 32 * 4

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            gather_transactions(np.arange(4), 4, active=np.ones(3, dtype=bool))

    def test_empty(self):
        assert gather_transactions(np.empty(0), 4).transactions == 0

    def test_base_byte_offset_can_split_segments(self):
        aligned = gather_transactions(np.arange(32), 4, transaction_bytes=128)
        shifted = gather_transactions(
            np.arange(32), 4, base_byte=64, transaction_bytes=128
        )
        assert shifted.transactions == aligned.transactions + 1

    def test_item_bytes_scale_requested(self):
        tc8 = gather_transactions(np.arange(16), 8, transaction_bytes=128)
        assert tc8.bytes_requested == 128
        assert tc8.transactions == 1

    def test_chunking_consistent(self):
        """Chunked processing must match a single-shot computation."""
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 10_000, size=5000)
        import repro.gpu.memory as mem

        whole = gather_transactions(idx, 4)
        old = mem._CHUNK_ROWS
        try:
            mem._CHUNK_ROWS = 4  # force many chunks
            chunked = gather_transactions(idx, 4)
        finally:
            mem._CHUNK_ROWS = old
        assert whole == chunked


class TestNegativeAddresses:
    """-1 marks inactive lanes inside the pricing, so a negative address
    must be refused, not priced as an idle lane."""

    def test_segments_rowwise_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            segments_rowwise(np.array([[-1, 0]]))

    def test_gather_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            gather_transactions(np.array([-5, 1]), 4)

    def test_segmented_gather_rejects_negative_index(self):
        with pytest.raises(ValueError, match="non-negative"):
            gather_transactions_segmented(np.array([-5, 1]), 4, np.array([0, 2]))

    def test_negative_base_byte_is_rejected(self):
        with pytest.raises(ValueError, match="base_byte"):
            gather_transactions(np.array([0, 1]), 4, base_byte=-128)
        with pytest.raises(ValueError, match="base_byte"):
            gather_transactions_segmented(
                np.array([0, 1]), 4, np.array([0, 2]), base_byte=-128)


class TestContiguous:
    def test_aligned_block(self):
        tc = contiguous_transactions(1024, 4, transaction_bytes=128)
        assert tc.transactions == 32
        assert tc.efficiency(128) == 1.0

    def test_misaligned_start_adds_crossings(self):
        aligned = contiguous_transactions(1024, 4, transaction_bytes=128)
        off = contiguous_transactions(
            1024, 4, start_byte=4, transaction_bytes=128
        )
        assert off.transactions > aligned.transactions

    def test_tail_rows(self):
        tc = contiguous_transactions(33, 4, transaction_bytes=128)
        assert tc.transactions == 2
        assert tc.bytes_requested == 132

    def test_empty(self):
        assert contiguous_transactions(0, 4).transactions == 0

    def test_sector_loads(self):
        tc = contiguous_transactions(64, 4, transaction_bytes=32)
        assert tc.transactions == 8
        assert tc.efficiency(32) == 1.0


class TestStrided:
    def test_aos_field_access(self):
        """4-byte field at 16-byte stride: a warp spans 512 B = 4 lines."""
        tc = strided_transactions(32, 16, 4, transaction_bytes=128)
        assert tc.transactions == 4
        assert tc.efficiency(128) == pytest.approx(0.25)

    def test_degenerates_to_contiguous(self):
        a = strided_transactions(100, 4, 4, transaction_bytes=128)
        b = contiguous_transactions(100, 4, transaction_bytes=128)
        assert a == b

    def test_empty(self):
        assert strided_transactions(0, 16, 4).transactions == 0


class TestTransactionCount:
    def test_addition(self):
        a = TransactionCount(2, 100) + TransactionCount(3, 50)
        assert a == TransactionCount(5, 150)

    def test_efficiency_of_zero_transactions(self):
        assert TransactionCount(0, 0).efficiency() == 1.0


class TestMonotoneGather:
    def test_nondecreasing_indices_skip_the_row_sort(self, monkeypatch):
        # Lane-0 stores to consecutive vertices: counted by comparing
        # neighbours, so the sort-based row count is never reached.
        def no_sort(*args, **kwargs):
            raise AssertionError("monotone indices must not be sorted")

        monkeypatch.setattr(memory, "segments_rowwise", no_sort)
        mask = np.zeros(64, dtype=bool)
        mask[[0, 1, 5, 40, 63]] = True
        tc = gather_transactions(np.arange(64), 4, active=mask, warp_size=4,
                                 transaction_bytes=32)
        # Lanes 0 and 1 share warp row 0; 5, 40 and 63 each start a row.
        assert tc == TransactionCount(4, 20)

    def test_row_boundary_splits_one_segment(self):
        # Two lanes in one 128 B segment but different warp rows cost two.
        tc = gather_transactions(np.array([7, 8]), 4, warp_size=1)
        assert tc.transactions == 2

    def test_all_inactive(self):
        tc = gather_transactions(np.arange(10), 4,
                                 active=np.zeros(10, dtype=bool))
        assert tc == TransactionCount(0, 0)

    def test_descending_indices_still_priced(self):
        idx = np.array([200, 100, 0, 0])
        # Segments 6, 3, 0, 0 in one row: three distinct.
        assert gather_transactions(idx, 4, warp_size=4).transactions == 3
