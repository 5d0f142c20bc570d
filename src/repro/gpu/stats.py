"""Kernel statistics and CUDA-profiler-style efficiency metrics.

One :class:`KernelStats` accumulates everything a kernel (one iteration of
one engine) did: memory transactions with the bytes actually wanted, warp
lane-slot activity, issued warp-instructions, and atomic counts.  The
derived properties implement the profiler metrics quoted by the paper:

- ``gld_efficiency`` / ``gst_efficiency`` — requested bytes over
  ``transactions * 128`` (Table 2, Figure 8);
- ``warp_execution_efficiency`` — active lane slots over total lane slots
  (Table 2, Figure 8).

Stats add componentwise, so per-stage and per-iteration stats roll up into a
run total whose metrics are the traffic-weighted averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.memory import TransactionCount

__all__ = ["KernelStats", "STAT_FIELDS", "STORE_COLUMNS", "stats_from_row",
           "stats_to_row", "COUNTER_FIELDS", "field_diffs"]


LOAD_GRANULARITY_BYTES = 32
"""Bytes one load transaction moves (Kepler 32-byte L2 sectors)."""

STORE_GRANULARITY_BYTES = 128
"""Bytes one store transaction moves (write-allocated L2 lines)."""


@dataclass
class KernelStats:
    """Aggregated hardware activity of one kernel (or a sum of kernels)."""

    load_transactions: int = 0
    load_bytes_requested: int = 0
    store_transactions: int = 0
    store_bytes_requested: int = 0
    active_lane_slots: int = 0
    total_lane_slots: int = 0
    warp_instructions: float = 0.0
    shared_atomics: int = 0
    global_atomics: int = 0
    kernel_launches: int = 0

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def add_load(self, tc: TransactionCount) -> None:
        self.load_transactions += tc.transactions
        self.load_bytes_requested += tc.bytes_requested

    def add_store(self, tc: TransactionCount) -> None:
        self.store_transactions += tc.transactions
        self.store_bytes_requested += tc.bytes_requested

    def add_load_raw(self, transactions: int, bytes_requested: int) -> None:
        self.load_transactions += int(transactions)
        self.load_bytes_requested += int(bytes_requested)

    def add_store_raw(self, transactions: int, bytes_requested: int) -> None:
        self.store_transactions += int(transactions)
        self.store_bytes_requested += int(bytes_requested)

    def add_lanes(
        self, active: int, total: int, *, instructions_per_row: float = 1.0,
        warp_size: int = 32,
    ) -> None:
        """Record lane activity and charge issue slots for it.

        ``total`` lane slots correspond to ``total / warp_size`` warp
        instructions, each weighted by ``instructions_per_row`` (how many
        instructions the loop body issues per element step).
        """
        self.active_lane_slots += active
        self.total_lane_slots += total
        self.warp_instructions += (total / warp_size) * instructions_per_row

    def add_instructions(self, count: float) -> None:
        """Charge warp instructions with no lane-activity footprint (uniform
        control flow such as loop bounds checks)."""
        self.warp_instructions += count

    def add_atomics(self, shared: int = 0, global_: int = 0) -> None:
        self.shared_atomics += shared
        self.global_atomics += global_

    # ------------------------------------------------------------------
    # Profiler metrics
    # ------------------------------------------------------------------
    @property
    def gld_efficiency(self) -> float:
        """Global-memory load efficiency in [0, 1]."""
        if self.load_transactions == 0:
            return 1.0
        return self.load_bytes_requested / (
            self.load_transactions * LOAD_GRANULARITY_BYTES
        )

    @property
    def gst_efficiency(self) -> float:
        """Global-memory store efficiency in [0, 1]."""
        if self.store_transactions == 0:
            return 1.0
        return self.store_bytes_requested / (
            self.store_transactions * STORE_GRANULARITY_BYTES
        )

    @property
    def load_bytes_moved(self) -> int:
        return self.load_transactions * LOAD_GRANULARITY_BYTES

    @property
    def store_bytes_moved(self) -> int:
        return self.store_transactions * STORE_GRANULARITY_BYTES

    @property
    def warp_execution_efficiency(self) -> float:
        """Average active-lane fraction in [0, 1]."""
        if self.total_lane_slots == 0:
            return 1.0
        return self.active_lane_slots / self.total_lane_slots

    @property
    def total_transactions(self) -> int:
        return self.load_transactions + self.store_transactions

    @property
    def total_bytes_requested(self) -> int:
        """Load + store bytes the kernels asked DRAM for.

        This is the quantity proven-safe dtype narrowing shrinks (the
        ``ranges`` perfgate layer thresholds its reduction), so it gets a
        named accessor rather than ad-hoc sums at the call sites.
        """
        return self.load_bytes_requested + self.store_bytes_requested

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def __add__(self, other: "KernelStats") -> "KernelStats":
        return KernelStats(
            self.load_transactions + other.load_transactions,
            self.load_bytes_requested + other.load_bytes_requested,
            self.store_transactions + other.store_transactions,
            self.store_bytes_requested + other.store_bytes_requested,
            self.active_lane_slots + other.active_lane_slots,
            self.total_lane_slots + other.total_lane_slots,
            self.warp_instructions + other.warp_instructions,
            self.shared_atomics + other.shared_atomics,
            self.global_atomics + other.global_atomics,
            self.kernel_launches + other.kernel_launches,
        )

    def __iadd__(self, other: "KernelStats") -> "KernelStats":
        self.load_transactions += other.load_transactions
        self.load_bytes_requested += other.load_bytes_requested
        self.store_transactions += other.store_transactions
        self.store_bytes_requested += other.store_bytes_requested
        self.active_lane_slots += other.active_lane_slots
        self.total_lane_slots += other.total_lane_slots
        self.warp_instructions += other.warp_instructions
        self.shared_atomics += other.shared_atomics
        self.global_atomics += other.global_atomics
        self.kernel_launches += other.kernel_launches
        return self

    def copy(self) -> "KernelStats":
        return self + KernelStats()

    def scaled(self, k: int) -> "KernelStats":
        """A static per-iteration stat repeated over ``k`` iterations
        (``kernel_launches`` is an execution artifact and stays 0)."""
        return KernelStats(
            self.load_transactions * k,
            self.load_bytes_requested * k,
            self.store_transactions * k,
            self.store_bytes_requested * k,
            self.active_lane_slots * k,
            self.total_lane_slots * k,
            self.warp_instructions * k,
            self.shared_atomics * k,
            self.global_atomics * k,
        )


#: Column order of a stats row: the :class:`KernelStats` fields without
#: ``kernel_launches``, which is always zero for stage and per-shard stats.
#: The engines' fast sweeps keep their stage breakdowns as float64 rows;
#: every counter is an integer and every ``warp_instructions`` value a
#: small multiple of 1/4, so row sums are exact in any order.
STAT_FIELDS: tuple[str, ...] = (
    "load_transactions",
    "load_bytes_requested",
    "store_transactions",
    "store_bytes_requested",
    "active_lane_slots",
    "total_lane_slots",
    "warp_instructions",
    "shared_atomics",
    "global_atomics",
)

#: The two :data:`STAT_FIELDS` columns a store's ``TransactionCount`` fills.
STORE_COLUMNS = [STAT_FIELDS.index("store_transactions"),
                 STAT_FIELDS.index("store_bytes_requested")]


def stats_to_row(stats: KernelStats) -> np.ndarray:
    """``stats`` as one float64 row in :data:`STAT_FIELDS` order."""
    return np.array([getattr(stats, f) for f in STAT_FIELDS],
                    dtype=np.float64)


def stats_from_row(row: np.ndarray) -> KernelStats:
    """The :class:`KernelStats` of one row (the inverse of
    :func:`stats_to_row`; ``kernel_launches`` is 0)."""
    return KernelStats(**{
        f: float(v) if f == "warp_instructions" else int(v)
        for f, v in zip(STAT_FIELDS, row)
    })


#: Counter fields the static perf auditor can predict and compare.
#: ``warp_instructions`` is deliberately excluded: instruction totals are
#: floats accumulated in path-dependent order and get a toleranced
#: comparison instead; ``kernel_launches`` is an execution artifact.
COUNTER_FIELDS: tuple[str, ...] = (
    "load_transactions",
    "load_bytes_requested",
    "store_transactions",
    "store_bytes_requested",
    "active_lane_slots",
    "total_lane_slots",
    "shared_atomics",
    "global_atomics",
)


def field_diffs(
    predicted: "KernelStats",
    measured: "KernelStats",
    fields: tuple[str, ...] = COUNTER_FIELDS,
    *,
    scale: int = 1,
) -> dict[str, tuple[float, float]]:
    """Fields where ``predicted * scale`` and ``measured`` disagree.

    Returns ``{field: (expected, measured)}`` for every mismatch; empty
    dict means the prediction holds exactly.  ``scale`` repeats the
    per-sweep prediction over that many iterations.
    """
    out: dict[str, tuple[float, float]] = {}
    for f in fields:
        want = getattr(predicted, f) * scale
        got = getattr(measured, f)
        if want != got:
            out[f] = (want, got)
    return out
