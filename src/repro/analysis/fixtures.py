"""Deliberately broken fixtures proving every analysis rule fires.

Two registries back the test suite and ``python -m repro check --selftest``:

- :data:`BROKEN_PROGRAMS` — minimal :class:`VertexProgram` subclasses, each
  violating one contract rule the linter or race detector must catch.
- :data:`CORRUPTIONS` — in-place corruptions of freshly built
  representations, each breaking exactly one structural invariant.

Every entry records the rule it targets (``expect``) plus the full set of
codes the corruption legitimately fires (``allowed``) — some breakages
genuinely violate a second property (e.g. shifting ``cw_offsets`` both
breaks the tiling *and* misaligns every CW slice), and the fixtures are
honest about that rather than pretending rules are independent.
"""

from __future__ import annotations

import random  # noqa: F401  (referenced by NondetProgram's device function)
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.shards import GShards
from repro.vertexcentric.datatypes import vertex_dtype as struct_dtype
from repro.vertexcentric.program import VertexProgram

__all__ = [
    "BROKEN_PROGRAMS",
    "CERTIFY_FIXTURES",
    "CORRUPTIONS",
    "PERF_FIXTURES",
    "RANGES_FIXTURES",
    "RESILIENCE_FIXTURES",
    "BrokenProgram",
    "CertifyFixture",
    "Corruption",
    "PerfFixture",
    "RangesFixture",
    "ResilienceFixture",
    "build_corrupted",
    "fixture_graph",
    "perf_fixture_graph",
]


def fixture_graph(num_vertices: int = 24, num_edges: int = 96) -> DiGraph:
    """A small deterministic multi-shard graph for exercising the checks."""
    rng = np.random.default_rng(1234)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return DiGraph(src, dst, num_vertices, validate=False)


# ----------------------------------------------------------------------
# Broken programs
# ----------------------------------------------------------------------

class _LintOnlyBase(VertexProgram):
    """Shared trivial implementations so lint fixtures are instantiable."""

    vertex_dtype = struct_dtype(level=np.int64)
    reduce_ops = {"level": "min"}

    def initial_values(self, graph):
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        values["level"] = np.arange(graph.num_vertices)
        return values

    def init_compute(self, local_v, v):
        local_v["level"] = v["level"]

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = min(local_v["level"], src_v["level"] + 1)

    def update_condition(self, local_v, v):
        return local_v["level"] < v["level"]

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"level": src_vals["level"] + 1}, None

    def apply(self, local, old):
        return local, local["level"] < old["level"]


class UndeclaredWriteProgram(_LintOnlyBase):
    """``compute`` (and ``messages``) touch a field outside ``reduce_ops``."""

    name = "fixture-undeclared-write"
    vertex_dtype = struct_dtype(level=np.int64, shadow=np.int64)
    reduce_ops = {"level": "min"}

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = min(local_v["level"], src_v["level"] + 1)
        local_v["shadow"] = src_v["shadow"]

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {
            "level": src_vals["level"] + 1,
            "shadow": src_vals["shadow"],
        }, None


class BadReduceOpProgram(_LintOnlyBase):
    """Declares a non-commutative reducer."""

    name = "fixture-bad-reduce-op"
    reduce_ops = {"level": "mul"}  # type: ignore[dict-item]


class UnknownFieldProgram(_LintOnlyBase):
    """Reads a field missing from the declared ``vertex_dtype``."""

    name = "fixture-unknown-field"

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = min(local_v["level"], src_v["ghost"] + 1)


class PairMismatchProgram(_LintOnlyBase):
    """Scalar ``compute`` and vectorized ``messages`` cover different fields."""

    name = "fixture-pair-mismatch"
    vertex_dtype = struct_dtype(level=np.int64, rank=np.int64)
    reduce_ops = {"level": "min", "rank": "add"}

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"rank": src_vals["rank"]}, None


class NondetProgram(_LintOnlyBase):
    """References a nondeterminism source inside a device function."""

    name = "fixture-nondet"

    def compute(self, src_v, src_static, edge, local_v):
        jitter = int(random.random() * 0)
        local_v["level"] = min(local_v["level"], src_v["level"] + 1 + jitter)


class MutatesVertexProgram(_LintOnlyBase):
    """Writes the read-only source record — statically L006, dynamically
    the race detector sees the VertexValues write outside stage 3 (R201)."""

    name = "fixture-mutates-vertex"

    def compute(self, src_v, src_static, edge, local_v):
        src_v["level"] = src_v["level"] + 1
        local_v["level"] = min(local_v["level"], src_v["level"])


class MissingDeclProgram(_LintOnlyBase):
    """No ``name`` and no ``reduce_ops`` declaration."""

    reduce_ops = {}  # type: ignore[assignment]


class InitPairMismatchProgram(_LintOnlyBase):
    """Overridden ``init_local`` initializes a field ``init_compute`` never
    writes, so the scalar and vectorized init stages disagree."""

    name = "fixture-init-pair-mismatch"
    vertex_dtype = struct_dtype(level=np.int64, rank=np.int64)

    def init_local(self, current):
        out = current.copy()
        out["rank"] = 0
        return out


class LiteralOverflowProgram(_LintOnlyBase):
    """Compares a ``uint16`` field against a literal above 65535 — the
    comparison can never be affected by the literal's low bits (L009)."""

    name = "fixture-literal-overflow"
    vertex_dtype = struct_dtype(level=np.uint16)

    def update_condition(self, local_v, v):
        return local_v["level"] < v["level"] and local_v["level"] != 70000


class OrderSensitiveProgram(_LintOnlyBase):
    """Last-writer-wins ``compute``: statically clean, but folding edges in
    a different order changes the answer (R203)."""

    name = "fixture-order-sensitive"
    reduce_ops = {"level": "add"}

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = src_v["level"]

    def update_condition(self, local_v, v):
        return local_v["level"] != v["level"]

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"level": src_vals["level"]}, None

    def apply(self, local, old):
        return local, local["level"] != old["level"]


class ReduceBypassProgram(_LintOnlyBase):
    """Declares a ``min`` reducer but overwrites the local unconditionally,
    so a stage-2 write can *increase* the value — the race detector's
    monotonicity shadow check (R202) catches the bypass."""

    name = "fixture-reduce-bypass"

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = src_v["level"] + 1

    def update_condition(self, local_v, v):
        return local_v["level"] < v["level"]


@dataclass(frozen=True)
class BrokenProgram:
    """One broken-program fixture and the rule(s) it must trip."""

    factory: Callable[[], VertexProgram]
    expect: str
    #: every code the fixture may legitimately fire (superset of {expect})
    allowed: frozenset[str]
    #: which checker catches it: "lint" or "race"
    layer: str = "lint"


BROKEN_PROGRAMS: dict[str, BrokenProgram] = {
    "undeclared-write": BrokenProgram(
        UndeclaredWriteProgram, "L001", frozenset({"L001"})
    ),
    "bad-reduce-op": BrokenProgram(
        BadReduceOpProgram, "L002", frozenset({"L002"})
    ),
    "unknown-field": BrokenProgram(
        UnknownFieldProgram, "L003", frozenset({"L003"})
    ),
    "pair-mismatch": BrokenProgram(
        PairMismatchProgram, "L004", frozenset({"L004", "L008"})
    ),
    "nondet": BrokenProgram(
        NondetProgram, "L005", frozenset({"L005"})
    ),
    "mutates-vertex": BrokenProgram(
        MutatesVertexProgram, "L006", frozenset({"L006"})
    ),
    "missing-decl": BrokenProgram(
        MissingDeclProgram, "L007", frozenset({"L007"})
    ),
    "init-pair-mismatch": BrokenProgram(
        InitPairMismatchProgram, "L004", frozenset({"L004"})
    ),
    "literal-overflow": BrokenProgram(
        LiteralOverflowProgram, "L009", frozenset({"L009"})
    ),
    "race-vertex-write": BrokenProgram(
        MutatesVertexProgram, "R201", frozenset({"R201", "R203"}),
        layer="race",
    ),
    "race-reduce-bypass": BrokenProgram(
        ReduceBypassProgram, "R202", frozenset({"R202", "R203"}),
        layer="race",
    ),
    "race-order-sensitive": BrokenProgram(
        OrderSensitiveProgram, "R203", frozenset({"R203"}),
        layer="race",
    ),
}


# ----------------------------------------------------------------------
# Representation corruptions
# ----------------------------------------------------------------------

def _corrupt_csr_monotone(csr: CSR) -> None:
    # Swap an *interior* rising pair so idx[0]=0 / idx[-1]=|E| (S103's
    # property) stay intact and only the monotonicity rule fires.
    idx = csr.in_edge_idxs
    rises = np.flatnonzero(np.diff(idx)[1:-1] > 0) + 1
    k = int(rises[0])
    idx[k], idx[k + 1] = idx[k + 1], idx[k]


def _corrupt_csr_range(csr: CSR) -> None:
    csr.src_indxs[0] = csr.num_vertices


def _corrupt_csr_bounds(csr: CSR) -> None:
    csr.in_edge_idxs[-1] += 1


def _corrupt_csr_positions(csr: CSR) -> None:
    csr.edge_positions[0] = csr.edge_positions[1]


def _corrupt_shard_dest(sh: GShards) -> None:
    # Point the first entry's destination at the last shard's range.
    sh.dest_index[0] = sh.num_vertices - 1


def _corrupt_shard_order(sh: GShards) -> None:
    # Swap two adjacent entries with different sources inside one shard.
    src = sh.src_index
    for j in range(sh.num_shards):
        lo, hi = int(sh.shard_offsets[j]), int(sh.shard_offsets[j + 1])
        rises = np.flatnonzero(np.diff(src[lo:hi]) > 0)
        if rises.size:
            k = lo + int(rises[0])
            src[k], src[k + 1] = src[k + 1], src[k]
            return
    raise AssertionError("fixture graph has no sortable shard")


def _corrupt_shard_positions(sh: GShards) -> None:
    sh.edge_positions[0] = sh.edge_positions[1]


def _corrupt_shard_windows(sh: GShards) -> None:
    wo = sh.window_offsets
    for j in range(sh.num_shards):
        row = wo[j]
        widths = np.diff(row)
        k = int(np.argmax(widths))
        if widths[k] > 0:
            row[k + 1] -= 1  # shrink a non-empty window: boundary now wrong
            return
    raise AssertionError("fixture graph has no non-empty window")


def _corrupt_shard_offsets(sh: GShards) -> None:
    sh.shard_offsets[-1] += 1


def _corrupt_cw_concat(cw: ConcatenatedWindows) -> None:
    # Swap two CW slots *consistently* (mapper and cw_src_index together):
    # every pointwise invariant still holds, only the concatenation order
    # (paper's CW_i definition) is broken.
    off = cw.cw_offsets
    widths = np.diff(off)
    i = int(np.argmax(widths))
    if widths[i] < 2:
        raise AssertionError("fixture graph has no CW_i with 2+ slots")
    k = int(off[i])
    m, s = cw.mapper, cw.cw_src_index
    m[k], m[k + 1] = m[k + 1], m[k]
    s[k], s[k + 1] = s[k + 1], s[k]


def _corrupt_cw_mapper(cw: ConcatenatedWindows) -> None:
    cw.mapper = cw.mapper[:-1]


def _corrupt_cw_srcindex(cw: ConcatenatedWindows) -> None:
    cw.cw_src_index[0] += 1


def _corrupt_cw_offsets(cw: ConcatenatedWindows) -> None:
    # Shrink the final boundary: the slices no longer cover slot |E|-1, so
    # the tiling property fails on any graph (an interior decrement merely
    # moves a boundary, which the per-shard concat rule S121 would catch
    # instead).
    cw.cw_offsets[-1] -= 1


@dataclass(frozen=True)
class Corruption:
    """One in-place representation corruption and the rule it targets."""

    kind: str  # "csr" | "gshards" | "cw"
    expect: str
    allowed: frozenset[str]
    apply: Callable[[object], None]


CORRUPTIONS: dict[str, Corruption] = {
    "csr-nonmonotone": Corruption(
        "csr", "S101", frozenset({"S101"}), _corrupt_csr_monotone
    ),
    "csr-out-of-range": Corruption(
        "csr", "S102", frozenset({"S102"}), _corrupt_csr_range
    ),
    "csr-bad-bounds": Corruption(
        "csr", "S103", frozenset({"S103"}), _corrupt_csr_bounds
    ),
    "csr-dup-position": Corruption(
        "csr", "S104", frozenset({"S104"}), _corrupt_csr_positions
    ),
    "shard-dest-range": Corruption(
        "gshards", "S111", frozenset({"S111"}), _corrupt_shard_dest
    ),
    # unsorting sources also invalidates the searchsorted-derived windows
    "shard-unsorted": Corruption(
        "gshards", "S112", frozenset({"S112", "S114"}), _corrupt_shard_order
    ),
    "shard-dup-position": Corruption(
        "gshards", "S113", frozenset({"S113"}), _corrupt_shard_positions
    ),
    "shard-window-shift": Corruption(
        "gshards", "S114", frozenset({"S114"}), _corrupt_shard_windows
    ),
    "shard-bad-offsets": Corruption(
        "gshards", "S115", frozenset({"S115"}), _corrupt_shard_offsets
    ),
    "cw-concat-swap": Corruption(
        "cw", "S121", frozenset({"S121"}), _corrupt_cw_concat
    ),
    "cw-truncated-mapper": Corruption(
        "cw", "S122", frozenset({"S122"}), _corrupt_cw_mapper
    ),
    "cw-bad-offsets": Corruption(
        "cw", "S123", frozenset({"S123"}), _corrupt_cw_offsets
    ),
    "cw-srcindex-drift": Corruption(
        "cw", "S124", frozenset({"S124"}), _corrupt_cw_srcindex
    ),
}


# ----------------------------------------------------------------------
# Performance-contract fixtures (P3xx)
# ----------------------------------------------------------------------

def perf_fixture_graph(
    num_vertices: int = 256, num_edges: int = 8192
) -> DiGraph:
    """A dense deterministic graph: wide enough windows that a scattered
    Mapper provably exceeds the window-grouped store-transaction bound."""
    rng = np.random.default_rng(4321)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return DiGraph(src, dst, num_vertices, validate=False)


def _perf_scrambled_mapper() -> list:
    """Permute mapper and cw_src_index *jointly* (still a bijection, so
    no S12x structural rule fires) and audit: only the scatter bound
    P307 can catch the lost window grouping."""
    from repro.analysis.perf import audit_cw
    from repro.gpu.spec import GTX780

    cw = ConcatenatedWindows.from_graph(perf_fixture_graph(), 128)
    rng = np.random.default_rng(7)
    perm = rng.permutation(cw.mapper.size)
    cw.mapper = cw.mapper[perm]
    cw.cw_src_index = cw.cw_src_index[perm]
    return audit_cw(cw, vbytes=4, sbytes=0, ebytes=0, spec=GTX780,
                    subject="fixture-scrambled-mapper")


def _perf_oversized_shard() -> list:
    """A shard far beyond the GTX780's 48 KB shared memory: P302."""
    from repro.analysis.perf import audit_cw
    from repro.gpu.spec import GTX780

    cw = ConcatenatedWindows.from_graph(
        perf_fixture_graph(16384, 4096), 16384)
    return audit_cw(cw, vbytes=4, sbytes=0, ebytes=0, spec=GTX780,
                    subject="fixture-oversized-shard")


def _perf_mispriced_cost() -> list:
    """Temporarily misprice one live cost constant: the contract mirror
    in :mod:`repro.analysis.budgets` must notice (P310)."""
    from repro.analysis.perf import cost_contract_check
    from repro.frameworks import costs

    original = costs.INSTR_COMPUTE
    costs.INSTR_COMPUTE = original + 1.0
    try:
        return cost_contract_check()
    finally:
        costs.INSTR_COMPUTE = original


def _perf_bank_conflicts() -> list:
    """Every edge targets vertex 0 (an inward star): stage-2 atomics
    fully serialize and the replay budget warns (P305)."""
    from repro.analysis.perf import audit_cw
    from repro.graph.generators import star
    from repro.gpu.spec import GTX780

    cw = ConcatenatedWindows.from_graph(star(128, outward=False), 32)
    return audit_cw(cw, vbytes=4, sbytes=0, ebytes=0, spec=GTX780,
                    subject="fixture-bank-conflicts")


def _perf_swapped_writeback() -> list:
    """Swap two shards' differing stage-4 rows in the CW static bundle the
    fast path prices with.  Every column sum is unchanged, so only the
    per-shard row check P308 can see it."""
    from repro.analysis import perf
    from repro.gpu.spec import GTX780

    cw = ConcatenatedWindows.from_graph(perf_fixture_graph(), 64)
    real = perf.cusha_static_bundle

    def swapped(cw, mode, *layout):
        bundle = real(cw, mode, *layout)
        if mode == "cw":
            st4 = bundle.stage4
            i, j = 0, int(np.flatnonzero((st4 != st4[0]).any(axis=1))[0])
            st4[[i, j]] = st4[[j, i]]
        return bundle

    perf.cusha_static_bundle = swapped
    try:
        return perf.audit_cw(cw, vbytes=4, sbytes=0, ebytes=0, spec=GTX780,
                             subject="fixture-swapped-writeback")
    finally:
        perf.cusha_static_bundle = real


@dataclass(frozen=True)
class PerfFixture:
    """One performance-contract breakage and the P-code it must trip."""

    expect: str
    allowed: frozenset[str]
    run: Callable[[], list]


PERF_FIXTURES: dict[str, PerfFixture] = {
    "perf-scrambled-mapper": PerfFixture(
        "P307", frozenset({"P307"}), _perf_scrambled_mapper
    ),
    "perf-oversized-shard": PerfFixture(
        "P302", frozenset({"P302"}), _perf_oversized_shard
    ),
    "perf-mispriced-cost": PerfFixture(
        "P310", frozenset({"P310"}), _perf_mispriced_cost
    ),
    "perf-bank-conflicts": PerfFixture(
        "P305", frozenset({"P305"}), _perf_bank_conflicts
    ),
    "perf-swapped-writeback": PerfFixture(
        "P308", frozenset({"P308"}), _perf_swapped_writeback
    ),
}


# ----------------------------------------------------------------------
# Resilience fixtures (R3xx detections / F4xx recoveries)
# ----------------------------------------------------------------------

def _resilient_codes(fault_kind: str, **kwargs) -> list:
    """Run one fault through the supervisor on the fixture graph and
    return the violations it recorded.  Imported lazily: the resilience
    subsystem depends on the frameworks layer, which :mod:`repro.analysis`
    must not pull in at import time."""
    from repro.resilience import FaultPlan, FaultSpec, ResilientRunner

    spec = FaultSpec(kind=fault_kind, **kwargs.pop("spec_kwargs", {}))
    plan = FaultPlan([spec], seed=0)
    runner = ResilientRunner("cusha-cw", checkpoint_every=2, **kwargs)
    outcome = runner.run(
        fixture_graph(), _resilience_program(), faults=plan,
        max_iterations=50, allow_partial=True,
    )
    return outcome.violations


def _resilience_program():
    from repro.algorithms import make_program

    return make_program("bfs", fixture_graph())


def _res_transfer() -> list:
    return _resilient_codes("transfer")


def _res_kernel_abort() -> list:
    return _resilient_codes("kernel-abort")


def _res_values_bitflip() -> list:
    return _resilient_codes("bitflip-values")


def _res_rep_bitflip() -> list:
    return _resilient_codes("bitflip-representation")


def _res_oom() -> list:
    # Persistent and engine-pinned: fires on both cusha-cw rungs (F404),
    # clears when the ladder switches engines (F405).
    return _resilient_codes(
        "sharedmem-oom", spec_kwargs={"engine": "cusha-cw", "count": None}
    )


def _res_ckpt_mismatch() -> list:
    """Tamper with a stored snapshot directly: restore must fire R305
    and fall back (here, to a cold restart)."""
    from repro.resilience import Checkpoint, CheckpointStore

    store = CheckpointStore(run_id="fixture")
    values = np.zeros(8, dtype=np.float64)
    ckpt = store.save(3, values)
    store._cache.put(
        store._key(3),
        Checkpoint(iteration=3, values=ckpt.values, digest="0" * 32),
    )
    restored, violations = store.restore()
    assert restored is None
    return violations


def _res_unrecovered() -> list:
    """A persistent kernel abort matching every engine exhausts the
    whole ladder: retries, both degradation kinds, then F406."""
    from repro.resilience import RetryPolicy

    return _resilient_codes(
        "kernel-abort",
        spec_kwargs={"count": None},
        retry=RetryPolicy(max_retries=1),
    )


@dataclass(frozen=True)
class ResilienceFixture:
    """One injected fault and the detection/recovery code it must fire."""

    expect: str
    allowed: frozenset[str]
    run: Callable[[], list]


RESILIENCE_FIXTURES: dict[str, ResilienceFixture] = {
    "resilience-transfer": ResilienceFixture(
        "R301", frozenset({"R301", "F401"}), _res_transfer
    ),
    "resilience-kernel-abort": ResilienceFixture(
        "F402", frozenset({"R302", "F402"}), _res_kernel_abort
    ),
    "resilience-values-bitflip": ResilienceFixture(
        "R303", frozenset({"R303", "F402"}), _res_values_bitflip
    ),
    "resilience-rep-bitflip": ResilienceFixture(
        "R304", frozenset({"R304", "F403", "S122"}), _res_rep_bitflip
    ),
    "resilience-oom-degrades": ResilienceFixture(
        "F405", frozenset({"R306", "F404", "F405"}), _res_oom
    ),
    "resilience-ckpt-mismatch": ResilienceFixture(
        "R305", frozenset({"R305"}), _res_ckpt_mismatch
    ),
    "resilience-unrecovered": ResilienceFixture(
        "F406", frozenset({"R302", "F402", "F404", "F405", "F406"}),
        _res_unrecovered,
    ),
}


# ----------------------------------------------------------------------
# Kernel-certification fixtures (C4xx / R205 / F407)
# ----------------------------------------------------------------------
#
# Each broken program below violates exactly one algebraic contract the
# certifier (:mod:`repro.analysis.certify`) proves, while staying clean on
# the other five checks *and* on the L00x linter — the enforcement tests
# run them with ``validate="structure"``.

class LeakyGuardProgram(_LintOnlyBase):
    """Unmasked ``messages`` synthesizes ``0`` for guarded-out edges, but
    ``0`` is not the ``min`` identity: dropping those contributions (as a
    frontier-gated or column-retired sweep does) changes the reduction.
    Fires ``C401``; the scalar ``compute`` guard keeps everything else
    proved."""

    name = "fixture-leaky-guard"

    def compute(self, src_v, src_static, edge, local_v):
        if src_v["level"] >= 0:
            local_v["level"] = min(local_v["level"], src_v["level"] + 1)

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {
            "level": np.where(
                src_vals["level"] >= 0, src_vals["level"] + 1, 0
            )
        }, None


class LastWriterWinsProgram(VertexProgram):
    """Declares an ``add`` reducer but *overwrites* the accumulator, so
    the fold is order-dependent (``C402``).  Float relaxation with a
    positive tolerance keeps ``C406`` proved, isolating the fold check."""

    name = "fixture-last-writer-wins"
    vertex_dtype = struct_dtype(x=np.float32)
    reduce_ops = {"x": "add"}
    tolerance = 1e-3

    def initial_values(self, graph):
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        values["x"] = np.arange(graph.num_vertices, dtype=np.float32)
        return values

    def init_compute(self, local_v, v):
        local_v["x"] = 0.0

    def compute(self, src_v, src_static, edge, local_v):
        local_v["x"] = src_v["x"] * 0.5

    def update_condition(self, local_v, v):
        return abs(local_v["x"] - v["x"]) > self.tolerance

    def init_local(self, current):
        out = np.zeros_like(current)
        return out

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"x": src_vals["x"] * np.float32(0.5)}, None

    def apply(self, local, old):
        return local, np.abs(local["x"] - old["x"]) > self.tolerance


class WrongDirectionProgram(_LintOnlyBase):
    """A ``min`` reducer whose update claims progress when the value
    *increased* — against the lattice direction (``C403``)."""

    name = "fixture-wrong-direction"

    def update_condition(self, local_v, v):
        return local_v["level"] > v["level"]

    def apply(self, local, old):
        return local, local["level"] > old["level"]


class StatefulApplyProgram(_LintOnlyBase):
    """``apply`` accumulates history on ``self`` without declaring it in
    ``certify_state`` — hidden state the engines would silently replay
    differently across schedules (``C404``)."""

    name = "fixture-stateful-apply"

    def __init__(self) -> None:
        self._history: list[float] = []

    def apply(self, local, old):
        self._history.append(float(np.sum(local["level"])))
        return local, local["level"] < old["level"]


class SlipperyQuiescenceProgram(_LintOnlyBase):
    """Non-strict update comparison: a vertex whose value did *not* change
    still claims an update, so a skipped quiescent shard would have
    produced work (``C405``).  The direction itself is still ``min``-wards,
    so ``C403`` stays proved — strictness and direction are separate
    contracts."""

    name = "fixture-slippery-quiescence"

    def update_condition(self, local_v, v):
        return local_v["level"] <= v["level"]

    def apply(self, local, old):
        return local, local["level"] <= old["level"]


class StaleReadProgram(_LintOnlyBase):
    """Contributions read destination state (``dest_old`` in ``messages``,
    the local record in ``compute``) under an exact integer reduction: an
    asynchronous schedule sees different stale values and reaches a
    different fixpoint (``C406``).  The accumulator field itself is still
    a clean fold, so ``C402`` stays proved."""

    name = "fixture-stale-read"
    vertex_dtype = struct_dtype(level=np.int64, tag=np.int64)
    reduce_ops = {"level": "min"}

    def init_compute(self, local_v, v):
        local_v["level"] = v["level"]
        local_v["tag"] = v["tag"]

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = min(
            local_v["level"], src_v["level"] + 1 + local_v["tag"]
        )

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"level": src_vals["level"] + 1 + dest_old["tag"]}, None


def _certify_codes(factory: Callable[[], VertexProgram]) -> Callable[[], list]:
    def run() -> list:
        from repro.analysis.certify import certify_violations

        return certify_violations(factory(), cache=False)

    return run


def _certify_eager_mark() -> list:
    """A frontier that marks dirty bits mid-iteration instead of at the
    flush boundary: the instrumented reference iteration fires R205."""
    from repro.analysis.races import frontier_discipline_check

    return frontier_discipline_check(
        fixture_graph(), _resilience_program(), eager_mark=True
    )


def _certify_degraded() -> list:
    """A warn-mode frontier run over a C405-refuted program must degrade
    to the full sweep and publish F407; the fixture replays the published
    violation so the selftest counts it exactly once."""
    from repro.analysis.certify import runtime_gate
    from repro.analysis.violations import Violation
    from repro.frameworks import RunConfig, make_engine
    from repro.telemetry.tracer import Tracer

    tracer = Tracer()
    engine = make_engine("cusha-cw", cache=False)
    config = RunConfig(frontier="sparse", certify="warn").with_tracer(tracer)
    degraded = runtime_gate(engine, SlipperyQuiescenceProgram(), config)
    fired = tracer.metrics.counter(
        "analysis.violations.certify-degraded"
    ).value
    out = []
    if degraded.frontier == "off" and fired:
        out.append(
            Violation(
                code="F407",
                message="frontier sparse degraded to the full-sweep path",
                subject="fixture-slippery-quiescence",
                severity="warning",
            )
        )
    return out


@dataclass(frozen=True)
class CertifyFixture:
    """One broken algebraic contract and the code it must fire."""

    expect: str
    allowed: frozenset[str]
    run: Callable[[], list]


CERTIFY_FIXTURES: dict[str, CertifyFixture] = {
    "certify-leaky-guard": CertifyFixture(
        "C401", frozenset({"C401"}), _certify_codes(LeakyGuardProgram)
    ),
    "certify-last-writer-wins": CertifyFixture(
        "C402", frozenset({"C402"}), _certify_codes(LastWriterWinsProgram)
    ),
    "certify-wrong-direction": CertifyFixture(
        "C403", frozenset({"C403"}), _certify_codes(WrongDirectionProgram)
    ),
    "certify-stateful-apply": CertifyFixture(
        "C404", frozenset({"C404"}), _certify_codes(StatefulApplyProgram)
    ),
    "certify-slippery-quiescence": CertifyFixture(
        "C405", frozenset({"C405"}), _certify_codes(SlipperyQuiescenceProgram)
    ),
    "certify-stale-read": CertifyFixture(
        "C406", frozenset({"C406"}), _certify_codes(StaleReadProgram)
    ),
    "certify-eager-mark": CertifyFixture(
        "R205", frozenset({"R205"}), _certify_eager_mark
    ),
    "certify-degraded": CertifyFixture(
        "F407", frozenset({"F407"}), _certify_degraded
    ),
}


# ----------------------------------------------------------------------
# Refutable range certificates (abstract interpretation, W5xx)
# ----------------------------------------------------------------------

class Uint8OverflowProgram(_LintOnlyBase):
    """Min-traversal over a ``uint8`` level pinned at 100 whose messages
    add 200: the evaluated op's abstract range [300, 300] lies entirely
    outside uint8, so every executed instance wraps (W501)."""

    name = "fixture-uint8-overflow"
    vertex_dtype = struct_dtype(level=np.uint8)

    def initial_values(self, graph):
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        values["level"] = 100
        return values

    def compute(self, src_v, src_static, edge, local_v):
        local_v["level"] = min(local_v["level"], src_v["level"] + 200)

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"level": src_vals["level"] + 200}, None


class ZeroDenominatorProgram(_LintOnlyBase):
    """Float relaxation dividing by a vertex value whose initial hull
    includes zero: the falsifier's sweeps store an Inf (W502)."""

    name = "fixture-zero-denominator"
    vertex_dtype = struct_dtype(x=np.float64)
    reduce_ops = {"x": "add"}

    def initial_values(self, graph):
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        values["x"] = np.arange(graph.num_vertices, dtype=np.float64)
        return values

    def init_compute(self, local_v, v):
        local_v["x"] = v["x"]

    def compute(self, src_v, src_static, edge, local_v):
        local_v["x"] = local_v["x"] + 1.0 / src_v["x"]

    def update_condition(self, local_v, v):
        return local_v["x"] != v["x"]

    def messages(self, src_vals, src_static, edge_vals, dest_old):
        return {"x": 1.0 / src_vals["x"]}, None

    def apply(self, local, old):
        return local, local["x"] != old["x"]


class NeverQuiescesProgram(_LintOnlyBase):
    """``update_condition`` is constant-true: every sweep claims an
    update, so no static termination bound can exist (W503)."""

    name = "fixture-never-quiesces"

    def update_condition(self, local_v, v):
        return True


class EscapedBoundsProgram(_LintOnlyBase):
    """Declares ``value_bounds`` its own initial values escape — a
    concrete counterexample to the invariant-range contract (W504)."""

    name = "fixture-escaped-bounds"
    value_bounds = {"level": (0.0, 10.0)}


def _ranges_codes(factory: Callable[[], VertexProgram]) -> Callable[[], list]:
    def run() -> list:
        from repro.analysis.ranges import ranges_violations

        return ranges_violations(factory(), fixture_graph(), cache=False)

    return run


@dataclass(frozen=True)
class RangesFixture:
    """One refutable range certificate and the code it must fire."""

    expect: str
    allowed: frozenset[str]
    run: Callable[[], list]


RANGES_FIXTURES: dict[str, RangesFixture] = {
    "ranges-uint8-overflow": RangesFixture(
        "W501", frozenset({"W501", "W504"}),
        _ranges_codes(Uint8OverflowProgram),
    ),
    "ranges-zero-denominator": RangesFixture(
        "W502", frozenset({"W501", "W502", "W503", "W504"}),
        _ranges_codes(ZeroDenominatorProgram),
    ),
    "ranges-never-quiesces": RangesFixture(
        "W503", frozenset({"W503"}),
        _ranges_codes(NeverQuiescesProgram),
    ),
    "ranges-escaped-bounds": RangesFixture(
        "W504", frozenset({"W504"}),
        _ranges_codes(EscapedBoundsProgram),
    ),
}


def build_corrupted(
    name: str, graph: DiGraph, vertices_per_shard: int = 8
):
    """Build a fresh representation for ``graph`` and apply corruption
    ``name``.  Returns ``(representation, corruption)``."""
    spec = CORRUPTIONS[name]
    if spec.kind == "csr":
        rep: object = CSR.from_graph(graph)
    elif spec.kind == "gshards":
        rep = GShards(graph, vertices_per_shard)
    else:
        rep = ConcatenatedWindows.from_graph(graph, vertices_per_shard)
    spec.apply(rep)
    return rep, spec
