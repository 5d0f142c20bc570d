"""Typed violation records and the machine-readable rule catalog.

Every check in :mod:`repro.analysis` — the program linter, the structural
invariant validators, and the simulated-race detector — reports findings as
:class:`Violation` records instead of raising, so callers can aggregate,
count, and publish them as telemetry.  The :data:`CODES` table is the single
source of truth for rule identifiers; ``docs/analysis.md`` renders it as the
violation-code reference.

Code namespaces
---------------
``Lxxx``
    Static lint findings over :class:`~repro.vertexcentric.program.VertexProgram`
    subclasses (paper section 4 / Table 3 contract).
``S1xx``
    Structural representation invariants: CSR (paper section 2), G-Shards
    (section 3.1), Concatenated Windows (section 3.2).
``R2xx``
    Dynamic findings from the simulated-race detector (stage discipline of
    Figure 5 and the commutativity requirement of section 4).
``P3xx``
    Performance-contract findings from :mod:`repro.analysis.perf` and
    :mod:`repro.analysis.budgets`: static per-stage cost bounds derived
    from the representations (``P301``–``P307``), model-vs-measured drift
    (``P310``–``P312``), and the benchmark regression gates
    (``P320``–``P323``) covering the perf smoke and the service layer.
``R3xx``
    Fault *detections* from :mod:`repro.resilience`: a simulated GPU fault
    (transfer error, kernel abort, bit-flip, shared-memory OOM) or a
    checkpoint-integrity failure was observed.  Recorded as warnings when
    the run subsequently recovers.
``F4xx``
    Fault *recovery actions* the resilience policy engine took — retry,
    checkpoint restore, representation rebuild, degradation — plus the
    terminal ``F406`` (error) when the whole degradation ladder was
    exhausted, ``F407`` when a certify-gated run degraded to the safe
    full-sweep path instead of raising, and ``F408``/``F409`` for the
    multi-device repartition path (shards redistributed across surviving
    devices; collapse to single-device).
``C4xx``
    Kernel certification findings from :mod:`repro.analysis.certify`: an
    algebraic contract the frontier / async / batching fast paths rely on
    (reduce identity, commutativity/associativity, monotonicity, apply
    purity, frontier-safety, async-safety) could not be proved for the
    program — the check came back ``REFUTED`` or ``UNKNOWN``.
``W5xx``
    Value-domain findings from the abstract interpreter
    (:mod:`repro.analysis.ranges`): overflow safety, NaN/Inf safety, a
    static termination bound, and per-field invariant ranges — the
    certificates that make ``RunConfig(narrow="auto")`` dtype narrowing
    sound.  Reported when a check is ``REFUTED`` (error) or ``UNKNOWN``
    (warning).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Violation", "ValidationError", "CODES", "describe"]


#: rule id -> (kind slug, one-line description).  Rendered as the reference
#: table in ``docs/analysis.md``; tests assert the two stay in sync.
CODES: dict[str, tuple[str, str]] = {
    # ---- program linter (lint.py) -----------------------------------
    "L001": (
        "undeclared-reduce-write",
        "compute (or messages) writes a vertex field not declared in "
        "reduce_ops, so the engines would never reduce it atomically",
    ),
    "L002": (
        "bad-reduce-op",
        "reduce_ops declares an operator outside the commutative/"
        "associative set {min, max, add} the paper requires",
    ),
    "L003": (
        "unknown-field",
        "a device function touches a field that does not exist in the "
        "declared vertex_dtype / static_dtype / edge_dtype",
    ),
    "L004": (
        "kernel-pair-mismatch",
        "scalar and vectorized kernel pairs (compute<->messages, "
        "init_compute<->init_local) do not cover the same field sets",
    ),
    "L005": (
        "nondeterminism",
        "a device function references a nondeterminism source (random, "
        "time, datetime), breaking run-to-run reproducibility",
    ),
    "L006": (
        "readonly-mutation",
        "a device function writes a read-only record (src_v, src_static, "
        "edge, or the current value v) instead of its local_v",
    ),
    "L007": (
        "missing-declaration",
        "the program lacks a required declaration (name, vertex_dtype, or "
        "a non-empty reduce_ops)",
    ),
    "L008": (
        "unused-reducer",
        "reduce_ops declares a field that compute never writes (dead "
        "atomic accounting)",
    ),
    "L009": (
        "literal-dtype-overflow",
        "a kernel assigns or compares a literal constant that cannot be "
        "represented in the declared field dtype (overflow, or a negative "
        "literal into an unsigned field)",
    ),
    # ---- representation invariants (invariants.py) -------------------
    "S101": (
        "csr-indptr-nonmonotone",
        "CSR in_edge_idxs is not monotonically non-decreasing",
    ),
    "S102": (
        "csr-index-range",
        "CSR src_indxs contains a vertex index outside [0, |V|)",
    ),
    "S103": (
        "csr-bounds",
        "CSR offsets malformed: wrong length, nonzero start, or end != |E|",
    ),
    "S104": (
        "csr-positions",
        "CSR edge_positions is not a permutation of [0, |E|)",
    ),
    "S111": (
        "shard-dest-range",
        "a G-Shards entry's destination lies outside its shard's vertex "
        "range (Partitioned property, paper section 3.1)",
    ),
    "S112": (
        "shard-src-order",
        "G-Shards entries are not sorted by source index within a shard "
        "(Ordered property, paper section 3.1)",
    ),
    "S113": (
        "shard-positions",
        "G-Shards edge_positions is not a permutation of [0, |E|)",
    ),
    "S114": (
        "shard-window-partition",
        "window_offsets do not partition a shard into the windows W_ij "
        "its sorted sources imply",
    ),
    "S115": (
        "shard-offsets",
        "shard_offsets malformed: wrong length, non-monotone, nonzero "
        "start, or end != |E|",
    ),
    "S121": (
        "cw-concat-order",
        "CW_i is not the concatenation over j of SrcIndex(W_ij) (paper "
        "section 3.2 definition)",
    ),
    "S122": (
        "cw-mapper-bijection",
        "the CW Mapper is not a bijection onto the SrcValue slots "
        "(not a permutation of [0, |E|))",
    ),
    "S123": (
        "cw-tiling",
        "cw_offsets do not tile [0, |E|) into per-shard CW slot ranges",
    ),
    "S124": (
        "cw-srcindex-mismatch",
        "cw_src_index disagrees with the shard SrcIndex column reached "
        "through the Mapper",
    ),
    # ---- performance auditor (perf.py / budgets.py) -------------------
    "P301": (
        "perf-cw-occupancy-below-gs",
        "predicted CW write-back warp lane occupancy falls below G-Shards "
        "on the same graph, inverting the paper's full-warp write-back "
        "claim (section 3.2, Figure 8)",
    ),
    "P302": (
        "perf-sharedmem-exceeded",
        "a shard's shared-memory block footprint exceeds the device limit: "
        "zero blocks fit on an SM, so the kernel cannot launch as "
        "configured (section 4, 'Selecting shard size')",
    ),
    "P303": (
        "perf-writeback-payload-mismatch",
        "predicted stage-4 store payloads differ between G-Shards and CW: "
        "both write-back schemes must store exactly |E| vertex values per "
        "full sweep",
    ),
    "P304": (
        "perf-writeback-occupancy",
        "CW write-back lane slots deviate from the dense-packing optimum "
        "ceil(L_i / warp) per shard that contiguous CW entries guarantee",
    ),
    "P305": (
        "perf-bank-conflict-replays",
        "predicted shared-memory atomic replays approach the fully "
        "serialized worst case: stage-2 destinations concentrate in few "
        "banks (lock-contention hazard, paper section 4)",
    ),
    "P306": (
        "perf-uncoalesced-stage",
        "a predicted stage load efficiency falls below the coalescing "
        "floor the contiguous shard layout is supposed to guarantee "
        "(Table 2 contract)",
    ),
    "P307": (
        "perf-cw-writeback-scatter",
        "CW write-back store transactions exceed the analytic scatter "
        "bound a window-grouped Mapper guarantees: the mapper no longer "
        "groups windows contiguously",
    ),
    "P308": (
        "perf-frontier-decomposition",
        "a row of the fast path's per-shard static cost matrices differs "
        "from the reference per-shard pricing, so frontier-gated sparse "
        "sweeps would mis-price skipped shards",
    ),
    "P309": (
        "perf-narrowed-decomposition",
        "a row of the per-shard static cost matrices computed at a "
        "narrowed vertex-value width differs from the reference "
        "per-shard pricing at that width, so narrow='auto' runs would "
        "be mispriced",
    ),
    "P310": (
        "perf-cost-contract",
        "a frameworks.costs instruction constant diverges from the "
        "contracted value in analysis.budgets (mispriced cost model)",
    ),
    "P311": (
        "perf-drift-transactions",
        "measured per-stage transaction / lane counters diverge from the "
        "static predictions (exact contract)",
    ),
    "P312": (
        "perf-drift-instructions",
        "measured warp-instruction counts drift beyond tolerance from the "
        "static predictions",
    ),
    "P320": (
        "perf-regression",
        "a benchmark metric regressed beyond its relative threshold "
        "against the committed perf_smoke baseline",
    ),
    "P321": (
        "perf-baseline-mismatch",
        "the benchmark run configuration (exec_path, graph shape, engine "
        "set) does not match the committed baseline, so the comparison "
        "would be apples-to-oranges",
    ),
    "P322": (
        "service-batch-speedup",
        "the service layer's batched multi-source execution fell below "
        "its contracted modeled-throughput advantage over sequential "
        "execution (SERVICE_MIN_BATCH_SPEEDUP)",
    ),
    "P323": (
        "service-perf-regression",
        "a BENCH_service.json metric regressed against the committed "
        "service baseline (wall-clock minimum beyond threshold, or a "
        "deterministic metric changed)",
    ),
    "P324": (
        "frontier-work-efficiency",
        "frontier-gated sparse execution fell below its contracted "
        "work-efficiency floors on the road-network BFS fixture "
        "(tail model savings, shard-sweep skip fraction, or certified "
        "bit-exactness)",
    ),
    "P325": (
        "frontier-perf-regression",
        "a BENCH_frontier.json metric regressed against the committed "
        "frontier baseline (wall-clock minimum beyond threshold, or a "
        "deterministic metric changed)",
    ),
    "P326": (
        "ranges-traffic-reduction",
        "proven-safe dtype narrowing fell below its contracted reduction "
        "in modeled value-traffic bytes on the traversal fixture, or the "
        "narrowed run was not bit-exact after widening back "
        "(RANGES_MIN_BYTE_REDUCTION)",
    ),
    "P327": (
        "ranges-perf-regression",
        "a BENCH_ranges.json metric regressed against the committed "
        "ranges baseline (wall-clock minimum beyond threshold, or a "
        "deterministic metric changed)",
    ),
    "P328": (
        "placement-contract",
        "multi-device sharded execution broke its placement contract on "
        "the benchmark fixture: exchange-byte accounting diverged from "
        "the committed exact value, the N-device run was not bit-exact "
        "with single-device, or the modeled speedup fell below "
        "PLACEMENT_MIN_MODEL_SPEEDUP",
    ),
    "P329": (
        "placement-perf-regression",
        "a BENCH_placement.json metric regressed against the committed "
        "placement baseline (wall-clock minimum beyond threshold, or a "
        "deterministic metric changed)",
    ),
    # ---- simulated-race detector (races.py) --------------------------
    "R201": (
        "race-vertexvalues-write",
        "a device function wrote a VertexValues record outside stage 3 "
        "(v or src_v mutated), an atomicity violation w.r.t. the "
        "destination",
    ),
    "R202": (
        "race-reduce-bypass",
        "a stage-2 update bypassed the declared reduce_ops ufunc "
        "(undeclared field, or a write violating min/max monotonicity)",
    ),
    "R203": (
        "race-order-sensitive",
        "re-running an iteration with a permuted edge order changed the "
        "results: compute is not commutative/associative (paper section 4)",
    ),
    "R204": (
        "race-static-write",
        "a device function mutated read-only static or edge content "
        "(StaticVertexValue / EdgeValue records are immutable)",
    ),
    "R205": (
        "frontier-mark-outside-flush",
        "a ShardFrontier dirty bit was set outside a write-back flush "
        "boundary, or the flushed unit set disagrees with the vertices "
        "actually updated — sparse sweeps would skip live work",
    ),
    # ---- resilience: fault detections (resilience/) -------------------
    "R301": (
        "fault-transfer",
        "a (simulated) transient PCIe transfer error was detected on a "
        "bulk h2d/d2h copy before any device state changed",
    ),
    "R302": (
        "fault-kernel-abort",
        "a (simulated) kernel abort fired in one of the four CuSha "
        "pipeline stages, discarding the in-flight iteration",
    ),
    "R303": (
        "fault-values-corruption",
        "a (simulated) uncorrectable ECC bit-flip was detected in the "
        "device VertexValues array",
    ),
    "R304": (
        "fault-representation-corruption",
        "the device copy of a shard/CW/CSR representation failed the "
        "structural validators after a (simulated) bit-flip",
    ),
    "R305": (
        "checkpoint-digest-mismatch",
        "a checkpoint snapshot failed its blake2b digest on restore and "
        "was discarded in favor of an older one (or a cold restart)",
    ),
    "R306": (
        "fault-sharedmem-oom",
        "a (simulated) shared-memory allocation failure prevented the "
        "kernel launch (persistent: retrying the same config cannot help)",
    ),
    "R307": (
        "fault-device-loss",
        "a (simulated) device dropped out of a multi-device run at an "
        "iteration boundary, orphaning the shards it was assigned",
    ),
    # ---- resilience: recovery actions (resilience/) -------------------
    "F401": (
        "recovery-retried",
        "a transient fault was cleared by a bounded retry after a "
        "deterministic exponential model-clock backoff",
    ),
    "F402": (
        "recovery-restored",
        "execution was rolled back to the last digest-valid checkpoint "
        "and replayed from that iteration",
    ),
    "F403": (
        "recovery-representation-rebuilt",
        "a corrupted device representation was discarded and rebuilt/"
        "re-transferred from the intact host copy",
    ),
    "F404": (
        "recovery-exec-path-degraded",
        "the run degraded from the fast execution path to the reference "
        "path on the same engine (first rung of the ladder)",
    ),
    "F405": (
        "recovery-engine-degraded",
        "the run fell back to the next engine on the degradation ladder "
        "(cusha-cw -> cusha-gs -> vwc -> mtcpu)",
    ),
    "F406": (
        "recovery-exhausted",
        "every rung of the degradation ladder failed; the run returned "
        "the last checkpointed state with completed=False",
    ),
    "F407": (
        "certify-degraded",
        "a certify-gated run (frontier sweep or service batch) lacked a "
        "required PROVED certificate and degraded to the safe full-sweep "
        "path instead of raising (RunConfig(certify='warn'))",
    ),
    "F408": (
        "recovery-repartitioned",
        "a lost device's shard assignment was redistributed across the "
        "surviving devices and the run resumed from the newest valid "
        "checkpoint with absolute iteration numbering",
    ),
    "F409": (
        "placement-collapsed",
        "device losses reduced a multi-device run to a single device; "
        "execution continues without an exchange step (plain "
        "single-device semantics)",
    ),
    # ---- kernel certifier (certify.py) --------------------------------
    "C401": (
        "reduce-identity",
        "the reducer's identity element is not a true identity for the "
        "program: an unmasked message can carry a non-identity default, "
        "so idle edges would perturb the reduction",
    ),
    "C402": (
        "reduce-commutativity",
        "compute does not fold contributions through the declared "
        "commutative/associative reducer (overwrite or order-dependent "
        "update), so warp scheduling order would change results",
    ),
    "C403": (
        "reduce-monotonicity",
        "the program is not monotone w.r.t. its reducer's lattice order "
        "(stale local copy, wrong comparison direction, or a "
        "non-fresh add accumulator)",
    ),
    "C404": (
        "apply-purity",
        "a kernel is impure: it reads undeclared fields, references "
        "nondeterminism, or mutates hidden state outside the declared "
        "certify_state attributes",
    ),
    "C405": (
        "frontier-safety",
        "'value unchanged => no update' could not be proved: a quiescent "
        "shard skipped by the sparse frontier (or a retired fixpoint "
        "column) could still have produced an update",
    ),
    "C406": (
        "async-safety",
        "the program is not reduce-order independent: asynchronous "
        "(immediate write-back) execution can reach a different fixpoint "
        "than synchronous sweeps",
    ),
    # ---- abstract interpretation (ranges.py) --------------------------
    "W501": (
        "overflow-safety",
        "an evaluated kernel op can wrap or saturate its declared field "
        "dtype given the graph bounds (V, E, max weight), so narrowed or "
        "even declared-width arithmetic is unsafe",
    ),
    "W502": (
        "nonfinite-safety",
        "a float kernel can produce NaN/Inf from finite inputs (a "
        "division denominator range includes zero, or non-finite "
        "operands reach arithmetic unguarded)",
    ),
    "W503": (
        "termination-bound",
        "no static max-iteration certificate exists: the reducer lattice "
        "has no finite height for this program, or the observed sweep "
        "count contradicts the claimed bound",
    ),
    "W504": (
        "invariant-ranges",
        "no per-field invariant value ranges could be proved (or the "
        "derived/observed ranges escape the program-declared "
        "value_bounds contract)",
    ),
}


def describe(code: str) -> str:
    """One-line description of a rule id (``KeyError`` for unknown codes)."""
    return CODES[code][1]


@dataclass(frozen=True)
class Violation:
    """One finding from a linter rule, invariant check, or race check.

    Attributes
    ----------
    code:
        Rule identifier from :data:`CODES` (e.g. ``"L001"``).
    message:
        Human-readable description of this specific finding.
    subject:
        What was checked — a program name, representation repr, or
        engine key.
    location:
        ``file:line`` for lint findings when source is available.
    severity:
        ``"error"`` (default) or ``"warning"``.  Only errors fail
        validation-enabled runs.
    """

    code: str
    message: str
    subject: str = ""
    location: str = ""
    severity: str = "error"

    @property
    def kind(self) -> str:
        """Stable kind slug for the code (``"unknown"`` if unregistered)."""
        entry = CODES.get(self.code)
        return entry[0] if entry else "unknown"

    def to_dict(self) -> dict[str, str]:
        """JSON-ready record (``repro check --format json``, perfgate)."""
        return {
            "code": self.code,
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "location": self.location,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        subj = f" {self.subject}:" if self.subject else ""
        return f"{self.code} ({self.kind}){subj} {self.message}{where}"


# Defined in the consolidated exception module; re-exported here because
# this is the import path the analysis layer has always published.
from repro.errors import ValidationError  # noqa: E402
