"""Static performance auditor, drift gate, and benchmark comparator.

The paper's claims are performance *ratios* — coalesced transactions,
full-warp CW write-back, shared-memory-bounded occupancy (Tables 4-7,
Figures 8-13) — so this module makes the performance model itself a
checked contract, in three layers:

**Static audit** (:func:`perf_audit`)
    Given only a graph's representations (through the same
    ``preflight_representations()`` hooks the structural validators use),
    derive per-stage cost bounds *without running an iteration* and
    assert the paper-contract properties: CW write-back occupancy at
    least G-Shards' (``P301``), shard footprint within shared memory
    (``P302``), write-back payload equal to ``|E|`` vertex values under
    both schemes (``P303``/``P304``), bounded bank-conflict replays and
    load efficiencies (``P305``/``P306``), the analytic scatter bound
    a window-grouped Mapper guarantees (``P307``), and frontier-gated
    sweep pricing — every per-shard stats row a ``frontier="sparse"``
    iteration charges must equal the reference per-shard pricing, so
    skipping a quiescent shard subtracts exactly that shard's cost
    (``P308``; ``P309`` at proven narrowed widths).  The cost constants
    in :mod:`repro.frameworks.costs` are checked against their
    contracted mirror in :mod:`repro.analysis.budgets` (``P310``).

**Drift gate** (:func:`drift_gate`)
    Price every stage from the reference per-shard pricing, run the
    engine with the tracer on, and diff the measured
    :class:`~repro.gpu.stats.KernelStats` span counters against the
    predictions — exact for transaction/lane/byte counters (``P311``),
    toleranced for instruction costs (``P312``).  This is what catches a
    fast-path or pricing refactor that silently changes the model.

**Benchmark gates** (:data:`BENCHES`)
    One :class:`BenchSpec` row per committed benchmark -- the perf
    smoke and the service, frontier, ranges and placement benches --
    names its bench module, report rows, match keys, exact and timing
    metrics, contract floors and P-codes.  :func:`check_contract` holds
    a fresh report to the row's absolute floors (``P322``, ``P324``,
    ``P326``, ``P328``); :func:`compare` diffs it against the committed
    baseline, refusing incomparable runs (``P321``) and failing changed
    exact metrics or regressed timing minima under the row's regression
    code (``P320``, ``P323``, ``P325``, ``P327``, ``P329``).
    ``python -m repro perfgate`` drives all of it.

The reference per-shard pricing is one function,
:func:`repro.frameworks.cusha.shard_pricing`: the reference operators
execute with it, and the CuSha and streamed predictions here are its
sums.  It is built from the simple one-range primitives and shares
nothing with the fast path's static bundle, so agreement with the
measured fast path cross-validates the segmented pricing helpers in
:mod:`repro.frameworks.wavebatch` as well.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro.analysis import budgets
from repro.analysis.violations import Violation
from repro.frameworks import costs, streamed
from repro.frameworks.base import RunConfig
from repro.frameworks.cusha import CuShaEngine, shard_pricing
from repro.frameworks.streamed import StreamedCuShaEngine
from repro.frameworks.vwc import VWCEngine
from repro.frameworks.wavebatch import cusha_static_bundle
from repro.graph.cw import ConcatenatedWindows
from repro.graph.shards import GShards
from repro.gpu.occupancy import occupancy_report
from repro.gpu.sharedmem import replay_fraction
from repro.gpu.stats import (COUNTER_FIELDS, KernelStats, STAT_FIELDS,
                             STORE_GRANULARITY_BYTES, field_diffs,
                             stats_to_row)
from repro.telemetry.tracer import Tracer

__all__ = [
    "StagePrediction",
    "DriftReport",
    "cost_contract_check",
    "predict_cusha_stages",
    "predict_streamed_chunks",
    "static_predictions",
    "audit_cw",
    "narrowed_audit",
    "perf_audit",
    "drift_gate",
    "BenchSpec",
    "BENCHES",
    "load_bench_module",
    "check_contract",
    "compare",
    "fold",
    "compare_bench_reports",
    "check_service_contract",
    "compare_service_reports",
    "check_frontier_contract",
    "compare_frontier_reports",
]


@dataclass(frozen=True)
class StagePrediction:
    """Per-sweep static cost prediction for one pipeline stage.

    ``stats`` is what one full sweep (every shard active) costs;
    ``dynamic_fields`` names the counters the static model deliberately
    does not cover (they depend on which vertices update) and which the
    drift gate therefore skips.
    """

    stage: str
    stats: KernelStats
    dynamic_fields: tuple[str, ...] = ()

    @property
    def exact_fields(self) -> tuple[str, ...]:
        return tuple(f for f in COUNTER_FIELDS if f not in self.dynamic_fields)


@dataclass
class DriftReport:
    """Outcome of one :func:`drift_gate` run."""

    engine: str
    program: str
    iterations: int
    stages_checked: int
    fields_checked: int
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Cost contract (P310)
# ----------------------------------------------------------------------

def cost_contract_check() -> list[Violation]:
    """Diff the live :mod:`repro.frameworks.costs` constants against the
    contracted mirror in :mod:`repro.analysis.budgets` (``P310``)."""
    out: list[Violation] = []
    for name, want in budgets.COST_CONTRACT.items():
        have = getattr(costs, name, None)
        if have is None or float(have) != float(want):
            out.append(Violation(
                "P310",
                f"costs.{name} = {have!r} diverges from the contracted "
                f"value {want!r} in analysis.budgets",
                subject="frameworks.costs",
            ))
    for name in dir(costs):
        if name.startswith("INSTR_") and name not in budgets.COST_CONTRACT:
            out.append(Violation(
                "P310",
                f"costs.{name} is not covered by "
                "analysis.budgets.COST_CONTRACT",
                subject="frameworks.costs",
            ))
    return out


# ----------------------------------------------------------------------
# Per-stage predictors: sums of the reference operators' per-shard pricing
# ----------------------------------------------------------------------

_STAGE_DYNAMIC = {
    "stage1-fetch": (),
    "stage2-compute": ("shared_atomics",),
    "stage3-update": ("store_transactions", "store_bytes_requested"),
    "stage4-writeback": (),
}


def predict_cusha_stages(
    cw: ConcatenatedWindows,
    mode: str,
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    warp: int = 32,
) -> dict[str, StagePrediction]:
    """Per-sweep stage costs of the CuSha pipeline, from the arrays alone:
    the sums of :func:`~repro.frameworks.cusha.shard_pricing`, the
    per-shard pricing the reference operator executes with."""
    stages = shard_pricing(cw, mode, warp, vbytes, sbytes, ebytes)
    return {
        stage: StagePrediction(stage, sum(rows, KernelStats()), dynamic)
        for (stage, dynamic), rows in zip(_STAGE_DYNAMIC.items(), stages)
    }


def predict_streamed_chunks(
    cw: ConcatenatedWindows,
    chunks: list[tuple[int, int]],
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    warp: int = 32,
) -> dict[str, StagePrediction]:
    """Per-sweep static costs of the streamed engine's compute chunks: the
    per-chunk sums of the reference chunk loop's per-shard pricing.

    A chunk's kernel runs stages 1-2 for its shard range; stores and
    atomic ops are dynamic and excluded from the exact contract.
    """
    compute, _ = streamed._reference_pricing(cw, warp, vbytes, sbytes, ebytes)
    dynamic = ("store_transactions", "store_bytes_requested",
               "shared_atomics")
    return {
        f"chunk-{k}-compute": StagePrediction(
            f"chunk-{k}-compute", sum(compute[a:b], KernelStats()), dynamic)
        for k, (a, b) in enumerate(chunks)
    }


def static_predictions(
    engine, graph, program, config: RunConfig | None = None
) -> dict[str, StagePrediction]:
    """Per-sweep stage predictions for an engine's run over ``graph``.

    CuSha and streamed predictions are priced here from the reference
    operators' per-shard pricing, which shares nothing with the fast
    path's static bundle; VWC predictions come from the engine's own
    static schedule export (its three lockstep phases are re-emitted
    verbatim every iteration, so the drift gate still pins the measured
    spans to them bit-for-bit).  Engines that model no GPU (mtcpu,
    scalar) predict nothing.
    """
    cfg = config or RunConfig()
    widths = dict(vbytes=program.vertex_value_bytes,
                  sbytes=program.static_value_bytes,
                  ebytes=program.edge_value_bytes)
    if isinstance(engine, CuShaEngine):
        (cw,) = engine.preflight_representations(graph, program, cfg)
        return predict_cusha_stages(cw, engine.mode,
                                    warp=engine.spec.warp_size, **widths)
    if isinstance(engine, StreamedCuShaEngine):
        (cw,) = engine.preflight_representations(graph, program, cfg)
        chunks = engine._chunk_shards(cw, streamed._entry_bytes(program))
        return predict_streamed_chunks(cw, chunks,
                                       warp=engine.spec.warp_size, **widths)
    if isinstance(engine, VWCEngine):
        phases = engine.predicted_stage_stats(graph, program)
        return {k: StagePrediction(k, v) for k, v in phases.items()}
    return {}


# ----------------------------------------------------------------------
# Static audit (P301-P309)
# ----------------------------------------------------------------------

def _shard_rows_check(
    cw: ConcatenatedWindows, code: str, what: str, subject: str, *,
    warp: int, vbytes: int, sbytes: int, ebytes: int,
) -> list[Violation]:
    """``P308``/``P309``: every per-shard row of the fast path's static
    bundle equals the reference per-shard pricing, in both modes.

    A ``frontier="sparse"`` iteration charges the rows of exactly the
    shards it processes, so row equality (not just equal sums) is what
    makes skipping a quiescent shard subtract exactly that shard's cost.
    """
    out: list[Violation] = []
    for mode in ("cw", "gs"):
        bundle = cusha_static_bundle(cw, mode, warp, vbytes, sbytes, ebytes)
        *stages, replays = shard_pricing(cw, mode, warp, vbytes, sbytes,
                                         ebytes)
        checks = [
            (stage, got, [stats_to_row(st) for st in rows], STAT_FIELDS)
            for stage, got, rows in zip(
                _STAGE_DYNAMIC, (bundle.stage1, bundle.stage2, bundle.stage3,
                                 bundle.stage4), stages)
        ]
        checks.append(("replays", bundle.replays[:, None],
                       [[r] for r in replays], ("replays",)))
        for stage, got, want, fields in checks:
            want = np.asarray(want, dtype=np.float64).reshape(got.shape)
            bad = np.flatnonzero((got != want).any(axis=1))
            if bad.size:
                i = int(bad[0])
                diffs = ", ".join(
                    f"{f}: {float(got[i, k])} != {float(want[i, k])}"
                    for k, f in enumerate(fields) if got[i, k] != want[i, k])
                out.append(Violation(
                    code,
                    f"{what} per-shard pricing for {mode}/{stage} differs "
                    f"from the reference pricing on {bad.size} of "
                    f"{len(got)} shards (shard {i}: {diffs})",
                    subject=subject,
                ))
    return out


def audit_cw(
    cw: ConcatenatedWindows,
    *,
    vbytes: int,
    sbytes: int = 0,
    ebytes: int = 0,
    spec,
    threads_per_block: int = 512,
    subject: str = "",
) -> list[Violation]:
    """Assert the paper's performance contract over one CW structure."""
    out: list[Violation] = []
    sh = cw.shards
    E = cw.num_edges
    warp = spec.warp_size
    N = cw.vertices_per_shard
    subject = subject or repr(cw)

    # P302 — shard footprint vs shared memory.
    rep = occupancy_report(spec, N, vbytes, threads_per_block)
    if not rep.fits:
        out.append(Violation(
            "P302",
            f"shard of {N} vertices needs {rep.shared_bytes_per_block} "
            f"shared bytes/block; 0 blocks fit an SM "
            f"({spec.shared_mem_per_sm_bytes} bytes, "
            f"{threads_per_block} threads/block)",
            subject=subject,
        ))

    win_sizes = np.diff(sh.window_offsets, axis=1)  # w_ji: row j, column i
    col_sizes = win_sizes.sum(axis=0)  # entries written back per target shard
    L = np.diff(cw.cw_offsets)

    # P303 — both write-back schemes must store exactly |E| vertex values.
    gs_payload = int(win_sizes.sum()) * vbytes
    cw_payload = int(L.sum()) * vbytes
    if not (gs_payload == cw_payload == E * vbytes):
        out.append(Violation(
            "P303",
            f"stage-4 store payloads disagree: GS {gs_payload} B, "
            f"CW {cw_payload} B, expected |E|*vbytes = {E * vbytes} B",
            subject=subject,
        ))

    # P304 — CW lane slots must be the dense packing of the same entries
    # the GS windows cover (L_i = sum_j w_ji), mapper covering every slot.
    if int(cw.mapper.size) != E or not np.array_equal(L, col_sizes):
        out.append(Violation(
            "P304",
            "CW write-back lane slots deviate from the dense-packing "
            f"optimum: per-shard CW sizes {L.tolist()[:8]}... vs window "
            f"column totals {col_sizes.tolist()[:8]}... "
            f"(mapper covers {int(cw.mapper.size)}/{E} slots)",
            subject=subject,
        ))

    # P301 — CW write-back occupancy must not fall below G-Shards.
    nz = win_sizes[win_sizes > 0]
    gs_total = int((-(-nz // warp)).sum()) * warp
    cw_total = int((-(-L // warp)).sum()) * warp
    occ_cw = E / cw_total if cw_total else 1.0
    occ_gs = E / gs_total if gs_total else 1.0
    if occ_cw < occ_gs - budgets.OCCUPANCY_EPSILON:
        out.append(Violation(
            "P301",
            f"predicted CW write-back lane occupancy {occ_cw:.4f} < "
            f"G-Shards {occ_gs:.4f} (paper claims CW >= GS)",
            subject=subject,
        ))

    # P305 — stage-2 atomic replays vs the fully serialized worst case.
    stage1, stage2, _, stage4, shard_replays = shard_pricing(
        cw, "cw", warp, vbytes, sbytes, ebytes)
    replays = sum(shard_replays)
    rows2 = int((-(-np.diff(sh.shard_offsets) // warp)).sum())
    frac = replay_fraction(replays, rows2, warp_size=warp)
    if rows2 >= budgets.REPLAY_WARN_MIN_ROWS and \
            frac >= budgets.REPLAY_WARN_FRACTION:
        out.append(Violation(
            "P305",
            f"predicted stage-2 atomic replays at {frac:.0%} of the fully "
            f"serialized worst case ({replays} replays over {rows2} warp "
            "rows): destinations concentrate in few banks",
            subject=subject,
            severity="warning",
        ))

    # P306 — coalesced stage-1/2 loads.
    for stage, rows in (("stage1-fetch", stage1), ("stage2-compute", stage2)):
        eff = sum(rows, KernelStats()).gld_efficiency
        if eff < budgets.STAGE_LOAD_EFFICIENCY_FLOOR:
            out.append(Violation(
                "P306",
                f"predicted {stage} load efficiency {eff:.2f} below the "
                f"coalescing floor {budgets.STAGE_LOAD_EFFICIENCY_FLOOR}",
                subject=subject,
                severity="warning",
            ))

    # P307 — analytic scatter bound for a window-grouped Mapper: each
    # nonzero window is a contiguous ascending SrcValue run costing at
    # most ceil(bytes/128)+1 store transactions, plus at most one extra
    # per warp row for runs split at row boundaries.
    predicted_tx = sum(st.store_transactions for st in stage4)
    bound = int(
        (-(-(nz * vbytes) // STORE_GRANULARITY_BYTES)).sum()
        + nz.size
        + (-(-L // warp)).sum()
    )
    if predicted_tx > bound:
        out.append(Violation(
            "P307",
            f"CW write-back predicts {predicted_tx} store transactions, "
            f"above the window-grouped Mapper bound {bound}: the mapper "
            "scatters instead of grouping windows",
            subject=subject,
        ))

    # P308 — frontier-gated sweep pricing: the fast path's per-shard rows
    # are the reference pricing, shard for shard.
    out.extend(_shard_rows_check(cw, "P308", "frontier", subject, warp=warp,
                                 vbytes=vbytes, sbytes=sbytes, ebytes=ebytes))
    return out


def _audited_cws(engine, graph, program, cfg):
    """The CW structure of every CW / G-Shards representation ``engine``
    is about to execute over."""
    for rep in engine.preflight_representations(graph, program, cfg):
        if isinstance(rep, ConcatenatedWindows):
            yield rep
        elif isinstance(rep, GShards):
            yield ConcatenatedWindows(rep)


def perf_audit(
    engine, graph, program, config: RunConfig | None = None
) -> list[Violation]:
    """Layer-1 static audit behind ``RunConfig(validate="perf")``.

    Checks the cost contract (``P310``) and, for every CW / G-Shards
    representation the engine is about to execute over, the structural
    performance contract (``P301``-``P308``).  A ``narrow != "off"``
    config additionally re-prices the sweep at the proven narrowed
    widths (``P309``).  Engines that model no GPU hardware only get the
    cost-contract check.
    """
    cfg = config or RunConfig()
    out = cost_contract_check()
    spec = getattr(engine, "spec", None)
    if spec is None or not hasattr(spec, "warp_size"):
        return out
    tpb = getattr(engine, "threads_per_block", 512)
    subject = f"{engine.name}/{program.name}"
    for cw in _audited_cws(engine, graph, program, cfg):
        out.extend(audit_cw(
            cw,
            vbytes=program.vertex_value_bytes,
            sbytes=program.static_value_bytes,
            ebytes=program.edge_value_bytes,
            spec=spec,
            threads_per_block=tpb,
            subject=subject,
        ))
    if getattr(cfg, "narrow", "off") != "off":
        out.extend(narrowed_audit(engine, graph, program, cfg))
    return out


def narrowed_audit(
    engine, graph, program, config: RunConfig | None = None
) -> list[Violation]:
    """``P309``: static predictions at proven narrowed widths stay exact.

    When the range certificates justify a narrowing plan, every per-shard
    row of the fast path's static bundle priced at the *narrowed*
    ``vertex_value_bytes`` must equal the reference per-shard pricing at
    the same widths, field-for-field — the check P308 makes at the
    declared widths.  This is what lets the auditor hand the tighter byte
    bounds to the narrowed fast path without a second pricing model.
    """
    from repro.analysis.ranges import analyze_ranges, narrowing_plan
    from repro.frameworks.narrow import NarrowedProgram

    out: list[Violation] = []
    spec = getattr(engine, "spec", None)
    if spec is None or not hasattr(spec, "warp_size"):
        return out
    cfg = config or RunConfig()
    subject = f"{engine.name}/{program.name}"
    cert = analyze_ranges(program, graph, cache=getattr(engine, "cache", None))
    plan = narrowing_plan(cert, program)
    if not plan:
        return out
    narrowed = NarrowedProgram(
        program, plan, {f: cert.field_range(f) for f in plan}
    )
    vbytes = narrowed.vertex_value_bytes
    if vbytes >= program.vertex_value_bytes:
        out.append(Violation(
            "P309",
            f"narrowing plan {sorted(plan)} did not shrink the vertex "
            f"value ({vbytes} bytes vs declared "
            f"{program.vertex_value_bytes})",
            subject=subject,
        ))
        return out
    for cw in _audited_cws(engine, graph, program, cfg):
        out.extend(_shard_rows_check(
            cw, "P309", "narrowed", subject, warp=spec.warp_size,
            vbytes=vbytes, sbytes=narrowed.static_value_bytes,
            ebytes=narrowed.edge_value_bytes))
    return out


# ----------------------------------------------------------------------
# Drift gate (P311 / P312)
# ----------------------------------------------------------------------

def _drift_runner(engine):
    """The engine actually run by the drift gate.

    CuSha's stage-4 cost is dynamic (only updated shards write back), so
    the gate runs the engine's existing ``always_writeback`` ablation —
    values and iteration counts are unchanged, but every stage becomes a
    full sweep the static model prices exactly.  The runner is a copy of
    the engine, so every other constructor option carries over.
    """
    if isinstance(engine, CuShaEngine) and not engine.always_writeback:
        engine = copy.copy(engine)
        engine.always_writeback = True
    return engine


def _compare(
    pred: StagePrediction,
    got: KernelStats,
    *,
    scale: int,
    subject: str,
    what: str,
) -> tuple[list[Violation], int]:
    """Exact + toleranced comparison of one stage; returns (violations,
    number of fields checked)."""
    vios: list[Violation] = []
    exact = pred.exact_fields
    for f, (want, g) in field_diffs(pred.stats, got, exact,
                                    scale=scale).items():
        vios.append(Violation(
            "P311",
            f"{pred.stage}: {what} {f} = {g} != predicted {want} "
            f"({scale}x per-sweep)",
            subject=subject,
        ))
    want_instr = pred.stats.warp_instructions * scale
    tol = budgets.INSTRUCTION_DRIFT_TOLERANCE * max(1.0, abs(want_instr))
    if abs(got.warp_instructions - want_instr) > tol:
        vios.append(Violation(
            "P312",
            f"{pred.stage}: {what} warp_instructions = "
            f"{got.warp_instructions:.1f} drifts beyond "
            f"{budgets.INSTRUCTION_DRIFT_TOLERANCE:.0%} from predicted "
            f"{want_instr:.1f}",
            subject=subject,
        ))
    return vios, len(exact) + 1


def drift_gate(
    engine, graph, program, *, max_iterations: int = 16, metrics=None,
    narrow: str = "off",
) -> DriftReport:
    """Layer-2 model-vs-measured check for one engine/program/graph.

    Diffs (a) the engine's own static-stats export and (b) the traced
    per-stage span counters of a real run against the independent
    predictions.  Exact counters must match bit-for-bit over however
    many iterations ran; instruction totals get the budgeted tolerance.

    ``narrow="auto"`` runs the gate at the proven narrowed widths: the
    predictions price the narrowed program and the measured run executes
    with ``RunConfig(narrow="auto")``, so the same exact-counter contract
    holds for the narrowed fast path.
    """
    subject = f"{engine.name}/{program.name}"
    pred_program = program
    if narrow != "off":
        from repro.analysis.ranges import analyze_ranges, narrowing_plan
        from repro.frameworks.narrow import NarrowedProgram

        cert = analyze_ranges(
            program, graph, cache=getattr(engine, "cache", None))
        plan = narrowing_plan(cert, program)
        if plan:
            pred_program = NarrowedProgram(
                program, plan, {f: cert.field_range(f) for f in plan})
    preds = static_predictions(engine, graph, pred_program)
    exports = engine.predicted_stage_stats(graph, pred_program)
    vios: list[Violation] = []
    fields_checked = 0

    # (a) engine's static export vs independent predictions.  When the
    # prediction *is* the export (VWC), the self-comparison is skipped.
    for stage, pred in preds.items():
        exp = exports.get(stage)
        if exp is None:
            vios.append(Violation(
                "P311",
                f"engine exports no static stats for predicted stage "
                f"{stage}",
                subject=subject,
            ))
            continue
        if exp is pred.stats:
            continue
        v, n = _compare(pred, exp, scale=1, subject=subject,
                        what="exported")
        vios.extend(v)
        fields_checked += n

    # (b) traced run vs predictions.
    tracer = Tracer()
    runner = _drift_runner(engine)
    result = runner.run(graph, program, config=RunConfig(
        max_iterations=max_iterations,
        allow_partial=True,
        tracer=tracer,
        exec_path="fast",
        narrow=narrow,
    ))
    iterations = result.iterations
    measured: dict[str, KernelStats] = {}
    for span in tracer.find(kind="stage"):
        st = span.kernel_stats()
        if span.name in measured:
            measured[span.name] += st
        else:
            measured[span.name] = st
    stages_checked = 0
    for stage, pred in preds.items():
        got = measured.get(stage)
        if got is None:
            vios.append(Violation(
                "P311",
                f"run emitted no '{stage}' stage spans to check",
                subject=subject,
            ))
            continue
        stages_checked += 1
        v, n = _compare(pred, got, scale=iterations, subject=subject,
                        what="measured")
        vios.extend(v)
        fields_checked += n

    report = DriftReport(
        engine=engine.name,
        program=program.name,
        iterations=iterations,
        stages_checked=stages_checked,
        fields_checked=fields_checked,
        violations=vios,
    )
    if metrics is not None:
        metrics.counter("analysis.perf.stages_checked").inc(stages_checked)
        metrics.counter("analysis.perf.fields_checked").inc(fields_checked)
        metrics.counter("analysis.perf.drift_violations").inc(len(vios))
        metrics.gauge(
            f"analysis.perf.iterations.{engine.name}").set(iterations)
    return report


# ----------------------------------------------------------------------
# Benchmark gates (P320-P329): one row per committed benchmark
# ----------------------------------------------------------------------

BENCH_ROOT = Path(__file__).resolve().parents[3] / "benchmarks"


def load_bench_module(name: str):
    """Import a ``benchmarks/<name>.py`` script in-process (the
    benchmarks directory is not a package)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, BENCH_ROOT / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@dataclass(frozen=True)
class BenchSpec:
    """One perfgate row: a committed benchmark and how its report is gated.

    ``section`` names the report's one metric row; ``None`` means the
    report carries one row per engine under ``engines`` (the perf
    smoke).  ``match_keys`` (per report) and ``row_keys`` (per row) must
    equal the baseline's for the reports to be comparable at all
    (``P321``).  ``exact`` metrics must equal the baseline's and
    ``timing`` minima must not regress beyond
    :data:`~repro.analysis.budgets.PERFGATE_TIMING_THRESHOLD`, both
    under ``code``.  ``floors`` is the absolute contract, checked with
    no baseline under ``contract_code``: a floor of ``True`` needs the
    value ``True``; a number needs a number at least that large (a list
    counts its length).
    """

    name: str
    module: str
    section: str | None
    match_keys: tuple[str, ...]
    exact: tuple[str, ...]
    timing: tuple[str, ...]
    code: str
    floors: tuple[tuple[str, float], ...] = ()
    contract_code: str = ""
    row_keys: tuple[str, ...] = ()

    def rows(self, report: dict) -> dict:
        if self.section is None:
            return report.get("engines", {})
        return {self.section: report.get(self.section, {})}

    def run(self, repeats: int, echo=print) -> dict:
        """Run the benchmark in-process and return its fresh report."""
        return load_bench_module(self.module).run_bench(
            repeats=repeats, echo=echo)


BENCHES: tuple[BenchSpec, ...] = (
    BenchSpec("perf_smoke", "bench_perf_smoke", None,
              budgets.PERFGATE_MATCH_KEYS, budgets.PERFGATE_EXACT_METRICS,
              budgets.PERFGATE_TIMING_METRICS, "P320",
              row_keys=("exec_path", "reference_exec_path")),
    BenchSpec("service", "bench_service", "service",
              budgets.SERVICE_MATCH_KEYS, budgets.SERVICE_EXACT_METRICS,
              budgets.SERVICE_TIMING_METRICS, "P323",
              floors=(("model_speedup", budgets.SERVICE_MIN_BATCH_SPEEDUP),),
              contract_code="P322"),
    BenchSpec("frontier", "bench_frontier", "frontier",
              budgets.FRONTIER_MATCH_KEYS, budgets.FRONTIER_EXACT_METRICS,
              budgets.FRONTIER_TIMING_METRICS, "P325",
              floors=(("bit_exact", True),
                      ("tail_model_savings",
                       budgets.FRONTIER_MIN_MODEL_SAVINGS),
                      ("skip_fraction", budgets.FRONTIER_MIN_SKIP_FRACTION)),
              contract_code="P324"),
    BenchSpec("ranges", "bench_ranges", "ranges",
              budgets.RANGES_MATCH_KEYS, budgets.RANGES_EXACT_METRICS, (),
              "P327",
              floors=(("bit_exact", True), ("narrowed_fields", 1),
                      ("byte_reduction", budgets.RANGES_MIN_BYTE_REDUCTION)),
              contract_code="P326"),
    BenchSpec("placement", "bench_placement", "placement",
              budgets.PLACEMENT_MATCH_KEYS, budgets.PLACEMENT_EXACT_METRICS,
              budgets.PLACEMENT_TIMING_METRICS, "P329",
              floors=(("bit_exact", True), ("exchange_bytes", 1),
                      ("model_speedup", budgets.PLACEMENT_MIN_MODEL_SPEEDUP)),
              contract_code="P328"),
)
_SPEC = {spec.name: spec for spec in BENCHES}


def _number(value) -> bool:
    return isinstance(value, (int, float))


def check_contract(spec: BenchSpec, report: dict) -> list[Violation]:
    """Check a fresh report against ``spec``'s absolute floors.

    The floored metrics are deterministic cost-model or equivalence
    facts, so no baseline and no noise band are involved; a missing or
    non-numeric input fails like one below its floor.
    """
    out = []
    for row, metrics in spec.rows(report).items():
        for mk, floor in spec.floors:
            value = metrics.get(mk)
            if floor is True:
                ok = value is True
            else:
                n = len(value) if isinstance(value, list) else value
                ok = _number(n) and n >= floor
            if not ok:
                out.append(Violation(
                    spec.contract_code,
                    f"{row}: {mk} is {value!r}, below the contract floor "
                    f"{floor!r}",
                    subject=spec.name,
                ))
    return out


def compare(spec: BenchSpec, baseline: dict,
            current: dict) -> tuple[list[Violation], list[Violation]]:
    """Diff a fresh report against its committed baseline.

    Returns ``(hard, timing)``.  ``hard`` holds ``P321`` when the runs
    are not comparable (a match key, the row set or a row key differs,
    or a timing metric is missing or non-numeric on either side) and
    ``spec.code`` for every exact metric that changed.  ``timing`` holds
    ``spec.code`` for every timing minimum that regressed beyond the
    one-sided threshold -- the only verdict machine noise can produce.
    Improvements never fail.
    """
    hard: list[Violation] = []
    timing: list[Violation] = []

    def flag(out, code, message):
        out.append(Violation(code, message, subject=spec.name))

    for key in spec.match_keys:
        if baseline.get(key) != current.get(key):
            flag(hard, "P321", f"run configuration '{key}' differs: "
                 f"baseline {baseline.get(key)!r} vs current "
                 f"{current.get(key)!r}")
    brows, crows = spec.rows(baseline), spec.rows(current)
    if set(brows) != set(crows):
        flag(hard, "P321", f"rows differ: baseline {sorted(brows)} vs "
             f"current {sorted(crows)}")
    thr = budgets.PERFGATE_TIMING_THRESHOLD
    for row in sorted(set(brows) & set(crows)):
        b, c = brows[row], crows[row]
        for key in spec.row_keys:
            if b.get(key) != c.get(key):
                flag(hard, "P321", f"{row}: {key} differs (baseline "
                     f"{b.get(key)!r} vs current {c.get(key)!r}); refusing "
                     "to compare timings across execution paths")
        for mk in spec.exact:
            if b.get(mk) != c.get(mk):
                flag(hard, spec.code, f"{row}: exact metric {mk} changed "
                     f"from {b.get(mk)!r} to {c.get(mk)!r}")
        for mk in spec.timing:
            bv, cv = b.get(mk), c.get(mk)
            if not (_number(bv) and _number(cv)):
                flag(hard, "P321", f"{row}: timing metric {mk} is not "
                     f"comparable (baseline {bv!r} vs current {cv!r})")
            elif bv > 0 and (cv - bv) / bv > thr:
                flag(timing, spec.code, f"{row}: {mk} regressed "
                     f"{(cv - bv) / bv:+.1%} ({bv:.4f}s -> {cv:.4f}s), "
                     f"threshold +{thr:.0%}")
    return hard, timing


def fold(spec: BenchSpec, a: dict, b: dict, pick) -> dict:
    """Fold report ``b`` into a copy of ``a`` with ``pick`` (``min`` or
    ``max``) over every timing metric.  Exact metrics keep ``a``'s
    values: a re-measurement must never launder a behavioural change.

    Gate retries fold ``min`` (the fastest honestly observed run);
    ``--rebaseline`` folds ``max``, so the committed baseline is a speed
    reproducible across runs, not one lucky sample.
    """
    out = copy.deepcopy(a)
    other = spec.rows(b)
    for row, metrics in spec.rows(out).items():
        for mk in spec.timing:
            x, y = metrics.get(mk), other.get(row, {}).get(mk)
            if _number(x) and _number(y):
                metrics[mk] = pick(x, y)
    return out


def _joined(spec: BenchSpec):
    def compare_reports(baseline: dict, current: dict) -> list[Violation]:
        hard, timing = compare(spec, baseline, current)
        return hard + timing
    return compare_reports


compare_bench_reports = _joined(_SPEC["perf_smoke"])
check_service_contract = partial(check_contract, _SPEC["service"])
compare_service_reports = _joined(_SPEC["service"])
check_frontier_contract = partial(check_contract, _SPEC["frontier"])
compare_frontier_reports = _joined(_SPEC["frontier"])
