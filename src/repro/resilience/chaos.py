"""Chaos harness: seeded fault campaigns with golden-value assertions.

A campaign sweeps the cross product of :data:`CHAOS_ENGINES` and
:data:`~repro.resilience.faults.FAULT_CLASSES` — every fault class against
every engine — running SSSP on a small seeded R-MAT graph under the
:class:`~repro.resilience.runner.ResilientRunner`.  Each run asserts the
resilience contract end to end:

- the planned fault actually fired (``plan.unfired()`` is empty);
- the run recovered (retry/restore) or degraded down the ladder — it never
  ended unrecovered;
- the final VertexValues are **bit-identical** to a fault-free golden run
  of the same engine (degraded runs too: the deterministic programs agree
  bit-for-bit across every engine, which is what makes the ladder safe);
- a run that did not degrade also matches the golden run's
  ``iterations``, ``stats`` and ``stage_stats`` (``accounting_match``):
  a supervised run stitches back to the uninterrupted one.

Everything is derived from the campaign seed — the graph, the fault sites,
the backoff schedule — so a failing campaign replays exactly.

``python -m repro chaos --seed 0 --campaign smoke`` is the CLI entry;
``make chaos-smoke`` wires it into CI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import make_program
from repro.errors import ConfigError
from repro.frameworks.base import RunConfig
from repro.frameworks.registry import make_engine
from repro.graph import generators
from repro.resilience.faults import FAULT_CLASSES, FaultPlan, FaultSpec
from repro.resilience.runner import ResilientRunner

__all__ = [
    "CHAOS_ENGINES",
    "CAMPAIGNS",
    "ChaosRun",
    "ChaosReport",
    "build_plan",
    "run_campaign",
    "run_multi_device_campaign",
]

#: Engines a campaign sweeps (every GPU-class engine with both a launch
#: and a representation surface; the CPU engines are ladder terminals,
#: exercised as degradation targets rather than fault subjects).
CHAOS_ENGINES: tuple[str, ...] = (
    "cusha-cw",
    "cusha-gs",
    "cusha-streamed",
    "vwc-8",
)

#: Campaign name -> extra seeds swept on top of the base seed.  ``smoke``
#: is the CI gate (engines x fault classes, one seed); ``full`` re-runs
#: the sweep under three derived seeds, moving every seed-pinned fault
#: site (iteration, stage, flipped bit position).  ``multi`` is the
#: multi-device campaign: a device loss injected at *every* iteration
#: boundary of every engine's golden run (see
#: :func:`run_multi_device_campaign`; its single entry is the device-index
#: offset, not a seed sweep).
CAMPAIGNS: dict[str, tuple[int, ...]] = {
    "smoke": (0,),
    "full": (0, 1, 2),
    "multi": (0,),
}

_GRAPH_VERTICES = 256
_GRAPH_EDGES = 2048
_MAX_ITERATIONS = 200
_PROGRAM = "sssp"


@dataclass(frozen=True)
class ChaosRun:
    """Outcome of one (engine, fault class, seed) cell of a campaign."""

    engine: str
    fault: str
    seed: int
    fired: int
    plan_consumed: bool
    recovered: bool
    degraded: bool
    completed: bool
    converged: bool
    golden_match: bool
    accounting_match: bool
    iterations: int
    retries: int
    restores: int
    degradations: int
    checkpoints: int
    backoff_ms: float
    engine_final: str
    exec_path_final: str
    codes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """The resilience contract for this cell: a run that stayed on its
        engine must also stitch back to the golden run's accounting."""
        return (
            self.fired > 0
            and self.plan_consumed
            and self.recovered
            and self.completed
            and self.converged
            and self.golden_match
            and (self.degraded or self.accounting_match)
        )

    @classmethod
    def of(cls, engine: str, fault: str, seed: int, plan: FaultPlan,
           outcome, golden) -> "ChaosRun":
        """One cell's verdict: ``outcome`` of a supervised run under
        ``plan``, checked against the fault-free ``golden`` run."""
        result = outcome.result
        return cls(
            engine=engine,
            fault=fault,
            seed=seed,
            fired=plan.injected,
            plan_consumed=not plan.unfired(),
            recovered=outcome.recovered,
            degraded=outcome.degraded,
            completed=outcome.completed,
            converged=outcome.converged,
            golden_match=bool(np.array_equal(outcome.values, golden.values)),
            accounting_match=(
                result.iterations == golden.iterations
                and result.stats == golden.stats
                and result.stage_stats == golden.stage_stats
            ),
            iterations=outcome.iterations,
            retries=outcome.retries,
            restores=outcome.restores,
            degradations=outcome.degradations,
            checkpoints=outcome.checkpoints,
            backoff_ms=outcome.backoff_total_ms,
            engine_final=outcome.engine_final,
            exec_path_final=outcome.exec_path_final,
            codes=tuple(sorted({v.code for v in outcome.violations})),
        )


@dataclass
class ChaosReport:
    """A whole campaign's outcome."""

    campaign: str
    seed: int
    program: str
    graph: str
    runs: list[ChaosRun] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)

    def failures(self) -> list[ChaosRun]:
        return [r for r in self.runs if not r.ok]

    def to_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "seed": self.seed,
            "program": self.program,
            "graph": self.graph,
            "passed": self.passed,
            "runs": [dataclasses.asdict(r) for r in self.runs],
        }


def build_plan(fault: str, engine: str, seed: int) -> FaultPlan:
    """The one-spec :class:`FaultPlan` for a campaign cell.

    ``sharedmem-oom`` is armed persistent (``count=None``) and pinned to
    the subject engine, so it re-fires on the same-engine reference rung
    (exercising F404) and clears only once the ladder switches engines
    (F405).  Every other class is a single transient fault whose site the
    plan derives from the seed.
    """
    if fault == "sharedmem-oom":
        spec = FaultSpec(kind=fault, engine=engine, count=None)
    else:
        spec = FaultSpec(kind=fault, engine=engine)
    return FaultPlan([spec], seed=seed)


def _prepare(campaign: str, seed: int, engines) -> tuple:
    """Check one campaign request and set it up.

    Returns ``(engines, graph, program, report)``: the engines to sweep,
    the seeded graph and program, and the empty :class:`ChaosReport`.  An
    unknown campaign or engine raises :class:`~repro.errors.ConfigError`
    naming ``campaign`` or ``engines``.
    """
    if campaign not in CAMPAIGNS:
        raise ConfigError(
            f"unknown campaign {campaign!r}; expected one of "
            f"{tuple(CAMPAIGNS)}",
            knob="campaign",
        )
    engines = CHAOS_ENGINES if engines is None else tuple(engines)
    unknown = [e for e in engines if e not in CHAOS_ENGINES]
    if unknown:
        raise ConfigError(
            f"unknown chaos engine(s) {unknown}; expected a subset of "
            f"{CHAOS_ENGINES}",
            knob="engines",
        )
    graph = generators.random_weights(
        generators.rmat(_GRAPH_VERTICES, _GRAPH_EDGES, seed=seed),
        seed=seed + 1,
    )
    report = ChaosReport(
        campaign=campaign,
        seed=seed,
        program=_PROGRAM,
        graph=f"rmat-{_GRAPH_VERTICES}x{_GRAPH_EDGES}(seed={seed})",
    )
    return engines, graph, make_program(_PROGRAM, graph), report


def _golden(key: str, graph, program):
    """The fault-free reference run every campaign cell must match."""
    return make_engine(key).run(
        graph,
        program,
        config=RunConfig(max_iterations=_MAX_ITERATIONS, allow_partial=True),
    )


def run_campaign(
    campaign: str = "smoke",
    *,
    seed: int = 0,
    engines: tuple[str, ...] | None = None,
    checkpoint_every: int = 4,
) -> ChaosReport:
    """Run one campaign and return its :class:`ChaosReport`.

    The report never raises on a failed cell — callers (the CLI, the CI
    target) inspect :attr:`ChaosReport.passed` / :meth:`failures`.
    """
    if campaign == "multi":
        return run_multi_device_campaign(
            seed=seed, engines=engines, checkpoint_every=checkpoint_every
        )
    engines, graph, program, report = _prepare(campaign, seed, engines)
    goldens = {key: _golden(key, graph, program) for key in engines}
    for key in engines:
        for fault in FAULT_CLASSES:
            for sub_seed in CAMPAIGNS[campaign]:
                plan_seed = seed + sub_seed
                plan = build_plan(fault, key, plan_seed)
                runner = ResilientRunner(
                    key, checkpoint_every=checkpoint_every
                )
                # device-loss needs a multi-device topology to have a
                # device to lose; every other class runs single-device.
                outcome = runner.run(
                    graph,
                    program,
                    config=RunConfig(
                        max_iterations=_MAX_ITERATIONS,
                        allow_partial=True,
                        faults=plan,
                        devices=2 if fault == "device-loss" else 1,
                    ),
                )
                report.runs.append(ChaosRun.of(
                    key, fault, plan_seed, plan, outcome, goldens[key]
                ))
    return report


def run_multi_device_campaign(
    *,
    seed: int = 0,
    engines: tuple[str, ...] | None = None,
    checkpoint_every: int = 4,
    devices: int = 2,
) -> ChaosReport:
    """The ``multi`` campaign: device loss at every iteration boundary.

    For every chaos engine, a fault-free single-device golden run fixes
    the iteration count; then one supervised multi-device run per
    iteration ``1..iterations`` injects a ``device-loss`` pinned to that
    boundary (the dead device index walks ``seed + iteration``, so both
    devices of the default 2-device topology get killed across a
    campaign).  Each run must repartition onto the survivors, restore the
    newest valid checkpoint, and finish **bit-identical** to the golden
    values — recovered-or-degraded must be 100%.
    """
    if devices < 2:
        raise ConfigError("multi-device campaign needs devices >= 2",
                          knob="devices")
    engines, graph, program, report = _prepare("multi", seed, engines)
    for key in engines:
        golden = _golden(key, graph, program)
        for boundary in range(1, golden.iterations + 1):
            plan = FaultPlan(
                [FaultSpec(
                    kind="device-loss",
                    engine=key,
                    iteration=boundary,
                    device=seed + boundary,
                )],
                seed=seed,
            )
            runner = ResilientRunner(key, checkpoint_every=checkpoint_every)
            outcome = runner.run(
                graph,
                program,
                config=RunConfig(
                    max_iterations=_MAX_ITERATIONS,
                    allow_partial=True,
                    faults=plan,
                    devices=devices,
                ),
            )
            report.runs.append(ChaosRun.of(
                key, f"device-loss@{boundary}", seed, plan, outcome, golden
            ))
    return report
