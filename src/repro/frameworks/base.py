"""Engine interface and result records.

Engines compute **real vertex values** — every iteration executes the
program's vectorized kernels on actual data, and convergence is the
program's own fixpoint condition — while simultaneously accounting the
hardware activity the access patterns would generate on the modeled device.
The returned :class:`RunResult` therefore carries both the answer (validated
against golden references in the test-suite) and the paper's performance
quantities (times, efficiencies, TEPS).

The driver contract is ``engine.run(graph, program, config=RunConfig(...))``.
The PR-1 deprecation shim that accepted loose keyword arguments
(``max_iterations=``, ``allow_partial=``, ...) is retired: passing them
now raises a :class:`TypeError` pointing at :class:`RunConfig`.  Engines
themselves implement :meth:`Engine._run` and only ever see the config
object.
"""

from __future__ import annotations

import hashlib
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ConvergenceError
from repro.graph.digraph import DiGraph
from repro.gpu.stats import KernelStats
from repro.telemetry.tracer import NULL_TRACER
from repro.vertexcentric.program import VertexProgram

__all__ = [
    "IterationTrace",
    "FaultHooks",
    "NULL_FAULTS",
    "Checkpoint",
    "values_digest",
    "RunConfig",
    "run_config",
    "RunResult",
    "Engine",
    "ConvergenceError",
]


class FaultHooks:
    """Fault-injection hook points engines call at fixed sites.

    This base class is the zero-overhead no-op: every hook returns
    immediately and ``active`` is ``False``, so the default
    :data:`NULL_FAULTS` adds one attribute read per site and nothing else.
    :class:`repro.resilience.FaultPlan` subclasses it to fire simulated GPU
    faults (raising :class:`repro.resilience.InjectedFault` subclasses) at
    deterministic, seed-driven points.

    The hook sites are the contract that keeps fault injection identical
    across the ``fast`` and ``reference`` execution paths: hooks fire only
    at per-launch, per-transfer, and per-iteration boundaries — never
    inside per-wave or per-shard inner loops.  For the sharded engines the
    contract is structural: every hook call sits in the one iteration
    driver, :func:`repro.frameworks.sweep.run_sweeps`, which both paths run
    through, so they reach exactly the same ``(engine, hook, iteration)``
    sites (``tests/test_fault_sites.py`` records and compares them).

    Hooks:

    - :meth:`launch` — once per run, before the first kernel launch, with
      the requested shared-memory footprint (simulated shared-memory OOM).
    - :meth:`transfer` — around each bulk PCIe direction, ``which`` in
      ``("h2d", "d2h")`` (transient transfer faults).
    - :meth:`kernel` — at the top of each iteration, before any stage runs
      (kernel aborts; ``exec_path`` lets a fault target only one path).
    - :meth:`values` — at the end of each iteration with the live
      VertexValues array (simulated uncorrectable ECC bit-flips).
    - :meth:`representations` — once per run from :meth:`Engine.run`,
      before :meth:`Engine._run` (bit-flips in the device copy of a
      shard/CW/CSR representation).
    - :meth:`device` — at the top of each iteration, immediately after
      :meth:`kernel`, only when the run is multi-device (simulated device
      loss at an iteration boundary; ``placement`` is the live
      :class:`repro.placement.Placement`).
    """

    active: bool = False

    def launch(self, engine: str, shared_bytes: int, limit_bytes: int) -> None:
        """Hook before the first kernel launch of a run."""

    def transfer(self, engine: str, which: str) -> None:
        """Hook before a bulk host-device transfer (``h2d`` or ``d2h``)."""

    def kernel(self, engine: str, iteration: int, exec_path: str) -> None:
        """Hook at the top of iteration ``iteration`` (1-based, absolute)."""

    def values(self, engine: str, iteration: int, values: np.ndarray) -> None:
        """Hook after iteration ``iteration`` with the live VertexValues."""

    def representations(self, engine, graph, program, config) -> None:
        """Hook over the representations a run is about to execute."""

    def device(
        self, engine: str, iteration: int, exec_path: str, placement
    ) -> None:
        """Hook at the top of iteration ``iteration`` on multi-device runs."""


NULL_FAULTS = FaultHooks()


def _not_integer(value) -> bool:
    try:
        operator.index(value)
    except TypeError:
        return True
    return False


#: Declarative :class:`RunConfig` compatibility table: ``(knob, predicate,
#: message)`` rows checked in order at construction.  A predicate returning
#: ``True`` means the combination is invalid and construction raises
#: :class:`~repro.errors.ConfigError` (a ``ValueError`` subclass, so legacy
#: ``except ValueError`` callers keep working).  Keeping the rules in one
#: table — rather than scattered ``if``/``raise`` pairs — makes the set of
#: invalid knob combinations auditable and exhaustively testable.  The
#: integer rows come first, so the range rows below only compare numbers.
_INVALID_COMBOS: tuple[tuple[str, Callable, str], ...] = (
    ("max_iterations",
     lambda c: _not_integer(c.max_iterations),
     "max_iterations must be an integer"),
    ("devices",
     lambda c: _not_integer(c.devices),
     "devices must be an integer"),
    ("exec_path",
     lambda c: c.exec_path not in ("fast", "reference"),
     "exec_path must be 'fast' or 'reference'"),
    ("frontier",
     lambda c: c.frontier not in ("off", "sparse", "auto"),
     "frontier must be 'off', 'sparse', or 'auto'"),
    ("validate",
     lambda c: c.validate not in ("off", "structure", "full", "perf"),
     "validate must be 'off', 'structure', 'full', or 'perf'"),
    ("certify",
     lambda c: c.certify not in ("off", "warn", "enforce"),
     "certify must be 'off', 'warn', or 'enforce'"),
    ("max_iterations",
     lambda c: c.max_iterations < 1,
     "max_iterations must be >= 1"),
    ("resume",
     lambda c: c.resume is not None and (
         getattr(c.resume, "values", None) is None
         or _not_integer(getattr(c.resume, "iteration", None))
         or not 0 <= c.resume.iteration < c.max_iterations),
     "resume must carry values and an integer iteration in "
     "[0, max_iterations)"),
    ("certify",
     lambda c: c.certify == "enforce" and c.validate == "off",
     "certify='enforce' requires validate != 'off' (the certificate "
     "verdicts are surfaced through the analysis preflight it gates)"),
    ("narrow",
     lambda c: c.narrow not in ("off", "auto"),
     "narrow must be 'off' or 'auto'"),
    ("devices",
     lambda c: c.devices < 1,
     "devices must be >= 1"),
    ("placement",
     lambda c: c.placement is not None and c.devices < 2,
     "placement requires devices >= 2 (a single-device run has no "
     "unit->device assignment to honor)"),
    ("placement",
     lambda c: c.placement is not None
     and getattr(c.placement, "num_devices", None) != c.devices,
     "placement.num_devices must equal devices"),
)


@dataclass(frozen=True)
class IterationTrace:
    """One iteration's footprint (drives the paper's Figure 7)."""

    iteration: int
    updated_vertices: int
    time_ms: float
    cumulative_time_ms: float
    active_shards: int = 0
    """Shards (chunks for VWC) the iteration actually processed.  Only
    populated under a frontier mode (``0`` when ``frontier="off"``, where
    every iteration sweeps all shards), so historical traces are
    unchanged."""


def values_digest(
    values: np.ndarray, iteration: int,
    frontier: np.ndarray | None = None,
) -> str:
    """blake2b over the snapshot's bytes, iteration, value layout, and
    (when present) the frontier mask — a flipped frontier bit would
    silently skip live shards on resume, so it is integrity-checked too.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(iteration).tobytes())
    h.update(str(values.dtype).encode())
    h.update(np.ascontiguousarray(values).tobytes())
    if frontier is not None:
        h.update(b"frontier")
        h.update(np.ascontiguousarray(frontier).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """The whole algorithm state at an iteration boundary: VertexValues
    after ``iteration`` sweeps, plus the last sweep's updated-vertex mask
    for frontier-gated runs (``None`` otherwise)."""

    iteration: int
    values: np.ndarray
    digest: str
    frontier: np.ndarray | None = None

    @classmethod
    def of(cls, iteration: int, values, frontier=None) -> "Checkpoint":
        """Digested private copies of ``values`` and ``frontier`` as the
        state after ``iteration`` sweeps."""
        values = np.array(values, copy=True)
        frontier = None if frontier is None else np.array(frontier, copy=True)
        return cls(int(iteration), values,
                   values_digest(values, int(iteration), frontier), frontier)

    def verify(self) -> bool:
        return values_digest(
            self.values, self.iteration, self.frontier
        ) == self.digest


@dataclass(frozen=True)
class RunConfig:
    """Immutable per-run settings shared by every engine.

    ``tracer`` defaults to the zero-overhead :data:`~repro.telemetry.NULL_TRACER`;
    pass a :class:`~repro.telemetry.Tracer` to collect spans and metrics.

    ``exec_path`` selects between the wave-batched vectorized core
    (``"fast"``, the default) and the original per-shard loop
    (``"reference"``) in the engines that implement both; the two paths are
    equivalence-gated to byte-identical results.  The single-path CSR
    engines (VWC, MTCPU) run their one loop either way, but under
    ``"reference"`` they skip the representation cache, like the
    dual-path engines' reference operators.  The scalar oracle ignores it.

    ``validate`` gates the :mod:`repro.analysis` preflight: ``"off"`` (the
    default) skips it entirely, ``"structure"`` lints the program and
    structurally validates the representations the engine will execute
    over, ``"full"`` additionally runs the simulated-race detector, and
    ``"perf"`` runs the structural checks plus the static performance
    auditor (``P3xx`` codes; see ``docs/analysis.md`` for the overhead of
    each level).  Error violations abort the run with
    :class:`~repro.analysis.violations.ValidationError` before any engine
    state is touched.

    ``faults`` defaults to the no-op :data:`NULL_FAULTS`; pass a
    :class:`repro.resilience.FaultPlan` to arm deterministic fault
    injection at the :class:`FaultHooks` sites.

    ``resume`` warm-starts an engine from a :class:`Checkpoint`: the
    engine copies ``resume.values`` instead of calling
    ``program.initial_values``, numbers iterations from
    ``resume.iteration + 1`` (so fault sites and traces line up with an
    uninterrupted run), and under a frontier mode rebuilds the exact
    dirty set from ``resume.frontier`` (``frontier="off"`` leaves it
    unused).  ``max_iterations`` stays the *absolute* cap.

    ``frontier`` selects work-efficient sweeps: ``"off"`` (the default)
    runs the historical full sweep every iteration; ``"sparse"`` keeps a
    per-shard/per-chunk dirty bitmap and skips quiescent shards entirely
    (bit-exact values, traces, and iteration counts — only the modeled
    hardware work shrinks); ``"auto"`` additionally picks a push (sparse
    gather) or pull (dense sweep) direction each iteration from the
    frontier-size × average-degree heuristic.  Engines without shard
    structure (``scalar``, ``mtcpu``) treat any mode as ``"off"``.

    ``certify`` gates the kernel property certifier
    (:mod:`repro.analysis.certify`): ``"off"`` (the default) never
    consults certificates; ``"warn"`` checks the program's ``C4xx``
    certificates whenever a fast path relies on them (frontier sweeps,
    async engines, service batching) and *degrades to the safe full-sweep
    path* with a recorded ``F407`` event when a required check is not
    ``PROVED``; ``"enforce"`` raises
    :class:`~repro.errors.CertificationError` instead of degrading.

    ``narrow`` gates proven-safe dtype narrowing
    (:mod:`repro.frameworks.narrow`): ``"off"`` (the default) runs at the
    declared widths; ``"auto"`` consults the range certificates
    (:mod:`repro.analysis.ranges`) and, when W501/W504 prove a field
    exact at a narrower dtype, runs with narrowed ``VertexValues`` and
    message buffers — the cost model charges the narrowed bytes while
    the final values are widened back, so results stay bit-exact against
    ``narrow="off"``.  Programs with no provable plan run unchanged.

    ``devices`` / ``placement`` select multi-device execution: with
    ``devices=N`` (N > 1) the sharded engines split each iteration's
    modeled kernel time across N simulated devices and charge a
    bulk-synchronous value-exchange step between iterations, surfacing
    per-device spans and ``placement.*`` metrics (see
    :mod:`repro.placement`).  Vertex values, iteration counts, and traces'
    update counts are bit-exact against ``devices=1`` — only the modeled
    times and exchange accounting change.  ``placement`` optionally pins
    an explicit :class:`repro.placement.Placement` (its ``num_devices``
    must equal ``devices``); by default a deterministic block partition of
    the engine's shards/chunks is used.  Engines without shard structure
    (``scalar``, ``mtcpu``) ignore both knobs.

    Construction validates knob values and cross-knob compatibility
    against the :data:`_INVALID_COMBOS` table, raising
    :class:`~repro.errors.ConfigError` (a ``ValueError``) on the first
    violated rule.
    """

    max_iterations: int = 10_000
    allow_partial: bool = False
    tracer: object = NULL_TRACER
    exec_path: str = "fast"
    validate: str = "off"
    faults: FaultHooks = field(default=NULL_FAULTS, compare=False)
    resume: Checkpoint | None = field(default=None, compare=False, repr=False)
    frontier: str = "off"
    certify: str = "off"
    narrow: str = "off"
    devices: int = 1
    placement: object = None

    def __post_init__(self) -> None:
        for knob, bad, message in _INVALID_COMBOS:
            if bad(self):
                raise ConfigError(message, knob=knob)

    def with_tracer(self, tracer) -> "RunConfig":
        return replace(self, tracer=tracer)

    @property
    def start_iteration(self) -> int:
        """Iterations already done: ``0``, or ``resume.iteration``."""
        return 0 if self.resume is None else self.resume.iteration

    def initial_values(self, graph: DiGraph, program: VertexProgram):
        """The VertexValues an engine starts from under this config.

        A fresh run gets ``program.initial_values(graph)``; a warm-started
        run gets a private mutable copy of ``resume.values`` (checkpoint
        snapshots are frozen in the cache, so engines must never write
        through the original).
        """
        if self.resume is None:
            return program.initial_values(graph)
        return np.array(self.resume.values, copy=True)


def run_config(
    config: RunConfig | None, settings: dict, *, caller: str
) -> RunConfig:
    """The one :class:`RunConfig` a call configured: ``config`` itself, or
    one built from ``settings``, keywords named after its fields.

    Passing both is a ``TypeError`` naming ``caller``; ``tracer=None``
    and ``faults=None`` keep their defaults.
    """
    if config is not None and settings:
        raise TypeError(
            f"{caller} got both config=RunConfig(...) and the keyword(s) "
            f"{', '.join(sorted(settings))}; put those settings inside "
            "the RunConfig"
        )
    if config is not None:
        return config
    return RunConfig(**{
        name: value for name, value in settings.items()
        if value is not None or name not in ("tracer", "faults")
    })


@dataclass
class RunResult:
    """Everything one engine run produced."""

    engine: str
    program: str
    values: np.ndarray
    iterations: int
    converged: bool
    kernel_time_ms: float
    h2d_ms: float
    d2h_ms: float
    representation_bytes: int
    stats: KernelStats
    traces: list[IterationTrace] = field(default_factory=list)
    num_edges: int = 0
    stage_stats: dict[str, KernelStats] | None = None
    """Per-pipeline-stage breakdown of :attr:`stats` (engines that track
    stages populate it; keys are engine-specific stage names).  Kept for
    compatibility — the tracer's ``stage`` spans carry the same breakdown
    plus per-iteration resolution and standalone modeled times."""
    exec_path: str = ""
    """The execution path this run was asked for: ``config.exec_path``
    for every engine but the scalar oracle, which reports
    ``"reference"``.  A VWC or MTCPU run reports ``"reference"`` when it
    skipped the representation cache.  Downstream comparisons — the
    ``perfgate`` baseline check above all — use it never to diff a fast
    run against a reference one."""
    cache_hits: int = 0
    cache_misses: int = 0
    """Representation-cache hit/miss deltas attributable to this run
    (both 0 when no cache was configured).  Recorded unconditionally —
    unlike the ``cache.*`` metrics, which need a live tracer."""
    completed: bool = True
    """``False`` when the run was cut short mid-stream — e.g. the
    resilience supervisor exhausted its degradation ladder and returned
    the last checkpointed state.  In that case :attr:`iterations` is the
    *partial* count actually reflected in :attr:`values` (never a stale
    pre-abort number) and :attr:`converged` is ``False``.  Engines that
    finish their loop normally — converged, or capped with
    ``allow_partial`` — report ``True``."""
    edges_processed: int = 0
    """Exact count of shard/chunk entries the frontier-gated sweeps
    actually processed, summed over the run.  ``0`` when
    ``frontier="off"`` (the full sweep does not count, keeping legacy
    results byte-identical); surfaced as the ``frontier.edges_processed``
    metric."""
    shards_skipped: int = 0
    """Exact count of shard-sweeps (chunk-sweeps for VWC) skipped because
    the shard was quiescent, summed over the run.  ``0`` when
    ``frontier="off"``; surfaced as ``frontier.shards_skipped``."""
    frontier_mask: np.ndarray | None = None
    """``(num_vertices,)`` bool mask of vertices updated by the *last
    executed iteration* when a frontier mode is active (``None`` under
    ``frontier="off"``).  This is the checkpoint payload that lets a
    segmented frontier run resume bit-identically — see
    ``RunConfig.resume``."""
    devices: int = 1
    """Simulated devices the run executed on (``RunConfig.devices``; a
    repartitioned recovery reports the maximum the stitched run saw)."""
    exchange_bytes: int = 0
    """Total bytes the bulk-synchronous value-exchange steps moved across
    the interconnect.  ``0`` on single-device runs; surfaced as the
    ``placement.exchange_bytes`` metric."""
    exchange_ms: float = 0.0
    """Modeled milliseconds of the exchange steps (already included in
    :attr:`kernel_time_ms`, which holds the multi-device iteration times);
    surfaced as ``placement.exchange_ms``."""
    unoverlapped_ms: float = 0.0
    """``cusha-streamed``: kernel ms with no chunk transfer overlapped."""
    num_chunks: int = 0
    """``cusha-streamed``: device-memory chunks the CW streams in."""

    @property
    def total_ms(self) -> float:
        """End-to-end time including host-device transfers (the quantity the
        paper reports in Table 4)."""
        return self.kernel_time_ms + self.h2d_ms + self.d2h_ms

    @property
    def teps(self) -> float:
        """Traversed edges per second, ``|E| / total_time`` (Table 7).

        Edge cases are explicit: a zero-edge graph traverses nothing, so
        TEPS is ``0.0`` no matter how long transfers took; a run with edges
        but zero modeled time (e.g. the scalar oracle, which models no
        hardware) is reported as ``inf`` rather than silently ``0.0``.
        """
        if self.num_edges == 0:
            return 0.0
        if self.total_ms <= 0:
            return float("inf")
        return self.num_edges / (self.total_ms / 1e3)

    def field_values(self, name: str | None = None) -> np.ndarray:
        """Convenience accessor: one plain array of the (first) value field."""
        if name is None:
            name = self.values.dtype.names[0]
        return self.values[name]


class Engine(ABC):
    """Common driver contract.

    :meth:`run` must execute ``program`` on ``graph`` until the program
    reports no updates (or ``config.max_iterations`` is hit, raising
    :class:`ConvergenceError` unless ``config.allow_partial``).  Subclasses
    implement :meth:`_run`; the public :meth:`run` accepts only a
    normalized :class:`RunConfig`.
    """

    name: str = "engine"

    def run(
        self,
        graph: DiGraph,
        program: VertexProgram,
        *,
        config: RunConfig | None = None,
        tracer=None,
        **legacy,
    ) -> RunResult:
        """Execute ``program`` to convergence and return the result.

        Pass settings via ``config=RunConfig(...)``.  ``tracer=`` is an
        accepted shorthand for ``config=RunConfig(tracer=...)``.  The PR-1
        loose keywords (``max_iterations=`` and friends) are gone; passing
        any unknown keyword raises :class:`TypeError` naming the fix.
        """
        if legacy:
            raise TypeError(
                f"Engine.run() got unexpected keyword argument(s) "
                f"{', '.join(sorted(legacy))}; the legacy loose-kwargs form "
                "was removed — pass config=RunConfig("
                f"{', '.join(f'{k}=...' for k in sorted(legacy))}) instead"
            )
        if config is None:
            config = RunConfig()
        if tracer is not None:
            config = config.with_tracer(tracer)
        for part in ("values", "frontier"):
            array = getattr(config.resume, part, None)
            if array is not None and len(array) != graph.num_vertices:
                raise ConfigError(
                    f"resume.{part} has {len(array)} entries for a graph "
                    f"with {graph.num_vertices} vertices",
                    knob="resume",
                )
        if config.validate != "off":
            # Imported here: repro.analysis depends on the graph and
            # vertexcentric layers, and must stay optional on the hot path.
            from repro.analysis.preflight import preflight

            preflight(self, graph, program, config)
        if config.certify != "off":
            # The kernel certifier gates the fast paths that silently
            # assume the program's algebra (frontier sweeps, async
            # engines).  "enforce" raises CertificationError; "warn"
            # returns a degraded (full-sweep) config with an F407 event.
            from repro.analysis.certify import runtime_gate

            config = runtime_gate(self, program, config)
        widen_back = None
        if config.narrow != "off":
            # Proven-safe dtype narrowing: when the range certificates
            # justify it, run with a NarrowedProgram (narrow storage,
            # wide computation) and widen the final values back.
            from repro.frameworks.narrow import narrow_gate

            program, config, widen_back = narrow_gate(
                self, graph, program, config
            )
        if config.faults.active:
            config.faults.representations(self, graph, program, config)
        result = self._run(graph, program, config)
        if widen_back is not None:
            result.values = widen_back(result.values)
        return result

    @abstractmethod
    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        """Engine-specific execution under a normalized :class:`RunConfig`."""

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """Representations a validation-enabled run structurally checks.

        Engines override this to expose the structures their :meth:`_run`
        is about to execute over (ideally built through the same
        representation cache, so the preflight warms rather than
        duplicates the build).  The default reports none.
        """
        return ()

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep hardware stats, keyed by stage-span name.

        The contract: for every returned stage, one iteration's traced
        ``stage`` span must carry exactly these stats on the counters the
        static model covers (the perf auditor's drift gate enforces it).
        Engines that model no GPU hardware return an empty mapping — the
        default.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
