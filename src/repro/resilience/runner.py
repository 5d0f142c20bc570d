"""The resilient run supervisor.

:class:`ResilientRunner` executes an engine in **segments** of
``checkpoint_every`` iterations, checkpointing VertexValues at every
segment boundary.  Each segment is an ordinary warm-started
``Engine.run`` under the caller's own ``RunConfig`` with only the
supervisor's fields replaced (``resume``, the checkpoint it continues
from, with the absolute ``max_iterations`` cap, the rung's
``exec_path``, the surviving topology), so iteration numbering — and
therefore every fault site — is identical to an uninterrupted run, and
a fault-free supervised run stitches back to a plain one: the same
values, ``stats``, ``stage_stats`` and traces.

When a segment raises an :class:`~repro.resilience.faults.InjectedFault`,
the supervisor maps detection to recovery:

===================  =========  =================================================
fault                detection  recovery
===================  =========  =================================================
transfer             R301       F401 retry (+ deterministic backoff)
kernel-abort         R302       F402 restore last good checkpoint, replay
bitflip-values       R303       F402 restore last good checkpoint, replay
bitflip-rep          R304       F403 rebuild representation, re-transfer, retry
sharedmem-oom        R306       degrade immediately (retrying cannot help)
device-loss          R307       F408 repartition shards across survivors,
                                restore newest valid checkpoint, resume
                                (F409 when the run collapses to one device)
retries exhausted    —          F404 fast→reference, then F405 engine fallback
ladder exhausted     F406       partial result, ``completed=False``
===================  =========  =================================================

Device loss is *structural*, not transient: retrying on the same
topology would just lose the same device again, so repartition does not
consume retry attempts.  The dead device's shard assignment is spread
across the survivors (:meth:`repro.placement.Placement.without_device`),
values are restored from the newest digest-valid checkpoint, and the
segment resumes with absolute iteration numbering — placement is a pure
accounting overlay, so the recovered run stitches bit-identical to an
uninterrupted one.

Checkpoint restores themselves validate digests (R305 on mismatch, falling
back to older snapshots or a cold restart).  Every transition is recorded
as a :class:`RecoveryEvent`, emitted as a ``resilience`` telemetry span,
and counted in ``resilience.*`` metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from repro.analysis.violations import Violation
from repro.errors import ConfigError
from repro.frameworks.base import (ConvergenceError, RunConfig, RunResult,
                                   run_config)
from repro.frameworks.registry import make_engine
from repro.gpu.stats import KernelStats
from repro.resilience.checkpoint import Checkpoint, CheckpointStore
from repro.resilience.faults import (DeviceLostFault, InjectedFault,
                                     SharedMemOOMFault)
from repro.resilience.policy import RetryPolicy, degradation_steps
from repro.telemetry.tracer import NULL_TRACER

__all__ = ["RecoveryEvent", "ResilientResult", "ResilientRunner"]

_RUN_IDS = itertools.count(1)

#: fault kind -> (detection code, retry-recovery code, retry action)
_FAULT_CODES: dict[str, tuple[str, str, str]] = {
    "transfer": ("R301", "F401", "retry"),
    "kernel-abort": ("R302", "F402", "restore"),
    "bitflip-values": ("R303", "F402", "restore"),
    "bitflip-representation": ("R304", "F403", "rebuild"),
    "sharedmem-oom": ("R306", "", ""),
    "device-loss": ("R307", "F408", "repartition"),
}

#: RunResult fields a stitched run sums over its segments.
_ADDITIVE = ("stats", "kernel_time_ms", "h2d_ms", "d2h_ms", "cache_hits",
             "cache_misses", "edges_processed", "shards_skipped",
             "exchange_bytes", "exchange_ms", "unoverlapped_ms")


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor transition (detection, retry, restore, degrade...)."""

    action: str  # detect|retry|restore|rebuild|repartition|collapse|
    #              degrade-exec|degrade-engine|checkpoint|unrecovered
    code: str  # violation code, "" for checkpoints
    engine: str
    exec_path: str
    fault: str  # FAULT_CLASSES entry, "" for checkpoints
    iteration: int
    backoff_ms: float = 0.0
    detail: str = ""


@dataclass
class ResilientResult:
    """A supervised run's outcome: the stitched result plus its history."""

    result: RunResult
    events: list[RecoveryEvent] = field(default_factory=list)
    violations: list[Violation] = field(default_factory=list)
    recovered: bool = True
    degraded: bool = False
    engine_final: str = ""
    exec_path_final: str = ""
    checkpoints: int = 0
    restores: int = 0
    retries: int = 0
    degradations: int = 0
    repartitions: int = 0
    faults_injected: int = 0
    backoff_total_ms: float = 0.0
    replayed_iterations: int = 0

    @property
    def values(self) -> np.ndarray:
        return self.result.values

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def iterations(self) -> int:
        return self.result.iterations

    @property
    def completed(self) -> bool:
        return self.result.completed


@dataclass
class _Cursor:
    """Where a supervised run stands: its ladder rung, the retry attempt
    on that rung, and the checkpoint the next segment resumes from
    (``None``: a cold start)."""

    rung: int = 0
    attempt: int = 0
    resume: Checkpoint | None = None
    devices: int = 1
    placement: object = None

    @property
    def done(self) -> int:
        """Iterations the next segment resumes after."""
        return 0 if self.resume is None else self.resume.iteration


class ResilientRunner:
    """Checkpointed, fault-tolerant driver around the ordinary engines.

    Parameters
    ----------
    engine:
        Starting :func:`repro.frameworks.make_engine` key.
    checkpoint_every:
        Segment length in iterations (the checkpoint cadence).
    retry:
        :class:`RetryPolicy` for transient faults.
    ladder:
        Engine fallback order; defaults to
        :data:`~repro.resilience.policy.DEFAULT_ENGINE_LADDER`.
    checkpoint_cache:
        A :class:`~repro.cache.RepresentationCache` to store snapshots in
        (shared with representations if you pass the same instance);
        ``None`` gives each run a private 16-entry cache.
    engine_opts:
        Extra keyword arguments forwarded to every ``make_engine`` call
        (e.g. ``shard_size``, ``cache``).
    """

    def __init__(
        self,
        engine: str = "cusha-cw",
        *,
        checkpoint_every: int = 4,
        retry: RetryPolicy | None = None,
        ladder: tuple[str, ...] | None = None,
        checkpoint_cache=None,
        **engine_opts,
    ) -> None:
        if not isinstance(checkpoint_every, Integral) or checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be an integer >= 1",
                              knob="checkpoint_every")
        self.engine = engine
        self.checkpoint_every = checkpoint_every
        self.retry = retry if retry is not None else RetryPolicy()
        self.ladder = ladder
        self.checkpoint_cache = checkpoint_cache
        self.engine_opts = engine_opts

    # ------------------------------------------------------------------
    def run(
        self,
        graph,
        program,
        *,
        config: RunConfig | None = None,
        **settings,
    ) -> ResilientResult:
        """Supervised run; returns a :class:`ResilientResult`.

        Settings can be passed either as ``config=RunConfig(...)`` — the
        same parameter name :meth:`Engine.run` and ``Service.submit`` use —
        or as keywords named after its fields, but not both
        (``TypeError``).
        Each segment runs under ``config`` with only the fields the
        supervisor owns replaced: ``max_iterations`` (the segment's
        absolute cap), ``allow_partial``, ``exec_path`` (the ladder
        rung's), ``resume`` (the checkpoint the segment resumes from),
        and ``devices`` / ``placement`` (the topology left after any
        repartition), so the caller's values of those are ignored.
        Every other field — ``frontier``, ``validate``, ``certify``,
        ``narrow``, ``faults``, ``tracer``... — reaches every segment.
        """
        config = run_config(config, settings, caller="ResilientRunner.run()")
        tracer = NULL_TRACER if config.tracer is None else config.tracer
        metrics = tracer.metrics
        steps = degradation_steps(self.engine, self.ladder)
        store = CheckpointStore(
            cache=self.checkpoint_cache,
            run_id=f"{self.engine}:{program.name}:{next(_RUN_IDS)}",
        )
        out = ResilientResult(result=None)  # type: ignore[arg-type]
        cur = _Cursor(devices=config.devices, placement=config.placement)
        segments: list[RunResult] = []

        def record(event: RecoveryEvent, message: str | None = None,
                   severity: str = "warning") -> None:
            """Record one transition: its event, telemetry span and
            metric, plus — given a ``message`` — its violation."""
            if message is not None:
                out.violations.append(Violation(
                    code=event.code, message=message, subject=event.engine,
                    severity=severity,
                ))
            out.events.append(event)
            if tracer.enabled:
                tracer.emit(
                    f"resilience-{event.action}", "resilience",
                    engine=event.engine, exec_path=event.exec_path,
                    code=event.code, fault=event.fault,
                    iteration=event.iteration, backoff_ms=event.backoff_ms,
                    detail=event.detail,
                )
                metrics.counter(f"resilience.{event.action}").inc()

        while True:
            engine_key, exec_path = steps[cur.rung]
            engine = make_engine(engine_key, **self.engine_opts)
            seg_config = dataclasses.replace(
                config,
                tracer=tracer,
                max_iterations=min(cur.done + self.checkpoint_every,
                                   config.max_iterations),
                allow_partial=True,
                exec_path=exec_path,
                resume=cur.resume,
                devices=cur.devices,
                placement=cur.placement,
            )
            try:
                seg = engine.run(graph, program, config=seg_config)
            except InjectedFault as fault:
                out.recovered = self._recover(
                    fault, out, store, steps, record, cur
                )
                if not out.recovered:
                    break
                # A rollback past a segment discards its accounting too.
                segments = [s for s in segments if s.iterations <= cur.done]
                continue
            cur.attempt = 0
            segments.append(seg)
            cur.resume = store.save(seg.iterations, seg.values,
                                    frontier=seg.frontier_mask)
            out.checkpoints += 1
            record(RecoveryEvent(
                action="checkpoint", code="", engine=engine_key,
                exec_path=exec_path, fault="", iteration=cur.done,
            ))
            if seg.converged or cur.done >= config.max_iterations:
                break

        out.faults_injected = getattr(config.faults, "injected", 0)
        out.engine_final, out.exec_path_final = steps[cur.rung]
        out.degraded = cur.rung > 0
        out.result = self._stitch(segments, graph, program, out.recovered)
        if tracer.enabled:
            metrics.counter("resilience.faults.injected").inc(
                out.faults_injected
            )
            metrics.counter("resilience.backoff_ms").inc(out.backoff_total_ms)
            metrics.gauge("resilience.degraded").set(int(out.degraded))
            if not out.recovered:
                metrics.counter("resilience.unrecovered").inc()
        if (
            not out.result.converged
            and out.result.completed
            and not config.allow_partial
        ):
            raise ConvergenceError(
                f"{self.engine}/{program.name} did not converge in "
                f"{config.max_iterations} iterations (resilient run)"
            )
        return out

    # ------------------------------------------------------------------
    def _recover(self, fault, out, store, steps, record, cur) -> bool:
        """Handle one injected fault; returns False when unrecoverable.

        Moves ``cur`` in place: every recovery but the ladder's end rolls
        it back to the newest digest-valid checkpoint.
        """
        engine_key, exec_path = steps[cur.rung]
        detect_code, retry_code, action = _FAULT_CODES[fault.kind]
        record(RecoveryEvent(
            action="detect", code=detect_code, engine=engine_key,
            exec_path=exec_path, fault=fault.kind,
            iteration=fault.iteration, detail=str(fault),
        ), str(fault))
        out.violations.extend(getattr(fault, "violations", ()))
        if isinstance(fault, DeviceLostFault):
            self._repartition(fault, out, store, steps, record, cur)
            return True
        if not isinstance(fault, SharedMemOOMFault) and (
            cur.attempt < self.retry.max_retries
        ):
            backoff = self.retry.backoff_ms(cur.attempt)
            cur.attempt += 1
            out.retries += 1
            out.backoff_total_ms += backoff
            self._restore(fault, out, store, steps, record, cur)
            record(RecoveryEvent(
                action=action, code=retry_code, engine=engine_key,
                exec_path=exec_path, fault=fault.kind,
                iteration=cur.done, backoff_ms=backoff,
            ), (
                f"{action} after {fault.kind} on {engine_key} "
                f"(attempt {cur.attempt}, backoff {backoff:g} ms, "
                f"resuming from iteration {cur.done})"
            ))
            return True
        # Retries exhausted (or the fault is persistent): degrade.
        out.degradations += 1
        if cur.rung + 1 >= len(steps):
            record(RecoveryEvent(
                action="unrecovered", code="F406", engine=engine_key,
                exec_path=exec_path, fault=fault.kind, iteration=cur.done,
            ), (
                f"degradation ladder exhausted after {fault.kind} "
                f"on {engine_key}/{exec_path}; returning state at "
                f"iteration {cur.done} with completed=False"
            ), severity="error")
            return False
        self._restore(fault, out, store, steps, record, cur)
        cur.rung += 1
        cur.attempt = 0
        next_engine, next_path = steps[cur.rung]
        same_engine = next_engine == engine_key
        code = "F404" if same_engine else "F405"
        out.violations.append(Violation(
            code=code,
            message=(
                f"degrading {engine_key}/{exec_path} -> "
                f"{next_engine}/{next_path} after persistent {fault.kind} "
                f"(resuming from iteration {cur.done})"
            ),
            subject=engine_key,
            severity="warning",
        ))
        record(RecoveryEvent(
            action="degrade-exec" if same_engine else "degrade-engine",
            code=code, engine=next_engine, exec_path=next_path,
            fault=fault.kind, iteration=cur.done,
        ))
        return True

    # ------------------------------------------------------------------
    def _restore(self, fault, out, store, steps, record, cur) -> None:
        """Roll ``cur`` back to the newest digest-valid checkpoint.

        Each corrupt snapshot skipped on the way is an R305 detection; the
        iterations the fault threw away count as replayed.
        """
        engine_key, exec_path = steps[cur.rung]
        cur.resume, bad = store.restore()
        out.violations.extend(bad)
        for v in bad:
            record(RecoveryEvent(
                action="detect", code="R305", engine=engine_key,
                exec_path=exec_path, fault="checkpoint",
                iteration=fault.iteration, detail=v.message,
            ))
        out.restores += 1
        out.replayed_iterations += max(
            0, fault.iterations_completed - cur.done
        )

    # ------------------------------------------------------------------
    def _repartition(self, fault, out, store, steps, record, cur) -> None:
        """Device-loss recovery: reassign the dead device's shards.

        Structural, so it never consumes retry attempts: the dead
        device's units are spread round-robin across the survivors, the
        run restores the newest digest-valid checkpoint, and the next
        segment resumes on the shrunk topology with absolute iteration
        numbering.  When only one device survives, placement collapses
        to a plain single-device run (F409).
        """
        engine_key, exec_path = steps[cur.rung]
        live = fault.placement
        dead = fault.device % live.num_devices
        cur.devices -= 1
        cur.placement = (live.without_device(dead) if cur.devices >= 2
                         else None)
        self._restore(fault, out, store, steps, record, cur)
        out.repartitions += 1
        reassigned = len(live.units_on(dead))
        record(RecoveryEvent(
            action="repartition", code="F408", engine=engine_key,
            exec_path=exec_path, fault="device-loss", iteration=cur.done,
            detail=(
                f"device {dead} lost; {reassigned} unit(s) -> "
                f"{cur.devices} survivor(s)"
            ),
        ), (
            f"repartitioned after device-loss on {engine_key}: "
            f"device {dead} dropped, {reassigned} unit(s) reassigned "
            f"across {cur.devices} survivor(s), resuming from "
            f"iteration {cur.done}"
        ))
        if cur.devices == 1:
            record(RecoveryEvent(
                action="collapse", code="F409", engine=engine_key,
                exec_path=exec_path, fault="device-loss",
                iteration=cur.done,
            ), (
                f"multi-device run collapsed to a single device on "
                f"{engine_key}; continuing without an exchange step"
            ))

    # ------------------------------------------------------------------
    def _stitch(self, segments, graph, program, completed) -> RunResult:
        """Merge per-segment results into the one absolute-numbered
        RunResult an uninterrupted run would have produced."""
        if not segments:
            # Nothing ever completed: report the initial state as an
            # explicit partial result.
            return RunResult(
                engine=self.engine,
                program=program.name,
                values=program.initial_values(graph),
                iterations=0,
                converged=False,
                kernel_time_ms=0.0,
                h2d_ms=0.0,
                d2h_ms=0.0,
                representation_bytes=0,
                stats=KernelStats(),
                num_edges=graph.num_edges,
                completed=False,
            )
        traces, stages, offset_ms = [], {}, 0.0
        for seg in segments:
            traces.extend(
                dataclasses.replace(
                    t, cumulative_time_ms=t.cumulative_time_ms + offset_ms
                )
                for t in seg.traces
            )
            offset_ms += seg.kernel_time_ms
            for name, st in (seg.stage_stats or {}).items():
                stages[name] = stages[name] + st if name in stages else st
        return dataclasses.replace(
            segments[-1],
            traces=traces,
            stage_stats=stages or segments[-1].stage_stats,
            completed=completed,
            devices=max(s.devices for s in segments),
            **{
                name: functools.reduce(
                    operator.add, (getattr(s, name) for s in segments)
                )
                for name in _ADDITIVE
            },
        )
