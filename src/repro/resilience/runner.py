"""The resilient run supervisor.

:class:`ResilientRunner` executes an engine in **segments** of
``checkpoint_every`` iterations, checkpointing VertexValues at every
segment boundary.  Each segment is an ordinary warm-started
``Engine.run`` (``resume_values`` + ``start_iteration`` with the absolute
``max_iterations`` cap), so iteration numbering — and therefore every
fault site — is identical to an uninterrupted run, and a fault-free
supervised run is value-identical to a plain one.

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

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.violations import Violation
from repro.frameworks.base import (ConvergenceError, RunConfig, RunResult,
                                   run_config)
from repro.frameworks.registry import make_engine
from repro.gpu.stats import KernelStats
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import (DeviceLostFault, InjectedFault,
                                     SharedMemOOMFault)
from repro.resilience.policy import RetryPolicy, degradation_steps
from repro.telemetry.tracer import NULL_TRACER

__all__ = ["RecoveryEvent", "ResilientResult", "ResilientRunner"]

_RUN_IDS = itertools.count(1)

#: fault kind -> (detection code, retry-recovery code)
_FAULT_CODES: dict[str, tuple[str, str]] = {
    "transfer": ("R301", "F401"),
    "kernel-abort": ("R302", "F402"),
    "bitflip-values": ("R303", "F402"),
    "bitflip-representation": ("R304", "F403"),
    "sharedmem-oom": ("R306", ""),
    "device-loss": ("R307", "F408"),
}


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervisor transition (detection, retry, restore, degrade...)."""

    action: str  # detect|retry|restore|rebuild|degrade-exec|degrade-engine|
    #              checkpoint|unrecovered
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
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
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
        The supervisor owns segmentation, so ``config.exec_path`` /
        ``resume_values`` / ``start_iteration`` are ignored: the
        degradation ladder decides the execution path per rung, and
        checkpoints drive warm starts.  ``config.frontier`` *is* honored:
        each segment runs frontier-gated, checkpoints capture the
        frontier mask alongside the values, and restores stitch it back
        via ``resume_frontier`` so a supervised sparse run stays
        bit-identical to an uninterrupted one.
        """
        config = run_config(config, settings, caller="ResilientRunner.run()")
        faults = config.faults
        max_iterations = config.max_iterations
        devices = config.devices
        placement = config.placement
        tracer = NULL_TRACER if config.tracer is None else config.tracer
        metrics = tracer.metrics
        steps = degradation_steps(self.engine, self.ladder)
        store = CheckpointStore(
            cache=self.checkpoint_cache,
            run_id=f"{self.engine}:{program.name}:{next(_RUN_IDS)}",
        )
        out = ResilientResult(result=None)  # type: ignore[arg-type]
        segments: list[RunResult] = []
        step_idx = 0
        attempt = 0
        done = 0
        values: np.ndarray | None = None
        fmask: np.ndarray | None = None  # frontier mask riding each segment
        unrecovered = False

        def record(event: RecoveryEvent) -> None:
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
            engine_key, exec_path = steps[step_idx]
            seg_cap = min(done + self.checkpoint_every, max_iterations)
            if seg_cap <= done:
                break  # hit the absolute cap without converging
            engine = make_engine(engine_key, **self.engine_opts)
            seg_config = RunConfig(
                max_iterations=seg_cap,
                allow_partial=True,
                collect_traces=config.collect_traces,
                tracer=tracer,
                exec_path=exec_path,
                faults=faults,
                resume_values=values,
                start_iteration=done,
                frontier=config.frontier,
                resume_frontier=fmask if values is not None else None,
                devices=devices,
                placement=placement,
            )
            try:
                seg = engine.run(graph, program, config=seg_config)
            except InjectedFault as fault:
                state = {
                    "step_idx": step_idx,
                    "attempt": attempt,
                    "done": done,
                    "values": values,
                    "frontier": fmask,
                    "devices": devices,
                    "placement": placement,
                }
                unrecovered = not self._recover(
                    fault, out, store, steps, record, state
                )
                step_idx = state["step_idx"]
                attempt = state["attempt"]
                done = state["done"]
                values = state["values"]
                fmask = state["frontier"]
                devices = state["devices"]
                placement = state["placement"]
                if unrecovered:
                    break
                continue
            attempt = 0
            segments.append(seg)
            done = seg.iterations
            values = seg.values
            fmask = seg.frontier_mask
            store.save(done, values, frontier=fmask)
            out.checkpoints += 1
            record(RecoveryEvent(
                action="checkpoint", code="", engine=engine_key,
                exec_path=exec_path, fault="", iteration=done,
            ))
            if seg.converged or done >= max_iterations:
                break

        out.faults_injected = getattr(faults, "injected", 0)
        out.engine_final, out.exec_path_final = steps[min(
            step_idx, len(steps) - 1
        )]
        out.recovered = not unrecovered
        out.degraded = step_idx > 0
        out.result = self._stitch(
            segments, graph, program, done, values, unrecovered,
        )
        if tracer.enabled:
            metrics.counter("resilience.faults.injected").inc(
                out.faults_injected
            )
            metrics.counter("resilience.backoff_ms").inc(out.backoff_total_ms)
            metrics.gauge("resilience.degraded").set(int(out.degraded))
            if unrecovered:
                metrics.counter("resilience.unrecovered").inc()
        if (
            not out.result.converged
            and out.result.completed
            and not config.allow_partial
        ):
            raise ConvergenceError(
                f"{self.engine}/{program.name} did not converge in "
                f"{max_iterations} iterations (resilient run)"
            )
        return out

    # ------------------------------------------------------------------
    def _recover(
        self, fault, out, store, steps, record, state
    ) -> bool:
        """Handle one injected fault; returns False when unrecoverable.

        Mutates ``state`` (step_idx/attempt/done/values) in place; the
        supervisor loop re-reads it after the call.
        """
        engine_key, exec_path = steps[state["step_idx"]]
        detect_code, retry_code = _FAULT_CODES[fault.kind]
        out.violations.append(Violation(
            code=detect_code,
            message=str(fault),
            subject=engine_key,
            severity="warning",
        ))
        record(RecoveryEvent(
            action="detect", code=detect_code, engine=engine_key,
            exec_path=exec_path, fault=fault.kind,
            iteration=fault.iteration, detail=str(fault),
        ))
        if fault.kind == "bitflip-representation":
            out.violations.extend(
                getattr(fault, "violations", ())
            )
        if isinstance(fault, DeviceLostFault):
            return self._repartition(
                fault, out, store, engine_key, exec_path, record, state
            )
        persistent = isinstance(fault, SharedMemOOMFault)
        if not persistent and state["attempt"] < self.retry.max_retries:
            backoff = self.retry.backoff_ms(state["attempt"])
            state["attempt"] += 1
            out.retries += 1
            out.backoff_total_ms += backoff
            self._restore(fault, out, store, engine_key, exec_path, record,
                          state)
            action = {
                "transfer": "retry",
                "bitflip-representation": "rebuild",
            }.get(fault.kind, "restore")
            out.violations.append(Violation(
                code=retry_code,
                message=(
                    f"{action} after {fault.kind} on {engine_key} "
                    f"(attempt {state['attempt']}, backoff {backoff:g} ms, "
                    f"resuming from iteration {state['done']})"
                ),
                subject=engine_key,
                severity="warning",
            ))
            record(RecoveryEvent(
                action=action, code=retry_code, engine=engine_key,
                exec_path=exec_path, fault=fault.kind,
                iteration=state["done"], backoff_ms=backoff,
            ))
            return True
        # Retries exhausted (or the fault is persistent): degrade.
        state["step_idx"] += 1
        state["attempt"] = 0
        out.degradations += 1
        if state["step_idx"] >= len(steps):
            out.violations.append(Violation(
                code="F406",
                message=(
                    f"degradation ladder exhausted after {fault.kind} "
                    f"on {engine_key}/{exec_path}; returning state at "
                    f"iteration {state['done']} with completed=False"
                ),
                subject=engine_key,
                severity="error",
            ))
            record(RecoveryEvent(
                action="unrecovered", code="F406", engine=engine_key,
                exec_path=exec_path, fault=fault.kind,
                iteration=state["done"],
            ))
            return False
        next_engine, next_path = steps[state["step_idx"]]
        same_engine = next_engine == engine_key
        code = "F404" if same_engine else "F405"
        ckpt, bad = store.restore()
        out.violations.extend(bad)
        out.restores += 1 if (bad or ckpt) else 0
        state["done"] = ckpt.iteration if ckpt else 0
        state["values"] = ckpt.values if ckpt else None
        state["frontier"] = ckpt.frontier if ckpt else None
        out.violations.append(Violation(
            code=code,
            message=(
                f"degrading {engine_key}/{exec_path} -> "
                f"{next_engine}/{next_path} after persistent {fault.kind} "
                f"(resuming from iteration {state['done']})"
            ),
            subject=engine_key,
            severity="warning",
        ))
        record(RecoveryEvent(
            action="degrade-exec" if same_engine else "degrade-engine",
            code=code, engine=next_engine, exec_path=next_path,
            fault=fault.kind, iteration=state["done"],
        ))
        return True

    # ------------------------------------------------------------------
    def _restore(
        self, fault, out, store, engine_key, exec_path, record, state
    ) -> None:
        """Roll ``state`` back to the newest digest-valid checkpoint.

        Each corrupt snapshot skipped on the way is an R305 detection; the
        iterations the fault threw away count as replayed.
        """
        ckpt, bad = store.restore()
        out.violations.extend(bad)
        for v in bad:
            record(RecoveryEvent(
                action="detect", code="R305", engine=engine_key,
                exec_path=exec_path, fault="checkpoint",
                iteration=fault.iteration, detail=v.message,
            ))
        out.restores += 1
        state["done"] = ckpt.iteration if ckpt else 0
        state["values"] = ckpt.values if ckpt else None
        state["frontier"] = ckpt.frontier if ckpt else None
        out.replayed_iterations += max(
            0, fault.iterations_completed - state["done"]
        )

    # ------------------------------------------------------------------
    def _repartition(
        self, fault, out, store, engine_key, exec_path, record, state
    ) -> bool:
        """Device-loss recovery: reassign the dead device's shards.

        Structural, so it never consumes retry attempts: the dead
        device's units are spread round-robin across the survivors, the
        run restores the newest digest-valid checkpoint, and the next
        segment resumes on the shrunk topology with absolute iteration
        numbering.  When only one device survives, placement collapses
        to a plain single-device run (F409).
        """
        survivors = state["devices"] - 1
        live = fault.placement
        dead = fault.device % live.num_devices
        if survivors >= 2:
            state["placement"] = live.without_device(dead)
        else:
            state["placement"] = None
        state["devices"] = survivors
        self._restore(fault, out, store, engine_key, exec_path, record, state)
        out.repartitions += 1
        reassigned = len(live.units_on(dead))
        out.violations.append(Violation(
            code="F408",
            message=(
                f"repartitioned after device-loss on {engine_key}: "
                f"device {dead} dropped, {reassigned} unit(s) reassigned "
                f"across {survivors} survivor(s), resuming from "
                f"iteration {state['done']}"
            ),
            subject=engine_key,
            severity="warning",
        ))
        record(RecoveryEvent(
            action="repartition", code="F408", engine=engine_key,
            exec_path=exec_path, fault="device-loss",
            iteration=state["done"],
            detail=(
                f"device {dead} lost; {reassigned} unit(s) -> "
                f"{survivors} survivor(s)"
            ),
        ))
        if survivors == 1:
            out.violations.append(Violation(
                code="F409",
                message=(
                    f"multi-device run collapsed to a single device on "
                    f"{engine_key}; continuing without an exchange step"
                ),
                subject=engine_key,
                severity="warning",
            ))
            record(RecoveryEvent(
                action="collapse", code="F409", engine=engine_key,
                exec_path=exec_path, fault="device-loss",
                iteration=state["done"],
            ))
        return True

    # ------------------------------------------------------------------
    def _stitch(
        self, segments, graph, program, done, values, unrecovered
    ) -> RunResult:
        """Merge per-segment results into one absolute-numbered RunResult."""
        if not segments:
            # Nothing ever completed: report the initial (or last restored)
            # state as an explicit partial result.
            return RunResult(
                engine=self.engine,
                program=program.name,
                values=(values if values is not None
                        else program.initial_values(graph)),
                iterations=done,
                converged=False,
                kernel_time_ms=0.0,
                h2d_ms=0.0,
                d2h_ms=0.0,
                representation_bytes=0,
                stats=KernelStats(),
                num_edges=graph.num_edges,
                exec_path="",
                completed=False,
            )
        last = segments[-1]
        stats = KernelStats()
        traces = []
        kernel_ms = h2d_ms = d2h_ms = 0.0
        cache_hits = cache_misses = 0
        edges_processed = shards_skipped = 0
        exchange_bytes = 0
        exchange_ms = 0.0
        devices = 1
        for seg in segments:
            stats += seg.stats
            traces.extend(seg.traces)
            kernel_ms += seg.kernel_time_ms
            h2d_ms += seg.h2d_ms
            d2h_ms += seg.d2h_ms
            cache_hits += seg.cache_hits
            cache_misses += seg.cache_misses
            edges_processed += seg.edges_processed
            shards_skipped += seg.shards_skipped
            exchange_bytes += seg.exchange_bytes
            exchange_ms += seg.exchange_ms
            devices = max(devices, seg.devices)
        return RunResult(
            engine=last.engine,
            program=last.program,
            values=last.values,
            iterations=last.iterations,
            converged=last.converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_ms,
            d2h_ms=d2h_ms,
            representation_bytes=last.representation_bytes,
            stats=stats,
            traces=traces,
            num_edges=last.num_edges,
            stage_stats=last.stage_stats,
            exec_path=last.exec_path,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            completed=not unrecovered,
            edges_processed=edges_processed,
            shards_skipped=shards_skipped,
            frontier_mask=last.frontier_mask,
            devices=devices,
            exchange_bytes=exchange_bytes,
            exchange_ms=exchange_ms,
        )
