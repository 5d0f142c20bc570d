"""The service's worker pool and deterministic batch formation.

Jobs enter a single arrival-ordered queue.  Each worker, under the queue
lock, takes the *first* job whose tenant is below its in-flight cap, then
— when that job is coalescible — sweeps the rest of the queue in arrival
order for every pending job sharing its :func:`~repro.service.batching
.batch_key` (same graph structure *and weights*, program, engine, options,
and run configuration), up to ``max_batch``.  Batch formation is therefore
a pure function of queue order, never of thread timing: the same
submission order always yields the same batches.

Execution happens outside the lock.  A coalesced group becomes one
:class:`~repro.service.batching.MultiSourceTraversal` run whose per-column
results are split back into per-job :class:`RunResult`\\ s (bit-identical
to running each query alone — see ``batching.py``).  A job flagged for
load-shedding at admission executes on a degraded rung of the resilience
ladder via :class:`~repro.resilience.ResilientRunner` instead, so a
tenant over its cost budget consumes capacity of a cheaper engine while
still receiving bit-identical values.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro.algorithms import make_program
from repro.errors import (DeadlineExceededError, DrainTimeoutError,
                          JobCancelledError)
from repro.frameworks.base import RunConfig
from repro.frameworks.registry import make_engine
from repro.service.batching import (
    TRAVERSAL_SPECS,
    MultiSourceTraversal,
    batch_key,
    batchable,
    split_batch_result,
)
from repro.telemetry.tracer import NULL_TRACER

__all__ = ["Job", "Scheduler"]

_JOB_IDS = itertools.count(1)

# Job lifecycle states (JobStatus in api.py re-exports these).
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"


class Job:
    """One submitted request plus its lifecycle state (internal)."""

    def __init__(self, request, cost: float, shed: bool) -> None:
        self.id = f"job-{next(_JOB_IDS)}"
        self.request = request
        self.cost = cost
        self.shed = shed
        self.status = PENDING
        self.result = None
        self.error: BaseException | None = None
        self.batched_with = 0  # group size of the run that served this job
        self.done = threading.Event()
        config = request.config if request.config is not None else RunConfig()
        self.config = config
        # Server-side deadline: absolute monotonic instant past which a
        # still-pending job is cancelled at dispatch time.
        deadline_ms = getattr(request, "deadline_ms", None)
        self.deadline_at = (
            None if deadline_ms is None
            else time.monotonic() + deadline_ms / 1000.0
        )
        # Coalescible: a traversal program, cold-started, single-device
        # (a multi-device overlay prices exchange per run, which an even
        # split could not attribute), with no per-job tracer (a batched
        # run is shared; spans must not leak across jobs) and no armed
        # fault plan (fault sites are per-run).  The deadline joins the
        # key so a batch never outlives its tightest member.
        self.key = None
        if (
            batchable(request.program)
            and not shed
            and config.resume is None
            and config.tracer is NULL_TRACER
            and not config.faults.active
            and config.devices == 1
        ):
            self.key = batch_key(
                request.graph, request.program, request.engine,
                request.engine_opts, config,
            ) + (deadline_ms,)


class Scheduler:
    """Worker threads + the arrival-ordered queue (see module docstring)."""

    def __init__(
        self, ledger, *, workers: int = 2, max_batch: int = 32,
        tracer=None, shed_rung: int = 1, shed_ladder=None,
        devices: int = 1, join_timeout: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if devices < 1:
            raise ValueError("devices must be >= 1")
        self.ledger = ledger
        self.max_batch = max_batch
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.shed_rung = shed_rung
        self.shed_ladder = shed_ladder
        self.devices = devices
        self.join_timeout = join_timeout
        self._home_rr = itertools.count()
        self._cond = threading.Condition()
        self._queue: list[Job] = []
        self._inflight = 0
        self._paused = False
        self._stopped = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- queue ----------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        with self._cond:
            if self._stopped:
                raise RuntimeError("service is closed")
            self._queue.append(job)
            # notify_all: drain()/close() waiters share this condition, so
            # a single notify could wake one of them instead of a worker.
            self._cond.notify_all()

    def cancel(self, job: Job) -> bool:
        """Cancel ``job`` if it is still queued; running jobs complete."""
        with self._cond:
            if job.status != PENDING or job not in self._queue:
                return False
            self._queue.remove(job)
            job.status = CANCELLED
            job.error = JobCancelledError(
                f"{job.id} was cancelled before it ran", job_id=job.id
            )
        self.ledger.cancel(job.request.tenant, job.cost)
        self._emit("service-cancel", job_id=job.id,
                   tenant=job.request.tenant)
        job.done.set()
        return True

    def pause(self) -> None:
        """Stop dispatching (queued jobs accumulate; running ones finish)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def drain(self) -> None:
        """Block until the queue is empty and nothing is executing."""
        with self._cond:
            self._cond.wait_for(
                lambda: (not self._queue and self._inflight == 0)
                or self._stopped
            )

    def close(self) -> None:
        """Drain, then stop the workers.  Idempotent.

        A worker that fails to exit within ``join_timeout`` seconds is a
        leak, not a silent success: the scheduler emits a
        ``service-drain-timeout`` event (and bumps the matching metric)
        naming every leaked thread and raises
        :class:`~repro.errors.DrainTimeoutError` so the caller knows the
        process still carries live non-daemon work.
        """
        self.drain()
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout=self.join_timeout)
        leaked = tuple(t.name for t in self._threads if t.is_alive())
        if leaked:
            self._emit(
                "service-drain-timeout",
                leaked=",".join(leaked),
                timeout_s=self.join_timeout,
            )
            if self.tracer.enabled:
                self.tracer.metrics.counter(
                    "service.drain.leaked"
                ).inc(len(leaked))
            raise DrainTimeoutError(
                f"{len(leaked)} worker thread(s) still alive "
                f"{self.join_timeout:g}s after close: {', '.join(leaked)}",
                leaked=leaked,
            )

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- batch formation (under the lock) -------------------------------
    def _purge_expired(self) -> None:
        """Cancel queued jobs whose server-side deadline has passed.

        Runs under the queue lock at every dispatch attempt (workers also
        time their waits against the earliest pending deadline, so an
        expiry wakes one up promptly even on an idle queue).
        """
        now = time.monotonic()
        expired = [
            j for j in self._queue
            if j.deadline_at is not None and now >= j.deadline_at
        ]
        if not expired:
            return
        for job in expired:
            self._queue.remove(job)
            job.status = CANCELLED
            job.error = DeadlineExceededError(
                f"{job.id} exceeded its {job.request.deadline_ms:g} ms "
                "server-side deadline while pending",
                job_id=job.id,
                deadline_ms=job.request.deadline_ms,
            )
            self.ledger.cancel(job.request.tenant, job.cost)
            self._emit(
                "service-deadline", job_id=job.id,
                tenant=job.request.tenant,
                deadline_ms=job.request.deadline_ms,
            )
            job.done.set()
        # The queue may have emptied: wake drain()/close() waiters.
        self._cond.notify_all()

    def _next_deadline_wait(self) -> float | None:
        """Seconds until the earliest queued deadline (None = no deadline)."""
        deadlines = [
            j.deadline_at for j in self._queue if j.deadline_at is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _take_group(self) -> list[Job] | None:
        self._purge_expired()
        starts: dict[str, int] = {}

        def eligible(job: Job) -> bool:
            quota = self.ledger.quota(job.request.tenant)
            if quota.max_inflight is None:
                return True
            claimed = starts.get(job.request.tenant, 0)
            return (
                self.ledger.may_start(job.request.tenant)
                if claimed == 0
                else claimed < quota.max_inflight
            )

        lead = next((j for j in self._queue if eligible(j)), None)
        if lead is None:
            return None
        starts[lead.request.tenant] = 1
        group = [lead]
        if lead.key is not None:
            for job in self._queue:
                if len(group) >= self.max_batch:
                    break
                if job is lead or job.key != lead.key:
                    continue
                tenant = job.request.tenant
                quota = self.ledger.quota(tenant)
                claimed = starts.get(tenant, 0)
                if quota.max_inflight is not None and claimed == 0:
                    if not self.ledger.may_start(tenant):
                        continue
                if (
                    quota.max_inflight is not None
                    and claimed >= quota.max_inflight
                ):
                    continue
                starts[tenant] = claimed + 1
                group.append(job)
        for job in group:
            self._queue.remove(job)
            job.status = RUNNING
            self.ledger.start(job.request.tenant)
        self._inflight += len(group)
        return group

    # -- workers --------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._cond:
                group = None
                while group is None:
                    if self._stopped:
                        return
                    if self._queue and not self._paused:
                        group = self._take_group()
                        if group is not None:
                            break
                    self._cond.wait(self._next_deadline_wait())
            try:
                self._execute(group)
            finally:
                with self._cond:
                    self._inflight -= len(group)
                    self._cond.notify_all()

    def _execute(self, group: list[Job]) -> None:
        try:
            if len(group) > 1:
                self._run_batched(group)
            else:
                self._run_single(group[0])
        except BaseException as exc:  # noqa: BLE001 - jobs absorb failures
            for job in group:
                job.status = FAILED
                job.error = exc
        finally:
            for job in group:
                self.ledger.finish(job.request.tenant)
                job.done.set()

    def _run_single(self, job: Job) -> None:
        req = job.request
        home = next(self._home_rr) % self.devices
        prog_kwargs = {} if req.source is None else {"source": req.source}
        program = make_program(req.program, req.graph, **prog_kwargs)
        if job.shed:
            from repro.resilience.policy import degradation_steps
            from repro.resilience.runner import ResilientRunner

            steps = degradation_steps(req.engine, self.shed_ladder)
            # Skip to the first *different* engine so shedding actually
            # moves load off the premium engine, not just off its fast
            # path.  Values are unaffected: every rung is bit-exact.
            distinct = [k for k, _ in steps if k != req.engine]
            target = distinct[min(self.shed_rung - 1, len(distinct) - 1)] \
                if self.shed_rung >= 1 and distinct else req.engine
            runner = ResilientRunner(target, **req.engine_opts)
            out = runner.run(req.graph, program, config=job.config)
            job.result = out.result
            self._emit(
                "service-shed", job_id=job.id, tenant=req.tenant,
                engine=req.engine, shed_to=target, program=req.program,
            )
        else:
            from repro.resilience.faults import DeviceLostFault

            engine = make_engine(req.engine, **req.engine_opts)
            try:
                job.result = engine.run(req.graph, program, config=job.config)
            except DeviceLostFault as fault:
                # Failover: a lost device fails the *device*, not the
                # tenant's request — rerun under the supervisor, which
                # repartitions onto the survivors and resumes from the
                # newest valid checkpoint (bit-identical values).
                from repro.resilience.runner import ResilientRunner

                self._emit(
                    "service-failover", job_id=job.id, tenant=req.tenant,
                    engine=req.engine, device=fault.device,
                    iteration=fault.iteration,
                )
                runner = ResilientRunner(req.engine, **req.engine_opts)
                out = runner.run(req.graph, program, config=job.config)
                job.result = out.result
        job.batched_with = 1
        job.status = DONE
        self._emit(
            "service-run", job_id=job.id, tenant=req.tenant,
            engine=req.engine, program=req.program, jobs=1,
            shed=job.shed, device=home, devices=job.config.devices,
        )

    def _run_batched(self, group: list[Job]) -> None:
        lead = group[0].request
        spec = TRAVERSAL_SPECS[lead.program]
        sources: list[int] = []
        columns: list[int] = []
        for job in group:
            source = job.request.source if job.request.source is not None \
                else 0
            source = int(source)
            if source in sources:
                columns.append(sources.index(source))
            else:
                columns.append(len(sources))
                sources.append(source)
        program = MultiSourceTraversal(spec, tuple(sources))
        engine = make_engine(lead.engine, **lead.engine_opts)
        config = group[0].config
        if self.tracer is not NULL_TRACER:
            config = config.with_tracer(self.tracer)
        if config.certify != "off" and not self._certified_for_batch(
            engine, program, config
        ):
            # certify="warn": drop the coalesced fast path and run each
            # job single-source — bit-exact with the batch by construction.
            for job in group:
                self._run_single(job)
            return
        batch = engine.run(lead.graph, program, config=config)
        for job, column in zip(group, columns):
            job.result = split_batch_result(batch, spec, column, len(group))
            job.batched_with = len(group)
            job.status = DONE
        self._emit(
            "service-batch", engine=lead.engine, program=lead.program,
            jobs=len(group), sources=len(sources),
            iterations=batch.iterations,
        )
        if self.tracer.enabled:
            self.tracer.metrics.counter("service.coalesced").inc(len(group))

    def _certified_for_batch(self, engine, program, config) -> bool:
        """Gate batched execution on the multi-source program's certificate.

        Returns True when every :data:`BATCH_REQUIRED` check is PROVED.
        Under ``certify="enforce"`` a missing certificate raises
        :class:`~repro.errors.CertificationError` (the jobs fail); under
        ``certify="warn"`` it returns False with an ``F407`` event so the
        caller degrades to per-job single-source runs.
        """
        from repro.analysis.certify import BATCH_REQUIRED, certify_program
        from repro.errors import CertificationError

        cert = certify_program(program, cache=getattr(engine, "cache", None))
        failed = []
        for code in BATCH_REQUIRED:
            check = cert.result(code)
            if check is None or check.status != "PROVED":
                failed.append((code, check.status if check else "UNKNOWN"))
        if not failed:
            return True
        summary = ", ".join(f"{code}={status}" for code, status in failed)
        if config.certify == "enforce":
            raise CertificationError(
                f"batched program {cert.program!r} lacks required kernel "
                f"certificates: {summary}; set certify='warn' to fall back "
                "to per-job single-source runs",
                program=cert.program,
                failed=tuple(failed),
            )
        self._emit(
            "service-certify-degraded", code="F407", program=cert.program,
            failed=summary,
        )
        return False

    # -- telemetry ------------------------------------------------------
    def _emit(self, name: str, **attrs) -> None:
        if self.tracer.enabled:
            self.tracer.emit(name, "service", **attrs)
            self.tracer.metrics.counter(name.replace("-", ".")).inc()
