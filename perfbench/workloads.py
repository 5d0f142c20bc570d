"""The benchmark's workloads, their oracles and their measurement loops.

Every workload starts with a closed-loop *probe*: one caller making
back-to-back ``Engine.run`` calls on a warm
:class:`~repro.cache.RepresentationCache`, cycling through the workload's
queries: one PageRank, BFS from 16 seeded roots, or SSSP from each of
the 16 seeded sources ``sssp-service-mix`` then sends jobs for through a
:class:`~repro.service.Service`, on an open-loop schedule.

``run(..., trace=False)`` returns the end-to-end metrics, measured with
no tracer and no wrapper installed.  ``run(..., trace=True)`` returns the
per-layer metrics: a :class:`~repro.telemetry.Tracer` pass for the
modeled clock and the telemetry overhead, then wrapped passes (see
``layers.py``) for the wall clock.  Every result is checked against the
golden references outside the timed region, and every repeat of a query
must reproduce its first result's values and modeled time bit for bit,
with or without a tracer or a wrapper.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.errors import QuotaExceededError
from repro.frameworks.base import RunConfig
from repro.frameworks.registry import make_engine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.suite import SUITE
from repro.reference import golden
from repro.service import DEFAULT_QUOTA, JobRequest, JobStatus, Service
from repro.telemetry import Tracer
from repro.vertexcentric.datatypes import UINT_INF

import layers

MB = float(1 << 20)
PR_ITERATIONS = 28  # below every seed's convergence point: equal work
BFS_SOURCES = 16  # BFS roots per run, as Graph500 samples roots
COLD_REPS = 2  # fresh-cache calls per run, at least
SETUP_S = 2.5  # seconds of (cold, warm) call pairs behind setup_s
MIN_CALLS = 3  # warm calls per run, even when one call outlasts --seconds
TRACE_REPS = 3  # untraced and Tracer calls compared for the overhead
PROBE_SHARE = 0.5  # the service workload's probe time, per --seconds
SERVICE_RATE = 6.0  # jobs/s: about half of what one worker sustains
SOURCE_POOL = 16  # distinct SSSP sources of the service workload
CC_EVERY = 8  # one job in eight is a tenant-B CC job
POLL_S = 0.001  # generator sweep granularity
DRAIN_S = 30.0  # wait after the last send before giving up on a job
SAMPLE_S = 0.01  # Service.stats() sampling period (traced run)
MODEL_SPANS = (
    "stage1-fetch", "stage2-compute", "stage3-update", "stage4-writeback",
    "sisd", "edge-loop", "reduction", "stores", "h2d", "d2h",
)
SERVICE_METRICS = (
    "service.admission_ms", "service.submit_ms", "service.batch_width",
    "service.exec_ms_per_job", "service.busy_frac",
    "service.queue_depth_max", "service.refused", "generator.lag_ms",
)


# ----------------------------------------------------------------------
# Graphs: the program receives only what these generate from the seed
# ----------------------------------------------------------------------
def social_graph(seed: int, scale: float) -> DiGraph:
    """R-MAT with LiveJournal's suite skew at 1/50 of its size."""
    lj = next(e for e in SUITE if e.name == "livejournal")
    return generators.rmat(
        max(64, int(lj.vertices / 50 * scale)),
        max(64, int(lj.edges / 50 * scale)),
        a=lj.rmat_a, b=lj.rmat_b, c=lj.rmat_c, d=lj.rmat_d, seed=seed,
    )


def road_graph(seed: int, scale: float) -> DiGraph:
    """A 2000 x 32 lattice in spatial vertex order with a few shortcuts."""
    return generators.road_network(
        max(8, int(2000 * scale)), 32, shortcut_fraction=0.001, seed=seed
    )


def service_graph(seed: int, scale: float) -> DiGraph:
    """Symmetric weighted R-MAT (CC's golden needs a symmetric graph)."""
    g = generators.rmat(
        max(64, int(20_000 * scale)), max(256, int(80_000 * scale)),
        seed=seed,
    ).symmetrized()
    return generators.random_weights(g, low=1, high=100, seed=seed + 1)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def pagerank_reference(graph: DiGraph, damping: float = 0.85) -> np.ndarray:
    """The fixpoint :func:`repro.reference.golden.pagerank_fixpoint`
    defines, ``r = (1 - d) 1 + d P r``, with the same ``P``, solved by
    Jacobi iteration to 1e-12: the direct sparse solve fills in and takes
    minutes at this size."""
    n = graph.num_vertices
    outdeg = graph.out_degrees().astype(np.float64)
    inv = np.divide(1.0, outdeg, out=np.zeros(n), where=outdeg > 0)
    p = sp.csr_matrix((inv[graph.src], (graph.dst, graph.src)), shape=(n, n))
    r = np.ones(n)
    for _ in range(10_000):
        nxt = (1.0 - damping) + damping * (p @ r)
        if np.max(np.abs(nxt - r)) <= 1e-12:
            return nxt
        r = nxt
    raise RuntimeError("PageRank reference did not converge")


def expected(graph: DiGraph, program: str, source: int | None) -> np.ndarray:
    if program == "pr":
        return pagerank_reference(graph)
    if program == "bfs":
        return golden.bfs_levels(graph, source)
    if program == "sssp":
        return golden.sssp_distances(graph, source)
    return golden.component_min_labels(graph)


def agrees(program, result, want: np.ndarray) -> bool:
    """PageRank within its error bound, the other programs exactly.

    Each PageRank sweep contracts the L1 error by the damping ``d``, and
    the update threshold leaves at most ``tolerance / (1 - d)`` per vertex,
    so after ``k`` sweeps from all-ones the mean error is at most
    ``d**k * mean|1 - r*| + tolerance / (1 - d)``.
    """
    values = result.values
    if program.name == "pr":
        d = program.damping
        bound = (d ** result.iterations * np.abs(1.0 - want).mean()
                 + program.tolerance / (1.0 - d))
        err = np.abs(values["rank"].astype(np.float64) - want)
        return bool(err.mean() <= bound)
    raw = values[values.dtype.names[0]]
    got = raw.astype(np.int64 if program.name == "cc" else np.float64)
    if program.name != "cc":
        got[raw == UINT_INF] = np.inf
    return bool(np.array_equal(got, want))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    program: str
    make_graph: Callable[[int, float], DiGraph]
    overlaps: str  # the existing BENCH_*.json this workload covers
    frontier: str = "off"
    iterations: int | None = None  # run exactly this many (None: converge)
    service: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload(layers.PR, "cusha-cw", "pr", social_graph,
                 "benchmarks/results/BENCH_perf_smoke.json",
                 iterations=PR_ITERATIONS),
        Workload(layers.BFS, "cusha-gs", "bfs", road_graph,
                 "benchmarks/results/BENCH_frontier.json", frontier="sparse"),
        Workload(layers.SVC, "cusha-cw", "sssp", service_graph,
                 "benchmarks/results/BENCH_service.json", service=True),
        Workload(layers.VWC, "vwc-8", "pr", social_graph,
                 "benchmarks/results/BENCH_perf_smoke.json",
                 iterations=PR_ITERATIONS),
    )
}


@dataclass
class Tally:
    """Attempted and failed results; a failure names its cause."""

    attempted: int = 0
    failed: int = 0
    causes: Counter = field(default_factory=Counter)

    def record(self, ok: bool, cause: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.causes[cause] += 1


@dataclass
class Query:
    """One program instance, its golden answer and its first result."""

    program: object
    want: np.ndarray
    first: object = None


@dataclass
class Probe:
    """One workload's graph, queries and warm cache."""

    workload: Workload
    graph: DiGraph
    queries: list[Query]
    sources: np.ndarray | None = None  # the service's SSSP source pool
    cache: RepresentationCache = field(default_factory=RepresentationCache)
    tally: Tally = field(default_factory=Tally)

    @classmethod
    def build(cls, w: Workload, seed: int, scale: float) -> "Probe":
        g = w.make_graph(seed, scale)
        rng = np.random.default_rng(seed)
        if w.program == "pr":
            return cls(w, g, [Query(make_program("pr", g), expected(g, "pr", None))])
        if w.program == "bfs":
            roots = rng.choice(g.num_vertices, size=BFS_SOURCES, replace=False)
        else:
            live = np.flatnonzero(g.out_degrees() > 0)
            roots = rng.choice(live, size=min(SOURCE_POOL, live.size),
                               replace=False)
        return cls(w, g, [
            Query(make_program(w.program, g, source=int(s)),
                  expected(g, w.program, int(s)))
            for s in roots
        ], roots if w.service else None)

    @property
    def config(self) -> RunConfig:
        w = self.workload
        if w.iterations is None:
            return RunConfig(frontier=w.frontier)
        return RunConfig(frontier=w.frontier, max_iterations=w.iterations,
                         allow_partial=True)

    def engine(self, cache: RepresentationCache | None = None):
        return make_engine(self.workload.engine,
                           cache=self.cache if cache is None else cache)

    def call(self, engine, q: Query, tracer=None):
        """One timed ``Engine.run`` of ``q``: ``(seconds, result)``.

        The result must agree with the oracle and repeat ``q``'s first
        result bit for bit.  An exception is a failed result, and
        ``(seconds, None)`` returns.
        """
        t0 = time.perf_counter()
        try:
            result = engine.run(self.graph, q.program, config=self.config,
                                tracer=tracer)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            self.tally.record(False, type(exc).__name__)
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        if not agrees(q.program, result, q.want):
            self.tally.record(False, "wrong result")
        elif q.first is None:
            q.first = result
            self.tally.record(True, "")
        else:
            self.tally.record(_same(result, q.first), "not bit-identical")
        return dt, result

    def setup_pair(self) -> tuple[float, float]:
        """A call of the first query on a fresh cache, then the same call
        again on the now-warm cache: ``(cold seconds, warm seconds)``."""
        engine = self.engine(RepresentationCache())
        q = self.queries[0]
        return self.call(engine, q)[0], self.call(engine, q)[0]

    def warm_loop(self, engine, seconds: float) -> tuple[list[float], list]:
        """Whole cycles over the queries for ``seconds`` (at least
        ``MIN_CALLS`` calls); the service workload's probe takes
        ``PROBE_SHARE`` of that, leaving ``seconds`` to its open loop."""
        if self.workload.service:
            seconds *= PROBE_SHARE
        lat, results = [], []
        end = time.perf_counter() + seconds
        while len(lat) < MIN_CALLS or time.perf_counter() < end:
            for q in self.queries:
                dt, result = self.call(engine, q)
                lat.append(dt)
                results.append(result)
        return lat, results


def _same(result, first) -> bool:
    """Bit-identical values and modeled time (the NullTracer guarantee)."""
    return (
        result.values.dtype == first.values.dtype
        and result.values.tobytes() == first.values.tobytes()
        and result.total_ms == first.total_ms
    )


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# Open loop (sssp-service-mix)
# ----------------------------------------------------------------------
@dataclass
class OpenLoop:
    latency_ms: list[float]
    lag_s: list[float]
    widths: list[int]
    refused: int
    queue_depth_max: int
    wall_s: float


def _requests(probe: Probe, n: int) -> list[JobRequest]:
    """Every eighth job is CC; the SSSP jobs take the pool's sources in
    turn, so each burst's batch has the same width."""
    pool = probe.sources
    return [
        JobRequest(probe.graph, "cc", tenant="B")
        if i % CC_EVERY == CC_EVERY - 1
        else JobRequest(probe.graph, "sssp", tenant="A",
                        source=int(pool[(i - i // CC_EVERY) % len(pool)]))
        for i in range(n)
    ]


def _warm_service(svc: Service, probe: Probe) -> None:
    """Fill the shared cache for every batch width and for CC (a tenant's
    in-flight quota caps the width)."""
    for width in range(1, DEFAULT_QUOTA.max_inflight + 1):
        svc.run_batch(
            JobRequest(probe.graph, "sssp", tenant="A",
                       source=int(probe.sources[i % len(probe.sources)]))
            for i in range(width)
        )
    svc.run_batch([JobRequest(probe.graph, "cc", tenant="B")])


def open_loop(probe: Probe, svc: Service, requests: list[JobRequest],
              wants: dict, sample: bool) -> OpenLoop:
    """Send ``requests`` on a fixed schedule from this one thread.

    Jobs are due in bursts of ``CC_EVERY`` (seven SSSP jobs and one CC
    job), a burst every ``CC_EVERY / SERVICE_RATE`` seconds from the start
    of the schedule.  Each burst is enqueued with the scheduler paused, as
    :meth:`Service.run_batch` does, so batch formation sees the whole
    burst and the SSSP jobs coalesce the same way every time.  Between
    sends the generator sweeps ``JobHandle.poll()`` at ``POLL_S`` and
    stamps each job done the first time it sees it done; latency runs from
    the due time.  Jobs not done ``DRAIN_S`` after the last due time are
    cancelled and fail, so a backlog never hangs the run.
    """
    n = len(requests)
    due = [i // CC_EVERY * CC_EVERY / SERVICE_RATE for i in range(n)]
    pending: dict[int, object] = {}
    handles: dict[int, object] = {}
    done_at: dict[int, float] = {}
    lag, refused, depth = [], 0, 0
    next_sample = 0.0
    i = 0
    t0 = time.perf_counter()
    give_up = due[-1] + DRAIN_S
    while i < n or pending:
        now = time.perf_counter() - t0
        if i < n and now >= due[i]:
            svc.pause()
            try:
                while i < n and now >= due[i]:
                    lag.append(now - due[i])
                    try:
                        pending[i] = handles[i] = svc.submit(requests[i])
                    except QuotaExceededError:
                        refused += 1
                    i += 1
                    now = time.perf_counter() - t0
            finally:
                svc.resume()
        for k in [k for k, h in pending.items()
                  if h.poll() in (JobStatus.DONE, JobStatus.FAILED,
                                  JobStatus.CANCELLED)]:
            done_at[k] = now
            del pending[k]
        if sample and now >= next_sample:
            depth = max(depth, svc.stats()["queued"])
            next_sample = now + SAMPLE_S
        if now > give_up:
            break
        time.sleep(POLL_S if i >= n else min(POLL_S, max(0.0, due[i] - now)))
    for h in pending.values():
        h.cancel()
    tally = probe.tally
    for _ in range(refused):
        tally.record(False, "refused")
    latency, finished, widths = [], [], []
    for k, h in handles.items():
        status = h.poll() if k in done_at else "not done"
        if status != JobStatus.DONE:
            tally.record(False, status)
            continue
        req = requests[k]
        program = make_program(req.program, probe.graph, **(
            {} if req.source is None else {"source": req.source}))
        ok = agrees(program, h.result(), wants[req.source])
        tally.record(ok, "wrong result")
        if ok:
            latency.append((done_at[k] - due[k]) * 1e3)
            finished.append(done_at[k])
            widths.append(h.batched_with)
    return OpenLoop(latency, lag, widths, refused, depth,
                    max(finished, default=time.perf_counter() - t0))


def _service_run(probe: Probe, seconds: float, attribution=None) -> OpenLoop:
    wants = {int(s): q.want for s, q in zip(probe.sources, probe.queries)}
    wants[None] = expected(probe.graph, "cc", None)
    requests = _requests(probe, max(1, int(SERVICE_RATE * seconds)))
    with Service(workers=1, cache=probe.cache) as svc:
        _warm_service(svc, probe)
        if attribution is not None:
            attribution.reset()
        return open_loop(probe, svc, requests, wants,
                         sample=attribution is not None)


# ----------------------------------------------------------------------
# End-to-end run (no tracer, no wrapper)
# ----------------------------------------------------------------------
def end_to_end(w: Workload, seed: int, seconds: float,
               scale: float) -> tuple[dict, Tally, dict]:
    probe = Probe.build(w, seed, scale)
    engine = probe.engine()
    # The first call fills the warm cache, under tracemalloc.
    tracemalloc.start()
    try:
        _, first = probe.call(engine, probe.queries[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if first is None:
        return {}, probe.tally, {}
    pairs = []
    end = time.perf_counter() + SETUP_S
    while len(pairs) < COLD_REPS or time.perf_counter() < end:
        pairs.append(probe.setup_pair())
    lat, _ = probe.warm_loop(engine, seconds)
    metrics = {
        "run_s": statistics.median(lat),
        "setup_s": statistics.median(cold - warm for cold, warm in pairs),
        "model_ms": statistics.median(q.first.total_ms for q in probe.queries
                                      if q.first is not None),
        "peak_mem_mb": peak / MB,
    }
    if w.service:
        loop = _service_run(probe, seconds)
        latency_ms, wall = loop.latency_ms, loop.wall_s
        info = {"jobs": len(latency_ms), "refused": loop.refused,
                "generator_lag_ms_p90": _pct(loop.lag_s, 90) * 1e3}
    else:
        latency_ms, wall = [x * 1e3 for x in lat], sum(lat)
        info = {"calls": len(lat)}
    if latency_ms:
        metrics["jobs_per_s"] = len(latency_ms) / wall
        metrics["job_latency_ms.p50"] = _pct(latency_ms, 50)
        metrics["job_latency_ms.p90"] = _pct(latency_ms, 90)
    info["setup_pairs"] = len(pairs)
    return metrics, probe.tally, info


# ----------------------------------------------------------------------
# Traced run (Tracer pass, then wrapped passes)
# ----------------------------------------------------------------------
def _units(tracer: Tracer, graph: DiGraph) -> int:
    """Scheduling units a frontier sweep may skip (shards or chunks)."""
    m = tracer.metrics
    if "cusha.num_shards" in m:
        return int(m.get("cusha.num_shards").value)
    return math.ceil(graph.num_vertices / m.get("vwc.chunk_vertices").value)


def _tracer_pass(probe: Probe, engine) -> dict:
    """Untraced and Tracer calls over the same queries: the modeled
    clock per span, the telemetry overhead and the exact counts."""
    cycles = max(1, math.ceil(TRACE_REPS / len(probe.queries)))
    untraced = traced = 0.0
    model = dict.fromkeys(MODEL_SPANS, 0.0)
    spans = calls = 0
    for _ in range(cycles):
        for q in probe.queries:
            untraced += probe.call(engine, q)[0]
            tracer = Tracer()
            traced += probe.call(engine, q, tracer)[0]
            for span in tracer.spans:
                if span.name in model and span.kind in ("stage", "transfer"):
                    model[span.name] += span.model_ms
            spans += len(tracer.spans)
            calls += 1
    firsts = [q.first for q in probe.queries]
    iterations = sum(r.iterations for r in firsts)
    units = _units(tracer, probe.graph)
    return {
        "engine.iterations": iterations / len(firsts),
        "engine.iter_ms": untraced / (cycles * iterations) * 1e3,
        "frontier.edges_processed":
            sum(r.edges_processed for r in firsts) / len(firsts),
        "frontier.skip_frac":
            sum(r.shards_skipped for r in firsts) / (iterations * units),
        "telemetry.overhead_frac": (traced - untraced) / untraced,
        "telemetry.spans_per_call": spans / calls,
        **{f"model.{name}_ms": ms / calls for name, ms in model.items()},
    }


def traced(w: Workload, seed: int, seconds: float,
           scale: float) -> tuple[dict, Tally, dict]:
    probe = Probe.build(w, seed, scale)
    tally = probe.tally
    engine = probe.engine()
    for q in probe.queries:
        if probe.call(engine, q)[1] is None:
            return {}, tally, {}
    metrics = _tracer_pass(probe, engine)
    metrics.update(dict.fromkeys(SERVICE_METRICS, 0.0))
    att = layers.Attribution()
    calls: dict[str, Counter] = {}
    with layers.installed(att):
        q = probe.queries[0]
        for _ in range(COLD_REPS):
            probe.call(probe.engine(RepresentationCache()), q)
        for layer in layers.LAYERS:
            if layer.phase == "cold":
                metrics[layer.metric] = att.self_s[layer.metric] / COLD_REPS
        calls["cold"] = Counter(att.calls)
        att.reset()
        tracemalloc.start()
        try:
            probe.call(probe.engine(RepresentationCache()), q)
        finally:
            tracemalloc.stop()
        metrics["graph.build_peak_mb"] = max(att.peak_bytes.values(),
                                             default=0) / MB
        att.reset()
        lat, results = probe.warm_loop(engine, seconds)
        n = len(lat)
        for layer in layers.LAYERS:
            if layer.phase == "warm":
                metrics[layer.metric] = att.self_s[layer.metric] / n
        done = [r for r in results if r is not None]
        metrics["kernel.edges_per_call"] = att.work["kernel.messages_s"] / n
        metrics["cache.hits_per_call"] = sum(r.cache_hits for r in done) / n
        metrics["cache.misses_per_call"] = sum(r.cache_misses for r in done) / n
        calls["warm"] = Counter(att.calls)
        if w.service:
            loop = _service_run(probe, seconds, att)
            calls["service"] = Counter(att.calls)
            metrics.update(_service_metrics(att, loop))
    missing = layers.self_check(w.name, calls)
    for metric in missing:
        tally.record(False, f"never called: {metric}")
    info = {"warm_calls": n, "cold_calls": COLD_REPS,
            "wrapper_self_check": missing or "ok"}
    return metrics, tally, info


def _service_metrics(att: layers.Attribution, loop: OpenLoop) -> dict:
    def per_call_ms(metric: str) -> float:
        return att.incl_s[metric] / max(1, att.calls[metric]) * 1e3

    engine_s = att.incl_s[layers.ENGINE]
    return {
        "service.admission_ms": per_call_ms("service.admission_ms"),
        "service.submit_ms": per_call_ms("service.submit_ms"),
        "service.batch_width": statistics.fmean(loop.widths or [0]),
        "service.exec_ms_per_job":
            engine_s / max(1, len(loop.latency_ms)) * 1e3,
        "service.busy_frac": engine_s / loop.wall_s,
        "service.queue_depth_max": loop.queue_depth_max,
        "service.refused": loop.refused,
        "generator.lag_ms": _pct(loop.lag_s or [0.0], 90) * 1e3,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """One benchmark run: the result object plus an ``info`` block."""
    w = WORKLOADS[name]
    metrics, tally, info = (traced if trace else end_to_end)(
        w, seed, seconds, scale)
    info["failures"] = dict(tally.causes)
    info["error_rate"] = tally.failed / max(1, tally.attempted)
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
        "info": info,
    }
