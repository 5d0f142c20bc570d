"""Outside-in per-layer wall attribution.

``LAYERS`` is the one table that maps each per-layer timing metric to the
public functions it times, named as ``"module:attribute"`` at the call
site (the module or class attribute the caller looks up at call time).
:func:`installed` swaps every target for a timing wrapper and restores
the original on exit, so only the traced run ever sees a wrapper and no
file of the program changes.

Each wrapper records its inclusive time and its *self* time: the
inclusive time minus the time of wrapped calls nested inside it on the
same thread.  The self times of all layers plus ``engine.self_s`` (the
self time of ``Engine.run``) therefore add up to the wall time of the
calls, with nothing counted twice.

Every entry names the pass that must call it (``cold``: a call on a
fresh cache; ``warm``: a call on a warm cache; ``service``: the
open-loop service schedule) and the workloads on which it must be
called.  :func:`self_check` fails the traced run when a predicted call
never happened, so a refactor that moves or renames a timed function
fails loudly instead of reporting zero.  A target that no longer exists
fails at install time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PR, BFS, SVC, VWC = (
    "pr-social", "bfs-road-frontier", "sssp-service-mix", "pr-social-vwc",
)
ALL = frozenset({PR, BFS, SVC, VWC})
CUSHA = frozenset({PR, BFS, SVC})


def _edges(args: tuple) -> int:
    """Work count of a ``program.messages(src_vals, ...)`` call."""
    return len(args[1])


@dataclass(frozen=True)
class Layer:
    metric: str
    targets: tuple[str, ...]
    phase: str  # "cold", "warm" or "service"
    expect: frozenset
    moves: str  # the end-to-end metric and workload it should move
    count: Callable[[tuple], int] | None = None
    peak: bool = False  # also record the tracemalloc peak inside the call


_PROGRAMS = (
    "repro.algorithms.pagerank:PageRank",
    "repro.algorithms.bfs:BFS",
    "repro.algorithms.sssp:SSSP",
    "repro.algorithms.cc:ConnectedComponents",
    "repro.service.batching:MultiSourceTraversal",
)

LAYERS: tuple[Layer, ...] = (
    Layer("graph.cw_build_s",
          ("repro.graph.cw:ConcatenatedWindows.from_graph",),
          "cold", CUSHA, "setup_s on pr-social and bfs-road-frontier",
          peak=True),
    Layer("graph.csr_build_s", ("repro.graph.csr:CSR.from_graph",),
          "cold", frozenset({VWC}), "setup_s on pr-social-vwc", peak=True),
    Layer("account.static_bundle_s",
          ("repro.frameworks.cusha:cusha_static_bundle",),
          "cold", CUSHA, "setup_s on pr-social and bfs-road-frontier"),
    Layer("account.segments_rowwise_s",
          ("repro.frameworks.vwc:segments_rowwise",
           "repro.gpu.memory:segments_rowwise"),
          "cold", frozenset({VWC}), "setup_s on pr-social-vwc"),
    Layer("cache.fingerprint_s",
          ("repro.frameworks.cusha:graph_fingerprint",
           "repro.frameworks.vwc:graph_fingerprint",
           "repro.frameworks.csrloop:graph_fingerprint",
           "repro.service.batching:graph_fingerprint"),
          "warm", ALL,
          "run_s on bfs-road-frontier; job_latency_ms.p50 on "
          "sssp-service-mix"),
    Layer("account.store_pricing_s",
          ("repro.frameworks.cusha:gather_transactions_segmented",
           "repro.frameworks.vwc:gather_transactions"),
          "warm", ALL, "run_s on pr-social and bfs-road-frontier"),
    Layer("account.time_model_s", ("repro.gpu.engine:KernelCostModel.time_ms",),
          "warm", ALL, "run_s on pr-social and bfs-road-frontier"),
    Layer("kernel.messages_s", tuple(f"{p}.messages" for p in _PROGRAMS),
          "warm", ALL, "run_s on pr-social and pr-social-vwc", count=_edges),
    Layer("kernel.reduce_s",
          ("repro.frameworks.cusha:apply_reductions",
           "repro.frameworks.csrloop:apply_reductions"),
          "warm", ALL, "run_s on pr-social and pr-social-vwc"),
    Layer("kernel.apply_s", tuple(f"{p}.apply" for p in _PROGRAMS),
          "warm", ALL, "run_s on pr-social and pr-social-vwc"),
    Layer("frontier.bookkeeping_s",
          ("repro.frameworks.frontier:ShardFrontier.active",
           "repro.frameworks.frontier:ShardFrontier.clear",
           "repro.frameworks.frontier:ShardFrontier.mark"),
          "warm", frozenset({BFS}), "run_s on bfs-road-frontier"),
    Layer("vwc.chunk_s",
          ("repro.frameworks.vwc:run_chunk",
           "repro.frameworks.csrloop:run_chunk"),
          "warm", frozenset({VWC}), "run_s on pr-social-vwc"),
    Layer("engine.self_s", ("repro.frameworks.base:Engine.run",),
          "warm", ALL, "run_s on every workload"),
    Layer("service.admission_ms", ("repro.service.api:job_cost",),
          "service", frozenset({SVC}),
          "job_latency_ms.p50 and jobs_per_s on sssp-service-mix"),
    Layer("service.submit_ms", ("repro.service.api:Service.submit",),
          "service", frozenset({SVC}),
          "job_latency_ms.p50 and jobs_per_s on sssp-service-mix"),
)

# The metric whose self time is "everything not attributed to a layer".
ENGINE = "engine.self_s"

# Per-layer metrics that are counts or derived values rather than wrapper
# times: what each is, and the end-to-end metric it should move.
DERIVED = {
    "graph.build_peak_mb": "tracemalloc peak inside the representation "
        "build of one cold call -> peak_mem_mb",
    "cache.hits_per_call": "exact RunResult.cache_hits per warm call",
    "cache.misses_per_call": "exact RunResult.cache_misses per warm call",
    "kernel.edges_per_call": "exact edges passed to program.messages per "
        "warm call -> run_s on pr-social and pr-social-vwc",
    "frontier.skip_frac": "exact shards_skipped / (iterations x units); "
        "0 with the frontier off",
    "frontier.edges_processed": "exact RunResult.edges_processed; 0 with "
        "the frontier off",
    "engine.iterations": "exact iterations of one call",
    "engine.iter_ms": "untraced wall ms per iteration -> run_s",
    "model.<span>_ms": "modeled ms of each stage/phase span and of the "
        "h2d/d2h transfers of one call, from the Tracer -> model_ms",
    "telemetry.overhead_frac": "(Tracer call - untraced call) / untraced "
        "call; moves no end-to-end metric, which are measured untraced",
    "telemetry.spans_per_call": "spans one traced call records",
    "service.batch_width": "mean JobHandle.batched_with of completed jobs",
    "service.exec_ms_per_job": "Engine.run wall ms in the worker per "
        "completed job -> jobs_per_s on sssp-service-mix",
    "service.busy_frac": "Engine.run wall in the worker / schedule wall; "
        "near 1, job_latency_ms.p90 rises before jobs_per_s falls",
    "service.queue_depth_max": "max Service.stats()['queued'], sampled "
        "every 10 ms",
    "service.refused": "jobs refused with QuotaExceededError",
    "generator.lag_ms": "p90 of how late the generator sent each job",
}

# Modules no workload reaches with the default RunConfig (certify,
# validate and narrow "off", one device, no faults): not measured.
OFF_PATH = ("repro.analysis", "repro.resilience", "repro.placement",
            "repro.harness")


class Attribution:
    """Thread-safe inclusive/self time, call and work counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.incl_s: dict[str, float] = defaultdict(float)
            self.self_s: dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            self.work: Counter = Counter()
            self.peak_bytes: dict[str, int] = defaultdict(int)

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        metric, count, peak = layer.metric, layer.count, layer.peak

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            tracing = peak and tracemalloc.is_tracing()
            if tracing:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.incl_s[metric] += dt
                    self.self_s[metric] += dt - child
                    self.calls[metric] += 1
                    if count is not None:
                        self.work[metric] += count(args)
                    if tracing:
                        used = tracemalloc.get_traced_memory()[1] - base
                        self.peak_bytes[metric] = max(
                            self.peak_bytes[metric], used
                        )

        return timed


def _patch(target: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``target`` with ``make(original)``; return the undo."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError:
        raise LookupError(f"timed target {target} no longer exists") from None
    inherited = attr not in vars(owner)
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    if inherited:
        return lambda: delattr(owner, attr)
    return lambda: setattr(owner, attr, raw)


@contextmanager
def installed(attribution: Attribution, layers=LAYERS):
    """Install every wrapper of ``layers``; always restore on exit."""
    undo: list[Callable[[], None]] = []
    try:
        for layer in layers:
            for target in layer.targets:
                undo.append(
                    _patch(target, functools.partial(attribution.wrap, layer))
                )
        yield attribution
    finally:
        for restore in reversed(undo):
            restore()


def self_check(workload: str, calls_by_phase: dict[str, Counter],
               layers=LAYERS) -> list[str]:
    """Metrics the table predicts work for on ``workload`` but whose
    wrapped functions were never called in their pass."""
    return [
        f"{layer.metric} ({layer.phase} pass)"
        for layer in layers
        if workload in layer.expect
        and calls_by_phase.get(layer.phase, Counter())[layer.metric] == 0
    ]
