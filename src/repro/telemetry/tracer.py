"""Structured tracing: typed span events over the run/model timeline.

A :class:`Tracer` collects :class:`Span` records that engines emit while
they execute: one ``run`` span per engine invocation, one ``iteration``
span per fixpoint iteration, ``stage`` spans for the pipeline stages whose
hardware activity the paper attributes (CuSha's four stages, VWC's
gather/scatter phases), and ``transfer`` spans for the PCIe copies.

Every span carries two clocks:

- **wall time** (``wall_start_s``/``wall_ms``) — how long the simulator
  itself took, measured with :func:`time.perf_counter`;
- **model time** (``model_start_ms``/``model_ms``) — the simulated
  milliseconds on the modeled device, which is what the paper's figures
  report.  Transfer and iteration spans tile the model timeline
  (``h2d → iterations → d2h``); stage spans carry each stage's standalone
  modeled cost.

Spans may also attach the :class:`~repro.gpu.stats.KernelStats` delta they
covered (as a plain dict, so traces serialize) — per-stage traces sum to
the run's aggregate stats, which is what makes the Fig. 10 / stage
breakdown benches thin consumers of the tracer.

The default tracer everywhere is :data:`NULL_TRACER`, a zero-overhead
no-op: engines guard any non-trivial span bookkeeping behind
``tracer.enabled`` so an untraced run does no extra work and produces
byte-identical results.

A :class:`Tracer` may be shared by threads (the service's workers run
engines concurrently on one tracer): each thread nests spans on its own
stack, so a span's parent is always the innermost span open *in the same
thread*, and span ids are unique across threads.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field

from repro.gpu.stats import KernelStats

__all__ = [
    "SPAN_KINDS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "stats_to_dict",
    "stats_from_dict",
]

SPAN_KINDS = ("run", "iteration", "stage", "transfer", "resilience",
              "service", "analysis", "device")
"""The typed span vocabulary.  ``run`` wraps one engine invocation,
``iteration`` one fixpoint iteration, ``stage`` one pipeline stage or
phase within an iteration, ``transfer`` one host-device copy (including
the per-iteration multi-device ``exchange`` step),
``resilience`` one supervisor transition (fault detection, retry,
checkpoint restore, degradation) recorded by
:class:`repro.resilience.ResilientRunner`, ``service`` one scheduler
event (job admission, batch execution, shed, cancellation) recorded by
:class:`repro.service.Service`, ``analysis`` one static-analysis
gate (the kernel-certification lookup and its enforce/warn decision,
recorded by :func:`repro.analysis.certify.runtime_gate`), and
``device`` one modeled device's per-run busy summary under a
multi-device placement (see :mod:`repro.placement`)."""


def stats_to_dict(stats: KernelStats) -> dict:
    """A :class:`KernelStats` as a JSON-serializable plain dict."""
    return dataclasses.asdict(stats)


def stats_from_dict(d: dict) -> KernelStats:
    """Rebuild a :class:`KernelStats` from :func:`stats_to_dict` output."""
    return KernelStats(**d)


@dataclass
class Span:
    """One traced event.  ``parent_id`` encodes the nesting."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str
    wall_start_s: float
    wall_ms: float = 0.0
    model_start_ms: float = 0.0
    model_ms: float = 0.0
    attrs: dict = field(default_factory=dict)
    stats: dict | None = None

    def kernel_stats(self) -> KernelStats | None:
        """The attached hardware-activity delta, if any."""
        return None if self.stats is None else stats_from_dict(self.stats)


class _SpanContext:
    """Context manager opening/closing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Collects spans.  Engines receive one via ``RunConfig.tracer``."""

    enabled: bool = True

    def __init__(self) -> None:
        # Imported here to avoid a cycle at module load: metrics has no
        # dependency on the tracer, but both re-export from the package root.
        from repro.telemetry.metrics import MetricsRegistry

        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    @property
    def _stack(self) -> list[Span]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def _new_span(
        self, name: str, kind: str, model_start_ms: float, attrs: dict
    ) -> Span:
        if kind not in SPAN_KINDS:
            raise ValueError(
                f"unknown span kind {kind!r}; expected one of {SPAN_KINDS}"
            )
        stack = self._stack
        span = Span(
            span_id=0,
            parent_id=stack[-1].span_id if stack else None,
            name=name,
            kind=kind,
            wall_start_s=time.perf_counter(),
            model_start_ms=model_start_ms,
            attrs=attrs,
        )
        # One lock for the id and the append keeps ``spans`` in id order.
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        span.wall_ms = (time.perf_counter() - span.wall_start_s) * 1e3

    # ------------------------------------------------------------------
    def span(
        self, name: str, kind: str, *, model_start_ms: float = 0.0, **attrs
    ) -> _SpanContext:
        """Open a nested span; ``with tracer.span(...) as sp:`` closes it.

        Set ``sp.model_ms`` / ``sp.stats`` / ``sp.attrs[...]`` inside the
        block; wall time is measured automatically.
        """
        span = self._new_span(name, kind, model_start_ms, dict(attrs))
        self._stack.append(span)
        return _SpanContext(self, span)

    def emit(
        self,
        name: str,
        kind: str,
        *,
        model_start_ms: float = 0.0,
        model_ms: float = 0.0,
        stats: KernelStats | dict | None = None,
        **attrs,
    ) -> Span:
        """Record a completed child span of the currently open span.

        Used for analytic events (stages, transfers) whose model cost is
        known at emission; wall duration is recorded as zero.
        """
        span = self._new_span(name, kind, model_start_ms, dict(attrs))
        span.model_ms = model_ms
        if stats is not None:
            span.stats = (
                stats_to_dict(stats)
                if isinstance(stats, KernelStats)
                else dict(stats)
            )
        return span

    # ------------------------------------------------------------------
    def find(self, *, kind: str | None = None, name: str | None = None) -> list[Span]:
        """Spans filtered by kind and/or name, in emission order."""
        return [
            s
            for s in self.spans
            if (kind is None or s.kind == kind)
            and (name is None or s.name == name)
        ]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# The zero-overhead default
# ----------------------------------------------------------------------

class _NullSpan:
    """Absorbs every read and write an engine might do on a span."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        pass

    @property
    def attrs(self) -> dict:
        return {}

    @property
    def stats(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CM = _NullSpanContext()


class NullTracer:
    """No-op tracer: records nothing, allocates nothing per call.

    Engines check ``tracer.enabled`` before computing anything that only
    tracing needs, so a run with the null tracer is bit-identical to a run
    with no telemetry code at all.
    """

    enabled: bool = False

    def __init__(self) -> None:
        from repro.telemetry.metrics import NULL_METRICS

        self.metrics = NULL_METRICS

    @property
    def spans(self) -> list[Span]:
        return []

    def span(self, name: str, kind: str, **kw) -> _NullSpanContext:
        return _NULL_CM

    def emit(self, name: str, kind: str, **kw) -> _NullSpan:
        return _NULL_SPAN

    def find(self, **kw) -> list[Span]:
        return []

    def children(self, span) -> list[Span]:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()
"""Shared no-op tracer; the default ``RunConfig.tracer``."""
