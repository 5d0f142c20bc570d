"""Consolidated exception hierarchy: every ``repro``-defined error type.

This module is the single place exception *types* are defined; subsystem
modules (:mod:`repro.frameworks`, :mod:`repro.graph.io`,
:mod:`repro.analysis.violations`, :mod:`repro.resilience.faults`,
:mod:`repro.service`) re-export the names they historically owned, so old
import paths keep working while ``except repro.errors.ReproError`` catches
everything the package raises on purpose.

Hierarchy
---------
Every class derives from :class:`ReproError`.  Classes that predate the
consolidation also keep their original builtin base (``KeyError``,
``ValueError``, ``RuntimeError``) so existing ``except`` clauses — and the
semantics of e.g. ``dict``-style lookup failures — are unchanged::

    ReproError (Exception)
    ├── ConvergenceError        (also RuntimeError)   engine hit max_iterations
    ├── EngineKeyError          (also KeyError)       unknown make_engine key
    ├── ProgramKeyError         (also KeyError)       unknown make_program name
    ├── GraphFormatError        (also ValueError)     malformed graph or weights
    ├── ValidationError         (also RuntimeError)   analysis preflight errors
    ├── ConfigError             (also ValueError)     invalid knobs or seeds
    ├── CertificationError      (also RuntimeError)   kernel certificate refused
    ├── InjectedFault           (also RuntimeError)   simulated GPU faults
    │   ├── TransferFault
    │   ├── KernelAbortFault
    │   ├── MemoryCorruptionFault
    │   ├── RepresentationCorruptionFault
    │   ├── SharedMemOOMFault
    │   └── DeviceLostFault
    ├── QuotaExceededError                            service admission refused
    ├── JobCancelledError                             service job was cancelled
    ├── DeadlineExceededError                         pending job missed deadline
    └── DrainTimeoutError                             worker leaked past drain

CLI exit codes
--------------
``python -m repro`` maps exceptions onto its documented exit-code
convention (see ``docs/service.md``): **0** — success; **1** — a gate or
check failed (violations, mismatched results); **2** — the command could
not run at all.  Uncaught :class:`ReproError` subclasses are reported as
exit code **2**: they mean the *request* was unserviceable (unknown engine
key, malformed graph file, quota refusal), not that a gate evaluated to
failure.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConvergenceError",
    "EngineKeyError",
    "ProgramKeyError",
    "GraphFormatError",
    "ValidationError",
    "ConfigError",
    "CertificationError",
    "InjectedFault",
    "TransferFault",
    "KernelAbortFault",
    "MemoryCorruptionFault",
    "RepresentationCorruptionFault",
    "SharedMemOOMFault",
    "DeviceLostFault",
    "QuotaExceededError",
    "JobCancelledError",
    "DeadlineExceededError",
    "DrainTimeoutError",
]


class ReproError(Exception):
    """Common base of every exception ``repro`` raises deliberately."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an engine exhausts ``max_iterations`` without converging."""


class EngineKeyError(ReproError, KeyError):
    """Raised for engine keys no registered builder recognizes."""

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument, which turns a multi-word
        # diagnostic into a quoted blob; show the message verbatim instead.
        return self.args[0] if self.args else ""


class ProgramKeyError(ReproError, KeyError):
    """Raised for program names ``make_program`` does not know."""

    __str__ = EngineKeyError.__str__


class GraphFormatError(ReproError, ValueError):
    """Raised when a graph file cannot be parsed, or a graph's arrays or
    weights are malformed.

    Carries ``path`` and the 1-based ``line`` the problem was found on
    (``line`` is ``None`` for file-level problems such as a missing NPZ
    member; both are ``None`` for in-memory graphs).
    """

    def __init__(
        self, message: str, *, path: str | None = None, line: int | None = None
    ) -> None:
        where = path if line is None else f"{path}:{line}"
        super().__init__(message if path is None else f"{where}: {message}")
        self.path = path
        self.line = line


class ValidationError(ReproError, RuntimeError):
    """Raised when a validation-enabled run surfaces error violations."""

    def __init__(self, violations: list) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"{len(self.violations)} analysis violation(s):\n{lines}"
        )


class ConfigError(ReproError, ValueError):
    """Raised by :class:`repro.frameworks.RunConfig` at construction when a
    knob value is out of range or two knobs are statically incompatible
    (e.g. a ``resume`` checkpoint at or past ``max_iterations``,
    ``certify="enforce"`` with ``validate="off"``), by
    :func:`repro.algorithms.make_program` for a seeded vertex outside the
    graph or a keyword the program does not take, by
    :mod:`repro.resilience.chaos` for an unknown campaign or engine, and
    by :func:`repro.graph.suite.load` for a scale below 1.

    ``knob`` names the offending field (or the first field of an invalid
    pair, or the program argument) so callers can point at the right
    argument.
    """

    def __init__(self, message: str, *, knob: str = "") -> None:
        super().__init__(message)
        self.knob = knob


class CertificationError(ReproError, RuntimeError):
    """Raised when a run *requires* kernel certificates the program does
    not hold (``RunConfig(certify="enforce")`` with ``frontier`` sparse/auto
    sweeps, ``sync_mode="async"``, or service batching).

    Attributes
    ----------
    program:
        Name of the vertex program that failed certification.
    failed:
        Tuple of ``(code, verdict)`` pairs — the required ``C4xx`` checks
        that came back ``REFUTED`` or ``UNKNOWN``.
    """

    def __init__(
        self,
        message: str,
        *,
        program: str = "",
        failed: tuple = (),
    ) -> None:
        super().__init__(message)
        self.program = program
        self.failed = tuple(failed)


# ----------------------------------------------------------------------
# Simulated faults (repro.resilience)
# ----------------------------------------------------------------------

class InjectedFault(ReproError, RuntimeError):
    """Base of all simulated faults fired by a
    :class:`repro.resilience.FaultPlan`.

    Attributes
    ----------
    kind:
        The :data:`repro.resilience.faults.FAULT_CLASSES` entry that fired.
    engine:
        Engine name at the fault site.
    site:
        Site label — transfer direction, stage name, or array attribute.
    iteration:
        Absolute iteration number at the site (0 for pre-loop sites).
    iterations_completed:
        Iterations whose results are still trustworthy: the supervisor can
        report this as the partial count instead of a stale number.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str,
        engine: str,
        site: str = "",
        iteration: int = 0,
        iterations_completed: int = 0,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.engine = engine
        self.site = site
        self.iteration = iteration
        self.iterations_completed = iterations_completed


class TransferFault(InjectedFault):
    """Transient PCIe transfer error (retriable)."""


class KernelAbortFault(InjectedFault):
    """Kernel abort in a CuSha pipeline stage (restore + replay)."""


class MemoryCorruptionFault(InjectedFault):
    """Detected uncorrectable ECC bit-flip in VertexValues."""


class RepresentationCorruptionFault(InjectedFault):
    """Device representation failed structural validation after a flip."""

    def __init__(self, message: str, *, violations=(), **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.violations = tuple(violations)


class SharedMemOOMFault(InjectedFault):
    """Shared-memory allocation failure at launch (persistent)."""


class DeviceLostFault(InjectedFault):
    """A device dropped out of a multi-device run at an iteration boundary.

    Unlike the transient fault classes, recovery is structural: the
    supervisor repartitions the dead device's shards across the survivors
    and resumes from the newest valid checkpoint.

    Attributes
    ----------
    device:
        Index of the lost device in the placement that was executing.
    placement:
        The :class:`repro.placement.Placement` in force when the device
        died — the supervisor derives the survivor placement from it.
    """

    def __init__(self, message: str, *, device: int = 0, placement=None,
                 **kwargs) -> None:
        super().__init__(message, **kwargs)
        self.device = device
        self.placement = placement


# ----------------------------------------------------------------------
# Service layer (repro.service)
# ----------------------------------------------------------------------

class QuotaExceededError(ReproError):
    """Admission control refused a job at submit time.

    ``tenant`` names the quota that was exhausted and ``reason`` says
    which limit (pending depth, in-flight count, or model-cost budget).
    """

    def __init__(self, message: str, *, tenant: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class JobCancelledError(ReproError):
    """Raised by ``JobHandle.result()`` when the job was cancelled."""

    def __init__(self, message: str, *, job_id: str = "") -> None:
        super().__init__(message)
        self.job_id = job_id


class DeadlineExceededError(ReproError):
    """A pending job's server-side deadline expired before dispatch.

    Distinct from the *client-side* ``JobHandle.result(timeout=...)``,
    which only stops waiting: this error means the scheduler itself
    cancelled the job (quota refunded, ``service-deadline`` event emitted)
    because ``JobRequest.deadline_ms`` elapsed while it sat in the queue.
    """

    def __init__(
        self, message: str, *, job_id: str = "", deadline_ms: float = 0.0
    ) -> None:
        super().__init__(message)
        self.job_id = job_id
        self.deadline_ms = deadline_ms


class DrainTimeoutError(ReproError):
    """``Scheduler.close()`` could not join every worker before its timeout.

    ``leaked`` names the threads still alive — the process keeps running
    with those workers wedged, so callers must treat the scheduler as
    unclean rather than assume a silent, successful drain.
    """

    def __init__(self, message: str, *, leaked: tuple = ()) -> None:
        super().__init__(message)
        self.leaked = tuple(leaked)
