"""CuSha reproduction: vertex-centric graph processing on a simulated GPU.

This package reproduces *CuSha: Vertex-Centric Graph Processing on GPUs*
(Khorasani, Vora, Gupta, Bhuyan — HPDC 2014) as a pure-Python system:

- the **G-Shards** and **Concatenated Windows** graph representations plus
  the CSR baseline (:mod:`repro.graph`);
- a transaction-level **SIMT hardware model** standing in for the paper's
  GTX 780 (:mod:`repro.gpu`);
- the **vertex-centric programming model** and the paper's eight benchmark
  algorithms (:mod:`repro.vertexcentric`, :mod:`repro.algorithms`);
- four **processing engines** — CuSha-GS, CuSha-CW, VWC-CSR, MTCPU-CSR —
  that compute real vertex values while accounting simulated hardware
  activity (:mod:`repro.frameworks`);
- an **experiment harness** regenerating every table and figure of the
  paper's evaluation (:mod:`repro.harness`);
- a **resilience subsystem** — deterministic fault injection,
  checkpoint/restore, retry with backoff, and a graceful-degradation
  ladder (:mod:`repro.resilience`, see ``docs/resilience.md``);
- a **multi-tenant service layer** — an async job scheduler with
  per-tenant quotas that coalesces same-graph traversal queries into
  bit-exact multi-source batches (:mod:`repro.service`, see
  ``docs/service.md``);
- a **kernel property certifier** proving the algebraic contracts the
  frontier, async, and batching fast paths silently assume
  (:mod:`repro.analysis.certify`, gated by ``RunConfig(certify=...)`` —
  see ``docs/analysis.md``);
- an **abstract interpreter** over the certify IR discharging overflow,
  non-finite, termination, and invariant-range certificates that unlock
  proven-safe dtype narrowing (:mod:`repro.analysis.ranges`, gated by
  ``RunConfig(narrow=...)`` — see ``docs/analysis.md``);
- a **consolidated exception hierarchy** rooted at
  :class:`repro.errors.ReproError` (:mod:`repro.errors`).

Quickstart
----------
>>> import repro
>>> from repro.graph import generators
>>> g = generators.random_weights(generators.rmat(1000, 8000, seed=1), seed=2)
>>> result = repro.run(g, "sssp", engine="cusha-cw")
>>> result.converged
True
"""

import dataclasses

from repro.algorithms import PROGRAM_NAMES, default_source, make_program
from repro.cache import RepresentationCache, default_cache, graph_fingerprint
from repro.errors import (
    CertificationError,
    ConfigError,
    ConvergenceError,
    EngineKeyError,
    GraphFormatError,
    InjectedFault,
    JobCancelledError,
    QuotaExceededError,
    ReproError,
    ValidationError,
)
from repro.frameworks import (
    CuShaEngine,
    MTCPUEngine,
    RunConfig,
    RunResult,
    ScalarReferenceEngine,
    VWCEngine,
    engine_keys,
    make_engine,
)
from repro.frameworks.base import run_config as _run_config
from repro.graph import CSR, ConcatenatedWindows, DiGraph, GShards, select_shard_size
from repro.gpu import GTX780, I7_3930K, KernelStats
from repro.service import JobHandle, JobRequest, JobStatus, Service, TenantQuota
from repro.vertexcentric import VertexProgram

__version__ = "1.10.0"

#: Former RunConfig fields, routed to RunConfig so they fail as TypeErrors.
_RETIRED = ["collect_traces", "resume_frontier", "resume_values",
            "start_iteration"]


def run(
    graph: DiGraph,
    program_name: str,
    *,
    engine: str = "cusha-cw",
    source: int | None = None,
    config: RunConfig | None = None,
    **options,
) -> RunResult:
    """One-call façade: run ``program_name`` on ``graph`` with ``engine``.

    ``engine`` is a :func:`repro.frameworks.make_engine` key (``cusha-cw``,
    ``cusha-gs``, ``vwc-8``, ``mtcpu``, ``scalar``, ...).  ``source`` seeds
    the traversal programs (BFS/SSSP/SSWP).

    ``config=RunConfig(...)`` passes a prebuilt run configuration straight
    through to :meth:`Engine.run` — the same parameter name
    :meth:`Engine.run`, :meth:`repro.resilience.ResilientRunner.run`, and
    :meth:`repro.service.Service.submit` use.  Without it, any keyword
    named after a :class:`RunConfig` field (``max_iterations``,
    ``frontier``, ``devices``, ``tracer``, ...) is folded into one; mixing
    the two is a ``TypeError``.  Every other keyword is an engine option
    forwarded to :func:`repro.make_engine` (e.g. ``shard_size=64``, or
    ``cache=False`` to bypass the representation memo), where a name
    outside the option vocabulary raises
    :class:`repro.errors.ConfigError`.

    >>> result = repro.run(g, "bfs", engine="vwc-8", source=0)
    >>> result = repro.run(g, "bfs", config=RunConfig(max_iterations=50,
    ...                                               allow_partial=True))
    """
    names = [f.name for f in dataclasses.fields(RunConfig)]
    settings = {name: options.pop(name) for name in names + _RETIRED
                if name in options}
    config = _run_config(config, settings, caller="repro.run()")
    prog_kwargs = {} if source is None else {"source": source}
    program = make_program(program_name, graph, **prog_kwargs)
    return make_engine(engine, **options).run(graph, program, config=config)


__all__ = [
    "run",
    "make_engine",
    "engine_keys",
    "RunConfig",
    "DiGraph",
    "CSR",
    "GShards",
    "ConcatenatedWindows",
    "select_shard_size",
    "VertexProgram",
    "PROGRAM_NAMES",
    "make_program",
    "default_source",
    "CuShaEngine",
    "VWCEngine",
    "MTCPUEngine",
    "ScalarReferenceEngine",
    "RunResult",
    "RepresentationCache",
    "default_cache",
    "graph_fingerprint",
    "KernelStats",
    "GTX780",
    "I7_3930K",
    "Service",
    "JobRequest",
    "JobHandle",
    "JobStatus",
    "TenantQuota",
    "ReproError",
    "CertificationError",
    "ConfigError",
    "ConvergenceError",
    "EngineKeyError",
    "GraphFormatError",
    "ValidationError",
    "InjectedFault",
    "QuotaExceededError",
    "JobCancelledError",
    "__version__",
]
