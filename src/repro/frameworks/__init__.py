"""Processing engines.

Four engines execute :class:`~repro.vertexcentric.program.VertexProgram`
instances:

- :class:`repro.frameworks.cusha.CuShaEngine` — the paper's contribution;
  ``mode="gs"`` uses G-Shards, ``mode="cw"`` Concatenated Windows.  The two
  modes compute identical values (CW only reorders the write-back work) and
  differ in the hardware activity they induce.
- :class:`repro.frameworks.vwc.VWCEngine` — the Virtual Warp-Centric
  CSR baseline (paper Appendix A), virtual warp sizes 2..32.
- :class:`repro.frameworks.mtcpu.MTCPUEngine` — the multithreaded CPU CSR
  baseline, 1..128 threads.
- :class:`repro.frameworks.scalar.ScalarReferenceEngine` — a slow,
  loop-based executor of the paper's scalar device functions; the oracle the
  vectorized engines are tested against.
- :class:`repro.frameworks.streamed.StreamedCuShaEngine` — the paper's
  future-work extension: out-of-core processing with overlapped
  transfer/compute streams.

All engines return a :class:`repro.frameworks.base.RunResult` with the final
vertex values, per-iteration traces, aggregated hardware statistics, and
simulated times.

Engines are usually instantiated through the registry factory::

    from repro.frameworks import make_engine

    engine = make_engine("cusha-cw", shard_size=64)
    result = engine.run(graph, program, config=RunConfig(max_iterations=100))
"""

from repro.errors import ConvergenceError
from repro.frameworks.base import (Checkpoint, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.vwc import VWCEngine
from repro.frameworks.mtcpu import MTCPUEngine
from repro.frameworks.scalar import ScalarReferenceEngine
from repro.frameworks.streamed import StreamedCuShaEngine
from repro.frameworks.registry import (EngineKeyError, engine_keys,
                                       make_engine, register_engine)

__all__ = [
    "Checkpoint",
    "Engine",
    "IterationTrace",
    "RunConfig",
    "RunResult",
    "CuShaEngine",
    "VWCEngine",
    "MTCPUEngine",
    "ScalarReferenceEngine",
    "StreamedCuShaEngine",
    "make_engine",
    "engine_keys",
    "register_engine",
    "EngineKeyError",
    "ConvergenceError",
]
