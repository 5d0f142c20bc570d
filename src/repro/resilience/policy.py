"""Recovery policy: bounded retries with deterministic backoff, and the
graceful-degradation ladder.

Backoff runs on the **model clock** (the same simulated-milliseconds
domain as kernel and transfer times), never on wall time: tests assert
exact backoff totals, and campaigns replay bit-identically.

The degradation ladder walks configurations from fastest to most
conservative.  Within the starting engine it first drops the wave-batched
fast path for the per-shard reference loop (the two are equivalence-gated,
so this rung is free of semantic risk); past that it falls back engine by
engine — CuSha-CW, then CuSha-GS, then the VWC CSR baseline, and finally
the MTCPU host engine, which models no PCIe transfers or shared memory and
therefore survives every GPU-class fault.  All bundled deterministic
programs (bfs/sssp/cc/sswp) agree bit-for-bit across these engines, so a
degraded run still ends at the golden values.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

from repro.errors import ConfigError

__all__ = ["RetryPolicy", "DEFAULT_ENGINE_LADDER", "degradation_steps"]

#: Engine fallback order (tentpole ladder + terminal CPU rung).
DEFAULT_ENGINE_LADDER: tuple[str, ...] = (
    "cusha-cw",
    "cusha-gs",
    "vwc-8",
    "mtcpu-4",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``backoff_ms(attempt)`` is exact: ``base_ms * multiplier ** attempt``
    for attempt 0, 1, 2, ... — no jitter, no wall clock.
    """

    max_retries: int = 3
    base_ms: float = 10.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, Integral) or self.max_retries < 0:
            raise ConfigError("max_retries must be an integer >= 0",
                              knob="max_retries")
        if self.base_ms < 0:
            raise ConfigError("base_ms must be >= 0", knob="base_ms")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1.0", knob="multiplier")

    def backoff_ms(self, attempt: int) -> float:
        return self.base_ms * self.multiplier ** attempt

    def total_backoff_ms(self, attempts: int) -> float:
        return sum(self.backoff_ms(a) for a in range(attempts))


def degradation_steps(
    engine_key: str, ladder: tuple[str, ...] | None = None
) -> list[tuple[str, str]]:
    """The ordered ``(engine_key, exec_path)`` rungs for a starting engine.

    The first rung is the requested configuration itself; the second drops
    to the reference path on the same engine; the rest walk
    ``DEFAULT_ENGINE_LADDER`` (or ``ladder``) past the starting engine.  A
    CPU-only starting engine (mtcpu/csrloop/scalar) gets no GPU fallbacks —
    there is nothing more conservative to degrade to.
    """
    rungs = DEFAULT_ENGINE_LADDER if ladder is None else tuple(ladder)
    steps = [(engine_key, "fast"), (engine_key, "reference")]
    if engine_key in rungs:
        rest = rungs[rungs.index(engine_key) + 1:]
    elif engine_key.startswith(("cusha", "vwc")):
        rest = tuple(e for e in rungs if e != engine_key)
    else:
        rest = ()
    steps.extend((e, "fast") for e in rest)
    return steps
