"""Registry-backed engine factory: ``make_engine(key, **opts)``.

One place maps engine keys to constructors, replacing the hand-rolled
factories that ``cli.py`` and ``harness/runner.py`` each grew.  Keys:

======================  ====================================================
``cusha-gs``            CuSha over G-Shards
``cusha-cw``            CuSha over Concatenated Windows
``cusha-streamed``      out-of-core CuSha (alias: ``streamed``)
``vwc-<N>``             Virtual Warp-Centric CSR, virtual warp size N
``mtcpu`` / ``mtcpu-T`` multithreaded CPU CSR (default 12 threads)
``scalar``              the loop-based oracle
``csrloop``             single-threaded CSR loop (``mtcpu`` at 1 thread)
======================  ====================================================

Options contract
----------------
``make_engine`` accepts one *shared* option vocabulary, the union of the
per-family tables in :data:`ENGINE_OPTIONS`.  Each engine family picks out
what it understands and ignores the vocabulary names only another family
takes, so one call site (e.g. the grid runner) can pass ``gpu_spec=...``
to every key without branching on family; a name outside the vocabulary
raises :class:`~repro.errors.ConfigError` naming it.  Where several
factory names feed one constructor parameter (``gpu_spec`` / ``spec``,
``shard_size`` / ``vertices_per_shard``), the first non-None one wins.
Builders added through :func:`register_engine` receive their options
untouched.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError, EngineKeyError
from repro.frameworks.base import Engine
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.mtcpu import MTCPU_THREAD_COUNTS, MTCPUEngine
from repro.frameworks.scalar import ScalarReferenceEngine
from repro.frameworks.streamed import StreamedCuShaEngine
from repro.frameworks.vwc import VIRTUAL_WARP_SIZES, VWCEngine

__all__ = ["make_engine", "engine_keys", "register_engine", "EngineKeyError",
           "ENGINE_OPTIONS", "OPTION_NAMES"]


def _same(*names: str) -> dict[str, tuple[str, ...]]:
    return {name: (name,) for name in names}


_SHARD = ("shard_size", "vertices_per_shard")

#: Per-family engine options: constructor parameter -> the factory names
#: that feed it, in precedence order.
ENGINE_OPTIONS: dict[str, dict[str, tuple[str, ...]]] = {
    "cusha": {"vertices_per_shard": _SHARD, "spec": ("gpu_spec", "spec"),
              **_same("pcie", "sync_mode", "threads_per_block",
                      "resident_blocks", "always_writeback", "cache")},
    "streamed": {"vertices_per_shard": _SHARD, "spec": ("gpu_spec", "spec"),
                 **_same("pcie", "device_memory_bytes", "cache")},
    "vwc": {"spec": ("gpu_spec", "spec"),
            **_same("pcie", "address_dilation", "chunk_vertices",
                    "defer_outliers", "outlier_factor", "cache")},
    "mtcpu": {"spec": ("cpu_spec", "spec"), **_same("threads", "cache")},
    "csrloop": {"spec": ("cpu_spec", "spec"), **_same("cache")},
    "scalar": {"vertices_per_shard": _SHARD},
}

#: The shared vocabulary ``make_engine`` accepts for its built-in keys.
OPTION_NAMES: frozenset[str] = frozenset(
    name for table in ENGINE_OPTIONS.values()
    for names in table.values() for name in names
)


def _options(family: str, opts: dict) -> dict:
    """``family``'s constructor keywords picked out of ``opts``."""
    unknown = sorted(set(opts) - OPTION_NAMES)
    if unknown:
        raise ConfigError(
            f"unknown engine option {unknown[0]!r}; expected one of "
            f"{sorted(OPTION_NAMES)}",
            knob=unknown[0],
        )
    kwargs = {}
    for param, names in ENGINE_OPTIONS[family].items():
        for name in names:
            if opts.get(name) is not None:
                kwargs[param] = opts[name]
                break
    return kwargs


def _build_cusha(key: str, opts: dict) -> Engine:
    return CuShaEngine(key.split("-", 1)[1], **_options("cusha", opts))


def _build_streamed(key: str, opts: dict) -> Engine:
    return StreamedCuShaEngine(**_options("streamed", opts))


def _build_vwc(key: str, opts: dict) -> Engine:
    try:
        w = int(key.split("-", 1)[1])
    except (IndexError, ValueError):
        raise EngineKeyError(
            f"{key!r}: expected vwc-<N> with N in {VIRTUAL_WARP_SIZES}"
        ) from None
    return VWCEngine(w, **_options("vwc", opts))


def _build_mtcpu(key: str, opts: dict) -> Engine:
    kwargs = _options("mtcpu", opts)
    parts = key.split("-", 1)
    if len(parts) == 2:
        try:
            kwargs["threads"] = int(parts[1])
        except ValueError:
            raise EngineKeyError(
                f"{key!r}: expected mtcpu or mtcpu-<threads>"
            ) from None
    return MTCPUEngine(**kwargs)


def _build_csrloop(key: str, opts: dict) -> Engine:
    engine = MTCPUEngine(1, **_options("csrloop", opts))
    engine.name = "csrloop"
    return engine


def _build_scalar(key: str, opts: dict) -> Engine:
    return ScalarReferenceEngine(**_options("scalar", opts))


_EXACT: dict[str, Callable[[str, dict], Engine]] = {
    "cusha-gs": _build_cusha,
    "cusha-cw": _build_cusha,
    "cusha-streamed": _build_streamed,
    "streamed": _build_streamed,
    "mtcpu": _build_mtcpu,
    "scalar": _build_scalar,
    "csrloop": _build_csrloop,
}
_PREFIX: dict[str, Callable[[str, dict], Engine]] = {
    "vwc-": _build_vwc,
    "mtcpu-": _build_mtcpu,
}


def register_engine(
    key: str, builder: Callable[[str, dict], Engine], *, prefix: bool = False
) -> None:
    """Register a builder for an exact ``key`` (or a ``key`` prefix).

    The builder is called as ``builder(full_key, opts_dict)`` and must
    return an :class:`~repro.frameworks.base.Engine`.
    """
    (_PREFIX if prefix else _EXACT)[key] = builder


def engine_keys() -> list[str]:
    """Canonical concrete keys (parameterized families enumerated)."""
    keys = ["cusha-gs", "cusha-cw", "cusha-streamed"]
    keys += [f"vwc-{w}" for w in VIRTUAL_WARP_SIZES]
    keys += ["mtcpu"] + [f"mtcpu-{t}" for t in MTCPU_THREAD_COUNTS]
    keys += ["scalar", "csrloop"]
    return keys


def make_engine(key: str, **opts) -> Engine:
    """Build the engine named by ``key`` (see module docstring for the
    key table and the shared options contract)."""
    builder = _EXACT.get(key)
    if builder is None:
        for prefix, b in _PREFIX.items():
            if key.startswith(prefix):
                builder = b
                break
    if builder is None:
        raise EngineKeyError(
            f"unknown engine key {key!r}; expected one of {engine_keys()}"
        )
    return builder(key, opts)
