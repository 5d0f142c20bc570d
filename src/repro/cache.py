"""Cross-run representation cache.

The bench suites (fig10-13, tables 4-7, the ablations) run the same graphs
through many engines and programs, yet every run used to rebuild ``CSR`` /
``GShards`` / ``ConcatenatedWindows`` plus the static per-shard
:class:`~repro.gpu.stats.KernelStats` bundles from scratch.  This module
memoizes those artifacts across runs.

Keying and invalidation
-----------------------
Entries are keyed on ``(kind, graph fingerprint, *params)``:

- the **fingerprint** (:func:`graph_fingerprint`) is a blake2b hash over the
  graph's vertex count and its ``src`` / ``dst`` arrays.  It is *structural
  only*: representations depend on topology, never on edge weights (engines
  gather per-edge values through ``edge_positions`` from the graph actually
  passed to ``run``), so two graphs differing only in weights share entries.
  The fingerprint is recomputed on every lookup, so mutating a graph's
  arrays in place naturally misses instead of returning stale structures.
- the **params** are whatever the artifact depends on — shard size ``N``,
  engine mode, warp size, the program's value layout (vertex/static/edge
  byte widths), virtual warp size, and so on.  Call sites are responsible
  for including every input of the builder in the key.

The cache is a bounded LRU (default 64 entries); eviction drops the least
recently used artifact.  ``hits`` / ``misses`` counters are cumulative and
engines publish per-run deltas to the ``MetricsRegistry`` as ``cache.hits``
and ``cache.misses`` when a tracer is attached.

Selection
---------
Engines accept a ``cache`` option: ``None`` (default) uses the process-wide
:func:`default_cache`, ``False`` disables caching, and an explicit
:class:`RepresentationCache` scopes the memo to the caller.  The
``exec_path="reference"`` path bypasses the cache entirely so a caching bug
can never contaminate the equivalence baseline.

Share-vs-copy contract
----------------------
``get`` hands out the *same* object to every borrower — hits never copy.
To keep one borrower's bug from corrupting every later run, the ndarrays
reachable from a cached artifact are frozen (``writeable=False``) when the
entry is inserted: an in-place write through a cached representation raises
``ValueError`` instead of silently poisoning the memo.  The borrower's own
graph is exempt (a ``graph`` attribute is never traversed) — only the
derived representation is read-only.  See ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "RepresentationCache",
    "graph_fingerprint",
    "weights_digest",
    "default_cache",
    "resolve_cache",
    "cached",
    "counted",
]


def graph_fingerprint(graph) -> str:
    """Structural content hash of a :class:`~repro.graph.digraph.DiGraph`.

    Hashes the vertex count plus the raw bytes of the ``src`` and ``dst``
    arrays.  Weights are deliberately excluded (see module docstring).
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(graph.num_vertices).tobytes())
    h.update(np.ascontiguousarray(graph.src).tobytes())
    h.update(np.ascontiguousarray(graph.dst).tobytes())
    return h.hexdigest()


def weights_digest(graph) -> str:
    """Content hash of the weights array (``"unweighted"`` when absent).

    Complements the structural :func:`graph_fingerprint`, which
    deliberately ignores weights.
    """
    if graph.weights is None:
        return "unweighted"
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(graph.weights).tobytes())
    return h.hexdigest()


def _freeze_arrays(value: Any, _seen: set[int] | None = None) -> None:
    """Mark every ndarray reachable from ``value`` read-only, in place.

    Recurses through containers and ``repro``-defined objects (``__dict__``
    and ``__slots__``), but never through a ``graph`` attribute: cached
    artifacts are derived *from* a user graph and must not freeze it.
    """
    if _seen is None:
        _seen = set()
    if id(value) in _seen:
        return
    _seen.add(id(value))
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return
    if isinstance(value, (tuple, list)):
        for item in value:
            _freeze_arrays(item, _seen)
        return
    if isinstance(value, dict):
        for item in value.values():
            _freeze_arrays(item, _seen)
        return
    if not type(value).__module__.startswith("repro."):
        return
    attrs: dict[str, Any] = dict(getattr(value, "__dict__", None) or {})
    for klass in type(value).__mro__:
        for name in getattr(klass, "__slots__", ()):
            if hasattr(value, name):
                attrs.setdefault(name, getattr(value, name))
    for name, item in attrs.items():
        if name != "graph":
            _freeze_arrays(item, _seen)


class RepresentationCache:
    """Bounded LRU memo for graph representations and stats bundles."""

    def __init__(self, max_entries: int = 64) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``key``, building it on a miss."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
        value = builder()  # build outside the lock; builders may be slow
        _freeze_arrays(value)
        with self._lock:
            self.misses += 1
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached artifact for ``key`` without building on a miss.

        A present entry counts as a hit and is promoted to most-recently
        used (so checkpoint reads participate in LRU ordering exactly like
        representation lookups); an absent one returns ``default`` without
        touching the miss counter — the caller decides what a miss means.
        """
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
            return default

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or overwrite) ``key`` directly, freezing like :meth:`get`.

        The checkpoint store uses this to publish snapshots it has already
        built; overwriting is allowed because a re-saved checkpoint for the
        same ``(run, iteration)`` is by construction the same state.
        """
        _freeze_arrays(value)
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
        return value

    def counters(self) -> tuple[int, int]:
        """Current ``(hits, misses)`` snapshot (for per-run deltas)."""
        with self._lock:
            return self.hits, self.misses

    def clear(self) -> None:
        with self._lock:
            self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RepresentationCache(entries={len(self._store)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


_DEFAULT = RepresentationCache()


def default_cache() -> RepresentationCache:
    """The process-wide cache engines use when ``cache=None``."""
    return _DEFAULT


def resolve_cache(cache) -> RepresentationCache | None:
    """Normalize an engine's ``cache`` option.

    ``None`` selects the process-wide default, ``False`` disables caching
    (returns ``None``), and a :class:`RepresentationCache` is passed
    through.
    """
    if cache is None:
        return _DEFAULT
    if cache is False:
        return None
    if isinstance(cache, RepresentationCache):
        return cache
    raise TypeError(
        "cache must be None (default cache), False (disabled), or a "
        f"RepresentationCache; got {type(cache).__name__}"
    )


def cached(cache: RepresentationCache | None, key: Hashable,
           build: Callable[[], Any]) -> Any:
    """``cache.get(key, build)``, or a plain ``build()`` when caching is
    disabled (``cache is None``)."""
    return build() if cache is None else cache.get(key, build)


def counted(cache: RepresentationCache | None, lookups: Callable[[], Any]):
    """``(lookups(), hits, misses)``: the result plus the hit and miss
    deltas the lookups caused on ``cache`` (``0, 0`` without a cache)."""
    if cache is None:
        return lookups(), 0, 0
    hits0, misses0 = cache.counters()
    out = lookups()
    hits1, misses1 = cache.counters()
    return out, hits1 - hits0, misses1 - misses0
