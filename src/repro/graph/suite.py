"""Synthetic analogs of the paper's Table 1 evaluation graphs.

The six SNAP datasets are not redistributable inside this offline
environment, and multi-ten-million-edge graphs are out of reach for a pure
NumPy simulation anyway.  This module synthesizes *scaled* analogs:

- social / web / co-purchase graphs (LiveJournal, Pokec, HiggsTwitter,
  WebGoogle, Amazon0312) are R-MAT graphs whose skew parameters mimic each
  dataset's degree-distribution shape;
- RoadNetCA is a 2-D lattice with shortcuts, subsampled to the target edge
  count, reproducing its near-uniform low-degree profile.

``scale`` divides both |V| and |E| (default 100, i.e. LiveJournal becomes
~690 k edges).  Every load is deterministic for a given ``(name, scale)``
and cached, since the benchmark harness reuses graphs heavily.

The substitution is documented in DESIGN.md section 2: the paper's effects
are driven by sparsity (|E|/|V|) and degree skew, both of which scale
preserves.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.graph import generators
from repro.graph.digraph import DiGraph

__all__ = ["GraphEntry", "SUITE", "graph_names", "load", "default_scale"]


@dataclass(frozen=True)
class GraphEntry:
    """Recipe for one synthetic Table 1 analog."""

    name: str
    vertices: int
    edges: int
    kind: str  # "rmat" or "road"
    rmat_a: float = 0.45
    rmat_b: float = 0.22
    rmat_c: float = 0.22
    rmat_d: float = 0.11
    seed: int = 1


SUITE: tuple[GraphEntry, ...] = (
    GraphEntry("livejournal", 4_847_571, 68_993_773, "rmat", seed=11),
    GraphEntry("pokec", 1_632_803, 30_622_564, "rmat", seed=12),
    GraphEntry("higgstwitter", 456_631, 14_855_875, "rmat",
               rmat_a=0.5, rmat_b=0.2, rmat_c=0.2, rmat_d=0.1, seed=13),
    GraphEntry("roadnetca", 1_971_281, 5_533_214, "road", seed=14),
    GraphEntry("webgoogle", 916_428, 5_105_039, "rmat",
               rmat_a=0.48, rmat_b=0.21, rmat_c=0.21, rmat_d=0.10, seed=15),
    GraphEntry("amazon0312", 400_727, 3_200_440, "rmat",
               rmat_a=0.42, rmat_b=0.23, rmat_c=0.23, rmat_d=0.12, seed=16),
)

_BY_NAME = {entry.name: entry for entry in SUITE}


def graph_names() -> tuple[str, ...]:
    """Names of the six Table 1 analogs, in the paper's order."""
    return tuple(entry.name for entry in SUITE)


def default_scale() -> int:
    """Scale divisor; override with the ``REPRO_SCALE`` environment variable."""
    return int(os.environ.get("REPRO_SCALE", "100"))


@functools.lru_cache(maxsize=32)
def load(name: str, scale: int | None = None, *, weighted: bool = True) -> DiGraph:
    """Build (or fetch from cache) the scaled analog of ``name``.

    ``scale`` divides the Table 1 vertex and edge counts (default
    :func:`default_scale`).  ``weighted`` attaches deterministic integer
    weights in ``[1, 100)`` used by the weighted benchmarks (SSSP, SSWP, NN,
    HS, CS).
    """
    if name not in _BY_NAME:
        raise KeyError(
            f"unknown graph {name!r}; available: {', '.join(graph_names())}"
        )
    entry = _BY_NAME[name]
    if scale is None:
        scale = default_scale()
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}", knob="scale")
    n = max(64, entry.vertices // scale)
    m = max(64, entry.edges // scale)
    if entry.kind == "rmat":
        g = generators.rmat(
            n,
            m,
            a=entry.rmat_a,
            b=entry.rmat_b,
            c=entry.rmat_c,
            d=entry.rmat_d,
            seed=entry.seed,
        )
    elif entry.kind == "road":
        side = max(8, int(math.sqrt(n)))
        g = generators.road_network(
            side, max(8, n // side), shortcut_fraction=0.01, seed=entry.seed
        )
        # The lattice produces ~4 edges per vertex; RoadNetCA has ~2.8.
        # Subsample deterministically to the target edge count.
        if g.num_edges > m:
            rng = np.random.default_rng(entry.seed + 1000)
            keep = rng.choice(g.num_edges, size=m, replace=False)
            keep.sort()
            g = g.permuted_edges(keep)
        # SNAP vertex ids carry no spatial ordering, so shuffle the lattice
        # labels; shard windows then get the realistic skewed-size
        # distribution instead of the lattice's perfect block-diagonal one.
        rng = np.random.default_rng(entry.seed + 3000)
        perm = rng.permutation(g.num_vertices).astype(np.int64)
        g = DiGraph(perm[g.src], perm[g.dst], g.num_vertices,
                    g.weights, validate=False)
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown generator kind {entry.kind!r}")
    if weighted:
        g = generators.random_weights(
            g, low=1, high=100, integer=True, seed=entry.seed + 2000
        )
    return g
