"""Core directed-graph structure used by every representation.

A :class:`DiGraph` is a plain edge list held in NumPy arrays.  It is the
neutral interchange format: CSR, G-Shards, and Concatenated Windows are all
built from it, and the generators all produce it.

Vertex indices are ``int32`` (4-byte indices, matching the paper's memory
accounting) and the optional per-edge weight array is ``float64``.  Edge
*values* as seen by an algorithm (e.g. SSSP's integer weight, HS's float
coefficient) are derived from ``weights`` by each
:class:`repro.vertexcentric.program.VertexProgram`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GraphFormatError

INDEX_DTYPE = np.int32
"""Dtype for vertex indices; 4 bytes, as assumed by the paper's size formulas."""


class DiGraph:
    """A directed graph as parallel ``src``/``dst`` edge arrays.

    Parameters
    ----------
    src, dst:
        Integer arrays of equal length; edge ``i`` goes ``src[i] -> dst[i]``.
    num_vertices:
        Number of vertices ``n``; every index must lie in ``[0, n)``.
    weights:
        Optional ``float64`` array of per-edge weights, aligned with the edge
        arrays.  ``None`` means the graph is unweighted.
    validate:
        When true (default) the constructor checks index bounds and array
        shapes; disable only for internally-constructed graphs.
    """

    __slots__ = ("src", "dst", "num_vertices", "weights")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        weights: np.ndarray | None = None,
        *,
        validate: bool = True,
    ) -> None:
        src = np.ascontiguousarray(src, dtype=INDEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=INDEX_DTYPE)
        if weights is not None:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
        num_vertices = int(num_vertices)
        if validate:
            if src.ndim != 1 or dst.ndim != 1:
                raise GraphFormatError("src and dst must be one-dimensional arrays")
            if src.shape != dst.shape:
                raise GraphFormatError(
                    f"src and dst must have equal length, got {src.shape} and {dst.shape}"
                )
            if num_vertices < 0:
                raise GraphFormatError("num_vertices must be non-negative")
            if src.size:
                lo = min(int(src.min()), int(dst.min()))
                hi = max(int(src.max()), int(dst.max()))
                if lo < 0 or hi >= num_vertices:
                    raise GraphFormatError(
                        f"edge endpoints must lie in [0, {num_vertices}), "
                        f"found range [{lo}, {hi}]"
                    )
            if weights is not None and weights.shape != src.shape:
                raise GraphFormatError("weights must align with the edge arrays")
        self.src = src
        self.dst = dst
        self.num_vertices = num_vertices
        self.weights = weights

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
        num_vertices: int | None = None,
        weights: Sequence[float] | None = None,
    ) -> "DiGraph":
        """Build a graph from an iterable of ``(src, dst)`` pairs.

        When ``num_vertices`` is omitted it is inferred as ``max index + 1``.
        """
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("edges must be (src, dst) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        w = None if weights is None else np.asarray(weights, dtype=np.float64)
        return cls(src, dst, num_vertices, w)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "DiGraph":
        """An edgeless graph on ``num_vertices`` vertices."""
        return cls(
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            num_vertices,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex, as ``int64``."""
        return np.bincount(self.dst, minlength=self.num_vertices).astype(np.int64)

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, as ``int64``."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    def has_self_loops(self) -> bool:
        return bool(np.any(self.src == self.dst))

    def density(self) -> float:
        """``|E| / |V|^2``; zero for the empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / float(self.num_vertices) ** 2

    def average_degree(self) -> float:
        """``|E| / |V|`` — the paper's sparsity measure."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / float(self.num_vertices)

    def edges(self) -> np.ndarray:
        """``(m, 2)`` array of edges (a copy)."""
        return np.stack([self.src, self.dst], axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reversed(self) -> "DiGraph":
        """Graph with every edge direction flipped (weights preserved)."""
        return DiGraph(
            self.dst, self.src, self.num_vertices, self.weights, validate=False
        )

    def without_self_loops(self) -> "DiGraph":
        keep = self.src != self.dst
        w = None if self.weights is None else self.weights[keep]
        return DiGraph(
            self.src[keep], self.dst[keep], self.num_vertices, w, validate=False
        )

    def deduplicated(self) -> "DiGraph":
        """Remove parallel edges, keeping the first occurrence of each pair."""
        key = self.src.astype(np.int64) * self.num_vertices + self.dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        w = None if self.weights is None else self.weights[first]
        return DiGraph(
            self.src[first], self.dst[first], self.num_vertices, w, validate=False
        )

    def symmetrized(self) -> "DiGraph":
        """Union of the graph and its reverse (weights duplicated), deduplicated.

        Useful for algorithms whose natural domain is undirected graphs
        (Connected Components, Heat Simulation, Circuit Simulation).
        """
        src = np.concatenate([self.src, self.dst])
        dst = np.concatenate([self.dst, self.src])
        w = None
        if self.weights is not None:
            w = np.concatenate([self.weights, self.weights])
        return DiGraph(src, dst, self.num_vertices, w, validate=False).deduplicated()

    def with_weights(self, weights: np.ndarray) -> "DiGraph":
        """Copy of the graph carrying the given per-edge weights."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self.src.shape:
            raise ValueError("weights must align with the edge arrays")
        return DiGraph(self.src, self.dst, self.num_vertices, weights, validate=False)

    def permuted_edges(self, perm: np.ndarray) -> "DiGraph":
        """Copy with edges reordered by ``perm`` (a permutation of edge ids)."""
        w = None if self.weights is None else self.weights[perm]
        return DiGraph(
            self.src[perm], self.dst[perm], self.num_vertices, w, validate=False
        )

    # ------------------------------------------------------------------
    # Interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (weights as ``weight`` attr)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_vertices))
        if self.weights is None:
            g.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        else:
            g.add_weighted_edges_from(
                zip(self.src.tolist(), self.dst.tolist(), self.weights.tolist())
            )
        return g

    def to_scipy_csr(self):
        """Adjacency as ``scipy.sparse.csr_matrix`` with weights (or ones)."""
        import scipy.sparse as sp

        data = (
            np.ones(self.num_edges, dtype=np.float64)
            if self.weights is None
            else self.weights
        )
        return sp.csr_matrix(
            (data, (self.src, self.dst)),
            shape=(self.num_vertices, self.num_vertices),
        )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.weights is not None else "unweighted"
        return (
            f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges}, {kind})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        if not (
            np.array_equal(self.src, other.src)
            and np.array_equal(self.dst, other.dst)
        ):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None and not np.allclose(
            self.weights, other.weights
        ):
            return False
        return True

    def __hash__(self) -> int:
        # Identity-based hashing keeps graphs usable as cache keys without
        # paying to hash multi-million-entry arrays.
        return id(self)
