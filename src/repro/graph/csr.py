"""Compressed Sparse Row representation (paper section 2).

The paper's CSR is built over *incoming* edges so that a vertex-centric
"pull" step can enumerate each vertex's in-neighbors:

- ``in_edge_idxs`` — ``n + 1`` offsets; the incoming edges of vertex ``v``
  occupy positions ``in_edge_idxs[v] : in_edge_idxs[v + 1]``.
- ``src_indxs`` — for each incoming edge, the index of its source vertex.
- ``edge_positions`` — (ours) the original edge id in the source
  :class:`~repro.graph.digraph.DiGraph`, used to gather per-edge values; the
  paper's ``EdgeValues`` array is exactly a value array gathered through this
  permutation.
- ``VertexValues`` is owned by the processing framework, not the
  representation.

The memory-footprint accounting (:meth:`CSR.memory_bytes`) follows the
paper's Figure 9 comparison.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, INDEX_DTYPE
from repro.graph.order import edge_order

__all__ = ["CSR"]


class CSR:
    """Incoming-edge CSR of a :class:`DiGraph`.

    Edges are grouped by destination; within a destination group they are
    sorted by source index for determinism (the paper leaves intra-group
    order unspecified).
    """

    __slots__ = ("num_vertices", "num_edges", "in_edge_idxs", "src_indxs", "edge_positions")

    def __init__(
        self,
        num_vertices: int,
        in_edge_idxs: np.ndarray,
        src_indxs: np.ndarray,
        edge_positions: np.ndarray,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.in_edge_idxs = np.ascontiguousarray(in_edge_idxs, dtype=np.int64)
        self.src_indxs = np.ascontiguousarray(src_indxs, dtype=INDEX_DTYPE)
        self.edge_positions = np.ascontiguousarray(edge_positions, dtype=np.int64)
        self.num_edges = int(self.src_indxs.size)
        if self.in_edge_idxs.size != self.num_vertices + 1:
            raise ValueError("in_edge_idxs must have num_vertices + 1 entries")
        if self.in_edge_idxs[0] != 0 or self.in_edge_idxs[-1] != self.num_edges:
            raise ValueError("in_edge_idxs must start at 0 and end at num_edges")

    @classmethod
    def from_graph(cls, graph: DiGraph) -> "CSR":
        """Build the incoming-edge CSR of ``graph``."""
        n = graph.num_vertices
        # Offsets first: bincount's int64 copy of its input is freed before
        # the sort word is allocated, so the two never coexist.
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(graph.dst, minlength=n), out=offsets[1:])
        # Edge ids by (dst, src); parallel edges stay in edge order.
        order = edge_order(graph.src, graph.dst)
        return cls(n, offsets, graph.src[order], order)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def in_degree(self, v: int) -> int:
        return int(self.in_edge_idxs[v + 1] - self.in_edge_idxs[v])

    def in_neighbors(self, v: int) -> np.ndarray:
        """Source vertices of ``v``'s incoming edges."""
        lo, hi = self.in_edge_idxs[v], self.in_edge_idxs[v + 1]
        return self.src_indxs[lo:hi]

    def in_edge_ids(self, v: int) -> np.ndarray:
        """Original edge ids of ``v``'s incoming edges."""
        lo, hi = self.in_edge_idxs[v], self.in_edge_idxs[v + 1]
        return self.edge_positions[lo:hi]

    def destinations(self) -> np.ndarray:
        """Destination vertex of each CSR slot (expanded from the offsets)."""
        return np.repeat(
            np.arange(self.num_vertices, dtype=INDEX_DTYPE),
            np.diff(self.in_edge_idxs),
        )

    def gather_edge_values(self, values: np.ndarray) -> np.ndarray:
        """Per-edge values reordered into CSR slot order (``EdgeValues``)."""
        values = np.asarray(values)
        if values.shape[0] != self.num_edges:
            raise ValueError("values must have one entry per edge")
        return values[self.edge_positions]

    # ------------------------------------------------------------------
    # Memory accounting (paper Figure 9)
    # ------------------------------------------------------------------
    def memory_bytes(
        self,
        vertex_value_bytes: int,
        edge_value_bytes: int,
        static_vertex_bytes: int = 0,
        index_bytes: int = 4,
    ) -> int:
        """Bytes occupied on the device by the CSR form of one benchmark.

        ``VertexValues`` (n entries), the optional ``StaticVertexValues``,
        ``InEdgeIdxs`` (n+1), ``SrcIndxs`` (m), and ``EdgeValues`` (m).
        """
        n, m = self.num_vertices, self.num_edges
        return (
            n * (vertex_value_bytes + static_vertex_bytes)
            + (n + 1) * index_bytes
            + m * index_bytes
            + m * edge_value_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSR(|V|={self.num_vertices}, |E|={self.num_edges})"
