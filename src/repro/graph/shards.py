"""G-Shards representation (paper section 3.1).

A graph is presented as ``|S| = ceil(|V| / N)`` shards.  Shard ``i`` owns all
edges whose destination lies in the vertex range
``[i * N, min((i + 1) * N, |V|))`` (*Partitioned* property) and lists them in
increasing order of source index (*Ordered* property).  Each entry is the
paper's 4-tuple::

    (SrcIndex, SrcValue, EdgeValue, DestIndex)

``SrcValue`` is mutable per-entry state owned by the processing framework (a
stale copy of the source vertex's value, refreshed by the write-back stage);
the representation here stores the three structural columns and exposes the
*computation windows*:

``W_ij`` — the entries of shard ``j`` whose source vertex belongs to shard
``i``'s range.  Thanks to the Ordered property each window is a contiguous
slice of shard ``j``, precomputed in :attr:`GShards.window_offsets`.

All shards are stored concatenated in single arrays; ``shard_offsets`` gives
each shard's extent.  This matches the flat device allocation a CUDA
implementation would use and makes the whole structure NumPy-sliceable.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, INDEX_DTYPE

__all__ = ["GShards"]


class GShards:
    """The G-Shards form of a :class:`DiGraph` with ``N`` vertices per shard.

    Attributes
    ----------
    vertices_per_shard:
        The paper's ``|N|``.
    num_shards:
        ``ceil(num_vertices / N)`` (at least 1 so the empty graph still has a
        well-formed, empty shard).
    shard_offsets:
        ``(num_shards + 1,)`` — shard ``i`` occupies slots
        ``shard_offsets[i] : shard_offsets[i + 1]`` of the entry arrays.
    src_index, dest_index:
        ``(m,)`` structural columns of the 4-tuples.
    edge_positions:
        ``(m,)`` original edge id of every slot (for gathering edge values).
    window_offsets:
        ``(num_shards, num_shards + 1)`` — row ``j`` holds the boundaries of
        the windows inside shard ``j``: window ``W_ij`` is the slice
        ``window_offsets[j, i] : window_offsets[j, i + 1]`` of the entry
        arrays (absolute positions).
    """

    __slots__ = (
        "graph",
        "vertices_per_shard",
        "num_shards",
        "shard_offsets",
        "src_index",
        "dest_index",
        "edge_positions",
        "window_offsets",
    )

    def __init__(self, graph: DiGraph, vertices_per_shard: int) -> None:
        if vertices_per_shard <= 0:
            raise ValueError("vertices_per_shard must be positive")
        n, m = graph.num_vertices, graph.num_edges
        N = int(vertices_per_shard)
        S = max(1, -(-n // N))  # ceil(n / N), at least one shard

        shard_of_dst = graph.dst.astype(np.int64) // N
        # Sort edge ids by (destination shard, source index, destination
        # index); the last key is only a determinism tie-break.  The three
        # keys pack into one int64, (shard*n + src)*N + (dst - shard*N),
        # written below as (shard*(n-1) + src)*N + dst; it stays below
        # n*(n+N), so it cannot overflow for int32 vertex ids.  A stable
        # argsort of it equals ``np.lexsort((dst, src, shard))``, ties in
        # edge order, while sorting one array instead of three.
        key = shard_of_dst * (n - 1)
        key += graph.src
        key *= N
        key += graph.dst
        order = np.argsort(key, kind="stable")
        del key

        self.graph = graph
        self.vertices_per_shard = N
        self.num_shards = S
        self.src_index = graph.src[order].astype(INDEX_DTYPE)
        self.dest_index = graph.dst[order].astype(INDEX_DTYPE)
        self.edge_positions = order.astype(np.int64)

        counts = np.bincount(shard_of_dst, minlength=S)
        self.shard_offsets = np.zeros(S + 1, dtype=np.int64)
        np.cumsum(counts, out=self.shard_offsets[1:])

        # Window boundaries: within shard j (sorted by src), the entries with
        # src in [i*N, (i+1)*N) form window W_ij.
        boundaries = np.arange(S + 1, dtype=np.int64) * N
        self.window_offsets = np.empty((S, S + 1), dtype=np.int64)
        for j in range(S):
            lo, hi = self.shard_offsets[j], self.shard_offsets[j + 1]
            self.window_offsets[j] = lo + np.searchsorted(
                self.src_index[lo:hi], boundaries, side="left"
            )
        assert m == self.src_index.size

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return int(self.src_index.size)

    def shard_of_vertex(self, v: int) -> int:
        return int(v) // self.vertices_per_shard

    def vertex_range(self, shard: int) -> tuple[int, int]:
        """Half-open vertex index range owned by ``shard``."""
        lo = shard * self.vertices_per_shard
        hi = min(lo + self.vertices_per_shard, self.num_vertices)
        return lo, hi

    def shard_slice(self, shard: int) -> slice:
        """Entry-array slice of ``shard``."""
        return slice(
            int(self.shard_offsets[shard]), int(self.shard_offsets[shard + 1])
        )

    def shard_size(self, shard: int) -> int:
        return int(self.shard_offsets[shard + 1] - self.shard_offsets[shard])

    def window_slice(self, i: int, j: int) -> slice:
        """Entry-array slice of window ``W_ij`` (shard ``j``'s entries whose
        sources live in shard ``i``)."""
        return slice(
            int(self.window_offsets[j, i]), int(self.window_offsets[j, i + 1])
        )

    def windows_of(self, i: int) -> list[tuple[int, int, int]]:
        """All windows written during shard ``i``'s write-back stage.

        Returns ``(j, start, stop)`` triples (absolute entry positions),
        ordered by ``j`` — the order a G-Shards write-back walks them.
        """
        starts = self.window_offsets[:, i]
        stops = self.window_offsets[:, i + 1]
        return [
            (j, int(starts[j]), int(stops[j])) for j in range(self.num_shards)
        ]

    def window_sizes(self) -> np.ndarray:
        """``(S, S)`` matrix of window sizes; entry ``[i, j]`` is ``|W_ij|``."""
        return (
            self.window_offsets[:, 1:] - self.window_offsets[:, :-1]
        ).T.copy()

    def windows_out_of(self, i: int) -> np.ndarray:
        """Entry positions of all windows ``W_ij`` (shard ``i``'s write-back
        targets), concatenated over ``j`` — the CW ordering."""
        parts = [
            np.arange(start, stop, dtype=np.int64)
            for _j, start, stop in self.windows_of(i)
            if stop > start
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def outgoing_subgraph(self, i: int) -> DiGraph:
        """The edges whose *source* lies in shard ``i``'s vertex range.

        The paper (end of §3.1) observes that for a shard ``k`` the windows
        ``W_kj`` over all ``j`` collectively contain exactly the edges
        leaving shard ``k``'s vertices; this accessor materializes that
        edge set as a graph (tested against a direct edge filter)."""
        pos = self.windows_out_of(i)
        return DiGraph(
            self.src_index[pos],
            self.dest_index[pos],
            self.num_vertices,
            validate=False,
        )

    def gather_edge_values(self, values: np.ndarray) -> np.ndarray:
        """Per-edge values reordered into shard slot order (``EdgeValue``)."""
        values = np.asarray(values)
        if values.shape[0] != self.num_edges:
            raise ValueError("values must have one entry per edge")
        return values[self.edge_positions]

    # ------------------------------------------------------------------
    # Statistics / accounting
    # ------------------------------------------------------------------
    def average_window_size(self) -> float:
        """``|E| / |S|^2`` — the paper's section 3.2 estimate, computed exactly."""
        if self.num_shards == 0:
            return 0.0
        return self.num_edges / float(self.num_shards) ** 2

    def memory_bytes(
        self,
        vertex_value_bytes: int,
        edge_value_bytes: int,
        static_vertex_bytes: int = 0,
        index_bytes: int = 4,
    ) -> int:
        """Device bytes for the G-Shards form of one benchmark (Figure 9).

        Per entry: ``SrcIndex`` + ``SrcValue`` + optional ``SrcValueStatic``
        + ``EdgeValue`` + ``DestIndex``; plus the global ``VertexValues`` /
        static values and the shard/window offset tables.
        """
        n, m, S = self.num_vertices, self.num_edges, self.num_shards
        per_entry = (
            index_bytes
            + vertex_value_bytes
            + static_vertex_bytes
            + edge_value_bytes
            + index_bytes
        )
        offsets = (S + 1) * 8 + S * (S + 1) * 8
        return n * (vertex_value_bytes + static_vertex_bytes) + m * per_entry + offsets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GShards(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"N={self.vertices_per_shard}, S={self.num_shards})"
        )
