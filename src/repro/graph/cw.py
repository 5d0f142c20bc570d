"""Concatenated Windows representation (paper section 3.2).

CW keeps the shards of :class:`~repro.graph.shards.GShards` (each entry now a
3-tuple ``SrcValue, EdgeValue, DestIndex``) but pulls the ``SrcIndex`` column
out and re-orders it: for shard ``i``, ``CW_i`` is the concatenation of the
``SrcIndex`` entries of all windows ``W_ij``, ordered by ``j``.  During shard
``i``'s write-back stage one thread is assigned per ``CW_i`` entry, so warps
are fully utilized even when individual windows are tiny.

Pulling ``SrcIndex`` away from ``SrcValue`` breaks the positional
association, so a ``Mapper`` array records, for every ``CW`` slot, the entry
position (in the flat shard storage) holding the matching ``SrcValue``.

Construction is a single stable sort of entry positions by source shard:
entries are already stored in destination-shard order and positions inside
each window are consecutive, so the concatenation order matches the paper's
definition exactly.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph, INDEX_DTYPE
from repro.graph.shards import GShards

__all__ = ["ConcatenatedWindows"]


class ConcatenatedWindows:
    """CW form: a :class:`GShards` plus the reordered ``SrcIndex`` + ``Mapper``.

    Attributes
    ----------
    shards:
        The underlying G-Shards structure (unchanged).
    cw_src_index:
        ``(m,)`` — the ``SrcIndex`` column in CW order: all entries whose
        source lies in shard 0's range first (ordered by destination shard),
        then shard 1's, and so on.
    mapper:
        ``(m,)`` — ``mapper[k]`` is the flat entry position whose
        ``SrcValue`` must be written when CW slot ``k`` is processed.
    cw_offsets:
        ``(num_shards + 1,)`` — ``CW_i`` occupies CW slots
        ``cw_offsets[i] : cw_offsets[i + 1]``.
    """

    __slots__ = ("shards", "cw_src_index", "mapper", "cw_offsets")

    def __init__(self, shards: GShards) -> None:
        self.shards = shards
        m = shards.num_edges
        S = shards.num_shards
        N = shards.vertices_per_shard

        src_shard = shards.src_index.astype(np.int64) // N
        # Entries are stored in destination-shard order, and window-internal
        # positions are consecutive, so a stable sort by source shard alone
        # is exactly "concatenate W_ij ordered by j".
        order = np.argsort(src_shard, kind="stable")
        self.mapper = order.astype(np.int64)
        self.cw_src_index = shards.src_index[order].astype(INDEX_DTYPE)
        counts = np.bincount(src_shard, minlength=S)
        self.cw_offsets = np.zeros(S + 1, dtype=np.int64)
        np.cumsum(counts, out=self.cw_offsets[1:])
        assert self.cw_offsets[-1] == m

    @classmethod
    def from_graph(
        cls, graph: DiGraph, vertices_per_shard: int
    ) -> "ConcatenatedWindows":
        return cls(GShards(graph, vertices_per_shard))

    # ------------------------------------------------------------------
    # Delegated structural queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.shards.num_vertices

    @property
    def num_edges(self) -> int:
        return self.shards.num_edges

    @property
    def num_shards(self) -> int:
        return self.shards.num_shards

    @property
    def vertices_per_shard(self) -> int:
        return self.shards.vertices_per_shard

    def cw_slice(self, i: int) -> slice:
        """CW slot range of ``CW_i`` (shard ``i``'s write-back work list)."""
        return slice(int(self.cw_offsets[i]), int(self.cw_offsets[i + 1]))

    def cw_size(self, i: int) -> int:
        return int(self.cw_offsets[i + 1] - self.cw_offsets[i])

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def memory_bytes(
        self,
        vertex_value_bytes: int,
        edge_value_bytes: int,
        static_vertex_bytes: int = 0,
        index_bytes: int = 4,
    ) -> int:
        """Device bytes for the CW form (Figure 9).

        CW adds the ``Mapper`` array (``|E|`` indices) on top of G-Shards —
        the paper's stated overhead — plus the small ``cw_offsets`` table.
        """
        base = self.shards.memory_bytes(
            vertex_value_bytes,
            edge_value_bytes,
            static_vertex_bytes,
            index_bytes,
        )
        return base + self.num_edges * index_bytes + (self.num_shards + 1) * 8

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcatenatedWindows(|V|={self.num_vertices}, "
            f"|E|={self.num_edges}, N={self.vertices_per_shard}, "
            f"S={self.num_shards})"
        )
