"""Frontier-centric execution: dirty bitmaps, influence maps, direction.

Every engine historically swept all shards every iteration even when only
a handful of vertices changed.  ``RunConfig(frontier=...)`` turns on
work-efficient sweeps built from three pieces that live here:

**Dirty bitmap** (:class:`ShardFrontier`).  One boolean per scheduling
unit — a G-Shards/CW shard for the CuSha engines, a vertex chunk for VWC.
A unit's bit is cleared when the unit is processed and set again when
something it depends on changes.  Processing a *clean* unit is a
deterministic no-op (its inputs are bit-identical to the last time it ran,
so ``apply`` reports no updates), which is the whole correctness argument:
skipping clean units changes **nothing** about values, traces, update
counts, or iteration counts — only the modeled (and wall-clock) work.

**Influence map** (:func:`vertex_influence_csr`).  A vertex ``u`` can
invalidate unit ``t`` only if ``u`` has an out-edge whose destination
lives in ``t`` — exactly the shard→dest-window mapping, deduplicated to a
``vertex → units`` CSR.  Engines mark from the *genuinely updated* vertex
indices at their write-back boundaries (that is when other units can first
observe the new value), plus the updater's own unit immediately (a unit
reads its own destination values live).  ``always_writeback`` runs mark
from the same updated set — writing back an unchanged value invalidates
nobody.

**Direction choice** (:func:`choose_direction`).  Gunrock/Beamer-style
push/pull switching for ``frontier="auto"``: when the frontier touches
more than ``1/alpha`` of the edges, a dense full sweep (CuSha's native
gather form — "pull") is cheaper than assembling the sparse gather
("push"); below the threshold push wins by orders of magnitude.  Both
directions are bit-exact, so the per-iteration switch is free to be a pure
heuristic.

**Resume** (:func:`resume_dirty`).  The dirty set left at the end of an
iteration is a pure function of that iteration's updated-vertex mask plus
static schedule data: a mark from ``u`` (unit ``s``, flushed at position
``flush_pos[s]``) into unit ``t`` survives the iteration iff ``t`` was
already processed when the mark landed — ``flush_pos[t] <= flush_pos[s]``
— otherwise ``t``'s own later processing cleared it (and ``t``'s own
updates, also in the mask, re-mark whatever is still live).  Checkpoints
therefore store just the ``(n,)`` updated-vertex mask
(:attr:`RunResult.frontier_mask`) and segmented runs rebuild the exact
bitmap a continuous run would hold.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks.wavebatch import multi_arange

__all__ = [
    "FRONTIER_MODES",
    "DIRECTION_ALPHA",
    "vertex_influence_csr",
    "resume_dirty",
    "choose_direction",
    "ShardFrontier",
]

FRONTIER_MODES = ("off", "sparse", "auto")

#: Beamer's direction-switching constant: pull (dense sweep) once the
#: frontier's out-edges exceed ``total_edges / DIRECTION_ALPHA``.
DIRECTION_ALPHA = 14.0


def vertex_influence_csr(
    sources: np.ndarray,
    destinations: np.ndarray,
    num_vertices: int,
    unit_size: int,
    num_units: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated ``vertex -> scheduling units it can invalidate`` CSR.

    ``(indptr, targets)`` with ``targets[indptr[u]:indptr[u+1]]`` the
    sorted unique units holding a destination of one of ``u``'s out-edges.
    Unit membership is by uniform ranges (``vertex // unit_size``), which
    matches G-Shards/CW shards, streamed shards, and VWC chunks alike.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst_unit = np.asarray(destinations, dtype=np.int64) // unit_size
    pairs = np.unique(src * num_units + dst_unit)
    u = pairs // num_units
    targets = (pairs % num_units).astype(np.int64)
    counts = np.bincount(u, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, targets


def choose_direction(
    active_edges: int, total_edges: int, alpha: float = DIRECTION_ALPHA
) -> str:
    """``"pull"`` (dense sweep) or ``"push"`` (sparse gather) this iteration.

    ``active_edges`` is the number of shard entries the sparse gather
    would process (the frontier size × its average degree, exactly).
    """
    return "pull" if active_edges * alpha >= total_edges else "push"


def resume_dirty(
    mask: np.ndarray,
    unit_size: int,
    num_units: int,
    indptr: np.ndarray,
    targets: np.ndarray,
    flush_pos: np.ndarray,
) -> np.ndarray:
    """Rebuild the end-of-iteration dirty bitmap from an updated-vertex mask.

    ``flush_pos[t]`` is the position in the processing order at which unit
    ``t``'s marks are flushed: ``shard // wave_size`` for wave-synchronous
    CuSha, the unit index itself for async CuSha and VWC chunks, and all
    zeros for BSP/streamed (one flush at iteration end, every mark
    survives).  See the module docstring for the survival rule.
    """
    dirty = np.zeros(num_units, dtype=bool)
    upd = np.flatnonzero(np.asarray(mask, dtype=bool)).astype(np.int64)
    if not upd.size:
        return dirty
    src_unit = upd // unit_size
    dirty[src_unit] = True
    lo, hi = indptr[upd], indptr[upd + 1]
    edges = multi_arange(lo, hi)
    tgt = targets[edges]
    src_pos = np.repeat(flush_pos[src_unit], hi - lo)
    dirty[tgt[flush_pos[tgt] <= src_pos]] = True
    return dirty


class ShardFrontier:
    """Live dirty bitmap, updated-vertex mask and work counters for one
    frontier-gated run.

    The operators ask for their units with :meth:`take` (the dirty ones
    of a range under push, all of them under pull; cleared and counted)
    and flush their genuinely updated vertex indices with :meth:`mark` at
    each write-back boundary (self-units are marked there too; the call
    sites coincide for every engine's flush discipline, see the module
    docstring).  ``mark`` also records the vertices in :attr:`updated`,
    the iteration's mask that checkpoints store.  A dense sweep that
    cannot mark per unit rebuilds the bitmap once with :meth:`settle`.
    The driver resets ``updated`` and ``processed`` (the units taken) at
    every iteration start and reads them at its end.
    """

    __slots__ = (
        "dirty",
        "updated",
        "unit_size",
        "unit_edges",
        "flush_pos",
        "indptr",
        "targets",
        "edges_processed",
        "shards_skipped",
        "processed",
    )

    def __init__(
        self,
        num_vertices: int,
        unit_size: int,
        unit_edges: np.ndarray,
        flush_pos: np.ndarray,
        indptr: np.ndarray,
        targets: np.ndarray,
        resume: np.ndarray | None = None,
    ) -> None:
        self.unit_size = unit_size
        self.unit_edges = unit_edges
        self.flush_pos = flush_pos
        self.indptr = indptr
        self.targets = targets
        self.updated = np.zeros(num_vertices, dtype=bool)
        if resume is None:
            # A fresh run: everything is dirty (the first sweep is full).
            self.dirty = np.ones(len(unit_edges), dtype=bool)
        else:
            self.dirty = self._rebuild(resume)
        self.edges_processed = 0
        self.shards_skipped = 0
        self.processed = 0

    def _rebuild(self, mask: np.ndarray) -> np.ndarray:
        return resume_dirty(mask, self.unit_size, len(self.unit_edges),
                            self.indptr, self.targets, self.flush_pos)

    def active(self, lo: int, hi: int) -> np.ndarray:
        """Absolute indices of dirty units within ``[lo, hi)``."""
        return lo + np.flatnonzero(self.dirty[lo:hi])

    def clear(self, units: np.ndarray) -> None:
        self.dirty[units] = False

    def take(self, lo: int, hi: int, push: bool) -> np.ndarray:
        """The units of ``[lo, hi)`` a sweep processes, cleared and counted:
        the dirty ones under push, all of them under pull."""
        units = self.active(lo, hi) if push else np.arange(lo, hi)
        self.clear(units)
        self.shards_skipped += (hi - lo) - units.size
        self.processed += units.size
        self.edges_processed += int(self.unit_edges[units].sum())
        return units

    def mark(self, updated_vertices: np.ndarray) -> None:
        """Record the updated vertices and mark the updaters' own units
        and every unit they influence."""
        upd = np.asarray(updated_vertices, dtype=np.int64)
        if not upd.size:
            return
        self.updated[upd] = True
        self.dirty[upd // self.unit_size] = True
        edges = multi_arange(self.indptr[upd], self.indptr[upd + 1])
        self.dirty[self.targets[edges]] = True

    def settle(self, updated_vertices: np.ndarray) -> None:
        """Record a dense sweep's updated vertices and set the bitmap a
        gated sweep would have left behind (live marks minus the clears of
        later-processed units)."""
        self.updated[updated_vertices] = True
        self.dirty = self._rebuild(self.updated)
