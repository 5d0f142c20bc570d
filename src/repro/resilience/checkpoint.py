"""Checkpoint/restore for VertexValues + iteration state.

CuSha's iteration boundary is a natural checkpoint cut: after stage 4 has
written back every updated shard, the whole algorithm state *is* the
VertexValues array (``src_value`` is a pure function of it), plus — when
the run is frontier-gated — the last iteration's updated-vertex mask,
from which :func:`repro.frameworks.frontier.resume_dirty` reconstructs
the exact dirty bitmap.  A :class:`~repro.frameworks.base.Checkpoint`
(defined next to ``RunConfig`` and re-exported here) therefore snapshots
``(iteration, values, frontier)`` plus a blake2b digest over all three;
warm-starting any engine from it via ``RunConfig(resume=checkpoint)`` is
bit-identical to having never stopped (equivalence-gated in
``tests/test_resilience.py``).  For ``frontier="off"`` runs the mask is
``None`` and the cut degenerates to the classic values-only snapshot.

Storage reuses :class:`repro.cache.RepresentationCache`: snapshots are
``put`` under ``("ckpt", run_id, iteration)`` keys, which buys the cache's
bounded-LRU eviction and its freeze-on-insert integrity (a borrower cannot
silently mutate a stored snapshot — and if one is tampered with anyway,
the digest catches it on restore).  Eviction is safe: :meth:`restore`
walks newest-to-oldest, skipping evicted or digest-mismatched snapshots
(each mismatch recorded as an ``R305`` violation), and falls back to a
cold restart when nothing valid is left.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.violations import Violation
from repro.cache import RepresentationCache
from repro.frameworks.base import Checkpoint, values_digest

__all__ = ["Checkpoint", "CheckpointStore", "values_digest"]


class CheckpointStore:
    """Digest-validated snapshots of one run, backed by a representation
    cache (a private 16-entry cache by default; pass ``cache=`` to share
    one — checkpoints then compete with representations under plain LRU).
    """

    def __init__(
        self, cache: RepresentationCache | None = None, run_id: str = "run"
    ) -> None:
        self._cache = (
            cache if cache is not None else RepresentationCache(max_entries=16)
        )
        self.run_id = run_id
        self._iterations: list[int] = []

    def _key(self, iteration: int):
        return ("ckpt", self.run_id, iteration)

    def __len__(self) -> int:
        return len(self._iterations)

    @property
    def iterations(self) -> tuple[int, ...]:
        """Iterations ever saved (oldest first; entries may be evicted)."""
        return tuple(self._iterations)

    def save(
        self, iteration: int, values: np.ndarray,
        frontier: np.ndarray | None = None,
    ) -> Checkpoint:
        """Snapshot ``values`` (and the frontier mask, when the run is
        frontier-gated) as the state after ``iteration`` sweeps; returns
        the stored checkpoint, ready for ``RunConfig(resume=...)``."""
        ckpt = Checkpoint.of(iteration, values, frontier)
        self._cache.put(self._key(ckpt.iteration), ckpt)
        if ckpt.iteration not in self._iterations:
            self._iterations.append(ckpt.iteration)
        return ckpt

    def restore(self) -> tuple[Checkpoint | None, list[Violation]]:
        """Newest digest-valid checkpoint, or ``None`` for a cold restart.

        Evicted snapshots are skipped silently (the cache legitimately
        dropped them under LRU pressure); snapshots that are *present but
        fail their digest* are discarded with an ``R305`` violation each,
        and the walk continues to the next-older candidate.
        """
        violations: list[Violation] = []
        for iteration in reversed(self._iterations):
            ckpt = self._cache.peek(self._key(iteration))
            if ckpt is None:
                continue
            if ckpt.verify():
                return ckpt, violations
            violations.append(
                Violation(
                    code="R305",
                    message=(
                        f"checkpoint at iteration {iteration} failed its "
                        "blake2b digest on restore; discarding it"
                    ),
                    subject=self.run_id,
                    severity="warning",
                )
            )
        return None, violations
