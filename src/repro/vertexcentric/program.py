"""The :class:`VertexProgram` abstraction (paper section 4 and Table 3).

A program supplies:

- **Structs** — ``vertex_dtype`` (the mutable per-vertex value),
  ``static_dtype`` (read-only per-vertex properties, e.g. PageRank's
  neighbor count), ``edge_dtype`` (per-edge content).
- **Scalar device functions** — :meth:`init_compute`, :meth:`compute`,
  :meth:`update_condition`, written exactly like the paper's CUDA snippets
  but over plain dicts.  The slow reference engine executes these, which is
  what validates the vectorized path.
- **Vectorized kernels** — :meth:`init_local`, :meth:`messages`,
  :meth:`apply`, operating on whole arrays.  The simulated engines execute
  these; dedicated tests assert they agree with the scalar functions on
  random graphs.
- **Reduction declaration** — :attr:`reduce_ops` names, for each vertex
  field written by ``compute``, the commutative/associative operator the
  paper requires (``min`` / ``max`` / ``add``).  The engines apply it with
  unordered ``ufunc.at`` updates, the NumPy analog of the shared-memory
  atomics in Figure 5.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Literal

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["ReduceOp", "VertexProgram", "apply_reductions"]

ReduceOp = Literal["min", "max", "add"]

_UFUNCS = {"min": np.minimum, "max": np.maximum, "add": np.add}


class VertexProgram(ABC):
    """Base class for vertex-centric algorithms.

    Subclasses set the class attributes and implement the abstract methods;
    everything else (iteration, shard handling, hardware accounting) is the
    framework's job — exactly the division of labor the paper advertises.
    """

    name: str = "program"
    vertex_dtype: np.dtype
    static_dtype: np.dtype | None = None
    edge_dtype: np.dtype | None = None
    reduce_ops: dict[str, ReduceOp]

    #: fields of ``vertex_dtype`` compared by the default :meth:`apply`;
    #: subclasses with custom apply logic may ignore it.
    tolerance: float = 1e-3

    #: instance attributes the kernels may legitimately mutate (bookkeeping
    #: that does not feed back into vertex values, e.g. the batching layer's
    #: column-retirement tracker).  The C404 purity certificate treats any
    #: ``self.X`` mutation outside this allowlist as hidden state.
    certify_state: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # Problem setup
    # ------------------------------------------------------------------
    @abstractmethod
    def initial_values(self, graph: DiGraph) -> np.ndarray:
        """Initial ``VertexValues`` array (shape ``(n,)``, ``vertex_dtype``)."""

    def static_values(self, graph: DiGraph) -> np.ndarray | None:
        """Read-only per-vertex properties (``static_dtype``), or ``None``."""
        return None

    def edge_values(self, graph: DiGraph) -> np.ndarray | None:
        """Per-edge content (``edge_dtype``) in *original edge order*, or
        ``None`` for unweighted programs.  Representations reorder this with
        their ``edge_positions`` permutation."""
        return None

    # ------------------------------------------------------------------
    # Scalar device functions (paper-faithful; reference engine only)
    # ------------------------------------------------------------------
    @abstractmethod
    def init_compute(self, local_v: dict, v: dict) -> None:
        """Stage-1 body: initialize ``local_v`` from the current value ``v``."""

    @abstractmethod
    def compute(
        self, src_v: dict, src_static: dict | None, edge: dict | None, local_v: dict
    ) -> None:
        """Stage-2 body: fold one incoming edge into ``local_v``.

        Must be commutative and associative across edges (paper section 4);
        the dict mutation plays the role of the shared-memory atomic.
        """

    @abstractmethod
    def update_condition(self, local_v: dict, v: dict) -> bool:
        """Stage-3 body: finalize ``local_v`` (vertex-level computation) and
        report whether it should replace ``v``."""

    # ------------------------------------------------------------------
    # Vectorized kernels (simulated engines)
    # ------------------------------------------------------------------
    def init_local(self, current: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`init_compute`.  Default: copy the current values
        (the common case — BFS, SSSP, CC, SSWP)."""
        return current.copy()

    @abstractmethod
    def messages(
        self,
        src_vals: np.ndarray,
        src_static: np.ndarray | None,
        edge_vals: np.ndarray | None,
        dest_old: np.ndarray,
    ) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
        """Vectorized :meth:`compute`, split into its data-parallel half.

        Returns ``(msgs, mask)``: per-edge contribution arrays keyed by the
        vertex field they reduce into, plus an optional boolean mask of edges
        that contribute (the paper's ``if (SrcV->Dist != INF)`` guards).
        """

    @abstractmethod
    def apply(
        self, local: np.ndarray, old: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`update_condition`.

        Returns ``(final_local, updated_mask)``; the engine stores
        ``final_local[updated_mask]`` into ``VertexValues``.
        """

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------
    @property
    def vertex_value_bytes(self) -> int:
        return self.vertex_dtype.itemsize

    @property
    def static_value_bytes(self) -> int:
        return 0 if self.static_dtype is None else self.static_dtype.itemsize

    @property
    def edge_value_bytes(self) -> int:
        return 0 if self.edge_dtype is None else self.edge_dtype.itemsize

    def atomic_ops_per_edge(self) -> int:
        """Atomics one ``compute`` call issues (one per reduced field)."""
        return len(self.reduce_ops)

    def begin_iteration(self, iteration: int) -> None:
        """Hook engines call at the top of each *frontier-gated* iteration.

        Programs that maintain their own work-efficiency state roll it
        forward here — the service layer's multi-source batches use it to
        retire permanently quiescent source columns.  Only called when
        ``RunConfig.frontier != "off"`` (so frontier-off runs stay
        byte-identical to historical baselines).  Default: no-op.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def apply_reductions(
    program: VertexProgram,
    local: np.ndarray,
    dest_idx: np.ndarray,
    msgs: dict[str, np.ndarray],
    mask: np.ndarray | None,
    track_changed: bool = False,
) -> tuple[int, np.ndarray | None]:
    """Fold per-edge messages into ``local`` with the program's reducers.

    ``dest_idx`` maps each edge to its (local) destination slot.  Unordered
    ``ufunc.at`` application mirrors the nondeterministic-but-commutative
    atomic updates of the real kernel.  Returns ``(ops, changed)``: the
    number of atomic operations performed (for the hardware stats) and —
    when ``track_changed`` — a boolean mask over ``local``'s rows marking
    vertices whose reduced fields the messages actually moved (the
    *active-vertex* set frontier telemetry reports).  ``changed`` is
    ``None`` when not tracked; tracking snapshots only the touched rows'
    message fields, so the reduction itself is unchanged either way.
    """
    if mask is not None and mask.all():
        mask = None  # e.g. PageRank: boolean-mask copies would be no-ops
    if mask is not None:
        dest_idx = dest_idx[mask]
    before: dict[str, np.ndarray] | None = None
    touched_idx: np.ndarray | None = None
    if track_changed:
        touched = np.zeros(len(local), dtype=bool)
        touched[dest_idx] = True
        touched_idx = np.flatnonzero(touched)
        before = {f: local[f][touched_idx].copy() for f in msgs}
    ops = 0
    for field, contrib in msgs.items():
        op = program.reduce_ops[field]
        values = contrib if mask is None else contrib[mask]
        target = local[field]
        if target.ndim == 2 and target.flags.c_contiguous:
            # Subarray fields (shape ``(n, K)``, e.g. the service layer's
            # multi-source batches): ``ufunc.at`` has no fast inner loop
            # for row indexing, so expand to flat element indices and use
            # the contiguous 1-D path — same elements, same commutative
            # op, several times faster.
            k = target.shape[1]
            flat_idx = (dest_idx[:, None] * k + np.arange(k)).ravel()
            _UFUNCS[op].at(
                target.reshape(-1), flat_idx,
                np.ascontiguousarray(values).reshape(-1),
            )
        else:
            _UFUNCS[op].at(target, dest_idx, values)
        ops += int(values.size)
    if not track_changed:
        return ops, None
    assert before is not None and touched_idx is not None
    changed = np.zeros(len(local), dtype=bool)
    moved = np.zeros(len(touched_idx), dtype=bool)
    for field, old_vals in before.items():
        # Per-field comparison (structured-array ``!=`` is unreliable for
        # subarray dtypes); extra dimensions collapse with ``any``.
        diff = local[field][touched_idx] != old_vals
        while diff.ndim > 1:
            diff = diff.any(axis=-1)
        moved |= diff
    changed[touched_idx[moved]] = True
    return ops, changed
