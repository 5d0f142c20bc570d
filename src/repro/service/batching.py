"""Same-graph query coalescing: many traversal sources, one engine run.

The paper's traversal programs (BFS, SSSP, SSWP) are single-source: each
query walks the whole graph to label every vertex from one seed.  A service
fielding many concurrent queries over the *same* graph would execute the
same sweep structure once per source — identical representations, identical
edge gathers, different values.  This module coalesces them: ``K`` pending
same-graph/same-program/same-config queries become **one** engine run over
a ``K``-column vertex value struct (a single field of shape ``(K,)``, so
every kernel is one NumPy op over an ``(edges, K)`` block instead of ``K``
per-column passes), amortizing every per-sweep cost across the batch.

Bit-exactness
-------------
The batched run is bit-identical, per column, to running each query alone:

- The traversal programs are monotone min/max fixpoints over independent
  per-source state — columns never interact, so column ``k`` of the batched
  state equals the independent run's state *at every iteration*, not just
  at the fixpoint (capped runs match too, as long as configs match).
- The single-source kernels guard contributions with a boolean ``mask``
  (the paper's ``if (SrcV->Dist != INF)``).  A shared mask cannot express
  per-column guards, so :class:`MultiSourceTraversal` folds the guard into
  the message value instead: a masked-out edge contributes the reducer's
  **identity** (``UINT_INF`` for min, ``0`` for max), which is exactly what
  not contributing means.  ``mask=None`` keeps every engine's reduction
  path (``ufunc.at``) untouched.

Batch keys
----------
Queries coalesce only when *everything* that could change the answer or
the execution matches: program, engine key + options, run configuration,
and the graph — structure **and weights**.  The representation cache's
:func:`~repro.cache.graph_fingerprint` is deliberately structural-only
(representations do not depend on weights), so :func:`batch_key` adds a
separate weights digest: SSSP/SSWP answers do depend on weights, and two
graphs sharing a topology must not share a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cache import graph_fingerprint, weights_digest
from repro.frameworks.base import RunConfig, RunResult
from repro.graph.digraph import DiGraph
from repro.vertexcentric.datatypes import UINT_INF
from repro.vertexcentric.datatypes import vertex_dtype as struct_dtype
from repro.vertexcentric.program import VertexProgram

__all__ = [
    "TraversalSpec",
    "TRAVERSAL_SPECS",
    "MultiSourceTraversal",
    "batchable",
    "batch_key",
    "weights_digest",
    "split_batch_result",
]


@dataclass(frozen=True)
class TraversalSpec:
    """How one single-source traversal program generalizes to K columns.

    ``empty`` doubles as the reducer's identity element, which is what
    makes the guard-as-identity message encoding exact: contributing
    ``empty`` is indistinguishable from not contributing at all.
    """

    program: str  # make_program name
    field: str  # the one vertex value field ("level", "dist", ...)
    reduce: str  # "min" | "max" (identity = empty)
    empty: int  # unreached marker == reducer identity
    seed: int  # the source vertex's initial value
    weighted: bool  # does the answer depend on edge weights?
    #: per-edge proposal, *already guarded*: entries whose source holds
    #: ``empty`` must propose ``empty``.  ``src`` is ``(E, K)`` on the
    #: vectorized path and ``(K,)`` on the scalar path; ``weight`` is the
    #: matching per-edge value, already shaped to broadcast against ``src``.
    proposal: Callable[[np.ndarray, np.ndarray | None], np.ndarray]


def _bfs_proposal(src: np.ndarray, weight) -> np.ndarray:
    # uint32 wraparound on INF entries is replaced by the identity below.
    return np.where(src != UINT_INF, src + np.uint32(1), UINT_INF)


def _sssp_proposal(src: np.ndarray, weight) -> np.ndarray:
    return np.where(src != UINT_INF, src + weight, UINT_INF)


def _sswp_proposal(src: np.ndarray, weight) -> np.ndarray:
    return np.where(src != 0, np.minimum(src, weight), np.uint32(0))


TRAVERSAL_SPECS: dict[str, TraversalSpec] = {
    "bfs": TraversalSpec(
        program="bfs", field="level", reduce="min", empty=UINT_INF, seed=0,
        weighted=False, proposal=_bfs_proposal,
    ),
    "sssp": TraversalSpec(
        program="sssp", field="dist", reduce="min", empty=UINT_INF, seed=0,
        weighted=True, proposal=_sssp_proposal,
    ),
    "sswp": TraversalSpec(
        program="sswp", field="bwidth", reduce="max", empty=0, seed=UINT_INF,
        weighted=True, proposal=_sswp_proposal,
    ),
}


def batchable(program_name: str) -> bool:
    """Can queries of this program be coalesced into a multi-source run?"""
    return program_name in TRAVERSAL_SPECS


def _config_key(config: RunConfig) -> tuple:
    """The RunConfig fields that must match for two queries to coalesce.

    The tracer is observability, not semantics; ``resume`` warm starts
    and armed fault plans make a query non-batchable in the first place
    (see ``Service.submit``).
    """
    return (
        config.max_iterations,
        config.allow_partial,
        config.exec_path,
        config.validate,
        config.frontier,
        config.certify,
        config.narrow,
        config.devices,
        config.placement,
    )


def batch_key(graph: DiGraph, program_name: str, engine: str,
              engine_opts: dict, config: RunConfig) -> tuple:
    """Coalescing key: queries with equal keys may share one engine run."""
    return (
        graph_fingerprint(graph),
        weights_digest(graph),
        program_name,
        engine,
        tuple(sorted(engine_opts.items())),
        _config_key(config),
    )


class _ColumnFrontier:
    """Per-column quiescence tracking for a multi-source batch.

    A column that completes one *full* iteration without a single update
    has reached its fixpoint: the traversals are monotone (min/max) and a
    sweep that improves nothing now can never improve anything later.  Such
    columns are **retired** — their per-edge proposals are replaced by the
    reducer identity, which is bit-exact (a fixpoint column's real
    proposals cannot beat its current values either) but skips the
    proposal arithmetic for that column.

    Engines drive this through :meth:`VertexProgram.begin_iteration`,
    which only fires on frontier-gated runs; ``frontier="off"`` runs never
    touch this state.  Retirement is sound under sparse (frontier-gated)
    sweeps too: skipped shards are quiescent for *every* column, so "no
    updates observed in column k" under a sparse sweep implies the same
    for a full sweep.
    """

    __slots__ = ("retired", "iter_active", "cur_iter", "full_iter_seen")

    def __init__(self, num_columns: int) -> None:
        self.retired = np.zeros(num_columns, dtype=bool)
        self.iter_active = np.zeros(num_columns, dtype=bool)
        self.cur_iter: int | None = None
        self.full_iter_seen = False

    def begin_iteration(self, iteration: int) -> None:
        if self.cur_iter is not None and iteration <= self.cur_iter:
            # The run rewound (checkpoint replay) or a new run reused the
            # program instance: forget everything learned about columns.
            self.retired[:] = False
            self.full_iter_seen = False
        elif self.full_iter_seen:
            self.retired |= ~self.iter_active
        self.iter_active[:] = False
        self.cur_iter = iteration
        self.full_iter_seen = True

    def observe(self, updated_columns: np.ndarray) -> None:
        self.iter_active |= updated_columns


class MultiSourceTraversal(VertexProgram):
    """``K`` independent single-source traversals as one vertex program.

    The vertex value struct holds all columns in one subarray field of
    shape ``(K,)`` — ``dist`` is ``(n, K)`` instead of ``K`` separate
    fields — so every kernel is a single NumPy op over an ``(edges, K)``
    block and the whole batch vectorizes across columns.  The guard is
    folded into the message value (see module docstring).  Engines need
    no changes: reductions index rows, and ``ufunc.at`` row updates are
    exactly the shared-memory atomics, one per column.
    """

    #: the column-retirement tracker is deliberate kernel-visible state
    #: (apply feeds it per-column activity); declare it so the C404 purity
    #: certificate does not flag it as hidden state.
    certify_state = ("_columns",)

    def __init__(self, spec: TraversalSpec, sources: tuple[int, ...]) -> None:
        if not sources:
            raise ValueError("MultiSourceTraversal needs at least one source")
        self.spec = spec
        self.sources = tuple(int(s) for s in sources)
        self.name = f"{spec.program}-x{len(self.sources)}"
        self.field = spec.field
        self.vertex_dtype = np.dtype(
            [(spec.field, np.uint32, (len(self.sources),))]
        )
        self.reduce_ops = {spec.field: spec.reduce}
        # Edge content (weights) comes from the base program so the
        # per-edge layout and dtype match the single-source runs exactly.
        from repro.algorithms import make_program

        self._base = make_program(spec.program, _EDGE_DTYPE_PROBE)
        self.edge_dtype = self._base.edge_dtype
        self._columns = _ColumnFrontier(len(self.sources))

    # -- setup ----------------------------------------------------------
    def initial_values(self, graph: DiGraph) -> np.ndarray:
        # Fresh run, fresh values: any column quiescence learned by a
        # previous run of this instance no longer applies.
        self._columns = _ColumnFrontier(len(self.sources))
        values = np.zeros(graph.num_vertices, dtype=self.vertex_dtype)
        columns = values[self.field]
        columns[:] = self.spec.empty
        columns[
            np.asarray(self.sources), np.arange(len(self.sources))
        ] = self.spec.seed
        return values

    def edge_values(self, graph: DiGraph) -> np.ndarray | None:
        return self._base.edge_values(graph)

    def _weight(self, edge_vals, columns: np.ndarray):
        """Per-edge weight shaped to broadcast against ``columns``."""
        if not self.spec.weighted:
            return None
        w = edge_vals[self.edge_dtype.names[0]]
        return w[:, None] if columns.ndim == 2 else w

    # -- scalar device functions (reference path) ------------------------
    def init_compute(self, local_v: dict, v: dict) -> None:
        local_v[self.field] = np.array(v[self.field], copy=True)

    def compute(self, src_v, src_static, edge, local_v) -> None:
        better = np.minimum if self.spec.reduce == "min" else np.maximum
        src = np.asarray(src_v[self.field])
        local_v[self.field] = better(
            local_v[self.field],
            self.spec.proposal(src, self._weight(edge, src)),
        )

    def update_condition(self, local_v, v) -> bool:
        if self.spec.reduce == "min":
            return bool(np.any(local_v[self.field] < v[self.field]))
        return bool(np.any(local_v[self.field] > v[self.field]))

    # -- frontier hook (column compaction) -------------------------------
    def begin_iteration(self, iteration: int) -> None:
        self._columns.begin_iteration(iteration)

    # -- vectorized kernels ----------------------------------------------
    def messages(self, src_vals, src_static, edge_vals, dest_old):
        src = src_vals[self.field]
        retired = self._columns.retired
        if src.ndim == 2 and retired.any():
            # Column compaction: retired (fixpoint) columns contribute the
            # reducer identity without running the proposal arithmetic.
            live = np.flatnonzero(~retired)
            sub = np.ascontiguousarray(src[:, live])
            out = np.full(
                src.shape, np.uint32(self.spec.empty), dtype=src.dtype
            )
            out[:, live] = self.spec.proposal(sub, self._weight(edge_vals, sub))
            return {self.field: out}, None
        msgs = {self.field: self.spec.proposal(src, self._weight(edge_vals, src))}
        return msgs, None  # guard folded into the identity-valued messages

    def apply(self, local, old):
        if self.spec.reduce == "min":
            updated = local[self.field] < old[self.field]
        else:
            updated = local[self.field] > old[self.field]
        if updated.size:
            self._columns.observe(updated.any(axis=0))
        return local, updated.any(axis=1)


# A minimal graph only used to instantiate base programs for their dtype /
# edge_values logic (those never depend on the probe's content).
_EDGE_DTYPE_PROBE = DiGraph(
    np.asarray([0], dtype=np.int64), np.asarray([0], dtype=np.int64), 1,
)


def split_batch_result(
    batch: RunResult, spec: TraversalSpec, column: int, total: int
) -> RunResult:
    """Project one query's single-source view out of a batched result.

    ``values`` is rebuilt in the base program's single-field dtype so a
    caller cannot tell the query was coalesced.  Sweep-level costs (times,
    stats) were paid once for the whole batch; they are reported per query
    as an even ``1/total`` share so that summing over the batch reproduces
    the batch totals.
    """
    single_dtype = struct_dtype(**{spec.field: np.uint32})
    values = np.empty(len(batch.values), dtype=single_dtype)
    values[spec.field] = batch.values[spec.field][:, column]
    share = 1.0 / total
    return RunResult(
        engine=batch.engine,
        program=spec.program,
        values=values,
        iterations=batch.iterations,
        converged=batch.converged,
        kernel_time_ms=batch.kernel_time_ms * share,
        h2d_ms=batch.h2d_ms * share,
        d2h_ms=batch.d2h_ms * share,
        representation_bytes=batch.representation_bytes,
        stats=batch.stats,
        num_edges=batch.num_edges,
        exec_path=batch.exec_path,
        cache_hits=batch.cache_hits,
        cache_misses=batch.cache_misses,
        completed=batch.completed,
        edges_processed=batch.edges_processed,
        shards_skipped=batch.shards_skipped,
        frontier_mask=batch.frontier_mask,
        devices=batch.devices,
        exchange_bytes=batch.exchange_bytes,
        exchange_ms=batch.exchange_ms * share,
    )
