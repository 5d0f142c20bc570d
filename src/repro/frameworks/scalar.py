"""Scalar reference engine and the one executor of the scalar interface.

CuSha's programming interface is three scalar device functions
(``init_compute`` / ``compute`` / ``update_condition``).  This module is
the only place that runs them, with plain Python loops over two shapes of
the same graph:

* :func:`shard_sweep` follows Figure 5 line by line over a G-Shards
  structure (stages 1-4), including the per-entry "atomic" update (a
  sequential dict mutation, which is a legal serialization of any
  commutative/associative reduction).  :class:`ScalarReferenceEngine` and
  the race detector's stage and frontier checks run it.
* :func:`vertex_sweep` folds each vertex's in-edges in edge order, either
  from a pre-sweep snapshot (BSP) or from live values (Gauss-Seidel), and
  can permute each vertex's fold order.  The kernel-certificate
  falsifiers, the range cross-checks and the race detector's
  order-sensitivity check run it.

Both hand the device functions the same mutable dict records.  The engine
is deliberately slow and simple: its only job is to be an independent
oracle.  Tests assert the vectorized engines produce identical values on
randomized graphs, which pins the vectorized kernels to the paper's
semantics.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.graph.digraph import DiGraph
from repro.graph.order import edge_order
from repro.graph.shards import GShards
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram

__all__ = ["ScalarReferenceEngine", "shard_sweep", "vertex_sweep"]


def _record(array: np.ndarray, i: int) -> dict:
    """Mutable dict view of structured-array element ``i``."""
    return {name: array[name][i] for name in array.dtype.names}


def _store(array: np.ndarray, i: int, rec: dict) -> None:
    """Write the fields of ``rec`` into structured-array element ``i``."""
    for name in array.dtype.names:
        array[name][i] = rec[name]


def _as_is(rec: dict, role: str, stage: str) -> dict:
    return rec


def shard_sweep(
    program: VertexProgram,
    sh: GShards,
    values: np.ndarray,
    src_value: np.ndarray,
    src_static: np.ndarray | None,
    edge_vals: np.ndarray | None,
    *,
    shards=None,
    writeback: bool = True,
    wrap=None,
) -> list[int]:
    """Figure 5's stages 1-4 over G-Shards; returns the updated vertex ids.

    ``values`` is VertexValues; ``src_value``, ``src_static`` and
    ``edge_vals`` are the shard entries' SrcValue, static and edge records
    in G-Shards order.  ``shards`` is the subset of shards to run (all, in
    order, by default).  ``writeback=True`` refreshes every window sourced
    from an updated shard at once (stage 4); with ``False`` the caller owns
    ``src_value``, e.g. as a BSP snapshot.  ``wrap(rec, role, stage)``
    receives every record a device function is handed (``role`` is
    ``"vertex"``, ``"local"``, ``"static"`` or ``"edge"``) and returns the
    record to hand over instead.
    """
    wrap = wrap or _as_is
    updated: list[int] = []
    for i in range(sh.num_shards) if shards is None else shards:
        i = int(i)
        lo, hi = sh.vertex_range(i)
        # Stage 1: init local vertices from VertexValues.
        locals_ = []
        for v in range(lo, hi):
            rec = wrap(_record(values, v), "vertex", "stage1-init")
            local = wrap(dict(rec), "local", "stage1-init")
            program.init_compute(local, rec)
            locals_.append(local)
        # Stage 2: fold every shard entry into its destination.
        sl = sh.shard_slice(i)
        for e in range(sl.start, sl.stop):
            program.compute(
                wrap(_record(src_value, e), "vertex", "stage2-compute"),
                None if src_static is None
                else wrap(_record(src_static, e), "static", "stage2-compute"),
                None if edge_vals is None
                else wrap(_record(edge_vals, e), "edge", "stage2-compute"),
                locals_[int(sh.dest_index[e]) - lo],
            )
        # Stage 3: conditional write-back to VertexValues.
        shard_updated = False
        for v in range(lo, hi):
            rec = wrap(_record(values, v), "vertex", "stage3-update")
            if program.update_condition(locals_[v - lo], rec):
                _store(values, v, locals_[v - lo])
                updated.append(v)
                shard_updated = True
        # Stage 4: propagate into every window sourced from shard i.
        if writeback and shard_updated:
            for _j, start, stop in sh.windows_of(i):
                for e in range(start, stop):
                    src_value[e] = values[int(sh.src_index[e])]
    return updated


def vertex_sweep(
    program: VertexProgram,
    graph: DiGraph,
    values: np.ndarray,
    statics: np.ndarray | None,
    edges: np.ndarray | None,
    *,
    jacobi: bool = True,
    rng: np.random.Generator | None = None,
) -> int:
    """One iteration folding each vertex's in-edges; returns the update count.

    ``statics`` is indexed by vertex and ``edges`` by edge id.
    ``jacobi=True`` reads from a pre-sweep snapshot (BSP); ``jacobi=False``
    reads live values (Gauss-Seidel, the async schedule's limit case).
    In-edges fold in edge order, or in an order drawn from ``rng`` per
    vertex when it is given.
    """
    read = values.copy() if jacobi else values
    order = edge_order(graph.dst)
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(graph.in_degrees(), out=indptr[1:])
    updates = 0
    for v in range(graph.num_vertices):
        rec = _record(read, v)
        local = dict(rec)
        program.init_compute(local, rec)
        eidx = order[indptr[v]:indptr[v + 1]]
        if rng is not None and len(eidx) > 1:
            eidx = rng.permutation(eidx)
        for e in eidx:
            src = int(graph.src[e])
            program.compute(
                _record(read, src),
                None if statics is None else _record(statics, src),
                None if edges is None else _record(edges, int(e)),
                local,
            )
        if program.update_condition(local, _record(read, v)):
            _store(values, v, local)
            updates += 1
    return updates


class ScalarReferenceEngine(Engine):
    """Loop-based executor of the scalar programming interface."""

    name = "scalar-reference"

    def __init__(self, vertices_per_shard: int = 4) -> None:
        self.vertices_per_shard = vertices_per_shard

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The G-Shards structure the reference loop walks."""
        return (GShards(graph, self.vertices_per_shard),)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """The oracle models no hardware: nothing to predict."""
        return {}

    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        tracer = config.tracer
        with tracer.span(
            self.name,
            "run",
            engine=self.name,
            program=program.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        ) as run_span:
            return self._execute(graph, program, config, run_span)

    def _execute(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig, run_span
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        sh = GShards(graph, self.vertices_per_shard)
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]
        src_value = vertex_values[sh.src_index].copy()
        src_static = None if static_all is None else static_all[sh.src_index]

        faults = config.faults
        traces: list[IterationTrace] = []
        converged = False
        iterations = config.start_iteration
        for iteration in range(config.start_iteration + 1, max_iterations + 1):
            if faults.active:
                faults.kernel(self.name, iteration, "reference")
            updated_total = len(shard_sweep(
                program, sh, vertex_values, src_value, src_static, edge_vals
            ))
            iterations = iteration
            traces.append(IterationTrace(iteration, updated_total, 0.0, 0.0))
            if tracer.enabled:
                # The oracle models no hardware: spans carry wall time only.
                tracer.emit(
                    f"iter-{iteration}", "iteration",
                    updated_vertices=updated_total,
                )
                tracer.metrics.histogram(
                    "engine.updated_vertices"
                ).observe(updated_total)
            if faults.active:
                faults.values(self.name, iteration, vertex_values)
            if updated_total == 0:
                converged = True
                break
        if not converged and not config.allow_partial:
            raise ConvergenceError(
                f"{self.name}/{program.name} did not converge in "
                f"{max_iterations} iterations"
            )
        if tracer.enabled:
            tracer.metrics.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
        return RunResult(
            engine=self.name,
            program=program.name,
            values=vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=0.0,
            h2d_ms=0.0,
            d2h_ms=0.0,
            representation_bytes=0,
            stats=KernelStats(),
            traces=traces,
            num_edges=graph.num_edges,
            # The oracle has a single (reference-shaped) loop; it never
            # consults config.exec_path or the representation cache.
            exec_path="reference",
        )
