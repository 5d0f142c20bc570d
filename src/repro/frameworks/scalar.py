"""Scalar reference engine.

Executes the paper's *scalar* device functions (``init_compute`` /
``compute`` / ``update_condition``) with plain Python loops over a G-Shards
structure, following Figure 5 line by line — including the per-entry
"atomic" update (a sequential dict mutation, which is a legal serialization
of any commutative/associative reduction).

It is deliberately slow and simple: its only job is to be an independent
oracle.  Tests assert the vectorized engines produce identical values on
randomized graphs, which pins the vectorized kernels to the paper's
semantics.
"""

from __future__ import annotations

import numpy as np

from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.graph.digraph import DiGraph
from repro.graph.shards import GShards
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram

__all__ = ["ScalarReferenceEngine"]


def _record(array: np.ndarray, i: int) -> dict:
    """Mutable dict view of structured-array element ``i``."""
    return {name: array[name][i] for name in array.dtype.names}


def _store(array: np.ndarray, i: int, rec: dict) -> None:
    for name in array.dtype.names:
        array[name][i] = rec[name]


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
            updated_total = 0
            for i in range(sh.num_shards):
                lo, hi = sh.vertex_range(i)
                # Stage 1: init local vertices from VertexValues.
                locals_ = []
                for v in range(lo, hi):
                    rec = _record(vertex_values, v)
                    local = dict(rec)
                    program.init_compute(local, rec)
                    locals_.append(local)
                # Stage 2: fold every shard entry into its destination.
                sl = sh.shard_slice(i)
                for e in range(sl.start, sl.stop):
                    program.compute(
                        _record(src_value, e),
                        None if src_static is None else _record(src_static, e),
                        None if edge_vals is None else _record(edge_vals, e),
                        locals_[int(sh.dest_index[e]) - lo],
                    )
                # Stage 3: conditional write-back to VertexValues.
                shard_updated = False
                for v in range(lo, hi):
                    rec = _record(vertex_values, v)
                    if program.update_condition(locals_[v - lo], rec):
                        _store(vertex_values, v, locals_[v - lo])
                        shard_updated = True
                        updated_total += 1
                # Stage 4: propagate into every window sourced from shard i.
                if shard_updated:
                    for _j, start, stop in sh.windows_of(i):
                        for e in range(start, stop):
                            src_value[e] = vertex_values[int(sh.src_index[e])]
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
