"""Multithreaded CPU CSR baseline (the paper's MTCPU-CSR).

The paper's baseline is a pthreads implementation where each thread owns a
contiguous range of vertices of the incoming-edge CSR.  Python threads
cannot reproduce that timing directly (the GIL serializes them), so this
engine computes the *values* with the same chunked-per-thread semantics and
prices the run with a calibrated multicore cost model
(:class:`repro.gpu.spec.CPUSpec`):

- issue time — per-edge and per-vertex instruction costs divided by the
  effective parallelism of the chosen thread count (physical cores, then
  diminishing SMT returns, then oversubscription penalties);
- memory time — streamed CSR bytes plus the random ``VertexValues`` gather,
  whose cache-line miss rate grows as the vertex working set outgrows the
  LLC;
- synchronization — one barrier per iteration, linear in thread count.

As in the paper, the *best* thread count depends on the graph, and a
single-thread run bounds the CPU's worst case (Table 6's maxima).
"""

from __future__ import annotations

from repro.frameworks.base import (ConvergenceError, Engine, IterationTrace,
                                   RunConfig, RunResult)
from repro.cache import counted, resolve_cache
from repro.frameworks.csrloop import (CSRProblem, cache_option,
                                     iterate_chunks, preflight_csr)
from repro.graph.digraph import DiGraph
from repro.gpu.spec import CPUSpec, I7_3930K
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram

__all__ = ["MTCPUEngine", "MTCPU_THREAD_COUNTS"]

MTCPU_THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)
"""The thread counts the paper sweeps."""


class MTCPUEngine(Engine):
    """CSR processing on the modeled host CPU with ``threads`` workers."""

    def __init__(
        self, threads: int = 12, *, spec: CPUSpec = I7_3930K, cache=None
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be positive")
        self.threads = threads
        self.spec = spec
        self.cache = cache
        self.name = f"mtcpu-{threads}"

    # ------------------------------------------------------------------
    def _iteration_ms(self, graph: DiGraph, program: VertexProgram) -> float:
        spec = self.spec
        n, m = graph.num_vertices, graph.num_edges
        vbytes = program.vertex_value_bytes
        ebytes = program.edge_value_bytes
        sbytes = program.static_value_bytes

        issue_cycles = m * spec.edge_cycles + n * spec.vertex_cycles
        issue_s = issue_cycles / (spec.clock_ghz * 1e9) / spec.effective_parallelism(
            self.threads
        )

        # Random gathers: one potential cache line per edge, discounted by
        # how much of the vertex working set the LLC covers.
        working_set = max(1, n * (vbytes + sbytes))
        miss_rate = min(1.0, max(0.05, 1.0 - spec.llc_bytes / working_set))
        random_bytes = m * spec.cache_line_bytes * miss_rate
        stream_bytes = m * (4 + ebytes) + n * (2 * vbytes + 8)
        mem_s = (random_bytes + stream_bytes) / (spec.mem_bandwidth_gb_per_s * 1e9)

        sync_s = self.threads * spec.sync_overhead_us_per_thread / 1e6
        return (max(issue_s, mem_s) + sync_s) * 1e3

    # ------------------------------------------------------------------
    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CSR this run iterates, via the same cache key ``_run`` uses."""
        return preflight_csr(self, graph, config)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """The CPU baseline emits no GPU kernel stats: nothing to
        predict (its time model is analytic, not counter-driven)."""
        return {}

    # ------------------------------------------------------------------
    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        max_iterations = config.max_iterations
        tracer = config.tracer
        trace_on = tracer.enabled
        with tracer.span(
            self.name,
            "run",
            engine=self.name,
            program=program.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            threads=self.threads,
        ) as run_span:
            cache_opt = cache_option(self, config)
            problem, cache_hits, cache_misses = counted(
                resolve_cache(cache_opt),
                lambda: CSRProblem.build(graph, program, cache=cache_opt),
            )
            if config.resume_values is not None:
                problem.vertex_values = config.initial_values(graph, program)
            chunk = max(1, -(-graph.num_vertices // self.threads))
            iter_ms = self._iteration_ms(graph, program)

            faults = config.faults
            traces: list[IterationTrace] = []
            kernel_ms = 0.0
            converged = False
            iterations = config.start_iteration
            for iteration in range(
                config.start_iteration + 1, max_iterations + 1
            ):
                if faults.active:
                    faults.kernel(self.name, iteration, config.exec_path)
                with tracer.span(
                    f"iter-{iteration}", "iteration", model_start_ms=kernel_ms
                ) as it_span:
                    updated_idx, _ops = iterate_chunks(
                        problem,
                        chunk,
                        metrics=tracer.metrics if trace_on else None,
                    )
                    kernel_ms += iter_ms
                    iterations = iteration
                    if config.collect_traces:
                        traces.append(
                            IterationTrace(
                                iteration, int(updated_idx.size), iter_ms,
                                kernel_ms,
                            )
                        )
                    if trace_on:
                        it_span.model_ms = iter_ms
                        it_span.attrs["updated_vertices"] = int(updated_idx.size)
                        tracer.metrics.histogram(
                            "engine.updated_vertices"
                        ).observe(int(updated_idx.size))
                if faults.active:
                    faults.values(self.name, iteration, problem.vertex_values)
                if updated_idx.size == 0:
                    converged = True
                    break
            if not converged and not config.allow_partial:
                raise ConvergenceError(
                    f"{self.name}/{program.name} did not converge in "
                    f"{max_iterations} iterations"
                )
            if trace_on:
                m = tracer.metrics
                m.counter("engine.iterations").inc(
                    iterations - config.start_iteration
                )
                m.gauge("mtcpu.threads").set(self.threads)
                m.gauge("mtcpu.chunk_vertices").set(chunk)
                run_span.model_ms = kernel_ms
                run_span.attrs["iterations"] = iterations
                run_span.attrs["converged"] = converged
        rep_bytes = problem.csr.memory_bytes(
            program.vertex_value_bytes,
            program.edge_value_bytes,
            program.static_value_bytes,
        )
        return RunResult(
            engine=self.name,
            program=program.name,
            values=problem.vertex_values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=0.0,  # CPU runs pay no PCIe transfers
            d2h_ms=0.0,
            representation_bytes=rep_bytes,
            stats=KernelStats(),  # no GPU profiler metrics for CPU runs
            traces=traces,
            num_edges=graph.num_edges,
            exec_path=config.exec_path,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
