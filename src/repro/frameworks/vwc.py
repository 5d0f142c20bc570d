"""Virtual Warp-Centric CSR baseline (paper section 2 and Appendix A).

A physical warp of 32 lanes is split into ``32 / virtual_warp_size`` virtual
warps, each owning one vertex per outer step.  The virtual warp's lanes
process the vertex's incoming edges ``virtual_warp_size`` at a time, reduce
the partials with an intra-virtual-warp parallel reduction, and lane 0
conditionally stores the new value.

The hardware accounting materializes the *exact lockstep schedule*: for
every physical-warp step it derives the 32 lanes' edge slots, masks inactive
lanes (tail edges, exhausted sibling virtual warps — the intra-warp
divergence the paper describes), and prices the four access streams
(``SrcIndxs`` reads, ``VertexValues`` gathers — the non-coalesced killer —
``EdgeValues`` reads, static-value gathers).  The schedule is static across
iterations because VWC processes every vertex every iteration, so it is
priced once per ``(graph, program, virtual-warp-size)``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.cache import cached, counted, graph_fingerprint, resolve_cache
from repro.errors import ConfigError
from repro.frameworks import costs
from repro.frameworks.base import Engine, RunConfig, RunResult
from repro.frameworks.csrloop import (CSRProblem, cache_option,
                                     iterate_chunks, preflight_csr, run_chunk)
from repro.frameworks.frontier import resume_dirty
from repro.frameworks.sweep import (SweepContext, SweepPlan, SweepStep,
                                    run_sweeps)
from repro.graph.digraph import DiGraph
from repro.gpu.engine import KernelCostModel
from repro.gpu.memory import contiguous_transactions, gather_transactions, segments_rowwise
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STAT_FIELDS, STORE_COLUMNS, stats_from_row,
                             stats_to_row)
from repro.gpu.warp import reduction_slots
from repro.vertexcentric.program import VertexProgram

__all__ = ["VWCEngine", "VIRTUAL_WARP_SIZES"]

VIRTUAL_WARP_SIZES: tuple[int, ...] = (2, 4, 8, 16, 32)
"""The configurations the paper sweeps for VWC-CSR."""

_ROW_CHUNK = 1 << 12

#: The rows of a VWC stats matrix: the three static phases of the lockstep
#: schedule, then lane 0's conditional stores.
_PHASES = ("sisd", "edge-loop", "reduction", "stores")


class VWCEngine(Engine):
    """VWC-CSR with a given virtual warp size."""

    def __init__(
        self,
        virtual_warp_size: int = 32,
        *,
        spec: GPUSpec = GTX780,
        pcie: PCIeSpec | None = None,
        chunk_vertices: int | None = None,
        address_dilation: int = 1,
        defer_outliers: bool = False,
        outlier_factor: int = 4,
        cache=None,
    ) -> None:
        if virtual_warp_size not in (1, 2, 4, 8, 16, 32):
            raise ConfigError(
                "virtual_warp_size must divide the physical warp",
                knob="virtual_warp_size",
            )
        if address_dilation < 1:
            raise ConfigError("address_dilation must be >= 1",
                              knob="address_dilation")
        self.virtual_warp_size = virtual_warp_size
        # When pricing a 1/k-scale graph, multiplying data-dependent gather
        # indices by k restores the full-size graph's address-space density:
        # a scaled-down vertex array would otherwise fit neighboring sources
        # into the same 32-byte sector far more often than the real dataset
        # does, flattering VWC's non-coalesced gathers.  Structural streams
        # (SrcIndxs, EdgeValues) are contiguous at every scale and are not
        # dilated.
        self.address_dilation = address_dilation
        # The [12] "deferring outliers" variant: vertices whose degree
        # exceeds outlier_factor * virtual_warp_size are pulled out of the
        # virtual-warp pass and processed by full physical warps in a second
        # phase — less intra-warp divergence at the cost of the queueing
        # machinery (priced as extra SISD work per deferred vertex).
        self.defer_outliers = defer_outliers
        self.outlier_factor = outlier_factor
        self.cache = cache
        self.spec = spec
        self.pcie = pcie or PCIeSpec()
        self.cost_model = KernelCostModel(spec)
        # Vertices concurrently in flight: the resident virtual warps.  This
        # is the chunk at which in-place updates become visible (chunked
        # Gauss-Seidel), mirroring the true kernel's single-version storage.
        if chunk_vertices is None:
            resident = (
                spec.num_sms * spec.max_threads_per_sm // virtual_warp_size
            )
            chunk_vertices = max(8192, resident)
        self.chunk_vertices = chunk_vertices
        self.name = f"vwc-{virtual_warp_size}"
        if defer_outliers:
            self.name += "-deferred"

    # ------------------------------------------------------------------
    # Static schedule pricing
    # ------------------------------------------------------------------
    def _static_stats(self, problem: CSRProblem) -> KernelStats:
        """Aggregate of :meth:`_static_stat_phases` (kept for tests)."""
        total = KernelStats()
        for s in self._static_stat_phases(problem).values():
            total += s
        return total

    def _static_stat_phases(
        self, problem: CSRProblem, lo: int = 0, hi: int | None = None
    ) -> dict[str, KernelStats]:
        """Price the lockstep schedule for vertices ``[lo, hi)`` (defaults to
        the whole graph).  A range restriction prices a frontier-gated chunk:
        when ``lo`` is a multiple of ``warp / virtual_warp_size`` the chunk's
        physical-warp rows are the same rows a full sweep would form, so the
        per-chunk phases sum exactly to the full-sweep phases."""
        spec = self.spec
        warp = spec.warp_size
        vw = self.virtual_warp_size
        vpw = warp // vw
        prog = problem.program
        vbytes = prog.vertex_value_bytes
        sbytes = prog.static_value_bytes
        ebytes = prog.edge_value_bytes
        csr = problem.csr
        if hi is None:
            hi = csr.num_vertices
        n = hi - lo
        deg = np.diff(csr.in_edge_idxs[lo:hi + 1])
        offs = csr.in_edge_idxs[lo:hi]

        sisd = KernelStats()
        edges = KernelStats()
        reduction = KernelStats()

        # --- SISD prologue/epilogue (Fig. 14 lines 10-15): lane 0 of each
        # virtual warp reads InEdgeIdxs[v], InEdgeIdxs[v+1], VertexValues[v].
        # The vpw active lanes of a physical warp touch consecutive vertices,
        # so grouping rows by vpw consecutive elements prices it exactly.
        sector = LOAD_GRANULARITY_BYTES
        sisd.add_load(contiguous_transactions(n, 4, start_byte=lo * 4,
                                              warp_size=vpw,
                                              transaction_bytes=sector))
        sisd.add_load(contiguous_transactions(n, 4, start_byte=lo * 4,
                                              warp_size=vpw,
                                              transaction_bytes=sector))
        sisd.add_load(contiguous_transactions(n, vbytes, start_byte=lo * vbytes,
                                              warp_size=vpw,
                                              transaction_bytes=sector))
        num_warps = -(-n // vpw)
        sisd.add_lanes(n, num_warps * warp,
                       instructions_per_row=costs.INSTR_VWC_SISD)

        # --- Edge loop(s).
        if self.defer_outliers:
            threshold = self.outlier_factor * vw
            outlier = deg > threshold
            deg_regular = np.where(outlier, 0, deg)
            self._edge_loop_stats(edges, deg_regular, offs, csr, vw,
                                  vbytes, sbytes, ebytes)
            # Deferred phase: outliers get one full physical warp each
            # (vw = warp), plus queueing overhead per deferred vertex.
            deg_outlier = np.where(outlier, deg, 0)
            if outlier.any():
                self._edge_loop_stats(edges, deg_outlier, offs, csr, warp,
                                      vbytes, sbytes, ebytes)
                n_out = int(outlier.sum())
                sisd.add_instructions(n_out * costs.INSTR_VWC_SISD)
                reduction.add_lanes(
                    *reduction_slots(deg_outlier, warp, warp),
                    instructions_per_row=costs.INSTR_VWC_REDUCE)
            active_r, total_r = reduction_slots(deg_regular, vw, warp)
        else:
            self._edge_loop_stats(edges, deg, offs, csr, vw,
                                  vbytes, sbytes, ebytes)
            active_r, total_r = reduction_slots(deg, vw, warp)

        # --- Intra-virtual-warp parallel reduction (shared memory only).
        reduction.add_lanes(active_r, total_r,
                            instructions_per_row=costs.INSTR_VWC_REDUCE)
        return {"sisd": sisd, "edge-loop": edges, "reduction": reduction}

    def _edge_loop_stats(
        self,
        stats: KernelStats,
        deg: np.ndarray,
        offs: np.ndarray,
        csr,
        vw: int,
        vbytes: int,
        sbytes: int,
        ebytes: int,
    ) -> None:
        """Price the lockstep neighbor loop for a (possibly masked) degree
        vector at virtual warp size ``vw`` (chunked over physical warps)."""
        warp = self.spec.warp_size
        vpw = warp // vw
        n = deg.size
        num_warps = -(-n // vpw)
        degp = np.zeros(num_warps * vpw, dtype=np.int64)
        degp[:n] = deg
        offp = np.zeros(num_warps * vpw, dtype=np.int64)
        offp[:n] = offs
        deg_mat = degp.reshape(num_warps, vpw)
        off_mat = offp.reshape(num_warps, vpw)
        steps = (-(-deg_mat // vw)).max(axis=1)  # physical-warp steps

        lane_rank = np.arange(warp, dtype=np.int64) % vw
        src = csr.src_indxs
        tx = LOAD_GRANULARITY_BYTES

        pos_in = np.cumsum(steps) - steps  # row offset of each warp
        total_rows = int(steps.sum())
        row_warp = np.repeat(np.arange(num_warps), steps)
        row_k = np.arange(total_rows, dtype=np.int64) - np.repeat(pos_in, steps)

        # Blocks of _ROW_CHUNK rows bound the (rows, warp) temporaries; each
        # lane's degree and offset come from its virtual warp's column.
        for start in range(0, total_rows, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, total_rows)
            wm = row_warp[start:stop]
            pos = row_k[start:stop, None] * vw + lane_rank
            active = pos < np.repeat(deg_mat[wm], vw, axis=1)
            pos += np.repeat(off_mat[wm], vw, axis=1)
            pos *= active  # inactive lanes read slot 0, which they never price
            rows = pos.shape[0]
            n_active = int(active.sum())
            # SrcIndxs reads (4-byte indices, mostly-contiguous per vertex).
            stats.add_load_raw(
                segments_rowwise(pos * 4 // tx, active), n_active * 4
            )
            # VertexValues gathers through SrcIndxs — the non-coalesced cost.
            gsrc = src[pos].astype(np.int64) * self.address_dilation
            value_tx = segments_rowwise(gsrc * vbytes // tx, active)
            stats.add_load_raw(value_tx, n_active * vbytes)
            if sbytes:
                # StaticVertexValues gathers through the same SrcIndxs; at
                # the same width its segments are identical: price once,
                # charge twice.
                if sbytes != vbytes:
                    value_tx = segments_rowwise(gsrc * sbytes // tx, active)
                stats.add_load_raw(value_tx, n_active * sbytes)
            if ebytes:
                stats.add_load_raw(
                    segments_rowwise(pos * ebytes // tx, active),
                    n_active * ebytes,
                )
            stats.add_lanes(n_active, rows * warp,
                            instructions_per_row=costs.INSTR_VWC_EDGE)

    def _phase_rows(
        self, problem: CSRProblem, lo: int = 0, hi: int | None = None
    ) -> np.ndarray:
        """:meth:`_static_stat_phases` as a ``(3, len(STAT_FIELDS))``
        matrix, one row per static phase."""
        phases = self._static_stat_phases(problem, lo, hi)
        return np.array([stats_to_row(s) for s in phases.values()])

    def _chunk_phase_rows(
        self, problem: CSRProblem, chunk_size: int
    ) -> np.ndarray:
        """Per-chunk lockstep pricing for frontier-gated iterations, a
        ``(chunks, 3, len(STAT_FIELDS))`` array: element ``c`` prices the
        three static phases of vertices
        ``[c * chunk_size, (c + 1) * chunk_size)`` alone."""
        n = problem.csr.num_vertices
        return np.array([
            self._phase_rows(problem, a, min(a + chunk_size, n))
            for a in range(0, n, chunk_size)
        ]).reshape(-1, 3, len(STAT_FIELDS))

    # ------------------------------------------------------------------
    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CSR this run iterates, via the same cache key ``_run`` uses."""
        return preflight_csr(self, graph, config)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """The static lockstep-schedule phases (``sisd``, ``edge-loop``,
        ``reduction``) one iteration re-emits verbatim; the conditional
        ``stores`` phase is dynamic and deliberately absent."""
        problem = CSRProblem.build(graph, program, cache=self.cache)
        return self._static_stat_phases(problem)

    # ------------------------------------------------------------------
    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        return run_sweeps(self, graph, program, config, self._plan)

    def _plan(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> SweepPlan:
        tracer = config.tracer
        trace_on = tracer.enabled
        frontier_on = config.frontier != "off"
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        cache_opt = cache_option(self, config)
        cache = resolve_cache(cache_opt)
        # The lockstep schedule is static per (graph structure, virtual
        # warp config, value layout): cache the priced phases.
        layout = (self.virtual_warp_size, self.address_dilation,
                  self.defer_outliers, self.outlier_factor,
                  self.spec.warp_size, vbytes, sbytes, ebytes)

        def lookups():
            fp = None if cache is None else graph_fingerprint(graph)
            problem = CSRProblem.build(graph, program, cache=cache_opt, fp=fp)
            full = cached(cache, ("vwc-stats", fp, *layout),
                          lambda: self._phase_rows(problem))
            return problem, full, fp

        (problem, full, fp), cache_hits, cache_misses = counted(
            cache, lookups
        )
        vpw = self.spec.warp_size // self.virtual_warp_size
        n = graph.num_vertices

        if config.resume is not None:
            # CSRProblem.build initialized fresh values; warm-start from the
            # checkpoint instead.
            problem.vertex_values = config.initial_values(graph, program)

        # The scheduling unit is the Gauss-Seidel vertex chunk: updates land
        # live at each chunk's end, so marks flush immediately
        # (flush_pos == chunk index).
        chunk_size = self.chunk_vertices
        num_chunks = -(-n // chunk_size)
        chunk_bounds = np.minimum(
            np.arange(num_chunks + 1, dtype=np.int64) * chunk_size, n
        )
        chunk_edge_counts = np.diff(problem.csr.in_edge_idxs[chunk_bounds])
        chunk_flush_pos = np.arange(num_chunks, dtype=np.int64)
        total_in_edges = int(problem.csr.in_edge_idxs[-1])
        if frontier_on:
            chunk_rows = cached(
                cache, ("vwc-chunk-stats", fp, *layout, chunk_size),
                lambda: self._chunk_phase_rows(problem, chunk_size),
            )

        # The run's phase rows: the sum of every iteration's ``rows``.
        run_rows = np.zeros((len(_PHASES), len(STAT_FIELDS)), dtype=np.float64)
        upd_mask = np.zeros(n, dtype=bool)

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            frontier, last_mask, mdr = it.frontier, it.last_mask, it.mdr
            while True:
                rows = np.zeros_like(run_rows)
                if it.push:
                    # Frontier-gated Gauss-Seidel: only dirty chunks run.
                    # Marks land immediately after each chunk (its updates
                    # are live), so a mark into a later chunk schedules it
                    # within this very iteration — exactly the full sweep's
                    # visibility — while marks into earlier chunks survive
                    # to the next iteration.
                    ran: list[int] = []
                    updated_parts = [np.empty(0, dtype=np.int64)]
                    for c in range(num_chunks):
                        if not frontier.dirty[c]:
                            frontier.shards_skipped += 1
                            continue
                        frontier.dirty[c] = False
                        frontier.edges_processed += int(chunk_edge_counts[c])
                        ran.append(c)
                        a = c * chunk_size
                        idx, _ops = run_chunk(
                            problem, a, min(a + chunk_size, n), chunk_size
                        )
                        if idx.size:
                            updated_parts.append(idx)
                            last_mask[idx] = True
                            frontier.mark(idx)
                    updated_idx = np.concatenate(updated_parts)
                    rows[:3] = chunk_rows[ran].sum(axis=0)
                    launches = 1 if ran else 0
                    active_chunk_count = len(ran)
                    if mdr is not None:
                        mdr.note_processed(np.asarray(ran, dtype=np.int64))
                else:
                    updated_idx, _ops = iterate_chunks(
                        problem,
                        self.chunk_vertices,
                        metrics=tracer.metrics if trace_on else None,
                    )
                    rows[:3] = full
                    launches = 1
                    active_chunk_count = 0
                    if frontier_on:  # pull: dense sweep over every chunk
                        active_chunk_count = num_chunks
                        frontier.edges_processed += total_in_edges
                        last_mask[updated_idx] = True
                        # The exact end-of-iteration bitmap a gated sweep
                        # would leave behind (live marks minus the clears of
                        # later-processed chunks).
                        frontier.dirty = resume_dirty(
                            last_mask, chunk_size, num_chunks,
                            frontier.indptr, frontier.targets,
                            chunk_flush_pos,
                        )
                if mdr is not None and updated_idx.size:
                    mdr.note_updated(np.unique(updated_idx // chunk_size))
                if updated_idx.size:
                    # Lane-0 conditional stores: group vertices by physical warp
                    # (vpw consecutive vertices per warp row).
                    upd_mask[:] = False
                    upd_mask[updated_idx] = True
                    store_tc = gather_transactions(
                        np.arange(n, dtype=np.int64),
                        vbytes,
                        active=upd_mask,
                        warp_size=vpw,
                    )
                    rows[3, STORE_COLUMNS] = (store_tc.transactions,
                                        store_tc.bytes_requested)
                run_rows[:] += rows
                iter_stats = stats_from_row(rows.sum(axis=0))
                iter_stats.kernel_launches = launches
                stages = []
                if trace_on:
                    stages = [
                        (name, self.cost_model.time_ms(st, occupancy=1.0), st)
                        for name, st in zip(_PHASES, map(stats_from_row, rows))
                    ]
                yield SweepStep(
                    int(updated_idx.size),
                    iter_stats,
                    self.cost_model.time_ms(iter_stats, occupancy=1.0),
                    active_chunk_count,
                    None,
                    {},
                    stages,
                )

        def finish(result: RunResult) -> None:
            result.stage_stats = dict(zip(_PHASES,
                                          map(stats_from_row, run_rows)))
            if trace_on:
                m = tracer.metrics
                m.gauge("vwc.virtual_warp_size").set(self.virtual_warp_size)
                m.gauge("vwc.chunk_vertices").set(self.chunk_vertices)

        return SweepPlan(
            sweeps=sweeps,
            finish=finish,
            values=problem.vertex_values,
            unit_size=chunk_size,
            unit_edges=chunk_edge_counts,
            flush_pos=chunk_flush_pos,
            representation_bytes=problem.csr.memory_bytes(
                vbytes, ebytes, sbytes
            ),
            launch=(0, 0),
            cache=cache,
            fingerprint=fp,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )
