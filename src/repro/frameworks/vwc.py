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
from repro.gpu.stats import KernelStats, LOAD_GRANULARITY_BYTES
from repro.gpu.warp import reduction_slots
from repro.vertexcentric.program import VertexProgram

__all__ = ["VWCEngine", "VIRTUAL_WARP_SIZES"]

VIRTUAL_WARP_SIZES: tuple[int, ...] = (2, 4, 8, 16, 32)
"""The configurations the paper sweeps for VWC-CSR."""

_ROW_CHUNK = 1 << 15


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
            raise ValueError("virtual_warp_size must divide the physical warp")
        if address_dilation < 1:
            raise ValueError("address_dilation must be >= 1")
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

        lane = np.arange(warp, dtype=np.int64)
        lane_vwarp = lane // vw
        lane_rank = lane % vw
        src = csr.src_indxs
        tx = LOAD_GRANULARITY_BYTES

        pos_in = np.cumsum(steps) - steps  # row offset of each warp
        total_rows = int(steps.sum())
        row_warp = np.repeat(np.arange(num_warps), steps)
        row_k = np.arange(total_rows, dtype=np.int64) - np.repeat(pos_in, steps)
        # Loop invariants: each warp's per-lane degree/offset rows, broadcast
        # to lane positions once instead of re-gathered per chunk.
        deg_lane = deg_mat[:, lane_vwarp]
        off_lane = off_mat[:, lane_vwarp]

        for start in range(0, total_rows, _ROW_CHUNK):
            stop = min(start + _ROW_CHUNK, total_rows)
            wm = row_warp[start:stop]
            k = row_k[start:stop, None]
            d = deg_lane[wm]
            o = off_lane[wm]
            r = k * vw + lane_rank[None, :]
            active = r < d
            pos = np.where(active, o + r, 0)
            rows = pos.shape[0]
            n_active = int(active.sum())
            # SrcIndxs reads (4-byte indices, mostly-contiguous per vertex).
            stats.add_load_raw(
                segments_rowwise(pos * 4 // tx, active), n_active * 4
            )
            # VertexValues gathers through SrcIndxs — the non-coalesced cost.
            gsrc = src[pos].astype(np.int64) * self.address_dilation
            stats.add_load_raw(
                segments_rowwise(gsrc * vbytes // tx, active),
                n_active * vbytes,
            )
            if sbytes:
                stats.add_load_raw(
                    segments_rowwise(gsrc * sbytes // tx, active),
                    n_active * sbytes,
                )
            if ebytes:
                stats.add_load_raw(
                    segments_rowwise(pos * ebytes // tx, active),
                    n_active * ebytes,
                )
            stats.add_lanes(n_active, rows * warp,
                            instructions_per_row=costs.INSTR_VWC_EDGE)

    def _chunk_static_phases(
        self, problem: CSRProblem, chunk_size: int
    ) -> list[dict[str, KernelStats]]:
        """Per-chunk lockstep pricing for frontier-gated iterations: element
        ``c`` prices the three static phases of vertices
        ``[c * chunk_size, (c + 1) * chunk_size)`` alone."""
        n = problem.csr.num_vertices
        return [
            self._static_stat_phases(problem, a, min(a + chunk_size, n))
            for a in range(0, n, chunk_size)
        ]

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
            problem = CSRProblem.build(graph, program, cache=cache_opt)
            fp = None if cache is None else graph_fingerprint(graph)
            phases = cached(cache, ("vwc-stats", fp, *layout),
                            lambda: self._static_stat_phases(problem))
            return problem, phases, fp

        (problem, phases, fp), cache_hits, cache_misses = counted(
            cache, lookups
        )
        static_stats = KernelStats()
        for s in phases.values():
            static_stats += s
        vpw = self.spec.warp_size // self.virtual_warp_size
        n = graph.num_vertices

        if config.resume_values is not None:
            # CSRProblem.build initialized fresh values; warm-start from the
            # checkpoint instead (copied — snapshots are frozen).
            problem.vertex_values = np.array(config.resume_values, copy=True)

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
            chunk_phase_list = cached(
                cache, ("vwc-chunk-stats", fp, *layout, chunk_size),
                lambda: self._chunk_static_phases(problem, chunk_size),
            )
            phase_totals = {name: KernelStats() for name in phases}
        if trace_on:
            # Standalone per-phase modeled cost of the static schedule
            # (kernel_launches=0, so no launch overhead) — reused every
            # iteration's stage spans since the schedule is static.
            phase_ms = {
                name: self.cost_model.time_ms(s, occupancy=1.0)
                for name, s in phases.items()
            }

        store_dynamic = KernelStats()
        upd_mask = np.zeros(n, dtype=bool)

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            frontier, last_mask, mdr = it.frontier, it.last_mask, it.mdr
            while True:
                active_chunk_count = 0
                if it.push:
                    # Frontier-gated Gauss-Seidel: only dirty chunks run.
                    # Marks land immediately after each chunk (its updates
                    # are live), so a mark into a later chunk schedules it
                    # within this very iteration — exactly the full sweep's
                    # visibility — while marks into earlier chunks survive
                    # to the next iteration.
                    iter_phases = {name: KernelStats() for name in phases}
                    updated_parts: list[np.ndarray] = []
                    mdr_processed: list[int] = []
                    for c in range(num_chunks):
                        if not frontier.dirty[c]:
                            frontier.shards_skipped += 1
                            continue
                        frontier.dirty[c] = False
                        frontier.edges_processed += int(chunk_edge_counts[c])
                        active_chunk_count += 1
                        if mdr is not None:
                            mdr_processed.append(c)
                        a = c * chunk_size
                        idx, _ops = run_chunk(problem, a, min(a + chunk_size, n))
                        for pname, pstats in chunk_phase_list[c].items():
                            iter_phases[pname] += pstats
                        if idx.size:
                            updated_parts.append(idx)
                            last_mask[idx] = True
                            frontier.mark(idx)
                    if updated_parts:
                        updated_idx = np.concatenate(updated_parts)
                    else:
                        updated_idx = np.empty(0, dtype=np.int64)
                    iter_stats = KernelStats()
                    for pstats in iter_phases.values():
                        iter_stats += pstats
                    iter_stats.kernel_launches = 1 if active_chunk_count else 0
                    if mdr is not None:
                        mdr.note_processed(
                            np.asarray(mdr_processed, dtype=np.int64)
                        )
                else:
                    updated_idx, _ops = iterate_chunks(
                        problem,
                        self.chunk_vertices,
                        metrics=tracer.metrics if trace_on else None,
                    )
                    iter_stats = static_stats.copy()
                    iter_stats.kernel_launches = 1
                    if frontier_on:  # pull: dense sweep over every chunk
                        iter_phases = phases
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
                if frontier_on:
                    for pname, pstats in iter_phases.items():
                        phase_totals[pname] += pstats
                if mdr is not None and updated_idx.size:
                    mdr.note_updated(np.unique(updated_idx // chunk_size))
                stores_iter = KernelStats()
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
                    iter_stats.add_store(store_tc)
                    store_dynamic.add_store(store_tc)
                    stores_iter.add_store(store_tc)
                stages = []
                if trace_on:
                    for pname, pstats in (
                        iter_phases if frontier_on else phases
                    ).items():
                        stages.append((pname, (
                            self.cost_model.time_ms(pstats, occupancy=1.0)
                            if frontier_on else phase_ms[pname]
                        ), pstats))
                    stages.append(("stores", self.cost_model.time_ms(
                        stores_iter, occupancy=1.0), stores_iter))
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
            if frontier_on:
                stage_stats = dict(phase_totals)
            else:
                executed = result.iterations - config.start_iteration
                stage_stats = {
                    name: s.scaled(executed) for name, s in phases.items()
                }
            stage_stats["stores"] = store_dynamic
            result.stage_stats = stage_stats
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
