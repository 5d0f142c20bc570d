"""The CuSha engine (paper sections 3-4, Figure 5).

One simulated GPU block processes one shard per iteration, in the paper's
four stages:

1. fetch the shard's vertex range from ``VertexValues`` into shared memory
   (coalesced loads);
2. run ``compute`` over the shard entries in parallel, reducing into the
   shared local values with shared-memory atomics (coalesced entry loads);
3. run ``update_condition`` and conditionally store back to ``VertexValues``
   (coalesced loads, conditional coalesced stores);
4. if anything updated, propagate the shard's new vertex values into the
   ``SrcValue`` slots of every computation window that sources from this
   shard — warp-per-window walks under G-Shards (``mode="gs"``), one thread
   per Concatenated-Window entry under CW (``mode="cw"``).

Both modes propagate *identical values* (CW merely reorders the write-back
work list), so they converge identically; they differ in the lane- and
transaction-level activity the stats record — exactly the paper's story.

``sync_mode`` selects the shard schedule: ``"wave"`` (default) executes
shards in waves of concurrently-resident blocks with write-backs visible at
wave boundaries — the visibility a real grid of blocks provides, and the
reason CuSha needs a few more iterations than single-version CSR (paper
Figure 7); ``"async"`` makes every write-back immediately visible (fully
sequential schedule), ``"bsp"`` defers all visibility to the iteration
boundary.  All three converge to the same fixpoint; hardware accounting is
identical.

Execution paths
---------------
The iteration protocol — fault hooks, transfers, frontier direction,
multi-device exchange, traces, convergence, the result — lives once in
:func:`repro.frameworks.sweep.run_sweeps`.  This module supplies only the
representation build and one ``sweeps`` operator per path, which executes
and prices one iteration per step.

``config.exec_path`` selects the operator.  The default ``"fast"``
operator batches each wave into one vectorized step.  It rests on the
*wave-start invariant*: at every wave start, ``SrcValue`` equals
``VertexValues[SrcIndex]``, because values change only in updated shards
and an updated shard's stage 4 refreshes every entry it sources (its
``CW_i`` slice).  So the fast path never materialises ``SrcValue``: each
wave gathers ``VertexValues[SrcIndex]`` before its own updates land, and
stage 4 is priced per updated shard from ``bundle.stage4``.  Each shard
exclusively owns its destination-vertex slice, so running ``messages`` /
``apply_reductions`` / ``apply`` once over a wave's concatenated entries
is bit-identical to the per-shard loop (``ufunc.at`` applies updates in
entry order, which the concatenation preserves).  Hardware pricing uses
the segmented helpers so warp rows never span shard boundaries.
``"reference"`` keeps the per-shard loop, with the literal ``SrcValue``
array and write-back, as the oracle the fast operator is gated against.
The streamed engine is deliberately out of scope: its iteration-end flush
leaves ``SrcValue`` stale mid-iteration, so it keeps its own copy.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.cache import cached, counted, graph_fingerprint, resolve_cache
from repro.frameworks import costs
from repro.frameworks.base import Engine, RunConfig, RunResult
from repro.frameworks.sweep import (SweepContext, SweepPlan, SweepStep,
                                    run_sweeps)
from repro.frameworks.wavebatch import (add_row_into, cusha_static_bundle,
                                        multi_arange, stats_from_row,
                                        STAT_FIELDS)
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.partition import select_shard_size
from repro.gpu.engine import KernelCostModel
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented, TransactionCount)
from repro.gpu.occupancy import blocks_per_sm, occupancy, shared_mem_per_block
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STORE_GRANULARITY_BYTES)
from repro.gpu.sharedmem import conflict_replays
from repro.gpu.warp import slots_for_contiguous, slots_for_segments
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CuShaEngine"]

_STAGES = ("stage1-fetch", "stage2-compute", "stage3-update",
           "stage4-writeback")


def _window_rows_transactions(
    starts: np.ndarray, stops: np.ndarray, item_bytes: int,
    *, warp_size: int = 32, transaction_bytes: int = 128,
) -> TransactionCount:
    """Transactions of warp-per-window walks over contiguous windows.

    Each window ``[starts[k], stops[k])`` (element offsets) is processed in
    rows of ``warp_size`` consecutive elements; every row's byte span is
    priced separately, exactly as the hardware would.
    """
    sizes = stops - starts
    nz = sizes > 0
    if not nz.any():
        return TransactionCount(0, 0)
    st = starts[nz].astype(np.int64)
    sz = sizes[nz].astype(np.int64)
    rows_per = -(-sz // warp_size)
    total_rows = int(rows_per.sum())
    w_idx = np.repeat(np.arange(st.size, dtype=np.int64), rows_per)
    row_starts = np.concatenate([[0], np.cumsum(rows_per)[:-1]])
    row_in_window = np.arange(total_rows, dtype=np.int64) - np.repeat(
        row_starts, rows_per
    )
    row_lo = st[w_idx] + row_in_window * warp_size
    row_hi = np.minimum(row_lo + warp_size, st[w_idx] + sz[w_idx])
    lo_b = row_lo * item_bytes
    hi_b = row_hi * item_bytes
    txs = (hi_b - 1) // transaction_bytes - lo_b // transaction_bytes + 1
    return TransactionCount(int(txs.sum()), int(sz.sum()) * item_bytes)


_EMPTY_SHARDS = np.empty(0, dtype=np.int64)


class CuShaEngine(Engine):
    """CuSha over G-Shards (``mode="gs"``) or Concatenated Windows
    (``mode="cw"``).

    Parameters
    ----------
    mode:
        Representation used for the write-back stage.
    vertices_per_shard:
        The paper's ``|N|``; ``None`` auto-selects via
        :func:`repro.graph.partition.select_shard_size`.
    spec, pcie:
        Hardware models; defaults are the paper's GTX 780 system.
    resident_blocks:
        Blocks CuSha aims to co-locate per SM when auto-selecting ``|N|``
        (the paper's example uses 2).
    sync_mode:
        ``"async"`` (paper) or ``"bsp"`` (ablation); see module docstring.
    cache:
        ``None`` (default) memoizes representations and static stats in the
        process-wide :func:`repro.cache.default_cache`; ``False`` disables
        caching; an explicit :class:`~repro.cache.RepresentationCache`
        scopes it.  Only the fast path consults the cache.
    """

    def __init__(
        self,
        mode: str = "cw",
        *,
        vertices_per_shard: int | None = None,
        spec: GPUSpec = GTX780,
        pcie: PCIeSpec | None = None,
        resident_blocks: int = 2,
        threads_per_block: int = 512,
        sync_mode: str = "wave",
        always_writeback: bool = False,
        cache=None,
    ) -> None:
        if mode not in ("gs", "cw"):
            raise ValueError("mode must be 'gs' or 'cw'")
        if sync_mode not in ("wave", "async", "bsp"):
            raise ValueError("sync_mode must be 'wave', 'async', or 'bsp'")
        self.mode = mode
        self.vertices_per_shard = vertices_per_shard
        self.spec = spec
        self.pcie = pcie or PCIeSpec()
        self.resident_blocks = resident_blocks
        self.threads_per_block = threads_per_block
        self.sync_mode = sync_mode
        # Ablation of Figure 5's ``values_updated`` flag: when set, stage 4
        # runs for every shard every iteration instead of only updated ones.
        self.always_writeback = always_writeback
        self.cache = cache
        self.cost_model = KernelCostModel(spec)
        self.name = f"cusha-{mode}"

    # ------------------------------------------------------------------
    def _choose_shard_size(self, graph: DiGraph, program: VertexProgram) -> int:
        if self.vertices_per_shard is not None:
            return self.vertices_per_shard
        plan = select_shard_size(
            graph,
            target_window_size=self.spec.warp_size,
            shared_mem_per_block_bytes=self.spec.shared_mem_per_sm_bytes
            // self.resident_blocks,
            vertex_value_bytes=program.vertex_value_bytes,
            warp_size=self.spec.warp_size,
        )
        return plan.vertices_per_shard
    def _lookup(
        self, graph: DiGraph, program: VertexProgram, cache, *,
        stats: bool = True,
    ) -> tuple:
        """``(cw, bundle, fingerprint)`` of a run, through ``cache`` when
        one is configured: the CW structure (and through it the shards)
        and, unless ``stats=False``, the static-stats bundle."""
        N = self._choose_shard_size(graph, program)
        fp = None if cache is None else graph_fingerprint(graph)
        cw = cached(cache, ("cw", fp, N),
                    lambda: ConcatenatedWindows.from_graph(graph, N))
        if not stats:
            return cw, None, fp
        layout = (self.spec.warp_size, program.vertex_value_bytes,
                  program.static_value_bytes, program.edge_value_bytes)
        bundle = cached(
            cache, ("cusha-stats", fp, self.mode, N, *layout),
            lambda: cusha_static_bundle(cw, self.mode, *layout),
        )
        return cw, bundle, fp

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CW structure (and through it the shards) this run executes
        over, built via the same cache key :meth:`_run` uses."""
        cw, _, _ = self._lookup(
            graph, program, resolve_cache(self.cache), stats=False
        )
        return (cw,)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep stats of the four pipeline stages, from the
        same cached bundle the fast path executes with.  Stage 4 is the
        full-sweep cost (every shard writing back)."""
        _, bundle, _ = self._lookup(graph, program, resolve_cache(self.cache))
        return {
            "stage1-fetch": bundle.base1.copy(),
            "stage2-compute": bundle.base2.copy(),
            "stage3-update": bundle.base3.copy(),
            "stage4-writeback": stats_from_row(bundle.stage4.sum(axis=0)),
        }

    def _wave_size(self, shared_bytes: int) -> int:
        if self.sync_mode == "async":
            return 1
        if self.sync_mode == "bsp":
            return max(1, 10**18)  # effectively all shards in one wave
        resident = max(
            1, blocks_per_sm(self.spec, shared_bytes, self.threads_per_block)
        )
        return max(1, self.spec.num_sms * resident)

    def _representation_bytes(self, cw, program: VertexProgram) -> int:
        layout = (program.vertex_value_bytes, program.edge_value_bytes,
                  program.static_value_bytes)
        if self.mode == "cw":
            return cw.memory_bytes(*layout)
        return cw.shards.memory_bytes(*layout)

    def _stage_spans(self, occ: float, *stats: KernelStats) -> list:
        """The four stage spans of one iteration: each stage's stats delta
        plus its standalone modeled cost (no launch overhead — the
        per-stage stats carry kernel_launches=0)."""
        return [
            (name, self.cost_model.time_ms(s, occupancy=occ), s)
            for name, s in zip(_STAGES, stats)
        ]

    def _finisher(self, config: RunConfig, S: int, N: int, wave_size: int,
                  stage_stats):
        """The plan's ``finish``: ``stage_stats(executed)`` plus gauges."""
        def finish(result: RunResult) -> None:
            result.stage_stats = dict(zip(_STAGES, stage_stats(
                result.iterations - config.start_iteration)))
            if config.tracer.enabled:
                m = config.tracer.metrics
                m.gauge("cusha.num_shards").set(S)
                m.gauge("cusha.vertices_per_shard").set(N)
                m.gauge("cusha.wave_size").set(wave_size)
                m.gauge("cusha.waves_per_iteration").set(-(-S // wave_size))
        return finish

    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        if config.exec_path == "reference":
            return run_sweeps(self, graph, program, config,
                              self._plan_reference)
        return run_sweeps(self, graph, program, config, self._plan_fast)

    # ------------------------------------------------------------------
    # Fast path: wave-batched vectorized core
    # ------------------------------------------------------------------
    def _plan_fast(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> SweepPlan:
        trace_on = config.tracer.enabled
        frontier_on = config.frontier != "off"
        vbytes = program.vertex_value_bytes
        warp = self.spec.warp_size
        cache = resolve_cache(self.cache)
        (cw, bundle, fp), cache_hits, cache_misses = counted(
            cache, lambda: self._lookup(graph, program, cache)
        )
        N = cw.vertices_per_shard
        sh = cw.shards
        S = sh.num_shards
        n = graph.num_vertices

        # ----- device arrays -------------------------------------------------
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        # Each wave reads SrcValue as vertex_values[src_index] (module
        # docstring: the wave-start invariant).
        src_index = sh.src_index.astype(np.intp)
        src_static = None if static_all is None else static_all[src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        base1, base2, base3 = bundle.base1, bundle.base2, bundle.base3
        st1m, st2m, st3m = bundle.stage1, bundle.stage2, bundle.stage3
        st4_mat = bundle.stage4
        base = base1 + base2 + base3
        if frontier_on:
            full1 = st1m.sum(axis=0)
            full2 = st2m.sum(axis=0)
            full3 = st3m.sum(axis=0)

        shared_bytes = shared_mem_per_block(N, vbytes)
        occ = occupancy(self.spec, shared_bytes, self.threads_per_block)
        wave_size = min(self._wave_size(shared_bytes), S)

        # Per-wave loop invariants, hoisted out of the iteration loop: the
        # wave's vertex slice, its entry slice, and the destination indices
        # rebased to the wave's vertex origin.
        dest_global = bundle.dest_global
        waves = []
        for a in range(0, S, wave_size):
            b = min(a + wave_size, S)
            vlo = a * N
            vhi = min(b * N, n)
            eo = int(sh.shard_offsets[a])
            ee = int(sh.shard_offsets[b])
            waves.append((a, b, vlo, vhi, eo, ee, dest_global[eo:ee] - vlo))

        # Run totals: dynamic stage-2/3 stats and the frontier-gated
        # stage-1..3 rows plus every iteration's stage-4 row.
        stage2_dynamic = KernelStats()
        stage3_dynamic = KernelStats()
        nf = len(STAT_FIELDS)
        run_rows = np.zeros((4, nf), dtype=np.float64)

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            frontier, track, mdr = it.frontier, it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                processed_shards = 0
                if push:
                    iter_stats = KernelStats()
                    s1_row = np.zeros(nf, dtype=np.float64)
                    s2_row = np.zeros(nf, dtype=np.float64)
                    s3_row = np.zeros(nf, dtype=np.float64)
                else:
                    iter_stats = base.copy()
                    if frontier_on:
                        s1_row, s2_row, s3_row = full1, full2, full3
                iter_stats.kernel_launches = 1
                if trace_on:
                    dyn2 = KernelStats()
                    dyn3 = KernelStats()
                updated_total = 0
                updated_shard_count = 0
                st4_row = np.zeros(nf, dtype=np.float64)
                for a, b, vlo, vhi, eo, ee, dest_local in waves:
                    sparse = False
                    act = None
                    if push:
                        act = frontier.active(a, b)
                        frontier.shards_skipped += (b - a) - act.size
                        if act.size == 0:
                            continue
                        frontier.clear(act)
                        processed_shards += act.size
                        if mdr is not None:
                            mdr.note_processed(act)
                        sparse = act.size < b - a
                        if not sparse:
                            s1_row += st1m[a:b].sum(axis=0)
                            s2_row += st2m[a:b].sum(axis=0)
                            s3_row += st3m[a:b].sum(axis=0)
                    elif frontier_on:  # pull: dense sweep, clear everything
                        frontier.dirty[a:b] = False
                        processed_shards += b - a
                    if sparse:
                        # Frontier gather: pack the active shards' vertex
                        # slices and entry ranges, rebase destinations into
                        # the packed coordinate space, and run the same
                        # kernels over the subset.
                        v_lo = act * N
                        v_hi = np.minimum(v_lo + N, n)
                        v_cnt = v_hi - v_lo
                        v_idx = multi_arange(v_lo, v_hi)
                        e_lo = sh.shard_offsets[act]
                        e_hi = sh.shard_offsets[act + 1]
                        e_idx = multi_arange(e_lo, e_hi)
                        packed_off = np.zeros(act.size + 1, dtype=np.int64)
                        np.cumsum(v_cnt, out=packed_off[1:])
                        dest_sub = dest_global[e_idx] - np.repeat(
                            v_lo - packed_off[:-1], e_hi - e_lo
                        )
                        frontier.edges_processed += int(e_idx.size)
                        s1_row += st1m[act].sum(axis=0)
                        s2_row += st2m[act].sum(axis=0)
                        s3_row += st3m[act].sum(axis=0)
                        old = vertex_values[v_idx]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            vertex_values[src_index[e_idx]],
                            None if src_static is None else src_static[e_idx],
                            None if edge_vals is None else edge_vals[e_idx],
                            old[dest_sub],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_sub, msgs, mask,
                            track_changed=track,
                        )
                    else:
                        if frontier_on:
                            frontier.edges_processed += ee - eo
                        old = vertex_values[vlo:vhi]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            vertex_values[src_index[eo:ee]],
                            None if src_static is None else src_static[eo:ee],
                            None if edge_vals is None else edge_vals[eo:ee],
                            old[dest_local],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_local, msgs, mask,
                            track_changed=track,
                        )
                    if track and changed is not None:
                        active_vertices += int(changed.sum())
                    iter_stats.add_atomics(shared=ops)
                    stage2_dynamic.add_atomics(shared=ops)
                    if trace_on:
                        dyn2.add_atomics(shared=ops)
                    final, upd = program.apply(local, old)
                    n_upd = int(upd.sum())
                    wave_shards = _EMPTY_SHARDS
                    idx = None
                    if n_upd:
                        if sparse:
                            pos = np.flatnonzero(upd)
                            idx = v_idx[pos]
                            vertex_values[idx] = final[upd]
                            # Per-shard store pricing over the packed
                            # segments (warp rows never span shards).
                            seg_of = (
                                np.searchsorted(packed_off, pos, side="right")
                                - 1
                            )
                            counts = np.bincount(seg_of, minlength=act.size)
                            seg = np.zeros(act.size + 1, dtype=np.int64)
                            np.cumsum(counts, out=seg[1:])
                            wave_shards = act[np.flatnonzero(counts)]
                        else:
                            idx = vlo + np.flatnonzero(upd)
                            vertex_values[idx] = final[upd]
                            # Per-shard store pricing: segment the updated
                            # indices by owning shard so warp rows never span
                            # shard boundaries (as in the reference loop).
                            counts = np.bincount(idx // N - a, minlength=b - a)
                            seg = np.zeros(b - a + 1, dtype=np.int64)
                            np.cumsum(counts, out=seg[1:])
                            wave_shards = a + np.flatnonzero(counts)
                        store_tc = gather_transactions_segmented(
                            idx, vbytes, seg, warp_size=warp,
                            transaction_bytes=STORE_GRANULARITY_BYTES)
                        iter_stats.add_store(store_tc)
                        stage3_dynamic.add_store(store_tc)
                        if trace_on:
                            dyn3.add_store(store_tc)
                        updated_total += n_upd
                        if frontier_on:
                            it.last_mask[idx] = True
                    if self.always_writeback:
                        wave_shards = (
                            act if sparse else np.arange(a, b, dtype=np.int64)
                        )
                    if wave_shards.size:
                        updated_shard_count += wave_shards.size
                        if mdr is not None:
                            mdr.note_updated(wave_shards)
                        st4_row += st4_mat[wave_shards].sum(axis=0)
                    if frontier_on and idx is not None:
                        # Wave-boundary frontier marking: the updaters' own
                        # shards plus everything they influence (visible to
                        # other shards only now that write-back ran).
                        frontier.mark(idx)
                if push:
                    add_row_into(iter_stats, s1_row + s2_row + s3_row)
                add_row_into(iter_stats, st4_row)
                run_rows[3] += st4_row
                if frontier_on:
                    run_rows[0] += s1_row
                    run_rows[1] += s2_row
                    run_rows[2] += s3_row
                stages = []
                if trace_on:
                    if frontier_on:
                        span1 = stats_from_row(s1_row)
                        span2 = stats_from_row(s2_row) + dyn2
                        span3 = stats_from_row(s3_row) + dyn3
                    else:
                        span1 = base1.copy()
                        span2 = base2 + dyn2
                        span3 = base3 + dyn3
                    stages = self._stage_spans(
                        occ, span1, span2, span3, stats_from_row(st4_row)
                    )
                yield SweepStep(
                    updated_total,
                    iter_stats,
                    self.cost_model.time_ms(iter_stats, occupancy=occ),
                    processed_shards,
                    active_vertices,
                    {"updated_shards": updated_shard_count},
                    stages,
                )

        def stage_stats(executed: int) -> tuple:
            if frontier_on:
                s1, s2, s3 = (stats_from_row(r) for r in run_rows[:3])
            else:
                s1, s2, s3 = (s.scaled(executed) for s in (base1, base2, base3))
            return (s1, s2 + stage2_dynamic, s3 + stage3_dynamic,
                    stats_from_row(run_rows[3]))

        return SweepPlan(
            sweeps=sweeps,
            finish=self._finisher(config, S, N, wave_size, stage_stats),
            values=vertex_values,
            unit_size=N,
            unit_edges=np.diff(sh.shard_offsets),
            flush_pos=np.arange(S, dtype=np.int64) // wave_size,
            representation_bytes=self._representation_bytes(cw, program),
            launch=(shared_bytes, self.spec.shared_mem_per_sm_bytes),
            cache=cache,
            fingerprint=fp,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    # ------------------------------------------------------------------
    # Reference path: the original per-shard loop (equivalence baseline)
    # ------------------------------------------------------------------
    def _plan_reference(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> SweepPlan:
        trace_on = config.tracer.enabled
        frontier_on = config.frontier != "off"
        cw, _, _ = self._lookup(graph, program, None, stats=False)
        N = cw.vertices_per_shard
        sh = cw.shards
        S = sh.num_shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size

        # ----- device arrays -------------------------------------------------
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_value = vertex_values[sh.src_index].copy()
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]
        entries_per_shard = np.diff(sh.shard_offsets)

        # ----- static per-iteration hardware stats (split per stage) ---------
        # Per-shard resolution throughout (frontier-gated iterations charge
        # only the shards they process); aggregates are exact sums.
        stage1 = [KernelStats() for _ in range(S)]
        stage2 = [KernelStats() for _ in range(S)]
        stage3 = [KernelStats() for _ in range(S)]
        stage4 = [KernelStats() for _ in range(S)]
        # Loop invariants of the iteration loop, computed once: vertex
        # ranges, entry slices, rebased destination indices, CW slices.
        shard_meta: list[tuple[int, int, slice, np.ndarray, slice]] = []
        for i in range(S):
            lo, hi = sh.vertex_range(i)
            n_i = hi - lo
            m_i = sh.shard_size(i)
            o = int(sh.shard_offsets[i])
            sl_i = slice(o, o + m_i)
            dest_local = sh.dest_index[sl_i].astype(np.int64) - lo
            shard_meta.append((lo, hi, sl_i, dest_local, cw.cw_slice(i)))
            st1, st2, st3 = stage1[i], stage2[i], stage3[i]
            # Stage 1: coalesced VertexValues fetch.
            st1.add_load(
                contiguous_transactions(n_i, vbytes, start_byte=lo * vbytes,
                                        warp_size=warp,
                                        transaction_bytes=LOAD_GRANULARITY_BYTES)
            )
            st1.add_lanes(*slots_for_contiguous(n_i, warp),
                          instructions_per_row=costs.INSTR_INIT)
            # Stage 2: coalesced shard-entry loads (SoA field arrays).
            for b in (vbytes, 4):  # SrcValue, DestIndex
                st2.add_load(contiguous_transactions(
                    m_i, b, start_byte=o * b, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            if sbytes:
                st2.add_load(contiguous_transactions(
                    m_i, sbytes, start_byte=o * sbytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            if ebytes:
                st2.add_load(contiguous_transactions(
                    m_i, ebytes, start_byte=o * ebytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
            st2.add_lanes(*slots_for_contiguous(m_i, warp),
                          instructions_per_row=costs.INSTR_COMPUTE)
            # Shared-memory atomic bank conflicts: destination indices that
            # collide modulo the bank count serialize within a warp round.
            replays = conflict_replays(dest_local, warp_size=warp)
            st2.add_instructions(replays * costs.INSTR_ATOMIC_REPLAY)
            # Stage 3: coalesced VertexValues read (stores are dynamic).
            st3.add_load(
                contiguous_transactions(n_i, vbytes, start_byte=lo * vbytes,
                                        warp_size=warp,
                                        transaction_bytes=LOAD_GRANULARITY_BYTES)
            )
            st3.add_lanes(*slots_for_contiguous(n_i, warp),
                          instructions_per_row=costs.INSTR_UPDATE)
            # Stage 4 (charged only on iterations where the shard updates).
            st4 = stage4[i]
            if self.mode == "gs":
                starts = sh.window_offsets[:, i].copy()
                stops = sh.window_offsets[:, i + 1].copy()
                st4.add_load(_window_rows_transactions(
                    starts, stops, 4, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                st4.add_store(_window_rows_transactions(
                    starts, stops, vbytes, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES))
                active, total = slots_for_segments(stops - starts, warp)
                st4.add_lanes(active, total,
                              instructions_per_row=costs.INSTR_WRITEBACK)
                # The warps must visit every window W_ij — including empty
                # ones — to read its bounds and decide whether to copy: a
                # per-shard cost linear in S (quadratic per iteration) that
                # CW eliminates.  Bounds live in a transposed, contiguous
                # offsets row.
                st4.add_load(contiguous_transactions(
                    S + 1, 8, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                st4.add_instructions(S * costs.INSTR_GS_WINDOW_SCAN)
            else:
                L = cw.cw_size(i)
                cwo = int(cw.cw_offsets[i])
                # SrcIndex and Mapper are both contiguous 4-byte reads over
                # the same CW slot range, so their pricing is identical:
                # compute once, charge twice.  The SrcValue stores scatter
                # through the mapper.
                cw_read = contiguous_transactions(
                    L, 4, start_byte=cwo * 4, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES)
                st4.add_load(cw_read)
                st4.add_load(cw_read)
                st4.add_store(gather_transactions(
                    cw.mapper[cw.cw_slice(i)], vbytes, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES))
                st4.add_lanes(*slots_for_contiguous(L, warp),
                              instructions_per_row=costs.INSTR_WRITEBACK)
        base1 = sum(stage1, KernelStats())
        base2 = sum(stage2, KernelStats())
        base3 = sum(stage3, KernelStats())
        base = base1 + base2 + base3

        shared_bytes = shared_mem_per_block(N, vbytes)
        occ = occupancy(self.spec, shared_bytes, self.threads_per_block)
        # Shards execute in waves of concurrently resident blocks; a shard's
        # write-back becomes visible to other shards only at its wave
        # boundary — the visibility a real grid of blocks on num_sms SMs
        # provides (and the reason CuSha needs a few more iterations than
        # the single-version CSR baselines, paper Figure 7).
        wave_size = min(self._wave_size(shared_bytes), S)

        stage2_dynamic = KernelStats()
        stage3_dynamic = KernelStats()
        stage4_total = KernelStats()
        stage1_run = KernelStats()
        stage2_run = KernelStats()
        stage3_run = KernelStats()

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            nonlocal stage1_run, stage2_run, stage3_run, stage4_total
            frontier, track, mdr = it.frontier, it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                processed_shards = 0
                if push:
                    iter_stats = KernelStats()
                    s1_it = KernelStats()
                    s2_it = KernelStats()
                    s3_it = KernelStats()
                elif frontier_on:
                    iter_stats = base.copy()
                    s1_it = base1.copy()
                    s2_it = base2.copy()
                    s3_it = base3.copy()
                else:
                    iter_stats = base.copy()
                iter_stats.kernel_launches = 1
                if trace_on:
                    # Per-iteration dynamic deltas, tracked only when a real
                    # tracer is attached so untraced runs do no extra work.
                    dyn2 = KernelStats()
                    dyn3 = KernelStats()
                    st4_iter = KernelStats()
                updated_total = 0
                updated_shards: list[int] = []
                mdr_processed: list[int] = []
                pending_writeback: list[int] = []
                wave_upd: list[np.ndarray] = []
                for i in range(S):
                    skip = push and not frontier.dirty[i]
                    if skip:
                        frontier.shards_skipped += 1
                    else:
                        if push and mdr is not None:
                            mdr_processed.append(i)
                        if frontier_on:
                            frontier.dirty[i] = False
                            frontier.edges_processed += int(entries_per_shard[i])
                            processed_shards += 1
                            if push:
                                s1_it += stage1[i]
                                s2_it += stage2[i]
                                s3_it += stage3[i]
                                iter_stats += stage1[i]
                                iter_stats += stage2[i]
                                iter_stats += stage3[i]
                        lo, hi, sl, dest_local, _csl = shard_meta[i]
                        old = vertex_values[lo:hi]
                        local = program.init_local(old)
                        msgs, mask = program.messages(
                            src_value[sl],
                            None if src_static is None else src_static[sl],
                            None if edge_vals is None else edge_vals[sl],
                            old[dest_local],
                        )
                        ops, changed = apply_reductions(
                            program, local, dest_local, msgs, mask,
                            track_changed=track,
                        )
                        if track and changed is not None:
                            active_vertices += int(changed.sum())
                        iter_stats.add_atomics(shared=ops)
                        stage2_dynamic.add_atomics(shared=ops)
                        if trace_on:
                            dyn2.add_atomics(shared=ops)
                        final, upd = program.apply(local, old)
                        n_upd = int(upd.sum())
                        if n_upd:
                            idx = lo + np.flatnonzero(upd)
                            vertex_values[idx] = final[upd]
                            store_tc = gather_transactions(
                                idx, vbytes, warp_size=warp,
                                transaction_bytes=STORE_GRANULARITY_BYTES)
                            iter_stats.add_store(store_tc)
                            stage3_dynamic.add_store(store_tc)
                            if trace_on:
                                dyn3.add_store(store_tc)
                            updated_total += n_upd
                            updated_shards.append(i)
                            pending_writeback.append(i)
                            if frontier_on:
                                it.last_mask[idx] = True
                                wave_upd.append(idx)
                        elif self.always_writeback:
                            updated_shards.append(i)
                            pending_writeback.append(i)
                    if (i + 1) % wave_size == 0 or i == S - 1:
                        for j in pending_writeback:
                            csl = shard_meta[j][4]
                            src_value[cw.mapper[csl]] = vertex_values[
                                cw.cw_src_index[csl]
                            ]
                        pending_writeback.clear()
                        if frontier_on and wave_upd:
                            # Wave-boundary frontier marking, in lockstep
                            # with write-back visibility.
                            frontier.mark(np.concatenate(wave_upd))
                            wave_upd.clear()
                if mdr is not None:
                    if push:
                        mdr.note_processed(
                            np.asarray(mdr_processed, dtype=np.int64)
                        )
                    mdr.note_updated(np.asarray(updated_shards, dtype=np.int64))
                for i in updated_shards:
                    iter_stats += stage4[i]
                    stage4_total += stage4[i]
                    if trace_on:
                        st4_iter += stage4[i]
                if frontier_on:
                    stage1_run += s1_it
                    stage2_run += s2_it
                    stage3_run += s3_it
                stages = []
                if trace_on:
                    if frontier_on:
                        stages = self._stage_spans(
                            occ, s1_it.copy(), s2_it + dyn2, s3_it + dyn3,
                            st4_iter,
                        )
                    else:
                        stages = self._stage_spans(
                            occ, base1.copy(), base2 + dyn2, base3 + dyn3,
                            st4_iter,
                        )
                yield SweepStep(
                    updated_total,
                    iter_stats,
                    self.cost_model.time_ms(iter_stats, occupancy=occ),
                    processed_shards,
                    active_vertices,
                    {"updated_shards": len(updated_shards)},
                    stages,
                )

        def stage_stats(executed: int) -> tuple:
            if frontier_on:
                s1, s2, s3 = stage1_run, stage2_run, stage3_run
            else:
                s1, s2, s3 = (s.scaled(executed) for s in (base1, base2, base3))
            return s1, s2 + stage2_dynamic, s3 + stage3_dynamic, stage4_total

        return SweepPlan(
            sweeps=sweeps,
            finish=self._finisher(config, S, N, wave_size, stage_stats),
            values=vertex_values,
            unit_size=N,
            unit_edges=entries_per_shard,
            flush_pos=np.arange(S, dtype=np.int64) // wave_size,
            representation_bytes=self._representation_bytes(cw, program),
            launch=(shared_bytes, self.spec.shared_mem_per_sm_bytes),
        )
