"""Multi-streamed CuSha for graphs larger than device memory.

The paper leaves this as future work (section 5.1): *"If graphs do not fit
in the GPU RAM, a multi-streamed procedure should be incorporated to overlap
computation and data transfer."*  This engine implements that procedure on
the simulator:

- shards are grouped into **chunks** whose representation fits the device
  memory budget;
- per iteration, chunk ``k+1``'s entry arrays are copied host-to-device on
  one CUDA stream while chunk ``k`` computes on another, so transfer time
  is hidden behind compute (up to the slower of the two, per chunk);
- ``VertexValues`` (which every chunk reads and writes) stays resident on
  the device; the write-back targets of a chunk may live in a currently
  evicted chunk, so window updates destined for non-resident shards are
  spooled into a device-resident staging buffer and applied when the owner
  chunk streams back in — the same deferred-visibility semantics as a
  ``sync_mode="bsp"`` schedule across chunk boundaries.

Timing per iteration is therefore
``sum_k max(compute_ms[k], h2d_ms[k+1]) + h2d_ms[0]`` plus the staging
traffic; the engine reports both the effective time and the *unoverlapped*
time so the benefit of streaming is visible.

Vertex values are computed exactly (same fixpoint as every other engine);
only the schedule and the transfer accounting differ.

The iteration protocol (fault hooks, transfers, frontier direction,
multi-device exchange, traces, convergence, the result) is
:func:`repro.frameworks.sweep.run_sweeps`; this module supplies the chunked
representation and one ``sweeps`` operator per path.  ``config.exec_path``
selects the operator.

Apart from the transfer model this engine is CuSha-CW on a ``"bsp"``
schedule: every shard owns its destination-vertex slice and write-backs
are deferred to the iteration boundary, so the whole iteration is one
wave.  The fast operator (default) therefore runs CuSha's batched kernel
step (:func:`repro.frameworks.cusha.wave_kernel`) once per iteration,
reading ``SrcValue`` as ``VertexValues[SrcIndex]`` (the wave-start
invariant holds at every iteration start), and prices from CuSha-CW's
cached static bundle under CuSha-CW's own cache keys.  It keeps only its
per-chunk pricing: the per-shard stats are summed per chunk, so the
per-chunk compute times feeding the overlap model are those of the chunk
loop.  ``"reference"`` keeps the original per-shard chunk loop, with the
literal ``SrcValue`` array and write-back, as the oracle the fast operator
is gated against.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.cache import counted, resolve_cache
from repro.frameworks.base import Engine, RunConfig, RunResult
from repro.frameworks.cusha import (CuShaEngine, entry_arrays, pack_shards,
                                    wave_kernel)
from repro.frameworks.sweep import (SweepContext, SweepPlan, SweepStep,
                                    run_sweeps)
from repro.frameworks.wavebatch import stats_from_row
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.gpu.pcie import transfer_ms
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import KernelStats
from repro.vertexcentric.program import VertexProgram, apply_reductions
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented)
from repro.gpu.stats import LOAD_GRANULARITY_BYTES, STORE_GRANULARITY_BYTES
from repro.gpu.engine import KernelCostModel
from repro.frameworks import costs
from repro.gpu.warp import slots_for_contiguous

__all__ = ["StreamedCuShaEngine"]


def _entry_bytes(program: VertexProgram) -> int:
    """Streamed bytes per shard entry (including its CW mapper slot)."""
    return (4 + program.vertex_value_bytes + program.static_value_bytes
            + program.edge_value_bytes + 4 + 4)


def _chunk_pricing(bundle, chunks: list[tuple[int, int]]) -> tuple:
    """``(shard_static, chunk_static, writeback)`` stats matrices of the
    streamed chunk loop, derived from CuSha-CW's static bundle.  A chunk
    prices stages 1-2 without bank-conflict replays and no stage 3, and
    its CW write-back reads one 4-byte stream where CuSha reads two."""
    shard_static = bundle.stage1 + bundle.stage2
    shard_static[:, 6] -= bundle.replays * costs.INSTR_ATOMIC_REPLAY
    chunk_static = np.array([shard_static[a:b].sum(axis=0) for a, b in chunks])
    writeback = bundle.stage4.copy()
    writeback[:, :2] /= 2
    return shard_static, chunk_static, writeback


class StreamedCuShaEngine(Engine):
    """Out-of-core CuSha (CW representation) with transfer/compute overlap.

    Parameters
    ----------
    device_memory_bytes:
        Device memory available for shard entry arrays (``VertexValues``
    and the staging buffer are budgeted separately).  Chunks are sized to
        fit half of it, leaving room for the double-buffered incoming chunk.
    vertices_per_shard:
        The paper's ``|N|``; ``None`` auto-selects like
        :class:`~repro.frameworks.cusha.CuShaEngine`.
    cache:
        Representation/stats memo selection, as in
        :class:`~repro.frameworks.cusha.CuShaEngine` (``None`` = process
        default, ``False`` = disabled, or an explicit
        :class:`~repro.cache.RepresentationCache`).
    """

    def __init__(
        self,
        *,
        device_memory_bytes: int = 64 * 1024 * 1024,
        vertices_per_shard: int | None = None,
        spec: GPUSpec = GTX780,
        pcie: PCIeSpec | None = None,
        cache=None,
    ) -> None:
        if device_memory_bytes <= 0:
            raise ValueError("device_memory_bytes must be positive")
        self.device_memory_bytes = device_memory_bytes
        self.vertices_per_shard = vertices_per_shard
        self.spec = spec
        self.pcie = pcie or PCIeSpec()
        self.cache = cache
        self.cost_model = KernelCostModel(spec)
        self.name = "cusha-streamed"

    # ------------------------------------------------------------------
    def _chunk_shards(
        self, cw: ConcatenatedWindows, entry_bytes: int
    ) -> list[tuple[int, int]]:
        """Group shards into contiguous chunks fitting half the budget."""
        budget = max(1, self.device_memory_bytes // 2)
        chunks: list[tuple[int, int]] = []
        sh = cw.shards
        start = 0
        used = 0
        for i in range(sh.num_shards):
            size = sh.shard_size(i) * entry_bytes
            if used and used + size > budget:
                chunks.append((start, i))
                start, used = i, 0
            used += size
        chunks.append((start, sh.num_shards))
        return chunks

    # ------------------------------------------------------------------
    def _lookup(
        self, graph: DiGraph, program: VertexProgram, cache, *,
        stats: bool = True,
    ) -> tuple:
        """``(cw, chunks, bundle, fingerprint)`` of a run: the CW and the
        static bundle of CuSha-CW, through CuSha-CW's own cache keys, and
        the chunking; ``stats=False`` stops after the CW."""
        inner = CuShaEngine(
            "cw",
            vertices_per_shard=self.vertices_per_shard,
            spec=self.spec,
            pcie=self.pcie,
        )
        cw, bundle, fp = inner._lookup(graph, program, cache, stats=stats)
        if not stats:
            return cw, None, None, fp
        return cw, self._chunk_shards(cw, _entry_bytes(program)), bundle, fp

    def preflight_representations(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> tuple:
        """The CW structure the streamed run chunks, via the shared cache."""
        cw, _, _, _ = self._lookup(
            graph, program, resolve_cache(self.cache), stats=False
        )
        return (cw,)

    def predicted_stage_stats(
        self, graph: DiGraph, program: VertexProgram
    ) -> dict[str, KernelStats]:
        """Static per-sweep stats of every compute chunk plus the
        full-sweep write-back, from the same cached bundle the fast path
        executes with."""
        _, chunks, bundle, _ = self._lookup(
            graph, program, resolve_cache(self.cache)
        )
        _, chunk_static, writeback = _chunk_pricing(bundle, chunks)
        out = {
            f"chunk-{k}-compute": stats_from_row(row)
            for k, row in enumerate(chunk_static)
        }
        out["writeback"] = stats_from_row(writeback.sum(axis=0))
        return out

    # ------------------------------------------------------------------
    def _run(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> RunResult:
        if config.exec_path == "reference":
            return run_sweeps(self, graph, program, config,
                              self._plan_reference)
        return run_sweeps(self, graph, program, config, self._plan_fast)

    def _plan(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig,
        cw: ConcatenatedWindows, num_chunks: int, values: np.ndarray,
        chunk_sweeps, **cache_info,
    ) -> SweepPlan:
        """The plan both paths share.  ``chunk_sweeps(it)`` yields, per
        iteration, ``(updated, processed, active_vertices, ran,
        writeback_stats)`` with ``ran`` the ``(chunk, stats, h2d_ms,
        h2d_bytes)`` of every chunk that launched; this prices the overlap
        and emits the per-chunk spans."""
        tracer = config.tracer
        trace_on = tracer.enabled
        sh = cw.shards
        n = graph.num_vertices
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        unoverlapped_ms = 0.0

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            nonlocal unoverlapped_ms
            steps = chunk_sweeps(it)
            while True:
                updated, processed, active_vertices, ran, wb_stats = next(
                    steps
                )
                iter_stats = KernelStats()
                compute_times: list[float] = []
                chunk_tt: list[float] = []
                for k, stats, tt, nbytes in ran:
                    compute_times.append(self.cost_model.time_ms(stats))
                    chunk_tt.append(tt)
                    iter_stats += stats
                    if trace_on:
                        tracer.emit(
                            f"chunk-{k}-compute", "stage",
                            model_start_ms=it.start_ms,
                            model_ms=compute_times[-1],
                            stats=stats, iteration=it.iteration, chunk=k,
                        )
                        tracer.emit(
                            f"chunk-{k}-h2d", "transfer",
                            model_start_ms=it.start_ms, model_ms=tt,
                            bytes=nbytes, iteration=it.iteration, chunk=k,
                        )
                iter_stats.kernel_launches = len(ran)
                wb_ms = self.cost_model.time_ms(wb_stats)
                iter_stats += wb_stats
                # Overlap model: chunk k+1's H2D hides under chunk k's compute.
                pipelined = chunk_tt[0] if chunk_tt else 0.0
                for k, comp in enumerate(compute_times):
                    incoming = chunk_tt[k + 1] if k + 1 < len(chunk_tt) else 0.0
                    pipelined += max(comp, incoming)
                serial = sum(compute_times) + sum(chunk_tt)
                unoverlapped_ms += serial + wb_ms
                yield SweepStep(
                    updated,
                    iter_stats,
                    pipelined + wb_ms,
                    processed,
                    active_vertices,
                    {"overlap_saved_ms": serial - pipelined},
                    [("writeback", wb_ms, wb_stats)] if trace_on else [],
                )

        def finish(result: RunResult) -> None:
            # Extra reporting: how much the overlap saved.
            result.unoverlapped_ms = unoverlapped_ms  # type: ignore[attr-defined]
            result.num_chunks = num_chunks  # type: ignore[attr-defined]
            if trace_on:
                m = tracer.metrics
                m.gauge("streamed.num_chunks").set(num_chunks)
                m.gauge("streamed.device_memory_bytes").set(
                    self.device_memory_bytes
                )
                m.counter("streamed.overlap_saved_ms").inc(
                    max(0.0, unoverlapped_ms - result.kernel_time_ms)
                )

        return SweepPlan(
            sweeps=sweeps,
            finish=finish,
            values=values,
            unit_size=cw.vertices_per_shard,
            unit_edges=np.diff(sh.shard_offsets),
            # Write-back runs once per iteration after every chunk (BSP
            # across chunks), so all marks survive: flush_pos == 0.
            flush_pos=np.zeros(sh.num_shards, dtype=np.int64),
            representation_bytes=cw.memory_bytes(
                vbytes, program.edge_value_bytes, sbytes
            ),
            launch=(0, self.device_memory_bytes),
            # Transfers: VertexValues resident once, chunks stream per
            # iteration.
            h2d_bytes=n * (vbytes + sbytes),
            resident=True,
            **cache_info,
        )

    # ------------------------------------------------------------------
    # Fast path: whole-iteration batching with per-chunk stat recovery
    # ------------------------------------------------------------------
    def _plan_fast(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> SweepPlan:
        frontier_on = config.frontier != "off"
        vbytes = program.vertex_value_bytes
        warp = self.spec.warp_size
        entry_bytes = _entry_bytes(program)
        cache = resolve_cache(self.cache)
        (cw, chunks, bundle, fp), cache_hits, cache_misses = counted(
            cache, lambda: self._lookup(graph, program, cache)
        )
        N = cw.vertices_per_shard
        sh = cw.shards
        S = sh.num_shards
        C = len(chunks)

        # Host-side state (the "disk" copy); device residency is modeled.
        vertex_values = config.initial_values(graph, program)
        entries = entry_arrays(graph, program, sh)

        dest_global = bundle.dest_global
        shard_static, chunk_static, wb_mat = _chunk_pricing(bundle, chunks)
        # Entry->chunk and shard->chunk maps for attributing the dynamic
        # stats (atomic ops, conditional stores) back to their chunk.
        chunk_entry_sizes = np.array(
            [int(sh.shard_offsets[b] - sh.shard_offsets[a]) for a, b in chunks],
            dtype=np.int64,
        )
        entry_chunk = np.repeat(np.arange(C, dtype=np.int64), chunk_entry_sizes)
        shard_chunk = np.repeat(
            np.arange(C, dtype=np.int64),
            np.array([b - a for a, b in chunks], dtype=np.int64),
        )
        chunk_byte_sizes = chunk_entry_sizes * entry_bytes
        shard_entry_sizes = np.diff(sh.shard_offsets)
        shard_byte_sizes = shard_entry_sizes * entry_bytes
        total_entries = int(sh.shard_offsets[-1])
        n = graph.num_vertices
        transfer_times = [
            transfer_ms(int(cb), self.pcie) for cb in chunk_byte_sizes
        ]

        def chunk_sweeps(it: SweepContext) -> Iterator[tuple]:
            frontier, track, mdr = it.frontier, it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                active_shard_count = 0
                if push:
                    act = frontier.active(0, S)
                    frontier.shards_skipped += S - act.size
                    frontier.clear(act)
                    active_shard_count = int(act.size)
                    if mdr is not None:
                        mdr.note_processed(act)
                    frontier.edges_processed += int(shard_entry_sizes[act].sum())
                    v_idx, e_idx, dest_sub, _ = pack_shards(
                        act, N, n, sh.shard_offsets, dest_global
                    )
                    ops_total, changed, mask, pos, new = wave_kernel(
                        program, vertex_values, entries, v_idx, e_idx,
                        dest_sub, track,
                    )
                    idx = v_idx[pos]
                    ec = entry_chunk[e_idx]
                else:
                    if frontier_on:  # pull: dense sweep over everything
                        frontier.dirty[:] = False
                        active_shard_count = S
                        frontier.edges_processed += total_entries
                    # The whole iteration is one wave: write-back is
                    # deferred to the iteration boundary (BSP across
                    # chunks), so one step over every entry equals the
                    # per-chunk loop.
                    ops_total, changed, mask, pos, new = wave_kernel(
                        program, vertex_values, entries, slice(0, n),
                        slice(0, total_entries), dest_global, track,
                    )
                    idx = pos
                    ec = entry_chunk
                if track and changed is not None:
                    active_vertices = int(changed.sum())
                masked_per_chunk = np.bincount(
                    ec if mask is None else ec[mask], minlength=C
                )
                # Every message-passing entry does the same number of
                # reduction ops, so ops split across chunks by entry.
                ops_per_chunk = masked_per_chunk * (
                    ops_total // max(1, int(masked_per_chunk.sum()))
                )
                updated_total = int(idx.size)
                store_tx_chunk = np.zeros(C, dtype=np.float64)
                store_bytes_chunk = np.zeros(C, dtype=np.float64)
                if updated_total:
                    vertex_values[idx] = new
                    shard_counts = np.bincount(idx // N, minlength=S)
                    seg = np.zeros(S + 1, dtype=np.int64)
                    np.cumsum(shard_counts, out=seg[1:])
                    _, per_shard_tx = gather_transactions_segmented(
                        idx, vbytes, seg, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES,
                        per_segment=True,
                    )
                    store_tx_chunk = np.bincount(
                        shard_chunk, weights=per_shard_tx, minlength=C
                    )
                    store_bytes_chunk = np.bincount(
                        shard_chunk, weights=shard_counts * vbytes, minlength=C,
                    )
                    upd_shards = np.flatnonzero(shard_counts)
                else:
                    upd_shards = np.empty(0, dtype=np.int64)
                if mdr is not None:
                    mdr.note_updated(upd_shards)

                if push:
                    # Only the active shards stream in, and chunks with no
                    # active shard launch no kernel and transfer nothing.
                    chunk_rows = np.zeros(
                        (C, shard_static.shape[1]), dtype=np.float64
                    )
                    np.add.at(chunk_rows, shard_chunk[act], shard_static[act])
                    chunk_act_bytes = np.zeros(C, dtype=np.int64)
                    np.add.at(
                        chunk_act_bytes, shard_chunk[act], shard_byte_sizes[act]
                    )
                    iter_tt = [
                        transfer_ms(int(bb), self.pcie) if bb else 0.0
                        for bb in chunk_act_bytes
                    ]
                    iter_bytes = chunk_act_bytes
                    run_chunks = np.flatnonzero(
                        np.bincount(shard_chunk[act], minlength=C)
                    ).tolist()
                else:
                    chunk_rows = chunk_static
                    iter_tt = transfer_times
                    iter_bytes = chunk_byte_sizes
                    run_chunks = list(range(C))
                ran = []
                for k in run_chunks:
                    row = chunk_rows[k].copy()
                    row[2] += store_tx_chunk[k]
                    row[3] += store_bytes_chunk[k]
                    row[7] += ops_per_chunk[k]
                    ran.append(
                        (k, stats_from_row(row), iter_tt[k], int(iter_bytes[k]))
                    )
                # Write-back (CW) is priced once per iteration after all
                # chunks ran: cross-chunk staging semantics (BSP across
                # chunks).  The next iteration reads the new values
                # directly, so nothing is copied.
                if upd_shards.size:
                    wb_stats = stats_from_row(wb_mat[upd_shards].sum(axis=0))
                else:
                    wb_stats = KernelStats()
                if frontier_on:
                    # Iteration-end flush: mark the updaters' shards and
                    # everything they influence (all marks survive under
                    # BSP).
                    it.last_mask[idx] = True
                    frontier.mark(idx)
                yield (updated_total, active_shard_count, active_vertices, ran,
                        wb_stats)

        return self._plan(
            graph, program, config, cw, C, vertex_values, chunk_sweeps,
            cache=cache, fingerprint=fp, cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    # ------------------------------------------------------------------
    # Reference path: the original per-shard chunk loop
    # ------------------------------------------------------------------
    def _plan_reference(
        self, graph: DiGraph, program: VertexProgram, config: RunConfig
    ) -> SweepPlan:
        frontier_on = config.frontier != "off"
        cw, _, _, _ = self._lookup(graph, program, None, stats=False)
        sh = cw.shards
        vbytes = program.vertex_value_bytes
        sbytes = program.static_value_bytes
        ebytes = program.edge_value_bytes
        warp = self.spec.warp_size
        entry_bytes = _entry_bytes(program)
        chunks = self._chunk_shards(cw, entry_bytes)
        shard_entry_sizes = np.diff(sh.shard_offsets)

        # Host-side state (the "disk" copy); device residency is modeled.
        vertex_values = config.initial_values(graph, program)
        static_all = program.static_values(graph)
        src_value = vertex_values[sh.src_index].copy()
        src_static = None if static_all is None else static_all[sh.src_index]
        ev = program.edge_values(graph)
        edge_vals = None if ev is None else ev[sh.edge_positions]

        def chunk_bytes(c: tuple[int, int]) -> int:
            lo = int(sh.shard_offsets[c[0]])
            hi = int(sh.shard_offsets[c[1]])
            return (hi - lo) * entry_bytes

        def chunk_compute(
            c: tuple[int, int], frontier, push: bool, track: bool
        ) -> tuple[KernelStats, int, list[int], list[np.ndarray], int, int]:
            """Execute stages 1-3 for every (frontier-active) shard in the
            chunk; returns the chunk's kernel stats, updated-vertex count,
            updated shards, updated vertex indices, processed-shard count,
            and changed-vertex count."""
            stats = KernelStats()
            updated = 0
            upd_shards: list[int] = []
            upd_idx: list[np.ndarray] = []
            act_count = 0
            changed_count = 0
            for i in range(*c):
                if push and not frontier.dirty[i]:
                    frontier.shards_skipped += 1
                    continue
                if frontier_on:
                    frontier.dirty[i] = False
                    frontier.edges_processed += int(shard_entry_sizes[i])
                act_count += 1
                lo, hi = sh.vertex_range(i)
                o = int(sh.shard_offsets[i])
                m_i = sh.shard_size(i)
                sl = slice(o, o + m_i)
                old = vertex_values[lo:hi]
                local = program.init_local(old)
                dest_local = sh.dest_index[sl].astype(np.int64) - lo
                msgs, mask = program.messages(
                    src_value[sl],
                    None if src_static is None else src_static[sl],
                    None if edge_vals is None else edge_vals[sl],
                    old[dest_local],
                )
                ops, changed = apply_reductions(
                    program, local, dest_local, msgs, mask, track_changed=track
                )
                if track and changed is not None:
                    changed_count += int(changed.sum())
                stats.add_atomics(shared=ops)
                n_i = hi - lo
                stats.add_load(contiguous_transactions(
                    n_i, vbytes, start_byte=lo * vbytes, warp_size=warp,
                    transaction_bytes=LOAD_GRANULARITY_BYTES))
                stats.add_lanes(*slots_for_contiguous(n_i, warp),
                                instructions_per_row=costs.INSTR_INIT)
                for b in filter(None, (vbytes, 4, sbytes, ebytes)):
                    stats.add_load(contiguous_transactions(
                        m_i, b, start_byte=o * b, warp_size=warp,
                        transaction_bytes=LOAD_GRANULARITY_BYTES))
                stats.add_lanes(*slots_for_contiguous(m_i, warp),
                                instructions_per_row=costs.INSTR_COMPUTE)
                final, upd = program.apply(local, old)
                n_upd = int(upd.sum())
                if n_upd:
                    idx = lo + np.flatnonzero(upd)
                    vertex_values[idx] = final[upd]
                    stats.add_store(gather_transactions(
                        idx, vbytes, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES))
                    updated += n_upd
                    upd_shards.append(i)
                    upd_idx.append(idx)
            return stats, updated, upd_shards, upd_idx, act_count, changed_count

        def chunk_sweeps(it: SweepContext) -> Iterator[tuple]:
            frontier, track, mdr = it.frontier, it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                active_shard_count = 0
                updated_total = 0
                updated_shards_all: list[int] = []
                upd_idx_all: list[np.ndarray] = []
                ran = []
                if mdr is not None and push:
                    # Marks only flush at the iteration boundary (flush_pos
                    # == 0), so the dirty set is exactly the shards the
                    # chunk loop is about to process.
                    mdr.note_processed(np.flatnonzero(frontier.dirty))
                for k, c in enumerate(chunks):
                    if push:
                        act_bits = frontier.dirty[c[0]:c[1]]
                        if not act_bits.any():
                            # Quiescent chunk: no kernel launch and no H2D
                            # transfer at all.
                            frontier.shards_skipped += c[1] - c[0]
                            continue
                        cb = int(
                            shard_entry_sizes[c[0]:c[1]][act_bits].sum()
                        ) * entry_bytes
                    else:
                        cb = chunk_bytes(c)
                    tr = transfer_ms(cb, self.pcie)
                    stats, updated, upd_shards, upd_idx, act_count, ch_count = (
                        chunk_compute(c, frontier, push, track)
                    )
                    if frontier_on:
                        active_shard_count += act_count
                    active_vertices += ch_count
                    updated_total += updated
                    updated_shards_all.extend(upd_shards)
                    upd_idx_all.extend(upd_idx)
                    ran.append((k, stats, tr, cb))
                if mdr is not None:
                    mdr.note_updated(
                        np.asarray(updated_shards_all, dtype=np.int64)
                    )
                # Write-back (CW) is applied once per iteration after all
                # chunks ran: cross-chunk staging semantics (BSP across chunks).
                wb_stats = KernelStats()
                for i in updated_shards_all:
                    csl = cw.cw_slice(i)
                    src_value[cw.mapper[csl]] = vertex_values[cw.cw_src_index[csl]]
                    L = cw.cw_size(i)
                    cwo = int(cw.cw_offsets[i])
                    wb_stats.add_load(contiguous_transactions(
                        L, 4, start_byte=cwo * 4, warp_size=warp,
                        transaction_bytes=LOAD_GRANULARITY_BYTES))
                    wb_stats.add_store(gather_transactions(
                        cw.mapper[csl], vbytes, warp_size=warp,
                        transaction_bytes=STORE_GRANULARITY_BYTES))
                    wb_stats.add_lanes(*slots_for_contiguous(L, warp),
                                       instructions_per_row=costs.INSTR_WRITEBACK)
                if frontier_on and upd_idx_all:
                    # Iteration-end flush: src_value now carries the new
                    # values, so mark the updaters' shards and everything
                    # they influence (all marks survive under BSP).
                    all_idx = np.concatenate(upd_idx_all)
                    it.last_mask[all_idx] = True
                    frontier.mark(all_idx)
                yield (updated_total, active_shard_count, active_vertices, ran,
                        wb_stats)

        return self._plan(
            graph, program, config, cw, len(chunks), vertex_values,
            chunk_sweeps,
        )
