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
entry order, which the concatenation preserves).  That kernel step
(:func:`wave_kernel`) and the packed gather of a sparse frontier's active
shards (:func:`pack_shards`) are written once here; the streamed engine
runs the same step over its single whole-iteration wave.  Hardware pricing uses the
segmented helpers so warp rows never span shard boundaries.  The fast
operator keeps one stats row per stage for each iteration and one for the
run: stage 1-3 rows are sums of the bundle's per-shard rows, and all of an
iteration's stores are priced in one segmented call after its last wave.
``"reference"`` keeps the per-shard loop, with the literal ``SrcValue``
array and write-back, as the oracle the fast operator is gated against.
Its kernel step (:func:`shard_kernel`) and its static pricing
(:func:`shard_pricing`, Figure 5's four stages per shard from the simple
one-range primitives) are also written once here: the streamed reference
operator runs them too, and the drift gate in
:mod:`repro.analysis.perf` prices its predictions from the same function.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.cache import cached, counted, graph_fingerprint, resolve_cache
from repro.errors import ConfigError
from repro.frameworks import costs
from repro.frameworks.base import Engine, RunConfig, RunResult
from repro.frameworks.sweep import (SweepContext, SweepPlan, SweepStep,
                                    run_sweeps)
from repro.frameworks.wavebatch import cusha_static_bundle, multi_arange
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.partition import select_shard_size
from repro.gpu.engine import KernelCostModel
from repro.gpu.memory import (contiguous_transactions, gather_transactions,
                              gather_transactions_segmented, TransactionCount)
from repro.gpu.occupancy import blocks_per_sm, occupancy, shared_mem_per_block
from repro.gpu.spec import GTX780, GPUSpec, PCIeSpec
from repro.gpu.stats import (KernelStats, LOAD_GRANULARITY_BYTES,
                             STAT_FIELDS, STORE_COLUMNS,
                             STORE_GRANULARITY_BYTES, stats_from_row)
from repro.gpu.sharedmem import conflict_replays
from repro.gpu.warp import slots_for_contiguous, slots_for_segments
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CuShaEngine", "entry_arrays", "pack_shards", "shard_blocks",
           "shard_kernel", "shard_pricing", "wave_kernel"]

_STAGES = ("stage1-fetch", "stage2-compute", "stage3-update",
           "stage4-writeback")
# The stats-row cell of stage 2's shared-memory atomics, which the fast
# sweep charges per wave.
_ATOMICS = STAT_FIELDS.index("shared_atomics")


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


# ----------------------------------------------------------------------
# The batched wave kernel, shared with the streamed engine.  It lives in
# this module because per-layer wall-time attribution (perfbench/layers.py)
# wraps ``repro.frameworks.cusha:apply_reductions``.
# ----------------------------------------------------------------------
def entry_arrays(graph, program, sh) -> tuple:
    """``(src_index, src_static, edge_vals)`` in shard-entry order: what
    :func:`wave_kernel` gathers per entry.  ``SrcValue`` is never stored;
    the kernel reads it as ``values[src_index]``."""
    src_index = sh.src_index.astype(np.intp)
    static_all = program.static_values(graph)
    ev = program.edge_values(graph)
    return (
        src_index,
        None if static_all is None else static_all[src_index],
        None if ev is None else ev[sh.edge_positions],
    )


def pack_shards(
    act: np.ndarray, N: int, n: int, shard_offsets: np.ndarray,
    dest_global: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The frontier gather of the active shards ``act``: their vertex and
    entry indices, the destinations rebased into the packed vertex space,
    and the packed vertex offset of each shard (``act.size + 1``).  Every
    shard owns its destination slice, so the packed subset is closed."""
    v_lo = act * N
    v_hi = np.minimum(v_lo + N, n)
    e_lo = shard_offsets[act]
    e_hi = shard_offsets[act + 1]
    e_idx = multi_arange(e_lo, e_hi)
    packed_off = np.zeros(act.size + 1, dtype=np.int64)
    np.cumsum(v_hi - v_lo, out=packed_off[1:])
    dest_sub = dest_global[e_idx] - np.repeat(
        v_lo - packed_off[:-1], e_hi - e_lo
    )
    return multi_arange(v_lo, v_hi), e_idx, dest_sub, packed_off


def wave_kernel(program, values: np.ndarray, entries: tuple, vsel, esel,
                dest: np.ndarray, track: bool) -> tuple:
    """One batched CuSha kernel over whole shards.

    ``vsel`` selects the shards' vertices (a slice or packed indices),
    ``esel`` their entries, and ``dest`` maps each entry to its row of the
    selection.  Runs ``messages`` -> ``apply_reductions`` -> ``apply``
    with ``SrcValue`` read as ``values[src_index]``, which is exact at a
    wave start (the callers' wave-start invariant).  Because every shard
    owns its destination slice and ``ufunc.at`` applies updates in entry
    order, this equals the per-shard loop bit for bit.

    Returns ``(ops, changed, mask, pos, new)``: the reduction ops, the
    changed-row mask (``track`` only), the message mask, the updated rows
    of the selection and their new values, which the caller stores.
    """
    src_index, src_static, edge_vals = entries
    old = values[vsel]
    local = program.init_local(old)
    msgs, mask = program.messages(
        values[src_index[esel]],
        None if src_static is None else src_static[esel],
        None if edge_vals is None else edge_vals[esel],
        old[dest],
    )
    ops, changed = apply_reductions(
        program, local, dest, msgs, mask, track_changed=track
    )
    final, upd = program.apply(local, old)
    return ops, changed, mask, np.flatnonzero(upd), final[upd]


# ----------------------------------------------------------------------
# The per-shard reference operators' building blocks, shared with the
# streamed engine and with the drift gate (repro.analysis.perf).  They use
# only the simple one-range primitives and nothing of wavebatch.py, so
# they stay an independent check of the fast path's segmented pricing.
# ----------------------------------------------------------------------
def shard_blocks(sh) -> list[tuple[int, int, slice, np.ndarray]]:
    """``(lo, hi, entries, dest_local)`` of every shard: its vertex range,
    its entry slice and its destination indices rebased to ``lo``."""
    blocks = []
    for i in range(sh.num_shards):
        lo, hi = sh.vertex_range(i)
        o = int(sh.shard_offsets[i])
        sl = slice(o, o + sh.shard_size(i))
        blocks.append((lo, hi, sl, sh.dest_index[sl].astype(np.int64) - lo))
    return blocks


def shard_pricing(
    cw: ConcatenatedWindows, mode: str, warp: int, vbytes: int, sbytes: int,
    ebytes: int,
) -> tuple[list[KernelStats], list[KernelStats], list[KernelStats],
           list[KernelStats], list[int]]:
    """The static price of every shard in Figure 5's four stages.

    Returns ``(stage1, stage2, stage3, stage4, replays)``, one entry per
    shard: stage 1/3 fetch the vertex slice, stage 2 streams the SoA entry
    fields and pays ``replays`` shared-atomic bank-conflict rounds, and
    stage 4 is a warp-per-window walk (``gs``) or a thread-per-CW-entry
    scatter through the Mapper (``cw``).  Stage 3's stores and stage 2's
    atomics depend on the data and are charged by the kernels.
    """
    sh = cw.shards
    S = sh.num_shards
    loads = dict(warp_size=warp, transaction_bytes=LOAD_GRANULARITY_BYTES)
    stores = dict(warp_size=warp, transaction_bytes=STORE_GRANULARITY_BYTES)
    stages: tuple[list[KernelStats], ...] = ([], [], [], [])
    replays: list[int] = []
    for i, (lo, hi, sl, dest_local) in enumerate(shard_blocks(sh)):
        st1, st2, st3, st4 = (KernelStats() for _ in range(4))
        n_i = hi - lo
        m_i = sl.stop - sl.start
        vv_load = contiguous_transactions(n_i, vbytes, start_byte=lo * vbytes,
                                          **loads)
        # Stage 1: coalesced VertexValues fetch.
        st1.add_load(vv_load)
        st1.add_lanes(*slots_for_contiguous(n_i, warp),
                      instructions_per_row=costs.INSTR_INIT)
        # Stage 2: coalesced shard-entry loads (SoA field arrays: SrcValue,
        # DestIndex, then the optional static / edge fields).  Destination
        # indices that collide modulo the bank count serialize the
        # shared-memory atomics within a warp round.
        for b in filter(None, (vbytes, 4, sbytes, ebytes)):
            st2.add_load(contiguous_transactions(
                m_i, b, start_byte=sl.start * b, **loads))
        st2.add_lanes(*slots_for_contiguous(m_i, warp),
                      instructions_per_row=costs.INSTR_COMPUTE)
        replays.append(conflict_replays(dest_local, warp_size=warp))
        st2.add_instructions(replays[-1] * costs.INSTR_ATOMIC_REPLAY)
        # Stage 3: coalesced VertexValues read (stores are dynamic).
        st3.add_load(vv_load)
        st3.add_lanes(*slots_for_contiguous(n_i, warp),
                      instructions_per_row=costs.INSTR_UPDATE)
        # Stage 4 (charged only on iterations where the shard updates).
        if mode == "gs":
            starts = sh.window_offsets[:, i]
            stops = sh.window_offsets[:, i + 1]
            st4.add_load(_window_rows_transactions(starts, stops, 4, **loads))
            st4.add_store(_window_rows_transactions(starts, stops, vbytes,
                                                    **stores))
            st4.add_lanes(*slots_for_segments(stops - starts, warp),
                          instructions_per_row=costs.INSTR_WRITEBACK)
            # The warps must visit every window W_ij — including empty
            # ones — to read its bounds and decide whether to copy: a
            # per-shard cost linear in S (quadratic per iteration) that CW
            # eliminates.  Bounds live in a transposed, contiguous offsets
            # row.
            st4.add_load(contiguous_transactions(S + 1, 8, **loads))
            st4.add_instructions(S * costs.INSTR_GS_WINDOW_SCAN)
        else:
            L = cw.cw_size(i)
            # SrcIndex and Mapper are both contiguous 4-byte reads over the
            # same CW slot range, so their pricing is identical: compute
            # once, charge twice.  The SrcValue stores scatter through the
            # mapper.
            cw_read = contiguous_transactions(
                L, 4, start_byte=int(cw.cw_offsets[i]) * 4, **loads)
            st4.add_load(cw_read)
            st4.add_load(cw_read)
            st4.add_store(gather_transactions(
                cw.mapper[cw.cw_slice(i)], vbytes, **stores))
            st4.add_lanes(*slots_for_contiguous(L, warp),
                          instructions_per_row=costs.INSTR_WRITEBACK)
        for stage, st in zip(stages, (st1, st2, st3, st4)):
            stage.append(st)
    return (*stages, replays)


def shard_kernel(program, values: np.ndarray, entries: tuple, block: tuple,
                 track: bool) -> tuple:
    """One reference CuSha block over one shard, the per-shard counterpart
    of :func:`wave_kernel`.

    ``entries`` is ``(src_value, src_static, edge_vals)`` with the literal
    ``SrcValue`` array, and ``block`` one :func:`shard_blocks` row.  Runs
    ``messages`` -> ``apply_reductions`` -> ``apply`` and stores the
    updated vertices into ``values``.  Returns ``(ops, changed, idx)``:
    the reduction ops, the changed-row mask (``track`` only) and the
    updated vertex ids.
    """
    src_value, src_static, edge_vals = entries
    lo, hi, sl, dest_local = block
    old = values[lo:hi]
    local = program.init_local(old)
    msgs, mask = program.messages(
        src_value[sl],
        None if src_static is None else src_static[sl],
        None if edge_vals is None else edge_vals[sl],
        old[dest_local],
    )
    ops, changed = apply_reductions(
        program, local, dest_local, msgs, mask, track_changed=track
    )
    final, upd = program.apply(local, old)
    idx = lo + np.flatnonzero(upd)
    if idx.size:
        values[idx] = final[upd]
    return ops, changed, idx


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
        The shard schedule: ``"wave"`` (default; write-backs visible at
        the boundaries of waves of resident blocks, as on a real grid),
        ``"async"`` (visible at once) or ``"bsp"`` (visible at the
        iteration boundary); see module docstring.
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
            raise ConfigError("mode must be 'gs' or 'cw'", knob="mode")
        if sync_mode not in ("wave", "async", "bsp"):
            raise ConfigError("sync_mode must be 'wave', 'async', or 'bsp'",
                              knob="sync_mode")
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
            name: stats_from_row(mat.sum(axis=0))
            for name, mat in zip(_STAGES, (bundle.stage1, bundle.stage2,
                                           bundle.stage3, bundle.stage4))
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
        entries = entry_arrays(graph, program, sh)

        # Per-shard static rows of stages 1-3, (S, 3, len(STAT_FIELDS)),
        # and their full-sweep sum; stage 4 is charged per written shard.
        static = np.stack((bundle.stage1, bundle.stage2, bundle.stage3),
                          axis=1)
        full = static.sum(axis=0)
        stage4 = bundle.stage4
        all_shards = np.arange(S, dtype=np.int64)

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

        # The run's stage rows: the sum of every iteration's ``rows``.
        run_rows = np.zeros((4, len(STAT_FIELDS)), dtype=np.float64)

        def sweeps(it: SweepContext) -> Iterator[SweepStep]:
            track, mdr = it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                # One row per stage: a push sweep adds the rows of the
                # shards it processes, a dense sweep starts from them all.
                rows = np.zeros_like(run_rows)
                if not push:
                    rows[:3] = full
                acts = [_EMPTY_SHARDS] if push else [all_shards]
                updated = [_EMPTY_SHARDS]
                for a, b, vlo, vhi, eo, ee, dest_local in waves:
                    act = it.take(a, b)
                    sparse = False
                    if push:
                        if act.size == 0:
                            continue
                        acts.append(act)
                        sparse = act.size < b - a
                        rows[:3] += static[act if sparse else slice(a, b)].sum(
                            axis=0)
                    if sparse:
                        v_idx, e_idx, dest_sub, _ = pack_shards(
                            act, N, n, sh.shard_offsets, dest_global
                        )
                        ops, changed, _, pos, new = wave_kernel(
                            program, vertex_values, entries, v_idx, e_idx,
                            dest_sub, track,
                        )
                    else:
                        ops, changed, _, pos, new = wave_kernel(
                            program, vertex_values, entries, slice(vlo, vhi),
                            slice(eo, ee), dest_local, track,
                        )
                    if track and changed is not None:
                        active_vertices += int(changed.sum())
                    rows[1, _ATOMICS] += ops
                    if pos.size:
                        # The next wave must see this wave's stores and
                        # frontier marks (the updaters' own shards plus
                        # everything they influence).
                        idx = v_idx[pos] if sparse else vlo + pos
                        vertex_values[idx] = new
                        updated.append(idx)
                        it.mark(idx)
                # The waves ascend and so do the ids within each wave, so
                # the iteration's updated ids are sorted by shard: one
                # segmented call prices every store, each shard's stores in
                # warp rows of their own (as in the reference loop).
                idx = np.concatenate(updated)
                counts = np.bincount(idx // N, minlength=S)
                written = np.flatnonzero(counts)
                seg = np.zeros(written.size + 1, dtype=np.int64)
                np.cumsum(counts[written], out=seg[1:])
                store = gather_transactions_segmented(
                    idx, vbytes, seg, warp_size=warp,
                    transaction_bytes=STORE_GRANULARITY_BYTES)
                rows[2, STORE_COLUMNS] += (store.transactions,
                                           store.bytes_requested)
                if self.always_writeback:
                    written = np.concatenate(acts)
                rows[3] = stage4[written].sum(axis=0)
                if mdr is not None:
                    mdr.note_updated(written)
                run_rows[:] += rows
                iter_stats = stats_from_row(rows.sum(axis=0))
                iter_stats.kernel_launches = 1
                stages = []
                if trace_on:
                    stages = self._stage_spans(
                        occ, *(stats_from_row(r) for r in rows))
                yield SweepStep(
                    int(idx.size),
                    iter_stats,
                    self.cost_model.time_ms(iter_stats, occupancy=occ),
                    active_vertices,
                    {"updated_shards": int(written.size)},
                    stages,
                )

        def stage_stats(_executed: int) -> list:
            return [stats_from_row(r) for r in run_rows]

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
        warp = self.spec.warp_size

        # ----- device arrays -------------------------------------------------
        vertex_values = config.initial_values(graph, program)
        src_index, src_static, edge_vals = entry_arrays(graph, program, sh)
        src_value = vertex_values[src_index]
        entries = (src_value, src_static, edge_vals)
        entries_per_shard = np.diff(sh.shard_offsets)
        blocks = shard_blocks(sh)

        # ----- static per-iteration hardware stats (split per stage) ---------
        # Per-shard resolution throughout (frontier-gated iterations charge
        # only the shards they process); aggregates are exact sums.
        stage1, stage2, stage3, stage4, _ = shard_pricing(
            cw, self.mode, warp, vbytes, program.static_value_bytes,
            program.edge_value_bytes)
        base1 = sum(stage1, KernelStats())
        base2 = sum(stage2, KernelStats())
        base3 = sum(stage3, KernelStats())

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
            track, mdr = it.track, it.mdr
            while True:
                push = it.push
                active_vertices = 0
                if push:
                    s1_it, s2_it, s3_it = (KernelStats() for _ in range(3))
                else:
                    s1_it, s2_it, s3_it = (s.copy() for s in (base1, base2,
                                                              base3))
                iter_stats = KernelStats(kernel_launches=1)
                if trace_on:
                    # Per-iteration dynamic deltas, tracked only when a real
                    # tracer is attached so untraced runs do no extra work.
                    dyn2 = KernelStats()
                    dyn3 = KernelStats()
                    st4_iter = KernelStats()
                updated_total = 0
                updated_shards: list[int] = []
                pending_writeback: list[int] = []
                wave_upd: list[np.ndarray] = []
                for i in range(S):
                    unit = it.take(i, i + 1)
                    if unit is None or unit.size:
                        if push:
                            s1_it += stage1[i]
                            s2_it += stage2[i]
                            s3_it += stage3[i]
                        ops, changed, idx = shard_kernel(
                            program, vertex_values, entries, blocks[i], track
                        )
                        if track and changed is not None:
                            active_vertices += int(changed.sum())
                        iter_stats.add_atomics(shared=ops)
                        stage2_dynamic.add_atomics(shared=ops)
                        if trace_on:
                            dyn2.add_atomics(shared=ops)
                        if idx.size:
                            store_tc = gather_transactions(
                                idx, vbytes, warp_size=warp,
                                transaction_bytes=STORE_GRANULARITY_BYTES)
                            iter_stats.add_store(store_tc)
                            stage3_dynamic.add_store(store_tc)
                            if trace_on:
                                dyn3.add_store(store_tc)
                            updated_total += idx.size
                            updated_shards.append(i)
                            pending_writeback.append(i)
                            wave_upd.append(idx)
                        elif self.always_writeback:
                            updated_shards.append(i)
                            pending_writeback.append(i)
                    if (i + 1) % wave_size == 0 or i == S - 1:
                        for j in pending_writeback:
                            csl = cw.cw_slice(j)
                            src_value[cw.mapper[csl]] = vertex_values[
                                cw.cw_src_index[csl]
                            ]
                        pending_writeback.clear()
                        if wave_upd:
                            # Wave-boundary frontier marking, in lockstep
                            # with write-back visibility.
                            it.mark(np.concatenate(wave_upd))
                            wave_upd.clear()
                if mdr is not None:
                    mdr.note_updated(np.asarray(updated_shards, dtype=np.int64))
                iter_stats += s1_it + s2_it + s3_it
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
                    stages = self._stage_spans(
                        occ, s1_it, s2_it + dyn2, s3_it + dyn3, st4_iter
                    )
                yield SweepStep(
                    updated_total,
                    iter_stats,
                    self.cost_model.time_ms(iter_stats, occupancy=occ),
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
