"""Shared CSR iteration machinery for the VWC and MTCPU baselines.

Both baselines walk the same incoming-edge CSR with the same semantics: the
vertex set is processed in contiguous chunks; within a chunk values are
computed from the *live* ``VertexValues`` array and applied at chunk end
(chunked Gauss–Seidel).  This matches Figure 14, where vertex updates land
directly in the single-version ``VertexValues`` and become visible to
concurrently running virtual warps — the reason the paper's Figure 7 shows
CSR converging in fewer (but slower) iterations than CuSha's multi-version
shards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache import cached, graph_fingerprint, resolve_cache
from repro.graph.csr import CSR
from repro.graph.digraph import DiGraph
from repro.vertexcentric.program import VertexProgram, apply_reductions

__all__ = ["CSRProblem", "SlotTable", "cache_option", "preflight_csr",
           "run_chunk", "iterate_chunks"]


@dataclass(frozen=True)
class SlotTable:
    """The per-CSR-slot operands of the chunk loop that no iteration
    changes, built once per run: each slot's source as ``intp``, the
    source's static values, and the slot's destination minus the first
    vertex of its ``chunk_size`` chunk (the index into the chunk's
    ``local`` and ``old`` rows)."""

    chunk_size: int
    sources: np.ndarray
    static: np.ndarray | None
    dest_local: np.ndarray

    @classmethod
    def build(cls, problem: "CSRProblem", chunk_size: int) -> "SlotTable":
        sources = problem.csr.src_indxs.astype(np.intp)
        dest_local = problem.destinations.astype(np.intp)
        dest_local %= chunk_size
        return cls(
            chunk_size=chunk_size,
            sources=sources,
            static=(None if problem.static_values is None
                    else problem.static_values[sources]),
            dest_local=dest_local,
        )


@dataclass
class CSRProblem:
    """CSR arrays plus program data, ready to iterate."""

    csr: CSR
    program: VertexProgram
    vertex_values: np.ndarray
    static_values: np.ndarray | None
    edge_values: np.ndarray | None  # CSR slot order
    destinations: np.ndarray  # per CSR slot, int64
    slots: SlotTable | None = None  # built by the first chunk that runs

    @classmethod
    def build(
        cls, graph: DiGraph, program: VertexProgram, cache=None, *, fp=None
    ) -> "CSRProblem":
        """Assemble the problem, memoizing the structural pieces.

        The CSR arrays and the per-slot destination map depend only on the
        graph's topology, so they are cached by fingerprint (see
        :mod:`repro.cache`); the value arrays depend on the program and the
        graph's weights and are always built fresh.  ``cache=False``
        disables the memo.  A caller that already hashed ``graph`` passes
        the result as ``fp``.
        """
        resolved = resolve_cache(cache)
        if resolved is None:
            fp = None
        elif fp is None:
            fp = graph_fingerprint(graph)
        csr = cached(resolved, ("csr", fp), lambda: CSR.from_graph(graph))
        destinations = cached(
            resolved, ("csr-dest", fp),
            lambda: csr.destinations().astype(np.int64),
        )
        ev = program.edge_values(graph)
        return cls(
            csr=csr,
            program=program,
            vertex_values=program.initial_values(graph),
            static_values=program.static_values(graph),
            edge_values=None if ev is None else csr.gather_edge_values(ev),
            destinations=destinations,
        )

    def slot_table(self, chunk_size: int) -> SlotTable:
        """The :class:`SlotTable` for ``chunk_size`` chunks, built on first
        use and kept for the rest of the run."""
        if self.slots is None or self.slots.chunk_size != chunk_size:
            self.slots = SlotTable.build(self, chunk_size)
        return self.slots


def cache_option(engine, config):
    """The ``cache`` option of one CSR-engine run: the engine's own, except
    that the reference path never consults a cache, keeping the
    equivalence baseline free of memoization."""
    return False if config.exec_path == "reference" else engine.cache


def preflight_csr(engine, graph: DiGraph, config) -> tuple:
    """``(csr,)``: the CSR a CSR engine's run iterates, under the key
    :meth:`CSRProblem.build` uses (``preflight_representations``)."""
    cache = resolve_cache(cache_option(engine, config))
    fp = None if cache is None else graph_fingerprint(graph)
    return (cached(cache, ("csr", fp), lambda: CSR.from_graph(graph)),)


def run_chunk(
    problem: CSRProblem, a: int, b: int, chunk_size: int | None = None
) -> tuple[np.ndarray, int]:
    """Process vertices ``[a, b)``, one chunk of a ``chunk_size`` grid
    (default ``b - a``); apply updates in place.

    Returns ``(updated_vertex_indices, reduction_ops)``.
    """
    if chunk_size is None:
        chunk_size = b - a
    if b > a and (a % chunk_size or b - a > chunk_size):
        raise ValueError(
            f"[{a}, {b}) is not one chunk of the {chunk_size}-vertex grid"
        )
    prog = problem.program
    vv = problem.vertex_values
    lo = int(problem.csr.in_edge_idxs[a])
    hi = int(problem.csr.in_edge_idxs[b])
    old = vv[a:b]
    local = prog.init_local(old)
    ops = 0
    if hi > lo:
        slots = problem.slot_table(chunk_size)
        dest_local = slots.dest_local[lo:hi]
        msgs, mask = prog.messages(
            vv[slots.sources[lo:hi]],
            None if slots.static is None else slots.static[lo:hi],
            None if problem.edge_values is None else problem.edge_values[lo:hi],
            old[dest_local],
        )
        ops, _ = apply_reductions(prog, local, dest_local, msgs, mask)
    final, upd = prog.apply(local, old)
    idx = a + np.flatnonzero(upd)
    if idx.size:
        vv[idx] = final[upd]
    return idx, ops


def iterate_chunks(
    problem: CSRProblem, chunk_size: int, *, metrics=None
) -> tuple[np.ndarray, int]:
    """One full iteration over all vertices in ``chunk_size`` chunks.

    Returns ``(updated_vertex_indices, reduction_ops)`` for the iteration.
    When a :class:`~repro.telemetry.MetricsRegistry` is passed via
    ``metrics``, the iteration's reduction-op and chunk counts are published
    under the ``csr.*`` namespace.
    """
    n = problem.csr.num_vertices
    updated: list[np.ndarray] = []
    ops = 0
    chunks = 0
    for a in range(0, n, chunk_size):
        idx, chunk_ops = run_chunk(problem, a, min(a + chunk_size, n),
                                   chunk_size)
        ops += chunk_ops
        chunks += 1
        if idx.size:
            updated.append(idx)
    if metrics is not None:
        metrics.counter("csr.reduction_ops").inc(ops)
        metrics.counter("csr.chunks").inc(chunks)
    if updated:
        return np.concatenate(updated), ops
    return np.empty(0, dtype=np.int64), ops
