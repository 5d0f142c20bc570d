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

__all__ = ["CSRProblem", "cache_option", "preflight_csr", "run_chunk",
           "iterate_chunks"]


@dataclass
class CSRProblem:
    """CSR arrays plus program data, ready to iterate."""

    csr: CSR
    program: VertexProgram
    vertex_values: np.ndarray
    static_values: np.ndarray | None
    edge_values: np.ndarray | None  # CSR slot order
    destinations: np.ndarray  # per CSR slot, int64

    @classmethod
    def build(
        cls, graph: DiGraph, program: VertexProgram, cache=None
    ) -> "CSRProblem":
        """Assemble the problem, memoizing the structural pieces.

        The CSR arrays and the per-slot destination map depend only on the
        graph's topology, so they are cached by fingerprint (see
        :mod:`repro.cache`); the value arrays depend on the program and the
        graph's weights and are always built fresh.  ``cache=False``
        disables the memo.
        """
        resolved = resolve_cache(cache)
        fp = None if resolved is None else graph_fingerprint(graph)
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


def run_chunk(problem: CSRProblem, a: int, b: int) -> tuple[np.ndarray, int]:
    """Process vertices ``[a, b)``; apply updates in place.

    Returns ``(updated_vertex_indices, reduction_ops)``.
    """
    prog = problem.program
    vv = problem.vertex_values
    lo = int(problem.csr.in_edge_idxs[a])
    hi = int(problem.csr.in_edge_idxs[b])
    old = vv[a:b]
    local = prog.init_local(old)
    ops = 0
    if hi > lo:
        srcs = problem.csr.src_indxs[lo:hi].astype(np.int64)
        dests = problem.destinations[lo:hi]
        msgs, mask = prog.messages(
            vv[srcs],
            None if problem.static_values is None else problem.static_values[srcs],
            None if problem.edge_values is None else problem.edge_values[lo:hi],
            vv[dests],
        )
        ops, _ = apply_reductions(prog, local, dests - a, msgs, mask)
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
        idx, chunk_ops = run_chunk(problem, a, min(a + chunk_size, n))
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
