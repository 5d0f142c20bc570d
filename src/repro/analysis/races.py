"""Simulated-race detector for the scalar (reference) execution path.

The paper's correctness argument (section 4) rests on two dynamic
disciplines no test previously checked:

1. **Stage discipline** — ``VertexValues`` may only change in stage 3 of
   Figure 5; during stages 1/2 the device functions own a *local* copy and
   every other record (``src_v``, ``src_static``, ``edge``, the current
   value ``v``) is read-only.  Stage-2 updates must go through the declared
   ``reduce_ops`` operator — an undeclared write, or a write that violates
   a declared ``min``/``max`` operator's monotonicity, is exactly the
   update a shared-memory atomic would lose or corrupt on the GPU.
2. **Commutativity/associativity** — shard entries are folded in whatever
   order warps happen to run; ``compute`` must therefore commute.  The
   detector re-runs the same iterations with each vertex's fold order
   permuted and diffs the results (bit-exact for integer fields,
   tolerance-based for floating fields, whose reductions legitimately
   reorder rounding).

The checks run the scalar device functions through the executor of
:mod:`repro.frameworks.scalar`: the stage and frontier checks run the
reference engine's own :func:`~repro.frameworks.scalar.shard_sweep`, the
stage check with instrumented record wrappers (a ThreadSanitizer-style
shadow), and the order check runs
:func:`~repro.frameworks.scalar.vertex_sweep`.  Findings are typed
:class:`~repro.analysis.violations.Violation` records.  The checks are
opt-in (``RunConfig(validate="full")`` or ``python -m repro check``) and
cost O(|E|) Python per iteration, so run them on small graphs.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.violations import Violation
from repro.frameworks.scalar import shard_sweep, vertex_sweep
from repro.graph.digraph import DiGraph
from repro.graph.shards import GShards
from repro.vertexcentric.program import VertexProgram

__all__ = [
    "stage_discipline_check",
    "order_sensitivity_check",
    "race_check",
    "frontier_discipline_check",
]


class _Tracked(dict):
    """A record wrapper that logs field writes into the detector."""

    def __init__(self, data: dict, role: str, writable: bool, log) -> None:
        super().__init__(data)
        self._role = role
        self._writable = writable
        self._log = log

    def __setitem__(self, key, value) -> None:
        self._log._on_write(self, key, value)
        super().__setitem__(key, value)


class _DisciplineLog:
    """Aggregates stage-discipline findings, deduplicated per rule site."""

    def __init__(self, program: VertexProgram) -> None:
        self.program = program
        self.stage = "init"
        self.violations: list[Violation] = []
        self._seen: set[tuple] = set()

    def wrap(self, rec: dict, role: str, stage: str) -> _Tracked:
        """``shard_sweep``'s record hook: track ``rec`` from ``stage`` on."""
        self.stage = stage
        return _Tracked(rec, role, role == "local", self)

    def _report(self, key: tuple, code: str, message: str) -> None:
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(
            Violation(code, message, subject=self.program.name)
        )

    def _on_write(self, rec: _Tracked, field, value) -> None:
        role, stage = rec._role, self.stage
        if not rec._writable:
            if role in ("static", "edge"):
                self._report(
                    ("R204", role, field, stage),
                    "R204",
                    f"{stage}: device function wrote read-only {role} "
                    f"record field {field!r}",
                )
            else:
                self._report(
                    ("R201", role, field, stage),
                    "R201",
                    f"{stage}: device function wrote VertexValues record "
                    f"({role}) field {field!r} outside stage 3",
                )
            return
        if stage == "stage2-compute":
            ops = self.program.reduce_ops or {}
            if field not in ops:
                self._report(
                    ("R202", field),
                    "R202",
                    f"stage 2 wrote local field {field!r} which bypasses "
                    f"the declared reduce_ops {sorted(ops)}",
                )
                return
            old = rec.get(field)
            op = ops[field]
            try:
                # np.any collapses (K,) subarray fields (the multi-source
                # traversal blocks) as well as plain scalars.
                if op == "min" and bool(np.any(np.asarray(value) > np.asarray(old))):
                    self._report(
                        ("R202-mono", field),
                        "R202",
                        f"stage 2 increased local field {field!r} "
                        f"({old!r} -> {value!r}) despite its declared "
                        f"'min' reducer — the write bypasses the ufunc",
                    )
                elif op == "max" and bool(np.any(np.asarray(value) < np.asarray(old))):
                    self._report(
                        ("R202-mono", field),
                        "R202",
                        f"stage 2 decreased local field {field!r} "
                        f"({old!r} -> {value!r}) despite its declared "
                        f"'max' reducer — the write bypasses the ufunc",
                    )
            except TypeError:  # pragma: no cover - non-comparable values
                pass


def stage_discipline_check(
    graph: DiGraph,
    program: VertexProgram,
    *,
    vertices_per_shard: int = 4,
    max_iterations: int = 8,
) -> list[Violation]:
    """Run up to ``max_iterations`` reference iterations with instrumented
    records and report stage-discipline violations (``R201``/``R202``/
    ``R204``).

    The execution is :class:`~repro.frameworks.scalar.ScalarReferenceEngine`'s
    own :func:`~repro.frameworks.scalar.shard_sweep`; convergence simply
    stops the instrumentation early.
    """
    sh = GShards(graph, vertices_per_shard)
    log = _DisciplineLog(program)
    values = program.initial_values(graph)
    static_all = program.static_values(graph)
    ev = program.edge_values(graph)
    edge_vals = None if ev is None else ev[sh.edge_positions]
    src_value = values[sh.src_index].copy()
    src_static = None if static_all is None else static_all[sh.src_index]
    for _iteration in range(max_iterations):
        if not shard_sweep(program, sh, values, src_value, src_static,
                           edge_vals, wrap=log.wrap):
            break
    return log.violations


def order_sensitivity_check(
    graph: DiGraph,
    program: VertexProgram,
    *,
    iterations: int = 2,
    permutation_seed: int = 0,
    rtol: float = 1e-4,
    atol: float = 1e-5,
) -> list[Violation]:
    """Re-run ``iterations`` supersteps with each vertex's fold order
    permuted and diff the results (``R203``).

    Integer vertex fields must match bit-exactly (``min``/``max``/integer
    ``add`` reductions are order-invariant); floating fields are compared
    with ``rtol``/``atol`` because reordering a float ``add`` legitimately
    reorders rounding.  A difference beyond that means ``compute`` is not
    commutative/associative — the property the paper's atomics require.
    """
    def supersteps(rng) -> np.ndarray:
        values = program.initial_values(graph)
        statics = program.static_values(graph)
        edges = program.edge_values(graph)
        for _ in range(iterations):
            if not vertex_sweep(program, graph, values, statics, edges,
                                rng=rng):
                break
        return values

    baseline = supersteps(None)
    permuted = supersteps(np.random.default_rng(permutation_seed))
    out: list[Violation] = []
    for name in baseline.dtype.names:
        a, b = baseline[name], permuted[name]
        if a.dtype.kind == "f":
            ok = np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True)
        else:
            ok = np.array_equal(a, b)
        if not ok:
            with np.errstate(over="ignore"):
                diff = np.abs(a.astype(np.float64) - b.astype(np.float64))
            out.append(Violation(
                "R203",
                f"permuting the edge fold order changed field {name!r} on "
                f"{int((a != b).sum())}/{a.size} vertices "
                f"(max |delta| = {float(np.nanmax(diff)):g} after "
                f"{iterations} iterations) — compute is order-sensitive",
                subject=program.name,
            ))
    return out


def frontier_discipline_check(
    graph: DiGraph,
    program: VertexProgram,
    *,
    vertices_per_shard: int = 4,
    max_iterations: int = 4,
    eager_mark: bool = False,
) -> list[Violation]:
    """Instrumented frontier-gated reference iterations checking the
    ``ShardFrontier`` write discipline (``R205``).

    The frontier contract (see :mod:`repro.frameworks.frontier`) is that
    dirty bits are set from the *genuinely updated* vertex indices at a
    write-back **flush boundary** — never mid-stage, where a later shard
    in the same sweep could observe (and clear) a mark for work that has
    not been written back yet.  This check runs a BSP-disciplined sparse
    sweep with an instrumented frontier that records the phase of every
    ``mark()`` call, and cross-validates the end-of-iteration dirty bitmap
    against :func:`~repro.frameworks.frontier.resume_dirty` rebuilt from
    the updated-vertex mask.

    ``eager_mark=True`` simulates the buggy engine the check exists to
    catch: marking per shard at stage 3, before the write-back flush.
    """
    from repro.frameworks.frontier import (ShardFrontier, resume_dirty,
                                           vertex_influence_csr)

    sh = GShards(graph, vertices_per_shard)
    n = graph.num_vertices
    num_units = sh.num_shards
    indptr, targets = vertex_influence_csr(
        graph.src, graph.dst, n, vertices_per_shard, num_units
    )
    phase = {"value": "init"}
    violations: list[Violation] = []
    seen: set[tuple] = set()

    def report(key: tuple, message: str) -> None:
        if key in seen:
            return
        seen.add(key)
        violations.append(Violation("R205", message, subject=program.name))

    class _InstrumentedFrontier(ShardFrontier):
        __slots__ = ()

        def mark(self, updated_vertices) -> None:
            if phase["value"] != "flush":
                report(
                    ("mark-phase", phase["value"]),
                    f"{phase['value']}: ShardFrontier.mark() called outside "
                    f"a write-back flush boundary",
                )
            super().mark(updated_vertices)

    values = program.initial_values(graph)
    static_all = program.static_values(graph)
    ev = program.edge_values(graph)
    edge_vals = None if ev is None else ev[sh.edge_positions]
    src_static = None if static_all is None else static_all[sh.src_index]
    flush_pos = np.zeros(num_units, dtype=np.int64)  # BSP: one flush per sweep
    frontier = _InstrumentedFrontier(n, vertices_per_shard,
                                     np.diff(sh.shard_offsets), flush_pos,
                                     indptr, targets)

    for _iteration in range(max_iterations):
        phase["value"] = "sweep"
        active = frontier.active(0, num_units)
        if not active.size:
            break
        src_value = values[sh.src_index]  # the BSP snapshot of this sweep
        updated: list[int] = []
        for i in active:
            shard_updated = shard_sweep(
                program, sh, values, src_value, src_static, edge_vals,
                shards=(i,), writeback=False,
            )
            if eager_mark and shard_updated:
                # The simulated bug: per-shard marking at stage 3, before
                # the flush.
                phase["value"] = "stage3-update"
                frontier.mark(np.asarray(shard_updated, dtype=np.int64))
                phase["value"] = "sweep"
            updated.extend(shard_updated)
        frontier.clear(active)
        phase["value"] = "flush"
        upd = np.asarray(updated, dtype=np.int64)
        frontier.mark(upd)
        phase["value"] = "post"
        mask = np.zeros(n, dtype=bool)
        mask[upd] = True
        expected = resume_dirty(
            mask, vertices_per_shard, num_units, indptr, targets, flush_pos
        )
        if not np.array_equal(expected, frontier.dirty):
            report(
                ("flush-mismatch",),
                "end-of-iteration dirty bitmap disagrees with the bitmap "
                "rebuilt from the genuinely updated vertex mask — the "
                "flushed unit set does not match the vertices actually "
                "updated",
            )
        if not upd.size:
            break
    return violations


def race_check(
    graph: DiGraph,
    program: VertexProgram,
    *,
    vertices_per_shard: int = 4,
    max_iterations: int = 8,
    order_iterations: int = 2,
    permutation_seed: int = 0,
) -> list[Violation]:
    """Full dynamic check: stage discipline plus order sensitivity."""
    return stage_discipline_check(
        graph,
        program,
        vertices_per_shard=vertices_per_shard,
        max_iterations=max_iterations,
    ) + order_sensitivity_check(
        graph,
        program,
        iterations=order_iterations,
        permutation_seed=permutation_seed,
    )
