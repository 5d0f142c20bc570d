"""The iteration driver of the sharded engines.

CuSha splits a graph algorithm into the framework's iterative loop, which
runs until no shard updates, and the user's per-shard ``compute`` /
``update_condition``.  This module is the framework half for the engines
that sweep scheduling units (CuSha shards, streamed shards, VWC vertex
chunks): :func:`run_sweeps` owns the iteration protocol exactly once, and
each engine supplies only a :class:`SweepPlan` whose ``sweeps`` operator
executes and prices one iteration per step (Gunrock's enactor/operator
split).

The driver owns, in this order per run:

- the ``run`` span, inside which the engine builds its plan;
- the multi-device accumulator (:func:`repro.placement.multi_device_run`)
  and the :class:`~repro.frameworks.frontier.ShardFrontier`;
- the ``launch`` and ``h2d`` fault hooks and the ``h2d`` transfer span;
- per iteration: the ``kernel``/``device`` hooks, the ``iteration`` span,
  ``begin_iteration``, the push/pull direction and the updated-mask reset,
  the sweep, the multi-device time and ``exchange`` span, the traces, the
  iteration-span attrs and the engine's stage spans, the ``values`` hook
  and the convergence test;
- :class:`ConvergenceError`, the ``d2h`` hook and span, the run metrics
  and the :class:`RunResult`, which the plan's ``finish`` completes with
  the engine's stage stats and gauges.

Because the fast and reference paths of an engine both run through this
loop, they reach the same :class:`~repro.frameworks.base.FaultHooks`
sites by construction.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from repro.cache import cached
from repro.frameworks.base import (ConvergenceError, IterationTrace,
                                   RunConfig, RunResult)
from repro.frameworks.frontier import (ShardFrontier, choose_direction,
                                       vertex_influence_csr)
from repro.gpu.pcie import transfer_ms
from repro.gpu.stats import KernelStats
from repro.placement import MultiDeviceRun, multi_device_run
from repro.telemetry.metrics import publish_kernel_stats

__all__ = ["SweepPlan", "SweepContext", "SweepStep", "run_sweeps"]


@dataclass
class SweepContext:
    """What the sweep operator sees; the driver updates ``iteration``,
    ``start_ms`` and ``push`` before every step."""

    frontier: ShardFrontier | None
    """The live dirty bitmap, ``None`` with the frontier off."""
    last_mask: np.ndarray | None
    """The iteration's updated-vertex mask, cleared by the driver."""
    mdr: MultiDeviceRun | None
    track: bool
    """Count the vertices whose reduction changed (traced frontier runs)."""
    iteration: int = 0
    start_ms: float = 0.0
    """Modeled start of the iteration (for the engine's own spans)."""
    push: bool = False
    """Sparse gather over the dirty units (else a dense sweep)."""


@dataclass
class SweepStep:
    """What one sweep returns to the driver."""

    updated: int
    stats: KernelStats
    t_ms: float
    """Single-device modeled time of the iteration."""
    processed: int = 0
    """Units processed (counted only with the frontier on)."""
    active_vertices: int | None = None
    attrs: dict = field(default_factory=dict)
    """Extra iteration-span attrs (traced runs)."""
    stages: list = field(default_factory=list)
    """``(name, model_ms, stats)`` stage spans the driver emits after the
    exchange span (traced runs)."""


@dataclass
class SweepPlan:
    """One run of a sharded engine, as the driver needs it."""

    sweeps: Callable[[SweepContext], Iterator[SweepStep]]
    """A generator yielding one step per iteration.  A generator, not a
    per-iteration callback, so the sweep's arrays stay alive until the
    next iteration replaces them, as in a plain loop: freeing them all at
    every iteration boundary lets malloc return the heap top to the OS
    and page-fault it back on the next iteration (measured ~25% slower
    per BFS call when the caller keeps its results)."""
    finish: Callable[[RunResult], None]
    """Completes the result: stage stats, gauges, engine extras."""
    values: np.ndarray
    """The live VertexValues the sweeps update in place."""
    unit_size: int
    unit_edges: np.ndarray
    """Entries per unit: the direction choice and the device weights."""
    flush_pos: np.ndarray
    """Where each unit's frontier marks flush (see ``resume_dirty``)."""
    representation_bytes: int
    launch: tuple[int, int]
    """Shared bytes requested and their limit (the ``launch`` hook)."""
    h2d_bytes: int | None = None
    """Bytes of the bulk upload; the representation by default."""
    resident: bool = False
    cache: object = None
    fingerprint: str | None = None
    cache_hits: int = 0
    cache_misses: int = 0


def _frontier(plan: SweepPlan, graph, config: RunConfig) -> ShardFrontier:
    n = graph.num_vertices
    units = len(plan.unit_edges)

    def build():
        return vertex_influence_csr(graph.src, graph.dst, n, plan.unit_size,
                                    units)

    indptr, targets = cached(
        plan.cache, ("frontier", plan.fingerprint, plan.unit_size), build)
    resume = None if config.resume is None else config.resume.frontier
    return ShardFrontier(units, plan.unit_size, indptr, targets,
                         resume=resume,
                         flush_pos=plan.flush_pos)


def run_sweeps(
    engine,
    graph,
    program,
    config: RunConfig,
    build: Callable[..., SweepPlan],
) -> RunResult:
    """Run ``build(graph, program, config)``'s sweeps to convergence."""
    tracer = config.tracer
    trace_on = tracer.enabled
    faults = config.faults
    name = engine.name
    with tracer.span(
        name,
        "run",
        engine=name,
        program=program.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
    ) as run_span:
        plan = build(graph, program, config)
        if trace_on and plan.cache is not None:
            tracer.metrics.counter("cache.hits").inc(plan.cache_hits)
            tracer.metrics.counter("cache.misses").inc(plan.cache_misses)
        vbytes = program.vertex_value_bytes
        mdr = multi_device_run(
            config, len(plan.unit_edges),
            weights=plan.unit_edges,
            src_unit=graph.src // plan.unit_size,
            dst_unit=graph.dst // plan.unit_size,
            value_bytes=vbytes,
            pcie=engine.pcie,
        )
        frontier = last_mask = None
        total_edges = 0
        if config.frontier != "off":
            frontier = _frontier(plan, graph, config)
            last_mask = np.zeros(graph.num_vertices, dtype=bool)
            total_edges = int(plan.unit_edges.sum())

        # ----- transfers (Figure 10) -------------------------------------
        h2d_bytes = (plan.representation_bytes if plan.h2d_bytes is None
                     else plan.h2d_bytes)
        h2d_ms = transfer_ms(h2d_bytes, engine.pcie)
        d2h_ms = transfer_ms(graph.num_vertices * vbytes, engine.pcie)
        if faults.active:
            faults.launch(name, *plan.launch)
            faults.transfer(name, "h2d")
        h2d_attrs = {"resident": True} if plan.resident else {}
        tracer.emit(
            "h2d", "transfer", model_start_ms=0.0, model_ms=h2d_ms,
            bytes=h2d_bytes, **h2d_attrs,
        )

        # ----- iterate ----------------------------------------------------
        ctx = SweepContext(frontier, last_mask, mdr,
                           frontier is not None and trace_on)
        sweeps = plan.sweeps(ctx)
        total_stats = KernelStats()
        traces: list[IterationTrace] = []
        kernel_ms = 0.0
        converged = False
        iterations = config.start_iteration
        for iteration in range(config.start_iteration + 1,
                               config.max_iterations + 1):
            if faults.active:
                faults.kernel(name, iteration, config.exec_path)
                if mdr is not None:
                    faults.device(
                        name, iteration, config.exec_path, mdr.placement
                    )
            start_ms = h2d_ms + kernel_ms
            with tracer.span(
                f"iter-{iteration}", "iteration", model_start_ms=start_ms
            ) as it_span:
                direction = None
                if frontier is not None:
                    program.begin_iteration(iteration)
                    if config.frontier == "auto":
                        direction = choose_direction(
                            int(plan.unit_edges[frontier.dirty].sum()),
                            total_edges,
                        )
                    else:
                        direction = "push"
                    last_mask[:] = False
                ctx.iteration = iteration
                ctx.start_ms = start_ms
                ctx.push = direction == "push"
                step = next(sweeps)
                t_ms = step.t_ms
                if mdr is not None:
                    t_ms = mdr.iteration_time(t_ms)
                    if trace_on and mdr.last_exchange_bytes:
                        tracer.emit(
                            "exchange", "transfer",
                            model_start_ms=start_ms + t_ms
                            - mdr.last_exchange_ms,
                            model_ms=mdr.last_exchange_ms,
                            bytes=mdr.last_exchange_bytes,
                            iteration=iteration,
                        )
                kernel_ms += t_ms
                total_stats += step.stats
                iterations = iteration
                traces.append(IterationTrace(
                    iteration, step.updated, t_ms, kernel_ms, step.processed,
                ))
                if trace_on:
                    it_span.model_ms = t_ms
                    attrs = it_span.attrs
                    attrs["updated_vertices"] = step.updated
                    attrs.update(step.attrs)
                    if frontier is not None:
                        attrs["frontier_direction"] = direction
                        attrs["active_shards"] = step.processed
                        if step.active_vertices is not None:
                            attrs["active_vertices"] = step.active_vertices
                    tracer.metrics.histogram(
                        "engine.updated_vertices"
                    ).observe(step.updated)
                    for sname, sms, sstats in step.stages:
                        tracer.emit(
                            sname, "stage", model_start_ms=start_ms,
                            model_ms=sms, stats=sstats, iteration=iteration,
                        )
            if faults.active:
                faults.values(name, iteration, plan.values)
            if step.updated == 0:
                converged = True
                break

        if not converged and not config.allow_partial:
            raise ConvergenceError(
                f"{name}/{program.name} did not converge in "
                f"{config.max_iterations} iterations"
            )
        if faults.active:
            faults.transfer(name, "d2h")
        tracer.emit(
            "d2h", "transfer", model_start_ms=h2d_ms + kernel_ms,
            model_ms=d2h_ms, bytes=graph.num_vertices * vbytes,
        )
        if trace_on:
            m = tracer.metrics
            publish_kernel_stats(m, total_stats)
            m.counter("engine.iterations").inc(
                iterations - config.start_iteration
            )
            if mdr is not None:
                mdr.publish(tracer, engine=name)
            if frontier is not None:
                m.counter("frontier.edges_processed").inc(
                    frontier.edges_processed
                )
                m.counter("frontier.shards_skipped").inc(
                    frontier.shards_skipped
                )
            run_span.model_ms = h2d_ms + kernel_ms + d2h_ms
            run_span.attrs["iterations"] = iterations
            run_span.attrs["converged"] = converged
            if frontier is not None:
                run_span.attrs["frontier"] = config.frontier
        result = RunResult(
            engine=name,
            program=program.name,
            values=plan.values,
            iterations=iterations,
            converged=converged,
            kernel_time_ms=kernel_ms,
            h2d_ms=h2d_ms,
            d2h_ms=d2h_ms,
            representation_bytes=plan.representation_bytes,
            stats=total_stats,
            traces=traces,
            num_edges=graph.num_edges,
            exec_path=config.exec_path,
            cache_hits=plan.cache_hits,
            cache_misses=plan.cache_misses,
            edges_processed=0 if frontier is None else frontier.edges_processed,
            shards_skipped=0 if frontier is None else frontier.shards_skipped,
            frontier_mask=None if last_mask is None else last_mask.copy(),
            devices=config.devices,
            exchange_bytes=0 if mdr is None else mdr.exchange_bytes,
            exchange_ms=0.0 if mdr is None else mdr.exchange_ms,
        )
        plan.finish(result)
        return result
