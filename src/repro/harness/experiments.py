"""One driver per paper table/figure, and the table that lists them.

Every data function returns plain data structures (so tests can assert on
them) and has a ``render_*`` companion producing the paper-style text
table; experiments with plot-ready series also have a ``*_csv`` flattener.

:data:`EXPERIMENTS` is the one ordered list of the paper's experiments.
``python -m repro experiments``, :func:`repro.harness.report.generate_report`,
:func:`repro.harness.export.export_all` and the regenerator in
``benchmarks/bench_experiments.py`` all iterate it, and
``tests/test_paper_claims.py`` checks each row's claims.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.algorithms import PROGRAM_NAMES, make_program
from repro.frameworks.base import RunConfig
from repro.frameworks.cusha import CuShaEngine
from repro.frameworks.vwc import VWCEngine, VIRTUAL_WARP_SIZES
from repro.graph import generators, suite
from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.partition import select_shard_size
from repro.graph.properties import degree_distribution, window_size_histogram
from repro.graph.shards import GShards
from repro.harness.runner import GridRunner, scaled_spec
from repro.harness.tables import fmt_ms, fmt_range, fmt_speedup, format_table

__all__ = [
    "Experiment",
    "EXPERIMENTS",
    "experiment",
    "PROGRAM_LABELS",
    "table1",
    "render_table1",
    "fig1_series",
    "render_fig1",
    "table2",
    "render_table2",
    "table3",
    "render_table3",
    "table4",
    "render_table4",
    "table5",
    "render_table5",
    "table6",
    "render_table6",
    "table7",
    "render_table7",
    "fig7_traces",
    "fig7_frontier_traces",
    "render_fig7",
    "fig8_efficiencies",
    "render_fig8",
    "fig9_memory",
    "render_fig9",
    "fig10_breakdown",
    "render_fig10",
    "rmat_graph",
    "fig11_histograms",
    "render_fig11",
    "fig12_sensitivity",
    "render_fig12",
    "fig13_speedups",
    "render_fig13",
]

PROGRAM_LABELS = {
    "bfs": "BFS",
    "sssp": "SSSP",
    "pr": "PR",
    "cc": "CC",
    "sswp": "SSWP",
    "nn": "NN",
    "hs": "HS",
    "cs": "CS",
}

CSVTable = tuple[str, list[str], list]
"""``(file name, header, rows)`` of one experiment's plot-ready series."""

GRAPH_LABELS = {
    "livejournal": "LiveJournal",
    "pokec": "Pokec",
    "higgstwitter": "HiggsTwitter",
    "roadnetca": "RoadNetCA",
    "webgoogle": "WebGoogle",
    "amazon0312": "Amazon0312",
}


# ======================================================================
# Table 1 / Figure 1 — the input graphs
# ======================================================================

def table1(scale: int | None = None) -> list[tuple[str, int, int]]:
    """Rows ``(graph, edges, vertices)`` of the scaled suite."""
    if scale is None:
        scale = suite.default_scale()
    rows = []
    for name in suite.graph_names():
        g = suite.load(name, scale)
        rows.append((GRAPH_LABELS[name], g.num_edges, g.num_vertices))
    return rows


def render_table1(scale: int | None = None) -> str:
    if scale is None:
        scale = suite.default_scale()
    return format_table(
        ["Graph", "Edges", "Vertices"],
        table1(scale),
        title=f"Table 1 analogs (scale = 1/{scale} of the paper's sizes)",
    )


def table1_csv(runner: GridRunner) -> CSVTable:
    return ("table1_graphs.csv", ["graph", "edges", "vertices"],
            table1(runner.scale))


def fig1_series(
    scale: int | None = None, *, max_points: int = 40
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Degree-distribution series per graph (Figure 1)."""
    if scale is None:
        scale = suite.default_scale()
    out = {}
    for name in suite.graph_names():
        degrees, counts = degree_distribution(suite.load(name, scale))
        if degrees.size > max_points:
            pick = np.unique(
                np.geomspace(1, degrees.size, max_points).astype(int) - 1
            )
            degrees, counts = degrees[pick], counts[pick]
        out[name] = (degrees, counts)
    return out


def fig1_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for name, (deg, cnt) in fig1_series(runner.scale).items():
        rows.extend((name, int(d), int(c)) for d, c in zip(deg, cnt))
    return ("fig1_degree_distribution.csv",
            ["graph", "degree", "vertex_count"], rows)


def render_fig1(scale: int | None = None) -> str:
    parts = ["Figure 1: degree distribution (log-log series, degree:count)"]
    for name, (deg, cnt) in fig1_series(scale).items():
        pts = " ".join(f"{d}:{c}" for d, c in zip(deg.tolist(), cnt.tolist()))
        parts.append(f"{GRAPH_LABELS[name]:>13s}  {pts}")
    return "\n".join(parts)


# ======================================================================
# Table 2 — VWC-CSR efficiency ranges
# ======================================================================

def table2(
    runner: GridRunner,
    *,
    graphs: tuple[str, ...] | None = None,
    programs: tuple[str, ...] = PROGRAM_NAMES,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Per program: min/max global-load and warp-execution efficiency of
    VWC-CSR across all graphs and virtual-warp sizes."""
    if graphs is None:
        graphs = suite.graph_names()
    out: dict[str, dict[str, tuple[float, float]]] = {}
    for prog in programs:
        glds, wees = [], []
        for gname in graphs:
            for key in runner.vwc_keys():
                r = runner.run(gname, prog, key)
                glds.append(r.stats.gld_efficiency)
                wees.append(r.stats.warp_execution_efficiency)
        out[prog] = {
            "global_memory": (min(glds), max(glds)),
            "warp_execution": (min(wees), max(wees)),
        }
    return out


def render_table2(runner: GridRunner, **kw) -> str:
    data = table2(runner, **kw)
    rows = []
    for prog, d in data.items():
        gl, ge = d["global_memory"]
        wl, we = d["warp_execution"]
        rows.append(
            (
                PROGRAM_LABELS[prog],
                f"{gl * 100:.1f}%-{ge * 100:.1f}%",
                f"{wl * 100:.1f}%-{we * 100:.1f}%",
            )
        )
    return format_table(
        ["Application", "Global Memory Accesses", "Warp Execution"],
        rows,
        title="Table 2: VWC-CSR efficiency ranges across graphs and warp sizes",
    )


# ======================================================================
# Table 3 — the programming interface (generated from the implementations)
# ======================================================================

def table3(programs: tuple[str, ...] = PROGRAM_NAMES) -> list[dict]:
    """One row per benchmark: the structs and reducers its implementation
    declares — the reproduction's analog of the paper's Table 3."""
    probe = generators.random_weights(generators.rmat(64, 256, seed=0), seed=1)
    rows = []
    for name in programs:
        prog = make_program(name, probe)
        vfields = ", ".join(
            f"{f}:{prog.vertex_dtype.fields[f][0].name}"
            for f in prog.vertex_dtype.names
        )
        sfields = (
            "-" if prog.static_dtype is None else ", ".join(
                f"{f}:{prog.static_dtype.fields[f][0].name}"
                for f in prog.static_dtype.names
            )
        )
        efields = (
            "-" if prog.edge_dtype is None else ", ".join(
                f"{f}:{prog.edge_dtype.fields[f][0].name}"
                for f in prog.edge_dtype.names
            )
        )
        reducers = ", ".join(f"{f}<-{op}" for f, op in prog.reduce_ops.items())
        rows.append(
            {
                "name": PROGRAM_LABELS[name],
                "vertex": vfields,
                "static": sfields,
                "edge": efields,
                "reducers": reducers,
                "vertex_bytes": prog.vertex_value_bytes,
            }
        )
    return rows


def render_table3(programs: tuple[str, ...] = PROGRAM_NAMES) -> str:
    rows = [
        (r["name"], r["vertex"], r["static"], r["edge"], r["reducers"])
        for r in table3(programs)
    ]
    return format_table(
        ["Benchmark", "Vertex", "StaticVertex", "Edge", "Reducers"],
        rows,
        title="Table 3: benchmark programming interfaces (from the implementations)",
    )


# ======================================================================
# Table 4 — raw running times
# ======================================================================

def table4(
    runner: GridRunner,
    *,
    graphs: tuple[str, ...] | None = None,
    programs: tuple[str, ...] = PROGRAM_NAMES,
    kernel_only: bool = False,
) -> dict[str, dict[str, dict[str, object]]]:
    """``data[graph][program] = {"cw": ms, "gs": ms, "vwc": (min, max)}``.

    ``kernel_only=True`` drops the host-device transfers — the supplement
    EXPERIMENTS.md uses to separate the per-iteration advantage from the
    transfer share, which is inflated at reduced graph scale.
    """
    if graphs is None:
        graphs = suite.graph_names()

    def t(res):
        return res.kernel_time_ms if kernel_only else res.total_ms

    out: dict[str, dict[str, dict[str, object]]] = {}
    for gname in graphs:
        out[gname] = {}
        for prog in programs:
            vwc = [t(runner.run(gname, prog, k)) for k in runner.vwc_keys()]
            out[gname][prog] = {
                "cw": t(runner.run(gname, prog, "cusha-cw")),
                "gs": t(runner.run(gname, prog, "cusha-gs")),
                "vwc": (min(vwc), max(vwc)),
            }
    return out


def table4_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for gname, cells in table4(runner).items():
        for prog, cell in cells.items():
            rows.append((
                gname, prog,
                f"{cell['cw']:.6f}", f"{cell['gs']:.6f}",
                f"{cell['vwc'][0]:.6f}", f"{cell['vwc'][1]:.6f}",
            ))
    return ("table4_runtimes.csv",
            ["graph", "program", "cusha_cw_ms", "cusha_gs_ms",
             "vwc_best_ms", "vwc_worst_ms"], rows)


def render_table4(runner: GridRunner, **kw) -> str:
    kernel_only = kw.get("kernel_only", False)
    data = table4(runner, **kw)
    programs = kw.get("programs", PROGRAM_NAMES)
    headers = ["Graph", "Engine"] + [PROGRAM_LABELS[p] for p in programs]
    rows = []
    for gname, cells in data.items():
        rows.append(
            [GRAPH_LABELS[gname], "CuSha-CW"]
            + [fmt_ms(cells[p]["cw"]) for p in programs]
        )
        rows.append(
            ["", "CuSha-GS"] + [fmt_ms(cells[p]["gs"]) for p in programs]
        )
        rows.append(
            ["", "VWC-CSR"]
            + [fmt_range(*cells[p]["vwc"]) for p in programs]
        )
    title = (
        "Table 4 (supplement): kernel-only times (simulated ms)"
        if kernel_only
        else "Table 4: running times (simulated ms, incl. host-device transfers)"
    )
    return format_table(headers, rows, title=title)


# ======================================================================
# Tables 5 & 6 — speedup ranges
# ======================================================================

def _speedup_rows(
    runner: GridRunner,
    baseline_range,
    *,
    graphs: tuple[str, ...],
    programs: tuple[str, ...],
) -> dict[str, dict[str, tuple[float, float]]]:
    """Speedups of GS/CW over a baseline's (best, worst) configurations,
    averaged the paper's two ways."""
    cell: dict[tuple[str, str], dict[str, tuple[float, float]]] = {}
    for gname in graphs:
        for prog in programs:
            lo, hi = baseline_range(gname, prog)
            gs = runner.run(gname, prog, "cusha-gs").total_ms
            cw = runner.run(gname, prog, "cusha-cw").total_ms
            cell[(gname, prog)] = {
                "gs": (lo / gs, hi / gs),
                "cw": (lo / cw, hi / cw),
            }

    def avg(keys, engine):
        lows = [cell[k][engine][0] for k in keys]
        highs = [cell[k][engine][1] for k in keys]
        return (float(np.mean(lows)), float(np.mean(highs)))

    out: dict[str, dict[str, tuple[float, float]]] = {}
    for prog in programs:
        keys = [(g, prog) for g in graphs]
        out[f"prog:{prog}"] = {"gs": avg(keys, "gs"), "cw": avg(keys, "cw")}
    for gname in graphs:
        keys = [(gname, p) for p in programs]
        out[f"graph:{gname}"] = {"gs": avg(keys, "gs"), "cw": avg(keys, "cw")}
    return out


def table5(
    runner: GridRunner,
    *,
    graphs: tuple[str, ...] | None = None,
    programs: tuple[str, ...] = PROGRAM_NAMES,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Speedup ranges of CuSha over VWC-CSR (paper Table 5)."""
    if graphs is None:
        graphs = suite.graph_names()
    return _speedup_rows(
        runner, runner.vwc_range, graphs=graphs, programs=programs
    )


def table6(
    runner: GridRunner,
    *,
    graphs: tuple[str, ...] | None = None,
    programs: tuple[str, ...] = PROGRAM_NAMES,
) -> dict[str, dict[str, tuple[float, float]]]:
    """Speedup ranges of CuSha over MTCPU-CSR (paper Table 6)."""
    if graphs is None:
        graphs = suite.graph_names()
    return _speedup_rows(
        runner, runner.mtcpu_range, graphs=graphs, programs=programs
    )


def _speedups_csv(baseline: str, data) -> CSVTable:
    rows = []
    for key, d in data.items():
        kind, name = key.split(":", 1)
        rows.append((
            kind, name,
            f"{d['gs'][0]:.4f}", f"{d['gs'][1]:.4f}",
            f"{d['cw'][0]:.4f}", f"{d['cw'][1]:.4f}",
        ))
    return (f"speedups_over_{baseline}.csv",
            ["aggregate", "name", "gs_min", "gs_max", "cw_min", "cw_max"],
            rows)


def table5_csv(runner: GridRunner) -> CSVTable:
    return _speedups_csv("vwc", table5(runner))


def table6_csv(runner: GridRunner) -> CSVTable:
    return _speedups_csv("mtcpu", table6(runner))


def _render_speedups(data, title, programs, graphs) -> str:
    rows = []
    rows.append(("-- Averages Across Input Graphs --", "", ""))
    for prog in programs:
        d = data[f"prog:{prog}"]
        rows.append(
            (PROGRAM_LABELS[prog], fmt_speedup(*d["gs"]), fmt_speedup(*d["cw"]))
        )
    rows.append(("-- Averages Across Benchmarks --", "", ""))
    for gname in graphs:
        d = data[f"graph:{gname}"]
        rows.append(
            (GRAPH_LABELS[gname], fmt_speedup(*d["gs"]), fmt_speedup(*d["cw"]))
        )
    return format_table(
        ["", "CuSha-GS speedup", "CuSha-CW speedup"], rows, title=title
    )


def render_table5(runner: GridRunner, **kw) -> str:
    graphs = kw.get("graphs") or suite.graph_names()
    programs = kw.get("programs", PROGRAM_NAMES)
    return _render_speedups(
        table5(runner, **kw),
        "Table 5: CuSha speedups over VWC-CSR (vs best-worst configuration)",
        programs,
        graphs,
    )


def render_table6(runner: GridRunner, **kw) -> str:
    graphs = kw.get("graphs") or suite.graph_names()
    programs = kw.get("programs", PROGRAM_NAMES)
    return _render_speedups(
        table6(runner, **kw),
        "Table 6: CuSha speedups over MTCPU-CSR (vs best-worst thread count)",
        programs,
        graphs,
    )


# ======================================================================
# Table 7 — BFS TEPS
# ======================================================================

def table7(
    runner: GridRunner, *, graphs: tuple[str, ...] | None = None
) -> list[tuple[str, float, float, float]]:
    """Rows ``(graph, cw_teps, gs_teps, best_vwc_teps)``."""
    if graphs is None:
        graphs = suite.graph_names()
    rows = []
    for gname in graphs:
        cw = runner.run(gname, "bfs", "cusha-cw").teps
        gs = runner.run(gname, "bfs", "cusha-gs").teps
        vwc = runner.best_vwc(gname, "bfs").teps
        rows.append((gname, cw, gs, vwc))
    return rows


def render_table7(runner: GridRunner, **kw) -> str:
    rows = [
        (
            GRAPH_LABELS[g],
            f"{cw / 1e6:.1f} M",
            f"{gs / 1e6:.1f} M",
            f"{vwc / 1e6:.1f} M",
        )
        for g, cw, gs, vwc in table7(runner, **kw)
    ]
    return format_table(
        ["Graph", "CuSha-CW", "CuSha-GS", "Best VWC-CSR"],
        rows,
        title="Table 7: BFS traversed edges per second (TEPS)",
    )


# ======================================================================
# Figure 7 — BFS convergence traces
# ======================================================================

def fig7_traces(
    runner: GridRunner, *, graphs: tuple[str, ...] | None = None
) -> dict[str, dict[str, list[tuple[float, int]]]]:
    """Per graph and engine: ``(cumulative_ms, vertices_updated)`` points."""
    if graphs is None:
        graphs = suite.graph_names()
    out: dict[str, dict[str, list[tuple[float, int]]]] = {}
    for gname in graphs:
        best = runner.best_vwc(gname, "bfs")
        out[gname] = {}
        for key, res in (
            ("cusha-cw", runner.run(gname, "bfs", "cusha-cw")),
            ("cusha-gs", runner.run(gname, "bfs", "cusha-gs")),
            (best.engine, best),
        ):
            out[gname][key] = [
                (t.cumulative_time_ms, t.updated_vertices) for t in res.traces
            ]
    return out


def fig7_frontier_traces(
    runner: GridRunner, *, graphs: tuple[str, ...] | None = None
) -> dict[str, dict[str, dict]]:
    """Figure 7's work-efficiency column: the same BFS runs under
    ``frontier="sparse"``.

    Per graph and engine: ``points`` is the per-iteration
    ``(iteration, frontier_size, active_shards)`` sequence (frontier size
    is the iteration's updated-vertex count — what Figure 7 plots — and
    ``active_shards`` is how many shard-sweeps the frontier actually
    scheduled), plus the run's exact ``edges_processed`` /
    ``shards_skipped`` counters.  Sparse values are certified
    bit-identical to the memoized dense runs before anything is
    reported.
    """
    if graphs is None:
        graphs = suite.graph_names()
    out: dict[str, dict[str, dict]] = {}
    for gname in graphs:
        graph = runner.graph(gname)
        best = runner.best_vwc(gname, "bfs")
        out[gname] = {}
        for key in ("cusha-cw", "cusha-gs", best.engine):
            dense = runner.run(gname, "bfs", key)
            res = runner.engine(key).run(
                graph, make_program("bfs", graph),
                config=RunConfig(
                    max_iterations=runner.max_iterations,
                    allow_partial=True, frontier="sparse"))
            assert res.values.tobytes() == dense.values.tobytes(), (
                gname, key, "sparse BFS diverged from the dense run")
            out[gname][key] = {
                "points": [
                    (t.iteration, t.updated_vertices, t.active_shards)
                    for t in res.traces
                ],
                "edges_processed": res.edges_processed,
                "shards_skipped": res.shards_skipped,
            }
    return out


def fig7_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for gname, engines in fig7_traces(runner).items():
        for engine, pts in engines.items():
            for it, (t, u) in enumerate(pts, start=1):
                rows.append((gname, engine, it, f"{t:.6f}", u))
    return ("fig7_bfs_traces.csv",
            ["graph", "engine", "iteration", "cumulative_ms",
             "updated_vertices"], rows)


def render_fig7(runner: GridRunner, **kw) -> str:
    from repro.harness.plots import trace_plot

    parts = ["Figure 7: BFS vertices updated per iteration over time"]
    frontier = fig7_frontier_traces(runner, **kw)
    for gname, engines in fig7_traces(runner, **kw).items():
        parts.append(f"[{GRAPH_LABELS[gname]}]")
        parts.append(trace_plot({f"  {k}": v for k, v in engines.items()}))
        for ekey, pts in engines.items():
            series = " ".join(f"({t:.3f}ms,{u})" for t, u in pts)
            parts.append(f"  {ekey:>10s}: {series}")
        parts.append("  work-efficiency (frontier=sparse):")
        for ekey, row in frontier[gname].items():
            series = " ".join(
                f"(i{i},f{f},s{s})" for i, f, s in row["points"])
            parts.append(
                f"  {ekey:>10s}: {series} "
                f"[edges={row['edges_processed']} "
                f"skipped={row['shards_skipped']}]")
    return "\n".join(parts)


# ======================================================================
# Figure 8 — profiled efficiencies
# ======================================================================

def fig8_efficiencies(
    runner: GridRunner,
    *,
    graph: str = "livejournal",
    programs: tuple[str, ...] = PROGRAM_NAMES,
) -> dict[str, dict[str, float]]:
    """Average gst/gld/warp-execution efficiency on one graph, averaged over
    the benchmarks (the paper's Figure 8 setting)."""
    acc = {k: {"gst": [], "gld": [], "warp": []} for k in
           ("best-vwc", "cusha-gs", "cusha-cw")}
    for prog in programs:
        best = runner.best_vwc(graph, prog)
        for key, res in (
            ("best-vwc", best),
            ("cusha-gs", runner.run(graph, prog, "cusha-gs")),
            ("cusha-cw", runner.run(graph, prog, "cusha-cw")),
        ):
            acc[key]["gst"].append(res.stats.gst_efficiency)
            acc[key]["gld"].append(res.stats.gld_efficiency)
            acc[key]["warp"].append(res.stats.warp_execution_efficiency)
    return {
        k: {m: float(np.mean(v)) for m, v in d.items()} for k, d in acc.items()
    }


def fig8_csv(runner: GridRunner) -> CSVTable:
    rows = [
        (engine, f"{d['gst']:.5f}", f"{d['gld']:.5f}", f"{d['warp']:.5f}")
        for engine, d in fig8_efficiencies(runner).items()
    ]
    return ("fig8_efficiencies.csv",
            ["engine", "gst_efficiency", "gld_efficiency", "warp_efficiency"],
            rows)


def render_fig8(runner: GridRunner, **kw) -> str:
    from repro.harness.plots import hbar_chart

    data = fig8_efficiencies(runner, **kw)
    rows = [
        (
            k,
            f"{d['gst'] * 100:.2f}%",
            f"{d['gld'] * 100:.2f}%",
            f"{d['warp'] * 100:.2f}%",
        )
        for k, d in data.items()
    ]
    table = format_table(
        ["Engine", "Global store eff.", "Global load eff.", "Warp exec eff."],
        rows,
        title="Figure 8: average profiled efficiencies (LiveJournal analog)",
    )
    bars = []
    for metric in ("gst", "gld", "warp"):
        bars.append(
            hbar_chart(
                [(k, d[metric]) for k, d in data.items()],
                width=40,
                fmt="{:.2%}",
                title=f"[{metric}]",
            )
        )
    return table + "\n" + "\n".join(bars)


# ======================================================================
# Figure 9 — memory footprint
# ======================================================================

def fig9_memory(
    scale: int | None = None, *, programs: tuple[str, ...] = PROGRAM_NAMES
) -> dict[str, dict[str, tuple[float, float, float]]]:
    """Per graph: (min, avg, max) bytes across benchmarks for CSR / G-Shards
    / CW, normalized to the graph's CSR average."""
    if scale is None:
        scale = suite.default_scale()
    out: dict[str, dict[str, tuple[float, float, float]]] = {}
    for gname in suite.graph_names():
        g = suite.load(gname, scale)
        csr = CSR.from_graph(g)
        sizes: dict[str, list[int]] = {"csr": [], "gs": [], "cw": []}
        for prog_name in programs:
            prog = make_program(prog_name, g)
            plan = select_shard_size(
                g, vertex_value_bytes=prog.vertex_value_bytes
            )
            sh = GShards(g, plan.vertices_per_shard)
            cw = ConcatenatedWindows(sh)
            args = (
                prog.vertex_value_bytes,
                prog.edge_value_bytes,
                prog.static_value_bytes,
            )
            sizes["csr"].append(csr.memory_bytes(*args))
            sizes["gs"].append(sh.memory_bytes(*args))
            sizes["cw"].append(cw.memory_bytes(*args))
        csr_avg = float(np.mean(sizes["csr"]))
        out[gname] = {
            rep: (
                min(v) / csr_avg,
                float(np.mean(v)) / csr_avg,
                max(v) / csr_avg,
            )
            for rep, v in sizes.items()
        }
    return out


def fig9_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for gname, reps in fig9_memory(runner.scale).items():
        for rep, (lo, avg, hi) in reps.items():
            rows.append((gname, rep, f"{lo:.4f}", f"{avg:.4f}", f"{hi:.4f}"))
    return ("fig9_memory.csv",
            ["graph", "representation", "min_norm", "avg_norm", "max_norm"],
            rows)


def render_fig9(scale: int | None = None, **kw) -> str:
    data = fig9_memory(scale, **kw)
    rows = []
    for gname, reps in data.items():
        rows.append(
            (
                GRAPH_LABELS[gname],
                *(f"{reps[r][0]:.2f}/{reps[r][1]:.2f}/{reps[r][2]:.2f}"
                  for r in ("csr", "gs", "cw")),
            )
        )
    return format_table(
        ["Graph", "CSR min/avg/max", "G-Shards min/avg/max", "CW min/avg/max"],
        rows,
        title="Figure 9: memory footprint normalized to CSR average",
    )


# ======================================================================
# Figure 10 — time breakdown
# ======================================================================

def _trace_time_components(tracer) -> tuple[float, float, float]:
    """``(h2d, kernel, d2h)`` ms read off a run's trace spans.

    The kernel component folds the iteration spans in emission order — the
    same floats the engine summed into ``kernel_time_ms`` — so the trace
    reproduces the ``RunResult`` numbers exactly."""
    h2d = sum(s.model_ms for s in tracer.find(kind="transfer", name="h2d"))
    d2h = sum(s.model_ms for s in tracer.find(kind="transfer", name="d2h"))
    kernel = 0.0
    for s in tracer.find(kind="iteration"):
        kernel += s.model_ms
    return h2d, kernel, d2h


def fig10_breakdown(
    runner: GridRunner,
    *,
    graph: str = "livejournal",
    programs: tuple[str, ...] = PROGRAM_NAMES,
) -> dict[str, dict[str, tuple[float, float, float]]]:
    """Per benchmark: ``(h2d, kernel, d2h)`` ms for CW / GS / best VWC.

    Sourced from the telemetry tracer (``transfer`` and ``iteration``
    spans) rather than ``RunResult`` fields; the numbers are identical."""
    out: dict[str, dict[str, tuple[float, float, float]]] = {}
    for prog in programs:
        best = runner.best_vwc(graph, prog)
        out[prog] = {}
        for label, key in (
            ("cusha-cw", "cusha-cw"),
            ("cusha-gs", "cusha-gs"),
            ("best-vwc", best.engine),
        ):
            _res, tracer = runner.run_traced(graph, prog, key)
            out[prog][label] = _trace_time_components(tracer)
    return out


def fig10_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for prog, engines in fig10_breakdown(runner).items():
        for engine, (h2d, kern, d2h) in engines.items():
            rows.append(
                (prog, engine, f"{h2d:.6f}", f"{kern:.6f}", f"{d2h:.6f}"))
    return ("fig10_time_breakdown.csv",
            ["program", "engine", "h2d_ms", "kernel_ms", "d2h_ms"], rows)


def render_fig10(runner: GridRunner, **kw) -> str:
    data = fig10_breakdown(runner, **kw)
    rows = []
    for prog, engines in data.items():
        for key, (h2d, kern, d2h) in engines.items():
            rows.append(
                (
                    PROGRAM_LABELS[prog],
                    key,
                    fmt_ms(h2d),
                    fmt_ms(kern),
                    fmt_ms(d2h),
                )
            )
    return format_table(
        ["Benchmark", "Engine", "H2D copy", "GPU compute", "D2H copy"],
        rows,
        title="Figure 10: time breakdown (LiveJournal analog)",
    )


# ======================================================================
# Figures 11-13 — R-MAT sensitivity study (paper section 5.2)
# ======================================================================

@functools.lru_cache(maxsize=16)
def rmat_graph(
    edges_millions: int, vertices_millions: int, scale: int, seed: int = 77
):
    """The paper's ``i_j`` R-MAT graph (i M edges, j M vertices), scaled.

    ``|N|`` values used with these graphs must be scaled by ``sqrt(scale)``
    (see :func:`scaled_shard_size`), which preserves both the window-size
    distribution ``|E|/|S|^2`` and the windows-per-edge ratio ``|S|^2/|E|``.
    """
    v = max(1024, vertices_millions * 1_000_000 // scale)
    e = max(2048, edges_millions * 1_000_000 // scale)
    g = generators.rmat(v, e, seed=seed + edges_millions + 31 * vertices_millions)
    return generators.random_weights(g, seed=seed + 1)


def scaled_shard_size(paper_n: int, scale: int) -> int:
    """Scale a paper ``|N|`` (e.g. 3k) for 1/scale graphs: divide by
    ``sqrt(scale)`` and round to a positive multiple of 8."""
    n = max(8, int(round(paper_n / math.sqrt(scale) / 8)) * 8)
    return n


FIG11_SIZES = ((34, 4), (67, 8), (134, 16))
FIG11_SPARSITY = ((67, 4), (67, 8), (67, 16))
FIG11_N_PAPER = (1000, 3000, 6000)

FIG12_GRAPHS = (
    (34, 4), (34, 8), (34, 16),
    (67, 4), (67, 8), (67, 16),
    (134, 4), (134, 8), (134, 16),
)
FIG12_N_PAPER = (1000, 3000, 6000)


def fig11_histograms(scale: int | None = None) -> dict[str, dict[str, np.ndarray]]:
    """The three window-size-frequency panels of Figure 11."""
    if scale is None:
        scale = suite.default_scale()
    n3k = scaled_shard_size(3000, scale)
    out: dict[str, dict[str, np.ndarray]] = {"size": {}, "sparsity": {}, "shard": {}}
    for e, v in FIG11_SIZES:
        sh = GShards(rmat_graph(e, v, scale), n3k)
        out["size"][f"{e}_{v}"] = window_size_histogram(sh)[1]
    for e, v in FIG11_SPARSITY:
        sh = GShards(rmat_graph(e, v, scale), n3k)
        out["sparsity"][f"{e}_{v}"] = window_size_histogram(sh)[1]
    for paper_n in FIG11_N_PAPER:
        sh = GShards(rmat_graph(67, 8, scale), scaled_shard_size(paper_n, scale))
        out["shard"][f"N={paper_n // 1000}k"] = window_size_histogram(sh)[1]
    return out


def fig11_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for panel, series in fig11_histograms(runner.scale).items():
        for label, counts in series.items():
            rows.extend(
                (panel, label, size, int(c)) for size, c in enumerate(counts)
            )
    return ("fig11_window_sizes.csv",
            ["panel", "series", "window_size", "count"], rows)


def render_fig11(scale: int | None = None) -> str:
    data = fig11_histograms(scale)
    parts = ["Figure 11: frequency of window sizes (bins 0..128; last bin clipped)"]
    panels = (
        ("(a) graph size effect, N=3k", "size"),
        ("(b) sparsity effect, |E|=67M", "sparsity"),
        ("(c) |N| effect, 67_8 graph", "shard"),
    )
    for title, key in panels:
        parts.append(title)
        for label, counts in data[key].items():
            head = " ".join(str(int(c)) for c in counts[:16])
            total = int(counts.sum())
            small = int(counts[:32].sum())
            parts.append(
                f"  {label:>8s}: first-16-bins [{head}] …  "
                f"windows<32: {small}/{total} ({100 * small / max(total, 1):.1f}%)"
            )
    return "\n".join(parts)


def fig12_sensitivity(
    scale: int | None = None, *, max_iterations: int = 300
) -> dict[str, dict[str, float]]:
    """Normalized SSSP runtimes of GS vs CW across R-MAT graphs and |N|."""
    if scale is None:
        scale = suite.default_scale()
    spec = scaled_spec(scale)
    raw: dict[str, dict[str, float]] = {}
    for e, v in FIG12_GRAPHS:
        g = rmat_graph(e, v, scale)
        prog = make_program("sssp", g)
        for paper_n in FIG12_N_PAPER:
            n = scaled_shard_size(paper_n, scale)
            label = f"{e}_{v}/N={paper_n // 1000}k"
            raw[label] = {}
            for mode in ("gs", "cw"):
                eng = CuShaEngine(mode, vertices_per_shard=n, spec=spec)
                res = eng.run(
                    g, prog, config=RunConfig(
                        max_iterations=max_iterations, allow_partial=True
                    )
                )
                # Kernel time only: at full scale the paper's totals are
                # kernel-dominated, while at 1/scale the one-time H2D copy
                # would swamp the few iterations and mask the sensitivity
                # this figure is about.
                raw[label][mode] = res.kernel_time_ms
    best = min(min(d.values()) for d in raw.values())
    return {
        label: {mode: t / best for mode, t in d.items()}
        for label, d in raw.items()
    }


def fig12_csv(runner: GridRunner) -> CSVTable:
    rows = [
        (label, f"{d['gs']:.4f}", f"{d['cw']:.4f}")
        for label, d in fig12_sensitivity(runner.scale).items()
    ]
    return ("fig12_sensitivity.csv",
            ["graph_and_n", "gs_normalized", "cw_normalized"], rows)


def render_fig12(scale: int | None = None, **kw) -> str:
    data = fig12_sensitivity(scale, **kw)
    rows = [
        (label, f"{d['gs']:.2f}", f"{d['cw']:.2f}", f"{d['gs'] / d['cw']:.2f}x")
        for label, d in data.items()
    ]
    return format_table(
        ["Graph/N", "GS (norm.)", "CW (norm.)", "GS/CW"],
        rows,
        title="Figure 12: normalized SSSP time, G-Shards vs CW across R-MAT graphs",
    )


def fig13_speedups(
    scale: int | None = None, *, max_iterations: int = 300
) -> dict[str, dict[int, float]]:
    """CW speedup over each VWC warp size on the R-MAT grid (SSSP, N=3k)."""
    if scale is None:
        scale = suite.default_scale()
    spec = scaled_spec(scale)
    n3k = scaled_shard_size(3000, scale)
    out: dict[str, dict[int, float]] = {}
    for e, v in FIG12_GRAPHS:
        g = rmat_graph(e, v, scale)
        prog = make_program("sssp", g)
        cw = CuShaEngine("cw", vertices_per_shard=n3k, spec=spec).run(
            g, prog, config=RunConfig(
                max_iterations=max_iterations, allow_partial=True
            )
        )
        out[f"{e}_{v}"] = {}
        for w in VIRTUAL_WARP_SIZES:
            vwc = VWCEngine(w, spec=spec, address_dilation=scale).run(
                g, prog, config=RunConfig(
                    max_iterations=max_iterations, allow_partial=True
                )
            )
            # Kernel time only — same rationale as fig12_sensitivity.
            out[f"{e}_{v}"][w] = vwc.kernel_time_ms / cw.kernel_time_ms
    return out


def fig13_csv(runner: GridRunner) -> CSVTable:
    rows = []
    for label, d in fig13_speedups(runner.scale).items():
        for w, s in d.items():
            rows.append((label, w, f"{s:.4f}"))
    return ("fig13_speedups.csv",
            ["graph", "virtual_warp_size", "cw_speedup"], rows)


def render_fig13(scale: int | None = None, **kw) -> str:
    data = fig13_speedups(scale, **kw)
    rows = [
        (label, *(f"{d[w]:.2f}x" for w in VIRTUAL_WARP_SIZES))
        for label, d in data.items()
    ]
    return format_table(
        ["Graph"] + [f"VWC-{w}" for w in VIRTUAL_WARP_SIZES],
        rows,
        title="Figure 13: CW speedup over VWC-CSR per virtual warp size (SSSP)",
    )


# ======================================================================
# The experiment table
# ======================================================================

@dataclass(frozen=True)
class Experiment:
    """One paper table or figure.

    ``key`` is the ``repro experiments`` argument, ``stem`` names the
    archived ``benchmarks/results/<stem>.txt``, ``title`` heads the
    report's section.  ``render`` produces the text from a
    :class:`~repro.harness.runner.GridRunner` (experiments that run no grid
    cell read only ``runner.scale``); ``csv``, when set, flattens the
    plot-ready series.  ``rmat_study`` marks the R-MAT sensitivity figures,
    which the report can skip.
    """

    key: str
    stem: str
    title: str
    render: Callable[[GridRunner], str]
    csv: Callable[[GridRunner], CSVTable] | None = None
    rmat_study: bool = False


def _at_scale(render: Callable[[int], str]) -> Callable[[GridRunner], str]:
    return lambda runner: render(runner.scale)


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("table1", "table1_graphs", "Inputs",
               _at_scale(render_table1), table1_csv),
    Experiment("fig1", "fig1_degree_distribution", "Degree distributions",
               _at_scale(render_fig1), fig1_csv),
    Experiment("table2", "table2_vwc_efficiency", "VWC-CSR efficiency",
               render_table2),
    Experiment("table3", "table3_programs", "Programming interfaces",
               lambda runner: render_table3()),
    Experiment("table4", "table4_runtimes", "Running times",
               render_table4, table4_csv),
    Experiment("table4-kernel", "table4_runtimes_kernel_only",
               "Running times (kernel only)",
               lambda runner: render_table4(runner, kernel_only=True)),
    Experiment("table5", "table5_speedup_vwc", "Speedups over VWC-CSR",
               render_table5, table5_csv),
    Experiment("table6", "table6_speedup_mtcpu", "Speedups over MTCPU-CSR",
               render_table6, table6_csv),
    Experiment("table7", "table7_bfs_teps", "BFS TEPS", render_table7),
    Experiment("fig7", "fig7_bfs_convergence", "BFS convergence traces",
               render_fig7, fig7_csv),
    Experiment("fig8", "fig8_profiled_efficiency", "Profiled efficiencies",
               render_fig8, fig8_csv),
    Experiment("fig9", "fig9_memory_footprint", "Memory footprint",
               _at_scale(render_fig9), fig9_csv),
    Experiment("fig10", "fig10_time_breakdown", "Time breakdown",
               render_fig10, fig10_csv),
    Experiment("fig11", "fig11_window_sizes", "Window-size distributions",
               _at_scale(render_fig11), fig11_csv, rmat_study=True),
    Experiment("fig12", "fig12_gs_cw_sensitivity", "GS vs CW sensitivity",
               _at_scale(render_fig12), fig12_csv, rmat_study=True),
    Experiment("fig13", "fig13_cw_vwc_rmat", "CW vs VWC on R-MAT",
               _at_scale(render_fig13), fig13_csv, rmat_study=True),
)


def experiment(key: str) -> Experiment:
    """The :data:`EXPERIMENTS` row with CLI key ``key``."""
    for exp in EXPERIMENTS:
        if exp.key == key:
            return exp
    raise KeyError(key)
