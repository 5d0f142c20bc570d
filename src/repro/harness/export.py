"""CSV export for every experiment's data (plot-ready series).

The text tables in ``benchmarks/results/`` mimic the paper's layout; this
module writes the same data as CSV files so the figures can be re-plotted
with any tool.  Each experiment's ``csv`` flattener (see
:data:`repro.harness.experiments.EXPERIMENTS`) supplies the rows;
:func:`export_experiment` writes one file and :func:`export_all` writes
every one.  :func:`export_trace` and :func:`export_metrics` flatten one
traced grid cell.
"""

from __future__ import annotations

import csv
import pathlib

from repro.harness import experiments as E
from repro.harness.runner import GridRunner

__all__ = [
    "export_experiment",
    "export_trace",
    "export_metrics",
    "export_all",
]


def _write(path: pathlib.Path, header: list[str], rows) -> pathlib.Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_experiment(
    out_dir: str | pathlib.Path, exp: E.Experiment, runner: GridRunner
) -> pathlib.Path:
    """Write one experiment's CSV series; returns its path."""
    name, header, rows = exp.csv(runner)
    return _write(pathlib.Path(out_dir) / name, header, rows)


def export_trace(
    out_dir: str | pathlib.Path,
    runner: GridRunner,
    *,
    graph: str,
    program: str,
    engine: str,
) -> pathlib.Path:
    """Flatten one traced grid cell's spans into CSV (one row per span)."""
    from repro.telemetry import write_csv

    _res, tracer = runner.run_traced(graph, program, engine)
    path = (
        pathlib.Path(out_dir) / f"trace_{graph}_{program}_{engine}.csv"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    return write_csv(tracer, path)


def export_metrics(
    out_dir: str | pathlib.Path,
    runner: GridRunner,
    *,
    graph: str,
    program: str,
    engine: str,
) -> pathlib.Path:
    """One traced grid cell's metrics registry as flat CSV."""
    import json

    _res, tracer = runner.run_traced(graph, program, engine)
    rows = [
        (name, snap["type"],
         json.dumps({k: v for k, v in snap.items() if k != "type"},
                    sort_keys=True))
        for name, snap in tracer.metrics.as_dict().items()
    ]
    return _write(
        pathlib.Path(out_dir) / f"metrics_{graph}_{program}_{engine}.csv",
        ["metric", "type", "value"],
        rows,
    )


def export_all(
    out_dir: str | pathlib.Path, runner: GridRunner
) -> list[pathlib.Path]:
    """Write the CSV of every :data:`~repro.harness.experiments.EXPERIMENTS`
    row that has one, in table order; reuses the runner's memoized grid."""
    return [export_experiment(out_dir, exp, runner)
            for exp in E.EXPERIMENTS if exp.csv is not None]
