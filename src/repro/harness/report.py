"""One-shot full evaluation report.

:func:`generate_report` renders every row of
:data:`~repro.harness.experiments.EXPERIMENTS` against one memoizing
:class:`~repro.harness.runner.GridRunner` and stitches them into a single
markdown-ish text document, one banner-titled section per row in table
order — the same sections ``python -m repro experiments all`` prints.
"""

from __future__ import annotations

import pathlib
import time

from repro.harness.experiments import EXPERIMENTS
from repro.harness.runner import GridRunner
from repro.harness.tables import banner

__all__ = ["generate_report", "write_report"]


def generate_report(
    runner: GridRunner,
    *,
    include_rmat_study: bool = True,
) -> str:
    """Render the full evaluation.

    ``include_rmat_study=False`` skips Figures 11-13 (the R-MAT grid is the
    most expensive part) for a quick look at the Table-1-suite results.
    """
    body = "\n\n".join(
        f"{banner(exp.title)}\n{exp.render(runner)}"
        for exp in EXPERIMENTS
        if include_rmat_study or not exp.rmat_study
    )
    header = banner(
        f"CuSha reproduction — full evaluation (scale 1/{runner.scale}, "
        f"generated {time.strftime('%Y-%m-%d %H:%M:%S')})"
    )
    return f"{header}\n\n{body}\n"


def write_report(
    runner: GridRunner,
    path: str | pathlib.Path,
    **kwargs,
) -> pathlib.Path:
    """Generate and save the report; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate_report(runner, **kwargs), encoding="utf-8")
    return path
