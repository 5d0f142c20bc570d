"""Regenerates every paper table and figure into ``benchmarks/results/``.

One parametrized regenerator over
:data:`repro.harness.experiments.EXPERIMENTS`: each row is rendered once
under the benchmark timer, printed, and archived as
``results/<stem>.txt``.  ``bench_export_csv`` then writes every row's CSV
series under ``results/csv/`` and lists them in ``results/csv_exports.txt``.
The paper's claims about these tables are checked in
``tests/test_paper_claims.py``.
"""

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.export import export_all

from conftest import once


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.key)
def bench_experiment(benchmark, runner, emit, exp):
    emit(exp.stem, once(benchmark, lambda: exp.render(runner)))


def bench_export_csv(benchmark, runner, results_dir, emit):
    paths = once(benchmark, lambda: export_all(results_dir / "csv", runner))
    listing = "\n".join(f"  {p.relative_to(results_dir)}" for p in paths)
    emit("csv_exports",
         f"CSV series written under benchmarks/results/:\n{listing}")
