"""Shared fixtures for the benchmarks.

``bench_experiments.py`` regenerates every paper table and figure (the
rows of :data:`repro.harness.experiments.EXPERIMENTS`) into
``benchmarks/results/``; ``bench_micro_kernels.py`` times the simulator's
hot kernels with full pytest-benchmark statistics; the other
``bench_*.py`` files are ablations and the perfgate benchmark rows.

Set ``REPRO_SCALE`` to trade fidelity for speed (default 100 = 1/100 of the
paper's graph sizes; ``bench_experiments.py`` takes about 3 minutes at
that scale on a 2-core host).
A session-scoped :class:`~repro.harness.runner.GridRunner` memoizes all
engine runs, so tables sharing cells (4, 5, 7, figures 7/8/10) price each
cell once.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.harness.runner import GridRunner

BENCH_SCALE = int(os.environ.get("REPRO_SCALE", "100"))
BENCH_MAX_ITERATIONS = int(os.environ.get("REPRO_MAX_ITERATIONS", "400"))


@pytest.fixture(scope="session")
def runner() -> GridRunner:
    return GridRunner(scale=BENCH_SCALE, max_iterations=BENCH_MAX_ITERATIONS)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    d = pathlib.Path(__file__).parent / "results"
    d.mkdir(exist_ok=True)
    return d


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a regenerated table and archive it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _emit


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer (regenerators are
    full experiments; statistical rounds would multiply their cost)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
