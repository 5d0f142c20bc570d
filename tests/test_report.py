"""Tests for the one-shot report generator."""

import pytest

import re

from repro.harness.experiments import EXPERIMENTS
from repro.harness.report import generate_report, write_report
from repro.harness.runner import GridRunner


@pytest.fixture(scope="module")
def runner():
    return GridRunner(scale=2000, max_iterations=200)


def test_report_contains_every_section(runner):
    report = generate_report(runner, include_rmat_study=False)
    for section in (
        "Inputs",
        "Degree distributions",
        "Programming interfaces",
        "VWC-CSR efficiency",
        "Running times",
        "Running times (kernel only)",
        "Speedups over VWC-CSR",
        "Speedups over MTCPU-CSR",
        "BFS TEPS",
        "BFS convergence traces",
        "Profiled efficiencies",
        "Memory footprint",
        "Time breakdown",
    ):
        assert section in report, section


def test_sections_follow_the_experiment_table(runner):
    report = generate_report(runner, include_rmat_study=False)
    titles = re.findall(r"^=+\n(.+)\n=+$", report, re.MULTILINE)
    assert titles[1:] == [e.title for e in EXPERIMENTS if not e.rmat_study]


def test_rmat_study_toggle(runner):
    without = generate_report(runner, include_rmat_study=False)
    assert "GS vs CW sensitivity" not in without


def test_write_report_creates_parent_dirs(tmp_path, runner):
    path = write_report(
        runner, tmp_path / "sub" / "report.txt", include_rmat_study=False
    )
    assert path.exists()
    assert "CuSha reproduction" in path.read_text()


def test_report_header_names_scale(runner):
    report = generate_report(runner, include_rmat_study=False)
    assert "scale 1/2000" in report
