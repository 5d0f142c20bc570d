"""The perfgate row protocol: the one comparator's comparability rules,
``--skip-bench``, and the run/retry/fold/rebaseline loop of
``python -m repro perfgate``, driven by a fake row with canned reports."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.analysis import perf
from repro.analysis.perf import (BenchSpec, compare, compare_bench_reports,
                                 compare_service_reports)
from repro.cli import main

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def _baseline(name: str) -> dict:
    return json.loads((BASELINES / f"{name}.json").read_text())


class TestMissingTimingMetric:
    """A gated timing metric the current report lacks cannot be compared,
    so it refuses the comparison instead of passing silently."""

    def test_perf_smoke_row_without_fast_min_s_fires_p321(self):
        baseline = _baseline("perf_smoke")
        current = copy.deepcopy(baseline)
        for row in current["engines"].values():
            del row["fast_min_s"]
        codes = [v.code for v in compare_bench_reports(baseline, current)]
        assert codes == ["P321"] * len(baseline["engines"])

    def test_service_without_batched_wall_fires_p321(self):
        baseline = _baseline("service")
        current = copy.deepcopy(baseline)
        del current["service"]["batched_wall_min_s"]
        violations = compare_service_reports(baseline, current)
        assert [v.code for v in violations] == ["P321"]
        assert "batched_wall_min_s" in violations[0].message

    def test_non_numeric_or_baseline_side_gap_fires_p321(self):
        baseline = _baseline("frontier")
        current = copy.deepcopy(baseline)
        current["frontier"]["sparse_wall_min_s"] = "n/a"
        del baseline["frontier"]["full_wall_min_s"]
        spec = perf.BENCHES[2]
        hard, timing = compare(spec, baseline, current)
        assert [v.code for v in hard] == ["P321", "P321"]
        assert timing == []

    def test_committed_baselines_carry_every_timing_metric(self):
        for spec in perf.BENCHES:
            report = _baseline(spec.name)
            assert compare(spec, report, report) == ([], [])


def test_skip_bench_skips_every_row(tmp_path, monkeypatch):
    def refuse(name):
        raise AssertionError(f"--skip-bench loaded {name}")

    monkeypatch.setattr(perf, "load_bench_module", refuse)
    report_path = tmp_path / "report.json"
    rc = main(["perfgate", "--skip-drift", "--skip-bench",
               "--report", str(report_path)])
    assert rc == 0
    assert json.loads(report_path.read_text())["benches"] == {}


def _report(wall=1.0, iterations=10) -> dict:
    return {"graph": "g", "fake": {"iterations": iterations,
                                   "wall_min_s": wall}}


def _fake_row(reports, calls, name="fake", timing=("wall_min_s",)):
    """A row whose ``run`` hands out ``reports`` in order and records the
    repeats each call asked for."""

    class FakeRow(BenchSpec):
        def run(self, repeats, echo=print):
            calls.append(repeats)
            return copy.deepcopy(reports[len(calls) - 1])

    return FakeRow(name, "unused", "fake", ("graph",), ("iterations",),
                   timing, "P320")


@pytest.fixture
def gate(tmp_path, monkeypatch):
    """Run ``perfgate`` in ``tmp_path`` over one fake row gated against
    ``_report()``; returns ``(exit code, violation codes)``."""
    monkeypatch.chdir(tmp_path)
    base = tmp_path / "benchmarks" / "baselines"
    base.mkdir(parents=True)
    for name in ("fake", "perf_smoke"):
        (base / f"{name}.json").write_text(json.dumps(_report()))

    def run(row, *argv):
        monkeypatch.setattr(perf, "BENCHES", (row,))
        rc = main(["perfgate", "--skip-drift", "--report", "report.json",
                   *argv])
        report = json.loads(Path("report.json").read_text())
        return rc, [v["code"] for v in report["violations"]]

    return run


class TestRowLoop:
    def test_timing_regression_that_clears_on_retry_passes(self, gate):
        calls = []
        row = _fake_row([_report(1.5), _report(1.3), _report(1.0)], calls)
        assert gate(row) == (0, [])
        assert calls == [1, 2, 3]
        written = json.loads(
            Path("benchmarks/results/BENCH_fake.json").read_text())
        assert written["fake"]["wall_min_s"] == 1.0

    def test_timing_regression_that_persists_fails(self, gate):
        calls = []
        row = _fake_row([_report(1.5)] * 3, calls)
        assert gate(row) == (1, ["P320"])
        assert calls == [1, 2, 3]

    def test_exact_metric_change_is_never_retried(self, gate):
        calls = []
        row = _fake_row([_report(1.5, iterations=11)], calls)
        rc, codes = gate(row)
        assert rc == 1
        assert sorted(codes) == ["P320", "P320"]
        assert calls == [1]

    def test_current_report_is_never_retried(self, gate):
        calls = []
        Path("cur.json").write_text(json.dumps(_report(1.5)))
        row = _fake_row([], calls, name="perf_smoke")
        assert gate(row, "--current", "cur.json") == (1, ["P320"])
        assert calls == []

    def test_rebaseline_folds_max_over_timing_metrics_only(self, gate):
        calls = []
        row = _fake_row([_report(1.0, iterations=10),
                         _report(1.4, iterations=11)], calls)
        assert gate(row, "--rebaseline") == (0, [])
        assert calls == [1, 1]
        written = json.loads(
            Path("benchmarks/baselines/fake.json").read_text())
        assert written == _report(1.4, iterations=10)

    def test_row_without_timing_metrics_runs_once_on_rebaseline(self, gate):
        calls = []
        row = _fake_row([_report(), _report()], calls, timing=())
        assert gate(row, "--rebaseline") == (0, [])
        assert calls == [1]
