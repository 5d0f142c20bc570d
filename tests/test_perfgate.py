"""Benchmark-gate tests: `compare_bench_reports` semantics and the
``python -m repro perfgate`` / ``python -m repro check --format json``
command-line surface."""

import copy
import json

from repro.analysis.perf import compare_bench_reports
from repro.cli import main


def make_report() -> dict:
    row = {
        "exec_path": "fast",
        "reference_exec_path": "reference",
        "fast_median_s": 1.0,
        "reference_median_s": 2.0,
        "speedup": 2.0,
        "cold_cache_s": 1.2,
        "warm_cache_median_s": 0.9,
        "fast_min_s": 0.9,
        "reference_min_s": 1.9,
        "warm_cache_min_s": 0.8,
        "cache_hits": 6,
        "cache_hits_per_run": 2,
        "cache_misses": 2,
        "iterations": 40,
    }
    return {
        "graph": {"vertices": 60_000, "edges": 240_000, "seed": 13,
                  "generator": "rmat"},
        "program": "pr",
        "max_iterations": 60,
        "repeats": 3,
        "engines": {"cusha-cw": copy.deepcopy(row),
                    "vwc-8": copy.deepcopy(row)},
    }


class TestCompareBenchReports:
    def test_identical_reports_pass(self):
        assert compare_bench_reports(make_report(), make_report()) == []

    def test_injected_slowdown_fires_p320(self):
        current = make_report()
        current["engines"]["cusha-cw"]["fast_min_s"] *= 1.15
        violations = compare_bench_reports(make_report(), current)
        assert {v.code for v in violations} == {"P320"}
        assert any("fast_min_s" in v.message for v in violations)

    def test_slowdown_within_threshold_passes(self):
        current = make_report()
        current["engines"]["cusha-cw"]["fast_min_s"] *= 1.05
        assert compare_bench_reports(make_report(), current) == []

    def test_improvement_never_fails(self):
        current = make_report()
        for row in current["engines"].values():
            row["fast_min_s"] *= 0.5
            row["reference_min_s"] *= 0.5
        assert compare_bench_reports(make_report(), current) == []

    def test_exec_path_mismatch_fires_p321(self):
        current = make_report()
        current["engines"]["cusha-cw"]["exec_path"] = "reference"
        violations = compare_bench_reports(make_report(), current)
        assert any(v.code == "P321" and "exec_path" in v.message
                   for v in violations)

    def test_run_configuration_mismatch_fires_p321(self):
        current = make_report()
        current["program"] = "bfs"
        violations = compare_bench_reports(make_report(), current)
        assert any(v.code == "P321" and "program" in v.message
                   for v in violations)

    def test_engine_set_mismatch_fires_p321(self):
        current = make_report()
        del current["engines"]["vwc-8"]
        violations = compare_bench_reports(make_report(), current)
        assert any(v.code == "P321" for v in violations)

    def test_exact_metric_change_fires_p320(self):
        current = make_report()
        current["engines"]["vwc-8"]["iterations"] = 41
        violations = compare_bench_reports(make_report(), current)
        assert {v.code for v in violations} == {"P320"}
        assert any("iterations" in v.message for v in violations)

    def test_cache_behaviour_change_fires_p320(self):
        current = make_report()
        current["engines"]["cusha-cw"]["cache_hits_per_run"] = 0
        violations = compare_bench_reports(make_report(), current)
        assert any(v.code == "P320" and "cache_hits_per_run" in v.message
                   for v in violations)

    def test_cold_cache_time_is_not_gated(self):
        current = make_report()
        current["engines"]["cusha-cw"]["cold_cache_s"] *= 10
        assert compare_bench_reports(make_report(), current) == []


class TestPerfgateCommand:
    """CLI tests use ``--current`` + ``--skip-drift`` so no benchmark or
    engine run happens; the exit-code and report contracts are what is
    under test (the live layers are covered by test_analysis_perf.py)."""

    def _write(self, path, report):
        path.write_text(json.dumps(report, indent=2), encoding="utf-8")
        return str(path)

    def test_clean_current_passes(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", make_report())
        cur = self._write(tmp_path / "cur.json", make_report())
        report_path = tmp_path / "report.json"
        rc = main(["perfgate", "--skip-drift", "--baseline", base,
                   "--current", cur, "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["violations"] == []
        assert "PASS" in capsys.readouterr().out

    def test_doctored_current_fails_with_named_code(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", make_report())
        doctored = make_report()
        doctored["engines"]["cusha-cw"]["fast_min_s"] *= 1.15
        cur = self._write(tmp_path / "cur.json", doctored)
        report_path = tmp_path / "report.json"
        rc = main(["perfgate", "--skip-drift", "--baseline", base,
                   "--current", cur, "--report", str(report_path)])
        assert rc == 1
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert any(v["code"] == "P320" for v in report["violations"])
        out = capsys.readouterr().out
        assert "P320" in out and "FAIL" in out

    def test_missing_baseline_is_exit_2(self, tmp_path, capsys):
        cur = self._write(tmp_path / "cur.json", make_report())
        rc = main(["perfgate", "--skip-drift",
                   "--baseline", str(tmp_path / "nope.json"),
                   "--current", cur,
                   "--report", str(tmp_path / "report.json")])
        assert rc == 2
        assert "perfgate-rebaseline" in capsys.readouterr().err

    def test_rebaseline_writes_baseline(self, tmp_path):
        cur = self._write(tmp_path / "cur.json", make_report())
        baseline_path = tmp_path / "base.json"
        rc = main(["perfgate", "--skip-drift", "--rebaseline",
                   "--baseline", str(baseline_path), "--current", cur,
                   "--report", str(tmp_path / "report.json")])
        assert rc == 0
        assert json.loads(baseline_path.read_text()) == make_report()

    def test_json_format_prints_the_report(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", make_report())
        cur = self._write(tmp_path / "cur.json", make_report())
        rc = main(["perfgate", "--skip-drift", "--format", "json",
                   "--baseline", base, "--current", cur,
                   "--report", str(tmp_path / "report.json")])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "perfgate"
        assert payload["ok"] is True

    def test_committed_baseline_has_current_schema(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        baseline = json.loads(
            (root / "benchmarks" / "baselines" / "perf_smoke.json")
            .read_text())
        from repro.analysis import budgets

        assert set(baseline["engines"]) == {
            "cusha-cw", "cusha-gs", "cusha-streamed", "vwc-8"}
        for row in baseline["engines"].values():
            for mk in budgets.PERFGATE_TIMING_METRICS:
                assert isinstance(row[mk], (int, float))
            for mk in budgets.PERFGATE_EXACT_METRICS:
                assert mk in row
            assert row["exec_path"] == "fast"
            assert row["reference_exec_path"] == "reference"


class TestCheckJsonFormat:
    def test_check_emits_machine_readable_report(self, capsys):
        rc = main(["check", "--graph", "rmat", "--scale", "7",
                   "--program", "bfs", "--format", "json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert rc == 0
        assert payload["command"] == "check"
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert isinstance(payload["violations"], list)

    def test_selftest_block_in_json(self, capsys):
        rc = main(["check", "--selftest", "--graph", "rmat", "--scale", "7",
                   "--program", "bfs", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["selftest"]["fixtures"] == 49
        assert payload["selftest"]["failed"] == 0
        assert payload["selftest"]["distinct_codes"] == 54
