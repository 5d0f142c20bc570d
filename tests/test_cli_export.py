"""Tests for the CLI and the CSV exporters."""

import csv

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.harness import export
from repro.harness.experiments import EXPERIMENTS, experiment
from repro.harness.runner import GridRunner

SCALE = 2000


@pytest.fixture(scope="module")
def runner():
    return GridRunner(scale=SCALE, max_iterations=300)


class TestCLIRun:
    def test_run_rmat(self, capsys):
        rc = main(["run", "sssp", "--rmat", "500x3000", "--engine", "cusha-cw"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "hardware" in out

    def test_run_suite_graph(self, capsys):
        rc = main([
            "run", "bfs", "--graph", "amazon0312", "--scale", str(SCALE),
            "--engine", "vwc-8",
        ])
        assert rc == 0
        assert "vwc-8" in capsys.readouterr().out

    def test_run_saves_output(self, tmp_path, capsys):
        out_file = tmp_path / "values.npy"
        rc = main([
            "run", "cc", "--rmat", "200x800", "--engine", "cusha-gs",
            "--output", str(out_file),
        ])
        assert rc == 0
        values = np.load(out_file)
        assert values.shape == (200,)

    def test_run_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1 4\n1 2 6\n2 0 1\n")
        rc = main(["run", "sssp", "--edges", str(path), "--source", "0"])
        assert rc == 0

    def test_run_scalar_engine(self, capsys):
        rc = main(["run", "bfs", "--rmat", "60x200", "--engine", "scalar"])
        assert rc == 0

    def test_run_streamed_engine(self, capsys):
        rc = main(["run", "bfs", "--rmat", "500x2500",
                   "--engine", "cusha-streamed"])
        assert rc == 0

    def test_unknown_engine_exits(self, capsys):
        # uncaught ReproError (EngineKeyError) -> exit code 2
        assert main(
            ["run", "bfs", "--rmat", "60x200", "--engine", "thrust"]
        ) == 2
        assert "repro: " in capsys.readouterr().err

    def test_requires_graph_source(self):
        with pytest.raises(SystemExit):
            main(["run", "bfs"])


class TestCLIInfo:
    def test_info_output(self, capsys):
        rc = main(["info", "--rmat", "2000x16000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "auto |N|" in out
        assert "G-Shards" in out and "CW" in out

    def test_shard_size_override(self, capsys):
        rc = main(["info", "--rmat", "2000x16000", "--shard-size", "64"])
        assert rc == 0
        assert "@N=64" in capsys.readouterr().out


class TestCLIExperiments:
    def test_single_experiment(self, capsys):
        rc = main(["experiments", "table1", "--scale", str(SCALE)])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out

    def test_fig9(self, capsys):
        rc = main(["experiments", "fig9", "--scale", str(SCALE)])
        assert rc == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_parser_lists_all_experiments(self):
        parser = build_parser()
        for exp in EXPERIMENTS:
            args = parser.parse_args(["experiments", exp.key])
            assert args.which == exp.key


def export_csv(tmp_path, key, runner):
    return export.export_experiment(tmp_path, experiment(key), runner)


class TestExport:
    def test_table1_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "table1", runner)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["graph", "edges", "vertices"]
        assert len(rows) == 7

    def test_fig1_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "fig1", runner)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["graph", "degree", "vertex_count"]
        assert len(rows) > 10

    def test_table4_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "table4", runner)
        rows = list(csv.reader(open(path)))
        assert len(rows) == 1 + 6 * 8
        assert float(rows[1][2]) > 0

    def test_speedups_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "table5", runner)
        assert path.name == "speedups_over_vwc.csv"
        rows = list(csv.reader(open(path)))
        kinds = {r[0] for r in rows[1:]}
        assert kinds == {"prog", "graph"}

    def test_fig9_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "fig9", runner)
        rows = list(csv.reader(open(path)))
        assert len(rows) == 1 + 6 * 3

    def test_fig11_csv(self, tmp_path, runner):
        path = export_csv(tmp_path, "fig11", runner)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["panel", "series", "window_size", "count"]
        panels = {r[0] for r in rows[1:]}
        assert panels == {"size", "sparsity", "shard"}
