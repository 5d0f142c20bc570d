"""Engine wiring (`RunConfig.validate`) and CLI (`repro check`) tests for
the analysis subsystem."""

import pytest

import repro
from repro.analysis import ValidationError
from repro.analysis.fixtures import BROKEN_PROGRAMS, fixture_graph
from repro.cli import main
from repro.frameworks import RunConfig, make_engine
from repro.algorithms import make_program
from repro.graph.generators import random_weights, rmat
from repro.telemetry.tracer import Tracer

ENGINES = ["cusha-cw", "cusha-gs", "cusha-streamed", "vwc-8", "mtcpu", "scalar"]


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(300, 2200, seed=41), seed=42)


class TestRunConfigValidate:
    def test_default_is_off(self):
        assert RunConfig().validate == "off"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(validate="nope")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_structure_level_is_bit_identical_to_off(self, engine, graph):
        program = make_program("cc", graph)
        off = make_engine(engine).run(
            graph, program, config=RunConfig(validate="off"))
        checked = make_engine(engine).run(
            graph, make_program("cc", graph),
            config=RunConfig(validate="structure"))
        assert off.values.tobytes() == checked.values.tobytes()
        assert off.iterations == checked.iterations

    def test_full_level_passes_on_bundled_program(self, graph):
        result = repro.run(graph, "bfs", engine="cusha-cw", validate="full")
        assert result.converged

    def test_facade_forwards_validate(self, graph):
        with pytest.raises(ValueError):
            repro.run(graph, "bfs", validate="bogus")


class TestPreflightAbort:
    def test_broken_program_aborts_before_running(self):
        g = fixture_graph()
        program = BROKEN_PROGRAMS["mutates-vertex"].factory()
        eng = make_engine("scalar")
        with pytest.raises(ValidationError) as exc:
            eng.run(g, program, config=RunConfig(validate="structure"))
        assert any(v.code == "L006" for v in exc.value.violations)

    def test_violations_published_to_metrics(self):
        g = fixture_graph()
        program = BROKEN_PROGRAMS["mutates-vertex"].factory()
        tracer = Tracer()
        cfg = RunConfig(validate="structure").with_tracer(tracer)
        with pytest.raises(ValidationError):
            make_engine("scalar").run(g, program, config=cfg)
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.violations"]["value"] >= 1
        assert metrics["analysis.violations.error"]["value"] >= 1
        assert metrics["analysis.violations.readonly-mutation"]["value"] == 1

    def test_clean_run_publishes_zero_total(self, graph):
        tracer = Tracer()
        repro.run(graph, "cc", engine="cusha-cw", tracer=tracer,
                  validate="structure")
        assert tracer.metrics.as_dict()["analysis.violations"]["value"] == 0

    def test_validate_off_never_imports_preflight(self, graph):
        # "off" must not even pay the analysis import: the subsystem stays
        # a zero-cost dependency for plain runs.
        import sys

        saved = {
            name: sys.modules.pop(name)
            for name in list(sys.modules)
            if name.startswith("repro.analysis")
        }
        try:
            repro.run(graph, "cc", engine="cusha-cw", validate="off")
            leaked = [n for n in sys.modules if n.startswith("repro.analysis")]
            assert leaked == []
        finally:
            sys.modules.update(saved)


class TestCheckCommand:
    def test_check_passes_on_bundled_programs(self, capsys):
        rc = main(["check", "--graph", "rmat", "--scale", "7",
                   "--program", "bfs", "--program", "pr"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_check_structure_level(self, capsys):
        rc = main(["check", "--graph", "rmat", "--scale", "7",
                   "--level", "structure"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_selftest_covers_every_fixture(self, capsys):
        rc = main(["check", "--selftest"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "49/49 fixtures fire" in out
        assert "54 distinct violation codes" in out
