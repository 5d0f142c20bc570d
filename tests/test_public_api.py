"""Public-API surface tests: exports, exception consolidation, run configs.

Pins down the contract of the v1.6 API consolidation (``docs/api.md``):

- ``repro.__all__`` is an explicit, stable surface (snapshot below);
- :mod:`repro.errors` is the single place exception types are defined —
  every historical import path re-exports the *same* class objects;
- ``config=RunConfig(...)`` is the one configuration parameter, spelled
  identically on :meth:`Engine.run`, :func:`repro.run`,
  :meth:`ResilientRunner.run`, and :class:`repro.service.JobRequest`,
  and the PR-1 legacy loose-kwargs shim on ``Engine.run`` is gone;
- the CLI maps uncaught :class:`repro.errors.ReproError` to exit code 2.
"""

import numpy as np
import pytest

import repro
from repro import cli, errors
from repro.frameworks import RunConfig, make_engine
from repro.graph import generators

# The exported surface is a deliberate, reviewed list: additions are fine
# but must be made here too, and removals are breaking changes.
EXPECTED_ALL = {
    # façade + engines
    "run", "make_engine", "engine_keys", "RunConfig", "RunResult",
    "CuShaEngine", "VWCEngine", "MTCPUEngine", "ScalarReferenceEngine",
    # graph + representations
    "DiGraph", "CSR", "GShards", "ConcatenatedWindows", "select_shard_size",
    # programming model
    "VertexProgram", "PROGRAM_NAMES", "make_program", "default_source",
    # cache
    "RepresentationCache", "default_cache", "graph_fingerprint",
    # hardware model
    "KernelStats", "GTX780", "I7_3930K",
    # service layer
    "Service", "JobRequest", "JobHandle", "JobStatus", "TenantQuota",
    # exceptions
    "ReproError", "ConvergenceError", "EngineKeyError", "GraphFormatError",
    "ValidationError", "InjectedFault", "QuotaExceededError",
    "JobCancelledError", "ConfigError", "CertificationError",
    "__version__",
}


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(
        generators.rmat(200, 900, seed=4), seed=5
    )


class TestSurface:
    def test_all_snapshot(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestErrorConsolidation:
    def test_hierarchy_root(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_builtin_bases_preserved(self):
        assert issubclass(errors.ConvergenceError, RuntimeError)
        assert issubclass(errors.EngineKeyError, KeyError)
        assert issubclass(errors.GraphFormatError, ValueError)
        assert issubclass(errors.ValidationError, RuntimeError)
        assert issubclass(errors.InjectedFault, RuntimeError)

    def test_historical_aliases_are_identical(self):
        # Old import paths must re-export the same class objects, not
        # parallel definitions — except clauses written against either
        # path must catch both.
        import repro.frameworks as fw
        import repro.frameworks.base as fwb
        import repro.graph.io as gio
        import repro.resilience as res
        import repro.resilience.faults as faults
        import repro.service.quotas as quotas

        assert fw.ConvergenceError is errors.ConvergenceError
        assert fwb.ConvergenceError is errors.ConvergenceError
        assert gio.GraphFormatError is errors.GraphFormatError
        assert res.InjectedFault is errors.InjectedFault
        assert faults.TransferFault is errors.TransferFault
        assert faults.KernelAbortFault is errors.KernelAbortFault
        assert quotas.QuotaExceededError is errors.QuotaExceededError
        assert repro.ReproError is errors.ReproError

    def test_unknown_program_is_typed(self, graph):
        with pytest.raises(errors.ProgramKeyError) as exc:
            repro.run(graph, "nope")
        assert isinstance(exc.value, KeyError)
        assert str(exc.value).startswith("unknown program 'nope'; known: ")

    @pytest.mark.parametrize("args", [
        ([[0]], [[1]], 2),            # not one-dimensional
        ([0, 1], [1], 2),             # unequal lengths
        ([0], [0], -1),               # negative num_vertices
        ([0], [2], 2),                # endpoint past num_vertices
        ([-1], [0], 2),               # negative endpoint
        ([0], [1], 2, [1.0, 2.0]),    # misaligned weights
    ])
    def test_bad_digraph_is_typed(self, args):
        with pytest.raises(errors.GraphFormatError):
            repro.DiGraph(*args)

    def test_catch_all_base(self, graph):
        eng = make_engine("cusha-cw", cache=False)
        prog = repro.make_program("sssp", graph, source=0)
        with pytest.raises(errors.ReproError):
            eng.run(graph, prog,
                    config=RunConfig(max_iterations=1, allow_partial=False))
        with pytest.raises(errors.ReproError):
            make_engine("definitely-not-an-engine")


class TestEngineRunSignature:
    def test_legacy_kwargs_rejected(self, graph):
        eng = make_engine("cusha-cw", cache=False)
        prog = repro.make_program("bfs", graph, source=0)
        with pytest.raises(TypeError, match="config=RunConfig"):
            eng.run(graph, prog, max_iterations=10)
        with pytest.raises(TypeError, match="config=RunConfig"):
            eng.run(graph, prog, exec_path="reference")

    def test_config_object_accepted(self, graph):
        eng = make_engine("cusha-cw", cache=False)
        prog = repro.make_program("bfs", graph, source=0)
        result = eng.run(graph, prog, config=RunConfig(max_iterations=50))
        assert result.converged


class TestReproRunConfig:
    def test_config_passthrough(self, graph):
        via_config = repro.run(
            graph, "sssp", source=0, cache=False,
            config=RunConfig(max_iterations=3, allow_partial=True),
        )
        via_loose = repro.run(
            graph, "sssp", source=0, cache=False,
            max_iterations=3, allow_partial=True,
        )
        assert via_config.iterations == via_loose.iterations
        assert np.array_equal(via_config.values, via_loose.values)

    def test_config_conflicts_with_loose_kwargs(self, graph):
        with pytest.raises(TypeError, match="max_iterations"):
            repro.run(graph, "sssp", source=0,
                      config=RunConfig(), max_iterations=5)

    def test_resilient_runner_conflict(self, graph):
        from repro.resilience import ResilientRunner

        runner = ResilientRunner("cusha-cw", cache=False)
        prog = repro.make_program("sssp", graph, source=0)
        with pytest.raises(TypeError, match="config"):
            runner.run(graph, prog, config=RunConfig(), max_iterations=5)

    def test_same_param_name_everywhere(self):
        # The consolidation's core promise: one spelling, four entry
        # points.  Inspect rather than run, so a rename cannot slip by.
        import inspect

        from repro.frameworks.base import Engine
        from repro.resilience.runner import ResilientRunner
        from repro.service import JobRequest

        for fn in (Engine.run, ResilientRunner.run, repro.run):
            assert "config" in inspect.signature(fn).parameters, fn
        assert "config" in inspect.signature(JobRequest).parameters


class TestCliExitCodes:
    def test_repro_error_maps_to_2(self, capsys):
        code = cli.main(
            ["run", "sssp", "--rmat", "64x256", "--engine", "bogus-engine"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ")
        assert "bogus-engine" in err

    def test_graph_format_error_maps_to_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\nnot-a-vertex 2\n")
        code = cli.main(["run", "sssp", "--edges", str(bad)])
        assert code == 2
        assert "repro: " in capsys.readouterr().err

    def test_success_maps_to_0(self, capsys):
        assert cli.main(["run", "bfs", "--rmat", "64x256"]) == 0
        capsys.readouterr()


class TestServiceGateContracts:
    """Unit tests for the P322/P323 service perf-gate comparators."""

    def _report(self, **service):
        base = {
            "graph": {"vertices": 2000, "edges": 8000, "seed": 13,
                      "generator": "rmat"},
            "program": "sssp", "engine": "cusha-cw", "sources": 32,
            "max_iterations": 100, "repeats": 3,
            "service": {
                "batched_with": 32, "iterations": 18,
                "sequential_model_ms": 3.5, "batched_model_ms": 0.4,
                "model_speedup": 8.0,
                "sequential_wall_min_s": 0.08, "batched_wall_min_s": 0.05,
            },
        }
        base["service"].update(service)
        return base

    def test_speedup_contract_passes(self):
        from repro.analysis.perf import check_service_contract

        assert check_service_contract(self._report()) == []

    def test_speedup_contract_fails_below_threshold(self):
        from repro.analysis.perf import check_service_contract

        violations = check_service_contract(
            self._report(model_speedup=1.4)
        )
        assert [v.code for v in violations] == ["P322"]

    def test_speedup_contract_fails_when_missing(self):
        from repro.analysis.perf import check_service_contract

        report = self._report()
        del report["service"]["model_speedup"]
        assert [v.code for v in check_service_contract(report)] == ["P322"]

    def test_compare_flags_exact_metric_change(self):
        from repro.analysis.perf import compare_service_reports

        current = self._report(iterations=25)
        violations = compare_service_reports(self._report(), current)
        assert [v.code for v in violations] == ["P323"]

    def test_compare_flags_wall_regression(self):
        from repro.analysis.perf import compare_service_reports

        current = self._report(batched_wall_min_s=0.2)
        assert "P323" in [
            v.code
            for v in compare_service_reports(self._report(), current)
        ]

    def test_compare_tolerates_noise(self):
        from repro.analysis.budgets import PERFGATE_TIMING_THRESHOLD
        from repro.analysis.perf import compare_service_reports

        wiggle = 1.0 + PERFGATE_TIMING_THRESHOLD / 2
        current = self._report(batched_wall_min_s=0.05 * wiggle)
        assert compare_service_reports(self._report(), current) == []

    def test_compare_flags_incomparable_workloads(self):
        from repro.analysis.perf import compare_service_reports

        current = self._report()
        current["sources"] = 16
        assert "P321" in [
            v.code
            for v in compare_service_reports(self._report(), current)
        ]
