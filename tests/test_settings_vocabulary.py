"""One settings vocabulary: ``RunConfig``'s fields and the registry's
engine-option table are the only lists of run settings and engine options.

- Every :class:`RunConfig` field works as a ``repro.run`` keyword and means
  exactly what it means inside ``config=``; ``ResilientRunner.run`` takes
  the same keywords.
- An engine option outside the registry's vocabulary raises
  :class:`~repro.errors.ConfigError` naming it, at every entry point that
  builds an engine.
- Bad constructor parameters and non-integral seeds and counts fail typed.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.frameworks import (Checkpoint, CuShaEngine, MTCPUEngine,
                              RunConfig, StreamedCuShaEngine, VWCEngine,
                              engine_keys, make_engine)
from repro.frameworks import registry
from repro.gpu.spec import GTX780, I7_3930K
from repro.graph import GShards, generators
from repro.harness.runner import GridRunner
from repro.placement import Placement
from repro.resilience import FaultPlan, ResilientRunner, RetryPolicy
from repro.service import JobRequest, Service, TenantQuota
from repro.telemetry import Tracer

SHARD = 16


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(generators.rmat(256, 2048, seed=3),
                                     seed=4)


def field_settings(graph) -> dict[str, dict]:
    """One valid, non-default setting per RunConfig field (with the
    companions a rule of ``_INVALID_COMBOS`` demands)."""
    start = repro.make_program("bfs", graph, source=0).initial_values(graph)
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[0] = True
    return {
        "max_iterations": {"max_iterations": 500},
        "allow_partial": {"allow_partial": True},
        "tracer": {"tracer": Tracer()},
        "exec_path": {"exec_path": "reference"},
        "validate": {"validate": "structure"},
        "faults": {"faults": FaultPlan([])},
        "resume": {"resume": Checkpoint.of(1, start, mask),
                   "frontier": "sparse"},
        "frontier": {"frontier": "sparse"},
        "certify": {"certify": "warn"},
        "narrow": {"narrow": "auto"},
        "devices": {"devices": 2},
        "placement": {"devices": 2,
                      "placement": Placement.stride(256 // SHARD, 2)},
    }


def assert_same_run(a, b):
    assert np.array_equal(a.values, b.values)
    assert a.iterations == b.iterations
    assert a.devices == b.devices
    assert a.edges_processed == b.edges_processed
    assert a.stats == b.stats
    assert len(a.traces) == len(b.traces)
    assert a.total_ms == b.total_ms


class TestKeywordEqualsConfig:
    def test_every_field_has_a_setting(self, graph):
        names = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(field_settings(graph)) == names

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(RunConfig)])
    def test_repro_run(self, graph, name):
        settings = field_settings(graph)[name]
        run = dict(engine="cusha-cw", source=0, shard_size=SHARD, cache=False)
        loose = repro.run(graph, "bfs", **run, **settings)
        via_config = repro.run(graph, "bfs", **run,
                               config=RunConfig(**settings))
        assert_same_run(loose, via_config)

    @pytest.mark.parametrize("settings", [{"frontier": "sparse"},
                                          {"devices": 2}])
    def test_resilient_runner(self, graph, settings):
        program = repro.make_program("bfs", graph, source=0)
        runner = ResilientRunner("cusha-cw", checkpoint_every=2,
                                 shard_size=SHARD, cache=False)
        loose = runner.run(graph, program, **settings)
        via_config = runner.run(graph, program,
                                config=RunConfig(**settings))
        assert_same_run(loose.result, via_config.result)

    def test_none_tracer_and_faults_keep_defaults(self, graph):
        result = repro.run(graph, "bfs", source=0, cache=False,
                           tracer=None, faults=None)
        assert np.array_equal(
            result.values, repro.run(graph, "bfs", source=0).values)


class TestRetiredFields:
    """A warm start is one ``resume`` Checkpoint and traces are always
    collected; the four fields those replaced are refused with a
    ``TypeError`` wherever run settings are taken."""

    @pytest.mark.parametrize("name", ["collect_traces", "resume_values",
                                      "start_iteration", "resume_frontier"])
    def test_refused(self, graph, name):
        program = repro.make_program("bfs", graph, source=0)
        with pytest.raises(TypeError):
            RunConfig(**{name: 1})
        with pytest.raises(TypeError):
            repro.run(graph, "bfs", source=0, **{name: 1})
        with pytest.raises(TypeError):
            ResilientRunner("cusha-cw").run(graph, program, **{name: 1})


class TestUnknownOptionsRefused:
    @pytest.mark.parametrize("key", engine_keys())
    def test_make_engine(self, key):
        with pytest.raises(ConfigError) as exc:
            make_engine(key, bogus_option=3)
        assert exc.value.knob == "bogus_option"

    def test_repro_run(self, graph):
        with pytest.raises(ConfigError) as exc:
            repro.run(graph, "bfs", source=0, bogus_option=3)
        assert exc.value.knob == "bogus_option"

    def test_resilient_runner(self, graph):
        program = repro.make_program("bfs", graph, source=0)
        with pytest.raises(ConfigError) as exc:
            ResilientRunner("cusha-cw", bogus_option=3).run(graph, program)
        assert exc.value.knob == "bogus_option"

    def test_service_refuses_at_submit_valid_job_completes(self, graph):
        unlimited = TenantQuota(max_pending=None, max_inflight=None)
        with Service(workers=1, default_quota=unlimited) as svc:
            handle = svc.submit(JobRequest(graph, "bfs", source=3))
            with pytest.raises(ConfigError) as exc:
                svc.submit(JobRequest(graph, "bfs", source=3,
                                      engine_opts={"bogus_option": 3}))
            assert exc.value.knob == "bogus_option"
            result = handle.result(timeout=60)
        solo = repro.run(graph, "bfs", source=3, cache=False)
        assert np.array_equal(result.values, solo.values)

    def test_other_families_options_are_ignored(self):
        # The grid runner passes one option set to every key.
        grid = GridRunner(scale=100)
        for key in grid.mtcpu_keys() + grid.vwc_keys() + grid.cusha_keys():
            assert grid.engine(key).name == key
        assert make_engine("scalar", gpu_spec=GTX780,
                           device_memory_bytes=1).vertices_per_shard == 4

    def test_first_non_none_name_wins(self):
        spec = dataclasses.replace(GTX780, name="other")
        assert make_engine("cusha-cw", shard_size=8,
                           vertices_per_shard=16).vertices_per_shard == 8
        assert make_engine("cusha-cw", shard_size=None,
                           vertices_per_shard=16).vertices_per_shard == 16
        assert make_engine("vwc-8", gpu_spec=spec, spec=GTX780).spec is spec
        assert make_engine("vwc-8", spec=spec).spec is spec
        assert make_engine("mtcpu", gpu_spec=spec).spec is I7_3930K

    def test_registered_builders_get_options_untouched(self, monkeypatch):
        seen = {}

        def build(key, opts):
            seen.update(opts)
            return make_engine("scalar")

        monkeypatch.setitem(registry._EXACT, "custom", build)
        make_engine("custom", bogus_option=3)
        assert seen == {"bogus_option": 3}


class TestTypedParameterErrors:
    @pytest.mark.parametrize("build,knob", [
        (lambda: make_engine("vwc-3"), "virtual_warp_size"),
        (lambda: VWCEngine(8, address_dilation=0), "address_dilation"),
        (lambda: MTCPUEngine(0), "threads"),
        (lambda: CuShaEngine("xx"), "mode"),
        (lambda: CuShaEngine("cw", sync_mode="xx"), "sync_mode"),
        (lambda: StreamedCuShaEngine(device_memory_bytes=0),
         "device_memory_bytes"),
        (lambda: ResilientRunner(checkpoint_every=0), "checkpoint_every"),
        (lambda: ResilientRunner(checkpoint_every=2.5), "checkpoint_every"),
        (lambda: RetryPolicy(max_retries=-1), "max_retries"),
        (lambda: RetryPolicy(base_ms=-1.0), "base_ms"),
        (lambda: RetryPolicy(multiplier=0.5), "multiplier"),
    ])
    def test_engine_constructors(self, build, knob):
        with pytest.raises(ConfigError) as exc:
            build()
        assert exc.value.knob == knob

    def test_gshards(self, graph):
        with pytest.raises(ConfigError) as exc:
            GShards(graph, 0)
        assert exc.value.knob == "vertices_per_shard"

    @pytest.mark.parametrize("knob", ["resume_values", "resume_frontier"])
    def test_resume_lengths(self, graph, knob):
        program = repro.make_program("bfs", graph, source=0)
        start = program.initial_values(graph)
        resume = {
            "resume_values": Checkpoint.of(1, start[:-1]),
            "resume_frontier": Checkpoint.of(
                1, start, np.zeros(3, dtype=bool)),
        }[knob]
        config = RunConfig(resume=resume, frontier="sparse")
        with pytest.raises(ConfigError) as exc:
            make_engine("cusha-cw").run(graph, program, config=config)
        assert exc.value.knob == "resume"


class TestIntegralSeedsAndCounts:
    @pytest.mark.parametrize("source", [1.5, 2.0, "1"])
    def test_fractional_source_refused(self, graph, source):
        with pytest.raises(ConfigError) as exc:
            repro.run(graph, "bfs", source=source)
        assert exc.value.knob == "source"

    def test_numpy_integer_source_accepted(self, graph):
        assert repro.make_program("bfs", graph, source=np.int64(3)).source == 3

    @pytest.mark.parametrize("kwargs,knob", [
        ({"max_iterations": 2.5}, "max_iterations"),
        ({"max_iterations": "5"}, "max_iterations"),
        ({"resume": Checkpoint(0.5, np.zeros(4), "")}, "resume"),
        ({"devices": 2.0}, "devices"),
    ])
    def test_non_integer_counts_refused(self, kwargs, knob):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**kwargs)
        assert exc.value.knob == knob

    def test_numpy_integer_counts_accepted(self):
        config = RunConfig(max_iterations=np.int64(5), devices=np.int32(2))
        assert config.max_iterations == 5 and config.devices == 2
