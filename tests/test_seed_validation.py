"""Seeded vertex ids outside the graph are refused with a typed error.

``make_program`` checks every seeded vertex (a traversal ``source``, the
circuit simulation's pinned ``sources``) against ``[0, n)``.  Without the
check NumPy indexing silently wraps a negative id onto another vertex and
fails late, with a bare ``IndexError``, on a too-large one — inside a
service batch that failure took every coalesced job down with it.
"""

import numpy as np
import pytest

import repro
from repro.algorithms import make_program
from repro.cli import main
from repro.errors import ConfigError
from repro.graph.generators import rmat
from repro.service import JobRequest, Service, TenantQuota


@pytest.fixture(scope="module")
def graph():
    return rmat(50, 200, seed=1)


class TestMakeProgram:
    @pytest.mark.parametrize("program", ["bfs", "sssp", "sswp"])
    @pytest.mark.parametrize("source", [-1, 50, 60])
    def test_traversal_source_out_of_range(self, graph, program, source):
        with pytest.raises(ConfigError) as exc:
            make_program(program, graph, source=source)
        assert exc.value.knob == "source"

    @pytest.mark.parametrize("vertex", [-1, 50])
    def test_circuit_sources_out_of_range(self, graph, vertex):
        with pytest.raises(ConfigError) as exc:
            make_program("cs", graph, sources=((0, 1.0), (vertex, 0.0)))
        assert exc.value.knob == "sources"

    @pytest.mark.parametrize("program, knob", [
        ("pr", "source"), ("cc", "source"), ("bfs", "sources"),
        ("sssp", "damping"),
    ])
    def test_stray_keyword_refused(self, graph, program, knob):
        with pytest.raises(ConfigError) as exc:
            make_program(program, graph, **{knob: 3})
        assert exc.value.knob == knob

    def test_boundary_vertices_accepted(self, graph):
        assert make_program("bfs", graph, source=0).source == 0
        assert make_program("bfs", graph, source=49).source == 49


class TestRun:
    def test_negative_source_is_not_wrapped(self, graph):
        with pytest.raises(ConfigError):
            repro.run(graph, "bfs", source=-1)

    def test_large_source_is_a_typed_value_error(self, graph):
        with pytest.raises(ValueError, match="outside"):
            repro.run(graph, "bfs", source=60)

    def test_stray_source_refused(self, graph):
        with pytest.raises(ConfigError) as exc:
            repro.run(graph, "pr", source=3)
        assert exc.value.knob == "source"

    def test_cli_exits_2(self, capsys):
        rc = main(["run", "bfs", "--rmat", "200x1000", "--source", "5000"])
        assert rc == 2
        assert "source vertex 5000" in capsys.readouterr().err


class TestService:
    def test_bad_jobs_refused_at_submit_valid_job_completes(self, graph):
        unlimited = TenantQuota(max_pending=None, max_inflight=None)
        with Service(workers=1, default_quota=unlimited) as svc:
            with pytest.raises(ConfigError):
                svc.submit(JobRequest(graph, "bfs", source=-1))
            handle = svc.submit(JobRequest(graph, "bfs", source=3))
            with pytest.raises(ConfigError):
                svc.submit(JobRequest(graph, "bfs", source=60))
            with pytest.raises(ConfigError) as exc:
                svc.submit(JobRequest(graph, "pr", source=3))
            assert exc.value.knob == "source"
            result = handle.result(timeout=60)
        solo = repro.run(graph, "bfs", source=3, cache=False)
        assert np.array_equal(result.values, solo.values)
