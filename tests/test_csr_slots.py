"""The per-slot table of the CSR chunk loop and the one graph hash per
VWC call."""

import numpy as np
import pytest

import repro.frameworks.csrloop as csrloop
import repro.frameworks.vwc as vwc
from repro.algorithms import make_program
from repro.cache import RepresentationCache, graph_fingerprint
from repro.frameworks import VWCEngine
from repro.frameworks.csrloop import (CSRProblem, SlotTable, iterate_chunks,
                                      run_chunk)
from tests.conftest import random_graph


@pytest.fixture
def problem():
    g = random_graph(5, n=60, m=300)
    return CSRProblem.build(g, make_program("pr", g))


class TestSlotTable:
    def test_matches_its_definition(self, problem):
        table = SlotTable.build(problem, 16)
        csr = problem.csr
        assert table.sources.dtype == np.intp
        assert np.array_equal(table.sources, csr.src_indxs)
        assert np.array_equal(table.static,
                              problem.static_values[csr.src_indxs])
        starts = problem.destinations // 16 * 16
        assert table.dest_local.dtype == np.intp
        assert np.array_equal(table.dest_local,
                              problem.destinations - starts)

    def test_built_once_per_chunk_size(self, problem):
        iterate_chunks(problem, 16)
        table = problem.slots
        iterate_chunks(problem, 16)
        assert problem.slots is table
        iterate_chunks(problem, 7)
        assert problem.slots.chunk_size == 7

    def test_cached_destinations_stay_untouched(self):
        g = random_graph(6, n=40, m=200)
        cache = RepresentationCache()
        p1 = CSRProblem.build(g, make_program("cc", g), cache=cache)
        before = p1.destinations.copy()
        iterate_chunks(p1, 8)
        p2 = CSRProblem.build(g, make_program("cc", g), cache=cache)
        assert p2.destinations is p1.destinations
        assert np.array_equal(p2.destinations, before)

    def test_misaligned_chunk_is_refused(self, problem):
        with pytest.raises(ValueError, match="not one chunk"):
            run_chunk(problem, 5, 20, 16)
        with pytest.raises(ValueError, match="not one chunk"):
            run_chunk(problem, 0, 20, 16)


class TestOneFingerprint:
    def test_vwc_call_hashes_the_graph_once(self, monkeypatch):
        g = random_graph(7, n=80, m=400)
        calls = []

        def counting(graph):
            calls.append(graph)
            return graph_fingerprint(graph)

        monkeypatch.setattr(vwc, "graph_fingerprint", counting)
        monkeypatch.setattr(csrloop, "graph_fingerprint", counting)
        VWCEngine(8, cache=RepresentationCache()).run(g, make_program("cc", g))
        assert len(calls) == 1
