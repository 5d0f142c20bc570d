"""Unit tests for the shared CSR iteration machinery."""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.frameworks.csrloop import CSRProblem, iterate_chunks, run_chunk
from repro.graph.digraph import DiGraph
from tests.conftest import random_graph


@pytest.fixture
def problem():
    g = random_graph(0, n=50, m=220)
    return CSRProblem.build(g, make_program("sssp", g))


class TestBuild:
    def test_arrays_aligned(self, problem):
        assert problem.csr.destinations().size == problem.csr.num_edges
        assert problem.edge_values.shape[0] == problem.csr.num_edges
        assert problem.vertex_values.shape[0] == problem.csr.num_vertices

    def test_edge_values_in_csr_slot_order(self):
        g = random_graph(1, n=30, m=100)
        p = make_program("sssp", g)
        prob = CSRProblem.build(g, p)
        raw = p.edge_values(g)
        for slot in [0, 10, 50, 99]:
            eid = prob.csr.edge_positions[slot]
            assert prob.edge_values["weight"][slot] == raw["weight"][eid]

    def test_unweighted_program_has_no_edge_values(self):
        g = random_graph(2, n=30, m=80, weighted=False)
        prob = CSRProblem.build(g, make_program("cc", g))
        assert prob.edge_values is None


class TestChunks:
    def test_single_chunk_equals_whole_iteration(self):
        g = random_graph(3, n=40, m=160)
        a = CSRProblem.build(g, make_program("cc", g))
        b = CSRProblem.build(g, make_program("cc", g))
        idx_a, _ = iterate_chunks(a, g.num_vertices)
        idx_b, _ = run_chunk(b, 0, g.num_vertices)
        assert np.array_equal(np.sort(idx_a), np.sort(idx_b))
        assert np.array_equal(a.vertex_values, b.vertex_values)

    def test_chunk_updates_applied_in_place(self, problem):
        before = problem.vertex_values.copy()
        idx, _ = run_chunk(problem, 0, 25)
        changed = np.nonzero(
            problem.vertex_values["dist"] != before["dist"]
        )[0]
        assert np.array_equal(np.sort(idx), changed)

    def test_chunked_visibility_accelerates_propagation(self):
        """On a path graph, per-vertex chunks (Gauss-Seidel) propagate the
        whole path in one iteration while a single whole-graph chunk
        (Jacobi) moves one hop."""
        n = 32
        src = np.arange(n - 1)
        g = DiGraph(src, src + 1, n)
        p = make_program("bfs", g, source=0)
        seq = CSRProblem.build(g, p)
        iterate_chunks(seq, chunk_size=1)
        assert (seq.vertex_values["level"] == np.arange(n)).all()
        jac = CSRProblem.build(g, p)
        iterate_chunks(jac, chunk_size=n)
        assert (jac.vertex_values["level"][2:] == 0xFFFFFFFF).all()

    def test_empty_range(self, problem):
        idx, ops = run_chunk(problem, 10, 10)
        assert idx.size == 0 and ops == 0

    def test_ops_counted(self, problem):
        _, ops = iterate_chunks(problem, 16)
        # SSSP contributes one reduction per edge whose source is reachable.
        assert 0 < ops <= problem.csr.num_edges

    def test_no_updates_returns_empty(self):
        g = random_graph(4, n=30, m=90)
        prob = CSRProblem.build(g, make_program("sssp", g))
        while True:
            idx, _ = iterate_chunks(prob, 8)
            if idx.size == 0:
                break
        idx, _ = iterate_chunks(prob, 8)
        assert idx.size == 0
        assert idx.dtype == np.int64
