"""Unit tests for the core DiGraph structure."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph, INDEX_DTYPE
from repro.graph import generators


class TestConstruction:
    def test_from_edges_basic(self):
        g = DiGraph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.src.dtype == INDEX_DTYPE

    def test_from_edges_infers_vertex_count(self):
        g = DiGraph.from_edges([(0, 5), (3, 2)])
        assert g.num_vertices == 6

    def test_from_edges_empty(self):
        g = DiGraph.from_edges([], num_vertices=4)
        assert g.num_edges == 0
        assert g.num_vertices == 4

    def test_empty_constructor(self):
        g = DiGraph.empty(7)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_weights_stored_as_float64(self):
        g = DiGraph.from_edges([(0, 1)], weights=[5])
        assert g.weights.dtype == np.float64
        assert g.weights[0] == 5.0

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ValueError, match="equal length"):
            DiGraph(np.array([0, 1]), np.array([1]), 2)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError, match="endpoints"):
            DiGraph(np.array([0]), np.array([5]), 3)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError, match="endpoints"):
            DiGraph(np.array([-1]), np.array([0]), 3)

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf])
    def test_rejects_non_integral_float_endpoints(self, bad):
        with pytest.raises(GraphFormatError, match="whole numbers"):
            DiGraph(np.array([bad, 1.0]), np.array([1, 2]), 3)
        with pytest.raises(GraphFormatError, match="whole numbers"):
            DiGraph(np.array([0, 1]), np.array([1.0, bad]), 3)

    def test_from_edges_rejects_fractional_endpoints(self):
        with pytest.raises(GraphFormatError, match="whole numbers"):
            DiGraph.from_edges([(0.5, 1), (1, 2)])

    def test_integral_float_endpoints_cast_exactly(self):
        g = DiGraph(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 3)
        assert g.src.tolist() == [0, 1] and g.dst.tolist() == [1, 2]

    def test_rejects_misaligned_weights(self):
        with pytest.raises(ValueError, match="weights"):
            DiGraph(np.array([0]), np.array([1]), 2, weights=np.array([1.0, 2.0]))

    def test_rejects_2d_arrays(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            DiGraph(np.zeros((2, 2)), np.zeros((2, 2)), 4)


class TestQueries:
    def test_degrees(self, example_graph):
        in_deg = example_graph.in_degrees()
        out_deg = example_graph.out_degrees()
        assert in_deg.sum() == example_graph.num_edges
        assert out_deg.sum() == example_graph.num_edges
        assert in_deg[2] == 2  # in-neighbors {1, 7}

    def test_density_and_average_degree(self):
        g = DiGraph.from_edges([(0, 1), (1, 0)], num_vertices=2)
        assert g.density() == pytest.approx(0.5)
        assert g.average_degree() == pytest.approx(1.0)

    def test_density_empty_graph(self):
        assert DiGraph.empty(0).density() == 0.0
        assert DiGraph.empty(0).average_degree() == 0.0

    def test_has_self_loops(self):
        assert DiGraph.from_edges([(1, 1)], num_vertices=2).has_self_loops()
        assert not DiGraph.from_edges([(0, 1)], num_vertices=2).has_self_loops()

    def test_edges_matrix(self, example_graph):
        e = example_graph.edges()
        assert e.shape == (example_graph.num_edges, 2)
        assert (e[:, 0] == example_graph.src).all()


class TestDerivedGraphs:
    def test_reversed_swaps_endpoints(self, example_graph):
        r = example_graph.reversed()
        assert np.array_equal(r.src, example_graph.dst)
        assert np.array_equal(r.dst, example_graph.src)
        assert np.array_equal(r.weights, example_graph.weights)

    def test_without_self_loops(self):
        g = DiGraph.from_edges([(0, 0), (0, 1), (1, 1)], num_vertices=2,
                               weights=[1, 2, 3])
        clean = g.without_self_loops()
        assert clean.num_edges == 1
        assert clean.weights[0] == 2.0

    def test_deduplicated_keeps_first(self):
        g = DiGraph.from_edges([(0, 1), (0, 1), (1, 0)], num_vertices=2,
                               weights=[9, 7, 3])
        d = g.deduplicated()
        assert d.num_edges == 2
        assert 9.0 in d.weights and 3.0 in d.weights

    def test_symmetrized_contains_both_directions(self):
        g = DiGraph.from_edges([(0, 1), (2, 1)], num_vertices=3)
        s = g.symmetrized()
        pairs = set(map(tuple, s.edges().tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (2, 1) in pairs and (1, 2) in pairs

    def test_symmetrized_has_no_duplicates(self):
        g = DiGraph.from_edges([(0, 1), (1, 0)], num_vertices=2)
        assert g.symmetrized().num_edges == 2

    def test_with_weights(self, example_graph):
        w = np.arange(example_graph.num_edges, dtype=np.float64)
        g = example_graph.with_weights(w)
        assert np.array_equal(g.weights, w)

    def test_with_weights_rejects_bad_shape(self, example_graph):
        with pytest.raises(ValueError):
            example_graph.with_weights(np.ones(3))

    def test_permuted_edges(self, example_graph):
        perm = np.arange(example_graph.num_edges)[::-1].copy()
        p = example_graph.permuted_edges(perm)
        assert p.src[0] == example_graph.src[-1]
        assert p.weights[0] == example_graph.weights[-1]


class TestInterop:
    def test_to_networkx(self, example_graph):
        g = example_graph.to_networkx()
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == example_graph.num_edges
        assert g[0][1]["weight"] == example_graph.weights[0]

    def test_to_scipy_csr(self, example_graph):
        m = example_graph.to_scipy_csr()
        assert m.shape == (8, 8)
        assert m.nnz == example_graph.num_edges

    def test_to_scipy_unweighted_uses_ones(self):
        g = DiGraph.from_edges([(0, 1)], num_vertices=2)
        assert g.to_scipy_csr()[0, 1] == 1.0


class TestEquality:
    def test_equal_graphs(self):
        a = DiGraph.from_edges([(0, 1)], num_vertices=2, weights=[2.0])
        b = DiGraph.from_edges([(0, 1)], num_vertices=2, weights=[2.0])
        assert a == b

    def test_unequal_weights(self):
        a = DiGraph.from_edges([(0, 1)], num_vertices=2, weights=[2.0])
        b = DiGraph.from_edges([(0, 1)], num_vertices=2, weights=[3.0])
        assert a != b

    def test_weighted_vs_unweighted(self):
        a = DiGraph.from_edges([(0, 1)], num_vertices=2, weights=[2.0])
        b = DiGraph.from_edges([(0, 1)], num_vertices=2)
        assert a != b

    def test_usable_as_dict_key(self):
        g = generators.rmat(16, 32, seed=0)
        assert {g: 1}[g] == 1
