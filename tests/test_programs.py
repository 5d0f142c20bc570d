"""Tests for the eight vertex programs (paper Table 3).

The key property: the *vectorized* kernels (what the simulated engines run)
must agree with the *scalar* device functions (the paper's programming
interface, executed by the reference engine) — checked here per-program by
simulating one compute stage both ways.
"""

import numpy as np
import pytest

import repro
from repro.algorithms import (
    BFS,
    SSSP,
    PROGRAM_NAMES,
    default_source,
    make_program,
)
from repro.errors import GraphFormatError
from repro.graph import DiGraph
from repro.vertexcentric.datatypes import UINT_INF, field_bytes, vertex_dtype
from repro.vertexcentric.program import apply_reductions
from tests.conftest import random_graph


def scalar_one_round(program, graph):
    """Run one full gather round with the scalar API (all edges, Jacobi)."""
    values = program.initial_values(graph)
    static = program.static_values(graph)
    edge_vals = program.edge_values(graph)
    locals_ = []
    for v in range(graph.num_vertices):
        rec = {k: values[k][v] for k in values.dtype.names}
        local = dict(rec)
        program.init_compute(local, rec)
        locals_.append(local)
    for e in range(graph.num_edges):
        s, d = int(graph.src[e]), int(graph.dst[e])
        program.compute(
            {k: values[k][s] for k in values.dtype.names},
            None if static is None else {k: static[k][s] for k in static.dtype.names},
            None if edge_vals is None else {
                k: edge_vals[k][e] for k in edge_vals.dtype.names
            },
            locals_[d],
        )
    out = values.copy()
    updated = np.zeros(graph.num_vertices, dtype=bool)
    for v in range(graph.num_vertices):
        rec = {k: values[k][v] for k in values.dtype.names}
        if program.update_condition(locals_[v], rec):
            for k in values.dtype.names:
                out[k][v] = locals_[v][k]
            updated[v] = True
    return out, updated


def vectorized_one_round(program, graph):
    values = program.initial_values(graph)
    static = program.static_values(graph)
    edge_vals = program.edge_values(graph)
    local = program.init_local(values)
    msgs, mask = program.messages(
        values[graph.src],
        None if static is None else static[graph.src],
        edge_vals,
        values[graph.dst],
    )
    apply_reductions(program, local, graph.dst.astype(np.int64), msgs, mask)
    final, updated = program.apply(local, values)
    out = values.copy()
    out[updated] = final[updated]
    return out, updated


@pytest.mark.parametrize("name", PROGRAM_NAMES)
@pytest.mark.parametrize("seed", [0, 1])
def test_scalar_and_vectorized_agree(name, seed):
    graph = random_graph(seed, n=40, m=220)
    program = make_program(name, graph)
    s_vals, s_upd = scalar_one_round(program, graph)
    v_vals, v_upd = vectorized_one_round(program, graph)
    assert np.array_equal(s_upd, v_upd), f"{name}: update masks differ"
    for f in s_vals.dtype.names:
        assert np.allclose(
            s_vals[f].astype(np.float64),
            v_vals[f].astype(np.float64),
            atol=1e-5,
            rtol=1e-5,
        ), f"{name}: field {f} differs"


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_struct_sizes_match_table3(name):
    graph = random_graph(3)
    p = make_program(name, graph)
    expected_vertex = {"bfs": 4, "sssp": 4, "pr": 4, "cc": 4, "sswp": 4,
                       "nn": 4, "hs": 8, "cs": 8}
    assert p.vertex_value_bytes == expected_vertex[name]
    if name == "pr":
        assert p.static_value_bytes == 4
    else:
        assert p.static_value_bytes == 0
    if name in ("bfs", "pr", "cc"):
        assert p.edge_value_bytes == 0
    else:
        assert p.edge_value_bytes == 4


def _fold(program, local, dest_idx, msgs, mask):
    local = local.copy()
    ops, changed = apply_reductions(
        program, local, dest_idx, msgs, mask, track_changed=True
    )
    return local.tobytes(), ops, changed.tobytes()


_MASK_CASES = [("pr", 0), ("pr", 3), ("sssp", 1), ("cs", 2), ("subarray", 0)]


def _mask_case_inputs(name, seed):
    """``(program, local, dest_idx, msgs)``: one gather round of a bundled
    program, or (``"subarray"``) random ``(edges, K)`` multi-source
    messages into the 2-D field of a :class:`MultiSourceTraversal`."""
    if name == "subarray":
        from repro.service.batching import (TRAVERSAL_SPECS,
                                            MultiSourceTraversal)

        rng = np.random.default_rng(seed)
        n, e, k = 24, 96, 4
        program = MultiSourceTraversal(TRAVERSAL_SPECS["sssp"], tuple(range(k)))
        local = np.zeros(n, dtype=program.vertex_dtype)
        local["dist"][:] = UINT_INF
        local["dist"][rng.integers(0, n, size=5)] = 7
        msgs = {"dist": rng.integers(0, 20, size=(e, k)).astype(np.uint32)}
        return program, local, rng.integers(0, n, size=e), msgs
    graph = random_graph(seed)
    program = make_program(name, graph)
    values = program.initial_values(graph)
    static = program.static_values(graph)
    msgs, _ = program.messages(
        values[graph.src],
        None if static is None else static[graph.src],
        program.edge_values(graph),
        values[graph.dst],
    )
    return program, program.init_local(values), graph.dst.astype(np.int64), msgs


class TestApplyReductionsMask:
    """An all-true mask folds exactly like ``mask=None``, and a partial mask
    exactly like ``mask=None`` over the pre-selected edges: same local
    bytes, same atomic count, same changed set."""

    @pytest.mark.parametrize("name,seed", _MASK_CASES)
    def test_all_true_mask_is_no_mask(self, name, seed):
        program, local, dest_idx, msgs = _mask_case_inputs(name, seed)
        all_true = np.ones(len(dest_idx), dtype=bool)
        assert _fold(program, local, dest_idx, msgs, all_true) == _fold(
            program, local, dest_idx, msgs, None
        )

    @pytest.mark.parametrize("name,seed", _MASK_CASES)
    def test_partial_mask_is_preselected_edges(self, name, seed):
        program, local, dest_idx, msgs = _mask_case_inputs(name, seed)
        mask = np.random.default_rng(seed).random(len(dest_idx)) < 0.6
        assert not mask.all()
        selected = {f: v[mask] for f, v in msgs.items()}
        assert _fold(program, local, dest_idx, msgs, mask) == _fold(
            program, local, dest_idx[mask], selected, None
        )


@pytest.mark.parametrize("name", PROGRAM_NAMES)
def test_atomic_count_matches_reduced_fields(name):
    graph = random_graph(4)
    p = make_program(name, graph)
    assert p.atomic_ops_per_edge() == (2 if name == "cs" else 1)


class TestSetups:
    def test_bfs_initial_values(self):
        g = random_graph(5)
        p = BFS(source=7)
        iv = p.initial_values(g)
        assert iv["level"][7] == 0
        assert (iv["level"][np.arange(g.num_vertices) != 7] == UINT_INF).all()

    def test_sssp_unweighted_defaults_to_unit_weights(self):
        g = random_graph(5, weighted=False)
        assert (SSSP(0).edge_values(g)["weight"] == 1).all()

    def test_pr_static_is_out_degree(self):
        g = random_graph(6)
        p = make_program("pr", g)
        assert np.array_equal(
            p.static_values(g)["nbrs_num"], g.out_degrees().astype(np.uint32)
        )

    def test_pr_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            make_program("pr", random_graph(0), damping=1.5)

    def test_cc_initial_labels_are_indices(self):
        g = random_graph(7)
        iv = make_program("cc", g).initial_values(g)
        assert np.array_equal(
            iv["cmpnent"], np.arange(g.num_vertices, dtype=np.uint32)
        )

    def test_sswp_source_starts_unbounded(self):
        g = random_graph(8)
        p = make_program("sswp", g, source=3)
        iv = p.initial_values(g)
        assert iv["bwidth"][3] == UINT_INF
        assert iv["bwidth"][0] == 0

    def test_hs_coefficients_stable(self):
        """Per-vertex inflow coefficients must sum to at most 1/2."""
        g = random_graph(9)
        ev = make_program("hs", g).edge_values(g)
        sums = np.zeros(g.num_vertices)
        np.add.at(sums, g.dst, ev["coeff"].astype(np.float64))
        assert (sums <= 0.5 + 1e-5).all()

    def test_cs_sources_pinned(self):
        g = random_graph(10)
        p = make_program("cs", g, sources=((2, 5.0),))
        iv = p.initial_values(g)
        assert iv["v"][2] == 5.0
        assert iv["gsum_or_a"][2] == 1.0
        assert iv["gsum_or_a"][0] == 0.0

    def test_nn_weights_rescaled_small(self):
        g = random_graph(11)
        ev = make_program("nn", g).edge_values(g)
        assert np.abs(ev["weight"]).max() < 1.0

    def test_default_source_is_max_out_degree(self):
        g = random_graph(12)
        assert g.out_degrees()[default_source(g)] == g.out_degrees().max()

    def test_make_program_unknown(self):
        with pytest.raises(KeyError):
            make_program("apsp", random_graph(0))


class TestUnrepresentableWeights:
    """SSSP and SSWP read weights as ``uint32``: a weight with no such
    value is refused before the cast could wrap or zero it."""

    @pytest.mark.parametrize("name", ["sssp", "sswp"])
    @pytest.mark.parametrize("bad", [-2.0, np.nan, np.inf, 2.0 ** 40, 2.5],
                             ids=["negative", "nan", "inf", "too-large",
                                  "fractional"])
    def test_refused(self, name, bad):
        g = DiGraph([0, 1], [1, 2], 3, weights=[bad, 1.0])
        with pytest.raises(GraphFormatError, match="edge weights"):
            repro.run(g, name, source=0)

    @pytest.mark.parametrize("name", ["sssp", "sswp"])
    def test_integral_weights_cast_exactly(self, name):
        g = DiGraph([0, 1], [1, 2], 3, weights=[0.0, 4294967295.0])
        ev = make_program(name, g).edge_values(g)
        assert ev[ev.dtype.names[0]].tolist() == [0, 4294967295]


class TestDatatypes:
    def test_vertex_dtype_builder(self):
        dt = vertex_dtype(a=np.float32, b=np.uint32)
        assert dt.names == ("a", "b")
        assert dt.itemsize == 8

    def test_vertex_dtype_rejects_empty(self):
        with pytest.raises(ValueError):
            vertex_dtype()

    def test_field_bytes(self):
        dt = vertex_dtype(a=np.float32, b=np.uint32)
        assert field_bytes(dt, "a") == 4
