"""The paper's eight benchmark programs (Table 3).

Every module implements one algorithm as a
:class:`~repro.vertexcentric.program.VertexProgram`:

========  ====================================  =========================
Key       Algorithm                             Vertex value
========  ====================================  =========================
``bfs``   Breadth-First Search                  ``level: uint32``
``sssp``  Single-Source Shortest Path           ``dist: uint32``
``pr``    PageRank (asynchronous, unnormalized) ``rank: float32``
``cc``    Connected Components (label min)      ``cmpnent: uint32``
``sswp``  Single-Source Widest Path             ``bwidth: uint32``
``nn``    Neural Network relaxation             ``x: float32``
``hs``    Heat Simulation                       ``q, q_new: float32``
``cs``    Circuit Simulation (resistive)        ``v, gsum_or_a: float32``
========  ====================================  =========================

:func:`make_program` builds a configured instance for a given graph and
:func:`rebuild_for` re-seeds an existing one for another graph;
:func:`default_source` picks the traversal root the way the harness does
(highest out-degree, so scale-free analogs traverse a large fraction of the
graph).
"""

from __future__ import annotations

import inspect
import operator

import numpy as np

from repro.errors import ConfigError, ProgramKeyError
from repro.graph.digraph import DiGraph
from repro.vertexcentric.program import VertexProgram

from repro.algorithms.bfs import BFS
from repro.algorithms.sssp import SSSP
from repro.algorithms.pagerank import PageRank
from repro.algorithms.cc import ConnectedComponents
from repro.algorithms.sswp import SSWP
from repro.algorithms.nn import NeuralNetwork
from repro.algorithms.hs import HeatSimulation
from repro.algorithms.cs import CircuitSimulation

__all__ = [
    "BFS",
    "SSSP",
    "PageRank",
    "ConnectedComponents",
    "SSWP",
    "NeuralNetwork",
    "HeatSimulation",
    "CircuitSimulation",
    "PROGRAM_NAMES",
    "make_program",
    "rebuild_for",
    "default_source",
]

#: ``make_program`` key -> program class, in the paper's Table 3 order.
_PROGRAMS: dict[str, type[VertexProgram]] = {
    "bfs": BFS,
    "sssp": SSSP,
    "pr": PageRank,
    "cc": ConnectedComponents,
    "sswp": SSWP,
    "nn": NeuralNetwork,
    "hs": HeatSimulation,
    "cs": CircuitSimulation,
}

PROGRAM_NAMES: tuple[str, ...] = tuple(_PROGRAMS)

#: Keyword arguments each program's constructor takes, read once here so
#: ``make_program`` (called per service job) does no signature work.
_KEYWORDS: dict[str, frozenset[str]] = {
    key: frozenset(inspect.signature(cls).parameters)
    for key, cls in _PROGRAMS.items()
}


def default_source(graph: DiGraph) -> int:
    """Traversal root used by the harness: the highest out-degree vertex."""
    if graph.num_vertices == 0:
        raise ValueError("empty graph has no source vertex")
    return int(np.argmax(graph.out_degrees()))


def _check_vertex(graph: DiGraph, knob: str, vertex) -> None:
    """Refuse a seeded vertex id that is not an integer in ``[0, n)``:
    NumPy indexing would silently truncate a fractional id, wrap a
    negative one, and fail late, untyped, on a large one."""
    try:
        index = operator.index(vertex)
    except TypeError:
        raise ConfigError(
            f"{knob} vertex {vertex!r} is not an integer id", knob=knob
        ) from None
    if not 0 <= index < graph.num_vertices:
        raise ConfigError(
            f"{knob} vertex {vertex} is outside the graph's vertex range "
            f"[0, {graph.num_vertices})",
            knob=knob,
        )


def make_program(name: str, graph: DiGraph, **kwargs) -> VertexProgram:
    """Instantiate program ``name`` configured for ``graph``.

    Source-based programs (BFS, SSSP, SSWP) default to
    :func:`default_source`; Circuit Simulation defaults to pinning the
    highest out-degree vertex at 1 V and vertex ``n - 1`` at 0 V.  A
    seeded vertex outside ``[0, n)`` raises
    :class:`~repro.errors.ConfigError` naming ``source`` or ``sources``,
    and so does a keyword the program's constructor does not take (e.g.
    ``source`` for ``pr``), naming that keyword.
    """
    key = name.lower()
    if key not in _PROGRAMS:
        raise ProgramKeyError(
            f"unknown program {name!r}; known: {', '.join(PROGRAM_NAMES)}"
        )
    for knob in kwargs:
        if knob not in _KEYWORDS[key]:
            takes = ", ".join(sorted(_KEYWORDS[key])) or "none"
            raise ConfigError(
                f"program {key!r} takes no {knob!r} argument (it takes: "
                f"{takes})",
                knob=knob,
            )
    if "source" in _KEYWORDS[key]:
        kwargs.setdefault("source", default_source(graph))
        _check_vertex(graph, "source", kwargs["source"])
    if key == "cs":
        kwargs.setdefault(
            "sources",
            (
                (default_source(graph), 1.0),
                (graph.num_vertices - 1, 0.0),
            ),
        )
        for vertex, _ in kwargs["sources"]:
            _check_vertex(graph, "sources", vertex)
    return _PROGRAMS[key](**kwargs)


#: Constructor arguments that name vertices of the graph a program was
#: built for; :func:`rebuild_for` resets them to the new graph's defaults.
_SEED_KNOBS = frozenset({"source", "sources"})


def rebuild_for(program: VertexProgram, graph: DiGraph) -> VertexProgram:
    """Bundled ``program`` rebuilt for ``graph``.

    Its seed vertices (``source``, ``sources``) take ``graph``'s defaults,
    as :func:`make_program` picks them; every other constructor argument
    keeps its value.  A program that is not one of the bundled classes
    raises :class:`~repro.errors.ProgramKeyError`.
    """
    key = getattr(program, "name", None)
    if key not in _PROGRAMS or type(program) is not _PROGRAMS[key]:
        raise ProgramKeyError(
            f"cannot rebuild {type(program).__name__}: not a bundled program"
        )
    kwargs = {
        knob: getattr(program, knob)
        for knob in _KEYWORDS[key] - _SEED_KNOBS
    }
    return make_program(key, graph, **kwargs)
