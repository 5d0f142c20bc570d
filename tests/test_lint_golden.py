"""Golden of the kernel linter's findings.

Renders :func:`repro.analysis.lint_program` over every program the repo
ships: the eight bundled programs, the extension programs, one
:class:`MultiSourceTraversal` per ``TRAVERSAL_SPECS`` entry, and every
:class:`VertexProgram` class in :mod:`repro.analysis.fixtures` (the broken
fixtures included).  Each finding prints its code, severity, subject,
message and ``file:line`` location, with the file relative to the
directory holding the ``repro`` package so the render is host-independent.

The render is compared against ``tests/data/lint_report.expected``; the
fresh render is written next to it as ``.actual`` for diffing.  A
refactor of the linter must leave the ``.expected`` file unchanged.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.algorithms import PROGRAM_NAMES, make_program
from repro.algorithms.extensions import (
    DegreeCentrality,
    DirichletHeat,
    MultiSourceBFS,
)
from repro.analysis import fixtures, lint_program
from repro.service.batching import TRAVERSAL_SPECS, MultiSourceTraversal
from repro.vertexcentric.program import VertexProgram

DATA = Path(__file__).parent / "data"
ROOT = Path(repro.__file__).resolve().parent.parent


def _targets() -> list[tuple[str, object]]:
    graph = fixtures.fixture_graph()
    out = [(name, make_program(name, graph)) for name in PROGRAM_NAMES]
    out += [
        ("MultiSourceBFS", MultiSourceBFS((0, 1, 2, 3))),
        ("DirichletHeat", DirichletHeat(((0, 100.0), (5, 0.0)))),
        ("DegreeCentrality", DegreeCentrality()),
    ]
    out += [
        (f"MultiSourceTraversal[{key}]",
         MultiSourceTraversal(spec, (0, 1, 2, 3)))
        for key, spec in TRAVERSAL_SPECS.items()
    ]
    out += [
        (f"fixtures.{name}", obj)
        for name, obj in sorted(vars(fixtures).items())
        if isinstance(obj, type) and issubclass(obj, VertexProgram)
        and obj.__module__ == fixtures.__name__
    ]
    return out


def _location(loc: str) -> str:
    if not loc:
        return "-"
    path, _, line = loc.rpartition(":")
    try:
        path = Path(path).resolve().relative_to(ROOT).as_posix()
    except ValueError:
        path = Path(path).name
    return f"{path}:{line}"


def render() -> str:
    lines = []
    for label, program in _targets():
        found = lint_program(program)
        lines.append(f"[{label}] {len(found)} finding(s)")
        for v in found:
            lines.append(
                f"  {v.code} {v.severity} {v.subject} @ {_location(v.location)}"
            )
            lines.append(f"    {v.message}")
    return "\n".join(lines) + "\n"


def test_lint_report_matches_golden():
    actual = render()
    DATA.joinpath("lint_report.actual").write_text(actual)
    expected = DATA.joinpath("lint_report.expected").read_text()
    assert actual == expected
