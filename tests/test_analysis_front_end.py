"""Source-text checks on the analysis package's module boundaries.

Kernel source is parsed and lowered in one place,
:mod:`repro.analysis.kernel_ir`; the linter, the certifier and the range
analysis read it through that module's public names.  These tests keep it
that way: no module in ``repro.analysis`` reaches a sibling module's
underscore name (``alias._name`` or ``from repro.analysis.x import
_name``), and only ``kernel_ir`` calls ``ast.parse`` or
``inspect.getsource*``.  ``program_fingerprint`` hashes kernel source text
and is the one other caller allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.analysis

PACKAGE = Path(repro.analysis.__file__).parent
SIBLINGS = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    """The sibling a ``from module import ...`` names, if any."""
    if level == 1:
        return module or ""
    if module and module.startswith("repro.analysis"):
        return module[len("repro.analysis"):].lstrip(".")
    return None


def _reaches(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    aliases: set[str] = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sib = _sibling(node.module, node.level)
            if sib is None:
                continue
            for alias in node.names:
                if sib == "" and alias.name in SIBLINGS:
                    aliases.add(alias.asname or alias.name)
                elif sib in SIBLINGS and _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {sib}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro.analysis.") and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_a_siblings_private_names():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _reaches(path)]
    assert found == []


def _source_parsers(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "program_fingerprint":
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (
                    (node.value.id == "ast" and node.attr == "parse")
                    or (node.value.id == "inspect" and node.attr.startswith("getsource"))
                )
            ):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_only_the_front_end_parses_kernel_source():
    found = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "kernel_ir.py"
        for hit in _source_parsers(path)
    ]
    assert found == []


def test_certify_does_not_import_the_linter():
    tree = ast.parse(PACKAGE.joinpath("certify.py").read_text())
    modules = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert "repro.analysis.lint" not in modules
