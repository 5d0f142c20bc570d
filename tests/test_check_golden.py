"""Golden of the ``repro check --certify --ranges`` report.

Renders the JSON report of ``python -m repro check --certify --ranges
--format json`` on its default graph, which carries every C4xx kernel
certificate and W5xx range certificate of the bundled programs and
multi-source traversals: status, method and detail string, including the
W503 cross-check text the scalar falsifier sweep produces.  The
``fingerprint`` fields are dropped because they hash kernel source.

The render is compared against ``tests/data/check_report.expected``; the
fresh render is written next to it as ``.actual`` for diffing.  A
refactor of the analysis passes must leave the ``.expected`` file
unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

DATA = Path(__file__).parent / "data"


def _drop_fingerprints(node):
    if isinstance(node, dict):
        return {k: _drop_fingerprints(v) for k, v in node.items()
                if k != "fingerprint"}
    if isinstance(node, list):
        return [_drop_fingerprints(v) for v in node]
    return node


def render(capsys) -> str:
    rc = main(["check", "--certify", "--ranges", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    return json.dumps(_drop_fingerprints(report), indent=2) + "\n"


def test_check_report_matches_golden(capsys):
    actual = render(capsys)
    DATA.joinpath("check_report.actual").write_text(actual)
    expected = DATA.joinpath("check_report.expected").read_text()
    assert actual == expected
