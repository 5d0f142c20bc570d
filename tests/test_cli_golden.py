"""Golden of the ``python -m repro`` report commands' stdout.

Runs ``run``, ``info`` and ``trace --check`` in-process through
:func:`repro.cli.main` and concatenates each command's stdout under a
``$ repro ...`` header.  The trace is written into a temporary directory,
whose path is replaced by ``$TMP`` so the render is deterministic.

The render is compared against ``tests/data/cli_report.expected``; the
fresh render is written next to it as ``.actual`` for diffing.  A
refactor of the CLI must leave the ``.expected`` file unchanged.
"""

from __future__ import annotations

from pathlib import Path

from repro.cli import main

DATA = Path(__file__).parent / "data"

COMMANDS = (
    ["run", "sssp", "--rmat", "500x3000"],
    ["run", "pr", "--graph", "amazon0312", "--scale", "200",
     "--engine", "vwc-8"],
    ["info", "--rmat", "2000x16000", "--shard-size", "64"],
    ["trace", "--graph", "1024x8192", "--program", "sssp",
     "--format", "jsonl", "--check", "--out", "$TMP/trace.jsonl"],
)


def render(capsys, tmp_path: Path) -> str:
    chunks = []
    for argv in COMMANDS:
        live = [a.replace("$TMP", str(tmp_path)) for a in argv]
        assert main(live) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "$TMP")
        chunks.append(f"$ repro {' '.join(argv)}\n{out}")
    return "\n".join(chunks)


def test_cli_report_matches_golden(capsys, tmp_path):
    actual = render(capsys, tmp_path)
    DATA.joinpath("cli_report.actual").write_text(actual)
    expected = DATA.joinpath("cli_report.expected").read_text()
    assert actual == expected
