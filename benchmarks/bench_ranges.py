"""Proven-safe dtype narrowing: modeled DRAM traffic, off vs. auto.

Fixed workload: BFS over a small R-MAT — a traversal whose `level`
field the range certificates narrow from ``uint32`` to ``uint16`` on
any graph with at most 64Ki vertices.  The same run executes twice,
``narrow="off"`` and ``narrow="auto"``, and the narrowed values are
asserted bit-identical to the wide run (after widening back) before
any number is reported.

Every reported metric is deterministic: iteration counts, the exact
modeled load+store ``bytes_requested`` totals per mode, the per-vertex
value-record sizes, and the headline ``byte_reduction`` — the fraction
of modeled DRAM traffic narrowing removed.  Perfgate fails (P326) if
the reduction drops below ``RANGES_MIN_BYTE_REDUCTION``, if no field
narrowed, or if the runs are not bit-exact; the committed baseline is
diffed metric-for-metric (P327) with no noise band.

Usage::

    PYTHONPATH=src python benchmarks/bench_ranges.py
"""

from __future__ import annotations

import argparse
import json
import pathlib

from repro.algorithms import make_program
from repro.analysis.ranges import analyze_ranges, narrowing_plan
from repro.cache import RepresentationCache
from repro.frameworks import RunConfig, make_engine
from repro.frameworks.narrow import NarrowedProgram
from repro.graph.generators import random_weights, rmat

RESULTS = pathlib.Path(__file__).parent / "results"

# Fixed workload: the perf-smoke R-MAT family at 1024x8192.  BFS's
# uint32 level field carries values in [0, 1023] plus the INF sentinel,
# so the certificates prove a uint16 narrowing — halving every value
# load and store the four CuSha stages issue.
VERTICES = 1_024
EDGES = 8_192
GRAPH_SEED = 5
WEIGHT_SEED = 9
PROGRAM = "bfs"
ENGINE = "cusha-cw"
MAX_ITERATIONS = 50


def run_bench(repeats: int = 1, echo=print) -> dict:
    """Run the narrowing comparison and return the report dict.

    ``python -m repro perfgate`` imports and calls this in-process so
    the gate and the standalone script can never disagree on the
    workload.  ``repeats`` is accepted for gate-signature parity; every
    metric here is deterministic cost-model output, so nothing is
    sampled.
    """
    del repeats
    graph = random_weights(rmat(VERTICES, EDGES, seed=GRAPH_SEED),
                           seed=WEIGHT_SEED)
    program = make_program(PROGRAM, graph)
    cache = RepresentationCache()

    def run(mode: str):
        engine = make_engine(ENGINE, cache=cache)
        config = RunConfig(max_iterations=MAX_ITERATIONS, narrow=mode)
        return engine.run(graph, program, config=config)

    off = run("off")
    auto = run("auto")

    bit_exact = bool(
        off.values.tobytes() == auto.values.tobytes()
        and off.iterations == auto.iterations
        and off.converged == auto.converged
    )
    assert bit_exact, "narrowed execution diverged from the wide run"

    cert = analyze_ranges(program, graph, cache=cache)
    plan = narrowing_plan(cert, program)
    narrowed = NarrowedProgram(program, plan, dict(cert.ranges))

    bytes_off = off.stats.total_bytes_requested
    bytes_auto = auto.stats.total_bytes_requested
    byte_reduction = 1.0 - bytes_auto / bytes_off

    report = {
        "graph": {"generator": "rmat", "vertices": VERTICES,
                  "edges": EDGES, "seed": GRAPH_SEED,
                  "weight_seed": WEIGHT_SEED},
        "program": PROGRAM,
        "engine": ENGINE,
        "max_iterations": MAX_ITERATIONS,
        "ranges": {
            "bit_exact": bit_exact,
            "iterations": auto.iterations,
            "narrowed_fields": sorted(
                f"{field}:{dt}" for field, dt in plan.items()
            ),
            "vertex_bytes_off": int(program.vertex_dtype.itemsize),
            "vertex_bytes_auto": int(narrowed.vertex_dtype.itemsize),
            "bytes_off": int(bytes_off),
            "bytes_auto": int(bytes_auto),
            "byte_reduction": round(byte_reduction, 4),
        },
    }
    row = report["ranges"]
    echo(f"ranges  : bytes off={row['bytes_off']} "
         f"auto={row['bytes_auto']} "
         f"reduction={row['byte_reduction']:.1%} "
         f"({', '.join(row['narrowed_fields']) or 'no narrowing'}; "
         f"record {row['vertex_bytes_off']}B -> "
         f"{row['vertex_bytes_auto']}B)")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(RESULTS / "BENCH_ranges.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    report = run_bench()
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
