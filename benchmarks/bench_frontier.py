"""Frontier-centric execution: sparse shard-sweeps vs. the full sweep.

Fixed workload: BFS over a long-and-thin road-network lattice — the
graph family whose traversal tail motivates frontier gating in the first
place (hundreds of iterations whose frontier touches a handful of
shards).  The same run executes twice, ``frontier="off"`` and
``frontier="sparse"``, and the sparse values are asserted bit-identical
to the full sweep before any number is reported.

Two families of numbers come out, mirroring the perf contract's split:

- **Modeled work** (deterministic): total modeled device milliseconds
  per mode, the exact ``edges_processed`` / ``shards_skipped`` frontier
  counters, and — the headline — ``tail_model_savings``: the ratio of
  modeled warp instructions the two modes price on the *tail* iterations
  (after the BFS frontier peaks).  Tail stats are computed exactly by
  differencing a full run against a run capped at the peak iteration
  (both deterministic), not by averaging.  Perfgate fails (P324) if the
  tail savings drop below ``FRONTIER_MIN_MODEL_SAVINGS`` or the run
  skips fewer than ``FRONTIER_MIN_SKIP_FRACTION`` of its shard-sweeps.
- **Wall-clock minima** (noisy): ``full_wall_min_s`` /
  ``sparse_wall_min_s`` over ``--repeats``, drift-gated against the
  committed baseline with the usual timing threshold (P325).

Usage::

    PYTHONPATH=src python benchmarks/bench_frontier.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import RunConfig, make_engine
from repro.graph.generators import random_weights, road_network

RESULTS = pathlib.Path(__file__).parent / "results"

# Fixed workload: a 1000x16 lattice (16k vertices, ~64k edges) with a
# whisper of random shortcuts.  The elongated aspect ratio gives BFS a
# ~190-iteration wavefront that occupies only a couple of the 125 shards
# at a time — the regime where sweeping all shards every iteration does
# orders of magnitude more work than necessary.
ROWS = 1_000
COLS = 16
SHORTCUT_FRACTION = 0.0002
GRAPH_SEED = 11
WEIGHT_SEED = 8
PROGRAM = "bfs"
ENGINE = "cusha-cw"
VERTICES_PER_SHARD = 128
MAX_ITERATIONS = 400


def _model_ms(r) -> float:
    """One run's modeled device milliseconds."""
    return r.kernel_time_ms + r.h2d_ms + r.d2h_ms


def run_bench(repeats: int = 3, echo=print) -> dict:
    """Run the work-efficiency comparison and return the report dict.

    ``python -m repro perfgate`` imports and calls this in-process so the
    gate and the standalone script can never disagree on the workload.
    """
    graph = random_weights(
        road_network(ROWS, COLS, shortcut_fraction=SHORTCUT_FRACTION,
                     seed=GRAPH_SEED),
        seed=WEIGHT_SEED)
    program = make_program(PROGRAM, graph)
    cache = RepresentationCache()

    def engine():
        return make_engine(ENGINE, vertices_per_shard=VERTICES_PER_SHARD,
                           cache=cache)

    def config(mode: str, cap: int = MAX_ITERATIONS) -> RunConfig:
        return RunConfig(max_iterations=cap, allow_partial=True,
                         frontier=mode)

    # Canonical runs (and cache warm-up): the deterministic metrics.
    full = engine().run(graph, program, config=config("off"))
    sparse = engine().run(graph, program, config=config("sparse"))

    bit_exact = bool(
        full.values.tobytes() == sparse.values.tobytes()
        and full.iterations == sparse.iterations
        and full.converged == sparse.converged
    )
    assert bit_exact, "sparse execution diverged from the full sweep"

    num_shards = -(-graph.num_vertices // VERTICES_PER_SHARD)
    sweeps = sparse.iterations * num_shards
    skip_fraction = sparse.shards_skipped / sweeps

    # The frontier peak, from the sparse run's per-iteration traces; the
    # tail is everything after it.  Tail warp instructions are computed
    # exactly by differencing the full run against a peak-capped run —
    # both are deterministic cost-model output.
    frontier_sizes = [t.updated_vertices for t in sparse.traces]
    peak_iteration = 1 + int(np.argmax(frontier_sizes))
    full_head = engine().run(
        graph, program, config=config("off", cap=peak_iteration))
    sparse_head = engine().run(
        graph, program, config=config("sparse", cap=peak_iteration))
    tail_full_wi = full.stats.warp_instructions \
        - full_head.stats.warp_instructions
    tail_sparse_wi = sparse.stats.warp_instructions \
        - sparse_head.stats.warp_instructions
    tail_model_savings = tail_full_wi / tail_sparse_wi

    full_wall, sparse_wall = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        engine().run(graph, program, config=config("off"))
        full_wall.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine().run(graph, program, config=config("sparse"))
        sparse_wall.append(time.perf_counter() - t0)

    full_ms = _model_ms(full)
    sparse_ms = _model_ms(sparse)
    report = {
        "graph": {"generator": "road_network", "rows": ROWS, "cols": COLS,
                  "shortcut_fraction": SHORTCUT_FRACTION,
                  "seed": GRAPH_SEED, "weight_seed": WEIGHT_SEED},
        "program": PROGRAM,
        "engine": ENGINE,
        "vertices_per_shard": VERTICES_PER_SHARD,
        "max_iterations": MAX_ITERATIONS,
        "repeats": repeats,
        "frontier": {
            "bit_exact": bit_exact,
            "iterations": sparse.iterations,
            "peak_iteration": peak_iteration,
            # Exact frontier counters (the skip contract).
            "edges_processed": sparse.edges_processed,
            "shards_skipped": sparse.shards_skipped,
            "skip_fraction": round(skip_fraction, 4),
            # Deterministic modeled work (the P324 contract).
            "tail_model_savings": round(tail_model_savings, 2),
            "full_model_ms": round(full_ms, 4),
            "sparse_model_ms": round(sparse_ms, 4),
            "model_speedup": round(full_ms / sparse_ms, 2),
            # Wall-clock minima (the P325 drift gate); minima because
            # shared-machine noise is one-sided.
            "full_wall_min_s": round(min(full_wall), 4),
            "sparse_wall_min_s": round(min(sparse_wall), 4),
        },
    }
    row = report["frontier"]
    echo(f"frontier model: full={row['full_model_ms']:.2f}ms "
         f"sparse={row['sparse_model_ms']:.2f}ms "
         f"speedup={row['model_speedup']}x "
         f"tail_savings={row['tail_model_savings']}x "
         f"(skipped {row['skip_fraction']:.1%} of "
         f"{sparse.iterations}x{num_shards} shard-sweeps)")
    echo(f"frontier wall:  full={row['full_wall_min_s']:.3f}s "
         f"sparse={row['sparse_wall_min_s']:.3f}s")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="wall-clock samples per mode (minima reported)")
    parser.add_argument("--out", default=str(RESULTS / "BENCH_frontier.json"),
                        help="output JSON path")
    args = parser.parse_args(argv)

    report = run_bench(repeats=args.repeats)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
