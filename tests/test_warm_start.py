"""Warm-start equivalence of the fast and reference operators.

A supervisor resumes a run from a checkpoint (``resume_values``,
``start_iteration`` and, with a frontier, ``resume_frontier``).  The fast
operators never store ``SrcValue``: they read ``VertexValues[SrcIndex]``,
which is exact only if the state they start from satisfies the wave-start
invariant.  These tests resume from a mid-run state and require the fast
path to equal the reference loop, which builds its literal ``SrcValue``
array from the same resumed values, on values, stats and traces.
"""

from dataclasses import replace

import pytest

from repro.algorithms import make_program
from repro.frameworks import CuShaEngine, RunConfig, StreamedCuShaEngine
from repro.graph.generators import random_weights, rmat
from repro.telemetry import Tracer

SPLIT = 3
"""Iterations of the first segment; every case is still running then."""

ENGINES = {
    "cusha-cw": lambda: CuShaEngine("cw", vertices_per_shard=64, cache=False),
    "cusha-gs": lambda: CuShaEngine("gs", vertices_per_shard=64, cache=False),
    "cusha-streamed": lambda: StreamedCuShaEngine(
        device_memory_bytes=16 * 1024, vertices_per_shard=64, cache=False
    ),
}


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(1500, 9000, seed=5), seed=6)


def _spans(tracer):
    return [(s.name, s.kind, s.model_start_ms, s.model_ms, s.stats, s.attrs)
            for s in tracer.spans]


@pytest.mark.parametrize("frontier", ["off", "sparse"])
@pytest.mark.parametrize("program_name", ["bfs", "sssp", "pr", "cc"])
@pytest.mark.parametrize("key", sorted(ENGINES))
def test_resumed_fast_equals_reference(graph, key, program_name, frontier):
    engine = ENGINES[key]()
    first = engine.run(
        graph, make_program(program_name, graph),
        config=RunConfig(max_iterations=SPLIT, allow_partial=True,
                         frontier=frontier),
    )
    assert not first.converged
    resume = RunConfig(
        max_iterations=500, frontier=frontier, start_iteration=SPLIT,
        resume_values=first.values,
        resume_frontier=None if frontier == "off" else first.frontier_mask,
    )
    runs = {}
    for path in ("fast", "reference"):
        tracer = Tracer()
        config = replace(resume, exec_path=path, tracer=tracer)
        runs[path] = engine.run(
            graph, make_program(program_name, graph), config=config
        ), tracer
    (fast, tf), (ref, tr) = runs["fast"], runs["reference"]
    assert fast.converged and ref.converged
    assert fast.values.tobytes() == ref.values.tobytes()
    assert fast.iterations == ref.iterations
    assert fast.stats == ref.stats
    assert fast.kernel_time_ms == ref.kernel_time_ms
    assert fast.traces == ref.traces
    assert fast.stage_stats == ref.stage_stats
    assert fast.edges_processed == ref.edges_processed
    if frontier != "off":
        assert (fast.frontier_mask == ref.frontier_mask).all()
    assert _spans(tf) == _spans(tr)
