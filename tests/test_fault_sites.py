"""The fault-site contract of :class:`repro.frameworks.base.FaultHooks`.

Both exec paths of a dual-path engine must reach exactly the same
``(engine, hook, iteration)`` sites in the same order, so a fault plan
fires identically whichever path runs.  A recording hook captures the
sequence of every site a run reaches.
"""

from __future__ import annotations

import pytest

from repro.algorithms import make_program
from repro.frameworks import (CuShaEngine, RunConfig, StreamedCuShaEngine,
                              VWCEngine)
from repro.frameworks.base import FaultHooks
from repro.graph.generators import random_weights, rmat


class RecordingHooks(FaultHooks):
    """Appends ``(engine, hook, detail)`` at every site a run reaches."""

    active = True

    def __init__(self) -> None:
        self.sites: list[tuple] = []

    def launch(self, engine, shared_bytes, limit_bytes):
        self.sites.append((engine, "launch", (shared_bytes, limit_bytes)))

    def transfer(self, engine, which):
        self.sites.append((engine, "transfer", which))

    def kernel(self, engine, iteration, exec_path):
        self.sites.append((engine, "kernel", iteration))

    def values(self, engine, iteration, values):
        self.sites.append((engine, "values", iteration))

    def representations(self, engine, graph, program, config):
        self.sites.append((engine.name, "representations", None))

    def device(self, engine, iteration, exec_path, placement):
        self.sites.append((engine, "device", iteration))


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(256, 2048, seed=9), seed=10)


def _sites(engine, graph, exec_path, **cfg):
    hooks = RecordingHooks()
    engine.run(graph, make_program("sssp", graph), config=RunConfig(
        max_iterations=200, exec_path=exec_path, faults=hooks, **cfg))
    return hooks.sites


ENGINES = {
    "cusha-gs": lambda: CuShaEngine("gs", vertices_per_shard=32),
    "cusha-cw": lambda: CuShaEngine("cw", vertices_per_shard=32),
    "streamed": lambda: StreamedCuShaEngine(
        device_memory_bytes=16 * 1024, vertices_per_shard=32),
}


@pytest.mark.parametrize("devices", [1, 2])
@pytest.mark.parametrize("frontier", ["off", "sparse"])
@pytest.mark.parametrize("key", sorted(ENGINES))
def test_fast_and_reference_reach_the_same_sites(graph, key, frontier,
                                                 devices):
    fast = _sites(ENGINES[key](), graph, "fast",
                  frontier=frontier, devices=devices)
    ref = _sites(ENGINES[key](), graph, "reference",
                 frontier=frontier, devices=devices)
    assert fast == ref
    assert fast[0][1] == "representations"
    assert [s[1] for s in fast].count("kernel") > 1


@pytest.mark.parametrize("devices", [1, 2])
def test_vwc_site_sequence(graph, devices):
    sites = _sites(VWCEngine(8, chunk_vertices=64), graph, "fast",
                   frontier="sparse", devices=devices)
    name = "vwc-8"
    iterations = max(s[2] for s in sites if s[1] == "kernel")
    per_iteration = []
    for it in range(1, iterations + 1):
        per_iteration.append((name, "kernel", it))
        if devices > 1:
            per_iteration.append((name, "device", it))
        per_iteration.append((name, "values", it))
    assert sites == [
        (name, "representations", None),
        (name, "launch", (0, 0)),
        (name, "transfer", "h2d"),
        *per_iteration,
        (name, "transfer", "d2h"),
    ]
    assert sites == _sites(VWCEngine(8, chunk_vertices=64), graph,
                           "reference", frontier="sparse", devices=devices)
