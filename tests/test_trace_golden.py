"""Golden traces of the sharded engines.

Each case runs one engine and exec path over a tiny seeded R-MAT under a
few frontier/device settings and renders everything a run observably
produces on the model clock: every span (nesting depth, name, kind,
``repr`` of the modeled start and duration, sorted attrs and stats), the
sorted metrics snapshot, and the :class:`RunResult` fields.  Wall-clock
fields and span ids are left out, so the render is deterministic.

The render is compared against ``tests/data/trace_<case>.expected``; the
fresh render is written next to it as ``.actual`` for diffing.  A
refactor of the iteration loops must leave every ``.expected`` file
unchanged.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.algorithms import make_program
from repro.cache import RepresentationCache
from repro.frameworks import (CuShaEngine, RunConfig, StreamedCuShaEngine,
                              VWCEngine)
from repro.graph.generators import random_weights, rmat
from repro.telemetry.tracer import Tracer

DATA = Path(__file__).parent / "data"

# (program, RunConfig overrides, engine overrides)
SETTINGS = (
    ("sssp", {"frontier": "off"}, {}),
    ("sssp", {"frontier": "sparse"}, {}),
    ("sssp", {"frontier": "auto"}, {}),
    ("sssp", {"frontier": "auto", "devices": 2}, {}),
    ("sssp", {"frontier": "sparse", "devices": 2}, {}),
    ("pr", {"frontier": "off", "devices": 2}, {}),
)

CUSHA_ASYNC = (("sssp", {"frontier": "sparse"}, {"sync_mode": "async"}),)


def _cusha(mode):
    return lambda cache, **kw: CuShaEngine(
        mode, vertices_per_shard=32, cache=cache, **kw)


def _streamed(cache, **kw):
    return StreamedCuShaEngine(
        device_memory_bytes=16 * 1024, vertices_per_shard=32, cache=cache,
        **kw)


def _vwc(cache, **kw):
    return VWCEngine(8, chunk_vertices=64, cache=cache, **kw)


CASES = {
    "cusha-gs-fast": (_cusha("gs"), "fast", SETTINGS + CUSHA_ASYNC),
    "cusha-gs-reference": (_cusha("gs"), "reference", SETTINGS + CUSHA_ASYNC),
    "cusha-cw-fast": (_cusha("cw"), "fast", SETTINGS + CUSHA_ASYNC),
    "cusha-cw-reference": (_cusha("cw"), "reference", SETTINGS + CUSHA_ASYNC),
    "streamed-fast": (_streamed, "fast", SETTINGS),
    "streamed-reference": (_streamed, "reference", SETTINGS),
    "vwc-8-fast": (_vwc, "fast", SETTINGS),
}


@pytest.fixture(scope="module")
def graph():
    return random_weights(rmat(256, 2048, seed=9), seed=10)


def _items(d) -> str:
    return ", ".join(f"{k}={v!r}" for k, v in sorted(d.items()))


def render_spans(tracer: Tracer) -> list[str]:
    depth: dict[int, int] = {}
    lines = []
    for s in tracer.spans:
        d = 0 if s.parent_id is None else depth[s.parent_id] + 1
        depth[s.span_id] = d
        line = (f"{'  ' * d}{s.name} [{s.kind}] "
                f"start={s.model_start_ms!r} ms={s.model_ms!r}")
        if s.attrs:
            line += f" attrs({_items(s.attrs)})"
        if s.stats is not None:
            line += f" stats({_items(s.stats)})"
        lines.append(line)
    return lines


def render_result(r) -> list[str]:
    lines = [
        f"iterations={r.iterations} converged={r.converged} "
        f"exec_path={r.exec_path} devices={r.devices}",
        f"kernel_time_ms={r.kernel_time_ms!r} h2d_ms={r.h2d_ms!r} "
        f"d2h_ms={r.d2h_ms!r}",
        f"representation_bytes={r.representation_bytes} "
        f"cache_hits={r.cache_hits} cache_misses={r.cache_misses}",
        f"edges_processed={r.edges_processed} "
        f"shards_skipped={r.shards_skipped} "
        f"exchange_bytes={r.exchange_bytes} "
        f"exchange_ms={r.exchange_ms!r}",
        f"values_sha={hashlib.sha256(r.values.tobytes()).hexdigest()[:16]}",
        "frontier_mask_sha="
        + ("None" if r.frontier_mask is None else
           hashlib.sha256(r.frontier_mask.tobytes()).hexdigest()[:16]),
        f"stats({_items(vars(r.stats))})",
    ]
    for name, st in sorted((r.stage_stats or {}).items()):
        lines.append(f"stage {name}({_items(vars(st))})")
    for t in r.traces:
        lines.append(f"trace {t!r}")
    for extra in ("unoverlapped_ms", "num_chunks"):
        if getattr(r, extra):
            lines.append(f"{extra}={getattr(r, extra)!r}")
    return lines


def render_case(graph, case: str) -> str:
    build, exec_path, settings = CASES[case]
    out = []
    for prog_name, cfg, eng_kw in settings:
        engine = build(RepresentationCache(), **eng_kw)
        program = make_program(prog_name, graph)
        tracer = Tracer()
        result = engine.run(graph, program, config=RunConfig(
            max_iterations=200, allow_partial=True, exec_path=exec_path,
            tracer=tracer, **cfg))
        out.append(f"=== {case} {prog_name} {_items(cfg)} {_items(eng_kw)}")
        out += render_spans(tracer)
        out.append("--- metrics")
        out += [f"{name} {metric!r}" for name, metric in
                sorted(tracer.metrics.as_dict().items())]
        out.append("--- result")
        out += render_result(result)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_golden(graph, case):
    actual = render_case(graph, case)
    DATA.joinpath(f"trace_{case}.actual").write_text(actual)
    expected = DATA.joinpath(f"trace_{case}.expected").read_text()
    assert actual == expected
