"""The benchmark's own tests, at tiny graph sizes (``scale=TINY``).

Run with ``python -m pytest perfbench`` from the repository root.
"""

import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import layers
import run as bench
import workloads
from repro.graph import generators
from repro.reference import golden

TINY = 0.02
SECONDS = 0.3
SPEC = bench._spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ("engine.iterations", "cache.hits_per_call", "cache.misses_per_call",
         "frontier.edges_processed", "frontier.skip_frac",
         "kernel.edges_per_call")


@pytest.fixture(scope="module")
def runs():
    """Each (workload, trace) run once, shared by the tests below."""
    return {
        (name, trace): workloads.run(name, 5, SECONDS, trace, scale=TINY)
        for name in NAMES for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_emitted_with_its_unit(runs, name, trace):
    result = bench.result_object(SPEC, runs[name, trace], trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert np.isfinite(entry["value"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_error_rate_is_zero(runs, name, trace):
    out = runs[name, trace]
    assert out["failed"] == 0, out["info"]["failures"]
    assert out["info"]["error_rate"] == 0.0
    assert out["attempted"] > 1


@pytest.mark.parametrize("name", NAMES)
def test_wrapper_self_check_passes(runs, name):
    assert runs[name, True]["info"]["wrapper_self_check"] == "ok"


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_identical_exact_counts(runs, name):
    again = workloads.run(name, 5, SECONDS, True, scale=TINY)["metrics"]
    first = runs[name, True]["metrics"]
    assert {k: again[k] for k in EXACT} == {k: first[k] for k in EXACT}
    e2e = workloads.run(name, 5, SECONDS, False, scale=TINY)["metrics"]
    assert e2e["model_ms"] == runs[name, False]["metrics"]["model_ms"]


def test_layers_predict_work_only_where_it_happens(runs):
    # The frontier bookkeeping runs on the frontier workload alone.
    assert runs["bfs-road-frontier", True]["metrics"][
        "frontier.bookkeeping_s"] > 0
    assert runs["pr-social", True]["metrics"]["frontier.bookkeeping_s"] == 0
    assert runs["pr-social-vwc", True]["metrics"]["vwc.chunk_s"] > 0
    assert runs["pr-social-vwc", True]["metrics"]["graph.cw_build_s"] == 0


def test_self_check_names_a_function_that_was_never_called():
    missing = layers.self_check("pr-social", {"warm": Counter()})
    assert "graph.cw_build_s (cold pass)" in missing
    assert "kernel.messages_s (warm pass)" in missing
    assert not any("frontier" in m for m in missing)


def test_installed_restores_every_target_even_on_error():
    import repro.frameworks.cusha as cusha
    from repro.graph.cw import ConcatenatedWindows

    before = (cusha.apply_reductions,
              vars(ConcatenatedWindows)["from_graph"])
    with pytest.raises(RuntimeError):
        with layers.installed(layers.Attribution()):
            assert cusha.apply_reductions is not before[0]
            raise RuntimeError("boom")
    assert (cusha.apply_reductions,
            vars(ConcatenatedWindows)["from_graph"]) == before


def test_a_moved_target_fails_at_install():
    gone = layers.Layer("x_s", ("repro.cache:no_such_function",), "warm",
                        frozenset(), "nothing")
    with pytest.raises(LookupError):
        with layers.installed(layers.Attribution(), (gone,)):
            pass


def test_pagerank_reference_matches_golden():
    g = generators.rmat(300, 2400, seed=4)
    assert np.allclose(workloads.pagerank_reference(g),
                       golden.pagerank_fixpoint(g), rtol=0, atol=1e-9)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pr-social",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
