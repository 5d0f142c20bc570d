"""Unit tests for the cross-run representation cache (:mod:`repro.cache`)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.analysis.invariants import validate_structure
from repro.cache import (RepresentationCache, default_cache,
                         graph_fingerprint, resolve_cache)
from repro.frameworks import CuShaEngine, RunConfig
from repro.frameworks.csrloop import CSRProblem
from repro.algorithms import make_program
from repro.graph.csr import CSR
from repro.graph.cw import ConcatenatedWindows
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_weights, rmat
from repro.telemetry.tracer import Tracer


def _graph(seed=7):
    return random_weights(rmat(600, 4500, seed=seed), seed=seed + 1)


class TestFingerprint:
    def test_stable_for_identical_structure(self):
        g1 = _graph()
        g2 = DiGraph(g1.src.copy(), g1.dst.copy(), g1.num_vertices)
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_weights_excluded(self):
        # Representations are structural: same topology, different weights
        # must share cache entries (edge values are gathered from the graph
        # actually passed to run()).
        g1 = _graph()
        g2 = DiGraph(g1.src, g1.dst, g1.num_vertices,
                     weights=np.ones(g1.num_edges))
        assert graph_fingerprint(g1) == graph_fingerprint(g2)

    def test_in_place_mutation_changes_fingerprint(self):
        g = _graph()
        fp0 = graph_fingerprint(g)
        g.dst[0] = (g.dst[0] + 1) % g.num_vertices
        assert graph_fingerprint(g) != fp0

    def test_vertex_count_changes_fingerprint(self):
        g = _graph()
        g2 = DiGraph(g.src, g.dst, g.num_vertices + 1)
        assert graph_fingerprint(g) != graph_fingerprint(g2)


class TestRepresentationCache:
    def test_hit_and_miss_counters(self):
        c = RepresentationCache()
        builds = []
        c.get("k", lambda: builds.append(1) or "v")
        assert c.counters() == (0, 1)
        assert c.get("k", lambda: builds.append(1) or "v2") == "v"
        assert c.counters() == (1, 1)
        assert len(builds) == 1

    def test_lru_eviction(self):
        c = RepresentationCache(max_entries=2)
        c.get("a", lambda: 1)
        c.get("b", lambda: 2)
        c.get("a", lambda: None)  # refresh a
        c.get("c", lambda: 3)  # evicts b (least recently used)
        assert "a" in c and "c" in c and "b" not in c

    def test_clear(self):
        c = RepresentationCache()
        c.get("a", lambda: 1)
        c.clear()
        assert len(c) == 0

    def test_resolve_semantics(self):
        assert resolve_cache(None) is default_cache()
        assert resolve_cache(False) is None
        c = RepresentationCache()
        assert resolve_cache(c) is c
        with pytest.raises(TypeError):
            resolve_cache("yes")


class TestEngineKeying:
    def test_second_run_hits(self):
        g = _graph()
        c = RepresentationCache()
        eng = CuShaEngine("cw", vertices_per_shard=64, cache=c)
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        eng.run(g, make_program("pr", g), config=cfg)
        h0, m0 = c.counters()
        assert m0 > 0 and h0 == 0
        eng.run(g, make_program("pr", g), config=cfg)
        h1, m1 = c.counters()
        assert h1 > 0 and m1 == m0

    def test_structurally_equal_graph_hits(self):
        g1 = _graph()
        g2 = DiGraph(g1.src.copy(), g1.dst.copy(), g1.num_vertices)
        c = RepresentationCache()
        eng = CuShaEngine("cw", vertices_per_shard=64, cache=c)
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        r1 = eng.run(g1, make_program("cc", g1), config=cfg)
        r2 = eng.run(g2, make_program("cc", g2), config=cfg)
        assert c.counters()[0] > 0
        assert r1.values.tobytes() == r2.values.tobytes()

    def test_mutated_graph_misses(self):
        g = _graph()
        c = RepresentationCache()
        eng = CuShaEngine("cw", vertices_per_shard=64, cache=c)
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        eng.run(g, make_program("cc", g), config=cfg)
        _, m0 = c.counters()
        g.dst[0] = (g.dst[0] + 1) % g.num_vertices
        eng.run(g, make_program("cc", g), config=cfg)
        h1, m1 = c.counters()
        assert h1 == 0 and m1 > m0

    def test_different_shard_size_misses(self):
        g = _graph()
        c = RepresentationCache()
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        CuShaEngine("cw", vertices_per_shard=64, cache=c).run(
            g, make_program("cc", g), config=cfg)
        _, m0 = c.counters()
        CuShaEngine("cw", vertices_per_shard=32, cache=c).run(
            g, make_program("cc", g), config=cfg)
        h1, m1 = c.counters()
        assert h1 == 0 and m1 > m0

    def test_mode_shares_cw_but_not_stats(self):
        # gs and cw share the ConcatenatedWindows entry (keyed on structure
        # and N) but have distinct static-stats bundles (keyed on mode).
        g = _graph()
        c = RepresentationCache()
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        CuShaEngine("cw", vertices_per_shard=64, cache=c).run(
            g, make_program("cc", g), config=cfg)
        CuShaEngine("gs", vertices_per_shard=64, cache=c).run(
            g, make_program("cc", g), config=cfg)
        h, m = c.counters()
        assert h == 1  # the shared ("cw", fp, N) representation
        assert m == 3  # cw rep + two per-mode stats bundles

    def test_reference_path_bypasses_cache(self):
        g = _graph()
        c = RepresentationCache()
        eng = CuShaEngine("cw", vertices_per_shard=64, cache=c)
        eng.run(g, make_program("cc", g), config=RunConfig(
            exec_path="reference", allow_partial=True, max_iterations=10))
        assert c.counters() == (0, 0)
        assert len(c) == 0
        # The single-path CSR engines and the streamed engine skip the
        # cache too, and report the path they were asked for.
        for key in ("vwc-8", "mtcpu-4", "cusha-streamed"):
            r = repro.make_engine(key, shard_size=64, cache=c).run(
                g, make_program("cc", g), config=RunConfig(
                    exec_path="reference", allow_partial=True,
                    max_iterations=10))
            assert r.exec_path == "reference", key
            assert (r.cache_hits, r.cache_misses) == (0, 0), key
            assert c.counters() == (0, 0), key
            assert len(c) == 0, key

    def test_cache_disabled(self):
        g = _graph()
        eng = CuShaEngine("cw", vertices_per_shard=64, cache=False)
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        r1 = eng.run(g, make_program("cc", g), config=cfg)
        r2 = eng.run(g, make_program("cc", g), config=cfg)
        assert r1.values.tobytes() == r2.values.tobytes()


class TestShareVsCopyContract:
    """Cached representations are shared, never copied — so they are frozen
    on insert and a borrower's in-place write raises instead of corrupting
    the entry every later run receives (docs/performance.md)."""

    def test_cached_csr_is_read_only(self):
        g = _graph()
        c = RepresentationCache()
        csr = c.get(("csr", graph_fingerprint(g)), lambda: CSR.from_graph(g))
        with pytest.raises(ValueError):
            csr.src_indxs[0] = 99

    def test_hit_still_valid_after_borrower_mutation_attempt(self):
        g = _graph()
        c = RepresentationCache()
        key = ("cw", graph_fingerprint(g), 64)
        borrowed = c.get(key, lambda: ConcatenatedWindows.from_graph(g, 64))
        for arr in (borrowed.mapper, borrowed.cw_src_index,
                    borrowed.shards.dest_index, borrowed.shards.src_index):
            with pytest.raises(ValueError):
                arr[0] = arr[0] + 1
        hit = c.get(key, lambda: pytest.fail("must be a hit"))
        assert hit is borrowed
        assert validate_structure(hit) == []

    def test_cached_entries_pass_invariants_after_engine_runs(self):
        # Engines only borrow: after full runs over the shared entry, the
        # CSR and CW in the cache still satisfy every structural invariant.
        g = _graph()
        c = RepresentationCache()
        cfg = RunConfig(allow_partial=True, max_iterations=10)
        CuShaEngine("cw", vertices_per_shard=64, cache=c).run(
            g, make_program("pr", g), config=cfg)
        CSRProblem.build(g, make_program("cc", g), cache=c)
        fp = graph_fingerprint(g)
        cw = c.get(("cw", fp, 64), lambda: pytest.fail("must be a hit"))
        csr = c.get(("csr", fp), lambda: pytest.fail("must be a hit"))
        assert validate_structure(cw) == []
        assert validate_structure(csr) == []

    def test_borrower_graph_stays_writable(self):
        # Freezing stops at the representation: the user's graph arrays
        # remain theirs to mutate (which changes the fingerprint and
        # naturally misses the cache).
        g = _graph()
        c = RepresentationCache()
        c.get(("cw", graph_fingerprint(g), 64),
              lambda: ConcatenatedWindows.from_graph(g, 64))
        g.dst[0] = (g.dst[0] + 1) % g.num_vertices  # must not raise


class TestCSRProblemCaching:
    def test_structural_parts_shared(self):
        g = _graph()
        c = RepresentationCache()
        p1 = CSRProblem.build(g, make_program("cc", g), cache=c)
        p2 = CSRProblem.build(g, make_program("cc", g), cache=c)
        assert p1.csr is p2.csr
        assert p1.destinations is p2.destinations
        # Value arrays are always fresh: they depend on program state.
        assert p1.vertex_values is not p2.vertex_values

    def test_disabled_builds_fresh(self):
        g = _graph()
        p1 = CSRProblem.build(g, make_program("cc", g), cache=False)
        p2 = CSRProblem.build(g, make_program("cc", g), cache=False)
        assert p1.csr is not p2.csr


class TestMetricsPublication:
    def test_hits_and_misses_published_per_run(self):
        g = _graph()
        c = RepresentationCache()
        t1, t2 = Tracer(), Tracer()
        repro.run(g, "pr", engine="cusha-cw", shard_size=64, cache=c,
                  tracer=t1, allow_partial=True, max_iterations=10)
        repro.run(g, "pr", engine="cusha-cw", shard_size=64, cache=c,
                  tracer=t2, allow_partial=True, max_iterations=10)
        m1, m2 = t1.metrics.as_dict(), t2.metrics.as_dict()
        assert m1["cache.misses"]["value"] == 2
        assert m1["cache.hits"]["value"] == 0
        assert m2["cache.hits"]["value"] == 2
        assert m2["cache.misses"]["value"] == 0


class TestFacade:
    def test_run_accepts_exec_path_and_cache(self):
        g = _graph()
        c = RepresentationCache()
        r1 = repro.run(g, "sssp", engine="cusha-cw", cache=c,
                       allow_partial=True, max_iterations=40)
        r2 = repro.run(g, "sssp", engine="cusha-cw", cache=c,
                       exec_path="reference", allow_partial=True,
                       max_iterations=40)
        assert r1.values.tobytes() == r2.values.tobytes()
        assert r1.stats == r2.stats


class TestPeekAndPut:
    def test_put_then_peek_round_trips(self):
        c = RepresentationCache(max_entries=4)
        arr = np.arange(8)
        c.put("k", arr)
        assert c.peek("k") is arr
        assert c.hits == 1

    def test_peek_miss_returns_default_without_counting(self):
        c = RepresentationCache(max_entries=4)
        assert c.peek("absent") is None
        assert c.peek("absent", default=42) == 42
        assert c.misses == 0  # peek is non-inserting and miss-silent

    def test_put_freezes_arrays(self):
        c = RepresentationCache(max_entries=4)
        arr = np.arange(8)
        c.put("k", arr)
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 99

    def test_put_overwrite_keeps_single_entry(self):
        c = RepresentationCache(max_entries=4)
        c.put("k", np.arange(3))
        c.put("k", np.arange(5))
        assert len(c.peek("k")) == 5

    def test_peek_refreshes_lru_order(self):
        c = RepresentationCache(max_entries=2)
        c.put("a", 1)
        c.put("b", 2)
        c.peek("a")          # refresh: "b" becomes the LRU victim
        c.put("c", 3)
        assert c.peek("a") == 1
        assert c.peek("b") is None


class TestCheckpointPressure:
    """Checkpoints and representations sharing one cache under LRU."""

    def test_lru_order_preserved_with_mixed_entries(self):
        from repro.resilience import CheckpointStore

        c = RepresentationCache(max_entries=3)
        c.put(("rep", "csr"), np.arange(4))
        store = CheckpointStore(cache=c, run_id="t")
        store.save(1, np.zeros(4))
        store.save(2, np.ones(4))
        # Touch the representation: the oldest *checkpoint* must evict next.
        assert c.peek(("rep", "csr")) is not None
        store.save(3, np.full(4, 2.0))
        assert c.peek(("rep", "csr")) is not None      # survived
        ckpt, bad = store.restore()
        assert ckpt is not None and ckpt.iteration == 3
        assert not bad

    def test_restore_skips_evicted_checkpoints_silently(self):
        from repro.resilience import CheckpointStore

        c = RepresentationCache(max_entries=1)
        store = CheckpointStore(cache=c, run_id="t")
        store.save(1, np.zeros(4))
        store.save(2, np.ones(4))                      # evicts iteration 1
        ckpt, bad = store.restore()
        assert ckpt is not None and ckpt.iteration == 2
        assert not bad
        assert store.iterations == (1, 2)              # history remembers both

    def test_restore_after_mutation_fires_digest_mismatch(self):
        from repro.resilience import Checkpoint, CheckpointStore

        store = CheckpointStore(run_id="t")
        good = store.save(1, np.zeros(4))
        tampered = Checkpoint(
            iteration=2, values=np.ones(4), digest=good.digest
        )
        store._cache.put(store._key(2), tampered)
        store._iterations.append(2)
        ckpt, bad = store.restore()
        assert ckpt is not None and ckpt.iteration == 1   # fell back
        assert [v.code for v in bad] == ["R305"]

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_restore_lands_on_newest_valid_among_tampered(self, tampered):
        """K tampered snapshots interleaved with valid ones: restore must
        land on the newest *valid* checkpoint, flagging R305 for exactly
        the tampered ones that are newer than it."""
        from repro.resilience import Checkpoint, CheckpointStore

        store = CheckpointStore(run_id="t")
        for i, is_bad in enumerate(tampered, start=1):
            if is_bad:
                good = store.save(i, np.full(4, float(i)))
                fake = Checkpoint(
                    iteration=i, values=np.full(4, -1.0), digest=good.digest
                )
                store._cache.put(store._key(i), fake)
            else:
                store.save(i, np.full(4, float(i)))

        ckpt, bad = store.restore()
        valid = [i for i, is_bad in enumerate(tampered, start=1)
                 if not is_bad]
        if valid:
            assert ckpt is not None and ckpt.iteration == valid[-1]
            assert ckpt.values[0] == float(valid[-1])
            newer_tampered = [i for i, is_bad in enumerate(tampered, start=1)
                              if is_bad and i > valid[-1]]
            assert [v.code for v in bad] == ["R305"] * len(newer_tampered)
        else:                       # nothing valid left: cold restart
            assert ckpt is None
            assert [v.code for v in bad] == ["R305"] * len(tampered)
