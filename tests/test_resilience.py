"""Resilience subsystem tests: fault injection determinism, warm-start
bit-exactness, retry/backoff math, the degradation ladder, and the
supervisor's recovery behavior for every fault class."""

import dataclasses
import math
import sys

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.analysis import ValidationError
from repro.analysis.fixtures import BROKEN_PROGRAMS
from repro.cache import RepresentationCache
from repro.frameworks import RunConfig, make_engine
from repro.graph.generators import random_weights, rmat
from repro.resilience import (DEFAULT_ENGINE_LADDER, FAULT_CLASSES,
                              NULL_FAULTS, Checkpoint, CheckpointStore,
                              FaultPlan, FaultSpec, InjectedFault,
                              KernelAbortFault, ResilientRunner, RetryPolicy,
                              SharedMemOOMFault, TransferFault,
                              degradation_steps, values_digest)
from repro.telemetry.tracer import Tracer


def _graph(seed=3):
    return random_weights(rmat(200, 1600, seed=seed), seed=seed + 1)


ENGINES = ("cusha-cw", "cusha-gs", "cusha-streamed", "vwc-8", "mtcpu-4",
           "scalar")


# ----------------------------------------------------------------------
# Warm-start resume
# ----------------------------------------------------------------------

class TestWarmStartResume:
    @pytest.mark.parametrize("key", ENGINES)
    def test_segmented_run_bit_identical_to_continuous(self, key):
        g = _graph()
        program = make_program("sssp", g)
        engine = make_engine(key)
        cont = engine.run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True))
        assert cont.iterations > 3, "graph too easy for a resume test"

        seg1 = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=3, allow_partial=True))
        seg2 = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True,
            resume=Checkpoint.of(seg1.iterations, seg1.values)))
        assert seg2.values.tobytes() == cont.values.tobytes()
        assert seg2.iterations == cont.iterations
        assert seg2.converged == cont.converged

    def test_resume_reports_absolute_iterations_and_delta_stats(self):
        g = _graph()
        program = make_program("sssp", g)
        engine = make_engine("cusha-cw")
        cont = engine.run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True))
        seg1 = engine.run(g, program, config=RunConfig(
            max_iterations=2, allow_partial=True))
        t = Tracer()
        seg2 = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True, tracer=t,
            resume=Checkpoint.of(2, seg1.values)))
        assert seg2.iterations == cont.iterations  # absolute numbering
        executed = t.metrics.counter("engine.iterations").value
        assert executed == cont.iterations - 2  # only the delta is counted
        # Segment stats must sum to the continuous run's totals.
        assert seg1.stats + seg2.stats == cont.stats

    def test_resume_values_length_validated(self):
        g = _graph()
        program = make_program("bfs", g)
        with pytest.raises(ValueError, match="resume.values"):
            make_engine("cusha-cw").run(g, program, config=RunConfig(
                max_iterations=10, allow_partial=True,
                resume=Checkpoint.of(1, np.zeros(3))))

    def test_engines_never_write_through_resume_values(self):
        g = _graph()
        program = make_program("sssp", g)
        seg1 = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=2, allow_partial=True))
        frozen = seg1.values.copy()
        frozen.setflags(write=False)  # as a checkpoint in the cache would be
        make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True,
            resume=Checkpoint(2, frozen, values_digest(frozen, 2))))

    def test_full_sweep_ignores_the_checkpoint_mask(self):
        g = _graph()
        program = make_program("sssp", g)
        seg1 = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=3, allow_partial=True, frontier="sparse"))
        with_mask, without = (
            make_engine("cusha-cw").run(g, program, config=RunConfig(
                max_iterations=100, allow_partial=True,
                resume=Checkpoint.of(3, seg1.values, mask)))
            for mask in (seg1.frontier_mask, None))
        assert with_mask.values.tobytes() == without.values.tobytes()
        assert with_mask.stats == without.stats
        assert with_mask.traces == without.traces

    @pytest.mark.parametrize("key", ENGINES)
    def test_segmented_frontier_run_bit_identical_to_continuous(self, key):
        """A sparse run resumed via (values, frontier mask) must match the
        uninterrupted sparse run in values *and* modeled work — if the
        frontier mask were dropped on resume, the second segment would
        restart all-dirty and edges_processed would inflate."""
        g = _graph()
        program = make_program("sssp", g)
        cont = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True, frontier="sparse"))
        assert cont.iterations > 3, "graph too easy for a resume test"

        seg1 = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=3, allow_partial=True, frontier="sparse"))
        seg2 = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True, frontier="sparse",
            resume=Checkpoint.of(seg1.iterations, seg1.values,
                                 seg1.frontier_mask)))
        assert seg2.values.tobytes() == cont.values.tobytes()
        assert seg2.iterations == cont.iterations
        assert seg2.converged == cont.converged
        # Modeled-work stitching: segment counters sum to the continuous
        # run's (all zero for engines without shard structure).
        assert seg1.edges_processed + seg2.edges_processed \
            == cont.edges_processed
        assert seg1.shards_skipped + seg2.shards_skipped \
            == cont.shards_skipped

    @pytest.mark.parametrize("key", ("cusha-cw", "cusha-streamed", "vwc-8"))
    def test_supervised_frontier_run_matches_plain(self, key):
        """ResilientRunner threads the frontier mask through checkpoints:
        a fault-free supervised sparse run is bit- and work-identical to a
        plain one."""
        g = _graph()
        program = make_program("sssp", g)
        plain = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True, frontier="sparse"))
        out = ResilientRunner(key, checkpoint_every=4).run(
            g, program,
            config=RunConfig(max_iterations=100, allow_partial=True,
                             frontier="sparse"))
        assert out.result.values.tobytes() == plain.values.tobytes()
        assert out.result.iterations == plain.iterations
        assert out.result.edges_processed == plain.edges_processed
        assert out.result.shards_skipped == plain.shards_skipped
        assert out.result.frontier_mask is not None


# ----------------------------------------------------------------------
# Fault plan determinism and hooks
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic-ray")

    def test_seed_pins_unspecified_sites(self):
        a = FaultPlan([FaultSpec(kind="kernel-abort")], seed=5)
        b = FaultPlan([FaultSpec(kind="kernel-abort")], seed=5)
        c = FaultPlan([FaultSpec(kind="kernel-abort")], seed=6)
        assert a.specs[0].iteration == b.specs[0].iteration
        assert a.specs[0].site == b.specs[0].site
        assert (a.specs[0].iteration, a.specs[0].site) != (
            c.specs[0].iteration, c.specs[0].site)

    def test_count_one_fires_exactly_once(self):
        g = _graph()
        program = make_program("sssp", g)
        plan = FaultPlan([FaultSpec(kind="transfer", site="h2d")], seed=0)
        with pytest.raises(TransferFault):
            make_engine("cusha-cw").run(g, program, config=RunConfig(
                max_iterations=50, allow_partial=True, faults=plan))
        assert plan.injected == 1
        assert plan.unfired() == []
        # The spec is consumed: a retry of the same run succeeds.
        result = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=50, allow_partial=True, faults=plan))
        assert result.converged
        assert plan.injected == 1

    def test_persistent_spec_keeps_firing_but_counts_as_fired(self):
        g = _graph()
        program = make_program("sssp", g)
        plan = FaultPlan(
            [FaultSpec(kind="sharedmem-oom", count=None)], seed=0)
        for _ in range(2):
            with pytest.raises(SharedMemOOMFault):
                make_engine("cusha-cw").run(g, program, config=RunConfig(
                    max_iterations=50, allow_partial=True, faults=plan))
        assert plan.injected == 2
        assert plan.unfired() == []

    def test_values_bitflip_actually_flips_a_bit(self):
        g = _graph()
        program = make_program("sssp", g)
        clean = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=1, allow_partial=True))
        plan = FaultPlan(
            [FaultSpec(kind="bitflip-values", iteration=1)], seed=0)
        try:
            make_engine("cusha-cw").run(g, program, config=RunConfig(
                max_iterations=50, allow_partial=True, faults=plan))
        except InjectedFault as fault:
            assert fault.kind == "bitflip-values"
            assert fault.iterations_completed == 0
        else:  # pragma: no cover - the fault must fire
            pytest.fail("bitflip-values never fired")
        assert clean.iterations >= 1

    @pytest.mark.parametrize("path", ("fast", "reference"))
    def test_identical_fault_sites_on_both_exec_paths(self, path):
        g = _graph()
        program = make_program("sssp", g)
        plan = FaultPlan([FaultSpec(kind="kernel-abort")], seed=2)
        with pytest.raises(KernelAbortFault) as err:
            make_engine("cusha-cw").run(g, program, config=RunConfig(
                max_iterations=50, allow_partial=True, faults=plan,
                exec_path=path))
        assert err.value.iteration == plan.specs[0].iteration

    def test_exec_path_scoped_fault_skips_other_path(self):
        g = _graph()
        program = make_program("sssp", g)
        plan = FaultPlan(
            [FaultSpec(kind="kernel-abort", exec_path="fast")], seed=0)
        result = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=50, allow_partial=True, faults=plan,
            exec_path="reference"))
        assert result.converged
        assert plan.injected == 0


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

class TestCheckpoint:
    def test_digest_covers_iteration_and_bytes(self):
        v = np.arange(6, dtype=np.float64)
        assert values_digest(v, 1) != values_digest(v, 2)
        w = v.copy()
        w[0] += 1
        assert values_digest(v, 1) != values_digest(w, 1)

    def test_verify_catches_tampering(self):
        v = np.zeros(4)
        good = Checkpoint(1, v, values_digest(v, 1))
        assert good.verify()
        assert not Checkpoint(2, v, good.digest).verify()

    def test_store_save_copies_values(self):
        store = CheckpointStore(run_id="t")
        v = np.zeros(4)
        store.save(1, v)
        v[0] = 7.0
        ckpt, bad = store.restore()
        assert ckpt.values[0] == 0.0 and not bad

    def test_digest_covers_frontier_mask(self):
        v = np.zeros(4)
        f = np.array([True, False, True, False])
        assert values_digest(v, 1, f) != values_digest(v, 1)
        g = f.copy()
        g[1] = True
        assert values_digest(v, 1, f) != values_digest(v, 1, g)
        good = Checkpoint(1, v, values_digest(v, 1, f), frontier=f)
        assert good.verify()
        tampered = Checkpoint(1, v, good.digest, frontier=g)
        assert not tampered.verify()

    def test_store_save_copies_frontier(self):
        store = CheckpointStore(run_id="t")
        v = np.zeros(4)
        f = np.array([True, False, False, True])
        store.save(1, v, frontier=f)
        f[1] = True
        ckpt, bad = store.restore()
        assert not bad and ckpt.verify()
        assert not ckpt.frontier[1]


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------

class TestPolicy:
    def test_backoff_is_exact(self):
        p = RetryPolicy(max_retries=4, base_ms=10.0, multiplier=2.0)
        assert [p.backoff_ms(a) for a in range(4)] == [10.0, 20.0, 40.0, 80.0]
        assert p.total_backoff_ms(3) == 70.0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_ladder_from_top(self):
        assert degradation_steps("cusha-cw") == [
            ("cusha-cw", "fast"), ("cusha-cw", "reference"),
            ("cusha-gs", "fast"), ("vwc-8", "fast"), ("mtcpu-4", "fast")]

    def test_ladder_mid_rung_only_descends(self):
        assert degradation_steps("vwc-8") == [
            ("vwc-8", "fast"), ("vwc-8", "reference"), ("mtcpu-4", "fast")]

    def test_off_ladder_gpu_engine_gets_whole_ladder(self):
        steps = degradation_steps("cusha-streamed")
        assert steps[:2] == [("cusha-streamed", "fast"),
                             ("cusha-streamed", "reference")]
        assert [e for e, _ in steps[2:]] == list(DEFAULT_ENGINE_LADDER)

    def test_cpu_engine_has_no_fallbacks(self):
        assert degradation_steps("mtcpu-4") == [
            ("mtcpu-4", "fast"), ("mtcpu-4", "reference")]


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------

class _CorruptSnapshotAt(RepresentationCache):
    """A checkpoint cache whose snapshot of one iteration fails its
    digest."""

    def __init__(self, iteration):
        super().__init__(max_entries=16)
        self.iteration = iteration

    def put(self, key, value):
        if key[-1] == self.iteration:
            value = dataclasses.replace(value, digest="0" * 32)
        return super().put(key, value)


class TestResilientRunner:
    def _golden(self, key="cusha-cw"):
        g = _graph()
        program = make_program("sssp", g)
        golden = make_engine(key).run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True))
        return g, program, golden

    def test_fault_free_supervised_run_matches_plain(self):
        g, program, golden = self._golden()
        out = ResilientRunner("cusha-cw", checkpoint_every=3).run(
            g, program, max_iterations=100, allow_partial=True)
        assert out.values.tobytes() == golden.values.tobytes()
        assert out.iterations == golden.iterations
        assert out.completed and out.recovered and not out.degraded
        assert out.retries == 0 and out.faults_injected == 0
        assert out.checkpoints > 1
        # Segment accounting stitches back to the continuous totals.
        assert out.result.stats == golden.stats

    # sharedmem-oom is persistent (degrades, below) and device-loss is
    # structural (repartitions, tests/test_placement.py); neither rides
    # the transient retry/restore path.
    @pytest.mark.parametrize("fault", [f for f in FAULT_CLASSES
                                       if f not in ("sharedmem-oom",
                                                    "device-loss")])
    def test_transient_faults_recover_to_golden(self, fault):
        g, program, golden = self._golden()
        plan = FaultPlan([FaultSpec(kind=fault)], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert plan.injected == 1
        assert out.recovered and not out.degraded and out.completed
        assert out.retries == 1
        assert out.backoff_total_ms == RetryPolicy().backoff_ms(0)
        assert out.values.tobytes() == golden.values.tobytes()

    def test_persistent_oom_degrades_down_the_ladder(self):
        g, program, golden = self._golden()
        plan = FaultPlan(
            [FaultSpec(kind="sharedmem-oom", engine="cusha-cw",
                       count=None)], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert out.degraded and out.completed
        assert out.engine_final == "cusha-gs"
        assert plan.injected == 2  # fast rung + reference rung
        codes = [v.code for v in out.violations]
        assert codes.count("F404") == 1 and codes.count("F405") == 1
        assert out.values.tobytes() == golden.values.tobytes()

    def test_ladder_exhaustion_returns_partial_result(self):
        g, program, _ = self._golden()
        plan = FaultPlan(
            [FaultSpec(kind="kernel-abort", count=None, iteration=5)],
            seed=0)
        out = ResilientRunner(
            "cusha-cw", checkpoint_every=3,
            retry=RetryPolicy(max_retries=1),
        ).run(g, program, faults=plan, max_iterations=100,
              allow_partial=True)
        assert not out.recovered
        assert not out.completed
        assert not out.result.completed
        # The reported count is the partial one actually in values (the
        # last checkpoint), never a stale mid-abort number.
        assert out.iterations == 3
        seg = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=3, allow_partial=True))
        assert out.values.tobytes() == seg.values.tobytes()
        assert [v.code for v in out.violations].count("F406") == 1
        assert any(v.severity == "error" for v in out.violations)

    def test_restore_replays_from_last_checkpoint(self):
        g, program, golden = self._golden()
        plan = FaultPlan(
            [FaultSpec(kind="kernel-abort", iteration=5)], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert out.restores == 1
        assert out.replayed_iterations == 1  # iterations 4 (ckpt 3 -> 5)
        assert out.values.tobytes() == golden.values.tobytes()

    def test_degrade_rollbacks_count_as_replayed(self):
        # A kernel abort pinned to cusha-cw at iteration 7 throws away
        # iterations 5-6 on every rung of that engine: 3 retries + 1
        # degrade on each of its two exec paths, then cusha-gs finishes.
        g = rmat(256, 2048, seed=0)
        program = make_program("pr", g)
        plan = FaultPlan([FaultSpec(kind="kernel-abort", engine="cusha-cw",
                                    count=None, iteration=7)], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=4).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert out.completed and out.engine_final == "cusha-gs"
        assert (out.retries, out.degradations) == (6, 2)
        assert out.restores == out.retries + out.degradations
        assert out.replayed_iterations == 2 * (out.retries
                                               + out.degradations)

    def test_rollback_past_a_corrupt_snapshot_drops_its_segments(self):
        # The snapshot at iteration 6 is corrupt, so the abort at 8 rolls
        # back to 3 (R305); the stitched accounting must not count
        # iterations 4-6 twice.
        g, program, golden = self._golden()
        plan = FaultPlan([FaultSpec(kind="kernel-abort", iteration=8)],
                         seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3,
                              checkpoint_cache=_CorruptSnapshotAt(6)).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert [e.code for e in out.events if e.action == "detect"] == [
            "R302", "R305"]
        assert out.replayed_iterations == 7 - 3
        assert out.values.tobytes() == golden.values.tobytes()
        assert out.result.stats == golden.stats
        assert [t.iteration for t in out.result.traces] == [
            t.iteration for t in golden.traces]

    def test_degrade_records_corrupt_snapshots(self):
        # With no retries the fast-path abort degrades at once; its
        # rollback skips the corrupt snapshot like a retry's would.
        g, program, golden = self._golden()
        plan = FaultPlan([FaultSpec(kind="kernel-abort", exec_path="fast",
                                    count=None, iteration=8)], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3,
                              retry=RetryPolicy(max_retries=0),
                              checkpoint_cache=_CorruptSnapshotAt(6)).run(
            g, program, faults=plan, max_iterations=100, allow_partial=True)
        assert out.exec_path_final == "reference" and out.completed
        assert [(e.action, e.code) for e in out.events
                if e.action in ("detect", "degrade-exec")] == [
            ("detect", "R302"), ("detect", "R305"), ("degrade-exec", "F404")]
        assert (out.restores, out.replayed_iterations) == (1, 7 - 3)
        assert out.values.tobytes() == golden.values.tobytes()
        assert out.result.stats == golden.stats

    def test_narrow_reaches_every_segment(self):
        g = rmat(256, 2048, seed=0)
        program = make_program("bfs", g)
        config = RunConfig(narrow="auto", max_iterations=100)
        plain = make_engine("cusha-cw").run(g, program, config=config)
        out = ResilientRunner("cusha-cw", checkpoint_every=2).run(
            g, program, config=config)
        assert out.checkpoints > 1
        assert out.values.tobytes() == plain.values.tobytes()
        assert out.result.stats == plain.stats

    def test_validate_reaches_the_segments(self):
        g = rmat(256, 2048, seed=0)
        program = BROKEN_PROGRAMS["undeclared-write"].factory()
        with pytest.raises(ValidationError):
            ResilientRunner("cusha-cw").run(g, program, validate="structure")

    def test_full_validation_checks_races_once(self, monkeypatch):
        # Every segment re-runs the preflight; the race verdicts come from
        # the engine's cache after the first.
        preflight = sys.modules["repro.analysis.preflight"]
        calls = {"segments": 0, "stage": 0, "order": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(preflight, fn.__name__, wrapper)

        counting("segments", preflight.collect_violations)
        counting("stage", preflight.stage_discipline_check)
        counting("order", preflight.order_sensitivity_check)
        g = rmat(256, 1024, seed=0)
        program = make_program("bfs", g)
        plain = make_engine("cusha-cw").run(g, program)
        out = ResilientRunner(
            "cusha-cw", checkpoint_every=1, cache=RepresentationCache()
        ).run(g, program, validate="full")
        assert calls == {"segments": 6, "stage": 1, "order": 1}
        assert out.values.tobytes() == plain.values.tobytes()

    def test_telemetry_spans_and_metrics(self):
        g, program, _ = self._golden()
        t = Tracer()
        plan = FaultPlan([FaultSpec(kind="transfer")], seed=0)
        out = ResilientRunner("cusha-cw", checkpoint_every=3).run(
            g, program, faults=plan, max_iterations=100,
            allow_partial=True, tracer=t)
        assert out.recovered
        spans = t.find(kind="resilience")
        actions = [s.name for s in spans]
        assert "resilience-detect" in actions
        assert "resilience-retry" in actions
        assert "resilience-checkpoint" in actions
        m = t.metrics.as_dict()
        assert m["resilience.detect"]["value"] == 1
        assert m["resilience.retry"]["value"] == 1
        assert m["resilience.faults.injected"]["value"] == 1
        assert m["resilience.backoff_ms"]["value"] == 10.0

    def test_null_faults_is_zero_overhead_default(self):
        g, program, golden = self._golden()
        explicit = make_engine("cusha-cw").run(g, program, config=RunConfig(
            max_iterations=100, allow_partial=True, faults=NULL_FAULTS))
        assert explicit.values.tobytes() == golden.values.tobytes()
        assert explicit.stats == golden.stats
        assert not NULL_FAULTS.active


@pytest.mark.parametrize("program_name", ["pr", "bfs", "sssp"])
@pytest.mark.parametrize("key,frontier", [
    *((k, "off") for k in ("cusha-cw", "cusha-gs", "cusha-streamed",
                           "vwc-8", "mtcpu-4")),
    *((k, "sparse") for k in ("cusha-cw", "cusha-gs", "cusha-streamed",
                              "vwc-8")),
])
def test_supervised_run_equals_uninterrupted(key, frontier, program_name):
    """A fault-free supervised run stitches back to the plain run: values,
    accounting and traces, with cumulative times equal up to the order
    their float sums were taken in."""
    g = _graph()
    program = make_program(program_name, g)
    config = RunConfig(max_iterations=100, allow_partial=True,
                       frontier=frontier)
    plain = make_engine(key).run(g, program, config=config)
    out = ResilientRunner(key, checkpoint_every=3).run(
        g, program, config=config).result
    assert out.values.tobytes() == plain.values.tobytes()
    assert out.iterations == plain.iterations
    assert out.stats == plain.stats
    assert out.stage_stats == plain.stage_stats
    assert out.edges_processed == plain.edges_processed
    assert out.shards_skipped == plain.shards_skipped

    def exact(t):
        return t.iteration, t.updated_vertices, t.time_ms, t.active_shards

    assert [exact(t) for t in out.traces] == [exact(t) for t in plain.traces]
    for got, want in zip(out.traces, plain.traces):
        assert math.isclose(got.cumulative_time_ms, want.cumulative_time_ms,
                            rel_tol=1e-12)


def test_supervised_streamed_run_keeps_overlap_accounting():
    """cusha-streamed's overlap fields survive the segment stitch."""
    g = _graph()
    program = make_program("sssp", g)
    config = RunConfig(max_iterations=100, allow_partial=True)
    plain = make_engine("cusha-streamed").run(g, program, config=config)
    out = ResilientRunner("cusha-streamed", checkpoint_every=2).run(
        g, program, config=config).result
    assert out.num_chunks == plain.num_chunks > 0
    assert math.isclose(out.unoverlapped_ms, plain.unoverlapped_ms,
                        rel_tol=1e-12)


# ----------------------------------------------------------------------
# Fixtures (mirrors `repro check --selftest`)
# ----------------------------------------------------------------------

class TestResilienceFixtures:
    def test_every_fixture_fires_its_code_exactly_once(self):
        from repro.analysis.fixtures import RESILIENCE_FIXTURES

        assert len(RESILIENCE_FIXTURES) >= 7
        for name, fx in RESILIENCE_FIXTURES.items():
            codes = [v.code for v in fx.run()]
            assert fx.expect in codes, name
            assert set(codes) <= fx.allowed, name
            assert codes.count(fx.expect) == 1, name
