"""Tests for the multi-tenant service layer (``repro.service``).

Covers the job lifecycle (submit/poll/result/cancel), per-tenant quotas
(hard rejection and soft load-shedding), deterministic same-graph batch
formation, and — most importantly — the bit-exactness contract: a
coalesced multi-source run must produce, per column, exactly the values
each query would have computed alone.  See ``docs/service.md``.
"""

import threading
import time

import numpy as np
import pytest

import repro
from repro.cache import RepresentationCache
from repro.errors import JobCancelledError, QuotaExceededError
from repro.frameworks import RunConfig, make_engine
from repro.graph import generators
from repro.service import (
    TRAVERSAL_SPECS,
    JobRequest,
    JobStatus,
    MultiSourceTraversal,
    QuotaLedger,
    Service,
    TenantQuota,
    batch_key,
    batchable,
    weights_digest,
)
from repro.telemetry import Tracer

UNLIMITED = TenantQuota(max_pending=None, max_inflight=None)


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(
        generators.rmat(300, 1_400, seed=11), seed=12
    )


@pytest.fixture(scope="module")
def sources(graph):
    rng = np.random.default_rng(3)
    return [int(s) for s in rng.choice(graph.num_vertices, size=6,
                                       replace=False)]


def golden(graph, program, source, engine="cusha-cw", config=None):
    """One query run alone — the reference for batched bit-exactness."""
    eng = make_engine(engine, cache=False)
    prog = repro.make_program(program, graph, source=source)
    return eng.run(graph, prog, config=config)


class TestLifecycle:
    def test_submit_poll_result(self, graph):
        with Service(workers=1) as svc:
            handle = svc.submit(JobRequest(graph, "sssp", source=0))
            result = handle.result(timeout=60)
        assert handle.poll() == JobStatus.DONE
        assert result.program == "sssp"
        assert result.converged
        assert handle.batched_with == 1
        ref = golden(graph, "sssp", 0)
        assert np.array_equal(result.values, ref.values)

    def test_poll_and_result_by_job_id(self, graph):
        with Service(workers=1) as svc:
            handle = svc.submit(JobRequest(graph, "bfs", source=0))
            result = svc.result(handle.job_id, timeout=60)
            assert svc.poll(handle.job_id) == JobStatus.DONE
        assert np.array_equal(result.values, golden(graph, "bfs", 0).values)

    def test_unknown_job_id(self, graph):
        with Service(workers=1) as svc:
            with pytest.raises(KeyError):
                svc.poll("job-does-not-exist")

    def test_submit_rejects_non_request(self, graph):
        with Service(workers=1) as svc:
            with pytest.raises(TypeError, match="JobRequest"):
                svc.submit({"graph": graph, "program": "bfs"})

    def test_unknown_program_rejected_at_submit(self, graph):
        with Service(workers=1) as svc:
            with pytest.raises(KeyError, match="unknown program"):
                svc.submit(JobRequest(graph, "no-such-program"))

    def test_failed_job_propagates_error(self, graph):
        from repro.errors import ConvergenceError

        config = RunConfig(max_iterations=1, allow_partial=False)
        with Service(workers=1) as svc:
            handle = svc.submit(
                JobRequest(graph, "sssp", source=0, config=config)
            )
            with pytest.raises(ConvergenceError):
                handle.result(timeout=60)
            assert handle.poll() == JobStatus.FAILED

    def test_stats_counts(self, graph):
        with Service(workers=1) as svc:
            svc.run_batch([JobRequest(graph, "bfs", source=s)
                           for s in (0, 1)])
            stats = svc.stats()
        assert stats["submitted"] == 2
        assert stats["done"] == 2
        assert stats["failed"] == 0
        assert "default" in stats["tenants"]


class TestCancel:
    def test_cancel_queued_job(self, graph):
        with Service(workers=1) as svc:
            svc.pause()
            handle = svc.submit(JobRequest(graph, "bfs", source=0))
            assert handle.poll() == JobStatus.PENDING
            assert handle.cancel()
            svc.resume()
            assert handle.poll() == JobStatus.CANCELLED
            with pytest.raises(JobCancelledError) as info:
                handle.result(timeout=5)
            assert info.value.job_id == handle.job_id

    def test_cancel_finished_job_returns_false(self, graph):
        with Service(workers=1) as svc:
            handle = svc.submit(JobRequest(graph, "bfs", source=0))
            handle.result(timeout=60)
            assert not handle.cancel()

    def test_cancel_refunds_quota(self, graph):
        quotas = {"t": TenantQuota(max_pending=1)}
        with Service(workers=1, quotas=quotas) as svc:
            svc.pause()
            first = svc.submit(JobRequest(graph, "bfs", source=0, tenant="t"))
            with pytest.raises(QuotaExceededError):
                svc.submit(JobRequest(graph, "bfs", source=1, tenant="t"))
            first.cancel()
            # the refunded slot admits a new job
            second = svc.submit(JobRequest(graph, "bfs", source=1, tenant="t"))
            svc.resume()
            second.result(timeout=60)


class TestQuotas:
    def test_max_pending_rejects(self, graph):
        quotas = {"capped": TenantQuota(max_pending=2)}
        with Service(workers=1, quotas=quotas) as svc:
            svc.pause()
            for s in (0, 1):
                svc.submit(JobRequest(graph, "bfs", source=s, tenant="capped"))
            with pytest.raises(QuotaExceededError) as info:
                svc.submit(JobRequest(graph, "bfs", source=2, tenant="capped"))
            assert info.value.tenant == "capped"
            assert info.value.reason == "max_pending"
            svc.resume()

    def test_cost_budget_sheds_bit_exact(self, graph):
        quotas = {"metered": TenantQuota(cost_budget=1.0)}
        with Service(workers=1, quotas=quotas) as svc:
            handle = svc.submit(
                JobRequest(graph, "sssp", source=0, tenant="metered")
            )
            result = handle.result(timeout=60)
        assert handle.shed
        assert np.array_equal(result.values, golden(graph, "sssp", 0).values)

    def test_shed_job_keeps_its_config(self, graph):
        # The shed rerun on cusha-gs still narrows: its stats are a direct
        # narrowed cusha-gs run's, not the un-narrowed ones.
        narrow = RunConfig(narrow="auto")
        with Service(workers=1,
                     default_quota=TenantQuota(cost_budget=0.0)) as svc:
            handle = svc.submit(JobRequest(graph, "bfs", source=0,
                                           config=narrow))
            result = handle.result(timeout=60)
        assert handle.shed
        direct = golden(graph, "bfs", 0, engine="cusha-gs", config=narrow)
        assert result.stats == direct.stats
        assert result.stats != golden(graph, "bfs", 0,
                                      engine="cusha-gs").stats
        assert np.array_equal(result.values, direct.values)

    def test_shed_jobs_do_not_coalesce(self, graph):
        quotas = {"metered": TenantQuota(cost_budget=1.0)}
        with Service(workers=1, quotas=quotas,
                     default_quota=UNLIMITED) as svc:
            svc.pause()
            shed = svc.submit(
                JobRequest(graph, "sssp", source=0, tenant="metered")
            )
            normal = svc.submit(JobRequest(graph, "sssp", source=1))
            svc.resume()
            shed.result(timeout=60)
            normal.result(timeout=60)
        assert shed.batched_with == 1

    def test_max_inflight_caps_batch_width(self, graph, sources):
        quotas = {"narrow": TenantQuota(max_pending=None, max_inflight=2)}
        with Service(workers=1, quotas=quotas, max_batch=32) as svc:
            svc.pause()
            handles = [
                svc.submit(
                    JobRequest(graph, "bfs", source=s, tenant="narrow")
                )
                for s in sources
            ]
            svc.resume()
            for h in handles:
                h.result(timeout=60)
        assert all(h.batched_with <= 2 for h in handles)


class TestBatching:
    @pytest.mark.parametrize("program", ["bfs", "sssp", "sswp"])
    @pytest.mark.parametrize("engine", ["cusha-cw", "cusha-gs"])
    def test_batched_bit_exact(self, graph, sources, program, engine):
        with Service(workers=1, default_quota=UNLIMITED,
                     max_batch=len(sources)) as svc:
            svc.pause()
            handles = [
                svc.submit(JobRequest(graph, program, source=s,
                                      engine=engine))
                for s in sources
            ]
            svc.resume()
            results = [h.result(timeout=120) for h in handles]
        assert all(h.batched_with == len(sources) for h in handles)
        for s, result in zip(sources, results):
            ref = golden(graph, program, s, engine=engine)
            assert np.array_equal(result.values, ref.values), (program, s)
            # the batch sweeps until its slowest column converges
            assert result.iterations >= ref.iterations

    def test_batched_bit_exact_reference_path(self, graph, sources):
        config = RunConfig(exec_path="reference")
        with Service(workers=1, default_quota=UNLIMITED,
                     max_batch=len(sources)) as svc:
            results = svc.run_batch(
                [JobRequest(graph, "sssp", source=s, config=config)
                 for s in sources]
            )
        for s, result in zip(sources, results):
            ref = golden(graph, "sssp", s, config=config)
            assert np.array_equal(result.values, ref.values)

    def test_batched_bit_exact_scalar_engine(self, graph):
        # The scalar engine drives the per-vertex device functions
        # (init_compute/compute/update_condition) instead of the
        # vectorized kernels — both program paths must agree.
        srcs = [0, 5, 9]
        with Service(workers=1, default_quota=UNLIMITED) as svc:
            results = svc.run_batch(
                [JobRequest(graph, "sssp", source=s, engine="scalar")
                 for s in srcs]
            )
        for s, result in zip(srcs, results):
            ref = golden(graph, "sssp", s, engine="scalar")
            assert np.array_equal(result.values, ref.values)

    def test_run_batch_preserves_request_order(self, graph, sources):
        with Service(workers=2, default_quota=UNLIMITED) as svc:
            results = svc.run_batch(
                [JobRequest(graph, "bfs", source=s) for s in sources]
            )
        for s, result in zip(sources, results):
            assert np.array_equal(
                result.values, golden(graph, "bfs", s).values
            )

    def test_duplicate_sources_share_a_column(self, graph):
        srcs = [4, 4, 7]
        with Service(workers=1, default_quota=UNLIMITED) as svc:
            results = svc.run_batch(
                [JobRequest(graph, "bfs", source=s) for s in srcs]
            )
        assert np.array_equal(results[0].values, results[1].values)
        for s, result in zip(srcs, results):
            assert np.array_equal(
                result.values, golden(graph, "bfs", s).values
            )

    def test_non_traversal_program_runs_alone(self, graph, sources):
        assert not batchable("pr")
        with Service(workers=1, default_quota=UNLIMITED) as svc:
            svc.pause()
            handles = [svc.submit(JobRequest(graph, "pr"))
                       for _ in range(3)]
            svc.resume()
            for h in handles:
                h.result(timeout=120)
        assert all(h.batched_with == 1 for h in handles)

    def test_max_batch_caps_group_size(self, graph, sources):
        with Service(workers=1, default_quota=UNLIMITED, max_batch=2) as svc:
            svc.pause()
            handles = [svc.submit(JobRequest(graph, "bfs", source=s))
                       for s in sources]
            svc.resume()
            for h in handles:
                h.result(timeout=60)
        assert all(h.batched_with <= 2 for h in handles)

    def test_capped_runs_match_per_iteration(self, graph, sources):
        # Columns must agree with the solo runs at every iteration, not
        # just at the fixpoint: cap the sweep early and compare.
        config = RunConfig(max_iterations=2, allow_partial=True)
        with Service(workers=1, default_quota=UNLIMITED) as svc:
            results = svc.run_batch(
                [JobRequest(graph, "sssp", source=s, config=config)
                 for s in sources]
            )
        for s, result in zip(sources, results):
            ref = golden(graph, "sssp", s, config=config)
            assert np.array_equal(result.values, ref.values)

    def test_shared_cache_across_jobs(self, graph, sources):
        cache = RepresentationCache()
        with Service(workers=1, cache=cache, default_quota=UNLIMITED) as svc:
            svc.run_batch([JobRequest(graph, "bfs", source=s)
                           for s in sources])
            svc.run_batch([JobRequest(graph, "sssp", source=s)
                           for s in sources])
        assert cache.hits > 0


class TestBatchKeys:
    def test_weights_change_key(self, graph):
        other = generators.random_weights(graph, seed=99)
        config = RunConfig()
        key_a = batch_key(graph, "sssp", "cusha-cw", {}, config)
        key_b = batch_key(other, "sssp", "cusha-cw", {}, config)
        assert key_a != key_b
        assert weights_digest(graph) != weights_digest(other)

    def test_different_weights_never_coalesce(self, graph):
        other = generators.random_weights(graph, seed=99)
        with Service(workers=1, default_quota=UNLIMITED) as svc:
            svc.pause()
            a = svc.submit(JobRequest(graph, "sssp", source=0))
            b = svc.submit(JobRequest(other, "sssp", source=1))
            svc.resume()
            ra = a.result(timeout=60)
            rb = b.result(timeout=60)
        assert a.batched_with == 1 and b.batched_with == 1
        assert np.array_equal(ra.values, golden(graph, "sssp", 0).values)
        assert np.array_equal(rb.values, golden(other, "sssp", 1).values)

    def test_config_mismatch_blocks_coalescing(self, graph):
        base = batch_key(graph, "sssp", "cusha-cw", {}, RunConfig())
        capped = batch_key(
            graph, "sssp", "cusha-cw", {}, RunConfig(max_iterations=3)
        )
        assert base != capped

    def test_engine_opts_change_key(self, graph):
        a = batch_key(graph, "sssp", "cusha-gs", {}, RunConfig())
        b = batch_key(
            graph, "sssp", "cusha-gs", {"shard_size": 64}, RunConfig()
        )
        assert a != b


class TestTelemetry:
    def test_service_spans_and_metrics(self, graph, sources):
        tracer = Tracer()
        with Service(workers=1, tracer=tracer,
                     default_quota=UNLIMITED) as svc:
            svc.run_batch([JobRequest(graph, "bfs", source=s)
                           for s in sources])
        kinds = {s.kind for s in tracer.spans}
        assert "service" in kinds
        counters = tracer.metrics.as_dict()
        assert counters["service.submitted"]["value"] == len(sources)
        assert counters["service.coalesced"]["value"] == len(sources)


class TestMultiSourceProgram:
    def test_initial_values_seed_columns(self, graph):
        spec = TRAVERSAL_SPECS["bfs"]
        program = MultiSourceTraversal(spec, (0, 3, 8))
        values = program.initial_values(graph)
        columns = values["level"]
        assert columns.shape == (graph.num_vertices, 3)
        assert columns[0, 0] == 0 and columns[3, 1] == 0
        assert columns[8, 2] == 0
        untouched = np.ones(columns.shape, dtype=bool)
        untouched[[0, 3, 8], [0, 1, 2]] = False
        assert (columns[untouched] == spec.empty).all()

    def test_requires_sources(self):
        with pytest.raises(ValueError):
            MultiSourceTraversal(TRAVERSAL_SPECS["bfs"], ())

    def test_apply_reductions_subarray_fast_path(self):
        # The (n, K) contiguous fast path must fold exactly like the
        # generic 2-D ufunc.at path it replaces.
        from repro.vertexcentric.program import apply_reductions

        rng = np.random.default_rng(0)
        n, e, k = 16, 64, 4
        spec = TRAVERSAL_SPECS["bfs"]
        program = MultiSourceTraversal(spec, tuple(range(k)))
        dest_idx = rng.integers(0, n, size=e)
        msgs = {
            "level": rng.integers(0, 50, size=(e, k)).astype(np.uint32)
        }
        local = np.zeros(n, dtype=program.vertex_dtype)
        local["level"][:] = UINT_INF = np.uint32(0xFFFFFFFF)
        expected = np.full((n, k), UINT_INF, dtype=np.uint32)
        for i in range(e):
            np.minimum(
                expected[dest_idx[i]], msgs["level"][i],
                out=expected[dest_idx[i]],
            )
        ops, changed = apply_reductions(program, local, dest_idx, msgs, None)
        assert ops == e * k
        assert changed is None
        assert np.array_equal(local["level"], expected)


class TestDeadlines:
    """Server-side JobRequest(deadline_ms=...): expired pending jobs are
    cancelled at dispatch, never started."""

    def test_negative_deadline_rejected(self, graph):
        with pytest.raises(ValueError, match="deadline_ms"):
            JobRequest(graph, "bfs", source=0, deadline_ms=-1.0)

    def test_expired_pending_job_is_cancelled(self, graph):
        from repro.errors import DeadlineExceededError

        tracer = Tracer()
        with Service(workers=1, tracer=tracer) as svc:
            svc.pause()
            handle = svc.submit(
                JobRequest(graph, "bfs", source=0, deadline_ms=20.0))
            time.sleep(0.06)                 # let the deadline lapse
            svc.resume()
            with pytest.raises(DeadlineExceededError) as info:
                handle.result(timeout=60)
            assert handle.poll() == JobStatus.CANCELLED
        assert info.value.job_id == handle.job_id
        assert info.value.deadline_ms == 20.0
        assert any(s.name == "service-deadline" for s in tracer.spans)

    def test_deadline_distinct_from_client_timeout(self, graph):
        # A client-side result(timeout=) expiry leaves the job running;
        # the job still completes and a later result() returns it.
        with Service(workers=1) as svc:
            svc.pause()
            handle = svc.submit(JobRequest(graph, "bfs", source=0))
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.01)
            svc.resume()
            result = handle.result(timeout=60)
        assert result.converged

    def test_generous_deadline_runs_normally(self, graph):
        with Service(workers=1) as svc:
            handle = svc.submit(
                JobRequest(graph, "sssp", source=0, deadline_ms=60_000.0))
            result = handle.result(timeout=60)
        assert np.array_equal(result.values,
                              golden(graph, "sssp", 0).values)

    def test_deadline_is_part_of_the_batch_key(self, graph, sources):
        # Same deadline coalesces; a different deadline never joins the
        # batch — a batch must not outlive its tightest member.
        with Service(workers=1) as svc:
            svc.pause()
            same = [svc.submit(JobRequest(graph, "bfs", source=s,
                                          deadline_ms=60_000.0))
                    for s in sources[:3]]
            other = svc.submit(JobRequest(graph, "bfs", source=sources[3],
                                          deadline_ms=30_000.0))
            svc.resume()
            for h in same:
                h.result(timeout=60)
            other.result(timeout=60)
        assert [h.batched_with for h in same] == [3, 3, 3]
        assert other.batched_with == 1


class TestDrainTimeout:
    def test_leaked_worker_raises_drain_timeout(self):
        from repro.errors import DrainTimeoutError
        from repro.service.scheduler import Scheduler

        tracer = Tracer()
        sched = Scheduler(QuotaLedger(), workers=1, tracer=tracer,
                          join_timeout=0.05)
        # A worker that never exits: stand in a thread blocked on an
        # event the drain cannot see.
        release = threading.Event()
        stuck = threading.Thread(target=release.wait,
                                 name="repro-service-stuck", daemon=True)
        stuck.start()
        sched._threads.append(stuck)
        try:
            with pytest.raises(DrainTimeoutError) as info:
                sched.close()
        finally:
            release.set()
        assert info.value.leaked == ("repro-service-stuck",)
        assert any(s.name == "service-drain-timeout" and
                   "repro-service-stuck" in s.attrs["leaked"]
                   for s in tracer.spans)
        counter = tracer.metrics.counter("service.drain.leaked")
        assert counter.value == 1

    def test_clean_close_raises_nothing(self):
        from repro.service.scheduler import Scheduler

        sched = Scheduler(QuotaLedger(), workers=2, join_timeout=5.0)
        sched.close()        # no error, idempotent
        sched.close()


class TestMultiDeviceService:
    def test_jobs_spread_round_robin_over_home_devices(self, graph):
        tracer = Tracer()
        with Service(workers=1, devices=2, tracer=tracer) as svc:
            svc.run_batch([JobRequest(graph, "pr"),
                           JobRequest(graph, "cc")])
        runs = [s for s in tracer.spans if s.name == "service-run"]
        assert {s.attrs["device"] for s in runs} == {0, 1}

    def test_multi_device_jobs_never_coalesce(self, graph):
        config = RunConfig(devices=2)
        with Service(workers=1, devices=2) as svc:
            svc.pause()
            handles = [svc.submit(JobRequest(graph, "sssp", source=s,
                                             config=config))
                       for s in (0, 1)]
            svc.resume()
            results = [h.result(timeout=60) for h in handles]
        assert [h.batched_with for h in handles] == [1, 1]
        for s, r in zip((0, 1), results):
            ref = golden(graph, "sssp", s)
            assert np.array_equal(r.values, ref.values)
            assert r.devices == 2 and r.exchange_bytes > 0

    def test_device_loss_fails_over_bit_exactly(self, graph):
        from repro.resilience import FaultPlan, FaultSpec

        plan = FaultPlan(
            [FaultSpec(kind="device-loss", engine="cusha-cw",
                       iteration=2, device=1)],
            seed=0)
        tracer = Tracer()
        config = RunConfig(devices=2, faults=plan)
        with Service(workers=1, devices=2, tracer=tracer) as svc:
            handle = svc.submit(
                JobRequest(graph, "sssp", source=0, config=config))
            result = handle.result(timeout=120)
        assert handle.poll() == JobStatus.DONE
        ref = golden(graph, "sssp", 0)
        assert np.array_equal(result.values, ref.values)
        failovers = [s for s in tracer.spans
                     if s.name == "service-failover"]
        assert len(failovers) == 1
        assert failovers[0].attrs["device"] in (0, 1)
