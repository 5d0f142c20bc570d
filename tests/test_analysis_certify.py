"""Kernel property certifier tests (``repro.analysis.certify``).

Covers the certificate matrix (every bundled program and the service
layer's multi-source traversals prove all six contracts statically), the
broken-kernel fixtures (each refutes exactly its own code), fingerprint
caching, the runtime gate (enforce refuses, warn degrades bit-exactly,
off stays byte-identical) across the frontier, async, and service
batching fast paths, and the ``repro check --certify`` CLI surface.
See the kernel-certification section of ``docs/analysis.md``.
"""

import json

import numpy as np
import pytest

import repro
from repro.algorithms import PROGRAM_NAMES, make_program
from repro.analysis.certify import (
    ASYNC_REQUIRED,
    BATCH_REQUIRED,
    CHECK_CODES,
    FRONTIER_REQUIRED,
    PROVED,
    REFUTED,
    certify_program,
    certify_violations,
    program_fingerprint,
    runtime_gate,
)
from repro.analysis.fixtures import (
    CERTIFY_FIXTURES,
    LastWriterWinsProgram,
    LeakyGuardProgram,
    SlipperyQuiescenceProgram,
    StaleReadProgram,
    StatefulApplyProgram,
    WrongDirectionProgram,
)
from repro.cache import RepresentationCache
from repro.cli import main
from repro.errors import CertificationError, ConfigError
from repro.frameworks import Checkpoint, RunConfig, make_engine
from repro.graph import generators
from repro.service import (
    TRAVERSAL_SPECS,
    JobRequest,
    MultiSourceTraversal,
    Service,
    TenantQuota,
)
from repro.telemetry import Tracer

UNLIMITED = TenantQuota(max_pending=None, max_inflight=None)

BROKEN = [
    (LeakyGuardProgram, "C401"),
    (LastWriterWinsProgram, "C402"),
    (WrongDirectionProgram, "C403"),
    (StatefulApplyProgram, "C404"),
    (SlipperyQuiescenceProgram, "C405"),
    (StaleReadProgram, "C406"),
]


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(
        generators.rmat(200, 1_000, seed=21), seed=22
    )


class TestCertificateMatrix:
    @pytest.mark.parametrize("name", PROGRAM_NAMES)
    def test_bundled_programs_prove_everything_statically(self, name, graph):
        cert = certify_program(make_program(name, graph), cache=False)
        assert tuple(c.code for c in cert.checks) == CHECK_CODES
        for check in cert.checks:
            assert check.status == PROVED, (name, check.code, check.detail)
            assert check.method == "static", (name, check.code)
        assert cert.failed == ()

    @pytest.mark.parametrize("spec_name", sorted(TRAVERSAL_SPECS))
    def test_multi_source_traversals_prove_everything(self, spec_name):
        program = MultiSourceTraversal(TRAVERSAL_SPECS[spec_name], (0, 3, 7))
        cert = certify_program(program, cache=False)
        for check in cert.checks:
            assert check.status == PROVED, (spec_name, check.code,
                                            check.detail)
            assert check.method == "static"

    def test_required_sets_are_check_codes(self):
        for required in (FRONTIER_REQUIRED, ASYNC_REQUIRED, BATCH_REQUIRED):
            assert set(required) <= set(CHECK_CODES)


class TestBrokenPrograms:
    @pytest.mark.parametrize("cls,code", BROKEN)
    def test_refutes_exactly_its_own_contract(self, cls, code):
        cert = certify_program(cls(), cache=False)
        # Exactly the one targeted certificate fails; the other five
        # still prove, so each fixture isolates one rule.
        assert cert.failed == ((code, REFUTED),), cert.failed
        assert not cert.proved(code)

    @pytest.mark.parametrize("cls,code", BROKEN)
    def test_certify_violations_surface_as_warnings(self, cls, code):
        violations = certify_violations(cls(), cache=False)
        assert [v.code for v in violations] == [code]
        assert all(v.severity == "warning" for v in violations)

    def test_clean_program_has_no_violations(self, graph):
        assert certify_violations(make_program("bfs", graph),
                                  cache=False) == []

    @pytest.mark.parametrize("name", sorted(CERTIFY_FIXTURES))
    def test_registered_fixture_fires_its_code(self, name):
        fx = CERTIFY_FIXTURES[name]
        fired = {v.code for v in fx.run()}
        assert fx.expect in fired, name
        assert fired <= fx.allowed, (name, fired)


class TestFingerprintAndCache:
    def test_fingerprint_is_deterministic(self, graph):
        a = program_fingerprint(make_program("sssp", graph, source=3))
        b = program_fingerprint(make_program("sssp", graph, source=3))
        assert a == b

    def test_fingerprint_tracks_instance_configuration(self, graph):
        a = program_fingerprint(make_program("sssp", graph, source=3))
        b = program_fingerprint(make_program("sssp", graph, source=4))
        assert a != b

    def test_fingerprint_distinguishes_programs(self, graph):
        fps = {program_fingerprint(make_program(n, graph))
               for n in PROGRAM_NAMES}
        assert len(fps) == len(PROGRAM_NAMES)

    def test_certificates_cache_by_fingerprint(self, graph):
        cache = RepresentationCache()
        first = certify_program(make_program("cc", graph), cache=cache)
        again = certify_program(make_program("cc", graph), cache=cache)
        assert again is first  # cache hit returns the stored certificate
        key = ("certificate", first.fingerprint)
        assert cache.peek(key) is first

    def test_cache_false_disables_caching(self, graph):
        first = certify_program(make_program("cc", graph), cache=False)
        again = certify_program(make_program("cc", graph), cache=False)
        assert again is not first
        assert again.to_dict() == first.to_dict()


class TestRuntimeGateFrontier:
    def test_certified_program_passes_enforce(self, graph):
        program = make_program("bfs", graph)
        plain = make_engine("cusha-cw", cache=False).run(
            graph, make_program("bfs", graph),
            config=RunConfig(frontier="sparse"))
        gated = make_engine("cusha-cw", cache=False).run(
            graph, program,
            config=RunConfig(frontier="sparse", certify="enforce",
                             validate="structure"))
        assert plain.values.tobytes() == gated.values.tobytes()
        assert plain.iterations == gated.iterations

    def test_enforce_refuses_unsafe_frontier_run(self, graph):
        eng = make_engine("cusha-cw", cache=False)
        cfg = RunConfig(frontier="sparse", certify="enforce",
                        validate="structure")
        with pytest.raises(CertificationError) as exc:
            eng.run(graph, SlipperyQuiescenceProgram(), config=cfg)
        assert ("C405", REFUTED) in exc.value.failed

    def test_warn_degrades_to_full_sweep_bit_exactly(self, graph):
        # The fixture program never converges (that is its point), so cap
        # both runs at the same iteration budget and compare values.
        program = SlipperyQuiescenceProgram()
        full = make_engine("cusha-cw", cache=False).run(
            graph, SlipperyQuiescenceProgram(),
            config=RunConfig(frontier="off", max_iterations=8,
                             allow_partial=True))
        tracer = Tracer()
        degraded = make_engine("cusha-cw", cache=False).run(
            graph, program,
            config=RunConfig(frontier="sparse", certify="warn",
                             max_iterations=8,
                             allow_partial=True).with_tracer(tracer))
        assert full.values.tobytes() == degraded.values.tobytes()
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.certify.gate.degraded"]["value"] == 1
        assert metrics["analysis.violations.certify-degraded"]["value"] == 1
        assert tracer.find(kind="analysis", name="analysis.certify.degrade")

    def test_warn_degrade_keeps_the_resume_checkpoint(self, graph):
        # Degrading frontier -> "off" keeps the checkpoint whole: a full
        # sweep leaves its frontier mask unused.
        program = SlipperyQuiescenceProgram()
        engine = make_engine("cusha-cw", cache=False)
        resumed = engine.run(
            graph, SlipperyQuiescenceProgram(),
            config=RunConfig(frontier="sparse", max_iterations=4,
                             allow_partial=True))
        resume = Checkpoint.of(resumed.iterations, resumed.values,
                               np.zeros(graph.num_vertices, dtype=bool))
        cfg = RunConfig(frontier="sparse", certify="warn", resume=resume,
                        max_iterations=8, allow_partial=True)
        out = runtime_gate(engine, program, cfg)
        assert out.frontier == "off"
        assert out.resume is resume
        full = engine.run(graph, program, config=RunConfig(
            resume=resume, max_iterations=8, allow_partial=True))
        assert engine.run(graph, program, config=cfg).values.tobytes() \
            == full.values.tobytes()

    def test_gate_pass_counter_on_certified_run(self, graph):
        tracer = Tracer()
        make_engine("cusha-cw", cache=False).run(
            graph, make_program("bfs", graph),
            config=RunConfig(frontier="sparse", certify="enforce",
                             validate="structure").with_tracer(tracer))
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.certify.gate.pass"]["value"] == 1
        assert metrics["analysis.certify.certified"]["value"] == 1
        assert tracer.find(kind="analysis", name="analysis.certify.gate")

    def test_certify_off_is_byte_identical(self, graph):
        plain = make_engine("cusha-cw", cache=False).run(
            graph, make_program("sssp", graph), config=RunConfig())
        off = make_engine("cusha-cw", cache=False).run(
            graph, make_program("sssp", graph),
            config=RunConfig(certify="off"))
        assert plain.values.tobytes() == off.values.tobytes()
        assert plain.iterations == off.iterations

    def test_enforce_requires_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(certify="enforce")

    def test_facade_forwards_certify(self, graph):
        with pytest.raises(ValueError):
            repro.run(graph, "bfs", certify="bogus")


class TestRuntimeGateAsync:
    def test_enforce_refuses_unsafe_async_run(self, graph):
        eng = make_engine("cusha-cw", sync_mode="async", cache=False)
        cfg = RunConfig(certify="enforce", validate="structure")
        with pytest.raises(CertificationError) as exc:
            eng.run(graph, StaleReadProgram(), config=cfg)
        assert ("C406", REFUTED) in exc.value.failed

    def test_certified_async_run_passes(self, graph):
        plain = make_engine("cusha-cw", sync_mode="async", cache=False).run(
            graph, make_program("bfs", graph), config=RunConfig())
        gated = make_engine("cusha-cw", sync_mode="async", cache=False).run(
            graph, make_program("bfs", graph),
            config=RunConfig(certify="enforce", validate="structure"))
        assert plain.values.tobytes() == gated.values.tobytes()

    def test_async_warn_proceeds_with_warning_event(self, graph):
        # Async has no safe fallback config, so "warn" runs as-is and
        # flags the risk instead of silently changing engines.
        tracer = Tracer()
        eng = make_engine("cusha-cw", sync_mode="async", cache=False)
        cfg = RunConfig(certify="warn").with_tracer(tracer)
        out = eng.run(graph, StaleReadProgram(), config=cfg)
        assert out.values is not None
        metrics = tracer.metrics.as_dict()
        assert metrics["analysis.certify.gate.degraded"]["value"] == 1
        assert tracer.find(kind="analysis", name="analysis.certify.warn")


class TestServiceBatchingGate:
    def test_multi_source_program_is_certified_for_batch(self, graph):
        with Service(workers=1) as svc:
            program = MultiSourceTraversal(TRAVERSAL_SPECS["sssp"], (0, 1))
            ok = svc._scheduler._certified_for_batch(
                make_engine("cusha-cw", cache=False), program,
                RunConfig(certify="enforce", validate="structure"))
        assert ok is True

    def test_enforce_refuses_uncertified_batch(self):
        with Service(workers=1) as svc:
            with pytest.raises(CertificationError) as exc:
                svc._scheduler._certified_for_batch(
                    make_engine("cusha-cw", cache=False),
                    LastWriterWinsProgram(),
                    RunConfig(certify="enforce", validate="structure"))
        assert any(code == "C402" for code, _ in exc.value.failed)

    def test_warn_reports_degradation(self):
        tracer = Tracer()
        with Service(workers=1, tracer=tracer) as svc:
            ok = svc._scheduler._certified_for_batch(
                make_engine("cusha-cw", cache=False),
                LastWriterWinsProgram(), RunConfig(certify="warn"))
        assert ok is False
        assert tracer.find(kind="service", name="service-certify-degraded")

    def _bad_certificate(self):
        return certify_program(LastWriterWinsProgram(), cache=False)

    def test_warn_batch_falls_back_to_single_runs(self, graph, monkeypatch):
        # Force the batch certificate to fail so the scheduler exercises
        # the per-job fallback; results must stay bit-exact vs. solo runs.
        bad = self._bad_certificate()
        monkeypatch.setattr("repro.analysis.certify.certify_program",
                            lambda program, *, cache=None: bad)
        sources = [0, 2, 5]
        tracer = Tracer()
        cfg = RunConfig(certify="warn")
        with Service(workers=1, default_quota=UNLIMITED, tracer=tracer,
                     max_batch=len(sources)) as svc:
            svc.pause()
            handles = [
                svc.submit(JobRequest(graph, "sssp", source=s, config=cfg))
                for s in sources
            ]
            svc.resume()
            results = [h.result(timeout=120) for h in handles]
        assert all(h.batched_with == 1 for h in handles)
        assert tracer.find(kind="service", name="service-certify-degraded")
        for s, result in zip(sources, results):
            ref = make_engine("cusha-cw", cache=False).run(
                graph, make_program("sssp", graph, source=s))
            assert np.array_equal(result.values, ref.values), s

    def test_enforce_batch_fails_the_jobs(self, graph, monkeypatch):
        bad = self._bad_certificate()
        monkeypatch.setattr("repro.analysis.certify.certify_program",
                            lambda program, *, cache=None: bad)
        cfg = RunConfig(certify="enforce", validate="structure")
        with Service(workers=1, default_quota=UNLIMITED, max_batch=2) as svc:
            svc.pause()
            handles = [
                svc.submit(JobRequest(graph, "bfs", source=s, config=cfg))
                for s in (0, 1)
            ]
            svc.resume()
            for handle in handles:
                with pytest.raises(CertificationError):
                    handle.result(timeout=120)


class TestCheckCLI:
    def test_certify_matrix_passes(self, capsys):
        rc = main(["check", "--graph", "rmat", "--scale", "7",
                   "--certify", "--program", "bfs", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        certs = payload["certify"]
        assert len(certs) == 1
        assert certs[0]["program"] == "bfs"
        statuses = {c["code"]: c["status"] for c in certs[0]["checks"]}
        assert statuses == {code: PROVED for code in CHECK_CODES}

    def test_certify_text_report(self, capsys):
        rc = main(["check", "--graph", "rmat", "--scale", "7",
                   "--certify", "--program", "sssp"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "C401=PROVED" in out and "C406=PROVED" in out
