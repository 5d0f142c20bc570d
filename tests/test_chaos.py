"""Chaos-campaign harness tests (`repro.resilience.chaos`)."""

import json

import pytest

from repro.resilience import (CAMPAIGNS, CHAOS_ENGINES, FAULT_CLASSES,
                              build_plan, run_campaign)


@pytest.fixture(scope="module")
def smoke_report():
    return run_campaign("smoke", seed=0)


class TestBuildPlan:
    def test_transient_plans_fire_once(self):
        plan = build_plan("transfer", "cusha-cw", seed=0)
        (spec,) = plan.specs
        assert spec.kind == "transfer"
        assert spec.engine == "cusha-cw"
        assert spec.count == 1

    def test_oom_plan_is_persistent(self):
        plan = build_plan("sharedmem-oom", "cusha-gs", seed=0)
        (spec,) = plan.specs
        assert spec.count is None  # keeps firing until the engine changes

    def test_seed_is_threaded_through(self):
        a = build_plan("kernel-abort", "cusha-cw", seed=1)
        b = build_plan("kernel-abort", "cusha-cw", seed=2)
        assert (a.specs[0].iteration, a.specs[0].site) != (
            b.specs[0].iteration, b.specs[0].site)


class TestRunCampaign:
    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            run_campaign("hurricane")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos engine"):
            run_campaign("smoke", engines=("warp9",))

    def test_smoke_covers_full_matrix_and_passes(self, smoke_report):
        report = smoke_report
        assert report.passed
        assert report.failures() == []
        expected = (len(CHAOS_ENGINES) * len(FAULT_CLASSES)
                    * len(CAMPAIGNS["smoke"]))
        assert len(report.runs) == expected
        cells = {(r.engine, r.fault) for r in report.runs}
        assert len(cells) == expected

    def test_every_run_recovers_bit_identical(self, smoke_report):
        for run in smoke_report.runs:
            assert run.fired > 0, (run.engine, run.fault)
            assert run.plan_consumed, (run.engine, run.fault)
            assert run.golden_match, (run.engine, run.fault)
            assert run.converged and run.completed, (run.engine, run.fault)

    def test_oom_runs_degrade_others_do_not(self, smoke_report):
        for run in smoke_report.runs:
            if run.fault == "sharedmem-oom":
                assert run.degraded and run.engine_final != run.engine
            else:
                assert not run.degraded
                assert run.engine_final == run.engine

    def test_detection_codes_present_per_fault(self, smoke_report):
        detection = {"transfer": "R301", "kernel-abort": "R302",
                     "bitflip-values": "R303",
                     "bitflip-representation": "R304",
                     "sharedmem-oom": "R306",
                     "device-loss": "R307"}
        for run in smoke_report.runs:
            assert detection[run.fault] in run.codes, (run.engine, run.fault)

    def test_campaign_is_deterministic(self, smoke_report):
        again = run_campaign("smoke", seed=0,
                             engines=("cusha-cw",))
        subset = [r for r in smoke_report.runs if r.engine == "cusha-cw"]
        assert [r for r in again.runs] == subset

    def test_report_round_trips_to_json(self, smoke_report):
        doc = json.loads(json.dumps(smoke_report.to_dict()))
        assert doc["campaign"] == "smoke"
        assert doc["passed"] is True
        assert len(doc["runs"]) == len(smoke_report.runs)
        sample = doc["runs"][0]
        for field in ("engine", "fault", "seed", "fired", "golden_match",
                      "codes", "engine_final"):
            assert field in sample

    def test_runs_that_stay_on_their_engine_match_golden_accounting(
        self, smoke_report
    ):
        staying = [r for r in smoke_report.runs if not r.degraded]
        assert len(staying) == 20
        for run in staying:
            assert run.accounting_match, (run.engine, run.fault)
        doc = smoke_report.to_dict()
        assert all("accounting_match" in r for r in doc["runs"])

    def test_multi_campaign_matches_golden_accounting(self):
        report = run_campaign("multi", seed=0, engines=("cusha-cw",))
        assert report.runs and report.passed
        assert all(r.accounting_match for r in report.runs)
