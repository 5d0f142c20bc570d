"""Multi-device placement (`repro.placement`): partitioner units,
bit-exactness of the accounting overlay, device-loss repartition-resume,
and the multi-device chaos campaign."""

import numpy as np
import pytest

from repro.errors import ConfigError, DeviceLostFault
from repro.frameworks import (CuShaEngine, RunConfig, StreamedCuShaEngine,
                              VWCEngine, make_engine)
from repro.algorithms import make_program
from repro.graph import generators
from repro.placement import (DeviceTopology, Placement, multi_device_run,
                             remote_unit_counts, resolve_placement)
from repro.resilience import (FaultPlan, FaultSpec, ResilientRunner,
                              run_multi_device_campaign)
from repro.telemetry.tracer import Tracer


@pytest.fixture(scope="module")
def graph():
    return generators.random_weights(
        generators.rmat(256, 2048, seed=3), seed=4)


class TestPlacement:
    def test_block_is_contiguous_and_covers(self):
        p = Placement.block(10, 4)
        assert p.num_units == 10 and p.num_devices == 4
        assert list(p.assignment) == sorted(p.assignment)
        assert set(p.assignment) == {0, 1, 2, 3}

    def test_stride_round_robins(self):
        p = Placement.stride(10, 4)
        assert p.assignment == tuple(i % 4 for i in range(10))

    def test_units_on_partitions_the_units(self):
        p = Placement.block(10, 3)
        owned = np.concatenate([p.units_on(d) for d in range(3)])
        assert sorted(owned.tolist()) == list(range(10))

    def test_without_device_renumbers_and_redistributes(self):
        p = Placement.block(8, 4)           # 2 units per device
        q = p.without_device(1)
        assert q.num_devices == 3
        assert q.num_units == 8
        # Survivors 0, 2, 3 renumbered to 0, 1, 2 preserving order.
        dev = p.device_of()
        new = q.device_of()
        renumber = {0: 0, 2: 1, 3: 2}
        for u in range(8):
            if dev[u] != 1:
                assert new[u] == renumber[int(dev[u])]
        # The dead device's units were re-dealt round-robin.
        spilled = new[dev == 1]
        assert spilled.tolist() == [0, 1]

    def test_without_device_is_deterministic(self):
        p = Placement.stride(13, 3)
        assert p.without_device(2) == p.without_device(2)

    def test_without_last_device_rejected(self):
        with pytest.raises(ValueError, match="last device"):
            Placement.block(4, 1).without_device(0)

    def test_bad_assignment_rejected(self):
        with pytest.raises(ValueError, match="assignment"):
            Placement(num_devices=2, assignment=(0, 2))

    def test_topology_uniform(self):
        topo = DeviceTopology.uniform(3)
        assert topo.num_devices == 3
        with pytest.raises(ValueError):
            DeviceTopology.uniform(0)

    def test_remote_unit_counts_attributed_to_source(self):
        # Units 0,1 on device 0; unit 2 on device 1.
        p = Placement(num_devices=2, assignment=(0, 0, 1))
        src_unit = np.array([0, 0, 1, 2, 2])
        dst_unit = np.array([1, 2, 2, 0, 2])
        counts = remote_unit_counts(src_unit, dst_unit, p)
        # Edge 0->1 is device-local; 0->2, 1->2, 2->0 cross devices.
        assert counts.tolist() == [1, 1, 1]

    def test_resolve_placement_prefers_matching_explicit(self):
        explicit = Placement.stride(6, 2)
        cfg = RunConfig(devices=2, placement=explicit)
        assert resolve_placement(cfg, 6) is explicit
        # A placement built for another unit structure falls back to block.
        assert resolve_placement(cfg, 9) == Placement.block(9, 2)

    def test_multi_device_run_none_for_single_device(self):
        assert multi_device_run(
            RunConfig(), 4, weights=np.ones(4), src_unit=np.zeros(1),
            dst_unit=np.zeros(1), value_bytes=4, pcie=None) is None


class TestRunConfigValidation:
    def test_devices_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(devices=0)

    def test_placement_needs_multi_device(self):
        with pytest.raises(ConfigError):
            RunConfig(devices=1, placement=Placement.block(4, 2))

    def test_placement_device_count_must_agree(self):
        with pytest.raises(ConfigError):
            RunConfig(devices=3, placement=Placement.block(4, 2))


class TestBitExactOverlay:
    """devices=N never changes values — only accounting."""

    @pytest.mark.parametrize("engine", [
        CuShaEngine("cw", vertices_per_shard=16),
        CuShaEngine("gs", vertices_per_shard=16),
        StreamedCuShaEngine(vertices_per_shard=16),
        VWCEngine(8, chunk_vertices=64),
    ], ids=["cw", "gs", "streamed", "vwc"])
    @pytest.mark.parametrize("devices", [2, 4])
    def test_values_identical_and_exchange_priced(
            self, graph, engine, devices):
        program = make_program("sssp", graph)
        single = engine.run(graph, program)
        multi = engine.run(graph, program,
                           config=RunConfig(devices=devices))
        assert multi.values.tobytes() == single.values.tobytes()
        assert multi.iterations == single.iterations
        assert multi.converged == single.converged
        assert multi.devices == devices
        assert multi.exchange_bytes > 0
        assert multi.exchange_ms > 0
        # The exchange cost is charged into the modeled time.
        assert multi.kernel_time_ms > 0
        assert single.devices == 1
        assert single.exchange_bytes == 0

    def test_fast_and_reference_paths_agree_on_exchange(self, graph):
        program = make_program("sssp", graph)
        engine = CuShaEngine("cw", vertices_per_shard=16)
        cfg = dict(devices=2)
        fast = engine.run(graph, program,
                          config=RunConfig(exec_path="fast", **cfg))
        ref = engine.run(graph, program,
                         config=RunConfig(exec_path="reference", **cfg))
        assert fast.values.tobytes() == ref.values.tobytes()
        assert fast.exchange_bytes == ref.exchange_bytes

    def test_frontier_sparse_still_bit_exact(self, graph):
        program = make_program("bfs", graph)
        engine = CuShaEngine("cw", vertices_per_shard=16)
        dense = engine.run(graph, program)
        sparse = engine.run(
            graph, program,
            config=RunConfig(devices=2, frontier="sparse"))
        assert sparse.values.tobytes() == dense.values.tobytes()

    def test_explicit_stride_placement_is_bit_exact(self, graph):
        program = make_program("cc", graph)
        engine = CuShaEngine("gs", vertices_per_shard=16)
        single = engine.run(graph, program)
        num_units = 256 // 16
        multi = engine.run(
            graph, program,
            config=RunConfig(devices=2,
                             placement=Placement.stride(num_units, 2)))
        assert multi.values.tobytes() == single.values.tobytes()

    def test_single_unit_graph_exchanges_nothing(self, graph):
        # VWC's default chunk covers the whole 256-vertex graph: one
        # unit, so there is structurally no remote edge to ship.
        program = make_program("sssp", graph)
        multi = VWCEngine(8).run(graph, program,
                                 config=RunConfig(devices=2))
        assert multi.exchange_bytes == 0

    def test_placement_telemetry_published(self, graph):
        program = make_program("sssp", graph)
        tracer = Tracer()
        CuShaEngine("cw", vertices_per_shard=16).run(
            graph, program,
            config=RunConfig(devices=2, tracer=tracer))
        m = tracer.metrics
        assert m.gauge("placement.devices").value == 2
        assert m.counter("placement.exchange_bytes").value > 0
        assert m.counter("placement.exchange_ms").value > 0
        spans = [s for s in tracer.spans if s.kind == "device"]
        assert {s.attrs["device"] for s in spans} == {0, 1}
        assert any(s.name == "exchange" and s.kind == "transfer"
                   for s in tracer.spans)


class TestDeviceLossRecovery:
    def _golden(self, graph, program):
        return make_engine("cusha-cw").run(graph, program)

    @pytest.mark.parametrize("devices", [2, 4])
    def test_repartition_resume_is_bit_identical(self, graph, devices):
        program = make_program("sssp", graph)
        golden = self._golden(graph, program)
        boundary = max(2, golden.iterations // 2)
        plan = FaultPlan(
            [FaultSpec(kind="device-loss", engine="cusha-cw",
                       iteration=boundary, device=1)],
            seed=0)
        runner = ResilientRunner("cusha-cw", checkpoint_every=2)
        outcome = runner.run(
            graph, program,
            config=RunConfig(devices=devices, faults=plan))
        assert outcome.recovered
        assert outcome.repartitions == 1
        assert outcome.result.values.tobytes() == golden.values.tobytes()
        assert outcome.result.iterations == golden.iterations
        codes = [v.code for v in outcome.violations]
        assert "R307" in codes and "F408" in codes
        # Two devices collapse to one; four keep exchanging.
        if devices == 2:
            assert "F409" in codes
            # Stitched devices reports the largest topology any segment
            # ran on; the collapse itself is carried by F409.
            assert 1 <= outcome.result.devices <= 2
        else:
            assert "F409" not in codes
            assert 1 <= outcome.result.devices <= devices
            assert outcome.result.exchange_bytes > 0
        kinds = [e.action for e in outcome.events]
        assert "repartition" in kinds

    def test_loss_without_supervisor_raises(self, graph):
        program = make_program("sssp", graph)
        plan = FaultPlan(
            [FaultSpec(kind="device-loss", engine="cusha-cw",
                       iteration=1, device=0)],
            seed=0)
        with pytest.raises(DeviceLostFault) as err:
            make_engine("cusha-cw").run(
                graph, program,
                config=RunConfig(devices=2, faults=plan))
        assert err.value.device in (0, 1)
        assert err.value.placement.num_devices == 2

    def test_mixed_fault_plan_recovers(self, graph):
        program = make_program("sssp", graph)
        golden = self._golden(graph, program)
        plan = FaultPlan(
            [FaultSpec(kind="device-loss", engine="cusha-cw",
                       iteration=2, device=0),
             FaultSpec(kind="kernel-abort", engine="cusha-cw")],
            seed=5)
        outcome = ResilientRunner("cusha-cw", checkpoint_every=2).run(
            graph, program,
            config=RunConfig(devices=2, faults=plan))
        assert outcome.recovered
        assert outcome.result.values.tobytes() == golden.values.tobytes()


class TestMultiDeviceCampaign:
    def test_single_engine_campaign_passes(self):
        report = run_multi_device_campaign(
            seed=0, engines=("cusha-cw",), checkpoint_every=4)
        assert report.passed
        assert report.failures() == []
        assert len(report.runs) > 1          # one cell per boundary
        for run in report.runs:
            assert run.fault.startswith("device-loss@")
            assert run.golden_match, run.fault

    def test_rejects_single_device(self):
        with pytest.raises(ValueError, match="devices >= 2"):
            run_multi_device_campaign(devices=1)
