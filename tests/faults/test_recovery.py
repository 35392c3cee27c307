"""End-to-end crash/reboot recovery: flash-persisted resume, churn survival."""

import pytest

from repro.core.packets import DataPacket
from repro.experiments.scenarios import FaultyGridScenario, run_faulty_grid
from repro.faults import FaultPlan, NodeFlash
from repro.obs.events import EventLog
from repro.sim.trace import TraceRecorder

PROTOCOLS = ("deluge", "seluge", "lr-seluge")

SMALL_GRID = dict(topology="grid:2x2:3", image_size=3072, k=8, n=12,
                  max_time=600.0)


# -- NodeFlash unit behaviour -------------------------------------------------


def _pkt(unit, index):
    return DataPacket(version=2, unit=unit, index=index, payload=b"x" * 8)


def test_flash_starts_empty_and_records_writes():
    flash = NodeFlash(5)
    assert flash.empty
    flash.write_unit(2, 1, {0: _pkt(1, 0)}, total_units=4)
    assert not flash.empty
    assert flash.stored_units == [1]
    assert flash.total_units == 4
    assert flash.writes == 1
    assert flash.unit_packets(1)[0].unit == 1
    assert flash.unit_packets(9) is None


def test_flash_new_version_wipes_old_contents():
    flash = NodeFlash(5)
    flash.write_unit(2, 1, {0: _pkt(1, 0)})
    flash.set_units_complete(2)
    flash.write_unit(3, 1, {0: _pkt(1, 0)})
    assert flash.version == 3
    assert flash.wipes == 1
    assert flash.units_complete == 0  # progress for v2 is gone


def test_flash_truncate_from_drops_suffix():
    flash = NodeFlash(5)
    for unit in (1, 2, 3):
        flash.write_unit(2, unit, {0: _pkt(unit, 0)})
    flash.set_units_complete(4)
    flash.truncate_from(2)
    assert flash.stored_units == [1]
    assert flash.units_complete == 2


def test_flash_unit_packets_returns_a_copy():
    flash = NodeFlash(5)
    flash.write_unit(2, 1, {0: _pkt(1, 0)})
    flash.unit_packets(1).clear()
    assert flash.unit_packets(1)  # internal store unchanged


# -- scripted crash/reboot: flash resume --------------------------------------


def _crash_run(protocol, plan, seed=7, trace=None, **overrides):
    scenario = FaultyGridScenario(
        protocol=protocol, seed=seed, plan=plan,
        **{**SMALL_GRID, **overrides},
    )
    return run_faulty_grid(scenario, trace=trace)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_rebooted_node_resumes_from_flash_not_page_zero(protocol):
    plan = FaultPlan().crash(8.0, node=3, reboot_after=15.0)
    log = EventLog()
    trace = TraceRecorder(sink=log)
    result = _crash_run(protocol, plan, trace=trace)
    assert result.completed and result.images_ok
    reboots = log.of_kind("fault_reboot")
    assert len(reboots) == 1
    assert reboots[0].node == 3
    # the crashed node had completed pages in flash: resume index > 0
    assert reboots[0].detail["resume_unit"] > 0
    assert result.counters.get("flash_units_restored", 0) > 0


def test_cold_reboot_without_flash_restarts_from_zero():
    plan = FaultPlan().crash(8.0, node=3, reboot_after=15.0)
    log = EventLog()
    trace = TraceRecorder(sink=log)
    scenario = FaultyGridScenario(protocol="lr-seluge", seed=7, plan=plan,
                                  **SMALL_GRID)
    # run_faulty_grid attaches NodeFlash; strip node 3's to model a node
    # whose flash is absent (factory-fresh or corrupted beyond use)
    import repro.experiments.scenarios as scenarios_mod

    original = scenarios_mod.NodeFlash
    try:
        scenarios_mod.NodeFlash = (
            lambda node_id: None if node_id == 3 else original(node_id)
        )
        result = run_faulty_grid(scenario, trace=trace)
    finally:
        scenarios_mod.NodeFlash = original
    assert result.completed and result.images_ok
    reboots = log.of_kind("fault_reboot")
    assert reboots[0].detail["resume_unit"] == 0


def test_base_station_outage_stalls_then_recovers():
    # Base (node 0) goes down early and comes back: dissemination still
    # finishes because the base re-advertises after reboot.
    plan = FaultPlan().crash(3.0, node=0, reboot_after=20.0)
    log = EventLog()
    trace = TraceRecorder(sink=log)
    result = _crash_run("lr-seluge", plan, trace=trace)
    assert result.completed and result.images_ok
    reboots = log.of_kind("fault_reboot")
    assert [r.node for r in reboots] == [0]
    assert result.latency > 20.0  # the outage cost real time


# -- stochastic churn ---------------------------------------------------------


CHURN = dict(topology="grid:2x2:3", image_size=3000, k=8, n=12, seed=1,
             max_time=600.0, mtbf=5.0, mttr=4.0, churn_horizon=60.0)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_all_protocols_complete_under_churn(protocol):
    result = run_faulty_grid(FaultyGridScenario(protocol=protocol, **CHURN))
    assert result.completed and result.images_ok
    assert result.completion_rate == 1.0
    assert result.crash_count > 0
    assert result.reboot_count > 0


def test_churn_costs_latency_vs_fault_free_baseline():
    scenario = FaultyGridScenario(protocol="lr-seluge", **CHURN)
    faulty = run_faulty_grid(scenario)
    baseline = run_faulty_grid(scenario.fault_free())
    assert baseline.crash_count == 0
    assert faulty.latency > baseline.latency
