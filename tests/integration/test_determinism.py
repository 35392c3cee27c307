"""Determinism regression: identical seed (+ fault plan) => identical trace.

The whole experiment pipeline leans on this — paired protocol comparisons,
fault-plan replay, and the degradation metrics all assume a seed pins down
every random draw.  These tests run the same scenario twice from scratch and
demand identical trace events, not just matching summary counters.
"""

from repro.experiments.scenarios import Scenario, run_scenario
from repro.faults import FaultPlan
from repro.obs.events import EventLog
from repro.sim.trace import TraceRecorder

BASE = dict(protocol="lr-seluge", topology="grid:2x2:3", ambient=False,
            image_size=3000, k=8, n=12, seed=9, max_time=600.0)


def _run(scenario):
    log = EventLog()
    result = run_scenario(scenario, trace=TraceRecorder(sink=log))
    return result, log.events


def test_fault_free_run_is_reproducible():
    a_result, a_records = _run(Scenario(**BASE))
    b_result, b_records = _run(Scenario(**BASE))
    assert a_result.completed and b_result.completed
    assert a_records == b_records
    assert a_result.counters == b_result.counters
    assert a_result.per_node_completion == b_result.per_node_completion


def test_fault_plan_run_is_reproducible():
    def scenario():
        plan = (
            FaultPlan()
            .crash(6.0, node=2, reboot_after=10.0)
            .corrupt(3.0, duration=4.0, rate=0.5, mode="flip")
            .link_down(5.0, 1, 3)
            .link_up(12.0, 1, 3)
        )
        return Scenario(faults=plan.events, **BASE)

    a_result, a_records = _run(scenario())
    b_result, b_records = _run(scenario())
    assert a_records == b_records
    assert a_result.counters == b_result.counters


def test_churn_run_is_reproducible():
    def scenario():
        return Scenario(mtbf=5.0, mttr=4.0, churn_horizon=60.0, **BASE)

    a_result, a_records = _run(scenario())
    b_result, b_records = _run(scenario())
    assert a_result.crash_count > 0     # churn actually fired
    assert a_records == b_records
    assert a_result.counters == b_result.counters


def test_different_seed_changes_the_trace():
    _, a_records = _run(Scenario(**BASE))
    _, b_records = _run(Scenario(**{**BASE, "seed": 10}))
    assert a_records != b_records
