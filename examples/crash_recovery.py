#!/usr/bin/env python
"""Crash-recovery walkthrough: flash-persisted resume after a node reboot.

Part 1 replays a deterministic :class:`FaultPlan` — one node crashes
mid-dissemination and reboots 15 s later.  The trace shows the rebooted
node resuming from its flash-persisted page index (``resume_unit > 0``),
not from page 0: completed pages survive the crash, and the receiver
pipeline re-authenticates every persisted packet before trusting it.

Part 2 runs all three protocols under stochastic crash/reboot churn
(exponential MTBF/MTTR) and reports the degradation — extra packets and
latency penalty — relative to the fault-free baseline of the same seed.

Run:  python examples/crash_recovery.py
"""

from dataclasses import replace

from repro.experiments.metrics import degradation
from repro.experiments.scenarios import Scenario, run_scenario
from repro.faults import FaultPlan
from repro.obs.events import EventLog
from repro.sim.trace import TraceRecorder

PROTOCOLS = ("deluge", "seluge", "lr-seluge")


def part1_deterministic_crash() -> None:
    print("=== Part 1: scripted crash at t=8s, reboot at t=23s ===")
    plan = FaultPlan().crash(8.0, node=3, reboot_after=15.0)
    scenario = Scenario(
        protocol="lr-seluge", topology="grid:2x2:3", ambient=False,
        image_size=3072, k=8, n=12, seed=7, max_time=600.0, faults=plan.events,
    )
    log = EventLog()
    result = run_scenario(scenario, trace=TraceRecorder(sink=log))
    for event in log.events:
        if event.kind.startswith("fault_"):
            extra = f" {event.detail}" if event.detail else ""
            node = f" node={event.node}" if event.node is not None else ""
            print(f"  t={event.ts:7.2f}  {event.kind}{node}{extra}")
    restored = result.counters.get("flash_units_restored", 0)
    print(f"  completed={result.completed} images_ok={result.images_ok} "
          f"latency={result.latency:.1f}s")
    print(f"  units restored from flash on reboot: {restored}")
    print()


def part2_churn_degradation() -> None:
    print("=== Part 2: crash/reboot churn (MTBF=5s, MTTR=4s) vs baseline ===")
    churn = Scenario(
        topology="grid:2x2:3", ambient=False, image_size=3000, k=8, n=12, seed=1,
        max_time=600.0, mtbf=5.0, mttr=4.0, churn_horizon=60.0,
    )
    header = (f"  {'protocol':10s} {'done':>5s} {'crashes':>7s} "
              f"{'latency':>8s} {'penalty':>8s} {'extra pkts':>10s}")
    print(header)
    for protocol in PROTOCOLS:
        faulty = run_scenario(replace(churn, protocol=protocol))
        baseline = run_scenario(replace(churn, protocol=protocol).fault_free())
        report = degradation(faulty, baseline)
        print(f"  {protocol:10s} {str(faulty.completed):>5s} "
              f"{report.crashes:7d} {faulty.latency:7.1f}s "
              f"{report.latency_penalty_s:+7.1f}s "
              f"{report.extra_data_packets:10d}")
    print()
    print("Every protocol still reaches 100% completion: the base station's")
    print("golden copy plus flash-persisted pages let rebooted nodes catch")
    print("up instead of restarting from page 0.")


if __name__ == "__main__":
    part1_deterministic_crash()
    part2_churn_degradation()
