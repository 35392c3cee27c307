"""Shared fixtures for observability tests: flight-recorded smoke runs and
synthetic perfbench outputs."""

from __future__ import annotations

import json

import pytest

from repro.experiments.scenarios import MultiHopScenario, OneHopScenario, run_scenario
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class FlightRun:
    """One finished flight-recorded one-hop dissemination."""

    def __init__(self, result, log, flight, sim, trace):
        self.result = result
        self.log = log
        self.flight = flight
        self.sim = sim
        self.trace = trace


def run_flight(protocol="lr-seluge", receivers=3, loss=0.1, seed=5,
               image_size=3000, k=8, n=12, max_time=3600.0) -> FlightRun:
    sim = Simulator()
    log = EventLog()
    flight = FlightRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight)
    result = run_scenario(OneHopScenario(
        protocol=protocol, loss_rate=loss, receivers=receivers,
        image_size=image_size, k=k, n=n, seed=seed, max_time=max_time,
    ), sim=sim, trace=trace)
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return FlightRun(result, log, flight, sim, trace)


@pytest.fixture
def flight_run():
    return run_flight


class CausalRun:
    """One finished causal-traced dissemination (one-hop or multihop), with
    the flight recorder attached too, as ``--causal-trace`` does."""

    def __init__(self, result, log, sim, trace):
        self.result = result
        self.log = log
        self.sim = sim
        self.trace = trace


def run_causal(protocol="lr-seluge", receivers=3, loss=0.1, seed=5,
               image_size=3000, k=8, n=12, max_time=3600.0,
               topology=None) -> CausalRun:
    from repro.obs.flight import CausalRecorder

    sim = Simulator()
    log = EventLog()
    flight = FlightRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight, causal=CausalRecorder(log))
    if topology is not None:
        scenario = MultiHopScenario(
            protocol=protocol, topology=topology, image_size=image_size,
            k=k, n=n, seed=seed, max_time=max_time,
        )
    else:
        scenario = OneHopScenario(
            protocol=protocol, loss_rate=loss, receivers=receivers,
            image_size=image_size, k=k, n=n, seed=seed, max_time=max_time,
        )
    result = run_scenario(scenario, sim=sim, trace=trace)
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return CausalRun(result, log, sim, trace)


@pytest.fixture
def causal_run():
    return run_causal


def write_perf_output(path, workload="onehop-decode", wall_s=2.0,
                      events_per_s=20000.0, correct=True, failed=0,
                      digest="a048e9ef4118f865"):
    """A synthetic ``perfbench/run.py --trace 0`` output: progress noise,
    then the detail line, then the result line."""
    detail = {"workload": workload, "seed": 1, "trace": 0, "repeats": 5,
              "digest": digest, "repeat_wall_s": [wall_s] * 5}
    result = {
        "correct": correct, "attempted": 30, "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": 0.08, "unit": "s"},
            "events_per_s": {"value": events_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": 80.0, "unit": "MB"},
            "completed_share": {"value": 1.0, "unit": "ratio"},
        },
    }
    path.write_text("warming up\n" + json.dumps(detail) + "\n"
                    + json.dumps(result) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def perf_output():
    return write_perf_output
