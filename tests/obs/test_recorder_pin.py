"""Byte-level pin of the combined flight + causal event stream.

Both recorders share one :class:`EventLog`, so the order in which they write
is part of the archived trace format.  These runs attach both and pin the
sha256 of the JSONL stream and of the counter snapshot: any change to what a
recorder emits, to the order they emit it in, or to the counters a recorder
could disturb shows up here.

Frame ids are ``(sender, seq)`` pairs counted by each node, so a run's
stream depends on nothing the process ran before it; the determinism test
below runs one scenario twice in a row to hold that.

To re-pin after a deliberate change to the trace format, print
``_digests(*_grid_run())`` and ``_digests(*_forgery_run())``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.attacks import BogusDataInjector
from repro.core.image import CodeImage
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import (
    _BUILDERS,
    MultiHopScenario,
    make_params,
    run_multihop,
)
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.obs.events import EventLog
from repro.obs.flight import CausalRecorder, FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


def _recorded_trace():
    log = EventLog()
    flight = FlightRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight, causal=CausalRecorder(log))
    return log, flight, trace


def _grid_run(topology="grid:4x4:4", image_size=8 * 1024, k=16, n=24):
    """By default the causal-smoke configuration: lossy 4x4 grid,
    collisions on."""
    sim = Simulator()
    log, flight, trace = _recorded_trace()
    result = run_multihop(MultiHopScenario(
        protocol="lr-seluge", topology=topology, image_size=image_size,
        k=k, n=n, seed=3,
    ), sim=sim, trace=trace)
    assert result.completed and result.images_ok
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return log, trace


def _forgery_run():
    """One-hop lr-seluge with a forged-data flooder (auth-drop path)."""
    sim = Simulator()
    rngs = RngRegistry(5)
    log, flight, trace = _recorded_trace()
    radio = Radio(sim, star_topology(4), NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params("lr-seluge", image_size=3000, k=8, n=12)
    image = CodeImage.synthetic(3000, version=2, seed=5)
    tracker = CompletionTracker(trace)
    base, nodes, _pre = _BUILDERS["lr-seluge"](
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=[1, 2, 3], on_complete=tracker,
    )
    BogusDataInjector(4, sim, radio, rngs, trace, period=0.3).start()
    base.start()
    result = run_network(sim, trace, tracker, nodes, "lr-seluge",
                         max_time=2400.0, expected_image=image.data)
    assert result.completed and result.images_ok
    assert log.of_kind("link_auth_drop")
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return log, trace


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(log, trace):
    return (_sha(log.to_jsonl()),
            _sha(json.dumps(trace.snapshot(), sort_keys=True)))


def test_same_scenario_twice_in_one_process_is_byte_identical():
    """Nothing in a recorded stream (frame ids and cause parents included)
    depends on what the process ran before."""
    small = dict(topology="grid:3x3:4", image_size=2 * 1024, k=8, n=12)
    first, _ = _grid_run(**small)
    second, _ = _grid_run(**small)
    assert first.of_kind("frame") and first.of_kind("causal_decode")
    assert first.to_jsonl() == second.to_jsonl()


def test_grid_stream_and_counters_are_pinned():
    events, counters = _digests(*_grid_run())
    assert events == (
        "41242c105c2d003ac8b29a17dc764136d7f1118e29b0f75fcf73b3b3d23c9979")
    assert counters == (
        "ab198c7480873788ec5d90bcf81d0c151c80e24880c708cb3c489870cb6b784a")


def test_forgery_stream_and_counters_are_pinned():
    events, counters = _digests(*_forgery_run())
    assert events == (
        "78a7e7698958385d27bbad4e6c11c5e228e4fc30afbfc5bc49786c3b1aa34ae0")
    assert counters == (
        "2e725446deb2fa313b4df2a4de37a6f068f7cc4fb23f06c5b5ca642dfcab8ea7")
