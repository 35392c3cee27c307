"""Auth-before-buffer under active attack, with per-link forgery accounting.

Runs the DESIGN.md E8 forgery scenario (a :class:`BogusDataInjector` flooding
forged data packets into a one-hop network) with the flight recorder attached:

* Seluge and LR-Seluge buffer only authenticated packets even under flood,
  and the per-link matrix pins the rejected forgeries on the attacker's
  links.
* Deluge has no packet authentication: its receivers buffer forgeries, and
  the flight data shows it.
"""

from __future__ import annotations

import pytest

from repro.attacks import BogusDataInjector
from repro.core.image import CodeImage
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import _BUILDERS, make_params
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


def _attacked_flight_run(protocol, receivers=3, image_size=3000, seed=5,
                         period=0.3):
    sim = Simulator()
    rngs = RngRegistry(seed)
    log = EventLog()
    flight = FlightRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight)
    topo = star_topology(receivers + 1)  # highest id is the attacker
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params(protocol, image_size=image_size, k=8, n=12)
    image = CodeImage.synthetic(image_size, version=2, seed=seed)
    tracker = CompletionTracker(trace)
    attacker_id = receivers + 1
    base, nodes, _pre = _BUILDERS[protocol](
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=list(range(1, receivers + 1)),
        on_complete=tracker,
    )
    attacker = BogusDataInjector(attacker_id, sim, radio, rngs, trace,
                                 period=period)
    attacker.start()
    base.start()
    result = run_network(sim, trace, tracker, nodes, protocol,
                         max_time=2400.0, expected_image=image.data)
    flight.finalize(sim.now)
    log.flush_open_spans(sim.now)
    return result, log, flight, attacker, attacker_id


@pytest.mark.parametrize("protocol", ["seluge", "lr-seluge"])
def test_secured_protocols_hold_auth_before_buffer_under_attack(protocol):
    result, log, flight, attacker, attacker_id = _attacked_flight_run(protocol)
    assert result.completed and result.images_ok
    assert attacker.sent > 0

    # Every buffered packet was authenticated first, at the same node.
    authed = set()
    buffered = 0
    for e in log.events:
        key = (e.node, e.detail.get("version"), e.detail.get("unit"),
               e.detail.get("index"))
        if e.kind == "pkt_auth_ok":
            authed.add(key)
        elif e.kind == "pkt_buffered":
            assert key in authed, e
            buffered += 1
    assert buffered > 0

    # Every forgery that reached a receiver shows up as an auth-drop on the
    # attacker's outbound links, and nowhere else.
    matrix = flight.link_matrix()
    attacker_drops = sum(row["auth_drop"] for (src, _dst), row in
                        matrix.items() if src == attacker_id)
    honest_drops = sum(row["auth_drop"] for (src, _dst), row in
                       matrix.items() if src != attacker_id)
    assert attacker_drops > 0
    assert honest_drops == 0
    drop_events = log.of_kind("link_auth_drop")
    assert drop_events
    assert all(e.detail["src"] == attacker_id for e in drop_events)


def test_deluge_buffers_forgeries_visibly():
    result, log, flight, attacker, attacker_id = _attacked_flight_run(
        "deluge", period=0.05)
    assert attacker.sent > 0
    # No packet authentication: the pollution shows in the flight data.
    polluted = [e for e in log.of_kind("pkt_buffered")
                if e.detail["src"] == attacker_id]
    assert polluted
