"""Flight recorder: per-link accounting, tracker snapshots, determinism."""

from __future__ import annotations

import pytest

from repro.obs.events import EventLog
from repro.obs.flight import LOSS_CAUSES, FlightRecorder
from repro.sim.trace import LOSS_COUNTERS
from tests.obs.conftest import run_flight

#: Every kind the flight recorder writes.
FLIGHT_KINDS = frozenset({
    "frame", "link_auth_drop", "link_duplicate", "pkt_auth_ok",
    "pkt_buffered", "tracker_snapshot", "flight_meta", "flight_topology",
    "flight_link_stats",
})


def test_flight_meta_covers_every_node(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3)
    metas = run.log.of_kind("flight_meta")
    assert len(metas) == 4  # base + 3 receivers
    bases = [e for e in metas if e.detail["base"]]
    assert len(bases) == 1
    assert all(e.detail["secured"] for e in metas)
    assert all(e.detail["protocol"] == "lr-seluge" for e in metas)


def test_deluge_advertises_unsecured(flight_run):
    run = flight_run(protocol="deluge", receivers=2)
    metas = run.log.of_kind("flight_meta")
    assert metas and all(not e.detail["secured"] for e in metas)


def test_link_accounting_matches_event_stream(flight_run):
    """The per-link matrix sums to the seam's delivery and loss counters,
    and deliveries are accounted, not logged one by one."""
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    counters = run.trace.counters
    matrix = run.flight.link_matrix()
    assert matrix, "a completed run must have observed deliveries"
    assert sum(row["rx"] for row in matrix.values()) == \
        counters["rx_delivered"]
    for cause in LOSS_CAUSES:
        assert sum(row["causes"].get(cause, 0) for row in matrix.values()) \
            == counters[LOSS_COUNTERS[cause]], cause
    # Bernoulli loss at 20% must drop something, attributed to the channel.
    assert counters["rx_lost"] > 0
    kinds = {e.kind for e in run.log.events}
    assert not kinds & {"link_rx", "link_lost"}


def test_data_tx_events_carry_the_unit(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=2)
    txs = run.log.of_kind("frame")
    data_txs = [e for e in txs if e.detail["kind"] == "data"]
    assert data_txs and all("unit" in e.detail for e in data_txs)
    adv_txs = [e for e in txs if e.detail["kind"] == "adv"]
    assert adv_txs and all("unit" not in e.detail for e in adv_txs)


def test_finalize_emits_topology_and_link_stats(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3)
    topo = run.log.of_kind("flight_topology")
    assert len(topo) == 1
    hops = topo[0].detail["hops"]
    base = topo[0].detail["base"]
    assert hops[str(base)] == 0
    assert all(h == 1 for n, h in hops.items() if n != str(base))
    stats = run.log.of_kind("flight_link_stats")
    assert len(stats) == len(run.flight.link_matrix())
    # finalize is idempotent: a second call must not double-emit.
    before = len(run.log)
    run.flight.finalize(run.sim.now)
    assert len(run.log) == before


def test_tracker_snapshots_expose_distances(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=3, loss=0.2)
    snaps = run.log.of_kind("tracker_snapshot")
    assert snaps, "LR-Seluge tracking table must be introspected"
    snack_snaps = [e for e in snaps if e.detail["trigger"] == "snack"]
    assert snack_snaps and all("requester" in e.detail for e in snack_snaps)
    with_state = [e for e in snaps if "distances" in e.detail]
    assert with_state and all("popularity" in e.detail for e in with_state)
    sent = [e for e in snaps if e.detail["trigger"] == "sent"]
    assert sent and all("index" in e.detail for e in sent)


def test_auth_events_track_the_packet_lifecycle(flight_run):
    run = flight_run(protocol="lr-seluge", receivers=2)
    auth_ok = run.log.of_kind("pkt_auth_ok")
    buffered = run.log.of_kind("pkt_buffered")
    assert auth_ok and buffered
    assert len(buffered) <= len(auth_ok)
    keys = lambda events: {
        (e.node, e.detail["version"], e.detail["unit"], e.detail["index"])
        for e in events
    }
    assert keys(buffered) <= keys(auth_ok)


@pytest.mark.parametrize("protocol", ["deluge", "seluge", "lr-seluge"])
def test_flight_recording_does_not_perturb_the_run(protocol):
    """Same seed, same flags: byte-identical outcome with and without flight."""
    from repro.experiments.scenarios import OneHopScenario, run_one_hop
    from repro.sim.engine import Simulator
    from repro.sim.trace import TraceRecorder

    scenario = OneHopScenario(protocol=protocol, loss_rate=0.15, receivers=3,
                              image_size=3000, k=8, n=12, seed=9)
    plain_sim = Simulator()
    plain_log = EventLog()
    plain_trace = TraceRecorder(sink=plain_log)
    plain = run_one_hop(scenario, sim=plain_sim, trace=plain_trace)

    flight_sim = Simulator()
    log = EventLog()
    flight_trace = TraceRecorder(sink=log, flight=FlightRecorder(log))
    recorded = run_one_hop(scenario, sim=flight_sim, trace=flight_trace)

    assert plain.latency == recorded.latency
    assert plain.data_packets == recorded.data_packets
    assert plain.snack_packets == recorded.snack_packets
    assert plain.total_bytes == recorded.total_bytes
    assert plain_sim.processed_events == flight_sim.processed_events
    assert plain_trace.snapshot() == flight_trace.snapshot()
    # The flight events interleave, but the underlying counter/span stream
    # is byte-identical: strip the flight-only kinds and compare.
    stripped = [e for e in log.events if e.kind not in FLIGHT_KINDS]
    assert stripped == plain_log.events
