"""Adversarial runs: per-attacker damage attribution.

An adversarial run is an ordinary :class:`~repro.experiments.scenarios.
Scenario` with ``attacks`` (deployed through the :class:`~repro.attacks.
engine.AttackEngine`) and optional ``faults`` (attackers are radio
participants like any node, so they can crash and reboot mid-run too).

:func:`run_attributed` runs a rig and folds per-attacker damage attribution
(read from the flight recorder's per-link matrix) into the returned
:class:`~repro.experiments.metrics.RunResult` ``counters`` as plain ints
(``adv_attacker_<id>_injected`` …).  :func:`recording_trace` builds a trace
with an event log and a flight recorder.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import Rig
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.sim.trace import TraceRecorder

__all__ = ["recording_trace", "run_attributed"]


def recording_trace() -> TraceRecorder:
    """A trace with an :class:`EventLog` sink and a :class:`FlightRecorder`."""
    log = EventLog()
    return TraceRecorder(sink=log, flight=FlightRecorder(log))


def _attribution(flight: FlightRecorder, attacker_ids: Iterable[int]) -> Dict[str, int]:
    """Per-attacker damage attribution from the flight-recorder link stats.

    ``injected`` counts frames the attacker put on the air, ``delivered``
    those that actually reached a victim's radio, and ``auth_drops`` the
    injected data packets the victims' authentication pipeline rejected —
    the difference between an attack's *volume* and its *bite*.
    """
    counters: Dict[str, int] = {}
    tx = flight.tx_frame_counts()
    matrix = flight.link_matrix()
    totals = {"injected": 0, "delivered": 0, "auth_drops": 0}
    for aid in sorted(attacker_ids):
        injected = tx.get(aid, 0)
        delivered = sum(row["rx"] for (src, _dst), row in matrix.items()
                        if src == aid)
        auth_drops = sum(row["auth_drop"] for (src, _dst), row in matrix.items()
                         if src == aid)
        counters[f"adv_attacker_{aid}_injected"] = injected
        counters[f"adv_attacker_{aid}_delivered"] = delivered
        counters[f"adv_attacker_{aid}_auth_drops"] = auth_drops
        totals["injected"] += injected
        totals["delivered"] += delivered
        totals["auth_drops"] += auth_drops
    counters["adv_frames_injected"] = totals["injected"]
    counters["adv_frames_delivered"] = totals["delivered"]
    counters["adv_auth_drops"] = totals["auth_drops"]
    return counters


def run_attributed(rig: Rig) -> RunResult:
    """Run ``rig``; with a flight recorder, fold attribution into the
    counters."""
    result = rig.run()
    flight = rig.trace.flight
    if flight is not None:
        flight.finalize(rig.sim.now)
        result.counters.update(_attribution(flight, rig.engine.attacker_ids))
    return result

