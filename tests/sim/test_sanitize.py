"""Tie-order independence: results must not depend on the engine's tie-break.

:class:`~repro.sim.engine.PerturbedSimulator` runs every group of
same-timestamp events in a seeded pseudo-random order.  Each cell below must
produce the same metrics digest and the same canonical event list under
perturbations 1-5 as under the production FIFO tie-break (DESIGN.md
section 13).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, List, Tuple

import pytest

from repro.attacks.plan import AttackSpec
from repro.errors import SimulationError
from repro.experiments.adversarial import recording_trace, run_attributed
from repro.experiments.scenarios import Scenario, build_rig
from repro.faults.plan import FaultEvent, FaultKind
from repro.protocols.common import DisseminationNode
from repro.sim.engine import PerturbedSimulator, Simulator

PERTURBATIONS = range(1, 6)

# A deterministic crash/reboot plus a link flap for the fault cell.
FAULTS = (
    FaultEvent(time=20.0, kind=FaultKind.NODE_CRASH, node=2),
    FaultEvent(time=60.0, kind=FaultKind.NODE_REBOOT, node=2),
    FaultEvent(time=30.0, kind=FaultKind.LINK_DOWN, link=(0, 4)),
    FaultEvent(time=75.0, kind=FaultKind.LINK_UP, link=(0, 4)),
)

# One bogus-data injector: the attack cell's adversary.
ATTACKS = (AttackSpec(kind="bogus-data", start=0.5, period=0.3),)


def _cell(protocol: str, faults: Tuple[Any, ...] = (),
          attacks: Tuple[Any, ...] = ()) -> Scenario:
    return Scenario(
        protocol=protocol, topology="star:5", loss_rate=0.1, image_size=2048,
        k=4, n=6, seed=3, max_time=1800.0, faults=faults, attacks=attacks,
    )


CELLS = {
    "deluge": _cell("deluge"),
    "seluge": _cell("seluge"),
    "lr-seluge": _cell("lr-seluge"),
    "lr-seluge+faults": _cell("lr-seluge", faults=FAULTS),
    "lr-seluge+attack": _cell("lr-seluge", attacks=ATTACKS),
}

# The digest-pinned cell: 3 receivers and a 1 KiB image keep it fast.
PIN_CELL = Scenario(
    protocol="lr-seluge", topology="star:3", loss_rate=0.1, image_size=1024,
    k=4, n=6, seed=3, max_time=900.0,
)


# -- digests ------------------------------------------------------------------

def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def metrics_digest(result: Any) -> str:
    """Digest of a RunResult (sorted keys, repr-exact floats)."""
    return _sha256(json.dumps(result.to_jsonable(), sort_keys=True))


def canonical_events(log: Any) -> List[str]:
    """The log's events as sorted-key JSON, ordered by (ts, content).

    Distinct-time events keep their temporal order; same-time events land
    in a content-defined order that every tie-break permutation agrees on.
    """
    rendered: List[Tuple[float, str]] = []
    for event in log.events:
        data = event.to_dict()
        rendered.append((float(data["ts"]), json.dumps(data, sort_keys=True)))
    rendered.sort()
    return [text for _, text in rendered]


def event_digest(log: Any) -> str:
    return _sha256("\n".join(canonical_events(log)))


def _outcome(scenario: Scenario,
             sim: Simulator) -> Tuple[str, List[str]]:
    """Run ``scenario`` on ``sim``: (metrics digest, canonical events)."""
    rig = build_rig(scenario, sim=sim, trace=recording_trace())
    result = run_attributed(rig)
    return metrics_digest(result), canonical_events(rig.trace.sink)


# -- PerturbedSimulator -------------------------------------------------------

def _run_order(sim, times):
    """Schedule one marker per entry of ``times`` and return firing order."""
    order = []
    for index, t in enumerate(times):
        sim.schedule_at(t, order.append, index)
    sim.run()
    return order


def test_perturbation_preserves_distinct_time_order():
    times = [5.0, 1.0, 3.0, 2.0, 4.0]
    order = _run_order(PerturbedSimulator(7), times)
    assert order == [1, 3, 2, 4, 0]  # strictly by timestamp


def test_perturbation_shuffles_same_timestamp_ties():
    ties = [1.0] * 12
    fifo = _run_order(Simulator(), ties)
    assert fifo == list(range(12))  # production engine: FIFO among ties
    orders = {p: tuple(_run_order(PerturbedSimulator(p), ties))
              for p in range(1, 5)}
    for order in orders.values():
        assert sorted(order) == list(range(12))  # a permutation, nothing lost
    assert any(order != tuple(fifo) for order in orders.values())
    assert len(set(orders.values())) > 1  # different seeds, different orders


def test_perturbation_is_deterministic_per_seed():
    ties = [2.0] * 10
    assert _run_order(PerturbedSimulator(3), ties) == \
        _run_order(PerturbedSimulator(3), ties)


def test_perturbed_rejects_past_times_like_the_engine():
    sim = PerturbedSimulator(1)
    sim.schedule_at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


# -- canonical events ---------------------------------------------------------

class _FakeEvent:
    def __init__(self, ts, kind):
        self.ts, self.kind = ts, kind

    def to_dict(self):
        return {"ts": self.ts, "kind": self.kind}


class _FakeLog:
    def __init__(self, events):
        self.events = events


def test_canonical_events_are_tie_order_insensitive():
    a = _FakeLog([_FakeEvent(1.0, "x"), _FakeEvent(1.0, "y"), _FakeEvent(2.0, "z")])
    b = _FakeLog([_FakeEvent(1.0, "y"), _FakeEvent(1.0, "x"), _FakeEvent(2.0, "z")])
    assert canonical_events(a) == canonical_events(b)
    assert event_digest(a) == event_digest(b)
    # ...but distinct-time reorders are real divergence:
    c = _FakeLog([_FakeEvent(2.0, "x"), _FakeEvent(1.0, "y")])
    d = _FakeLog([_FakeEvent(1.0, "x"), _FakeEvent(2.0, "y")])
    assert event_digest(c) != event_digest(d)


# -- tie-order independence ---------------------------------------------------

def test_default_cells_cover_the_acceptance_grid():
    assert list(CELLS) == ["deluge", "seluge", "lr-seluge",
                           "lr-seluge+faults", "lr-seluge+attack"]
    assert any(cell.faults for cell in CELLS.values())
    assert any(cell.attacks for cell in CELLS.values())


def test_small_cell_is_order_independent():
    """Every cell gives the FIFO run's metrics and events under each
    perturbation: no result depends on the same-timestamp tie-break."""
    for name, scenario in CELLS.items():
        fifo_digest, fifo_events = _outcome(scenario, Simulator())
        for perturbation in PERTURBATIONS:
            digest, events = _outcome(scenario, PerturbedSimulator(perturbation))
            where = f"cell {name}, perturbation {perturbation}"
            assert events == fifo_events, where
            assert digest == fifo_digest, where


def test_divergence_detection_catches_an_injected_race(monkeypatch):
    """Without the ``_rearm_delay`` jitter, timers that re-arm on the same
    overheard frame fire in one tick and the tie-break picks who transmits
    first: the tie-order check must see the results move."""
    monkeypatch.setattr(DisseminationNode, "_rearm_delay",
                        lambda self, base: base)
    scenario = CELLS["lr-seluge"]
    fifo = _outcome(scenario, Simulator())
    assert any(_outcome(scenario, PerturbedSimulator(p)) != fifo
               for p in PERTURBATIONS)


def test_pinned_baseline_digests():
    """Digest pin for the ``_rearm_delay`` jitter fix.  Constant
    request/tx timer re-arms used to synchronise whole neighborhoods onto
    one timestamp and hand the outcome to the engine's tie-break; the fix
    draws +/-5% jitter from each node's own stream.

    If a deliberate protocol/timing change lands, re-pin with::

        PYTHONPATH=src python -c "
        from repro.experiments.adversarial import recording_trace, run_attributed
        from repro.experiments.scenarios import build_rig
        from tests.sim.test_sanitize import PIN_CELL, metrics_digest, event_digest
        rig = build_rig(PIN_CELL, trace=recording_trace()); r = run_attributed(rig)
        print(metrics_digest(r)); print(event_digest(rig.trace.sink))"

    An *accidental* change here means run results shifted for every seed —
    investigate before re-pinning.
    """
    rig = build_rig(PIN_CELL, trace=recording_trace())
    result = run_attributed(rig)
    assert result.completed
    assert metrics_digest(result) == (
        "45b2236412827668ff82a37853c17af40a5296254a82cf5413e6a22faed309d5")
    assert event_digest(rig.trace.sink) == (
        "f14038caf54d49bcca1f94255586aaefc8c69bf424e0bcc6e48df66ebc9b7e6d")
