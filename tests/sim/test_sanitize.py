"""The determinism sanitizer: perturbation, tripwire, alias scan, digests.

The end-to-end cells here are deliberately small (3 receivers, 1 KiB image)
so the suite stays fast; CI's ``sanitizer-smoke`` job runs the full
quick-grid cells with ``python -m repro.sim.sanitize``.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.sanitize import (
    DEFAULT_CELLS,
    HandlerContext,
    PerturbedSimulator,
    SanitizeCell,
    TripwireRegistry,
    canonical_events,
    default_cells,
    event_digest,
    find_shared_state,
    first_divergence,
    metrics_digest,
    run_cell,
    run_sanitizer,
)
from repro.sim.sanitize.harness import _run_scenario


# A small, fast cell reused by the end-to-end tests below.
PIN_CELL = SanitizeCell(name="pin", protocol="lr-seluge", receivers=3,
                        image_size=1024, k=4, n=6, seed=3, max_time=900.0)


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
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


# -- HandlerContext -----------------------------------------------------------

class _FakeNode:
    def __init__(self, node_id, rngs):
        self.node_id = node_id
        self.rngs = rngs

    def draw(self, stream):
        return self.rngs.get(stream).random()


def test_handler_context_labels_nodes_and_anonymous_owners():
    ctx = HandlerContext()
    node = _FakeNode(4, None)
    assert ctx.current == HandlerContext.SETUP
    assert ctx.label_for(node.draw) == "node/4"

    class Widget:
        def tick(self):
            pass

    a, b = Widget(), Widget()
    assert ctx.label_for(a.tick) == "Widget#0"
    assert ctx.label_for(b.tick) == "Widget#1"
    assert ctx.label_for(a.tick) == "Widget#0"  # stable on re-query


def test_handler_context_publishes_during_perturbed_events():
    ctx = HandlerContext()
    sim = PerturbedSimulator(1, context=ctx)
    labels = []

    class Probe:
        def __init__(self, node_id):
            self.node_id = node_id

        def fire(self):
            labels.append(ctx.current)

    sim.schedule_at(1.0, Probe(9).fire)
    sim.run()
    assert labels == ["node/9"]
    assert ctx.current == HandlerContext.SETUP  # restored after the event


# -- TripwireRegistry ---------------------------------------------------------

def test_tripwire_flags_streams_shared_across_nodes():
    ctx = HandlerContext()
    rngs = TripwireRegistry(1, context=ctx)
    a, b = _FakeNode(1, rngs), _FakeNode(2, rngs)
    for node in (a, b):
        previous = ctx.enter(node.draw)
        node.draw("shared")
        node.draw(f"node/{node.node_id}")
        ctx.exit(previous)
    violations = rngs.violations()
    assert [v.name for v in violations] == ["shared"]
    assert set(violations[0].node_contexts) == {"node/1", "node/2"}
    assert rngs.consumers("node/1") == {"node/1"}


def test_tripwire_ignores_setup_and_infrastructure_draws():
    ctx = HandlerContext()
    rngs = TripwireRegistry(1, context=ctx)
    rngs.get("topology/shadowing")  # setup context
    node = _FakeNode(3, rngs)
    previous = ctx.enter(node.draw)
    node.draw("topology/shadowing")
    ctx.exit(previous)
    # setup + one node: not two distinct *node* contexts.
    assert rngs.violations() == []


def test_tripwire_is_a_dropin_registry():
    plain = __import__("repro.sim.rng", fromlist=["RngRegistry"]).RngRegistry(5)
    wired = TripwireRegistry(5)
    assert plain.get("x").random() == wired.get("x").random()


# -- shared-state detection ---------------------------------------------------

class _Holder:
    def __init__(self, buf):
        self.buf = buf
        self.own = []


def test_alias_scan_finds_cross_owner_containers():
    shared = {"window": []}
    owners = {"node/1": _Holder(shared), "node/2": _Holder(shared)}
    findings = find_shared_state(owners)
    assert findings, "shared dict must be reported"
    assert any(set(f.owners) == {"node/1", "node/2"} for f in findings)


def test_alias_scan_respects_sanction_list_and_private_state():
    shared = {"window": []}
    owners = {"node/1": _Holder(shared), "node/2": _Holder(shared)}
    assert find_shared_state(owners, sanctioned=[shared]) == []
    private = {"node/1": _Holder({}), "node/2": _Holder({})}
    assert find_shared_state(private) == []


# -- digests ------------------------------------------------------------------

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


def test_first_divergence_reports_minimal_diff():
    assert first_divergence(["a", "b"], ["a", "b"]) is None
    assert first_divergence(["a", "b"], ["a", "c"]) == (1, "b", "c")
    assert first_divergence(["a"], ["a", "b"]) == (1, "<absent>", "b")
    assert first_divergence(["a", "b"], ["a"]) == (1, "b", "<absent>")


# -- harness ------------------------------------------------------------------

def test_default_cells_cover_the_acceptance_grid():
    names = [cell.name for cell in DEFAULT_CELLS]
    assert names == ["deluge", "seluge", "lr-seluge",
                     "lr-seluge+faults", "lr-seluge+attack"]
    assert any(cell.faults for cell in DEFAULT_CELLS)
    assert any(cell.attacks for cell in DEFAULT_CELLS)
    assert default_cells(["seluge"]) == (DEFAULT_CELLS[1],)
    with pytest.raises(ConfigError):
        default_cells(["warp-grid"])


def test_run_sanitizer_rejects_zero_perturbations():
    with pytest.raises(ConfigError):
        run_sanitizer(perturbations=0, cells=(PIN_CELL,))


def test_small_cell_is_order_independent(sanitizer):
    """Regression for the request-timer re-arm race: with the per-node
    re-arm jitter in place, tie-break permutations must not change results."""
    report = sanitizer(PIN_CELL, perturbations=2)
    assert report.events > 0
    assert set(report.perturbed) == {1, 2}
    assert report.aliases_setup == [] and report.aliases_final == []
    assert report.rng_violations == []


def test_pinned_baseline_digests():
    """Digest pin for the ``_rearm_delay`` jitter fix (PR: determinism
    sanitizer).  Constant request/tx timer re-arms used to synchronise whole
    neighborhoods onto one timestamp and hand the outcome to the engine's
    tie-break; the fix draws +/-5% jitter from each node's own stream.

    If a deliberate protocol/timing change lands, re-pin with::

        PYTHONPATH=src python -c "
        from repro.sim.engine import Simulator
        from repro.sim.sanitize import TripwireRegistry, metrics_digest, event_digest
        from tests.sim.test_sanitize import PIN_CELL
        from repro.sim.sanitize.harness import _run_scenario
        r, log, _, _ = _run_scenario(PIN_CELL, Simulator(), TripwireRegistry(PIN_CELL.seed))
        print(metrics_digest(r)); print(event_digest(log))"

    An *accidental* change here means run results shifted for every seed —
    investigate before re-pinning.
    """
    result, log, _, _ = _run_scenario(
        PIN_CELL, Simulator(), TripwireRegistry(PIN_CELL.seed))
    assert result.completed
    assert metrics_digest(result) == (
        "03aea5b8e769ffb44afbc226d2d9042ceb6f615ce9cf1df72429dbdb9d737e45")
    assert event_digest(log) == (
        "f14038caf54d49bcca1f94255586aaefc8c69bf424e0bcc6e48df66ebc9b7e6d")


def test_divergence_detection_catches_an_injected_race():
    """The harness must actually detect order dependence, not just pass:
    run the pin cell against a *different seed's* baseline digests and
    check the machinery that would report a divergence fires."""
    result_a, log_a, _, _ = _run_scenario(
        PIN_CELL, Simulator(), TripwireRegistry(PIN_CELL.seed))
    other = SanitizeCell(name="pin-b", protocol="lr-seluge", receivers=3,
                         image_size=1024, k=4, n=6, seed=4, max_time=900.0)
    result_b, log_b, _, _ = _run_scenario(
        other, Simulator(), TripwireRegistry(other.seed))
    assert metrics_digest(result_a) != metrics_digest(result_b)
    diff = first_divergence(canonical_events(log_a), canonical_events(log_b))
    assert diff is not None and diff[0] >= 0
