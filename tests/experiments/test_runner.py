"""CompletionTracker freeze semantics and run_network's manifest emission."""

from repro.experiments.metrics import RunResult
from repro.experiments.runner import CompletionTracker, run_network
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


class StubNode:
    """Just enough of a DisseminationNode for run_network: completes on cue."""

    def __init__(self, sim, trace, tracker, node_id, complete_at=None):
        self.sim = sim
        self.trace = trace
        self.tracker = tracker
        self.node_id = node_id
        self.complete_at = complete_at

    def start(self):
        if self.complete_at is not None:
            self.sim.schedule_at(self.complete_at, self._complete)

    def _complete(self):
        self.trace.record(self.sim.now, "node_complete", node=self.node_id)
        self.tracker(self)

    def image_bytes(self):
        return b"image"


def _network(sim, trace, completion_times):
    tracker = CompletionTracker(trace)
    nodes = [
        StubNode(sim, trace, tracker, node_id, at)
        for node_id, at in completion_times
    ]
    return tracker, nodes


def test_counters_freeze_at_last_completion():
    sim = Simulator()
    trace = TraceRecorder()
    tracker, nodes = _network(sim, trace, [(1, 1.0), (2, 2.0)])
    # Post-completion chatter inside the same run chunk: steady-state
    # advertisements that must not pollute the frozen snapshot.
    sim.schedule_at(3.0, trace.count, "tx_adv", 5)
    result = run_network(sim, trace, tracker, nodes, "stub", max_time=60.0)
    assert result.completed
    assert result.latency == 2.0
    assert result.counters.get("node_complete") == 2
    assert result.counters.get("tx_adv", 0) == 0   # frozen at t=2.0
    assert trace.counters["tx_adv"] == 5           # ...but it did happen


def test_incomplete_run_snapshots_at_max_time():
    sim = Simulator()
    trace = TraceRecorder()
    tracker, nodes = _network(sim, trace, [(1, 1.0), (2, None)])  # 2 never done
    sim.schedule_at(3.0, trace.count, "tx_adv")
    result = run_network(sim, trace, tracker, nodes, "stub", max_time=10.0)
    assert not result.completed
    assert result.latency == 10.0
    assert result.counters.get("tx_adv") == 1      # nothing to freeze early
    assert result.per_node_completion == {1: 1.0}


def test_run_network_records_the_tracked_set():
    sim = Simulator()
    trace = TraceRecorder()
    tracker, nodes = _network(sim, trace, [(4, 1.0), (2, 1.5)])
    result = run_network(sim, trace, tracker, nodes, "stub", max_time=60.0)
    assert result.tracked == (2, 4)
    assert result.n_nodes == 2
    assert result.completion_rate == 1.0


def test_completion_rate_ignores_untracked_completions():
    # A completion event from outside the tracked set (late base republish,
    # merged recorders) must not push the rate past 1.0.
    result = RunResult(
        protocol="stub", completed=True, latency=5.0,
        per_node_completion={1: 1.0, 2: 2.0, 99: 3.0},
        n_nodes=2, tracked=(1, 2),
    )
    assert result.completion_rate == 1.0
    partial = RunResult(
        protocol="stub", completed=False, latency=5.0,
        per_node_completion={1: 1.0, 99: 3.0},
        n_nodes=2, tracked=(1, 2),
    )
    assert partial.completion_rate == 0.5


def test_completion_rate_clamps_without_tracked_ids():
    legacy = RunResult(
        protocol="stub", completed=True, latency=5.0,
        per_node_completion={1: 1.0, 2: 2.0, 99: 3.0},
        n_nodes=2, tracked=None,
    )
    assert legacy.completion_rate == 1.0  # clamped, never 1.5
    untracked = RunResult(protocol="stub", completed=True, latency=5.0)
    assert untracked.completion_rate is None
