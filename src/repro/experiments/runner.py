"""Drive one dissemination to completion and snapshot the metrics.

Counters are snapshotted at the instant the *last* node completes, so
steady-state Trickle chatter after the interesting part does not pollute the
comparison (the paper measures until dissemination finishes).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.experiments.metrics import RunResult
from repro.protocols.common import DisseminationNode
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["CompletionTracker", "run_network"]


class CompletionTracker:
    """Collects per-node completion events; freezes counters at the end."""

    def __init__(self, trace: TraceRecorder):
        self.trace = trace
        self.expected: Optional[Set[int]] = None
        self.completions: Dict[int, float] = {}
        self.done_time: Optional[float] = None
        self.snapshot: Optional[Dict[str, int]] = None

    def expect(self, node_ids: Iterable[int]) -> None:
        self.expected = set(node_ids)
        self._check_done(None)

    def __call__(self, node: DisseminationNode) -> None:
        self.completions[node.node_id] = node.sim.now
        self._check_done(node.sim)

    def _check_done(self, sim: Optional[Simulator]) -> None:
        if self.expected is None or self.done_time is not None:
            return
        if self.expected.issubset(self.completions):
            self.done_time = (
                max((self.completions[i] for i in self.expected), default=0.0)
            )
            self.snapshot = self.trace.snapshot()

    @property
    def all_done(self) -> bool:
        return self.done_time is not None


def run_network(
    sim: Simulator,
    trace: TraceRecorder,
    tracker: CompletionTracker,
    nodes: List[DisseminationNode],
    protocol: str,
    max_time: float = 7200.0,
    expected_image: Optional[bytes] = None,
    chunk: float = 5.0,
    seed: int = 0,
    manifest_path: Optional[str] = None,
    manifest_config: Optional[Dict[str, object]] = None,
) -> RunResult:
    """Run until every tracked node completes or ``max_time`` elapses.

    With ``manifest_path`` set, a :class:`repro.obs.manifest.RunManifest`
    (seed, config, git rev, counters, wall/sim timings) is written there
    after the run.
    """
    from repro.experiments.reporting import stopwatch

    tracker.expect([n.node_id for n in nodes])
    for node in nodes:
        node.start()
    with stopwatch() as elapsed:
        while not tracker.all_done and sim.now < max_time:
            sim.run(until=min(sim.now + chunk, max_time))
    completed = tracker.all_done
    counters = tracker.snapshot if completed else trace.snapshot()
    latency = tracker.done_time if completed else max_time
    images_ok: Optional[bool] = None
    if expected_image is not None:
        images_ok = completed and all(
            node.image_bytes() == expected_image for node in nodes
        )
    result = RunResult(
        protocol=protocol,
        completed=completed,
        latency=latency,
        counters=counters or {},
        per_node_completion=dict(tracker.completions),
        images_ok=images_ok,
        seed=seed,
        n_nodes=len(nodes),
        tracked=tuple(sorted(tracker.expected or ())),
    )
    if manifest_path is not None:
        from repro.obs.catalog import unregistered_names
        from repro.obs.manifest import RunManifest

        config: Dict[str, object] = {"protocol": protocol, "max_time": max_time}
        if manifest_config:
            config.update(manifest_config)
        RunManifest.from_run(
            "repro.experiments.runner", result, config=config,
            wall_s=elapsed(), sim=sim,
            unregistered=unregistered_names(trace.counters),
        ).write(manifest_path)
    return result
