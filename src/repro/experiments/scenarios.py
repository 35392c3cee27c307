"""Canonical scenarios: the paper's one-hop and multi-hop setups.

One-hop (Section VI-B): a fully connected star — one sender, ``N`` local
receivers — with losses emulated at the application layer: every node drops
each received data/advertisement/SNACK packet independently with probability
``p``.  Collision modelling is off, exactly as in the paper's setup.

Multi-hop (Section VI-C): 15x15 mica2-style grids (tight/medium density)
with per-link loss probabilities from the propagation model and the CSMA
collision model enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import DelugeParams, ImageConfig, LRSelugeParams, ProtocolTiming, SelugeParams
from repro.core.image import CodeImage
from repro.experiments.metrics import RunResult
from repro.experiments.runner import CompletionTracker, run_network
from repro.faults.flash import NodeFlash
from repro.faults.generators import crash_reboot_churn, link_flap_churn
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.channel import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    LossModel,
    PerLinkLoss,
)
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import (
    Topology,
    grid_topology,
    mica2_grid_medium,
    mica2_grid_tight,
    random_disk_topology,
    star_topology,
)
from repro.protocols.deluge import build_deluge_network
from repro.protocols.lr_seluge import build_lr_seluge_network
from repro.protocols.rateless import build_rateless_network
from repro.protocols.seluge import build_seluge_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.errors import ConfigError

__all__ = [
    "OneHopScenario",
    "MultiHopScenario",
    "FaultyGridScenario",
    "run_one_hop",
    "run_multihop",
    "run_faulty_grid",
    "build_protocol_network",
]

_BUILDERS = {
    "deluge": build_deluge_network,
    "seluge": build_seluge_network,
    "lr-seluge": build_lr_seluge_network,
    "rateless": build_rateless_network,
}


def make_params(
    protocol: str,
    image_size: int = 20 * 1024,
    k: int = 32,
    n: int = 48,
    kprime: int = 0,
    version: int = 2,
    timing: Optional[ProtocolTiming] = None,
):
    """Protocol parameter object with a shared image/timing configuration."""
    image = ImageConfig(image_size=image_size, version=version)
    timing = timing or ProtocolTiming()
    if protocol == "deluge" or protocol == "rateless":
        return DelugeParams(k=k, image=image, timing=timing)
    if protocol == "seluge":
        return SelugeParams(k=k, image=image, timing=timing)
    if protocol == "lr-seluge":
        return LRSelugeParams(k=k, n=n, kprime=kprime, image=image, timing=timing)
    raise ConfigError(f"unknown protocol {protocol!r}")


def build_protocol_network(
    protocol: str,
    sim: Simulator,
    radio: Radio,
    rngs: RngRegistry,
    trace: TraceRecorder,
    params,
    image: CodeImage,
    on_complete,
):
    """Dispatch to the right network builder; returns (base, nodes, pre)."""
    builder = _BUILDERS.get(protocol)
    if builder is None:
        raise ConfigError(f"unknown protocol {protocol!r}")
    return builder(
        sim, radio, rngs, trace, params, image=image, on_complete=on_complete
    )


@dataclass(frozen=True)
class OneHopScenario:
    """Section VI-B setup: one sender, N receivers, app-layer loss p."""

    protocol: str = "lr-seluge"
    loss_rate: float = 0.1
    receivers: int = 20
    image_size: int = 20 * 1024
    k: int = 32
    n: int = 48
    kprime: int = 0
    seed: int = 1
    max_time: float = 7200.0
    timing: Optional[ProtocolTiming] = None

    def with_protocol(self, protocol: str) -> "OneHopScenario":
        return replace(self, protocol=protocol)


def run_one_hop(
    scenario: OneHopScenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Simulate one one-hop dissemination and return its metrics.

    ``sim``/``trace`` may be supplied by observability callers (profiler
    installed, structured-event sink attached); defaults are fresh instances
    and the run is bit-identical either way.
    """
    rngs = RngRegistry(scenario.seed)
    sim = sim if sim is not None else Simulator()
    trace = trace if trace is not None else TraceRecorder()
    topo = star_topology(scenario.receivers)
    loss = BernoulliLoss(scenario.loss_rate)
    radio = Radio(
        sim, topo, loss, rngs, trace, config=RadioConfig(collisions=False)
    )
    params = make_params(
        scenario.protocol,
        image_size=scenario.image_size,
        k=scenario.k,
        n=scenario.n,
        kprime=scenario.kprime,
        timing=scenario.timing,
    )
    image = CodeImage.synthetic(scenario.image_size, version=2, seed=scenario.seed)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_protocol_network(
        scenario.protocol, sim, radio, rngs, trace, params, image, tracker
    )
    base.start()
    return run_network(
        sim, trace, tracker, nodes, scenario.protocol,
        max_time=scenario.max_time, expected_image=image.data, seed=scenario.seed,
    )


@dataclass(frozen=True)
class MultiHopScenario:
    """Section VI-C setup: 15x15 mica2 grids with link-level losses."""

    protocol: str = "lr-seluge"
    topology: str = "tight"        # "tight" | "medium" | "grid:<rows>x<cols>:<spacing>"
    image_size: int = 20 * 1024
    k: int = 32
    n: int = 48
    kprime: int = 0
    seed: int = 1
    max_time: float = 14400.0
    ambient: bool = True           # meyer-heavy-style bursty ambient loss on top
    bursty_only: bool = False      # Gilbert-Elliott alone (ablation)
    timing: Optional[ProtocolTiming] = None

    def with_protocol(self, protocol: str) -> "MultiHopScenario":
        return replace(self, protocol=protocol)


def _build_topology(scenario: MultiHopScenario, rngs: RngRegistry) -> Topology:
    spec = scenario.topology
    if spec.startswith(("tight", "medium")):
        kind, _, dims = spec.partition(":")
        rows, cols = (15, 15) if not dims else (int(x) for x in dims.split("x"))
        build = mica2_grid_tight if kind == "tight" else mica2_grid_medium
        return build(rngs, rows=rows, cols=cols)
    if spec.startswith("grid:"):
        _, dims, spacing = spec.split(":")
        rows, cols = (int(x) for x in dims.split("x"))
        return grid_topology(rows, cols, spacing=float(spacing), rngs=rngs)
    if spec.startswith("random:"):
        # "random:<nodes>:<area-side-m>" — the TinyOS topology-tool analogue.
        _, n_nodes, side = spec.split(":")
        return random_disk_topology(int(n_nodes), float(side), rngs)
    raise ConfigError(f"unknown topology {spec!r}")


@dataclass(frozen=True)
class FaultyGridScenario:
    """A multi-hop grid under fault injection (crashes, churn, link flaps).

    Faults come from an explicit :class:`FaultPlan` and/or the stochastic
    generators: with ``mtbf`` set, every *receiver* (never the base station,
    whose image is the golden copy) crash-reboots with exponential
    MTBF/MTTR; with ``link_flap`` set, directed links flap Bernoulli-style.
    Every receiver gets a :class:`NodeFlash`, so reboots resume from the
    persisted page index.  Identical seed + plan reproduces an identical
    trace.
    """

    protocol: str = "lr-seluge"
    topology: str = "grid:4x4:3"
    image_size: int = 4096
    k: int = 8
    n: int = 12
    kprime: int = 0
    seed: int = 1
    max_time: float = 7200.0
    ambient: bool = False
    plan: Optional[FaultPlan] = None
    mtbf: Optional[float] = None      # mean seconds between crashes, per node
    mttr: float = 60.0                # mean seconds a crashed node stays down
    link_flap: float = 0.0            # Bernoulli down-probability per check
    flap_interval: float = 30.0       # seconds between flap checks
    flap_down_time: float = 15.0      # seconds a flapped link stays down
    churn_horizon: Optional[float] = None  # default: max_time / 2
    timing: Optional[ProtocolTiming] = None

    def with_protocol(self, protocol: str) -> "FaultyGridScenario":
        return replace(self, protocol=protocol)

    def fault_free(self) -> "FaultyGridScenario":
        """The same scenario with every fault source removed (baseline)."""
        return replace(self, plan=None, mtbf=None, link_flap=0.0)


def run_faulty_grid(
    scenario: FaultyGridScenario,
    trace: Optional[TraceRecorder] = None,
    sim: Optional[Simulator] = None,
) -> RunResult:
    """Simulate a grid dissemination under the scenario's fault model.

    Pass a ``TraceRecorder(sink=EventLog())`` to capture the full fault /
    recovery event sequence (crash, reboot with resume unit, link churn);
    pass a ``sim`` to profile the event loop.
    """
    rngs = RngRegistry(scenario.seed)
    sim = sim if sim is not None else Simulator()
    trace = trace if trace is not None else TraceRecorder()
    topo = _build_topology(scenario, rngs)
    loss: LossModel
    if scenario.ambient:
        loss = CompositeLoss(
            PerLinkLoss(topo.link_loss),
            GilbertElliottLoss(loss_good=0.05, loss_bad=0.5, mean_good=6.0, mean_bad=2.0),
        )
    else:
        loss = PerLinkLoss(topo.link_loss)
    radio = Radio(sim, topo, loss, rngs, trace, config=RadioConfig(collisions=True))
    params = make_params(
        scenario.protocol,
        image_size=scenario.image_size,
        k=scenario.k,
        n=scenario.n,
        kprime=scenario.kprime,
        timing=scenario.timing,
    )
    image = CodeImage.synthetic(scenario.image_size, version=2, seed=scenario.seed)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_protocol_network(
        scenario.protocol, sim, radio, rngs, trace, params, image, tracker
    )
    for node in nodes:
        node.flash = NodeFlash(node.node_id)

    plan = scenario.plan if scenario.plan is not None else FaultPlan()
    horizon = scenario.churn_horizon or scenario.max_time / 2.0
    if scenario.mtbf is not None:
        plan = plan.merge(crash_reboot_churn(
            rngs, [node.node_id for node in nodes],
            mtbf=scenario.mtbf, mttr=scenario.mttr, horizon=horizon,
        ))
    if scenario.link_flap > 0.0:
        links = sorted(
            (u, v) for u, nbrs in topo.neighbors.items() for v in nbrs
        )
        plan = plan.merge(link_flap_churn(
            rngs, links, p_flap=scenario.link_flap,
            down_time=scenario.flap_down_time,
            check_interval=scenario.flap_interval, horizon=horizon,
        ))
    injector = FaultInjector(sim, radio, trace, [base] + nodes, plan, rngs)
    injector.install()

    base.start()
    return run_network(
        sim, trace, tracker, nodes, scenario.protocol,
        max_time=scenario.max_time, expected_image=image.data, seed=scenario.seed,
    )


def run_multihop(
    scenario: MultiHopScenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Simulate a multi-hop dissemination over a grid and return metrics."""
    rngs = RngRegistry(scenario.seed)
    sim = sim if sim is not None else Simulator()
    trace = trace if trace is not None else TraceRecorder()
    topo = _build_topology(scenario, rngs)
    loss: LossModel
    if scenario.bursty_only:
        loss = GilbertElliottLoss()
    elif scenario.ambient:
        # Static link quality plus time-correlated ambient bursts — the
        # meyer-heavy environment the paper's TOSSIM runs sample.
        loss = CompositeLoss(
            PerLinkLoss(topo.link_loss),
            GilbertElliottLoss(loss_good=0.05, loss_bad=0.5, mean_good=6.0, mean_bad=2.0),
        )
    else:
        loss = PerLinkLoss(topo.link_loss)
    radio = Radio(sim, topo, loss, rngs, trace, config=RadioConfig(collisions=True))
    params = make_params(
        scenario.protocol,
        image_size=scenario.image_size,
        k=scenario.k,
        n=scenario.n,
        kprime=scenario.kprime,
        timing=scenario.timing,
    )
    image = CodeImage.synthetic(scenario.image_size, version=2, seed=scenario.seed)
    tracker = CompletionTracker(trace)
    base, nodes, pre = build_protocol_network(
        scenario.protocol, sim, radio, rngs, trace, params, image, tracker
    )
    base.start()
    return run_network(
        sim, trace, tracker, nodes, scenario.protocol,
        max_time=scenario.max_time, expected_image=image.data, seed=scenario.seed,
    )
