"""Scenarios: one frozen description of a run, and the one rig that wires it.

One-hop (Section VI-B): a fully connected star — one sender, ``N`` local
receivers — with losses emulated at the application layer: every node drops
each received data/advertisement/SNACK packet independently with probability
``p``.  Collision modelling is off, exactly as in the paper's setup.

Multi-hop (Section VI-C): 15x15 mica2-style grids (tight/medium density)
with per-link loss probabilities from the propagation model and the CSMA
collision model enabled.

A :class:`Scenario` describes either setup, plus optional attackers.
:func:`build_rig` wires it — topology, loss, radio, protocol network,
attackers — in one fixed order, and :meth:`Rig.run` starts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.attacks import AttackEngine, AttackModel, AttackSpec
from repro.core.config import DelugeParams, ImageConfig, LRSelugeParams, ProtocolTiming, SelugeParams
from repro.core.image import CodeImage
from repro.errors import ConfigError
from repro.experiments.metrics import RunResult
from repro.experiments.runner import CompletionTracker, run_network
from repro.net.channel import (
    BernoulliLoss,
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
from repro.net.topology_file import load_topology
from repro.protocols.common import DisseminationNode
from repro.protocols.deluge import build_deluge_network
from repro.protocols.lr_seluge import build_lr_seluge_network
from repro.protocols.seluge import build_seluge_network
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = [
    "Scenario",
    "Rig",
    "OneHopScenario",
    "MultiHopScenario",
    "build_rig",
    "run_scenario",
    "run_one_hop",
    "run_multihop",
    "build_protocol_network",
    "make_params",
    "topology_from_spec",
]

_BUILDERS = {
    "deluge": build_deluge_network,
    "seluge": build_seluge_network,
    "lr-seluge": build_lr_seluge_network,
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
    if protocol == "deluge":
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
        sim, radio, rngs, trace, params, image=image, on_complete=on_complete,
    )


@dataclass(frozen=True)
class Scenario:
    """One dissemination run: network, channel, image and attackers.

    ``topology`` is ``star:<receivers>``, ``tight``/``medium[:RxC]``,
    ``grid:RxC:spacing``, ``random:nodes:side`` or ``file:<path>`` (see
    :func:`topology_from_spec`).  A star uses the app-layer Bernoulli
    ``loss_rate``; every other topology uses its per-link loss, with the
    ambient Gilbert-Elliott bursts on top when ``ambient`` is set.

    The frozen dataclass form is load-bearing: the campaign executor hashes
    scenarios into stable task keys, so every field — including each
    :class:`AttackSpec` — must canonicalise.
    """

    protocol: str = "lr-seluge"
    topology: str = "tight"
    loss_rate: float = 0.1
    ambient: bool = True
    collisions: bool = True
    image_size: int = 20 * 1024
    k: int = 32
    n: int = 48
    kprime: int = 0
    seed: int = 1
    max_time: float = 7200.0
    timing: Optional[ProtocolTiming] = None
    attacks: Tuple[AttackSpec, ...] = ()


def OneHopScenario(receivers: int = 20, **fields) -> Scenario:
    """Section VI-B defaults: a star of ``receivers``, collisions off."""
    return Scenario(**{"topology": f"star:{receivers}", "collisions": False,
                       **fields})


def MultiHopScenario(**fields) -> Scenario:
    """Section VI-C defaults: the tight 15x15 grid, four simulated hours."""
    return Scenario(**{"topology": "tight", "max_time": 14400.0, **fields})


_TOPOLOGY_FORMS = ("star:N, tight[:RxC], medium[:RxC], grid:RxC:SPACING, "
                  "random:N:SIDE or file:PATH")


def _topology_fields(kind: str, rest: str) -> tuple:
    """The numbers a ``kind:rest`` spec gives its builder; ``ValueError``
    when a field does not split or parse, or the kind is unknown."""
    if kind == "star":
        return (int(rest),)
    if kind in ("tight", "medium"):
        rows, cols = (15, 15) if not rest else map(int, rest.split("x"))
        return rows, cols
    if kind == "grid":
        dims, spacing = rest.split(":")
        rows, cols = map(int, dims.split("x"))
        return rows, cols, float(spacing)
    if kind == "random":
        # "random:<nodes>:<area-side-m>" — the TinyOS topology-tool analogue.
        n_nodes, side = rest.split(":")
        return int(n_nodes), float(side)
    raise ValueError(kind)


def topology_from_spec(spec: str, rngs: RngRegistry) -> Topology:
    """Build the topology a scenario's ``topology`` string names.

    A spec of none of the accepted forms raises :class:`ConfigError` naming
    them; an error from the builder itself propagates unchanged.
    """
    kind, _, rest = spec.partition(":")
    if kind == "file":
        return load_topology(rest)
    try:
        fields = _topology_fields(kind, rest)
    except ValueError:
        raise ConfigError(f"bad topology {spec!r}; expected {_TOPOLOGY_FORMS}") from None
    if kind == "star":
        if fields[0] < 1:
            raise ConfigError(f"star topology needs >= 1 receiver, got {fields[0]}")
        return star_topology(*fields)
    if kind == "grid":
        rows, cols, spacing = fields
        return grid_topology(rows, cols, spacing=spacing, rngs=rngs)
    if kind == "random":
        return random_disk_topology(*fields, rngs)
    rows, cols = fields
    build = mica2_grid_tight if kind == "tight" else mica2_grid_medium
    return build(rngs, rows=rows, cols=cols)


def _loss(scenario: Scenario, topo: Topology) -> LossModel:
    """The scenario's channel: the one place a loss model is chosen."""
    if scenario.topology.startswith("star"):
        return BernoulliLoss(scenario.loss_rate)
    if not scenario.ambient:
        return PerLinkLoss(topo.link_loss)
    # Static link quality plus time-correlated ambient bursts — the
    # meyer-heavy environment the paper's TOSSIM runs sample.
    return GilbertElliottLoss(loss_good=0.05, loss_bad=0.5, mean_good=6.0,
                              mean_bad=2.0, loss_map=topo.link_loss)


@dataclass
class Rig:
    """A fully wired, not-yet-started run.

    :func:`build_rig` returns one so callers can adjust nodes or the radio
    before the run, and hold on to the attackers and the trace after it.
    """

    scenario: Scenario
    sim: Simulator
    trace: TraceRecorder
    radio: Radio
    tracker: CompletionTracker
    base: DisseminationNode
    nodes: List[DisseminationNode]
    engine: AttackEngine
    image: CodeImage

    @property
    def attackers(self) -> List[AttackModel]:
        return self.engine.attackers

    def run(self) -> RunResult:
        """Start the attackers, then the base station, and run to completion
        or the scenario's time horizon."""
        scenario = self.scenario
        self.engine.start_all()
        self.base.start()
        return run_network(
            self.sim, self.trace, self.tracker, self.nodes, scenario.protocol,
            max_time=scenario.max_time, expected_image=self.image.data,
            seed=scenario.seed,
        )


def build_rig(
    scenario: Scenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> Rig:
    """Wire one run without starting it.

    ``sim``/``trace`` may be supplied by observability callers (profiler
    installed, structured-event sink or recorders attached); defaults are
    fresh instances and the run is bit-identical either way.
    """
    rngs = RngRegistry(scenario.seed)
    sim = sim if sim is not None else Simulator()
    trace = trace if trace is not None else TraceRecorder()
    topo = topology_from_spec(scenario.topology, rngs)
    radio = Radio(sim, topo, _loss(scenario, topo), rngs, trace,
                  config=RadioConfig(collisions=scenario.collisions))
    params = make_params(
        scenario.protocol, image_size=scenario.image_size, k=scenario.k,
        n=scenario.n, kprime=scenario.kprime, timing=scenario.timing,
    )
    image = CodeImage.synthetic(scenario.image_size, version=2, seed=scenario.seed)
    tracker = CompletionTracker(trace)

    # Attackers halt once every victim holds the image: their periodic
    # processes would otherwise keep churning the event heap (and the trace)
    # long after there is anything left to attack.
    def on_complete(node: DisseminationNode) -> None:
        tracker(node)
        if tracker.all_done:
            engine.halt_all()

    base, nodes, _ = build_protocol_network(
        scenario.protocol, sim, radio, rngs, trace, params, image, on_complete,
    )
    engine = AttackEngine(sim, radio, rngs, trace, scenario.attacks)
    engine.deploy()
    return Rig(scenario=scenario, sim=sim, trace=trace, radio=radio,
               tracker=tracker, base=base, nodes=list(nodes), engine=engine,
               image=image)


def run_scenario(
    scenario: Scenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Simulate one dissemination and return its metrics."""
    return build_rig(scenario, sim=sim, trace=trace).run()


# The family runners' names, which perfbench calls.
run_one_hop = run_multihop = run_scenario
