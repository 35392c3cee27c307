"""Adversarial scenarios: dissemination under composable attacks.

An :class:`AdversarialScenario` is the attack-facing sibling of the
canonical scenarios in :mod:`repro.experiments.scenarios`: one protocol
network on a star or grid topology, plus an :class:`~repro.attacks.plan.
AttackPlan` deployed through the :class:`~repro.attacks.engine.AttackEngine`,
an optional flag-gated :class:`~repro.protocols.defense.DefenseConfig`, and
an optional :class:`~repro.faults.plan.FaultPlan` (so attackers themselves
can crash and reboot mid-run — they are radio participants like any node).

Two deviations from the canonical setups, both deliberate:

* collisions are **on** even for star topologies — a reactive jammer's only
  damage channel is airtime contention, so the CSMA/collision model must
  run for attack results to mean anything;
* the flight recorder and structured event log are always attached —
  per-attacker damage attribution reads injected/delivered/auth-dropped
  frame counts from the per-link matrix, and the invariant checker
  (``quarantine_respected``, ``replay_never_rebuffered``) replays the log.

The runner folds attribution and the invariant verdict into the returned
:class:`~repro.experiments.metrics.RunResult` ``counters`` as plain ints
(``adv_attacker_<id>_injected`` …, ``invariant_violations``), so results
survive the campaign executor's JSON round-trip unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.attacks import AttackEngine, AttackContext, AttackModel, AttackPlan, AttackSpec
from repro.core.config import ProtocolTiming
from repro.core.image import CodeImage
from repro.errors import ConfigError
from repro.experiments.metrics import RunResult
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import _BUILDERS, _build_topology, make_params
from repro.faults.flash import NodeFlash
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.net.channel import BernoulliLoss, LossModel, PerLinkLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import Topology, star_topology
from repro.obs.events import EventLog
from repro.obs.flight import FlightRecorder
from repro.obs.invariants import check_events
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.protocols.defense import DefenseConfig

__all__ = [
    "AdversarialScenario",
    "AdversarialRig",
    "build_adversarial",
    "run_adversarial",
]

#: Protocols whose builders accept the SNACK flood guard / control-plane
#: authentication knobs (Seluge-family defenses; Deluge has no SNACK MACs).
_SECURED_PROTOCOLS = ("seluge", "lr-seluge")


@dataclass(frozen=True)
class AdversarialScenario:
    """One dissemination run with attackers, defenses, and faults attached.

    ``topology`` accepts ``star:<receivers>`` plus every multi-hop spec the
    canonical scenarios know (``tight``/``medium``/``grid:RxC:spacing``/
    ``random:n:side``).  ``loss_rate`` only applies to star topologies
    (app-layer Bernoulli loss); grids use their per-link loss model.

    The frozen dataclass form is load-bearing: the campaign executor hashes
    scenarios into stable task keys, so every field — including each
    :class:`AttackSpec` and :class:`FaultEvent` — must canonicalise.
    """

    protocol: str = "lr-seluge"
    topology: str = "star:8"
    loss_rate: float = 0.05
    image_size: int = 4096
    k: int = 8
    n: int = 12
    kprime: int = 0
    seed: int = 1
    max_time: float = 3600.0
    attacks: Tuple[AttackSpec, ...] = ()
    defense: Optional[DefenseConfig] = None
    snack_flood_threshold: Optional[int] = None
    control_auth: Optional[str] = None
    faults: Tuple[FaultEvent, ...] = ()
    check_invariants: bool = True
    timing: Optional[ProtocolTiming] = None
    label: str = ""

    def with_protocol(self, protocol: str) -> "AdversarialScenario":
        return replace(self, protocol=protocol)

    def undefended(self) -> "AdversarialScenario":
        """The same cell with every hardening layer switched off."""
        return replace(self, defense=None, snack_flood_threshold=None,
                       control_auth=None)


def _topology_for(scenario: AdversarialScenario, rngs: RngRegistry) -> Topology:
    spec = scenario.topology
    if spec.startswith("star"):
        _, _, dims = spec.partition(":")
        receivers = int(dims) if dims else 8
        if receivers < 1:
            raise ConfigError(f"star topology needs >= 1 receiver, got {receivers}")
        return star_topology(receivers)
    # _build_topology only reads ``.topology``, so the scenario duck-types.
    return _build_topology(scenario, rngs)  # type: ignore[arg-type]


@dataclass
class AdversarialRig:
    """A fully wired, not-yet-started adversarial simulation.

    :func:`build_adversarial` returns one so tests and the analyzer can hold
    on to the attacker instances, the flight recorder, and the event log;
    :meth:`run` starts everything and returns the enriched result.
    """

    scenario: AdversarialScenario
    sim: Simulator
    trace: TraceRecorder
    log: Optional[EventLog]
    flight: Optional[FlightRecorder]
    tracker: CompletionTracker
    radio: Radio
    base: object
    nodes: List[object]
    engine: AttackEngine
    attackers: List[AttackModel]
    image: CodeImage
    params: object = None
    pre: object = None
    _ran: bool = field(default=False, repr=False)

    def run(self) -> RunResult:
        """Start attackers and the base station, run to completion or the
        time horizon, and fold attribution + invariants into the result."""
        if self._ran:
            raise ConfigError("AdversarialRig.run() called twice")
        self._ran = True
        scenario = self.scenario
        self.engine.start_all()
        self.base.start()  # type: ignore[attr-defined]
        result = run_network(
            self.sim, self.trace, self.tracker, self.nodes, scenario.protocol,
            max_time=scenario.max_time, expected_image=self.image.data,
            seed=scenario.seed,
        )
        if self.flight is not None:
            self.flight.finalize(self.sim.now)
            result.counters.update(
                _attribution(self.flight, self.engine.attacker_ids))
        if scenario.check_invariants and self.log is not None:
            report = check_events(self.log)
            result.counters["invariant_violations"] = len(report.violations)
        return result


def _attribution(flight: FlightRecorder, attacker_ids: List[int]) -> Dict[str, int]:
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


def build_adversarial(
    scenario: AdversarialScenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> AdversarialRig:
    """Wire one adversarial run without starting it.

    A caller-supplied ``trace`` keeps its own sink/flight attachments (no
    attribution or invariant check if it lacks them); by default the rig
    attaches an :class:`EventLog` sink and a :class:`FlightRecorder`.
    """
    rngs = RngRegistry(scenario.seed)
    sim = sim if sim is not None else Simulator()
    if trace is None:
        log: Optional[EventLog] = EventLog()
        flight: Optional[FlightRecorder] = FlightRecorder(log)
        trace = TraceRecorder(sink=log, flight=flight)
    else:
        sink = getattr(trace, "sink", None)
        log = sink if isinstance(sink, EventLog) else None
        flight = trace.flight  # may be None

    topo = _topology_for(scenario, rngs)
    loss: LossModel
    if scenario.topology.startswith("star"):
        loss = BernoulliLoss(scenario.loss_rate)
    else:
        loss = PerLinkLoss(topo.link_loss)
    radio = Radio(sim, topo, loss, rngs, trace,
                  config=RadioConfig(collisions=True))

    params = make_params(
        scenario.protocol, image_size=scenario.image_size, k=scenario.k,
        n=scenario.n, kprime=scenario.kprime, timing=scenario.timing,
    )
    image = CodeImage.synthetic(scenario.image_size, version=2,
                                seed=scenario.seed)
    tracker = CompletionTracker(trace)

    # Attackers halt once every victim holds the image: their periodic
    # processes would otherwise keep churning the event heap (and the trace)
    # long after there is anything left to attack.
    engines: List[AttackEngine] = []

    def on_complete(node: object) -> None:
        tracker(node)
        if tracker.all_done:
            for eng in engines:
                eng.halt_all()

    builder = _BUILDERS.get(scenario.protocol)
    if builder is None:
        raise ConfigError(f"unknown protocol {scenario.protocol!r}")
    kwargs = dict(image=image, on_complete=on_complete,
                  defense=scenario.defense)
    if scenario.protocol in _SECURED_PROTOCOLS:
        kwargs["snack_flood_threshold"] = scenario.snack_flood_threshold
        kwargs["control_auth"] = scenario.control_auth
    elif scenario.snack_flood_threshold is not None or scenario.control_auth:
        raise ConfigError(
            f"{scenario.protocol!r} has no SNACK flood guard / control auth")
    base, nodes, pre = builder(sim, radio, rngs, trace, params, **kwargs)

    plan = AttackPlan(scenario.attacks)
    context = AttackContext(base=base, nodes=tuple(nodes), preprocessed=pre)
    engine = AttackEngine(sim, radio, rngs, trace, plan, context=context)
    attackers = engine.deploy()
    engines.append(engine)

    if scenario.faults:
        for node in nodes:
            node.flash = NodeFlash(node.node_id)
        injector = FaultInjector(sim, radio, trace, [base] + nodes + attackers,
                                 FaultPlan(scenario.faults), rngs)
        injector.install()

    return AdversarialRig(
        scenario=scenario, sim=sim, trace=trace, log=log, flight=flight,
        tracker=tracker, radio=radio, base=base, nodes=list(nodes),
        engine=engine, attackers=attackers, image=image, params=params,
        pre=pre,
    )


def run_adversarial(
    scenario: AdversarialScenario,
    sim: Optional[Simulator] = None,
    trace: Optional[TraceRecorder] = None,
) -> RunResult:
    """Simulate one adversarial dissemination and return enriched metrics."""
    return build_adversarial(scenario, sim=sim, trace=trace).run()
