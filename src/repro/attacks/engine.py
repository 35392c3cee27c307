"""Deploying attack specs into live scenarios.

The :class:`AttackEngine` turns a scenario's declarative :class:`~repro.
attacks.plan.AttackSpec` tuple into radio-attached attacker nodes: it
allocates fresh node ids above the legitimate population, extends the
scenario's :class:`~repro.net.topology.Topology` *in place* (so per-link
channel models that hold a reference to ``link_loss`` see the new links),
instantiates each spec's model, and manages the fleet's lifecycle — most
importantly :meth:`halt_all`, which the completion callback wires up so
attackers stop firing the instant every victim reports completion instead
of inflating event counts until ``max_time``.
"""

from __future__ import annotations

import inspect
import typing
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.model import AttackModel
from repro.attacks.models import ATTACK_KINDS
from repro.attacks.plan import AttackSpec
from repro.errors import ConfigError
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["AttackEngine"]

#: Synthetic links to/from attackers are clean and loud: the adversary picks
#: its spot and transmit power, so the *channel* never saves the victims.
_ATTACK_LINK_RX_DBM = -50.0


def _kind_params(cls: type) -> Dict[str, type]:
    """The kind-specific parameters ``cls`` takes, with their annotated
    types: its keyword-only ones (the engine passes the shared ones itself)."""
    hints = typing.get_type_hints(cls.__init__)
    return {
        name: hints[name]
        for name, param in inspect.signature(cls).parameters.items()
        if param.kind is param.KEYWORD_ONLY}


class AttackEngine:
    """Instantiate, place, and manage the attackers of a spec tuple."""

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        rngs: RngRegistry,
        trace: TraceRecorder,
        specs: Sequence[AttackSpec],
    ):
        self.sim = sim
        self.radio = radio
        self.rngs = rngs
        self.trace = trace
        self.specs = tuple(specs)
        self.attackers: List[AttackModel] = []

    # -- placement -----------------------------------------------------------

    def _default_position(self) -> Tuple[float, float]:
        """The victim centroid: maximally audible without a site survey."""
        positions = list(self.radio.topology.positions.values())
        n = len(positions)
        return (sum(p[0] for p in positions) / n, sum(p[1] for p in positions) / n)

    def _default_reach(self) -> float:
        """The longest legitimate link: the attacker is at least as capable."""
        topo = self.radio.topology
        dists = [topo.distance(u, v) for (u, v) in topo.link_loss]
        return max(dists) if dists else float("inf")

    def _place(self, node_id: int, position: Optional[Tuple[float, float]],
               reach: Optional[float]) -> None:
        topo = self.radio.topology
        pos = tuple(position) if position is not None else self._default_position()
        radius = reach if reach is not None else self._default_reach()
        victims = topo.node_ids  # before the attacker joins
        topo.positions[node_id] = (float(pos[0]), float(pos[1]))
        topo.neighbors[node_id] = []
        for v in victims:
            if topo.distance(node_id, v) > radius + 1e-9:
                continue
            for a, b in ((node_id, v), (v, node_id)):
                topo.neighbors[a].append(b)
                topo.link_loss[(a, b)] = 0.0
                topo.link_rx_power[(a, b)] = _ATTACK_LINK_RX_DBM
        if not topo.neighbors[node_id]:
            raise ConfigError(
                f"attacker {node_id} at {pos} reaches no nodes "
                f"(reach {radius:g}); widen reach or move it")

    # -- lifecycle -----------------------------------------------------------

    def deploy(self) -> List[AttackModel]:
        """Create one attacker node per spec (ids above the victims)."""
        if self.attackers:
            raise ConfigError("attack engine already deployed")
        topo = self.radio.topology
        next_id = (max(topo.node_ids) + 1) if topo.positions else 0
        for spec in self.specs:
            cls = ATTACK_KINDS.get(spec.kind)
            if cls is None:
                raise ConfigError(f"unknown attack kind {spec.kind!r} "
                                  f"(known: {', '.join(sorted(ATTACK_KINDS))})")
            accepted = _kind_params(cls)
            kwargs = spec.kwargs()
            unknown = sorted(set(kwargs) - set(accepted))
            if unknown:
                raise ConfigError(
                    f"unknown parameter(s) {', '.join(unknown)} for attack "
                    f"kind {spec.kind!r} (accepted: {', '.join(accepted)})")
            for name, value in kwargs.items():
                want = accepted[name]
                # JSON true/false must not pass as an int, though bool is one.
                if not isinstance(value, want) or (
                        isinstance(value, bool) and want is not bool):
                    raise ConfigError(
                        f"parameter {name} of attack kind {spec.kind!r} must "
                        f"be {want.__name__}, got {value!r}")
            node_id = next_id
            next_id += 1
            self._place(node_id, spec.position, spec.reach)
            attacker = cls(
                node_id, self.sim, self.radio, self.rngs, self.trace,
                period=spec.period, start_delay=spec.start,
                stop_time=spec.stop, **kwargs,
            )
            self.trace.record(self.sim.now, "attack_deployed", node_id,
                              attack=spec.kind)
            self.attackers.append(attacker)
        return list(self.attackers)

    @property
    def attacker_ids(self) -> Tuple[int, ...]:
        return tuple(a.node_id for a in self.attackers)

    def start_all(self) -> None:
        for attacker in self.attackers:
            attacker.start()

    def halt_all(self) -> None:
        """Permanently silence the fleet (all victims completed).

        Safe on crashed attackers too: ``halt`` marks them finished so a
        later :meth:`~repro.attacks.model.AttackModel.reboot` cannot resume
        the attack loop.
        """
        for attacker in self.attackers:
            attacker.halt()
