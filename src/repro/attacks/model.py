"""The adversary base class.

An :class:`AttackModel` is a radio-attached node that fires attack traffic on
a period (via :class:`~repro.sim.process.PeriodicProcess`), snoops
advertisements to target its victims, and stops in one of two ways:

* :meth:`halt` — the :class:`~repro.attacks.engine.AttackEngine` halts every
  attacker the instant all victims report completion, so attack scenarios
  stop inflating event counts after the interesting part is over;
* an optional absolute ``stop_time`` from the spec's activation window.

Concrete attacks subclass this and set a class-level ``kind`` string, the
name an :class:`~repro.attacks.plan.AttackSpec` uses for them
(:data:`repro.attacks.models.ATTACK_KINDS`).
"""

from __future__ import annotations

from typing import ClassVar, Optional

from repro.net.node import NetworkNode
from repro.net.packet import Frame, FrameKind
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["AttackModel"]


class AttackModel(NetworkNode):
    """Base adversary: periodic attack traffic plus lifecycle management."""

    kind: ClassVar[str] = ""

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rngs: RngRegistry,
        trace: TraceRecorder,
        period: float = 0.5,
        start_delay: float = 0.1,
        stop_time: Optional[float] = None,
    ):
        super().__init__(node_id, sim, radio, rngs, trace)
        self.sent = 0
        self.halted = False
        self._period = period
        self._start_delay = start_delay
        self._stop_time = stop_time
        self._process: Optional[PeriodicProcess] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic attack loop (idempotent while running)."""
        if self._process is not None or self.halted:
            return
        self._process = PeriodicProcess(
            self.sim, self._fire, self._period, start_delay=self._start_delay
        )

    def halt(self) -> None:
        """Permanently stop attacking (victims completed, or window closed)."""
        if self.halted:
            return
        if self._process is not None:
            self._process.stop()
            self._process = None
        self.halted = True
        self.trace.record(self.sim.now, "attack_halted", self.node_id,
                          attack=self.kind, sent=self.sent)

    # -- attack machinery ----------------------------------------------------

    def _fire(self) -> None:
        if self._stop_time is not None and self.sim.now >= self._stop_time:
            self.halt()
            return
        self._attack_once()

    def _attack_once(self) -> None:
        raise NotImplementedError

    def on_receive(self, frame: Frame, sender: int) -> None:
        if self.halted:
            return
        # Attackers snoop advertisements to target the current page.
        if frame.kind is FrameKind.ADV:
            self._observe_adv(frame.payload, sender)

    def _observe_adv(self, adv, sender: int) -> None:
        """Hook: an advertisement was overheard."""
