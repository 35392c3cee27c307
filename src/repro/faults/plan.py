"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent` records.  It
is pure data: building a plan performs no simulation work, so plans can be
generated, merged, serialised to JSON (the ``--fault-plan`` CLI flag), and
replayed deterministically by a :class:`~repro.faults.injector.FaultInjector`.

Event kinds and their required fields:

==============  =======================================================
``crash``       ``node`` — the node loses RAM and leaves the air
``reboot``      ``node`` — power restored; recovery re-verifies flash
``link-down``   ``link=(u, v)`` — the directed link stops delivering
``link-up``     ``link=(u, v)`` — the directed link delivers again
``partition``   ``groups`` — cut every link between different groups
``heal``        no fields — restore the links the last partition cut
``corrupt``     ``duration`` (+ ``rate``, ``mode``) — for ``duration``
                seconds each delivery is tampered with probability
                ``rate``: ``flip`` mangles a data payload byte,
                ``truncate`` cuts the payload short, ``drop`` models a
                link-layer CRC failure
==============  =======================================================

A base-station outage is just ``crash``/``reboot`` aimed at the base node.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]

CORRUPT_MODES = ("flip", "truncate", "drop")


class FaultKind(str, enum.Enum):
    NODE_CRASH = "crash"
    NODE_REBOOT = "reboot"
    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    PARTITION = "partition"
    HEAL = "heal"
    CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault; only the fields its kind needs are set."""

    time: float
    kind: FaultKind
    node: Optional[int] = None
    link: Optional[Tuple[int, int]] = None
    groups: Optional[Tuple[Tuple[int, ...], ...]] = None
    duration: Optional[float] = None
    rate: float = 1.0
    mode: str = "flip"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"fault time must be >= 0, got {self.time}")
        kind = self.kind
        if kind in (FaultKind.NODE_CRASH, FaultKind.NODE_REBOOT):
            if self.node is None:
                raise ConfigError(f"{kind.value} event needs a node id")
        elif kind in (FaultKind.LINK_DOWN, FaultKind.LINK_UP):
            if self.link is None or len(self.link) != 2:
                raise ConfigError(f"{kind.value} event needs a (sender, receiver) link")
        elif kind is FaultKind.PARTITION:
            if not self.groups or len(self.groups) < 2:
                raise ConfigError("partition event needs at least two node groups")
            flat = [n for g in self.groups for n in g]
            if len(flat) != len(set(flat)):
                raise ConfigError("partition groups must be disjoint")
        elif kind is FaultKind.CORRUPT:
            if self.duration is None or self.duration <= 0:
                raise ConfigError("corrupt event needs a positive duration")
            if not 0.0 < self.rate <= 1.0:
                raise ConfigError(f"corrupt rate {self.rate} outside (0, 1]")
            if self.mode not in CORRUPT_MODES:
                raise ConfigError(f"corrupt mode must be one of {CORRUPT_MODES}")

    def to_dict(self) -> dict:
        out: dict = {"time": self.time, "kind": self.kind.value}
        if self.node is not None:
            out["node"] = self.node
        if self.link is not None:
            out["link"] = list(self.link)
        if self.groups is not None:
            out["groups"] = [list(g) for g in self.groups]
        if self.duration is not None:
            out["duration"] = self.duration
        if self.kind is FaultKind.CORRUPT:
            out["rate"] = self.rate
            out["mode"] = self.mode
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "FaultEvent":
        try:
            kind = FaultKind(raw["kind"])
        except (KeyError, ValueError):
            raise ConfigError(f"unknown fault kind in {raw!r}")
        if "time" not in raw:
            raise ConfigError(f"fault event missing time: {raw!r}")
        link = raw.get("link")
        groups = raw.get("groups")
        return cls(
            time=float(raw["time"]),
            kind=kind,
            node=raw.get("node"),
            link=tuple(link) if link is not None else None,
            groups=tuple(tuple(g) for g in groups) if groups is not None else None,
            duration=raw.get("duration"),
            rate=float(raw.get("rate", 1.0)),
            mode=raw.get("mode", "flip"),
        )


class FaultPlan:
    """A buildable, mergeable, JSON-round-trippable list of fault events.

    Events are replayed in ``(time, insertion order)`` order, matching the
    simulator's tie-breaking, so a plan fully determines the fault trace.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: List[FaultEvent] = list(events)

    # -- building ------------------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultPlan":
        self._events.append(event)
        return self

    def crash(self, time: float, node: int,
              reboot_after: Optional[float] = None) -> "FaultPlan":
        """Crash ``node``; with ``reboot_after`` also schedule its reboot."""
        self.add(FaultEvent(time, FaultKind.NODE_CRASH, node=node))
        if reboot_after is not None:
            if reboot_after <= 0:
                raise ConfigError("reboot_after must be positive")
            self.reboot(time + reboot_after, node)
        return self

    def reboot(self, time: float, node: int) -> "FaultPlan":
        return self.add(FaultEvent(time, FaultKind.NODE_REBOOT, node=node))

    def link_down(self, time: float, sender: int, receiver: int) -> "FaultPlan":
        return self.add(FaultEvent(time, FaultKind.LINK_DOWN, link=(sender, receiver)))

    def link_up(self, time: float, sender: int, receiver: int) -> "FaultPlan":
        return self.add(FaultEvent(time, FaultKind.LINK_UP, link=(sender, receiver)))

    def partition(self, time: float, *groups: Iterable[int],
                  heal_after: Optional[float] = None) -> "FaultPlan":
        """Cut every link between nodes in different groups."""
        self.add(FaultEvent(
            time, FaultKind.PARTITION,
            groups=tuple(tuple(g) for g in groups),
        ))
        if heal_after is not None:
            if heal_after <= 0:
                raise ConfigError("heal_after must be positive")
            self.heal(time + heal_after)
        return self

    def heal(self, time: float) -> "FaultPlan":
        return self.add(FaultEvent(time, FaultKind.HEAL))

    def corrupt(self, time: float, duration: float, rate: float = 1.0,
                mode: str = "flip") -> "FaultPlan":
        return self.add(FaultEvent(
            time, FaultKind.CORRUPT, duration=duration, rate=rate, mode=mode
        ))

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """A new plan holding this plan's events followed by ``other``'s."""
        return FaultPlan(self._events + other._events)

    # -- access --------------------------------------------------------------

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """All events, stably sorted by time."""
        return tuple(sorted(self._events, key=lambda e: e.time))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan({len(self._events)} events)"

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"events": [e.to_dict() for e in self.events]}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}")
        events = raw.get("events") if isinstance(raw, dict) else raw
        if not isinstance(events, list):
            raise ConfigError('fault plan JSON must be {"events": [...]} or a list')
        return cls(FaultEvent.from_dict(e) for e in events)

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "FaultPlan":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read fault plan {path}: {exc.strerror}")
        return cls.from_json(text)
