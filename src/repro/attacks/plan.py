"""Declarative attack specs.

An attack plan is a tuple of :class:`AttackSpec` records — pure data:
building one performs no simulation work, so specs can be read from JSON
(the ``--attack-plan`` CLI flag, :func:`load_attack_plan`), embedded in
frozen scenario dataclasses (stable campaign task keys), and deployed
deterministically by an :class:`~repro.attacks.engine.AttackEngine`.

Each spec names an attack *kind* (a key of
:data:`repro.attacks.models.ATTACK_KINDS`), its activation window, its firing
period, and a kind-specific parameter mapping passed to the attack model's
constructor.  ``position``/``reach`` control where the engine drops the
attacker into the topology (default: the victim centroid, audible to every
node within the longest legitimate link distance).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Tuple, Union

from repro.errors import ConfigError

__all__ = ["AttackSpec", "load_attack_plan"]


def _frozen_params(params: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class AttackSpec:
    """One attacker: kind, schedule, placement, and model parameters.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so the
    spec stays hashable and canonicalises deterministically inside frozen
    scenario dataclasses; :meth:`kwargs` rebuilds the constructor mapping.
    """

    kind: str
    start: float = 0.1
    period: float = 0.5
    stop: Optional[float] = None
    position: Optional[Tuple[float, float]] = None
    reach: Optional[float] = None
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.kind:
            raise ConfigError("attack spec needs a kind")
        if self.start < 0:
            raise ConfigError(f"attack start must be >= 0, got {self.start}")
        if self.period <= 0:
            raise ConfigError(f"attack period must be > 0, got {self.period}")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigError(
                f"attack stop {self.stop} must come after start {self.start}")
        if self.reach is not None and self.reach <= 0:
            raise ConfigError(f"attack reach must be > 0, got {self.reach}")
        if self.position is not None and len(self.position) != 2:
            raise ConfigError("attack position must be an (x, y) pair")
        # Normalise a mapping passed by a caller into the canonical tuple form.
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params", _frozen_params(self.params))

    def kwargs(self) -> dict:
        """The kind-specific constructor keyword arguments."""
        return dict(self.params)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "start": self.start, "period": self.period}
        if self.stop is not None:
            out["stop"] = self.stop
        if self.position is not None:
            out["position"] = list(self.position)
        if self.reach is not None:
            out["reach"] = self.reach
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "AttackSpec":
        if not isinstance(raw, dict) or "kind" not in raw:
            raise ConfigError(f"attack spec missing kind: {raw!r}")
        position = raw.get("position")
        params = raw.get("params")
        if params is not None and not isinstance(params, dict):
            raise ConfigError(
                f"attack params must be a JSON object, got {params!r}")
        return cls(
            kind=str(raw["kind"]),
            start=float(raw.get("start", 0.1)),
            period=float(raw.get("period", 0.5)),
            stop=(float(raw["stop"]) if raw.get("stop") is not None else None),
            position=(tuple(position) if position is not None else None),
            reach=(float(raw["reach"]) if raw.get("reach") is not None else None),
            params=_frozen_params(params),
        )


def load_attack_plan(path: Union[str, Path]) -> Tuple[AttackSpec, ...]:
    """Read an attack plan file: ``{"attacks": [spec, ...]}`` or a bare list.

    Each spec is an :meth:`AttackSpec.to_dict` object; an unreadable file,
    malformed JSON or a malformed spec raises :class:`ConfigError`.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read attack plan {path}: {exc.strerror}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"attack plan is not valid JSON: {exc}")
    specs = raw.get("attacks") if isinstance(raw, dict) else raw
    if not isinstance(specs, list):
        raise ConfigError('attack plan JSON must be {"attacks": [...]} or a list')
    return tuple(AttackSpec.from_dict(s) for s in specs)
