"""Replayable fault schedules: which persist operation fails, and how.

A schedule combines two layers:

* **explicit specs** (:class:`FaultSpec`) — "the 3rd fsync of status.json
  gets EIO" — matched by operation kind, path substring, absolute op index,
  or nth occurrence;
* **rate-driven injection** — each matching operation draws once from a
  stream derived via :func:`repro.sim.rng.derived_stream` ``("chaos", seed,
  ...)``, so the same seed over the same (deterministic) operation stream
  injects the same failures, every run, every platform.  This is the same
  discipline the simulator applies to packet loss: randomness is replayable
  or it does not exist.

Schedules serialise to/from JSON so a CI job or a bug report can pin the
exact failure plan that produced a state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.chaos.fs import FAULT_KINDS, OpRecord
from repro.errors import ConfigError
from repro.sim.rng import derived_stream

__all__ = ["FaultSpec", "FaultSchedule", "SCHEDULE_SCHEMA_VERSION"]

SCHEDULE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FaultSpec:
    """One targeted fault: where it fires and what it injects.

    Matching is the conjunction of every non-``None`` field; ``nth`` counts
    *matching* operations (1-based), so "the 2nd write to checkpoint.jsonl"
    is ``FaultSpec(kind="enospc", op="write",
    path_substring="checkpoint.jsonl", nth=2)``.  ``once=True`` (the default) retires the spec after it fires.
    """

    kind: str
    op: Optional[str] = None
    path_substring: Optional[str] = None
    index: Optional[int] = None
    nth: Optional[int] = None
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )

    def matches(self, rec: OpRecord) -> bool:
        if self.op is not None and rec.op != self.op:
            return False
        if self.index is not None and rec.index != self.index:
            return False
        if (
            self.path_substring is not None
            and self.path_substring not in rec.path
        ):
            return False
        return True


class FaultSchedule:
    """Decides, operation by operation, which fault (if any) to inject.

    Explicit specs are consulted first, in order; the rate layer draws one
    uniform sample per operation that passes the ``rate_paths`` filter and
    maps it onto the cumulative ``rates`` table.  All state needed for
    ``nth``/``once`` bookkeeping lives on the instance, so one schedule
    serves one run — build a fresh one (same arguments) to replay.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        rates: Optional[Dict[str, float]] = None,
        rate_paths: Sequence[str] = (),
        rate_ops: Sequence[str] = (),
        seed: int = 0,
    ) -> None:
        self.specs = list(specs)
        self.rates = dict(rates or {})
        for kind, rate in self.rates.items():
            if kind not in FAULT_KINDS:
                raise ConfigError(f"unknown fault kind in rates: {kind!r}")
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"rate for {kind!r} must be in [0, 1]")
        if sum(self.rates.values()) > 1.0:
            raise ConfigError("fault rates must sum to <= 1.0")
        self.rate_paths = tuple(rate_paths)
        self.rate_ops = tuple(rate_ops)
        self.seed = int(seed)
        self._rng = (
            derived_stream("chaos", self.seed) if self.rates else None
        )
        self._match_counts: Dict[int, int] = {}
        self._fired: Set[int] = set()
        self.injected: List[Tuple[str, OpRecord]] = []

    # -- decision --------------------------------------------------------------

    def _rate_eligible(self, rec: OpRecord) -> bool:
        if self.rate_ops and rec.op not in self.rate_ops:
            return False
        if self.rate_paths and not any(p in rec.path for p in self.rate_paths):
            return False
        return True

    def fault_for(self, rec: OpRecord) -> Optional[str]:
        for i, spec in enumerate(self.specs):
            if not spec.matches(rec):
                continue
            count = self._match_counts.get(i, 0) + 1
            self._match_counts[i] = count
            if spec.nth is not None and count != spec.nth:
                continue
            if spec.once and i in self._fired:
                continue
            self._fired.add(i)
            self.injected.append((spec.kind, rec))
            return spec.kind
        if self._rng is not None and self._rate_eligible(rec):
            draw = self._rng.random()
            cumulative = 0.0
            for kind in sorted(self.rates):
                cumulative += self.rates[kind]
                if draw < cumulative:
                    self.injected.append((kind, rec))
                    return kind
        return None

    def injected_summary(self) -> List[Dict[str, Any]]:
        return [
            {"kind": kind, "op": rec.op, "index": rec.index, "path": rec.path}
            for kind, rec in self.injected
        ]

    # -- (de)serialisation -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEDULE_SCHEMA_VERSION,
            "specs": [asdict(s) for s in self.specs],
            "rates": dict(self.rates),
            "rate_paths": list(self.rate_paths),
            "rate_ops": list(self.rate_ops),
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "FaultSchedule":
        version = data.get("schema_version", SCHEDULE_SCHEMA_VERSION)
        if version != SCHEDULE_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported fault-plan schema_version {version!r}"
            )
        return cls(
            specs=[FaultSpec(**spec) for spec in data.get("specs", [])],
            rates=dict(data.get("rates", {})),
            rate_paths=tuple(data.get("rate_paths", ())),
            rate_ops=tuple(data.get("rate_ops", ())),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultSchedule":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"unreadable fault plan {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan {path} must be a JSON object")
        return cls.from_jsonable(data)
