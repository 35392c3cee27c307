"""Protocol-side hardening against DoS adversaries (DESIGN.md §12).

Four individually flag-gated defenses, so scorecard ablations can measure
each one's contribution:

* **rate_limit** — a per-neighbor token bucket on the *serving* path: SNACKs
  beyond the bucket's sustained rate are ignored, and a neighbor that keeps
  pushing past an empty bucket accumulates strikes until it is quarantined
  (all its control traffic dropped) for a fixed duration.  Keyed on the
  link-layer sender — the one identity a Sybil attacker cannot multiply —
  where the paper's Section IV-E SNACK counter keys on the *claimed*
  requester id and is therefore Sybil-evadable.
* **backoff** — capped exponential backoff with jitter on repeated
  unanswered SNACK retries, replacing the fixed ``request_timeout`` re-arm:
  a neighborhood whose server vanished stops hammering the channel.
* **replay_filter** — a bounded window over recently seen packet identities:
  a SNACK identical to one recently relayed by a *different* link-layer
  sender is dropped (legitimate same-sender retries always pass), and stale
  data frames for already-completed pages are only allowed to touch the
  quiet-window timers once per identity per window.
* **stall_watchdog** — an adaptive no-progress timeout (a multiple of the
  node's EWMA page-completion time): when a page stalls — e.g. a greyhole
  relay swallowing every request — the node rotates to an alternate server,
  clears its suppression state, and gossips fast to resynchronise.

:class:`DefenseConfig` is pure, frozen configuration (hashable, so frozen
scenario dataclasses embed it directly into campaign task keys);
:class:`NeighborGuard` is the per-node runtime state behind ``rate_limit``
and ``replay_filter``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Dict, Hashable, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["DefenseConfig", "NeighborGuard", "DEFENSE_FLAGS"]

#: The gate flags, in ablation-matrix order (DESIGN.md §12 table).
DEFENSE_FLAGS = ("rate_limit", "backoff", "replay_filter", "stall_watchdog")


@dataclass(frozen=True)
class DefenseConfig:
    """Which defenses are active, and their tuning parameters.

    Defaults keep every flag off — constructing a node with
    ``defense=DefenseConfig()`` is behaviourally identical to
    ``defense=None`` (the hot path only pays an ``is not None`` check).
    """

    rate_limit: bool = False
    backoff: bool = False
    replay_filter: bool = False
    stall_watchdog: bool = False

    # rate_limit: token bucket + quarantine.  The sustained rate is set just
    # above the worst honest case (one SNACK per request_timeout = ~1.4/s);
    # the burst absorbs a neighborhood-wide loss episode.
    bucket_capacity: float = 10.0
    bucket_refill_per_s: float = 1.5
    quarantine_strikes: int = 8
    quarantine_duration_s: float = 120.0

    # backoff: delay = request_timeout * factor**(tries-1), capped, jittered.
    backoff_factor: float = 2.0
    backoff_cap_s: float = 8.0
    backoff_jitter: float = 0.25

    # replay_filter: identity window.
    replay_window_s: float = 30.0
    replay_capacity: int = 512

    # stall_watchdog: timeout = clamp(page_ewma * factor, min, max).
    stall_min_s: float = 5.0
    stall_max_s: float = 60.0
    stall_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.bucket_capacity <= 0 or self.bucket_refill_per_s <= 0:
            raise ConfigError("token bucket needs positive capacity and refill")
        if self.quarantine_strikes < 1:
            raise ConfigError("quarantine_strikes must be >= 1")
        if self.quarantine_duration_s <= 0:
            raise ConfigError("quarantine_duration_s must be > 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.backoff_cap_s <= 0:
            raise ConfigError("backoff_cap_s must be > 0")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ConfigError("backoff_jitter must be in [0, 1)")
        if self.replay_window_s <= 0 or self.replay_capacity < 1:
            raise ConfigError("replay window needs positive span and capacity")
        if not 0 < self.stall_min_s <= self.stall_max_s:
            raise ConfigError("need 0 < stall_min_s <= stall_max_s")
        if self.stall_factor < 1.0:
            raise ConfigError("stall_factor must be >= 1")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def all_on(cls, **overrides: object) -> "DefenseConfig":
        """Every defense enabled (the scorecard's 'defended' column)."""
        flags = {flag: True for flag in DEFENSE_FLAGS}
        flags.update(overrides)  # type: ignore[arg-type]
        return cls(**flags)  # type: ignore[arg-type]

    @classmethod
    def from_flags(cls, spec: str) -> Optional["DefenseConfig"]:
        """Parse a CLI spec: ``none``, ``all``, or ``flag1,flag2,...``."""
        spec = spec.strip().lower()
        if spec in ("", "none", "off"):
            return None
        if spec == "all":
            return cls.all_on()
        flags = {}
        for part in spec.split(","):
            part = part.strip().replace("-", "_")
            if part not in DEFENSE_FLAGS:
                raise ConfigError(
                    f"unknown defense flag {part!r} "
                    f"(known: {', '.join(DEFENSE_FLAGS)}, or all/none)")
            flags[part] = True
        return cls(**flags)

    # -- introspection -------------------------------------------------------

    @property
    def enabled_flags(self) -> Tuple[str, ...]:
        return tuple(f for f in DEFENSE_FLAGS if getattr(self, f))

    @property
    def label(self) -> str:
        """Short human name for scorecard rows: none/all/flag+flag."""
        enabled = self.enabled_flags
        if not enabled:
            return "none"
        if len(enabled) == len(DEFENSE_FLAGS):
            return "all"
        return "+".join(enabled)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, raw: dict) -> "DefenseConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown defense keys: {sorted(unknown)}")
        return cls(**raw)


class NeighborGuard:
    """Per-node runtime state for rate limiting, quarantine, and replay.

    All bookkeeping is lazy (token refill is computed on access, quarantine
    expiry on lookup) so an idle guard costs nothing between packets, and
    bounded (the replay window is an LRU of ``replay_capacity`` identities).
    """

    def __init__(self, config: DefenseConfig, sim: Simulator,
                 trace: TraceRecorder, node_id: int):
        self.config = config
        self.sim = sim
        self.trace = trace
        self.node_id = node_id
        self._tokens: Dict[int, float] = {}
        self._token_ts: Dict[int, float] = {}
        self._strikes: Dict[int, int] = {}
        self._quarantined_until: Dict[int, float] = {}
        # identity -> (last_seen_ts, link-layer sender of the first sighting)
        self._seen: "OrderedDict[Hashable, Tuple[float, int]]" = OrderedDict()

    # -- quarantine ----------------------------------------------------------

    def quarantined(self, sender: int) -> bool:
        until = self._quarantined_until.get(sender)
        if until is None:
            return False
        if self.sim.now >= until:
            del self._quarantined_until[sender]
            self._strikes.pop(sender, None)
            return False
        return True

    # -- token bucket (serving path only) ------------------------------------

    def admit_snack(self, sender: int) -> bool:
        """Spend one token for a SNACK from ``sender``; strike on empty."""
        cfg = self.config
        now = self.sim.now
        tokens = self._tokens.get(sender, cfg.bucket_capacity)
        last = self._token_ts.get(sender, now)
        tokens = min(cfg.bucket_capacity,
                     tokens + (now - last) * cfg.bucket_refill_per_s)
        self._token_ts[sender] = now
        if tokens >= cfg.bucket_capacity:
            # A neighbor that let the bucket refill completely has behaved
            # for a while: forgive its strikes.
            self._strikes.pop(sender, None)
        if tokens < 1.0:
            self._tokens[sender] = tokens
            strikes = self._strikes.get(sender, 0) + 1
            self._strikes[sender] = strikes
            if strikes >= cfg.quarantine_strikes:
                until = now + cfg.quarantine_duration_s
                self._quarantined_until[sender] = until
                self._strikes.pop(sender, None)
                self.trace.record(now, "defense_quarantine", self.node_id,
                                  offender=sender, until=until)
            return False
        self._tokens[sender] = tokens - 1.0
        return True

    # -- replay window -------------------------------------------------------

    def _window_check(self, identity: Hashable, sender: int) -> Optional[int]:
        """Record a sighting; return the first sender if seen in-window."""
        now = self.sim.now
        entry = self._seen.get(identity)
        first_sender: Optional[int] = None
        if entry is not None and now - entry[0] < self.config.replay_window_s:
            first_sender = entry[1]
            # Keep the original sender: the replayer must not launder the
            # identity into its own name by re-sending it.
            self._seen[identity] = (now, entry[1])
        else:
            self._seen[identity] = (now, sender)
        self._seen.move_to_end(identity)
        while len(self._seen) > self.config.replay_capacity:
            self._seen.popitem(last=False)
        return first_sender

    def snack_replayed(self, identity: Hashable, sender: int) -> bool:
        """True when this SNACK identity was recently relayed by another
        link-layer sender (same-sender retries are legitimate)."""
        first_sender = self._window_check(identity, sender)
        return first_sender is not None and first_sender != sender

    def data_replayed(self, identity: Hashable, sender: int) -> bool:
        """True on any repeat sighting of a stale-page data identity."""
        return self._window_check(identity, sender) is not None

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything (node crash: RAM state vanishes)."""
        self._tokens.clear()
        self._token_ts.clear()
        self._strikes.clear()
        self._quarantined_until.clear()
        self._seen.clear()
