"""The resilience scorecard: completion under attack, with and without defenses.

One :class:`ResilienceGrid` names an attack × protocol × defense × seed
campaign over :func:`~repro.experiments.adversarial.run_adversarial` cells.
Every ``(protocol, defense, seed)`` combination also runs an attack-free
baseline, so each attacked cell can report *inflation* ratios — latency and
packet cost relative to the same network left alone — instead of raw numbers
whose scale depends on the topology.

The grid executes through the campaign executor
(:mod:`repro.experiments.executor`): cells checkpoint and resume like any
other campaign, and results join back by content-derived task key.
The resulting :class:`Scorecard` renders a text table (``report()``),
serialises to JSON (``save()``), and carries a CI gate: ``ok`` is False
whenever any cell saw a trace-invariant violation or was quarantined by
the executor.

Attack presets intentionally include the two legacy volumetric attacks
(bogus data, denial-of-receipt) next to the four engine-native ones, so the
scorecard doubles as a regression table for the pre-existing defenses
(per-packet authentication, the SNACK flood guard).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.attacks import AttackSpec
from repro.errors import ConfigError
from repro.experiments.adversarial import run_adversarial
from repro.experiments.executor import CampaignConfig, execute_scenarios, task_key
from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import Scenario
from repro.persist import atomic_write_json
from repro.protocols.defense import DefenseConfig

__all__ = [
    "ATTACK_PRESETS",
    "DEFENSE_PRESETS",
    "ResilienceGrid",
    "ScorecardRow",
    "Scorecard",
    "run_resilience",
    "quick_grid",
    "paper_grid",
]

#: Named attack loadouts.  ``none`` is the baseline every grid adds
#: implicitly; the other entries are single-adversary plans (the plan form
#: still composes — a grid may pass multi-spec tuples of its own).
ATTACK_PRESETS: Dict[str, Tuple[AttackSpec, ...]] = {
    "none": (),
    "bogus-data": (AttackSpec(kind="bogus-data", start=0.5, period=0.3),),
    "dor": (AttackSpec(kind="denial-of-receipt", start=0.5, period=0.4),),
    "jammer": (AttackSpec(kind="reactive-jammer", start=0.5, period=0.5,
                          params={"duty": 0.25}),),
    "greyhole": (AttackSpec(kind="greyhole", start=0.5, period=1.0,
                            params={"drop_rate": 0.9}),),
    "replay": (AttackSpec(kind="replay", start=0.5, period=0.3),),
    "sybil": (AttackSpec(kind="sybil-snack", start=0.5, period=0.3),),
}

#: Defense columns: ``none``, everything, and one ablation per flag.
DEFENSE_PRESETS: Tuple[str, ...] = (
    "none", "all", "rate_limit", "backoff", "replay_filter", "stall_watchdog",
)


@dataclass(frozen=True)
class ResilienceGrid:
    """The campaign axes plus the shared network shape of every cell."""

    protocols: Tuple[str, ...] = ("lr-seluge",)
    attacks: Tuple[str, ...] = ("jammer", "greyhole", "replay", "sybil")
    defenses: Tuple[str, ...] = ("none", "all")
    topology: str = "star:8"
    loss_rate: float = 0.05
    image_size: int = 4096
    k: int = 8
    n: int = 12
    kprime: int = 0
    seeds: Tuple[int, ...] = (1,)
    max_time: float = 3600.0

    def __post_init__(self) -> None:
        for name in self.attacks:
            if name == "none":
                raise ConfigError("'none' baselines are added implicitly")
            if name not in ATTACK_PRESETS:
                raise ConfigError(
                    f"unknown attack preset {name!r}; "
                    f"known: {sorted(ATTACK_PRESETS)}")
        for spec in self.defenses:
            DefenseConfig.from_flags(spec)  # raises ConfigError on typos

    def scenario(self, protocol: str, attack: str, defense: str,
                 seed: int) -> Scenario:
        """The fully specified cell for one grid coordinate."""
        return Scenario(
            protocol=protocol,
            topology=self.topology,
            loss_rate=self.loss_rate,
            ambient=False,
            image_size=self.image_size,
            k=self.k,
            n=self.n,
            kprime=self.kprime,
            seed=seed,
            max_time=self.max_time,
            attacks=ATTACK_PRESETS[attack],
            defense=DefenseConfig.from_flags(defense),
        )


def quick_grid() -> ResilienceGrid:
    """A fast smoke grid (CI's ``adversary-smoke`` job): one small star."""
    return ResilienceGrid(topology="star:5", image_size=2048, k=4, n=6,
                          max_time=1800.0)


def paper_grid() -> ResilienceGrid:
    """The acceptance grid: a 7x7 multi-hop lattice, all four new attacks."""
    return ResilienceGrid(topology="grid:7x7:3", max_time=7200.0)


@dataclass
class ScorecardRow:
    """One (protocol, attack, defense) aggregate over the seed axis."""

    protocol: str
    attack: str
    defense: str
    runs: int                    # cells that produced a result
    missing: int                 # quarantined / absent cells
    completion_rate: float       # mean fraction of receivers completing
    latency: Optional[float]     # mean completion latency (completed runs)
    latency_x: Optional[float]   # vs the matching attack-free baseline
    cost_x: Optional[float]      # total-bytes inflation vs baseline
    injected: int                # attacker frames on the air
    delivered: int               # attacker frames reaching a victim radio
    auth_drops: int              # injected data rejected by authentication
    violations: int              # trace-invariant violations

    def to_dict(self) -> dict:
        return asdict(self)


def _mean(values: List[float]) -> Optional[float]:
    return sum(values) / len(values) if values else None


def _aggregate(runs: List[RunResult]) -> Tuple[float, Optional[float], float, int, int, int, int]:
    completion = _mean([r.completion_rate for r in runs]) or 0.0
    latency = _mean([r.latency for r in runs if r.completed])
    mean_bytes = _mean([float(r.total_bytes) for r in runs]) or 0.0
    injected = sum(r.counters.get("adv_frames_injected", 0) for r in runs)
    delivered = sum(r.counters.get("adv_frames_delivered", 0) for r in runs)
    auth_drops = sum(r.counters.get("adv_auth_drops", 0) for r in runs)
    violations = sum(r.counters.get("invariant_violations", 0) for r in runs)
    return completion, latency, mean_bytes, injected, delivered, auth_drops, violations


@dataclass
class Scorecard:
    """Joined, ratio-normalised results of one resilience campaign."""

    grid: ResilienceGrid
    rows: List[ScorecardRow] = field(default_factory=list)

    @property
    def missing(self) -> int:
        return sum(row.missing for row in self.rows)

    @property
    def violations(self) -> int:
        return sum(row.violations for row in self.rows)

    @property
    def ok(self) -> bool:
        """The CI gate: every cell ran and no trace invariant was violated."""
        return self.missing == 0 and self.violations == 0

    def row(self, protocol: str, attack: str, defense: str) -> ScorecardRow:
        for r in self.rows:
            if (r.protocol, r.attack, r.defense) == (protocol, attack, defense):
                return r
        raise KeyError((protocol, attack, defense))

    def report(self) -> str:
        header = (f"{'protocol':<10} {'attack':<11} {'defense':<15} "
                  f"{'compl':>6} {'latency':>8} {'lat_x':>6} {'cost_x':>6} "
                  f"{'inject':>7} {'deliver':>8} {'viol':>4}")
        lines = [f"resilience scorecard — {self.grid.topology}, "
                 f"image {self.grid.image_size}B, seeds {list(self.grid.seeds)}",
                 header, "-" * len(header)]
        for r in self.rows:
            lat = f"{r.latency:.1f}" if r.latency is not None else "-"
            lat_x = f"{r.latency_x:.2f}" if r.latency_x is not None else "-"
            cost_x = f"{r.cost_x:.2f}" if r.cost_x is not None else "-"
            lines.append(
                f"{r.protocol:<10} {r.attack:<11} {r.defense:<15} "
                f"{r.completion_rate:>6.2f} {lat:>8} {lat_x:>6} {cost_x:>6} "
                f"{r.injected:>7} {r.delivered:>8} {r.violations:>4}")
        verdict = "OK" if self.ok else (
            f"FAIL ({self.violations} invariant violation(s), "
            f"{self.missing} missing cell(s))")
        lines.append(f"gate: {verdict}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "grid": asdict(self.grid),
            "rows": [r.to_dict() for r in self.rows],
            "missing": self.missing,
            "violations": self.violations,
            "ok": self.ok,
        }

    def save(self, path) -> None:
        atomic_write_json(path, self.to_dict())


def run_resilience(
    grid: Optional[ResilienceGrid] = None,
    campaign: Optional[CampaignConfig] = None,
) -> Scorecard:
    """Execute the grid through the campaign executor and join the scorecard.

    Baselines are ordinary cells: they checkpoint and resume like every
    attacked cell, and the join tolerates a quarantined baseline (ratio
    columns degrade to ``None`` rather than aborting the campaign).
    """
    grid = grid if grid is not None else ResilienceGrid()
    attacks = ("none",) + tuple(grid.attacks)
    cells: Dict[Tuple[str, str, str, int], Scenario] = {}
    for protocol in grid.protocols:
        for defense in grid.defenses:
            for attack in attacks:
                for seed in grid.seeds:
                    cells[(protocol, attack, defense, seed)] = grid.scenario(
                        protocol, attack, defense, seed)

    results = execute_scenarios(
        "adversarial", run_adversarial, list(cells.values()), campaign)

    def runs_for(protocol: str, attack: str, defense: str) -> Tuple[List[RunResult], int]:
        found: List[RunResult] = []
        absent = 0
        for seed in grid.seeds:
            scenario = cells[(protocol, attack, defense, seed)]
            result = results.get(task_key("adversarial", scenario))
            if result is None:
                absent += 1
            else:
                found.append(result)
        return found, absent

    rows: List[ScorecardRow] = []
    for protocol in grid.protocols:
        for defense in grid.defenses:
            base_runs, _ = runs_for(protocol, "none", defense)
            _, base_latency, base_bytes, *_rest = (
                _aggregate(base_runs) if base_runs else (0.0, None, 0.0, 0, 0, 0, 0))
            for attack in attacks:
                runs, absent = runs_for(protocol, attack, defense)
                (completion, latency, mean_bytes, injected, delivered,
                 auth_drops, violations) = _aggregate(runs)
                latency_x = (latency / base_latency
                             if latency is not None and base_latency else None)
                cost_x = (mean_bytes / base_bytes
                          if runs and base_bytes else None)
                rows.append(ScorecardRow(
                    protocol=protocol, attack=attack, defense=defense,
                    runs=len(runs), missing=absent,
                    completion_rate=completion, latency=latency,
                    latency_x=latency_x, cost_x=cost_x,
                    injected=injected, delivered=delivered,
                    auth_drops=auth_drops, violations=violations,
                ))
    return Scorecard(grid=grid, rows=rows)
