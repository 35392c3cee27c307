"""Run manifests: everything needed to understand and compare one run.

A :class:`RunManifest` records what was run (tool, config, seed, git rev),
what happened (counters, the paper's five metrics), and what it cost
(wall time, simulated time, events, events/sec).  Manifests are small JSON
files written next to results by ``python -m repro.simulate`` and
``python -m repro.experiments``; ``python -m repro.obs report`` summarises
one.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.reporting import utc_now_iso

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "collect_git_rev",
]

MANIFEST_SCHEMA_VERSION = 1


def collect_git_rev(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The git commit (short hash, ``+dirty`` suffixed) of ``cwd``, by
    default of the source tree this package was imported from; or None.

    The default is not the process's working directory: a run started from
    inside another repository must still record the revision of the code
    that ran.  Failure is normal — an installed package has no repository —
    so every error path degrades to None rather than failing the run being
    recorded.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd,
        )
        if rev.returncode != 0:
            return None
        commit = rev.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=5.0, cwd=cwd,
        )
        if status.returncode == 0 and status.stdout.strip():
            commit += "+dirty"
        return commit or None
    except (OSError, subprocess.SubprocessError):
        return None


@dataclass
class RunManifest:
    """One run's identity, configuration, outcomes, and costs."""

    tool: str                                   # e.g. "repro.simulate"
    seed: int = 0
    config: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    trace_file: Optional[str] = None
    git_rev: Optional[str] = None
    created_utc: str = field(default_factory=utc_now_iso)
    schema_version: int = MANIFEST_SCHEMA_VERSION
    unregistered_metrics: List[str] = field(default_factory=list)
    # Campaign report (repro.experiments.executor CampaignReport.to_dict()):
    # per-task status (with the error of a quarantined task) and the
    # completed/resumed/quarantined counts.  Additive and optional, so
    # schema_version stays 1 and old readers ignore it.
    campaign: Optional[Dict[str, Any]] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        tool: str,
        result: Any,                     # experiments.metrics.RunResult shaped
        config: Optional[Dict[str, Any]] = None,
        wall_s: Optional[float] = None,
        sim: Optional[Any] = None,       # repro.sim.engine.Simulator shaped
        trace_file: Optional[str] = None,
        unregistered: Optional[List[str]] = None,
    ) -> "RunManifest":
        """Build a manifest from a finished :class:`RunResult`-shaped run.

        Duck-typed on purpose: manifests must stay importable without the
        experiments package (and vice versa), so only attribute access ties
        the two together.
        """
        metrics: Dict[str, float] = {
            "completed": float(bool(getattr(result, "completed", False))),
            "latency_s": float(getattr(result, "latency", 0.0)),
            "data_packets": float(getattr(result, "data_packets", 0)),
            "snack_packets": float(getattr(result, "snack_packets", 0)),
            "adv_packets": float(getattr(result, "adv_packets", 0)),
            "total_bytes": float(getattr(result, "total_bytes", 0)),
        }
        rate = getattr(result, "completion_rate", None)
        if rate is not None:
            metrics["completion_rate"] = float(rate)
        timings: Dict[str, float] = {}
        if wall_s is not None:
            timings["wall_s"] = round(wall_s, 6)
        if sim is not None:
            timings["sim_time_s"] = float(sim.now)
            timings["events"] = float(sim.processed_events)
            if wall_s:
                timings["events_per_s"] = round(sim.processed_events / wall_s, 1)
            heap = getattr(sim, "heap_stats", None)
            if callable(heap):
                for key, value in heap().items():
                    timings[f"heap_{key}"] = float(value)
        return cls(
            tool=tool,
            seed=int(getattr(result, "seed", 0)),
            config=dict(config or {}),
            counters=dict(getattr(result, "counters", {}) or {}),
            metrics=metrics,
            timings=timings,
            trace_file=trace_file,
            git_rev=collect_git_rev(),
            unregistered_metrics=list(unregistered or []),
        )

    # -- (de)serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "created_utc": self.created_utc,
            "tool": self.tool,
            "seed": self.seed,
            "git_rev": self.git_rev,
            "config": self.config,
            "metrics": self.metrics,
            "timings": self.timings,
            "counters": dict(sorted(self.counters.items())),
        }
        if self.unregistered_metrics:
            out["obs_unregistered_metric"] = len(self.unregistered_metrics)
            out["unregistered_metrics"] = self.unregistered_metrics
        if self.trace_file is not None:
            out["trace_file"] = self.trace_file
        if self.campaign is not None:
            out["campaign"] = self.campaign
        return out

    def write(self, path: Union[str, Path]) -> Path:
        from repro.persist import atomic_write_text

        target = Path(path)
        atomic_write_text(
            target, json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"
        )
        return target

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunManifest":
        version = data.get("schema_version")
        if version != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {version!r} "
                f"(reader supports {MANIFEST_SCHEMA_VERSION})"
            )
        return cls(
            tool=str(data.get("tool", "?")),
            seed=int(data.get("seed", 0)),
            config=dict(data.get("config", {})),
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            metrics={str(k): float(v) for k, v in data.get("metrics", {}).items()},
            timings={str(k): float(v) for k, v in data.get("timings", {}).items()},
            trace_file=data.get("trace_file"),
            git_rev=data.get("git_rev"),
            created_utc=str(data.get("created_utc", "")),
            schema_version=int(version),
            unregistered_metrics=[str(n) for n in data.get("unregistered_metrics", [])],
            campaign=data.get("campaign"),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

