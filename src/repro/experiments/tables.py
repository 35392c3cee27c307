"""Regeneration of the paper's multi-hop tables (Section VI-C).

Table II: 15x15 tight mica2 grid (high density).
Table III: 15x15 medium mica2 grid (low density).

Multi-hop cells are the longest simulations in the repo, so the tables run
through the campaign executor: pass a
:class:`~repro.experiments.executor.CampaignConfig` with a checkpoint
directory to make a table resumable after a crash, or with ``processes`` to
run the protocol/seed cells on a process pool.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.executor import (
    CampaignConfig,
    execute_scenarios,
    task_key,
)
from repro.experiments.figures import FigureResult, mean_metrics
from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import MultiHopScenario, run_scenario

__all__ = ["multihop_table", "table2", "table3"]

_METRIC_HEADERS = ["data_pkts", "snack_pkts", "adv_pkts", "total_bytes", "latency_s"]


def multihop_table(
    name: str,
    topology: str,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2),
    protocols: Sequence[str] = ("seluge", "lr-seluge"),
    max_time: float = 14400.0,
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Run both protocols over a grid and tabulate the five paper metrics."""
    groups = {
        protocol: [
            MultiHopScenario(protocol=protocol, topology=topology,
                             image_size=image_size, seed=s, max_time=max_time)
            for s in seeds
        ]
        for protocol in protocols
    }
    results = execute_scenarios(
        "multihop", run_scenario,
        [s for group in groups.values() for s in group], campaign,
    )
    rows: List[List[object]] = []
    per_protocol = {}
    for protocol in protocols:
        keys = (task_key("multihop", s) for s in groups[protocol])
        runs: List[RunResult] = [results[k] for k in keys if k in results]
        if not runs:
            rows.append([protocol] + [float("nan")] * len(_METRIC_HEADERS) + ["NO"])
            continue
        metrics = mean_metrics(runs)
        per_protocol[protocol] = metrics
        completed = len(runs) == len(seeds) and all(r.completed for r in runs)
        rows.append(
            [protocol]
            + [round(metrics[h], 1) for h in _METRIC_HEADERS]
            + ["yes" if completed else "NO"]
        )
    notes = ""
    if "seluge" in per_protocol and "lr-seluge" in per_protocol:
        s, l = per_protocol["seluge"], per_protocol["lr-seluge"]
        savings = {
            h: 100.0 * (1.0 - l[h] / s[h]) if s[h] else 0.0 for h in _METRIC_HEADERS
        }
        notes = "LR-Seluge vs Seluge savings: " + "  ".join(
            f"{h} {v:+.0f}%" for h, v in savings.items()
        )
    return FigureResult(
        name=name,
        headers=["protocol"] + _METRIC_HEADERS + ["completed"],
        rows=rows,
        notes=notes,
    )


def table2(image_size: int = 20 * 1024, seeds: Sequence[int] = (1, 2),
           rows: int = 15, cols: int = 15,
           campaign: Optional[CampaignConfig] = None) -> FigureResult:
    """Table II: high-density (tight) mica2 grid."""
    return multihop_table(
        f"Table II: {rows}x{cols} tight mica2 grid (high density)",
        topology=f"tight:{rows}x{cols}",
        image_size=image_size,
        seeds=seeds,
        campaign=campaign,
    )


def table3(image_size: int = 20 * 1024, seeds: Sequence[int] = (1, 2),
           rows: int = 15, cols: int = 15,
           campaign: Optional[CampaignConfig] = None) -> FigureResult:
    """Table III: low-density (medium) mica2 grid."""
    return multihop_table(
        f"Table III: {rows}x{cols} medium mica2 grid (low density)",
        topology=f"medium:{rows}x{cols}",
        image_size=image_size,
        seeds=seeds,
        campaign=campaign,
    )
