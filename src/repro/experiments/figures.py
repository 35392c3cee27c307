"""Regeneration of the paper's figures (Section VI-A/B).

Each function returns a :class:`FigureResult` whose rows mirror the series
the corresponding paper figure plots.  Sizes are parameters so benchmarks
can run scaled-down versions; the CLI (``python -m repro.experiments``)
runs the full-size defaults.

Every figure is a campaign: its simulations are gathered up front, executed
once each through the campaign executor (:mod:`repro.experiments.executor`),
and joined back into rows by content-derived task key.  Passing a
:class:`~repro.experiments.executor.CampaignConfig` (the CLI's
``--processes`` / ``--checkpoint-dir`` / ``--resume`` flags) makes a figure
run on a process pool and resumable; the default config runs cells inline
with identical results.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.onehop import (
    ack_lr_expected_tx,
    seluge_page_expected_tx,
)
from repro.experiments.executor import (
    CampaignConfig,
    execute_scenarios,
    task_key,
)
from repro.experiments.metrics import RunResult
from repro.experiments.reporting import format_table
from repro.experiments.scenarios import OneHopScenario, Scenario, run_scenario

__all__ = [
    "FigureResult",
    "fig3a",
    "fig3b",
    "fig4",
    "fig5",
    "fig6",
    "image_size_sweep",
    "mean_metrics",
]


@dataclass
class FigureResult:
    """Structured series for one regenerated figure."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    notes: str = ""

    def report(self) -> str:
        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def column(self, header: str) -> List[object]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        """The series as CSV (plot with any external tool)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def to_json(self) -> str:
        """The series as a JSON document with metadata."""
        import json

        return json.dumps(
            {
                "name": self.name,
                "headers": self.headers,
                "rows": self.rows,
                "notes": self.notes,
            },
            indent=2,
        )

    def save(self, path) -> None:
        """Write CSV or JSON (by extension) through the atomic-write helper."""
        from pathlib import Path

        from repro.persist import atomic_write_text

        target = Path(path)
        if target.suffix == ".json":
            atomic_write_text(target, self.to_json())
        else:
            atomic_write_text(target, self.to_csv())


def mean_metrics(results: Sequence[RunResult]) -> Dict[str, float]:
    """Average the five paper metrics over repeated runs."""
    keys = ["data_pkts", "snack_pkts", "adv_pkts", "total_bytes", "latency_s"]
    rows = [r.summary_row() for r in results]
    return {k: statistics.mean(row[k] for row in rows) for k in keys}


def _last_page_tx(result: RunResult) -> int:
    """Data transmissions attributed to the image's last (pure) page."""
    units = [
        int(key.rsplit("_", 1)[1])
        for key in result.counters
        if key.startswith("tx_data_unit_")
    ]
    if not units:
        return 0
    last = max(units)
    return result.counters[f"tx_data_unit_{last}"]


def _execute_one_hop(
    scenarios: Sequence[Scenario],
    campaign: Optional[CampaignConfig],
) -> Dict[str, RunResult]:
    """Run one-hop cells through the executor, keyed by content-derived key."""
    return execute_scenarios("one_hop", run_scenario, scenarios, campaign)


def _gather(
    results: Dict[str, RunResult], scenarios: Sequence[Scenario]
) -> List[RunResult]:
    """Join executor results back to a scenario group; quarantined cells drop."""
    keys = (task_key("one_hop", s) for s in scenarios)
    return [results[key] for key in keys if key in results]


def _mean_or_nan(values: Sequence[float]) -> float:
    return statistics.mean(values) if values else float("nan")


def _page_tx_scenarios(protocol: str, p: float, receivers: int,
                       image_size: int, seeds: Sequence[int]) -> List[Scenario]:
    return [
        OneHopScenario(protocol=protocol, loss_rate=p, receivers=receivers,
                       image_size=image_size, seed=s)
        for s in seeds
    ]


def fig3a(
    loss_rates: Sequence[float] = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4),
    receivers: int = 20,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2, 3),
    k: int = 32,
    n: int = 48,
    kprime: int = 34,
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Fig. 3(a): per-page data transmissions vs loss rate p.

    Analytical Seluge and ACK-based LR-Seluge curves alongside simulated
    Seluge and LR-Seluge (data packets of the image's last page).
    """
    groups = {
        (protocol, p): _page_tx_scenarios(protocol, p, receivers, image_size, seeds)
        for p in loss_rates
        for protocol in ("seluge", "lr-seluge")
    }
    results = _execute_one_hop(
        [s for group in groups.values() for s in group], campaign
    )

    def page_tx(protocol: str, p: float) -> float:
        runs = _gather(results, groups[(protocol, p)])
        return _mean_or_nan([_last_page_tx(r) for r in runs])

    rows = []
    for p in loss_rates:
        rows.append([
            p,
            round(seluge_page_expected_tx(k, receivers, p), 1),
            round(page_tx("seluge", p), 1),
            round(ack_lr_expected_tx(1, kprime, n, receivers, p), 1),
            round(page_tx("lr-seluge", p), 1),
        ])
    return FigureResult(
        name="Fig 3(a): per-page data transmissions vs loss rate p "
             f"(N={receivers})",
        headers=["p", "seluge_analysis", "seluge_sim", "ack_lr_analysis", "lr_sim"],
        rows=rows,
        notes="Expected shape: seluge_sim tracks seluge_analysis; "
              "lr_sim stays below ack_lr_analysis; LR well below Seluge at high p.",
    )


def fig3b(
    receiver_counts: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40),
    p: float = 0.2,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2, 3),
    k: int = 32,
    n: int = 48,
    kprime: int = 34,
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Fig. 3(b): per-page data transmissions vs number of receivers N."""
    groups = {
        (protocol, receivers): _page_tx_scenarios(
            protocol, p, receivers, image_size, seeds
        )
        for receivers in receiver_counts
        for protocol in ("seluge", "lr-seluge")
    }
    results = _execute_one_hop(
        [s for group in groups.values() for s in group], campaign
    )

    def page_tx(protocol: str, receivers: int) -> float:
        runs = _gather(results, groups[(protocol, receivers)])
        return _mean_or_nan([_last_page_tx(r) for r in runs])

    rows = []
    for receivers in receiver_counts:
        rows.append([
            receivers,
            round(seluge_page_expected_tx(k, receivers, p), 1),
            round(page_tx("seluge", receivers), 1),
            round(ack_lr_expected_tx(1, kprime, n, receivers, p), 1),
            round(page_tx("lr-seluge", receivers), 1),
        ])
    return FigureResult(
        name=f"Fig 3(b): per-page data transmissions vs receivers N (p={p})",
        headers=["N", "seluge_analysis", "seluge_sim", "ack_lr_analysis", "lr_sim"],
        rows=rows,
        notes="Expected shape: Seluge grows visibly with N; LR-Seluge is "
              "much less sensitive to N.",
    )


_METRIC_HEADERS = ["data_pkts", "snack_pkts", "adv_pkts", "total_bytes", "latency_s"]


def _metric_cells(runs: Sequence[RunResult]) -> List[object]:
    """The five averaged metrics, or ``nan`` cells if every seed quarantined."""
    if not runs:
        return [float("nan")] * len(_METRIC_HEADERS)
    metrics = mean_metrics(runs)
    return [round(metrics[h], 1) for h in _METRIC_HEADERS]


def _sweep_rows(scenarios: Sequence[Tuple[object, Scenario]],
                seeds: Sequence[int],
                campaign: Optional[CampaignConfig] = None) -> List[List[object]]:
    groups = {
        (x, protocol): [
            replace(base_scenario, protocol=protocol, seed=s)
            for s in seeds
        ]
        for x, base_scenario in scenarios
        for protocol in ("seluge", "lr-seluge")
    }
    results = _execute_one_hop(
        [s for group in groups.values() for s in group], campaign
    )
    rows: List[List[object]] = []
    for x, _base_scenario in scenarios:
        row: List[object] = [x]
        for protocol in ("seluge", "lr-seluge"):
            row.extend(_metric_cells(_gather(results, groups[(x, protocol)])))
        rows.append(row)
    return rows


def _two_protocol_headers(x_name: str) -> List[str]:
    return (
        [x_name]
        + [f"seluge_{h}" for h in _METRIC_HEADERS]
        + [f"lr_{h}" for h in _METRIC_HEADERS]
    )


def fig4(
    loss_rates: Sequence[float] = (0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4),
    receivers: int = 20,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2, 3),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Fig. 4(a-e): the five metrics vs packet-loss rate p (one hop, N=20)."""
    scenarios = [
        (p, OneHopScenario(loss_rate=p, receivers=receivers, image_size=image_size))
        for p in loss_rates
    ]
    return FigureResult(
        name=f"Fig 4: one-hop metrics vs loss rate p (N={receivers})",
        headers=_two_protocol_headers("p"),
        rows=_sweep_rows(scenarios, seeds, campaign),
        notes="Expected shape: LR-Seluge slightly worse for p <= 0.01, "
              "better on all five metrics beyond; ~25-45% savings at p=0.4.",
    )


def fig5(
    receiver_counts: Sequence[int] = (5, 10, 15, 20, 25, 30, 35, 40),
    p: float = 0.1,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2, 3),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Fig. 5(a-e): the five metrics vs node density N (one hop, p=0.1)."""
    scenarios = [
        (n_recv, OneHopScenario(loss_rate=p, receivers=n_recv, image_size=image_size))
        for n_recv in receiver_counts
    ]
    return FigureResult(
        name=f"Fig 5: one-hop metrics vs receivers N (p={p})",
        headers=_two_protocol_headers("N"),
        rows=_sweep_rows(scenarios, seeds, campaign),
        notes="Expected shape: Seluge's costs grow clearly with N; "
              "LR-Seluge is much flatter, and its latency does not grow.",
    )


def image_size_sweep(
    sizes_kib: Sequence[int] = (5, 10, 20, 40),
    p: float = 0.2,
    receivers: int = 20,
    seeds: Sequence[int] = (1, 2),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Section VI-C's final claim: LR-Seluge's advantage holds across image sizes."""
    groups = {
        (size_kib, protocol): [
            OneHopScenario(protocol=protocol, loss_rate=p, receivers=receivers,
                           image_size=size_kib * 1024, seed=s)
            for s in seeds
        ]
        for size_kib in sizes_kib
        for protocol in ("seluge", "lr-seluge")
    }
    results = _execute_one_hop(
        [s for group in groups.values() for s in group], campaign
    )
    rows: List[List[object]] = []
    for size_kib in sizes_kib:
        row: List[object] = [size_kib]
        per_protocol: Dict[str, Dict[str, float]] = {}
        for protocol in ("seluge", "lr-seluge"):
            runs = _gather(results, groups[(size_kib, protocol)])
            if runs:
                metrics = mean_metrics(runs)
                per_protocol[protocol] = metrics
                row.extend([round(metrics["data_pkts"], 1),
                            round(metrics["total_bytes"], 1),
                            round(metrics["latency_s"], 1)])
            else:
                row.extend([float("nan")] * 3)
        if len(per_protocol) == 2 and per_protocol["seluge"]["total_bytes"] > 0:
            saving = 100.0 * (1.0 - per_protocol["lr-seluge"]["total_bytes"]
                              / per_protocol["seluge"]["total_bytes"])
            row.append(f"{saving:+.0f}%")
        else:
            row.append("n/a")
        rows.append(row)
    return FigureResult(
        name=f"Image-size sweep (p={p}, N={receivers})",
        headers=["KiB", "sel_data", "sel_bytes", "sel_lat",
                 "lr_data", "lr_bytes", "lr_lat", "lr_saving"],
        rows=rows,
        notes="Expected shape: the relative LR-Seluge saving is roughly "
              "size-independent once the image spans several pages.",
    )


def fig6(
    rates_n: Sequence[int] = (34, 40, 48, 56, 64, 80),
    loss_rates: Sequence[float] = (0.1, 0.3),
    receivers: int = 20,
    image_size: int = 20 * 1024,
    k: int = 32,
    seeds: Sequence[int] = (1, 2, 3),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Fig. 6(a-e): LR-Seluge's five metrics vs erasure rate n/k (k=32)."""
    groups = {
        (p, n): [
            OneHopScenario(protocol="lr-seluge", loss_rate=p, receivers=receivers,
                           image_size=image_size, n=n, seed=s)
            for s in seeds
        ]
        for p in loss_rates
        for n in rates_n
    }
    results = _execute_one_hop(
        [s for group in groups.values() for s in group], campaign
    )
    rows: List[List[object]] = []
    for p in loss_rates:
        for n in rates_n:
            rows.append(
                [p, n, round(n / k, 2)]
                + _metric_cells(_gather(results, groups[(p, n)]))
            )
    return FigureResult(
        name=f"Fig 6: LR-Seluge metrics vs erasure rate n/k (k={k})",
        headers=["p", "n", "rate"] + _METRIC_HEADERS,
        rows=rows,
        notes="Expected shape: a limited amount of redundancy cuts SNACK and "
              "data costs sharply; pushing n/k higher increases costs slowly "
              "again (shorter image slices per page -> more pages).",
    )
