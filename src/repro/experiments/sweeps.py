"""Generic parameter sweeps on the fault-tolerant campaign executor.

The figure functions cover the paper's sweeps; this utility covers
everything else a user might want to explore::

    from repro.experiments.executor import CampaignConfig
    from repro.experiments.sweeps import sweep_one_hop

    table = sweep_one_hop(
        protocols=("seluge", "lr-seluge"),
        loss_rates=(0.1, 0.3),
        receivers=(10, 20),
        seeds=(1, 2),
        campaign=CampaignConfig(processes=4),
    )
    print(table.report())

Every cell is an independent, deterministic simulation, so the whole sweep
runs as one supervised campaign (:mod:`repro.experiments.executor`): crashed
or hung workers are retried and quarantined instead of losing the sweep, a
``campaign`` config with a checkpoint directory makes the run resumable
after a kill, and rows are assembled **by task key** — never by list
position — so retries and resume cannot misalign the table.

Cells that end up quarantined degrade their row (metrics become ``nan``,
``completed`` shows ``NO``) rather than aborting the sweep.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.executor import (
    CampaignConfig,
    execute_scenarios,
    task_key,
)
from repro.experiments.figures import FigureResult, mean_metrics
from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import (
    MultiHopScenario,
    OneHopScenario,
    run_multihop,
    run_one_hop,
)

__all__ = ["sweep_one_hop", "sweep_multihop"]

_METRIC_HEADERS = ["data_pkts", "snack_pkts", "adv_pkts", "total_bytes", "latency_s"]


def _metric_cells(results: Sequence[RunResult]) -> List[object]:
    """The five averaged metrics, or ``nan`` cells if every seed quarantined."""
    if not results:
        return [float("nan")] * len(_METRIC_HEADERS)
    metrics = mean_metrics(results)
    return [round(metrics[h], 1) for h in _METRIC_HEADERS]


def _completed_cell(results: Sequence[RunResult], expected: int) -> str:
    done = bool(results) and len(results) == expected and all(
        r.completed for r in results
    )
    return "yes" if done else "NO"


def sweep_one_hop(
    protocols: Sequence[str] = ("seluge", "lr-seluge"),
    loss_rates: Sequence[float] = (0.1,),
    receivers: Sequence[int] = (20,),
    image_size: int = 20 * 1024,
    k: int = 32,
    n: int = 48,
    seeds: Sequence[int] = (1,),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Cartesian sweep over the one-hop scenario space."""
    combos = list(itertools.product(protocols, loss_rates, receivers))
    cells: Dict[Tuple[str, float, int], List[OneHopScenario]] = {}
    for protocol, p, n_recv in combos:
        cells[(protocol, p, n_recv)] = [
            OneHopScenario(protocol=protocol, loss_rate=p, receivers=n_recv,
                           image_size=image_size, k=k, n=n, seed=s)
            for s in seeds
        ]
    scenarios = [s for combo in combos for s in cells[combo]]
    results = execute_scenarios(
        "one_hop", run_one_hop, scenarios, campaign
    )
    rows: List[List[object]] = []
    for protocol, p, n_recv in combos:
        combo_results = [
            results[key] for key in
            (task_key("one_hop", s) for s in cells[(protocol, p, n_recv)])
            if key in results
        ]
        rows.append(
            [protocol, p, n_recv]
            + _metric_cells(combo_results)
            + [_completed_cell(combo_results, len(seeds))]
        )
    return FigureResult(
        name=f"One-hop sweep ({image_size // 1024} KiB, k={k}, n={n}, "
             f"{len(seeds)} seed(s))",
        headers=["protocol", "p", "N"] + _METRIC_HEADERS + ["completed"],
        rows=rows,
    )


def sweep_multihop(
    protocols: Sequence[str] = ("seluge", "lr-seluge"),
    topologies: Sequence[str] = ("tight:8x8",),
    image_size: int = 8 * 1024,
    seeds: Sequence[int] = (1,),
    campaign: Optional[CampaignConfig] = None,
) -> FigureResult:
    """Cartesian sweep over grid/random topologies."""
    combos = list(itertools.product(protocols, topologies))
    cells: Dict[Tuple[str, str], List[MultiHopScenario]] = {}
    for protocol, topology in combos:
        cells[(protocol, topology)] = [
            MultiHopScenario(protocol=protocol, topology=topology,
                             image_size=image_size, seed=s)
            for s in seeds
        ]
    scenarios = [s for combo in combos for s in cells[combo]]
    results = execute_scenarios(
        "multihop", run_multihop, scenarios, campaign
    )
    rows: List[List[object]] = []
    for protocol, topology in combos:
        combo_results = [
            results[key] for key in
            (task_key("multihop", s) for s in cells[(protocol, topology)])
            if key in results
        ]
        rows.append(
            [protocol, topology]
            + _metric_cells(combo_results)
            + [_completed_cell(combo_results, len(seeds))]
        )
    return FigureResult(
        name=f"Multi-hop sweep ({image_size // 1024} KiB, {len(seeds)} seed(s))",
        headers=["protocol", "topology"] + _METRIC_HEADERS + ["completed"],
        rows=rows,
    )
