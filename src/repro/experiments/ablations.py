"""Ablations of LR-Seluge design choices (DESIGN.md Section 6).

* **Scheduler** (E10): the greedy round-robin tracking table vs a
  Deluge-style union policy inside the otherwise unchanged LR-Seluge.
* **Reception overhead**: declared ``k'`` of ``k`` (MDS), ``k+2`` (the
  paper's Tornado-style assumption), and larger.
* **Burstiness**: iid app-layer losses vs a Gilbert-Elliott channel with
  the same average loss.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.figures import FigureResult, mean_metrics
from repro.experiments.scenarios import OneHopScenario, build_rig, run_scenario
from repro.net.channel import GilbertElliottLoss

__all__ = ["ablate_scheduler", "ablate_overhead", "ablate_burstiness"]

_METRIC_HEADERS = ["data_pkts", "snack_pkts", "adv_pkts", "total_bytes", "latency_s"]


def _run_lr_with_scheduler(
    scheduler: str, p: float, receivers: int, image_size: int, seed: int
):
    rig = build_rig(OneHopScenario(receivers, protocol="lr-seluge", loss_rate=p,
                                   image_size=image_size, seed=seed))
    for node in [rig.base] + rig.nodes:
        node.scheduler_kind = scheduler
    return rig.run()


def ablate_scheduler(
    p: float = 0.2,
    receivers: int = 20,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2, 3),
) -> FigureResult:
    """Greedy round-robin vs union TX policy inside LR-Seluge (E10)."""
    rows: List[List[object]] = []
    for scheduler in ("tracking", "union"):
        runs = [
            _run_lr_with_scheduler(scheduler, p, receivers, image_size, s)
            for s in seeds
        ]
        metrics = mean_metrics(runs)
        rows.append([scheduler] + [round(metrics[h], 1) for h in _METRIC_HEADERS])
    return FigureResult(
        name=f"Ablation: LR-Seluge TX scheduler (p={p}, N={receivers})",
        headers=["scheduler"] + _METRIC_HEADERS,
        rows=rows,
        notes="Expected: the tracking-table scheduler transmits no more (and "
              "under concurrent requests, fewer) data packets than the union rule.",
    )


def ablate_overhead(
    p: float = 0.2,
    receivers: int = 20,
    image_size: int = 20 * 1024,
    kprimes: Sequence[int] = (32, 34, 38),
    seeds: Sequence[int] = (1, 2),
) -> FigureResult:
    """Declared reception threshold k' (code overhead emulation)."""
    rows: List[List[object]] = []
    for kprime in kprimes:
        runs = [
            run_scenario(OneHopScenario(
                receivers, protocol="lr-seluge", loss_rate=p,
                image_size=image_size, kprime=kprime, seed=s,
            ))
            for s in seeds
        ]
        metrics = mean_metrics(runs)
        rows.append([kprime] + [round(metrics[h], 1) for h in _METRIC_HEADERS])
    return FigureResult(
        name=f"Ablation: declared reception threshold k' (k=32, n=48, p={p})",
        headers=["kprime"] + _METRIC_HEADERS,
        rows=rows,
        notes="k'=32 is a true MDS code; the paper assumes k' > k "
              "(Tornado-style reception overhead).",
    )


def ablate_burstiness(
    receivers: int = 20,
    image_size: int = 20 * 1024,
    seeds: Sequence[int] = (1, 2),
) -> FigureResult:
    """iid losses vs bursty Gilbert-Elliott losses with the same mean (~0.2)."""
    rows: List[List[object]] = []
    ge = dict(loss_good=0.05, loss_bad=0.65, mean_good=6.0, mean_bad=2.0)
    mean_loss = (ge["mean_good"] * ge["loss_good"] + ge["mean_bad"] * ge["loss_bad"]) / (
        ge["mean_good"] + ge["mean_bad"]
    )
    for protocol in ("seluge", "lr-seluge"):
        for label in (f"iid(p={mean_loss:.2f})", "bursty(GE)"):
            runs = []
            for seed in seeds:
                rig = build_rig(OneHopScenario(
                    receivers, protocol=protocol, loss_rate=mean_loss,
                    image_size=image_size, seed=seed, max_time=14400.0,
                ))
                if label.startswith("bursty"):
                    # Gilbert-Elliott carries per-link state, so each run
                    # gets its own.
                    rig.radio.loss_model = GilbertElliottLoss(**ge)
                runs.append(rig.run())
            metrics = mean_metrics(runs)
            rows.append([protocol, label]
                        + [round(metrics[h], 1) for h in _METRIC_HEADERS])
    return FigureResult(
        name="Ablation: iid vs bursty losses at equal mean loss",
        headers=["protocol", "channel"] + _METRIC_HEADERS,
        rows=rows,
        notes="Bursty channels hurt both protocols; LR-Seluge's redundancy "
              "absorbs short bursts, Seluge must re-request specific packets.",
    )
