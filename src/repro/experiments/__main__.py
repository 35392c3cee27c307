"""CLI: regenerate the paper's figures and tables.

Usage::

    python -m repro.experiments fig3a
    python -m repro.experiments fig4 --quick
    python -m repro.experiments table2
    python -m repro.experiments all --quick

``--quick`` runs scaled-down versions (smaller image, fewer seeds, smaller
grids) that finish in tens of seconds; full-size runs can take minutes for
the one-hop figures and longer for the 15x15 grids.

Every target but ``ablations`` runs as a campaign (see
:mod:`repro.experiments.executor`), each cell exactly once:

* ``--processes N`` runs cells on a pool of N worker processes;
* ``--checkpoint-dir DIR`` journals completed cells so a killed run can be
  restarted with ``--resume`` and produce byte-identical output;
* ``--manifest FILE`` writes a campaign manifest embedding each task's
  status and CPU seconds, and the error of every quarantined one.

After each target it prints the target's wall time and, for a campaign
target, ``[<target>: N cells, X s cell CPU]``: the summed process CPU
seconds of the N cells it ran (cells resumed from a checkpoint were not
run and are not counted).  Unlike a pool's wall, that sum is not inflated
by idle workers or by other load on the host.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import figures, tables
from repro.experiments.ablations import ablate_burstiness, ablate_overhead, ablate_scheduler
from repro.experiments.executor import CampaignConfig
from repro.experiments.reporting import stopwatch


def _fig3a(quick, campaign):
    if quick:
        return figures.fig3a(loss_rates=(0.1, 0.2, 0.3, 0.4), receivers=10,
                             image_size=6 * 1024, seeds=(1,), campaign=campaign)
    return figures.fig3a(campaign=campaign)


def _fig3b(quick, campaign):
    if quick:
        return figures.fig3b(receiver_counts=(5, 10, 20, 30), image_size=6 * 1024,
                             seeds=(1,), campaign=campaign)
    return figures.fig3b(campaign=campaign)


def _fig4(quick, campaign):
    if quick:
        return figures.fig4(loss_rates=(0.01, 0.1, 0.3), receivers=10,
                            image_size=6 * 1024, seeds=(1,), campaign=campaign)
    return figures.fig4(campaign=campaign)


def _fig5(quick, campaign):
    if quick:
        return figures.fig5(receiver_counts=(5, 15, 30), image_size=6 * 1024,
                            seeds=(1,), campaign=campaign)
    return figures.fig5(campaign=campaign)


def _fig6(quick, campaign):
    if quick:
        return figures.fig6(rates_n=(34, 48, 64), loss_rates=(0.1,),
                            image_size=6 * 1024, seeds=(1,), campaign=campaign)
    return figures.fig6(campaign=campaign)


def _table2(quick, campaign):
    if quick:
        return tables.table2(image_size=6 * 1024, seeds=(1,), rows=8, cols=8,
                             campaign=campaign)
    return tables.table2(campaign=campaign)


def _table3(quick, campaign):
    if quick:
        return tables.table3(image_size=6 * 1024, seeds=(1,), rows=8, cols=8,
                             campaign=campaign)
    return tables.table3(campaign=campaign)


def _ablations(quick, campaign):
    # Ablations compare matched pairs in-process; they run outside the
    # campaign executor (each is a handful of short cells).  Five seeds:
    # one full-size cell varies by 30-40 data packets from seed to seed,
    # so two seeds could not order rows a few percent apart.
    size = 6 * 1024 if quick else 20 * 1024
    seeds = (1,) if quick else (1, 2, 3, 4, 5)
    results = [
        ablate_scheduler(image_size=size, seeds=seeds),
        ablate_overhead(image_size=size, seeds=seeds),
        ablate_burstiness(image_size=size, seeds=seeds),
    ]
    return results


_TARGETS = {
    "fig3a": _fig3a,
    "fig3b": _fig3b,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "table2": _table2,
    "table3": _table3,
    "ablations": _ablations,
}


def _campaign_from_args(args) -> CampaignConfig:
    return CampaignConfig(
        processes=args.processes,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )


def _write_campaign_manifest(path, target: str, campaign: CampaignConfig) -> None:
    from repro.obs.manifest import RunManifest, collect_git_rev

    merged = {
        "total": 0, "completed": 0, "resumed": 0, "quarantined": 0,
        "measured": 0, "cpu_s": 0.0, "tasks": {},
    }
    for report in campaign.reports:
        d = report.to_dict()
        for key in ("total", "completed", "resumed", "quarantined",
                    "measured", "cpu_s"):
            merged[key] += d[key]
        merged["tasks"].update(d["tasks"])
    manifest = RunManifest(
        tool="repro.experiments",
        config={
            "target": target,
            "processes": campaign.processes,
            "checkpoint_dir": (
                str(campaign.checkpoint_dir) if campaign.checkpoint_dir else None
            ),
            "resume": campaign.resume,
        },
        campaign=merged,
        git_rev=collect_git_rev(),
    )
    manifest.write(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the LR-Seluge paper's figures and tables.",
    )
    parser.add_argument("target", choices=sorted(_TARGETS) + ["all"])
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down sizes for a fast check")
    parser.add_argument("--export", metavar="DIR", default=None,
                        help="also write each series as CSV into DIR")
    parser.add_argument("--processes", type=int, default=None, metavar="N",
                        help="run cells on a pool of N worker processes")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        help="journal completed cells into DIR (crash-safe)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already journalled in --checkpoint-dir")
    parser.add_argument("--manifest", metavar="FILE", default=None,
                        help="write a campaign manifest (per-task status)")
    args = parser.parse_args(argv)

    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")

    campaign = _campaign_from_args(args)
    names = sorted(_TARGETS) if args.target == "all" else [args.target]
    for name in names:
        first_report = len(campaign.reports)
        with stopwatch() as elapsed:
            result = _TARGETS[name](args.quick, campaign)
        results = result if isinstance(result, list) else [result]
        for i, r in enumerate(results):
            print(r.report())
            print()
            if args.export:
                from pathlib import Path

                directory = Path(args.export)
                directory.mkdir(parents=True, exist_ok=True)
                suffix = f"_{i}" if len(results) > 1 else ""
                r.save(directory / f"{name}{suffix}.csv")
        reports = campaign.reports[first_report:]
        if reports:
            print(f"[campaign: {reports[-1].summary()}]")
            cells = sum(r.measured for r in reports)
            cpu_s = sum(r.cpu_s for r in reports)
            print(f"[{name}: {cells} cells, {cpu_s:.1f} s cell CPU]")
        print(f"[{name} regenerated in {elapsed():.1f}s]")
        print()
    if args.manifest:
        _write_campaign_manifest(args.manifest, args.target, campaign)
        print(f"[campaign manifest written to {args.manifest}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
