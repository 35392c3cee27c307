#!/usr/bin/env python
"""Head-to-head: Seluge vs LR-Seluge across channel loss rates (Fig. 4 style).

The motivating scenario from the paper's introduction: a sensor network in
a harsh RF environment must be reprogrammed securely.  This example sweeps
the packet-loss rate and prints all five evaluation metrics for both secure
protocols, showing the crossover (~p=0.01) and LR-Seluge's growing margin.

Run:  python examples/one_hop_lossy.py [--quick]
"""

import sys

from repro.experiments.reporting import format_table
from repro.experiments.scenarios import OneHopScenario, run_scenario


def main() -> None:
    quick = "--quick" in sys.argv
    loss_rates = (0.01, 0.1, 0.3) if quick else (0.0, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4)
    image_size = (6 if quick else 20) * 1024
    receivers = 10 if quick else 20

    rows = []
    for p in loss_rates:
        row = [p]
        for protocol in ("seluge", "lr-seluge"):
            result = run_scenario(OneHopScenario(
                protocol=protocol, loss_rate=p, receivers=receivers,
                image_size=image_size, seed=1,
            ))
            assert result.completed and result.images_ok, (protocol, p)
            row += [result.data_packets, result.snack_packets,
                    result.total_bytes, round(result.latency, 1)]
        seluge_bytes, lr_bytes = row[3], row[7]
        row.append(f"{100 * (1 - lr_bytes / seluge_bytes):+.0f}%")
        rows.append(row)

    print(format_table(
        ["p",
         "sel_data", "sel_snack", "sel_bytes", "sel_lat",
         "lr_data", "lr_snack", "lr_bytes", "lr_lat",
         "lr_saving"],
        rows,
        title=f"Seluge vs LR-Seluge, one hop, N={receivers}, "
              f"{image_size // 1024} KiB image",
    ))
    print("\nReading guide: LR-Seluge pays a small redundancy tax on clean "
          "channels (negative saving at p~0) and wins decisively once losses "
          "are real — the paper's headline result.")


if __name__ == "__main__":
    main()
