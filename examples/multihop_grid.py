#!/usr/bin/env python
"""Multi-hop reprogramming of a mica2-style sensor grid (Tables II/III style).

Disseminates an image from a corner base station across a grid with
distance-based link quality, CSMA collisions, and bursty ambient noise (our
meyer-heavy substitution), then prints an ASCII heat map of per-node
completion times — the dissemination wavefront.

Run:  python examples/multihop_grid.py [--rows 8] [--cols 8] [--medium]
"""

import argparse

from repro.experiments.scenarios import MultiHopScenario, run_scenario


def wavefront_map(result, rows: int, cols: int) -> str:
    """Render per-node completion times as a 0-9 heat map (corner = base)."""
    times = result.per_node_completion
    if not times:
        return "(no node completed)"
    t_max = max(times.values()) or 1.0
    lines = []
    for r in range(rows):
        cells = []
        for c in range(cols):
            node_id = 1 + r * cols + c
            t = times.get(node_id)
            cells.append("." if t is None else str(min(9, int(9 * t / t_max))))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cols", type=int, default=8)
    parser.add_argument("--medium", action="store_true",
                        help="low-density grid (6 m spacing) instead of tight (3 m)")
    parser.add_argument("--image-kib", type=int, default=8)
    args = parser.parse_args()

    density = "medium" if args.medium else "tight"
    topology = f"{density}:{args.rows}x{args.cols}"

    for protocol in ("seluge", "lr-seluge"):
        result = run_scenario(MultiHopScenario(
            protocol=protocol, topology=topology,
            image_size=args.image_kib * 1024, seed=1,
        ))
        print(f"== {protocol} on {topology} "
              f"({args.image_kib} KiB image) ==")
        print(f"completed: {result.completed}   images ok: {result.images_ok}")
        print(f"data={result.data_packets}  snack={result.snack_packets}  "
              f"adv={result.adv_packets}  bytes={result.total_bytes}  "
              f"latency={result.latency:.0f}s")
        print("completion wavefront (0 = earliest, 9 = last; base at corner):")
        print(wavefront_map(result, args.rows, args.cols))
        print()


if __name__ == "__main__":
    main()
