"""Storage chaos CLI: crash-point exploration and schedule-driven injection.

::

    # Kill the durability workload at every persist op and prove recovery.
    python -m repro.chaos explore --work-dir /tmp/chaos \\
        --report chaos_report.json

    # Same, delivering real SIGKILLs (slow; sample every 5th op).
    python -m repro.chaos explore --work-dir /tmp/chaos \\
        --action sigkill --stride 5

    # Run the workload under deterministic fault injection.
    python -m repro.chaos inject --work-dir /tmp/chaos \\
        --fault enospc::results.jsonl \\
        --rate eio=0.05 --chaos-seed 7

Exit codes: 0 success, 1 an invariant failed (or injected faults killed the
campaign), 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.chaos.explore import (
    CRASH_ACTIONS,
    CRASH_MODES,
    explore_crash_points,
    run_crash_point_child,
)
from repro.chaos.fs import FAULT_KINDS, FaultyFS
from repro.chaos.schedule import FaultSchedule, FaultSpec
from repro.chaos.workload import ChaosWorkload
from repro.errors import ConfigError, PersistError
from repro.persist import atomic_write_json, use_fs

__all__ = ["main"]


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_fault(text: str) -> FaultSpec:
    """``KIND[:OP[:PATH_SUBSTRING[:INDEX]]]`` -> FaultSpec.

    Empty segments mean "any", so ``enospc::results.jsonl`` injects ENOSPC
    on any op touching a path containing ``results.jsonl``.
    """
    parts = text.split(":")
    if not parts[0]:
        raise ConfigError(f"fault spec needs a kind: {text!r}")
    kind = parts[0]
    op = parts[1] if len(parts) > 1 and parts[1] else None
    path = parts[2] if len(parts) > 2 and parts[2] else None
    index: Optional[int] = None
    if len(parts) > 3 and parts[3]:
        try:
            index = int(parts[3])
        except ValueError:
            raise ConfigError(f"fault spec index must be an int: {text!r}")
    if len(parts) > 4:
        raise ConfigError(f"fault spec has too many segments: {text!r}")
    return FaultSpec(kind=kind, op=op, path_substring=path, index=index)


def _parse_rate(text: str) -> Dict[str, float]:
    try:
        kind, _, prob = text.partition("=")
        return {kind: float(prob)}
    except ValueError:
        raise ConfigError(f"rate must look like kind=0.05: {text!r}")


def _workload_from_args(args: argparse.Namespace) -> ChaosWorkload:
    return ChaosWorkload(
        seeds=tuple(args.seeds),
        image_size=args.image_size,
        include_failing_cell=not args.no_failing_cell,
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--work-dir", required=True,
                        help="scratch directory for workload roots")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                        help="simulation seeds (one campaign cell per "
                             "protocol x seed)")
    parser.add_argument("--image-size", type=int, default=1024,
                        help="image bytes per cell (default 1024: tiny "
                             "cells keep full sweeps fast)")
    parser.add_argument("--no-failing-cell", action="store_true",
                        help="drop the scripted-failure cell (no quarantine "
                             "coverage)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic storage-fault injection and crash-point "
                    "exploration for the durability layer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    explore = sub.add_parser(
        "explore",
        help="simulate a kill at every persist op, resume, assert recovery",
    )
    _add_workload_args(explore)
    explore.add_argument("--modes", nargs="+", default=list(CRASH_MODES),
                         choices=list(CRASH_MODES),
                         help="crash families to sweep (default: both)")
    explore.add_argument("--action", default="raise",
                         choices=list(CRASH_ACTIONS),
                         help="deliver deaths in-process (raise) or as real "
                              "SIGKILLs to child processes")
    explore.add_argument("--stride", type=int, default=1,
                         help="sample every N-th op index (default 1: all)")
    explore.add_argument("--indices", type=int, nargs="+", default=None,
                         help="explore only these op indices")
    explore.add_argument("--report", default=None,
                         help="write the machine-readable report JSON here")
    explore.add_argument("--keep-all", action="store_true",
                         help="keep every point directory, not just failures")

    inject = sub.add_parser(
        "inject",
        help="run the durability workload under a deterministic fault "
             "schedule",
    )
    _add_workload_args(inject)
    inject.add_argument("--fault", action="append", default=[],
                        metavar="KIND[:OP[:PATH[:INDEX]]]",
                        help=f"targeted fault (kinds: {', '.join(FAULT_KINDS)});"
                             " repeatable")
    inject.add_argument("--rate", action="append", default=[],
                        metavar="KIND=P",
                        help="background fault probability per op; repeatable")
    inject.add_argument("--rate-path", default=None,
                        help="restrict rate faults to paths containing this")
    inject.add_argument("--rate-op", default=None,
                        help="restrict rate faults to this op")
    inject.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the rate-fault stream (same seed -> "
                             "same injected faults)")
    inject.add_argument("--schedule", default=None,
                        help="load the schedule from this JSON file instead "
                             "of --fault/--rate flags")
    inject.add_argument("--resume", action="store_true",
                        help="resume the campaign in --work-dir instead of "
                             "starting fresh")

    point = sub.add_parser("_point")  # internal: SIGKILL crash-point child
    point.add_argument("spec")
    return parser


def _cmd_explore(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    report = explore_crash_points(
        workload,
        args.work_dir,
        modes=args.modes,
        crash_action=args.action,
        indices=args.indices,
        stride=args.stride,
        keep_failures=True,
        keep_passing=args.keep_all,
    )
    print(report.summary())
    if args.report:
        atomic_write_json(args.report, report.to_jsonable())
        print(f"wrote {args.report}")
    return 0 if report.ok else 1


def _cmd_inject(args: argparse.Namespace) -> int:
    workload = _workload_from_args(args)
    if args.schedule:
        schedule = FaultSchedule.load(args.schedule)
    else:
        specs = [_parse_fault(text) for text in args.fault]
        rates: Dict[str, float] = {}
        for text in args.rate:
            rates.update(_parse_rate(text))
        schedule = FaultSchedule(
            specs=specs,
            rates=rates,
            rate_paths=(args.rate_path,) if args.rate_path else (),
            rate_ops=(args.rate_op,) if args.rate_op else (),
            seed=args.chaos_seed,
        )
    fs = FaultyFS(schedule=schedule)
    root = Path(args.work_dir)
    survived = True
    failure: Optional[str] = None
    try:
        with use_fs(fs):
            workload.run(root, resume=args.resume)
    except (OSError, PersistError) as exc:
        survived = False
        failure = f"{type(exc).__name__}: {exc}"
    print(f"persist ops: {len(fs.ops)} ({fs.op_counts()})")
    injected = schedule.injected_summary()
    if injected:
        print("injected faults:")
        for entry in injected:
            print(f"  {entry['kind']} at #{entry['index']} {entry['op']} "
                  f"{entry['path']}")
    else:
        print("injected faults: none")
    if survived:
        print("campaign survived; aggregate CSV written")
        return 0
    print(f"campaign died: {failure}")
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "_point":
        return run_crash_point_child(json.loads(args.spec))
    try:
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "inject":
            return _cmd_inject(args)
    except ConfigError as exc:
        return _error(str(exc))
    except FileNotFoundError as exc:
        return _error(str(exc))
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
