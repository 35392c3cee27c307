"""Observability CLI: summarise/diff run manifests, inspect traces, gate perf.

::

    python -m repro.obs report run.manifest.json
    python -m repro.obs report --diff before.json after.json
    python -m repro.obs trace run.trace.jsonl
    python -m repro.obs check-invariants run.trace.jsonl
    python -m repro.obs analyze run.trace.jsonl --out analysis.json --json
    python -m repro.obs critical-path run.trace.jsonl --min-attribution 0.95
    python -m repro.obs critical-path deluge.jsonl lr.jsonl --out causal.json
    python -m repro.obs why run.trace.jsonl --node 7
    python -m repro.obs bench-compare BENCH_perf.json *.perf.out

The ``critical-path``/``why`` commands need a ``--causal-trace`` run (see
:mod:`repro.obs.causal`); ``analyze`` needs ``--flight-record``.
``bench-compare`` reads the output of ``perfbench/run.py --trace 0`` (see
``perfbench/README.md``), one file per workload.

Exit codes: 0 success, 1 a gate failed (regression, violated invariant),
2 unusable input (missing file, malformed JSON, wrong arguments).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.manifest import RunManifest
from repro.obs.report import (
    TOLERANCE,
    bench_compare,
    diff_report,
    load_perf_baseline,
    manifest_summary,
    read_perf_output,
    trace_summary,
)

__all__ = ["main"]


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Summarise, diff, and generate observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="summarise one manifest or diff two")
    report.add_argument("manifest", nargs="*",
                        help="manifest JSON file(s); one to summarise")
    report.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="diff two manifest files")
    report.add_argument("--top", type=int, default=25,
                        help="counters to show in the summary table")

    trace = sub.add_parser("trace", help="summarise a JSONL trace file")
    trace.add_argument("trace_file")

    check = sub.add_parser("check-invariants",
                           help="replay a JSONL trace against the protocol "
                                "invariant library (exit 1 on violations)")
    check.add_argument("trace_file")

    analyze = sub.add_parser("analyze",
                             help="reduce a flight trace into wavefront/"
                                  "stall/link-matrix reports")
    analyze.add_argument("trace_file")
    analyze.add_argument("--out", default=None,
                         help="also write the analysis JSON here")
    analyze.add_argument("--stall-factor", type=float, default=5.0,
                         help="flag page gaps above this multiple of the "
                              "median gap")
    analyze.add_argument("--json", action="store_true",
                         help="print the analysis as JSON on stdout instead "
                              "of the rendered tables")

    cpath = sub.add_parser(
        "critical-path",
        help="attribute completion latency to wait categories from a "
             "causal trace (exit 1 below --min-attribution)")
    cpath.add_argument("trace_file", nargs="+",
                       help="causal-traced JSONL file(s); several renders a "
                            "protocol comparison table")
    cpath.add_argument("--out", default=None,
                       help="also write the attribution JSON here (a list "
                            "when several traces are given)")
    cpath.add_argument("--json", action="store_true",
                       help="print the attribution as JSON on stdout")
    cpath.add_argument("--min-attribution", type=float, default=None,
                       help="fail (exit 1) when any completed node's "
                            "attributed fraction is below this")

    why = sub.add_parser(
        "why",
        help="per-node 'why was completion at t?' critical-path report "
             "from a causal trace")
    why.add_argument("trace_file")
    why.add_argument("--node", type=int, required=True,
                     help="the receiver to explain")
    why.add_argument("--top", type=int, default=12,
                     help="longest critical-path waits to list")

    compare = sub.add_parser(
        "bench-compare",
        help="gate perfbench outputs against the committed baseline (exit 1 "
             f"on a >{round(TOLERANCE * 100)}%% regression or an incorrect run)")
    compare.add_argument("baseline", help="committed baseline, BENCH_perf.json")
    compare.add_argument("outputs", nargs="+",
                         help="perfbench/run.py --trace 0 outputs, one per "
                              "baseline workload")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        try:
            if args.diff:
                a = RunManifest.load(args.diff[0])
                b = RunManifest.load(args.diff[1])
                print(diff_report(a, b, a_name=args.diff[0],
                                  b_name=args.diff[1]))
                return 0
            if len(args.manifest) != 1:
                return _error("report takes one manifest file, or --diff A B")
            print(manifest_summary(RunManifest.load(args.manifest[0]),
                                   top=args.top))
        except FileNotFoundError as exc:
            return _error(f"manifest file not found: {exc.filename or exc}")
        except (ValueError, KeyError) as exc:
            return _error(f"malformed manifest: {exc}")
        return 0
    if args.command == "trace":
        try:
            print(trace_summary(args.trace_file))
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        return 0
    if args.command == "check-invariants":
        from repro.obs.invariants import check_jsonl

        try:
            report = check_jsonl(args.trace_file)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        print(report.summary())
        return 0 if report.ok else 1
    if args.command == "analyze":
        from repro.obs.analyze import analyze_jsonl, render_analysis

        try:
            analysis = analyze_jsonl(args.trace_file, out=args.out,
                                     stall_factor=args.stall_factor)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        if args.json:
            print(json.dumps(analysis, indent=2, sort_keys=True))
        else:
            print(render_analysis(analysis))
        if args.out:
            print(f"wrote {args.out}")
        return 0
    if args.command == "critical-path":
        from repro.obs.causal import (
            analyze_causal_jsonl,
            comparison_report,
            render_attribution,
        )

        analyses = []
        try:
            for trace_file in args.trace_file:
                analyses.append(analyze_causal_jsonl(trace_file))
        except FileNotFoundError as exc:
            return _error(f"trace file not found: {exc.filename or exc}")
        except ValueError as exc:
            return _error(str(exc))
        if args.out:
            from repro.persist import atomic_write_json

            atomic_write_json(
                args.out, analyses[0] if len(analyses) == 1 else analyses,
                sort_keys=True,
            )
        if args.json:
            print(json.dumps(
                analyses[0] if len(analyses) == 1 else analyses,
                indent=2, sort_keys=True,
            ))
        else:
            for analysis in analyses:
                print(render_attribution(analysis))
                print()
            if len(analyses) > 1:
                print(comparison_report(analyses))
        if args.out:
            print(f"wrote {args.out}")
        failed = False
        for analysis in analyses:
            if not analysis["completed"]:
                print(f"gate: no completed receivers in "
                      f"{analysis['trace_file']}", file=sys.stderr)
                failed = True
            elif (args.min_attribution is not None
                  and analysis["min_attribution"] < args.min_attribution):
                print(f"gate: min attribution "
                      f"{analysis['min_attribution']:.1%} < "
                      f"{args.min_attribution:.1%} in "
                      f"{analysis['trace_file']}", file=sys.stderr)
                failed = True
        return 1 if failed else 0
    if args.command == "why":
        from repro.obs.causal import build_dag, critical_path, render_why
        from repro.obs.events import load_jsonl

        try:
            _header, events = load_jsonl(args.trace_file)
        except FileNotFoundError:
            return _error(f"trace file not found: {args.trace_file}")
        except ValueError as exc:
            return _error(str(exc))
        dag = build_dag(events)
        if not any(rec.cause is not None for rec in dag.tx.values()):
            return _error(f"{args.trace_file} holds no cause stamps — "
                          "re-run the simulation with --causal-trace")
        known = set(dag.meta) | set(dag.complete)
        if args.node not in known:
            return _error(f"node {args.node} does not appear in the trace")
        path = critical_path(dag, args.node)
        if path is None:
            print(f"node {args.node} never completed in this trace")
            return 1
        print(render_why(dag, path, top=args.top))
        return 0
    if args.command == "bench-compare":
        try:
            baseline = load_perf_baseline(args.baseline)
            runs = [read_perf_output(path) for path in args.outputs]
            ok, text = bench_compare(baseline, runs)
        except FileNotFoundError as exc:
            return _error(f"file not found: {exc.filename or exc}")
        except ValueError as exc:
            return _error(str(exc))
        print(text)
        return 0 if ok else 1
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... analyze trace | head`
        import os

        # Not durability I/O: re-point the dying stdout at /dev/null so the
        # interpreter's shutdown flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # replint: disable=REP012 -- stdout redirect, not a persisted artifact
        sys.exit(0)
