"""Single-run simulation CLI.

Run one dissemination with explicit parameters and print the five paper
metrics (plus optional energy accounting)::

    python -m repro.simulate --protocol lr-seluge --loss 0.2 --receivers 20
    python -m repro.simulate --protocol seluge --topology tight:8x8 \\
        --image-kib 8 --seed 3
    python -m repro.simulate --protocol lr-seluge --topology-file site.txt \\
        --energy

One-hop star runs use the paper's application-layer Bernoulli losses;
grid/random/file topologies use per-link PRR plus ambient bursts and CSMA
collisions.  Every flag combination builds one scenario, so attackers and
any topology compose.

Observability (``--trace-out``, ``--manifest``) attaches a structured event
log to the same run — packet/page lifecycle spans land in a JSONL trace —
and the run manifest records seed, config, git revision, counters, and wall
timings for ``python -m repro.obs report``::

    python -m repro.simulate --protocol lr-seluge --image-kib 4 --k 8 --n 12 \\
        --trace-out run.trace.jsonl --manifest run.manifest.json

``--flight-record`` additionally attaches the protocol flight recorder
(every aired frame with its receivers and losses, per-packet
authentication outcomes, tracking-table
snapshots, and — at the end of the run — per-link delivery/loss totals and
the hop topology) so the archived trace can be reduced with
``python -m repro.obs analyze``::

    python -m repro.simulate --protocol lr-seluge --image-kib 4 --k 8 --n 12 \\
        --flight-record --trace-out run.trace.jsonl
    python -m repro.obs analyze run.trace.jsonl --out analysis.json

``--causal-trace`` attaches the causal provenance recorder and, since its
DAG's edges are the flight recorder's frame records, the flight recorder
too: every frame carries the event that caused it (the received frame or
timer arm that triggered the transmission), and the archived trace answers
"why was node ``n``'s completion at time ``t``?"::

    python -m repro.simulate --protocol lr-seluge --image-kib 4 --k 8 --n 12 \\
        --loss 0.15 --causal-trace --trace-out run.trace.jsonl
    python -m repro.obs critical-path run.trace.jsonl
    python -m repro.obs why run.trace.jsonl --node 7
"""

from __future__ import annotations

import argparse
import sys

from repro.attacks import ATTACK_KINDS, AttackSpec, load_attack_plan
from repro.errors import ConfigError
from repro.experiments.adversarial import run_attributed
from repro.experiments.energy import estimate_energy
from repro.experiments.reporting import stopwatch
from repro.experiments.scenarios import _BUILDERS, Scenario, build_rig
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulate",
        description="Run one code-dissemination simulation.",
    )
    parser.add_argument("--protocol", default="lr-seluge",
                        choices=list(_BUILDERS))
    parser.add_argument("--loss", type=float, default=0.1,
                        help="one-hop app-layer loss rate (star topology only)")
    parser.add_argument("--receivers", type=int, default=20,
                        help="one-hop receiver count (star topology only)")
    parser.add_argument("--topology", default=None,
                        help='topology spec, e.g. "tight:8x8", "medium", '
                             '"grid:5x5:3", "random:40:30", "star:8"')
    parser.add_argument("--topology-file", default=None,
                        help="TinyOS-style topology file (see repro.net.topology_file)")
    parser.add_argument("--image-kib", type=int, default=20)
    parser.add_argument("--k", type=int, default=32)
    parser.add_argument("--n", type=int, default=48)
    parser.add_argument("--kprime", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-time", type=float, default=14400.0)
    parser.add_argument("--energy", action="store_true",
                        help="print the energy breakdown as well")
    adv = parser.add_argument_group("adversaries")
    adv.add_argument("--attack", action="append", default=None, metavar="KIND",
                     help="deploy an attacker of this kind with default "
                          f"settings ({', '.join(sorted(ATTACK_KINDS))}); "
                          "repeatable")
    adv.add_argument("--attack-plan", default=None, metavar="PLAN.json",
                     help="deploy the attack specs of a JSON plan file "
                          "(composes with --attack)")
    obs = parser.add_argument_group("observability")
    obs.add_argument("--trace-out", default=None, metavar="TRACE.jsonl",
                     help="write the structured event trace (JSONL)")
    obs.add_argument("--manifest", default=None, metavar="MANIFEST.json",
                     help="write a run manifest (seed, config, git rev, "
                          "counters, timings)")
    obs.add_argument("--flight-record", action="store_true",
                     help="attach the protocol flight recorder (one record "
                          "per aired frame with its receivers and losses, "
                          "auth and tracker events; per-link delivery/loss "
                          "totals and hop topology at the end) to the "
                          "trace; implies structured tracing and feeds "
                          "`python -m repro.obs analyze`")
    obs.add_argument("--causal-trace", action="store_true",
                     help="attach the causal provenance recorder (per-frame "
                          "cause stamps, page decodes) and the flight "
                          "recorder, whose frame records are the cross-node "
                          "edges, to the trace; implies structured tracing "
                          "and feeds "
                          "`python -m repro.obs critical-path/why`")
    return parser


def _scenario(args) -> Scenario:
    """The one scenario the command line describes.

    ``--attack-plan`` specs come first, then one default spec per
    ``--attack``; an unknown kind surfaces as a :class:`ConfigError` when
    the rig deploys it.  Without ``--topology`` a run is a star of
    ``--receivers``.  A plain star has no collisions (the paper's one-hop
    setup); adversarial runs have no ambient loss.
    """
    attacks = load_attack_plan(args.attack_plan) if args.attack_plan else ()
    attacks += tuple(AttackSpec(kind=name) for name in args.attack or ())
    adversarial = bool(attacks)
    if args.topology_file:
        topology = f"file:{args.topology_file}"
    elif args.topology:
        topology = args.topology
    else:
        topology = f"star:{args.receivers}"
    return Scenario(
        protocol=args.protocol, topology=topology, loss_rate=args.loss,
        ambient=not adversarial,
        collisions=adversarial or not topology.startswith("star"),
        image_size=args.image_kib * 1024, k=args.k, n=args.n,
        kprime=args.kprime, seed=args.seed, max_time=args.max_time,
        attacks=attacks,
    )


def _config_dict(args) -> dict:
    """The manifest's record of what was asked for on the command line."""
    config = {
        "protocol": args.protocol,
        "image_kib": args.image_kib,
        "k": args.k, "n": args.n, "kprime": args.kprime,
        "max_time": args.max_time,
    }
    if args.topology_file:
        config["topology_file"] = args.topology_file
    elif args.topology:
        config["topology"] = args.topology
    else:
        config["loss"] = args.loss
        config["receivers"] = args.receivers
    if args.attack:
        config["attack"] = list(args.attack)
    if args.attack_plan:
        config["attack_plan"] = args.attack_plan
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    sim = Simulator()
    log = None
    if args.trace_out or args.flight_record or args.causal_trace:
        from repro.obs.events import EventLog
        log = EventLog()
    flight = None
    if args.flight_record or args.causal_trace:
        from repro.obs.flight import FlightRecorder
        flight = FlightRecorder(log)
    causal = None
    if args.causal_trace:
        from repro.obs.flight import CausalRecorder
        causal = CausalRecorder(log)
    trace = TraceRecorder(sink=log, flight=flight, causal=causal)

    with stopwatch() as elapsed:
        try:
            rig = build_rig(_scenario(args), sim=sim, trace=trace)
        except ConfigError as exc:
            parser.error(str(exc))
        adversarial = bool(rig.scenario.attacks)
        result = run_attributed(rig) if adversarial else rig.run()
    wall_s = elapsed()

    print(f"protocol:        {result.protocol}")
    print(f"completed:       {result.completed}")
    print(f"images verified: {result.images_ok}")
    print(f"data packets:    {result.data_packets}")
    print(f"SNACK packets:   {result.snack_packets}")
    print(f"advertisements:  {result.adv_packets}")
    print(f"total bytes:     {result.total_bytes}")
    print(f"latency:         {result.latency:.1f} s")
    if adversarial:
        injected = result.counters.get("adv_frames_injected")
        if injected is not None:
            delivered = result.counters.get("adv_frames_delivered", 0)
            print(f"attacker frames: {injected} injected, "
                  f"{delivered} delivered")
    if args.energy:
        report = estimate_energy(result, n_nodes=len(rig.nodes) + 1,
                                 pipelines=[n.pipeline for n in rig.nodes])
        print("energy (network-wide):")
        for key, value in report.breakdown().items():
            print(f"  {key:10s} {value:.1f}")

    if flight is not None:
        # Topology map + per-link accounting summary land in the trace
        # before it is flushed and written.
        flight.finalize(sim.now)
    if log is not None:
        log.flush_open_spans(sim.now)
        if args.trace_out:
            log.write_jsonl(args.trace_out)
            print(f"wrote trace:     {args.trace_out} ({len(log)} events)")
    if args.manifest:
        from repro.obs.catalog import unregistered_names
        from repro.obs.manifest import RunManifest
        manifest = RunManifest.from_run(
            "repro.simulate", result, config=_config_dict(args),
            wall_s=wall_s, sim=sim,
            trace_file=args.trace_out,
            unregistered=unregistered_names(trace.counters),
        )
        manifest.write(args.manifest)
        print(f"wrote manifest:  {args.manifest}")
    return 0 if result.completed else 1


if __name__ == "__main__":
    sys.exit(main())
