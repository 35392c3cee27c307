#!/usr/bin/env python3
"""Repository benchmark for the LR-Seluge reproduction.

Runs one workload -- a fixed set of disseminations built from ``--seed`` --
through the public scenario entry points (``run_one_hop``, ``run_multihop``)
in this process, one dissemination after another, repeating the set until
``--seconds`` are used.  Every dissemination must complete with every node
holding the base image, and every repeat must reproduce the first one's
simulated outputs.

    python3 perfbench/run.py --workload grid-contention --seed 1 \\
        --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off), in seconds scaled
to a reference host speed by a calibration loop timed around every
dissemination.  ``--trace 1`` alternates untraced and traced repeats and
prints the per-layer ledger (see ``ledger.py``).  The last line of standard
output is the JSON result; the line before it holds the per-dissemination
paper metrics, their digest and the raw times.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

# Repeats per untraced run, whatever ``--seconds`` says.
MIN_REPEATS = 3
# Set-up-only passes after each untraced repeat.  Set-up is short next to a
# dissemination, so it gets extra samples, spread over the run like the rest.
SETUP_PASSES = 2
# Host-speed calibration: a fixed pure-Python loop, timed before, between and
# after the disseminations.  End-to-end times are scaled to a host on which
# the loop takes CALIB_REF_S (README.md, "Host speed").
CALIB_ITERATIONS = 5_000
CALIB_REF_S = 0.02


@dataclass(frozen=True)
class Case:
    """One dissemination: which entry point, its scenario, and recorders."""

    multihop: bool
    scenario: Any
    recorded: bool = False


@dataclass
class Outcome:
    ok: bool
    wall_s: float
    setup_s: float
    run_s: float
    events: int
    compactions: int
    logged: int
    paper: List[Any]
    counters: Dict[str, int]


@dataclass
class SetRun:
    outcomes: List[Outcome]
    calib_s: List[float]   # loop times before, between and after outcomes
    ledger: Any = None

    def _scaled(self, seconds: Callable[[Outcome], float]) -> float:
        """Sum of host seconds, each scaled by the loop times around it."""
        return sum(seconds(o) * _scale(before, after) for o, before, after
                   in zip(self.outcomes, self.calib_s, self.calib_s[1:]))

    @property
    def raw_wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def raw_events_per_s(self) -> float:
        return (sum(o.events for o in self.outcomes)
                / sum(o.run_s for o in self.outcomes))

    @property
    def wall_s(self) -> float:
        return self._scaled(lambda o: o.wall_s)

    @property
    def setup_s(self) -> float:
        return self._scaled(lambda o: o.setup_s)

    @property
    def events_per_s(self) -> float:
        return (sum(o.events for o in self.outcomes)
                / self._scaled(lambda o: o.run_s))

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)

    @property
    def digest(self) -> str:
        blob = json.dumps([o.paper for o in self.outcomes], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def total(self, *counters: str) -> int:
        return sum(o.counters.get(c, 0) for o in self.outcomes for c in counters)


# -- workloads --------------------------------------------------------------------

def _scenario_seeds(workload: str, seed: int, count: int) -> List[int]:
    """Scenario seeds derived from the workload seed (31-bit, stable)."""
    out = []
    for i in range(count):
        digest = hashlib.sha256(f"{workload}/{seed}/{i}".encode()).digest()
        out.append(int.from_bytes(digest[:4], "big") >> 1)
    return out


def _onehop(seeds: List[int], tiny: bool) -> List[Case]:
    from repro.experiments.scenarios import OneHopScenario

    shape = (dict(receivers=4, image_size=4 * 1024) if tiny
             else dict(receivers=20, image_size=20 * 1024))
    return [Case(False, OneHopScenario(protocol=protocol, loss_rate=0.3, k=32,
                                       n=48, seed=s, **shape))
            for s in seeds for protocol in ("lr-seluge", "seluge")]


def _contention(seeds: List[int], tiny: bool) -> List[Case]:
    from repro.experiments.scenarios import MultiHopScenario

    topology = "grid:3x3:3" if tiny else "grid:7x7:3"
    return [Case(True, MultiHopScenario(protocol="lr-seluge", topology=topology,
                                        image_size=4 * 1024, k=8, n=12, seed=s))
            for s in seeds]


def _recorded(seeds: List[int], tiny: bool) -> List[Case]:
    from repro.experiments.scenarios import MultiHopScenario

    topology = "grid:3x3:6" if tiny else "grid:7x7:6"
    return [Case(True, MultiHopScenario(protocol=protocol, topology=topology,
                                        image_size=4 * 1024, k=8, n=12, seed=s),
                 recorded=True)
            for s in seeds for protocol in ("deluge", "lr-seluge")]


@dataclass(frozen=True)
class Workload:
    seeds: int
    build: Callable[[List[int], bool], List[Case]]

    def cases(self, name: str, seed: int, tiny: bool = False) -> List[Case]:
        return self.build(_scenario_seeds(name, seed, self.seeds), tiny)


# The "why" of each workload is in BENCHMARK.json and perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {
    "onehop-decode": Workload(3, _onehop),
    "grid-contention": Workload(3, _contention),
    "grid-recorded": Workload(1, _recorded),
}


# -- one dissemination --------------------------------------------------------------

def _start(case: Case, sim: Any) -> Tuple[Any, Any]:
    """Call the scenario entry point with ``sim``; return (result, trace)."""
    from repro.experiments.scenarios import run_multihop, run_one_hop
    from repro.obs.events import EventLog
    from repro.obs.flight import CausalRecorder, FlightRecorder
    from repro.sim.trace import TraceRecorder

    if case.recorded:
        log = EventLog()
        trace = TraceRecorder(sink=log, flight=FlightRecorder(log),
                              causal=CausalRecorder(log))
    else:
        trace = TraceRecorder()
    run = run_multihop if case.multihop else run_one_hop
    return run(case.scenario, sim=sim, trace=trace), trace


def setup_pass(cases: List[Case]) -> float:
    """Scaled seconds to set up every case of the set, simulating none."""
    from ledger import BenchSimulator, SetupDone

    before = calibrate()
    total = 0.0
    for case in cases:
        sim = BenchSimulator(setup_only=True)
        start = time.perf_counter()
        try:
            _start(case, sim)
        except SetupDone:
            total += sim.first_run_at - start
        else:
            raise RuntimeError("scenario returned without running")
    return total * _scale(before, calibrate())


def disseminate(case: Case, tracer: Any = None) -> Outcome:
    from ledger import BenchSimulator

    sim = BenchSimulator(tracer)
    start = time.perf_counter()
    result, trace = _start(case, sim)
    log = trace.sink
    if log is not None:
        trace.flight.finalize(sim.now)
        log.flush_open_spans(sim.now)
    wall = time.perf_counter() - start
    scenario = case.scenario
    return Outcome(
        ok=bool(result.completed and result.images_ok),
        wall_s=wall,
        setup_s=(sim.first_run_at or start) - start,
        run_s=sim.run_s,
        events=sim.processed_events,
        compactions=sim.heap_stats()["compactions"],
        logged=len(log) if log is not None else 0,
        paper=[scenario.protocol, scenario.seed, result.data_packets,
               result.snack_packets, result.adv_packets, result.total_bytes,
               repr(result.latency)],
        counters=trace.snapshot(),
    )


def run_set(cases: List[Case], tracer: Any = None) -> SetRun:
    """Run every case once; with a tracer, fold its spans per dissemination."""
    from ledger import Ledger

    outcomes, ledger = [], Ledger() if tracer is not None else None
    calib = [calibrate()]
    for case in cases:
        outcomes.append(disseminate(case, tracer))
        if tracer is not None:
            ledger.add(tracer.fold())
        # Radio, nodes and recorders hold reference cycles; free them now
        # so peak memory is one dissemination's, not a matter of GC timing.
        gc.collect()
        calib.append(calibrate())
    return SetRun(outcomes, calib, ledger)


class _Item:
    __slots__ = ("due", "seq", "payload")

    def __init__(self, due: int, seq: int, payload: Tuple[int, str]) -> None:
        self.due, self.seq, self.payload = due, seq, payload

    def __lt__(self, other: "_Item") -> bool:
        return (self.due, self.seq) < (other.due, other.seq)


def calibrate() -> float:
    """Host seconds for a fixed pure-Python loop (no repository code).

    Like an event loop it allocates, compares in Python and keeps a heap and
    a dict, so memory contention on a shared host slows it as it slows the
    simulator; a pure arithmetic loop tracked the simulator less well.
    """
    start = time.perf_counter()
    heap: List[_Item] = []
    table: Dict[Tuple[str, int], int] = {}
    for i in range(CALIB_ITERATIONS):
        heapq.heappush(heap, _Item(i * 7919 % 1009, i, (i, str(i))))
        key = ("k", i % 997)
        table[key] = table.get(key, 0) + 1
        if len(heap) > 300:
            heapq.heappop(heap)
    return time.perf_counter() - start


def _scale(before: float, after: float) -> float:
    """Factor from host seconds to reference-host seconds."""
    return CALIB_REF_S / ((before + after) / 2.0)


# -- metrics ------------------------------------------------------------------------

def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(reps: List[SetRun],
               setups: List[float]) -> Dict[str, Dict[str, Any]]:
    """Medians over the repeats of times scaled to the reference host."""
    attempted = sum(len(r.outcomes) for r in reps)
    failed = sum(r.failed for r in reps)
    return {
        "wall_s": _metric(statistics.median(r.wall_s for r in reps), "s"),
        "setup_s": _metric(
            statistics.median(setups + [r.setup_s for r in reps]), "s"),
        "events_per_s": _metric(
            statistics.median(r.events_per_s for r in reps), "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "completed_share": _metric((attempted - failed) / attempted, "ratio"),
    }


def _calib_median(reps: List[SetRun]) -> float:
    return statistics.median(c for r in reps for c in r.calib_s)


def _per(value: float, count: int, scale: float = 1e6) -> float:
    return value / count * scale if count else 0.0


def per_layer(plain: List[SetRun],
              traced: List[SetRun]) -> Dict[str, Dict[str, Any]]:
    """Layer times are host seconds, as the spans measured them."""
    def self_s(layer: str) -> float:
        return statistics.median(r.ledger.self_s[layer] for r in traced)

    def incl_s(op: str) -> float:
        return statistics.median(r.ledger.incl_s[op] for r in traced)

    first = traced[0]
    calls = first.ledger.calls
    attempts = first.total("rx_delivered", "rx_lost", "rx_collision",
                           "rx_halfduplex_miss", "rx_fault_dropped")
    should_drop = calls["channel.should_drop"]
    rx_calls = calls["protocols.on_receive"]
    events = sum(o.events for o in first.outcomes)
    unattributed = statistics.median(r.raw_wall_s - r.ledger.attributed_s
                                     for r in traced)
    values: List[Tuple[str, float, str]] = [
        ("radio.self_s", self_s("radio"), "s"),
        ("radio.self_us_per_attempt", _per(self_s("radio"), attempts), "us"),
        ("radio.delivery_attempts", attempts, "count"),
        ("radio.delivered_share",
         _per(first.total("rx_delivered"), attempts, 1.0), "ratio"),
        ("radio.collision_drops",
         first.total("rx_collision", "rx_halfduplex_miss"), "count"),
        ("radio.mac_drops", first.total("mac_drop"), "count"),
        ("radio.frames_aired", first.total("tx_total"), "count"),
        ("channel.calls", should_drop, "count"),
        ("channel.self_s", self_s("channel"), "s"),
        ("channel.self_us_per_call", _per(self_s("channel"), should_drop), "us"),
        ("channel.drop_share",
         _per(first.total("rx_lost"), should_drop, 1.0), "ratio"),
        ("erasure.decode_calls", calls["erasure.decode"], "count"),
        ("erasure.decode_s", incl_s("erasure.decode"), "s"),
        ("erasure.encode_calls", calls["erasure.encode"], "count"),
        ("erasure.self_s", self_s("erasure"), "s"),
        ("crypto.verify_calls", calls["crypto.verify"], "count"),
        ("crypto.verify_s", incl_s("crypto.verify"), "s"),
        ("crypto.hash_calls", calls["crypto.hash"], "count"),
        ("crypto.self_s", self_s("crypto"), "s"),
        ("crypto.auth_drops", first.total("data_rejected"), "count"),
        ("preprocess.build_s", incl_s("preprocess.build"), "s"),
        ("protocols.rx_calls", rx_calls, "count"),
        ("protocols.timer_fires", calls["protocols.timer"], "count"),
        ("protocols.self_s", self_s("protocols"), "s"),
        ("protocols.self_us_per_rx", _per(self_s("protocols"), rx_calls), "us"),
        ("obs.calls", calls["obs.call"], "count"),
        ("obs.events_logged", sum(o.logged for o in first.outcomes), "count"),
        ("obs.self_s", self_s("obs"), "s"),
        ("sim.events", events, "count"),
        ("sim.self_s", self_s("sim"), "s"),
        ("sim.self_us_per_event", _per(self_s("sim"), events), "us"),
        ("sim.heap_compactions",
         sum(o.compactions for o in first.outcomes), "count"),
        ("protocols.data_pkts", sum(o.paper[2] for o in first.outcomes), "count"),
        ("protocols.snack_pkts", sum(o.paper[3] for o in first.outcomes), "count"),
        ("protocols.adv_pkts", sum(o.paper[4] for o in first.outcomes), "count"),
        ("protocols.total_bytes", sum(o.paper[5] for o in first.outcomes), "B"),
        ("protocols.sim_latency_s",
         sum(float(o.paper[6]) for o in first.outcomes), "s"),
        ("trace.overhead_ratio",
         statistics.median(t.wall_s / p.wall_s for p, t in zip(plain, traced)),
         "ratio"),
        ("trace.unattributed_s", unattributed, "s"),
        ("host.calib_s", _calib_median(plain), "s"),
        ("host.raw_wall_s",
         statistics.median(r.raw_wall_s for r in plain), "s"),
        ("host.raw_events_per_s",
         statistics.median(r.raw_events_per_s for r in plain), "1/s"),
    ]
    return {name: _metric(value, unit) for name, value, unit in values}


# -- entry point -------------------------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the workload; return (result line, detail line)."""
    from ledger import Boundaries, Tracer

    workload = WORKLOADS[name]
    cases = workload.cases(name, seed, tiny)
    # Lazy imports and table set-up happen once per process for a user too;
    # a tiny set runs them before anything is timed.
    run_set(workload.cases(name, seed, tiny=True))

    start = time.perf_counter()
    setups: List[float] = []
    plain: List[SetRun] = []
    traced: List[SetRun] = []
    tracer = Tracer() if trace else None
    while True:
        plain.append(run_set(cases))
        if tracer is not None:
            with Boundaries(tracer):
                traced.append(run_set(cases, tracer))
        else:
            setups += [setup_pass(cases) for _ in range(SETUP_PASSES)]
        elapsed = time.perf_counter() - start
        step = elapsed / len(plain)
        if len(plain) >= (1 if trace else MIN_REPEATS) and elapsed + step > seconds:
            break

    digests = {r.digest for r in plain + traced}
    runs = plain + traced
    attempted = sum(len(r.outcomes) for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = (per_layer(plain, traced) if trace
               else end_to_end(plain, setups))
    result = {"correct": failed == 0 and len(digests) == 1,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "repeats": len(plain), "traced_repeats": len(traced),
        "digest": plain[0].digest,
        "traced_digest": traced[0].digest if traced else None,
        "traced_raw_wall_s": (statistics.median(r.raw_wall_s for r in traced)
                              if traced else None),
        "host.calib_s": _calib_median(plain),
        "repeat_wall_s": [r.wall_s for r in plain],
        "repeat_raw_wall_s": [r.raw_wall_s for r in plain],
        "repeat_events_per_s": [r.events_per_s for r in plain],
        "repeat_raw_events_per_s": [r.raw_events_per_s for r in plain],
        "setup_samples_s": setups + [r.setup_s for r in plain],
        "paper_metrics": [["protocol", "scenario_seed", "data_pkts",
                           "snack_pkts", "adv_pkts", "total_bytes",
                           "latency_s"]] + [o.paper for o in plain[0].outcomes],
    }
    return result, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own tests only")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "experiments" / "scenarios.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, detail = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.size == "tiny")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
