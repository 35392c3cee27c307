#!/usr/bin/env python
"""Attack resilience demo: why dissemination needs Seluge-style security.

Runs three adversaries from the paper's threat model against live
disseminations and reports what each protocol does:

1. bogus-data injection — Deluge is polluted; LR-Seluge drops every forgery
   with a single hash comparison, on arrival, before buffering;
2. signature flooding — the message-specific puzzle filters forgeries at
   one hash each, so at most one ECDSA verification ever runs per node;
3. denial of receipt — a compromised node SNACK-spams a victim; the
   optional per-neighbor counter (Section IV-E) bounds the damage.

Run:  python examples/attack_resilience.py
"""

from repro.attacks import (
    BogusDataInjector,
    DenialOfReceiptAttacker,
    SignatureFlooder,
)
from repro.core.image import CodeImage
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import _BUILDERS, make_params
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

RECEIVERS = 5
IMAGE_SIZE = 3 * 1024


def run_attack(protocol, attacker_cls, attacker_kwargs, base_delay=0.0,
               snack_flood_threshold=None, seed=5):
    sim = Simulator()
    rngs = RngRegistry(seed)
    trace = TraceRecorder()
    topo = star_topology(RECEIVERS + 1)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params(protocol, image_size=IMAGE_SIZE, k=8, n=12)
    image = CodeImage.synthetic(IMAGE_SIZE, version=2, seed=seed)
    tracker = CompletionTracker(trace)
    kwargs = {}
    if protocol != "deluge" and snack_flood_threshold is not None:
        kwargs["snack_flood_threshold"] = snack_flood_threshold
    base, nodes, pre = _BUILDERS[protocol](
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=list(range(1, RECEIVERS + 1)), on_complete=tracker, **kwargs,
    )
    attacker = attacker_cls(RECEIVERS + 1, sim, radio, rngs, trace,
                            **attacker_kwargs)
    attacker.start()
    if base_delay:
        sim.schedule(base_delay, base.start)
    else:
        base.start()
    result = run_network(sim, trace, tracker, nodes, protocol,
                         max_time=2400.0, expected_image=image.data)
    return result, nodes, attacker, trace


def main() -> None:
    print("=== 1. Bogus data injection ===")
    for protocol in ("deluge", "lr-seluge"):
        result, nodes, attacker, trace = run_attack(
            protocol, BogusDataInjector, {"period": 0.1}, seed=8)
        verdict = ("IMAGE CORRUPTED / STALLED"
                   if not (result.completed and result.images_ok)
                   else "image intact")
        print(f"{protocol:>10}: {attacker.sent} forgeries injected -> {verdict}")
        if protocol == "lr-seluge":
            rejected = sum(n.pipeline.stats.get("rejected_packets", 0)
                           + n.pipeline.stats.get("rejected_no_expectation", 0)
                           for n in nodes)
            print(f"{'':>12}every forgery dropped on arrival "
                  f"({rejected} rejections, 1 hash each)")

    print("\n=== 2. Signature flooding ===")
    result, nodes, attacker, trace = run_attack(
        "lr-seluge", SignatureFlooder, {"period": 0.1}, base_delay=5.0)
    puzzle_checks = sum(n.pipeline.stats["puzzle_checks"] for n in nodes)
    ecdsa = sum(n.pipeline.stats["signature_verifications"] for n in nodes)
    print(f"{attacker.sent} forged signature packets broadcast")
    print(f"puzzle checks (1 hash each): {puzzle_checks}; "
          f"ECDSA verifications across {len(nodes)} nodes: {ecdsa}")
    print(f"dissemination completed: {result.completed}, images ok: {result.images_ok}")

    print("\n=== 3. Denial of receipt ===")
    for threshold, label in ((None, "no mitigation"), (5, "SNACK counter = 5")):
        result, nodes, attacker, trace = run_attack(
            "lr-seluge", DenialOfReceiptAttacker,
            {"period": 0.5, "victim": 0, "unit": 2, "n_packets": 12},
            snack_flood_threshold=threshold)
        wasted = trace.counters.get("tx_data_unit_2", 0)
        ignored = trace.counters.get("snack_ignored_flood", 0)
        print(f"{label:>18}: victim transmitted {wasted} unit-2 packets for the "
              f"attacker; {ignored} SNACKs ignored; completed={result.completed}")


if __name__ == "__main__":
    main()
