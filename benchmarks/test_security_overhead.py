"""E8: security properties and their cost under active attacks.

Regenerates the security comparison: dissemination under a bogus-data
flood (secure protocols reject every forgery with one hash; Deluge is
polluted) and under a signature flood (puzzle filters at one hash each,
ECDSA runs at most once per node).
"""

import pytest
from conftest import FULL

from repro.attacks import BogusDataInjector, SignatureFlooder
from repro.core.image import CodeImage
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import _BUILDERS, make_params
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

_IMAGE = 8 * 1024 if FULL else 3 * 1024
_RECEIVERS = 10 if FULL else 4


def _run_under_attack(protocol, attacker_cls, attacker_kwargs, seed=5,
                      base_delay=0.0):
    sim = Simulator()
    rngs = RngRegistry(seed)
    trace = TraceRecorder()
    topo = star_topology(_RECEIVERS + 1)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params(protocol, image_size=_IMAGE, k=8, n=12)
    image = CodeImage.synthetic(_IMAGE, version=2, seed=seed)
    tracker = CompletionTracker(trace)
    base, nodes, pre = _BUILDERS[protocol](
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=list(range(1, _RECEIVERS + 1)), on_complete=tracker,
    )
    attacker = attacker_cls(_RECEIVERS + 1, sim, radio, rngs, trace,
                            **attacker_kwargs)
    attacker.start()
    if base_delay:
        sim.schedule(base_delay, base.start)
    else:
        base.start()
    result = run_network(sim, trace, tracker, nodes, protocol,
                         max_time=3600.0, expected_image=image.data)
    return result, nodes, attacker


def test_pollution_resistance_lr_seluge(benchmark):
    result, nodes, attacker = benchmark.pedantic(
        lambda: _run_under_attack("lr-seluge", BogusDataInjector, {"period": 0.2}),
        rounds=1, iterations=1,
    )
    assert result.completed and result.images_ok
    rejected = sum(
        n.pipeline.stats.get("rejected_packets", 0)
        + n.pipeline.stats.get("rejected_no_expectation", 0)
        for n in nodes
    )
    print(f"\nforged packets sent: {attacker.sent}, rejections logged: {rejected}, "
          f"image integrity preserved at all {len(nodes)} nodes")
    assert rejected > 0


def test_pollution_breaks_deluge(benchmark):
    result, nodes, attacker = benchmark.pedantic(
        lambda: _run_under_attack("deluge", BogusDataInjector,
                                  {"period": 0.05}, seed=8),
        rounds=1, iterations=1,
    )
    print(f"\nforged packets sent: {attacker.sent}; deluge completed={result.completed} "
          f"images_ok={result.images_ok}")
    assert (result.images_ok is False) or not result.completed


def test_signature_flood_cost(benchmark):
    result, nodes, attacker = benchmark.pedantic(
        lambda: _run_under_attack("lr-seluge", SignatureFlooder,
                                  {"period": 0.1}, base_delay=5.0),
        rounds=1, iterations=1,
    )
    assert result.completed and result.images_ok
    puzzle_checks = sum(n.pipeline.stats["puzzle_checks"] for n in nodes)
    ecdsa_ops = sum(n.pipeline.stats["signature_verifications"] for n in nodes)
    print(f"\nforged signatures: {attacker.sent}; puzzle checks (1 hash each): "
          f"{puzzle_checks}; ECDSA verifications: {ecdsa_ops} "
          f"(= {ecdsa_ops / len(nodes):.1f} per node)")
    assert ecdsa_ops <= 2 * len(nodes)
