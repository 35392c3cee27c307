"""Security experiments: the attacks of DESIGN.md E8 against real networks."""

from repro.attacks import (
    BogusDataInjector,
    DenialOfReceiptAttacker,
    SignatureFlooder,
)
from repro.core.image import CodeImage
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import build_protocol_network, make_params
from repro.net.channel import NoLoss
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder


def _attacked_network(protocol, attacker_cls, attacker_kwargs=None,
                      receivers=3, image_size=3000, seed=5,
                      snack_flood_threshold=None, base_start_delay=0.0):
    sim = Simulator()
    rngs = RngRegistry(seed)
    trace = TraceRecorder()
    # Reserve the highest node id for the attacker.
    topo = star_topology(receivers + 1)
    radio = Radio(sim, topo, NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params(protocol, image_size=image_size, k=8, n=12)
    image = CodeImage.synthetic(image_size, version=2, seed=seed)
    tracker = CompletionTracker(trace)
    builder_kwargs = {}
    if protocol in ("seluge", "lr-seluge") and snack_flood_threshold is not None:
        builder_kwargs["snack_flood_threshold"] = snack_flood_threshold
    from repro.experiments.scenarios import _BUILDERS
    attacker_id = receivers + 1
    base, nodes, pre = _BUILDERS[protocol](
        sim, radio, rngs, trace, params, image=image,
        receiver_ids=list(range(1, receivers + 1)),
        on_complete=tracker, **builder_kwargs,
    )
    attacker = attacker_cls(attacker_id, sim, radio, rngs, trace,
                            **(attacker_kwargs or {}))
    attacker.start()
    if base_start_delay:
        sim.schedule(base_start_delay, base.start)
    else:
        base.start()
    result = run_network(sim, trace, tracker, nodes, protocol,
                         max_time=2400.0, expected_image=image.data)
    return result, nodes, attacker, trace


def test_lr_seluge_rejects_bogus_data():
    result, nodes, attacker, trace = _attacked_network(
        "lr-seluge", BogusDataInjector, {"period": 0.3},
    )
    assert result.completed
    assert result.images_ok  # integrity preserved
    assert attacker.sent > 0
    rejected = sum(
        node.pipeline.stats.get("rejected_packets", 0)
        + node.pipeline.stats.get("rejected_no_expectation", 0)
        + node.pipeline.stats.get("rejected_no_root", 0)
        for node in nodes
    )
    assert rejected > 0  # forgeries were seen and dropped on arrival


def test_seluge_rejects_bogus_data():
    result, nodes, attacker, trace = _attacked_network(
        "seluge", BogusDataInjector, {"period": 0.3},
    )
    assert result.completed and result.images_ok


def test_deluge_is_vulnerable_to_pollution():
    """The insecure baseline accepts forged packets: integrity is lost."""
    result, nodes, attacker, trace = _attacked_network(
        "deluge", BogusDataInjector, {"period": 0.05, "payload_size": 72},
        seed=8,
    )
    # Either some node assembled a corrupted image, or dissemination wedged.
    assert (result.images_ok is False) or not result.completed


def test_signature_flooder_filtered_by_puzzle():
    # Flood before the legitimate signature arrives: nodes without the root
    # must puzzle-check (one hash) every forgery but never run ECDSA on one.
    result, nodes, attacker, trace = _attacked_network(
        "lr-seluge", SignatureFlooder, {"period": 0.2},
        base_start_delay=10.0,
    )
    assert result.completed and result.images_ok
    assert attacker.sent > 10
    for node in nodes:
        stats = node.pipeline.stats
        # Every forged signature packet costs one cheap puzzle check...
        assert stats["puzzle_checks"] > 1
        # ...but at most ~one expensive ECDSA verification ever runs.
        assert stats["signature_verifications"] <= 2


def test_denial_of_receipt_bounded_by_counter():
    result, nodes, attacker, trace = _attacked_network(
        "lr-seluge", DenialOfReceiptAttacker,
        {"period": 0.5, "victim": 0, "unit": 2, "n_packets": 12},
        snack_flood_threshold=5,
    )
    assert result.completed
    assert trace.counters.get("snack_ignored_flood", 0) > 0


def test_denial_of_receipt_unbounded_without_mitigation():
    result, nodes, attacker, trace = _attacked_network(
        "lr-seluge", DenialOfReceiptAttacker,
        {"period": 0.5, "victim": 0, "unit": 2, "n_packets": 12},
        snack_flood_threshold=None,
    )
    assert result.completed
    assert trace.counters.get("snack_ignored_flood", 0) == 0
    # The victim keeps serving the attacker: wasted transmissions accrue.
    assert trace.counters.get("attack_dor_snack", 0) > 10
