"""Micro-benchmarks of the computational kernels.

These are the operations a sensor node performs per packet/page; their cost
drives the simulator's computation-overhead accounting and any real
deployment's energy budget.
"""

import itertools

import numpy as np
import pytest

from repro.core.scheduler import GreedyRoundRobinScheduler, TrackingTable
from repro.crypto.ecdsa import generate_keypair, sign, verify
from repro.crypto.hashing import hash_image
from repro.crypto.merkle import MerkleTree, verify_merkle_path
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.erasure.gf256 import GF256
from repro.erasure.rs import ReedSolomonCode
from repro.net.channel import GilbertElliottLoss, NoLoss
from repro.net.node import NetworkNode
from repro.net.packet import Frame, FrameKind
from repro.net.radio import Radio, RadioConfig
from repro.net.topology import Topology, grid_topology, star_topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Observer, TraceRecorder


@pytest.fixture(scope="module")
def page_blocks():
    rng = np.random.default_rng(1)
    return [rng.integers(0, 256, 72, dtype=np.uint8).tobytes() for _ in range(32)]


@pytest.fixture(scope="module")
def rs_code():
    return ReedSolomonCode(32, 48, 34)


def test_rs_encode_page(benchmark, rs_code, page_blocks):
    """Encode one 32-block page into 48 packets (sender-side per serve)."""
    encoded = benchmark(rs_code.encode, page_blocks)
    assert len(encoded) == 48


def test_rs_decode_page_worst_case(benchmark, rs_code, page_blocks):
    """Decode with 16 erased source rows, the most k=32/n=48 allows."""
    encoded = rs_code.encode(page_blocks)
    received = {i: encoded[i] for i in range(16, 48)}
    decoded = benchmark(rs_code.decode, received)
    assert decoded == page_blocks


def test_rs_decode_page_typical(benchmark, rs_code, page_blocks):
    """Decode with 9 erased source rows, the mean on the one-hop p=0.3 run."""
    encoded = rs_code.encode(page_blocks)
    received = {i: encoded[i] for i in range(9, 41)}
    decoded = benchmark(rs_code.decode, received)
    assert decoded == page_blocks


def test_rs_decode_page_systematic(benchmark, rs_code, page_blocks):
    encoded = rs_code.encode(page_blocks)
    received = {i: encoded[i] for i in range(32)}
    decoded = benchmark(rs_code.decode, received)
    assert decoded == page_blocks


def test_gf_matmul(benchmark):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=(16, 32), dtype=np.uint8)
    b = rng.integers(0, 256, size=(32, 72), dtype=np.uint8)
    out = benchmark(GF256.matmul, a, b)
    assert out.shape == (16, 72)


def test_hash_image_per_packet(benchmark):
    payload = bytes(range(83))
    digest = benchmark(hash_image, payload)
    assert len(digest) == 8


def test_merkle_build(benchmark):
    leaves = [bytes([i]) * 80 for i in range(8)]
    tree = benchmark(MerkleTree, leaves)
    assert tree.depth == 3


def test_merkle_verify_path(benchmark):
    leaves = [bytes([i]) * 80 for i in range(8)]
    tree = MerkleTree(leaves)
    path = tree.auth_path(3)
    ok = benchmark(verify_merkle_path, leaves[3], 3, path, tree.root)
    assert ok


def test_ecdsa_keygen(benchmark):
    kp = benchmark(generate_keypair, 1)
    assert verify(b"root||metadata", sign(b"root||metadata", kp), kp.public)


def test_ecdsa_sign(benchmark):
    kp = generate_keypair(1)
    sig = benchmark(sign, b"root||metadata", kp)
    assert verify(b"root||metadata", sig, kp.public)


def test_ecdsa_verify(benchmark):
    kp = generate_keypair(1)
    sig = sign(b"root||metadata", kp)
    ok = benchmark(verify, b"root||metadata", sig, kp.public)
    assert ok


def test_puzzle_check(benchmark):
    puzzle = MessageSpecificPuzzle(difficulty=10)
    solution = puzzle.solve(b"sig", b"keykeyke")
    ok = benchmark(puzzle.check, b"sig", solution)
    assert ok


def test_scheduler_drain_20_requesters(benchmark):
    def run():
        table = TrackingTable(48, 34)
        for node in range(20):
            table.update_from_snack(node, set(range(node % 5, 48, 1 + node % 3)))
        return GreedyRoundRobinScheduler(table).drain()

    order = benchmark(run)
    assert order


def test_tornado_encode_page(benchmark, page_blocks):
    from repro.erasure.tornado import TornadoCode

    code = TornadoCode(32, 48, seed=1)
    encoded = benchmark(code.encode, page_blocks)
    assert len(encoded) == 48


def test_tornado_decode_page(benchmark, page_blocks):
    from repro.erasure.tornado import TornadoCode

    code = TornadoCode(32, 48, seed=1)
    encoded = code.encode(page_blocks)
    received = {i: encoded[i] for i in range(10, 48)}
    decoded = benchmark(code.decode, received)
    assert decoded == page_blocks


def test_lt_decode_page(benchmark, page_blocks):
    from repro.erasure.lt import LTCode

    code = LTCode(32, 56, seed=1)
    encoded = code.encode(page_blocks)
    received = {i: encoded[i] for i in range(56)}
    decoded = benchmark(code.decode, received)
    assert decoded == page_blocks


class _Listener(NetworkNode):
    def on_receive(self, frame, sender):
        pass


@pytest.mark.parametrize("degree", [4, 8, 16, 32])
def test_radio_deliver_frame(benchmark, degree):
    """Air one frame to ``degree`` listeners with collisions on.

    A far-away pair has already aired 256 frames, so a collision model that
    scans past frames pays for them here; per-receiver state should cost
    O(degree) per frame whatever went before.
    """
    far = degree + 1
    neighbors = {0: list(range(1, far)), far: [far + 1], far + 1: [far]}
    for v in range(1, far):
        neighbors[v] = [0]
    topo = Topology(positions={u: (float(u), 0.0) for u in neighbors},
                    neighbors=neighbors)
    sim = Simulator()
    rngs = RngRegistry(1)
    trace = TraceRecorder()
    radio = Radio(sim, topo, NoLoss(), rngs, trace, RadioConfig(collisions=True))
    nodes = {u: _Listener(u, sim, radio, rngs, trace) for u in neighbors}
    for _ in range(256):
        nodes[far].broadcast(FrameKind.DATA, 20, None)
    sim.run()

    def deliver():
        nodes[0].broadcast(FrameKind.DATA, 60, None)
        sim.run()

    benchmark(deliver)
    sent = trace.counters["tx_total"] - 256
    assert trace.counters["rx_delivered"] == 256 + degree * sent
    assert trace.counters.get("rx_collision", 0) == 0


def test_engine_timer_churn(benchmark):
    """Arm 10k timers, re-arm each once, then run.

    Re-arming cancels the pending event and schedules a new one, the
    pattern of every protocol retransmission timer; the cancels force heap
    compactions, and ties in time exercise the sequence tie-break.
    """

    def churn():
        sim = Simulator()
        fired = []
        timers = [sim.schedule(1.0 + (i % 97) * 0.01, fired.append, i) for i in range(10_000)]
        for i, timer in enumerate(timers):
            timer.cancel()
            sim.schedule(0.5 + (i % 89) * 0.01, fired.append, i)
        sim.run()
        return sim, fired

    sim, fired = benchmark(churn)
    assert sorted(fired) == list(range(10_000))
    assert sim.heap_stats()["compactions"] > 0


def test_loss_composite_should_drop(benchmark):
    """10k ambient-loss decisions over the links of ``grid:7x7:3``.

    The multi-hop grids' loss model: one Gilbert-Elliott chain per link
    behind the link's static loss, asked once per delivery attempt.  Streams
    are resolved before timing starts; time keeps advancing across rounds.
    """
    topo = grid_topology(7, 7, spacing=3.0, rngs=RngRegistry(1))
    model = GilbertElliottLoss(loss_good=0.05, loss_bad=0.5, mean_good=6.0,
                               mean_bad=2.0, loss_map=topo.link_loss)
    rngs = RngRegistry(1)
    frame = Frame(kind=FrameKind.DATA, sender=0, size_bytes=40, payload=None)
    links = itertools.cycle(sorted(topo.link_loss))
    clock = itertools.count()

    def decide():
        drop = model.should_drop
        return sum(drop(rngs, s, r, frame, next(clock) * 1e-3)
                   for s, r in itertools.islice(links, 10_000))

    decide()
    drops = benchmark(decide)
    assert 0 < drops < 10_000


class _DataFrames(Observer):
    def __init__(self):
        self.frames = []

    def on_tx(self, ts, frame, unit):
        if frame.kind is FrameKind.DATA:
            self.frames.append(frame)


def test_on_receive_overheard_data(benchmark):
    """An lr-seluge node receives DATA for a page it already holds.

    Most receptions on a dense grid are such overheard packets: the node
    checks the packet against its chained hash and notes the sender's
    progress, but buffers nothing.
    """
    from repro.core.image import CodeImage
    from repro.experiments.runner import CompletionTracker, run_network
    from repro.experiments.scenarios import build_protocol_network, make_params

    sim, rngs, trace = Simulator(), RngRegistry(5), TraceRecorder()
    aired = _DataFrames()
    trace.subscribe(aired)
    radio = Radio(sim, star_topology(2), NoLoss(), rngs, trace,
                  config=RadioConfig(collisions=False))
    params = make_params("lr-seluge", image_size=3000, k=8, n=12)
    image = CodeImage.synthetic(3000, version=2, seed=5)
    tracker = CompletionTracker(trace)
    base, nodes, _ = build_protocol_network("lr-seluge", sim, radio, rngs, trace,
                                            params, image, tracker)
    base.start()
    result = run_network(sim, trace, tracker, nodes, "lr-seluge",
                         expected_image=image.data)
    assert result.completed
    frame = next(f for f in aired.frames if f.payload.unit == 2)
    node = next(n for n in nodes if n.node_id != frame.sender)
    benchmark(node.on_receive, frame, frame.sender)
    assert node.complete
    assert node.pipeline.validate_overheard(frame.payload)
