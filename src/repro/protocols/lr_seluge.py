"""LR-Seluge: the paper's contribution.

Differences from Seluge, all of which live here and in
:mod:`repro.core`:

* pages are erasure-coded (``k``-``n``-``k'``); any ``k'`` authenticated
  packets recover a page;
* the hash images of page ``i+1``'s *n encoded packets* travel inside page
  ``i``'s payload, so decoding one page arms immediate authentication for
  the whole next page;
* the TX state runs the tracking-table greedy round-robin scheduler instead
  of the union rule, transmitting the fewest packets that satisfy every
  requesting neighbor simultaneously.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.config import LRSelugeParams
from repro.core.image import CodeImage
from repro.core.preprocess import LRSelugePreprocessor, PreprocessedImage
from repro.core.scheduler import GreedyRoundRobinScheduler, TrackingTable
from repro.core.verify import LRSelugeReceiver, VerificationMemo
from repro.crypto.ecdsa import EcdsaKeyPair, generate_keypair
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.net.radio import Radio
from repro.protocols.common import DisseminationNode, ProtocolName, TxPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["LRSelugeNode", "TrackingPolicy", "build_lr_seluge_network"]


class TrackingPolicy(TxPolicy):
    """Tracking table + greedy round-robin (Section IV-D3)."""

    def __init__(self, n_packets: int, threshold: int):
        self.table = TrackingTable(n_packets, threshold)
        self._sched = GreedyRoundRobinScheduler(self.table)

    @property
    def empty(self) -> bool:
        return not self.table.entries

    def on_snack(self, requester: int, needed: Tuple[int, ...]) -> None:
        self.table.update_from_snack(requester, needed)

    def next_packet(self) -> Optional[int]:
        return self._sched.next_packet()

    def mark_sent(self, index: int) -> None:
        self.table.mark_sent(index)

    def snapshot(self) -> Optional[dict]:
        return self.table.snapshot()


class LRSelugeNode(DisseminationNode):
    """An LR-Seluge participant.

    LR-Seluge inherits Deluge's epidemic suppression mechanisms (the paper,
    Section IV-E); suppressed requesters recover cheaply because any ``k'``
    packets decode a page, so overhearing a burst sized for another node's
    deficit still satisfies most of their own.
    """

    protocol = ProtocolName.LR_SELUGE

    #: Causal-tracer label: erasure-coded pages served off the tracking
    #: table — the paper predicts critical paths trade retransmission wait
    #: for (cheap) decode edges under loss.
    causal_profile = "erasure-tracking"

    #: TX policy selector: "tracking" (the paper's greedy round-robin) or
    #: "union" (Deluge-style, for the scheduler ablation E10).
    scheduler_kind: str = "tracking"

    def make_tx_policy(self, unit: int) -> TxPolicy:
        n_packets, threshold = self.pipeline.geometry(unit)
        if self.scheduler_kind == "union":
            from repro.protocols.deluge import UnionPolicy

            return UnionPolicy(n_packets)
        return TrackingPolicy(n_packets, threshold)


def build_lr_seluge_network(
    sim: Simulator,
    radio: Radio,
    rngs: RngRegistry,
    trace: TraceRecorder,
    params: LRSelugeParams,
    image: Optional[CodeImage] = None,
    receiver_ids: Optional[List[int]] = None,
    base_id: int = 0,
    keypair: Optional[EcdsaKeyPair] = None,
    puzzle_difficulty: int = 10,
    on_complete: Optional[Callable[[DisseminationNode], None]] = None,
    snack_flood_threshold: Optional[int] = None,
    control_auth: Optional[str] = None,
) -> Tuple[LRSelugeNode, List[LRSelugeNode], PreprocessedImage]:
    """Instantiate a base station plus receivers on the radio's topology.

    ``control_auth`` enables advertisement/SNACK MACs: ``"cluster"`` (the
    Seluge cluster key) or ``"pairwise"`` (LEAP-style, Section IV-E).
    """
    from repro.protocols.control_auth import make_authenticator
    from repro.sim.rng import derive_seed

    image = image or CodeImage.synthetic(params.image.image_size, params.image.version)
    keypair = keypair or generate_keypair(rngs.root_seed)
    puzzle = MessageSpecificPuzzle(difficulty=puzzle_difficulty)
    pre = LRSelugePreprocessor(params, keypair, puzzle).build(image)
    if receiver_ids is None:
        receiver_ids = [i for i in radio.topology.node_ids if i != base_id]
    secret = derive_seed(rngs.root_seed, "cluster-secret").to_bytes(8, "big")

    # One memo per run: every receiver of a broadcast checks the same bytes.
    memo = VerificationMemo()

    def pipeline_factory(version: int) -> LRSelugeReceiver:
        return LRSelugeReceiver(params, keypair.public, puzzle, memo)

    base = LRSelugeNode(
        base_id, sim, radio, rngs, trace,
        pipeline=pipeline_factory(image.version),
        timing=params.timing, wire=params.wire,
        is_base=True, preprocessed=pre, on_complete=on_complete,
        snack_flood_threshold=snack_flood_threshold,
        control_auth=make_authenticator(control_auth, base_id, secret),
        pipeline_factory=pipeline_factory,
    )
    nodes = [
        LRSelugeNode(
            node_id, sim, radio, rngs, trace,
            pipeline=pipeline_factory(image.version),
            timing=params.timing, wire=params.wire, on_complete=on_complete,
            snack_flood_threshold=snack_flood_threshold,
            control_auth=make_authenticator(control_auth, node_id, secret),
            pipeline_factory=pipeline_factory,
        )
        for node_id in receiver_ids
    ]
    return base, nodes, pre
