"""Seluge (Hyun, Ning, Liu & Du, IPSN'08): the secure ARQ baseline.

Deluge's dissemination with per-packet hash chaining between adjacent pages,
a Merkle-authenticated hash page, a signed root, and a message-specific
puzzle guarding the signature packet.  Every data packet is authenticated
immediately on arrival; the transport remains Deluge's request-all ARQ,
which is what LR-Seluge improves on in lossy environments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.config import SelugeParams
from repro.core.image import CodeImage
from repro.core.preprocess import PreprocessedImage, SelugePreprocessor
from repro.core.verify import SelugeReceiver, VerificationMemo
from repro.crypto.ecdsa import EcdsaKeyPair, generate_keypair
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.net.radio import Radio
from repro.protocols.common import DisseminationNode, ProtocolName, TxPolicy
from repro.protocols.deluge import UnionPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["SelugeNode", "build_seluge_network"]


class SelugeNode(DisseminationNode):
    """A Seluge participant (same transport as Deluge, plus authentication)."""

    protocol = ProtocolName.SELUGE

    #: Causal-tracer label: Deluge's ARQ transport plus per-packet auth —
    #: critical paths gain decode_verify/admission edges, not new waits.
    causal_profile = "arq-union-auth"

    def make_tx_policy(self, unit: int) -> TxPolicy:
        # Seluge keeps Deluge's request-union ARQ, so flight-recorder
        # tracker_snapshot events for Seluge nodes carry UnionPolicy state.
        n_packets, _ = self.pipeline.geometry(unit)
        return UnionPolicy(n_packets)


def build_seluge_network(
    sim: Simulator,
    radio: Radio,
    rngs: RngRegistry,
    trace: TraceRecorder,
    params: SelugeParams,
    image: Optional[CodeImage] = None,
    receiver_ids: Optional[List[int]] = None,
    base_id: int = 0,
    keypair: Optional[EcdsaKeyPair] = None,
    puzzle_difficulty: int = 10,
    on_complete: Optional[Callable[[DisseminationNode], None]] = None,
    snack_flood_threshold: Optional[int] = None,
    control_auth: Optional[str] = None,
) -> Tuple[SelugeNode, List[SelugeNode], PreprocessedImage]:
    """Instantiate a base station plus receivers on the radio's topology.

    ``control_auth`` enables advertisement/SNACK MACs: ``"cluster"`` (the
    Seluge cluster key) or ``"pairwise"`` (LEAP-style, Section IV-E).
    """
    from repro.protocols.control_auth import make_authenticator
    from repro.sim.rng import derive_seed

    image = image or CodeImage.synthetic(params.image.image_size, params.image.version)
    keypair = keypair or generate_keypair(rngs.root_seed)
    puzzle = MessageSpecificPuzzle(difficulty=puzzle_difficulty)
    pre = SelugePreprocessor(params, keypair, puzzle).build(image)
    if receiver_ids is None:
        receiver_ids = [i for i in radio.topology.node_ids if i != base_id]
    secret = derive_seed(rngs.root_seed, "cluster-secret").to_bytes(8, "big")

    # One memo per run: every receiver of a broadcast checks the same bytes.
    memo = VerificationMemo()

    def pipeline_factory(version: int) -> SelugeReceiver:
        return SelugeReceiver(params, keypair.public, puzzle, memo)

    base = SelugeNode(
        base_id, sim, radio, rngs, trace,
        pipeline=pipeline_factory(image.version),
        timing=params.timing, wire=params.wire,
        is_base=True, preprocessed=pre, on_complete=on_complete,
        snack_flood_threshold=snack_flood_threshold,
        control_auth=make_authenticator(control_auth, base_id, secret),
        pipeline_factory=pipeline_factory,
    )
    nodes = [
        SelugeNode(
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
