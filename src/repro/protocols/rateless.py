"""Rateless Deluge (Hagedorn, Starobinski & Trachtenberg, IPSN'08 flavour).

The loss-resilient-but-insecure baseline: pages are random-linear coded, a
receiver decodes once it holds ``k`` linearly independent combinations, and
a sender always transmits a *fresh* combination per outstanding request —
there is no fixed packet set, which is precisely why the Seluge-style
immediate authentication cannot be bolted on (the paper's motivation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import DelugeParams
from repro.core.image import CodeImage
from repro.core.packets import DataPacket, SnackRequest
from repro.core.preprocess import DelugePreprocessor, PreprocessedImage
from repro.core.scheduler import FreshPacketScheduler
from repro.core.verify import ReceiverPipeline
from repro.erasure.rlc import RandomLinearCode
from repro.errors import DecodeError, ProtocolError
from repro.net.packet import FrameKind
from repro.net.radio import Radio
from repro.protocols.common import DisseminationNode, ProtocolName, TxPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["RatelessReceiver", "RatelessDelugeNode", "build_rateless_network"]

# Each node draws fresh encoded-packet indices from its own disjoint range so
# combinations from different senders never collide.
_INDEX_STRIDE = 1_000_000


class RatelessReceiver(ReceiverPipeline):
    """Per-page random-linear decoding; accepts any combination index."""

    def __init__(self, params: DelugeParams, code_seed: int = 0):
        super().__init__()
        self.params = params
        self.code_seed = code_seed
        self.version = params.image.version
        self._codes: Dict[int, RandomLinearCode] = {}
        self._decoded_blocks: Dict[int, List[bytes]] = {}

    @property
    def secured(self) -> bool:
        return False

    def code_for(self, unit: int) -> RandomLinearCode:
        code = self._codes.get(unit)
        if code is None:
            code = RandomLinearCode(
                self.params.k, self.params.k, self.params.k,
                seed=self.code_seed, generation=unit,
            )
            self._codes[unit] = code
        return code

    def geometry(self, unit: int) -> Tuple[int, int]:
        return self.params.k, self.params.k

    def learn_total_units(self, total_units: int) -> None:
        if self.total_units is None:
            self.total_units = total_units
            self.image_size = self.params.image.image_size

    def authenticate(self, packet: DataPacket) -> bool:
        self.stats["accepted_unverified"] += 1
        return True

    def complete_unit(self, unit: int, received: Dict[int, DataPacket]) -> bool:
        if len(received) < self.params.k:
            return False
        code = self.code_for(unit)
        payloads = {idx: pkt.payload for idx, pkt in received.items()}
        self.stats["decode_ops"] += 1
        try:
            blocks = code.decode(payloads)
        except DecodeError:
            self.stats["decode_failures"] += 1
            return False
        self._decoded_blocks[unit] = blocks
        self._fragments[unit] = b"".join(blocks)
        return True

    def encode_fresh(self, unit: int, index: int) -> DataPacket:
        """Generate the combination with global ``index`` for serving."""
        blocks = self._decoded_blocks.get(unit)
        if blocks is None:
            raise ProtocolError(f"unit {unit} is not available for serving")
        code = self.code_for(unit)
        self.stats["encode_ops"] += 1
        payload = code.encode_indices(blocks, [index])[0]
        if self.version is None:
            raise AssertionError('invariant violated: self.version is not None')
        return DataPacket(version=self.version, unit=unit, index=index, payload=payload)

    def preload(self, pre: PreprocessedImage) -> None:
        super().preload(pre)
        for unit in pre.units:
            if unit.source_blocks is not None:
                self._decoded_blocks[unit.index] = list(unit.source_blocks)


class FreshPolicy(TxPolicy):
    """Always transmit a never-before-sent combination."""

    def __init__(self, start_index: int):
        self._sched = FreshPacketScheduler(start_index)

    @property
    def empty(self) -> bool:
        return self._sched.empty

    def on_snack(self, requester: int, needed: Tuple[int, ...]) -> None:
        # For rateless requests ``needed`` encodes only a deficit count.
        self._sched.update_request(requester, len(needed))

    def next_packet(self) -> Optional[int]:
        return self._sched.next_packet()

    def mark_sent(self, index: int) -> None:
        self._sched.mark_sent(index)

    def snapshot(self) -> Optional[dict]:
        return self._sched.snapshot()


class RatelessDelugeNode(DisseminationNode):
    """A Rateless-Deluge participant."""

    protocol = ProtocolName.RATELESS

    #: Causal-tracer label: random-linear coded pages, always-fresh serving.
    causal_profile = "rlc-fresh"

    @property
    def snack_suppression(self) -> bool:
        return False

    def make_tx_policy(self, unit: int) -> TxPolicy:
        # The fresh-index sequence must survive policy teardown: reusing an
        # index would hand receivers a combination they already hold.
        policies = self.__dict__.setdefault("_fresh_policies", {})
        policy = policies.get(unit)
        if policy is None:
            policy = FreshPolicy(start_index=self.node_id * _INDEX_STRIDE)
            policies[unit] = policy
        return policy

    def _request_fire(self) -> None:
        """Rateless SNACKs carry a deficit count, not a bit-vector."""
        if self.complete or self._serving_active():
            if self._serving_active() and not self.complete:
                self._note_request_cause("serve_defer")
                self._request_timer.start(self._rearm_delay(self.timing.request_timeout))
            return
        unit = self.units_complete
        servers = self._servers_for(unit)
        if not servers or self._request_tries >= self.timing.request_max_tries:
            return
        deficit = self.params_deficit()
        if deficit <= 0:
            return
        server = servers[self.rng.randrange(len(servers))]
        request = SnackRequest(
            version=self.pipeline.version or 0,
            unit=unit,
            requester=self.node_id,
            server=server,
            needed=tuple(range(deficit)),  # deficit count only
        )
        self._request_tries += 1
        size = self.wire.header + self.wire.mac_len + 1
        sent = self.broadcast(FrameKind.SNACK, size, request, dest=server,
                              cause=self._request_cause())
        self._note_request_cause("retry", parent=sent.frame_id)
        self._request_timer.start(self._rearm_delay(self.timing.request_timeout))

    def params_deficit(self) -> int:
        """Combinations still needed; at least 1 while the unit is open.

        A rank-deficient reception set can stall at ``threshold`` received
        but undecodable — the node must keep asking for one more.
        """
        _, threshold = self.pipeline.geometry(self.units_complete)
        return max(1, threshold - len(self._rx_buffer))

    def _transmit_unit_packet(self, unit: int, index: int) -> int:
        pkt = self.pipeline.encode_fresh(unit, index)
        size = self.wire.data_packet_size(len(pkt.payload))
        self.broadcast(FrameKind.DATA, size, pkt,
                       cause=self._serve_cause(unit))
        return size


def build_rateless_network(
    sim: Simulator,
    radio: Radio,
    rngs: RngRegistry,
    trace: TraceRecorder,
    params: DelugeParams,
    image: Optional[CodeImage] = None,
    receiver_ids: Optional[List[int]] = None,
    base_id: int = 0,
    code_seed: int = 0,
    on_complete: Optional[Callable[[DisseminationNode], None]] = None,
) -> Tuple[RatelessDelugeNode, List[RatelessDelugeNode], PreprocessedImage]:
    """Instantiate a base station plus receivers on the radio's topology."""
    image = image or CodeImage.synthetic(params.image.image_size, params.image.version)
    pre = DelugePreprocessor(params).build(image)
    if receiver_ids is None:
        receiver_ids = [i for i in radio.topology.node_ids if i != base_id]
    base = RatelessDelugeNode(
        base_id, sim, radio, rngs, trace,
        pipeline=RatelessReceiver(params, code_seed), timing=params.timing,
        wire=params.wire, is_base=True, preprocessed=pre, on_complete=on_complete,
    )
    nodes = [
        RatelessDelugeNode(
            node_id, sim, radio, rngs, trace,
            pipeline=RatelessReceiver(params, code_seed), timing=params.timing,
            wire=params.wire, on_complete=on_complete,
        )
        for node_id in receiver_ids
    ]
    return base, nodes, pre
