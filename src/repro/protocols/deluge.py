"""Deluge (Hui & Culler, SenSys'04): the insecure ARQ baseline.

Pages of ``k`` packets, all of which must be received; a sender transmits
the union of the requested bit-vectors in cyclic index order.  No packet
authentication of any kind — the pollution experiments show why that is a
problem in hostile environments.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.config import DelugeParams
from repro.core.image import CodeImage
from repro.core.preprocess import DelugePreprocessor, PreprocessedImage
from repro.core.scheduler import UnionScheduler
from repro.core.verify import DelugeReceiver
from repro.net.radio import Radio
from repro.protocols.common import DisseminationNode, ProtocolName, TxPolicy
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

__all__ = ["DelugeNode", "UnionPolicy", "build_deluge_network"]


class UnionPolicy(TxPolicy):
    """Deluge/Seluge TX semantics: transmit every requested index once."""

    def __init__(self, n_packets: int):
        self._sched = UnionScheduler(n_packets)

    @property
    def empty(self) -> bool:
        return self._sched.empty

    def on_snack(self, requester: int, needed: Tuple[int, ...]) -> None:
        self._sched.update_from_snack(needed)

    def next_packet(self) -> Optional[int]:
        return self._sched.next_packet()

    def mark_sent(self, index: int) -> None:
        self._sched.mark_sent(index)

    def snapshot(self) -> Optional[dict]:
        return self._sched.snapshot()


class DelugeNode(DisseminationNode):
    """A Deluge participant."""

    protocol = ProtocolName.DELUGE

    #: Causal-tracer label: plain ARQ, request-union scheduling, no auth.
    causal_profile = "arq-union"

    def make_tx_policy(self, unit: int) -> TxPolicy:
        n_packets, _ = self.pipeline.geometry(unit)
        return UnionPolicy(n_packets)


def build_deluge_network(
    sim: Simulator,
    radio: Radio,
    rngs: RngRegistry,
    trace: TraceRecorder,
    params: DelugeParams,
    image: Optional[CodeImage] = None,
    receiver_ids: Optional[List[int]] = None,
    base_id: int = 0,
    on_complete: Optional[Callable[[DisseminationNode], None]] = None,
) -> Tuple[DelugeNode, List[DelugeNode], PreprocessedImage]:
    """Instantiate a base station plus receivers on the radio's topology."""
    image = image or CodeImage.synthetic(params.image.image_size, params.image.version)
    pre = DelugePreprocessor(params).build(image)
    if receiver_ids is None:
        receiver_ids = [i for i in radio.topology.node_ids if i != base_id]
    def pipeline_factory(version: int) -> DelugeReceiver:
        return DelugeReceiver(params, version=version)

    base = DelugeNode(
        base_id, sim, radio, rngs, trace,
        pipeline=DelugeReceiver(params), timing=params.timing, wire=params.wire,
        is_base=True, preprocessed=pre, on_complete=on_complete,
        pipeline_factory=pipeline_factory,
    )
    nodes = [
        DelugeNode(
            node_id, sim, radio, rngs, trace,
            pipeline=DelugeReceiver(params), timing=params.timing, wire=params.wire,
            on_complete=on_complete, pipeline_factory=pipeline_factory,
        )
        for node_id in receiver_ids
    ]
    return base, nodes, pre
