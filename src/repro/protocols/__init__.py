"""Dissemination protocols: Deluge, Seluge, LR-Seluge.

All protocols share the epidemic MAINTAIN / RX / TX machinery of
:mod:`repro.protocols.common` and differ in packet construction,
authentication, and TX-state scheduling.  Adversary nodes live in
:mod:`repro.attacks`.

The paper cites rateless schemes (Rateless Deluge) only as the
loss-resilient but insecure alternative to LR-Seluge; no table, figure or
claim measures one, so none is simulated here.
"""

from repro.protocols.common import DisseminationNode, ProtocolName
from repro.protocols.deluge import DelugeNode, build_deluge_network
from repro.protocols.seluge import SelugeNode, build_seluge_network
from repro.protocols.lr_seluge import LRSelugeNode, build_lr_seluge_network
from repro.protocols.control_auth import ClusterAuthenticator, PairwiseAuthenticator

__all__ = [
    "ProtocolName",
    "DisseminationNode",
    "DelugeNode",
    "SelugeNode",
    "LRSelugeNode",
    "build_deluge_network",
    "build_seluge_network",
    "build_lr_seluge_network",
    "ClusterAuthenticator",
    "PairwiseAuthenticator",
]
