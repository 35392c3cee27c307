"""The attack library (DESIGN.md §12).

The paper's three attacks (Section IV-E) and the control-packet forger that
its cluster/pairwise keys defeat:

* :class:`BogusDataInjector` (``bogus-data``) — floods forged data packets
  for the page its victims are collecting; secure receivers reject each at
  one hash check, Deluge accepts and corrupts the installed image.
* :class:`SignatureFlooder` (``signature-flood``) — floods forged signature
  packets; the message-specific puzzle filters them at one hash each.
* :class:`ControlForger` (``control-forge``) — an outsider forging
  advertisements and SNACKs; control-packet authentication drops every one
  at a single MAC check.
* :class:`DenialOfReceiptAttacker` (``denial-of-receipt``) — a compromised
  node spamming all-ones SNACKs at one victim to drain its battery.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.core.packets import Advertisement, DataPacket, SignaturePacket, SnackRequest
from repro.net.packet import FrameKind
from repro.attacks.model import AttackModel

__all__ = [
    "ATTACK_KINDS",
    "BogusDataInjector",
    "SignatureFlooder",
    "ControlForger",
    "DenialOfReceiptAttacker",
]


def _snack_size(n_packets: int) -> int:
    """Header + ids + bit-vector — matches the protocols' SNACK wire size."""
    return 11 + 4 + (n_packets + 7) // 8


class BogusDataInjector(AttackModel):
    """Injects forged data packets for the page victims are collecting."""

    kind = "bogus-data"

    def __init__(self, *args, payload_size: int = 72, version: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        self.payload_size = payload_size
        self.version = version
        self._progress: Dict[int, int] = {}
        self._counter = 0

    def _observe_adv(self, adv, sender: int) -> None:
        self._progress[sender] = adv.units_complete

    @property
    def _target_unit(self) -> int:
        # Victims collect the unit right after what they advertise; aim at
        # the least-progressed neighborhood member so forgeries hit nodes
        # actively buffering that unit.
        if not self._progress:
            return 0
        return min(self._progress.values())

    def _attack_once(self) -> None:
        self._counter += 1
        forged = DataPacket(
            version=self.version,
            unit=self._target_unit,
            index=self._counter % 64,
            payload=bytes([self._counter % 251]) * self.payload_size,
        )
        size = 11 + self.payload_size
        self.broadcast(FrameKind.DATA, size, forged)
        self.sent += 1
        self.trace.count("attack_bogus_data")


class SignatureFlooder(AttackModel):
    """Floods forged signature packets (no valid puzzle solution)."""

    kind = "signature-flood"

    def __init__(self, *args, version: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        self.version = version
        self._counter = 0

    def _attack_once(self) -> None:
        self._counter += 1
        forged = SignaturePacket(
            version=self.version,
            root=bytes([self._counter % 251]) * 8,
            metadata=b"\x00" * 13,
            signature=bytes(48),
            puzzle=None,
        )
        self.broadcast(FrameKind.SIGNATURE, 88, forged)
        self.sent += 1
        self.trace.count("attack_bogus_signature")


class ControlForger(AttackModel):
    """An outsider forging control traffic (no cluster key).

    Alternates forged advertisements (claiming to own the whole image, to
    lure victims into requesting from a server that will never answer) and
    forged all-ones SNACKs (to make victims transmit).  With control-packet
    authentication enabled, every one of these is dropped at one MAC check.
    """

    kind = "control-forge"

    def __init__(self, *args, version: int = 2, total_units: int = 13,
                 n_packets: int = 48, **kwargs):
        super().__init__(*args, **kwargs)
        self.version = version
        self.total_units = total_units
        self.n_packets = n_packets
        self._victims: set = set()
        self._counter = 0

    def _observe_adv(self, adv, sender: int) -> None:
        self._victims.add(sender)

    def _attack_once(self) -> None:
        self._counter += 1
        if self._counter % 2 == 0 or not self._victims:
            forged_adv = Advertisement(
                version=self.version,
                units_complete=self.total_units,
                total_units=self.total_units,
                mac=b"\x00\x00\x00\x00",
            )
            self.broadcast(FrameKind.ADV, 20, forged_adv)
        else:
            victim = sorted(self._victims)[self._counter % len(self._victims)]
            forged = SnackRequest(
                version=self.version, unit=0, requester=self.node_id,
                server=victim, needed=tuple(range(self.n_packets)),
                mac=b"\x00\x00\x00\x00",
            )
            self.broadcast(FrameKind.SNACK, 21, forged, dest=victim)
        self.sent += 1
        self.trace.count("attack_forged_control")


class DenialOfReceiptAttacker(AttackModel):
    """A compromised node spamming all-ones SNACKs at one victim."""

    kind = "denial-of-receipt"

    def __init__(self, *args, victim: int = 0, unit: int = 2, n_packets: int = 48,
                 version: int = 2, **kwargs):
        super().__init__(*args, **kwargs)
        self.victim = victim
        self.unit = unit
        self.n_packets = n_packets
        self.version = version

    def _attack_once(self) -> None:
        request = SnackRequest(
            version=self.version,
            unit=self.unit,
            requester=self.node_id,
            server=self.victim,
            needed=tuple(range(self.n_packets)),
        )
        self.broadcast(FrameKind.SNACK, _snack_size(self.n_packets), request,
                       dest=self.victim)
        self.sent += 1
        self.trace.count("attack_dor_snack")


#: kind string -> attack class: what an :class:`~repro.attacks.plan.
#: AttackSpec` names and the :class:`~repro.attacks.engine.AttackEngine`
#: instantiates.
ATTACK_KINDS: Dict[str, Type[AttackModel]] = {
    cls.kind: cls
    for cls in (BogusDataInjector, SignatureFlooder, ControlForger,
                DenialOfReceiptAttacker)
}
