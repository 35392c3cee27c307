"""Receiver-side pipelines: immediate packet authentication and page recovery.

Each node owns one pipeline instance.  The pipeline tracks everything a
sensor node stores during dissemination — the authenticated Merkle root, the
expected hash images for the next page, partially received units — and
implements the paper's Section IV-E checks:

* unit 0 (signature): puzzle check first (one hash), then one ECDSA
  verification; yields the trusted root and the signed image metadata.
* unit 1 (hash page): per-packet Merkle path verification against the root.
* units >= 2 (pages): one hash image comparison per packet against the
  expectations recovered from the previous unit.

Every packet is thus authenticated *upon arrival*; unauthenticated packets
are never buffered (the DoS-resilience property).

Every node is charged for its own checks: each check bumps the checking
pipeline's ``stats``, which the energy model reads.  The host, though,
computes each distinct check once per run: every receiver of a broadcast
checks the same bytes against the same anchors, so the run's secure
pipelines share one :class:`VerificationMemo` of the checks that passed.
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import DelugeParams, LRSelugeParams, SelugeParams
from repro.core.packets import DataPacket, SignaturePacket
from repro.core.preprocess import PreprocessedImage, unpack_metadata
from repro.crypto.ecdsa import EcdsaSignature, verify
from repro.crypto.hashing import hash_image
from repro.crypto.merkle import verify_merkle_path
from repro.crypto.puzzle import MessageSpecificPuzzle
from repro.erasure.base import make_code
from repro.errors import DecodeError, ProtocolError

__all__ = [
    "ReceiverPipeline", "DelugeReceiver", "SelugeReceiver", "LRSelugeReceiver",
    "VerificationMemo",
]


class VerificationMemo:
    """The checks that passed in one run, shared by the run's secure pipelines.

    Each set holds every input of a pure check, so a hit is the answer the
    real check would give.  Only passes are stored: forged or altered bytes
    always miss and are verified for real, and memory grows with the honest
    content alone.  A network builder makes one per run; a pipeline built
    on its own makes its own.
    """

    __slots__ = ("signatures", "chained", "merkle_paths")

    def __init__(self) -> None:
        #: ``(root + metadata, raw signature, public key)`` that verified.
        self.signatures: Set[Tuple[bytes, bytes, Tuple[int, int]]] = set()
        #: ``(packet, hash_len, expected hash image)`` that matched.
        self.chained: Set[Tuple[DataPacket, int, bytes]] = set()
        #: ``(packet, root, hash_len)`` whose Merkle path verified.
        self.merkle_paths: Set[Tuple[DataPacket, bytes, int]] = set()


class ReceiverPipeline(abc.ABC):
    """Common receiver state machine over the uniform unit numbering."""

    def __init__(self) -> None:
        self.stats: Counter = Counter()
        self.total_units: Optional[int] = None
        self.image_size: Optional[int] = None
        self.version: Optional[int] = None
        self._fragments: Dict[int, bytes] = {}
        self._serving: Dict[int, List[DataPacket]] = {}

    # -- geometry -------------------------------------------------------------

    @abc.abstractmethod
    def geometry(self, unit: int) -> Tuple[int, int]:
        """``(n_packets, threshold)`` for ``unit``."""

    @property
    def secured(self) -> bool:
        return True

    # -- signature unit ---------------------------------------------------------

    def handle_signature(self, packet: SignaturePacket) -> bool:
        """Process unit 0.  Default: insecure protocols have no signature."""
        raise ProtocolError(f"{type(self).__name__} does not use signature packets")

    # -- data units -------------------------------------------------------------

    @abc.abstractmethod
    def authenticate(self, packet: DataPacket) -> bool:
        """Immediate per-packet check; False means drop without buffering."""

    @abc.abstractmethod
    def complete_unit(self, unit: int, received: Dict[int, DataPacket]) -> bool:
        """Attempt recovery of ``unit`` from authenticated packets.

        Returns True on success (internal expectations advanced); False when
        more packets are needed (e.g. a rank-deficient random-linear decode).
        """

    def serving_packets(self, unit: int) -> List[DataPacket]:
        """The unit's full packet set, for serving downstream requesters."""
        packets = self._serving.get(unit)
        if packets is None:
            raise ProtocolError(f"unit {unit} is not available for serving")
        return packets

    def validate_overheard(self, packet: DataPacket) -> bool:
        """Cheap authenticity check for packets of units we are not collecting.

        Protocol timers (request suppression, TX deferral) and sender-side
        transmission suppression must only react to *authentic* traffic —
        otherwise an adversary could silence a neighborhood with forged
        data packets.  Insecure protocols accept everything (their
        documented weakness); secure ones verify with one hash.
        """
        return True

    def assembled_image(self) -> bytes:
        """Reassemble the image once every page unit has completed."""
        if self.total_units is None or self.image_size is None:
            raise ProtocolError("image metadata not yet known")
        parts: List[bytes] = []
        for u in sorted(self._fragments):
            parts.append(self._fragments[u])
        return b"".join(parts)[: self.image_size]

    # -- base-station bootstrap ---------------------------------------------------

    def preload(self, pre: PreprocessedImage) -> None:
        """Mark every unit complete and serve from the preprocessed packets.

        Used for the base station (and for test fixtures): it originated the
        image, so it has nothing to verify or decode.
        """
        self.total_units = pre.total_units
        self.image_size = pre.image.size
        self.version = pre.image.version
        for unit in pre.units:
            if unit.kind != "signature":
                self._serving[unit.index] = list(unit.packets)


class DelugeReceiver(ReceiverPipeline):
    """No security: every packet is accepted, pages are plain reassembly."""

    def __init__(self, params: DelugeParams, version: Optional[int] = None):
        super().__init__()
        self.params = params
        self.version = version if version is not None else params.image.version

    @property
    def secured(self) -> bool:
        return False

    def geometry(self, unit: int) -> Tuple[int, int]:
        return self.params.k, self.params.k

    def learn_total_units(self, total_units: int) -> None:
        """Deluge learns the page count from advertisements."""
        if self.total_units is None:
            self.total_units = total_units
            self.image_size = self.params.image.image_size

    def authenticate(self, packet: DataPacket) -> bool:
        self.stats["accepted_unverified"] += 1
        return True

    def complete_unit(self, unit: int, received: Dict[int, DataPacket]) -> bool:
        if len(received) < self.params.k:
            return False
        ordered = [received[j] for j in range(self.params.k)]
        self._fragments[unit] = b"".join(p.payload for p in ordered)
        self._serving[unit] = ordered
        return True


class _SecureReceiver(ReceiverPipeline):
    """Shared signature/puzzle handling for Seluge and LR-Seluge."""

    def __init__(self, public_key: Tuple[int, int], puzzle: MessageSpecificPuzzle,
                 memo: Optional[VerificationMemo] = None):
        super().__init__()
        self.public_key = public_key
        self.puzzle = puzzle
        self.memo = memo if memo is not None else VerificationMemo()
        self.root: Optional[bytes] = None
        self.expected: Dict[int, Dict[int, bytes]] = {}

    def handle_signature(self, packet: SignaturePacket) -> bool:
        message = packet.root + packet.metadata + packet.signature
        self.stats["puzzle_checks"] += 1
        if packet.puzzle is None or not self.puzzle.check(message, packet.puzzle):
            self.stats["puzzle_rejects"] += 1
            return False
        self.stats["signature_verifications"] += 1
        signed = packet.root + packet.metadata
        key = (signed, packet.signature, self.public_key)
        if key not in self.memo.signatures:
            try:
                sig = EcdsaSignature.from_bytes(packet.signature)
            except Exception:
                self.stats["signature_rejects"] += 1
                return False
            if not verify(signed, sig, self.public_key):
                self.stats["signature_rejects"] += 1
                return False
            self.memo.signatures.add(key)
        version, total_units, image_size = unpack_metadata(packet.metadata)
        self.root = packet.root
        self.version = version
        self.total_units = total_units
        self.image_size = image_size
        return True

    def _check_merkle(self, packet: DataPacket, hash_len: int) -> bool:
        if self.root is None:
            self.stats["rejected_no_root"] += 1
            return False
        self.stats["merkle_checks"] += 1
        key = (packet, self.root, hash_len)
        passed = self.memo.merkle_paths
        if key in passed:
            return True
        if verify_merkle_path(
            packet.canonical_bytes(), packet.index, packet.auth_path, self.root, hash_len
        ):
            passed.add(key)
            return True
        self.stats["rejected_packets"] += 1
        return False

    def validate_overheard(self, packet: DataPacket) -> bool:
        hash_len = self._hash_len()
        if packet.unit in self.expected:
            return self._check_chain(packet, hash_len)
        if packet.unit == 1 and self.root is not None:
            return self._check_merkle(packet, hash_len)
        serving = self._serving.get(packet.unit)
        if serving is not None and 0 <= packet.index < len(serving):
            self.stats["overheard_compare"] += 1
            return serving[packet.index].payload == packet.payload
        return False

    def _hash_len(self) -> int:
        return self.params.wire.hash_len  # both secure receivers carry params

    def _check_chain(self, packet: DataPacket, hash_len: int) -> bool:
        expectations = self.expected.get(packet.unit)
        if expectations is None:
            self.stats["rejected_no_expectation"] += 1
            return False
        expected = expectations.get(packet.index)
        if expected is None:
            self.stats["rejected_packets"] += 1
            return False
        self.stats["hash_checks"] += 1
        key = (packet, hash_len, expected)
        passed = self.memo.chained
        if key in passed:
            return True
        if hash_image(packet.canonical_bytes(), hash_len) == expected:
            passed.add(key)
            return True
        self.stats["rejected_packets"] += 1
        return False


class SelugeReceiver(_SecureReceiver):
    """Seluge: all-k pages with per-packet chained hashes."""

    def __init__(self, params: SelugeParams, public_key: Tuple[int, int],
                 puzzle: Optional[MessageSpecificPuzzle] = None,
                 memo: Optional[VerificationMemo] = None):
        super().__init__(public_key, puzzle or MessageSpecificPuzzle(difficulty=10), memo)
        self.params = params
        m0 = params.hash_page_packets()
        self._hash_page_geometry = (m0, m0)
        self._page_geometry = (params.k, params.k)

    def geometry(self, unit: int) -> Tuple[int, int]:
        if unit == 0:
            return 1, 1
        if unit == 1:
            return self._hash_page_geometry
        return self._page_geometry

    def authenticate(self, packet: DataPacket) -> bool:
        if packet.unit == 1:
            return self._check_merkle(packet, self.params.wire.hash_len)
        return self._check_chain(packet, self.params.wire.hash_len)

    def complete_unit(self, unit: int, received: Dict[int, DataPacket]) -> bool:
        p = self.params
        n_packets, threshold = self.geometry(unit)
        if len(received) < threshold:
            return False
        ordered = [received[j] for j in range(n_packets)]
        if unit == 1:
            m0 = b"".join(pkt.payload for pkt in ordered)
            self.expected[2] = {
                j: m0[j * p.wire.hash_len : (j + 1) * p.wire.hash_len]
                for j in range(p.k)
            }
            self._serving[unit] = ordered
            return True
        if self.total_units is None:
            raise AssertionError('invariant violated: self.total_units is not None')
        last_unit = self.total_units - 1
        if unit < last_unit:
            slice_len = p.chained_slice
            self._fragments[unit] = b"".join(pkt.payload[:slice_len] for pkt in ordered)
            self.expected[unit + 1] = {
                j: ordered[j].payload[slice_len:] for j in range(p.k)
            }
        else:
            self._fragments[unit] = b"".join(pkt.payload for pkt in ordered)
        self._serving[unit] = ordered
        return True


class LRSelugeReceiver(_SecureReceiver):
    """LR-Seluge: erasure-coded pages with page-level chained hash images."""

    def __init__(self, params: LRSelugeParams, public_key: Tuple[int, int],
                 puzzle: Optional[MessageSpecificPuzzle] = None,
                 memo: Optional[VerificationMemo] = None):
        super().__init__(public_key, puzzle or MessageSpecificPuzzle(difficulty=10), memo)
        self.params = params
        self.code = make_code(
            params.code_kind, params.k, params.n, params.resolved_kprime,
            seed=params.code_seed,
        )
        self.code0 = make_code(
            params.code_kind, params.k0, params.n0, params.k0prime,
            seed=params.code_seed + 1,
        )
        self._decoded_blocks: Dict[int, List[bytes]] = {}
        self._hash_page_geometry = (params.n0, params.k0prime)
        self._page_geometry = (params.n, params.resolved_kprime)

    def geometry(self, unit: int) -> Tuple[int, int]:
        if unit == 0:
            return 1, 1
        if unit == 1:
            return self._hash_page_geometry
        return self._page_geometry

    def authenticate(self, packet: DataPacket) -> bool:
        if packet.unit == 1:
            return self._check_merkle(packet, self.params.wire.hash_len)
        return self._check_chain(packet, self.params.wire.hash_len)

    def complete_unit(self, unit: int, received: Dict[int, DataPacket]) -> bool:
        p = self.params
        _, threshold = self.geometry(unit)
        if len(received) < threshold:
            return False
        payloads = {idx: pkt.payload for idx, pkt in received.items()}
        code = self.code0 if unit == 1 else self.code
        self.stats["decode_ops"] += 1
        try:
            blocks = code.decode(payloads)
        except DecodeError:
            self.stats["decode_failures"] += 1
            return False
        source = b"".join(blocks)
        if unit == 1:
            hash_len = p.wire.hash_len
            self.expected[2] = {
                j: source[j * hash_len : (j + 1) * hash_len] for j in range(p.n)
            }
        else:
            if self.total_units is None:
                raise AssertionError('invariant violated: self.total_units is not None')
            last_unit = self.total_units - 1
            if unit < last_unit:
                cap = p.page_capacity
                self._fragments[unit] = source[:cap]
                hash_len = p.wire.hash_len
                tail = source[cap:]
                self.expected[unit + 1] = {
                    j: tail[j * hash_len : (j + 1) * hash_len] for j in range(p.n)
                }
            else:
                self._fragments[unit] = source
        self._decoded_blocks[unit] = blocks
        return True

    def serving_packets(self, unit: int) -> List[DataPacket]:
        """Re-encode the recovered page to regenerate all n packets (Section IV-D3).

        The encoding is deterministic, so the regenerated packets are
        byte-identical to the base station's; the result is cached.
        """
        packets = self._serving.get(unit)
        if packets is not None:
            return packets
        blocks = self._decoded_blocks.get(unit)
        if blocks is None:
            raise ProtocolError(f"unit {unit} is not available for serving")
        code = self.code0 if unit == 1 else self.code
        self.stats["encode_ops"] += 1
        encoded = code.encode(blocks)
        if self.version is None:
            raise AssertionError('invariant violated: self.version is not None')
        packets = [
            DataPacket(version=self.version, unit=unit, index=j, payload=encoded[j])
            for j in range(len(encoded))
        ]
        if unit == 1:
            # Page-0 packets carry Merkle paths; a serving node must supply
            # them.  It reconstructs the tree from the regenerated packets
            # (it holds the whole page, hence the whole tree).
            from repro.crypto.merkle import MerkleTree

            tree = MerkleTree(
                [pkt.canonical_bytes() for pkt in packets], self.params.wire.hash_len
            )
            packets = [
                DataPacket(
                    version=pkt.version, unit=pkt.unit, index=pkt.index,
                    payload=pkt.payload, auth_path=tuple(tree.auth_path(pkt.index)),
                )
                for pkt in packets
            ]
        self._serving[unit] = packets
        return packets
