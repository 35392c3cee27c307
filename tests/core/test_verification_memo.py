"""The per-run verification memo: shared passes, never a shared verdict on
forged bytes.

Pipelines that share one :class:`VerificationMemo` skip a real check only
for inputs another pipeline already verified; anything else is checked for
real and each pipeline counts its own checks.
"""

from dataclasses import replace

import pytest

import repro.core.verify as verify_mod
from repro.core.packets import DataPacket
from repro.core.preprocess import LRSelugePreprocessor, SelugePreprocessor
from repro.core.verify import LRSelugeReceiver, SelugeReceiver, VerificationMemo
from repro.experiments.scenarios import Scenario, build_rig

PROTOCOLS = {
    "seluge": (SelugeReceiver, SelugePreprocessor, "seluge_params"),
    "lr-seluge": (LRSelugeReceiver, LRSelugePreprocessor, "lr_params"),
}


def _pair(request, protocol):
    """Two pipelines sharing one memo, plus the preprocessed image."""
    receiver, preprocessor, params_fixture = PROTOCOLS[protocol]
    params = request.getfixturevalue(params_fixture)
    keypair = request.getfixturevalue("keypair")
    puzzle = request.getfixturevalue("puzzle")
    pre = preprocessor(params, keypair, puzzle).build(
        request.getfixturevalue("small_image"))
    memo = VerificationMemo()
    a = receiver(params, keypair.public, puzzle, memo)
    b = receiver(params, keypair.public, puzzle, memo)
    return pre, a, b


@pytest.fixture(params=sorted(PROTOCOLS))
def shared(request):
    return _pair(request, request.param)


@pytest.fixture
def real_calls(monkeypatch):
    """Count the real checks run through the names ``repro.core.verify`` uses."""
    calls = {"verify": 0, "hash_image": 0, "verify_merkle_path": 0}
    for name in calls:
        real = getattr(verify_mod, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify_mod, name, counted)
    return calls


def _resigned(packet, puzzle, **changes):
    """``packet`` with ``changes`` and a puzzle solution that still passes,
    so the pipeline reaches the signature check."""
    forged = replace(packet, **changes)
    message = forged.root + forged.metadata + forged.signature
    return replace(forged, puzzle=puzzle.solve(message, packet.puzzle.key))


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def _arm_unit_2(rx, pre):
    """Accept the signature and the whole hash page, arming unit 2."""
    assert rx.handle_signature(pre.signature_packet)
    unit = pre.units[1]
    got = {}
    for pkt in unit.packets:
        assert rx.authenticate(pkt)
        got[pkt.index] = pkt
    assert rx.complete_unit(1, got)


def test_forged_signatures_are_rejected_after_the_honest_one(
        shared, puzzle, real_calls):
    pre, a, b = shared
    honest = pre.signature_packet
    assert a.handle_signature(honest)
    assert real_calls["verify"] == 1

    other_sig = _resigned(honest, puzzle, signature=_flip(honest.signature))
    other_root = _resigned(honest, puzzle, root=_flip(honest.root))
    assert not b.handle_signature(other_sig)
    assert not b.handle_signature(other_root)
    assert b.root is None
    assert real_calls["verify"] == 3        # forged bytes verified for real

    assert b.handle_signature(honest)       # no cached reject blocks it
    assert b.root == honest.root
    assert real_calls["verify"] == 3        # the honest check was a hit
    assert b.stats["signature_verifications"] == 3
    assert b.stats["signature_rejects"] == 2


def test_tampered_payload_misses_the_chained_memo(shared, real_calls):
    pre, a, b = shared
    _arm_unit_2(a, pre)
    _arm_unit_2(b, pre)
    honest = pre.units[2].packets[0]
    assert a.authenticate(honest)
    before = real_calls["hash_image"]

    tampered = replace(honest, payload=_flip(honest.payload))
    assert not b.authenticate(tampered)
    assert real_calls["hash_image"] == before + 1
    assert b.authenticate(honest)
    assert real_calls["hash_image"] == before + 1
    assert b.stats["hash_checks"] == 2
    assert b.stats["rejected_packets"] == 1


def test_swapped_auth_path_misses_the_merkle_memo(request, real_calls):
    # Seluge's hash page of the small image is one packet with an empty path.
    pre, a, b = _pair(request, "lr-seluge")
    assert a.handle_signature(pre.signature_packet)
    assert b.handle_signature(pre.signature_packet)
    first, second = pre.units[1].packets[:2]
    assert a.authenticate(first)
    assert real_calls["verify_merkle_path"] == 1

    swapped = replace(first, auth_path=second.auth_path)
    assert swapped.auth_path != first.auth_path
    assert not b.authenticate(swapped)
    assert b.authenticate(first)
    assert real_calls["verify_merkle_path"] == 2
    assert b.stats["merkle_checks"] == 2
    assert b.stats["rejected_packets"] == 1


def test_a_pipeline_built_alone_has_its_own_memo(lr_params, keypair, puzzle):
    a = LRSelugeReceiver(lr_params, keypair.public, puzzle)
    b = LRSelugeReceiver(lr_params, keypair.public, puzzle)
    assert a.memo is not b.memo


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_each_run_verifies_its_image_once(protocol, real_calls):
    scenario = Scenario(protocol=protocol, topology="grid:2x2:3", ambient=False,
                        image_size=3000, k=8, n=12, seed=9, max_time=600.0)
    memos = []
    for run in (1, 2):
        rig = build_rig(scenario)
        memo = rig.base.pipeline.memo
        assert all(node.pipeline.memo is memo for node in rig.nodes)
        memos.append(memo)
        assert rig.run().completed
        assert real_calls["verify"] == run
        assert sum(node.pipeline.stats["signature_verifications"]
                   for node in rig.nodes) == len(rig.nodes)
    assert memos[0] is not memos[1]


def test_forged_data_is_not_remembered(shared):
    pre, a, _ = shared
    _arm_unit_2(a, pre)
    forged = DataPacket(version=pre.image.version, unit=2, index=0,
                        payload=bytes(len(pre.units[2].packets[0].payload)))
    assert not a.authenticate(forged)
    assert not any(key[0] == forged for key in a.memo.chained)
