"""Unit tests for the pure-Python ECDSA over NIST P-192.

The point-arithmetic checks run against the double-and-add reference that
the oracle in ``test_ecdsa_oracle.py`` compares the package against.
"""

import pytest

from repro.crypto.ecdsa import (
    P192,
    EcdsaSignature,
    generate_keypair,
    sign,
    verify,
)
from repro.errors import AuthenticationError
from tests.crypto.test_ecdsa_oracle import (
    ref_add,
    ref_affine,
    ref_double,
    ref_mul,
    ref_public,
)

G = (P192.gx, P192.gy, 1)


def _on_curve(pt):
    x, y = pt
    return (y * y - (x * x * x + P192.a * x + P192.b)) % P192.p == 0


def test_base_point_on_curve():
    assert _on_curve((P192.gx, P192.gy))


def test_scalar_multiples_stay_on_curve():
    for k in (2, 3, 7, 12345):
        assert _on_curve(ref_affine(ref_mul(k, G)))


def test_order_times_g_is_infinity():
    assert ref_affine(ref_mul(P192.order, G)) is None


def test_point_addition_consistency():
    two_g = ref_double(G)
    assert ref_affine(ref_add(two_g, G)) == ref_affine(ref_mul(3, G))


def test_generated_public_keys_are_on_curve():
    for seed in range(4):
        kp = generate_keypair(seed)
        assert _on_curve(kp.public)
        assert kp.public == ref_public(kp.private)


def _order_three_point_off_p192(x=5):
    """A point of order 3 on y^2 = x^3 - 3x + b' for some b' != b.

    P has order 3 iff x(2P) = x, i.e. the tangent slope l satisfies
    l^2 = 3x; with l = sqrt(3x), y = (3x^2 + a) / 2l.
    """
    p = P192.p
    l = pow(3 * x, (p + 1) // 4, p)  # p = 3 mod 4
    assert l * l % p == 3 * x % p
    y = (3 * x * x + P192.a) * pow(2 * l, -1, p) % p
    assert not _on_curve((x, y))
    return x, y


def test_off_curve_public_key_rejected():
    kp = generate_keypair(1)
    sig = sign(b"msg", kp)
    x, y = kp.public
    assert not verify(b"msg", sig, (x, y + 1))
    # The point formulas never use b, so without the on-curve check this
    # key would put the point at infinity into Q's table.
    assert not verify(b"msg", sig, _order_three_point_off_p192())


def test_keypair_deterministic_from_seed():
    a = generate_keypair(7)
    b = generate_keypair(7)
    c = generate_keypair(8)
    assert a.private == b.private and a.public == b.public
    assert a.private != c.private


def test_sign_verify_roundtrip():
    kp = generate_keypair(1)
    sig = sign(b"merkle-root||metadata", kp)
    assert verify(b"merkle-root||metadata", sig, kp.public)


def test_signature_deterministic():
    kp = generate_keypair(1)
    assert sign(b"m", kp) == sign(b"m", kp)
    assert sign(b"m", kp) != sign(b"m2", kp)


def test_tampered_message_rejected():
    kp = generate_keypair(2)
    sig = sign(b"original", kp)
    assert not verify(b"0riginal", sig, kp.public)


def test_wrong_key_rejected():
    kp1, kp2 = generate_keypair(3), generate_keypair(4)
    sig = sign(b"msg", kp1)
    assert not verify(b"msg", sig, kp2.public)


def test_degenerate_signature_values_rejected():
    kp = generate_keypair(5)
    assert not verify(b"msg", EcdsaSignature(0, 1), kp.public)
    assert not verify(b"msg", EcdsaSignature(1, 0), kp.public)
    assert not verify(b"msg", EcdsaSignature(P192.order, 1), kp.public)


def test_signature_serialization_roundtrip():
    kp = generate_keypair(6)
    sig = sign(b"data", kp)
    raw = sig.to_bytes()
    assert len(raw) == 2 * P192.byte_len == 48
    assert EcdsaSignature.from_bytes(raw) == sig


def test_signature_wrong_length_rejected():
    with pytest.raises(AuthenticationError):
        EcdsaSignature.from_bytes(b"\x00" * 47)
