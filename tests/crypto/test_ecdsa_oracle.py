"""Oracle for the P-192 ECDSA scalar multiplication.

The reference below is the textbook right-to-left double-and-add over
Jacobian points with the general-``a`` doubling and a full Jacobian
addition, and two separate chains for ``u1*G + u2*Q``.  It shares nothing
with the package's point arithmetic; only the unchanged SHA-256 message
hash and the RFC 6979 nonce derivation are taken from
:mod:`repro.crypto.ecdsa`.  ``generate_keypair`` and ``sign`` must produce
the reference's keys and ``(r, s)`` bit for bit, and ``verify`` must give
the reference's verdict on valid, tampered, out-of-range and degenerate
signatures (including the sums that land on the point at infinity).  The
interleaved chain's result point is also compared with the reference's
directly, since a wrong point can still give the right verdict.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.crypto.ecdsa import (
    P192,
    _Q_WIDTH,
    EcdsaKeyPair,
    EcdsaSignature,
    _base_terms,
    _hash_to_int,
    _multiply,
    _OddMultiples,
    _rfc6979_nonce,
    generate_keypair,
    sign,
    verify,
)

N = P192.order
G = (P192.gx, P192.gy)


def ref_double(pt, curve=P192):
    if pt is None:
        return None
    x, y, z = pt
    if y == 0:
        return None
    p = curve.p
    ysq = (y * y) % p
    s = (4 * x * ysq) % p
    m = (3 * x * x + curve.a * pow(z, 4, p)) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = (2 * y * z) % p
    return (nx, ny, nz)


def ref_add(p1, p2, curve=P192):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.p
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1sq = (z1 * z1) % p
    z2sq = (z2 * z2) % p
    u1 = (x1 * z2sq) % p
    u2 = (x2 * z1sq) % p
    s1 = (y1 * z2sq * z2) % p
    s2 = (y2 * z1sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return None
        return ref_double(p1, curve)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    hsq = (h * h) % p
    hcu = (hsq * h) % p
    u1hsq = (u1 * hsq) % p
    nx = (r * r - hcu - 2 * u1hsq) % p
    ny = (r * (u1hsq - nx) - s1 * hcu) % p
    nz = (h * z1 * z2) % p
    return (nx, ny, nz)


def ref_mul(k, pt, curve=P192):
    result = None
    addend = pt
    while k:
        if k & 1:
            result = ref_add(result, addend, curve)
        addend = ref_double(addend, curve)
        k >>= 1
    return result


def ref_affine(pt, curve=P192):
    if pt is None:
        return None
    x, y, z = pt
    zinv = pow(z, curve.p - 2, curve.p)
    zinv2 = (zinv * zinv) % curve.p
    return ((x * zinv2) % curve.p, (y * zinv2 * zinv) % curve.p)


def ref_public(priv):
    return ref_affine(ref_mul(priv, (G[0], G[1], 1)))


def ref_keypair(seed):
    digest = hashlib.sha256(f"ecdsa-key:{seed}".encode()).digest()
    priv = (int.from_bytes(digest, "big") % (N - 1)) + 1
    return priv, ref_public(priv)


def ref_sign(message, priv):
    e = _hash_to_int(message, P192)
    k = _rfc6979_nonce(priv, e, P192)
    while True:
        r = ref_public(k)[0] % N
        if r == 0:
            k = (k + 1) % N or 1
            continue
        s = (pow(k, N - 2, N) * (e + r * priv)) % N
        if s == 0:
            k = (k + 1) % N or 1
            continue
        return r, s


def ref_verify(message, r, s, public):
    if not (1 <= r < N and 1 <= s < N):
        return False
    e = _hash_to_int(message, P192)
    w = pow(s, N - 2, N)
    point = ref_add(ref_mul(e * w % N, (G[0], G[1], 1)),
                    ref_mul(r * w % N, (public[0], public[1], 1)))
    affine = ref_affine(point)
    return affine is not None and affine[0] % N == r


def _agree(message, sig, public):
    got = verify(message, sig, public)
    assert got == ref_verify(message, sig.r, sig.s, public)
    return got


seeds = st.integers(min_value=-(2**40), max_value=2**40)
messages = st.binary(max_size=64)
# Small and near-order scalars walk the chain's edge cases: leading digits,
# table entries that equal the running point, sums that cancel.
privates = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=N - 64, max_value=N - 1),
    st.integers(min_value=1, max_value=N - 1),
)


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_generate_keypair_matches_reference(seed):
    kp = generate_keypair(seed)
    assert (kp.private, kp.public) == ref_keypair(seed)


@settings(max_examples=30, deadline=None)
@given(priv=privates, message=messages)
def test_sign_matches_reference_and_verifies(priv, message):
    public = ref_public(priv)
    sig = sign(message, EcdsaKeyPair(private=priv, public=public))
    assert (sig.r, sig.s) == ref_sign(message, priv)
    assert _agree(message, sig, public)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, message=messages, delta=st.integers(min_value=1, max_value=2**20))
def test_tampered_r_and_s_agree(seed, message, delta):
    kp = generate_keypair(seed)
    sig = sign(message, kp)
    assert not _agree(message, EcdsaSignature((sig.r + delta) % N or 1, sig.s), kp.public)
    assert not _agree(message, EcdsaSignature(sig.r, (sig.s + delta) % N or 1), kp.public)
    assert not _agree(message + b"!", sig, kp.public)


@settings(max_examples=20, deadline=None)
@given(seed=seeds, message=messages)
def test_wrong_key_agrees(seed, message):
    sig = sign(message, generate_keypair(seed))
    assert not _agree(message, sig, generate_keypair(seed + 1).public)


@settings(max_examples=20, deadline=None)
@given(r=st.integers(min_value=-2, max_value=N + 2),
       s=st.integers(min_value=-2, max_value=N + 2),
       message=messages)
def test_arbitrary_and_out_of_range_pairs_agree(r, s, message):
    _agree(message, EcdsaSignature(r, s), generate_keypair(1).public)
    for bad in (0, N, N + 1, -1):
        assert not _agree(message, EcdsaSignature(bad, s % N or 1), G)
        assert not _agree(message, EcdsaSignature(r % N or 1, bad), G)


@settings(max_examples=20, deadline=None)
@given(s=st.integers(min_value=1, max_value=N - 1), message=messages)
def test_sum_at_infinity_agrees(s, message):
    # Private key 1 makes Q = G, so u1*G + u2*Q = s^-1 (e + r) G, which is
    # the point at infinity exactly when r = -e mod n.
    r = -_hash_to_int(message, P192) % N
    if r == 0:
        return
    assert ref_mul((_hash_to_int(message, P192) + r) * pow(s, -1, N) % N,
                   (G[0], G[1], 1)) is None
    assert not _agree(message, EcdsaSignature(r, s), G)


@settings(max_examples=20, deadline=None)
@given(message=messages)
def test_negated_base_point_key_agrees(message):
    # Private key n-1 makes Q = -G, so every addend of the Q half is the
    # negation of a G-half addend.
    priv = N - 1
    public = ref_public(priv)
    assert public == (G[0], P192.p - G[1])
    sig = sign(message, EcdsaKeyPair(private=priv, public=public))
    assert (sig.r, sig.s) == ref_sign(message, priv)
    assert _agree(message, sig, public)
    assert not _agree(message, EcdsaSignature(sig.r, N - sig.s), G)


@settings(max_examples=30, deadline=None)
@given(k1=st.one_of(st.just(0), privates), k2=st.one_of(st.just(0), privates),
       negate=st.booleans(), cancel=st.booleans())
def test_joint_chain_matches_reference_points(k1, k2, negate, cancel):
    # Verdicts alone can miss a wrong intermediate point, so compare the
    # chain's point itself.  With Q = +-G and k2 chosen so that the sum
    # cancels, the last addition must take the P + (-P) = infinity branch.
    q = (G[0], P192.p - G[1]) if negate else G
    if cancel:
        k2 = k1 if negate else (N - k1) % N
    got = _multiply(_base_terms(k1, P192) + [(k2, _OddMultiples.of(q, _Q_WIDTH, P192))], P192)
    want = ref_affine(ref_add(ref_mul(k1, (G[0], G[1], 1)), ref_mul(k2, (q[0], q[1], 1))))
    assert got == want
    if cancel:
        assert got is None
