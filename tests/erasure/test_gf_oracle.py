"""Brute-force oracle for the GF(256) bulk kernels and the page decoders.

The reference below works on Python lists of ints and uses nothing from the
field but the scalar ``GF256.mul`` and ``GF256.inv``:

* ``ref_matmul`` is the textbook triple loop, XOR-accumulating products.
* ``ref_rref`` is scalar Gauss-Jordan with the partial-pivot rule the
  kernels document: for each column, the first row at or below the current
  pivot row with a nonzero entry is swapped up, scaled to a leading 1, and
  eliminated from every other row.  Every row operation is mirrored on the
  augment, so the whole ``[rref | E @ augment]`` must agree, not just the
  rank.
* A decode is correct iff it returns the unique solution of the ``k``-column
  system the code's coefficient rows define.

The vectorised kernels must agree with it result for result, and every
rank-deficient system must still raise :class:`DecodeError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_rank, gf_rref, gf_solve
from repro.erasure.rlc import RandomLinearCode
from repro.erasure.rs import ReedSolomonCode
from repro.errors import DecodeError

BLOCK = 8  # bytes per block: small keeps the scalar reference fast


def ref_matmul(a, b):
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for t in range(inner):
            coeff = a[i][t]
            for j in range(cols):
                out[i][j] ^= GF256.mul(coeff, b[t][j])
    return out


def ref_rref(matrix, augment=None):
    a = [list(row) for row in matrix]
    aug = [list(row) for row in augment] if augment is not None else None
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        pivot = next((r for r in range(pivot_row, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        if aug is not None:
            aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        inv = GF256.inv(a[pivot_row][col])
        a[pivot_row] = [GF256.mul(inv, x) for x in a[pivot_row]]
        if aug is not None:
            aug[pivot_row] = [GF256.mul(inv, x) for x in aug[pivot_row]]
        for r in range(rows):
            factor = a[r][col]
            if r == pivot_row or factor == 0:
                continue
            a[r] = [x ^ GF256.mul(factor, p) for x, p in zip(a[r], a[pivot_row])]
            if aug is not None:
                aug[r] = [x ^ GF256.mul(factor, p)
                          for x, p in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    return a, aug, pivot_row


def ref_solve(coeffs, payloads, k):
    """Unique solution of ``coeffs @ X = payloads``, or None if rank < k."""
    rref, reduced, rank = ref_rref(coeffs, payloads)
    if rank < k:
        return None
    # Full column rank: the pivots sit at columns 0..k-1, in order.
    assert [row[:k] for row in rref[:k]] == np.eye(k, dtype=int).tolist()
    return reduced[:k]


def _as_lists(array):
    return [[int(x) for x in row] for row in array]


def _random_matrix(rng, rows, cols, zero_share):
    """Random uint8 matrix, a share of entries forced to zero (sparse cases)."""
    a = rng.integers(0, 256, size=(rows, cols), dtype=np.uint8)
    a[rng.random((rows, cols)) < zero_share] = 0
    return a


def _rank_deficient(rng, rows, cols, rank):
    """A (rows x cols) matrix of rank at most ``rank`` (product of two thin ones)."""
    left = rng.integers(0, 256, size=(rows, rank), dtype=np.uint8)
    right = rng.integers(0, 256, size=(rank, cols), dtype=np.uint8)
    return GF256.matmul(left, right) if rank else np.zeros((rows, cols), np.uint8)


seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)
zero_shares = st.sampled_from([0.0, 0.5, 0.9])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12), st.integers(0, 32), st.integers(1, 16), zero_shares, seeds)
def test_matmul_matches_scalar_reference(m, k, length, zero_share, seed):
    rng = np.random.default_rng(seed)
    a = _random_matrix(rng, m, k, zero_share)
    b = _random_matrix(rng, k, length, zero_share)
    out = GF256.matmul(a, b)
    assert out.dtype == np.uint8 and out.shape == (m, length)
    expect = ref_matmul(_as_lists(a), _as_lists(b)) if k else [[0] * length] * m
    assert _as_lists(out) == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.integers(0, 6), zero_shares, seeds)
def test_rref_matches_scalar_gauss_jordan(rows, cols, aug_cols, zero_share, seed):
    rng = np.random.default_rng(seed)
    a = _random_matrix(rng, rows, cols, zero_share)
    aug = _random_matrix(rng, rows, aug_cols, 0.0) if aug_cols else None
    rref, reduced, rank = gf_rref(a, aug)
    ref_a, ref_aug, ref_rank = ref_rref(_as_lists(a), _as_lists(aug) if aug is not None else None)
    assert rank == ref_rank == gf_rank(a)
    assert _as_lists(rref) == ref_a
    if aug is None:
        assert reduced is None
    else:
        assert _as_lists(reduced) == ref_aug


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 16), seeds)
def test_rref_of_rank_deficient_matrix(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    a = _rank_deficient(rng, rows, cols, min(rank, rows, cols))
    rref, _, got = gf_rref(a)
    ref_a, _, ref_rank = ref_rref(_as_lists(a))
    assert got == ref_rank <= min(rank, rows, cols)
    assert _as_lists(rref) == ref_a


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 24), st.integers(0, 8), st.integers(1, BLOCK), zero_shares, seeds)
def test_solve_matches_reference_or_raises(k, extra_rows, length, zero_share, seed):
    rng = np.random.default_rng(seed)
    coeffs = _random_matrix(rng, k + extra_rows, k, zero_share)
    x = rng.integers(0, 256, size=(k, length), dtype=np.uint8)
    payloads = GF256.matmul(coeffs, x)
    expect = ref_solve(_as_lists(coeffs), _as_lists(payloads), k)
    if expect is None:
        with pytest.raises(DecodeError):
            gf_solve(coeffs, payloads)
    else:
        got = gf_solve(coeffs, payloads)
        assert _as_lists(got) == expect == _as_lists(x)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 20), st.integers(0, 6), st.integers(1, 19), seeds)
def test_solve_rank_deficient_raises(k, extra_rows, rank, seed):
    rng = np.random.default_rng(seed)
    coeffs = _rank_deficient(rng, k + extra_rows, k, min(rank, k - 1))
    payloads = rng.integers(0, 256, size=(k + extra_rows, BLOCK), dtype=np.uint8)
    with pytest.raises(DecodeError):
        gf_solve(coeffs, payloads)


def _blocks(rng, k):
    return [rng.integers(0, 256, size=BLOCK, dtype=np.uint8).tobytes() for _ in range(k)]


def _reference_decode(code, packets):
    indices = sorted(packets)[: code.k]
    coeffs = [[int(x) for x in code.coefficient_row(i)] for i in indices]
    payloads = [list(packets[i]) for i in indices]
    solution = ref_solve(coeffs, payloads, code.k)
    assert solution is not None
    return [bytes(row) for row in solution]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 32),
    st.integers(0, 16),
    st.sampled_from(["random", "systematic", "max-erasure"]),
    st.integers(0, 8),
    seeds,
)
def test_rs_decode_matches_reference(k, redundancy, pattern, surplus, seed):
    n = min(48, k + redundancy)
    rng = np.random.default_rng(seed)
    code = ReedSolomonCode(k, n)
    blocks = _blocks(rng, k)
    encoded = code.encode(blocks)
    assert encoded[:k] == blocks
    # Parity must be the coefficient rows applied to the source.
    parity_rows = [[int(x) for x in code.coefficient_row(i)] for i in range(k, n)]
    expect_parity = ref_matmul(parity_rows, [list(b) for b in blocks])
    assert [list(p) for p in encoded[k:]] == expect_parity
    count = min(n, k + surplus)
    if pattern == "systematic":
        chosen = list(range(count))
    elif pattern == "max-erasure":
        # As many source rows erased as the parity can cover.
        chosen = list(range(n - 1, n - 1 - count, -1))
    else:
        chosen = [int(i) for i in rng.choice(n, size=count, replace=False)]
    packets = {i: encoded[i] for i in chosen}
    got = code.decode(packets)
    assert got == _reference_decode(code, packets) == blocks


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 16), st.integers(1, 8), seeds)
def test_rlc_decode_with_surplus_rows_matches_reference(k, surplus, seed):
    rng = np.random.default_rng(seed)
    code = RandomLinearCode(k, 2 * k + surplus, seed=seed % 97)
    blocks = _blocks(rng, k)
    indices = sorted(int(i) for i in rng.choice(
        np.arange(k // 2, 2 * k + surplus), size=k + surplus, replace=False))
    encoded = code.encode_indices(blocks, indices)
    coeffs = [[int(x) for x in code.coefficient_row(i)] for i in indices]
    assert [list(p) for p in encoded] == ref_matmul(coeffs, [list(b) for b in blocks])
    packets = dict(zip(indices, encoded))
    expect = ref_solve(coeffs, [list(p) for p in encoded], k)
    if expect is None:
        with pytest.raises(DecodeError):
            code.decode(packets)
    else:
        assert code.decode(packets) == [bytes(row) for row in expect] == blocks


class _AliasedRLC(RandomLinearCode):
    """An RLC whose indices in ``alias`` reuse another index's row."""

    def __init__(self, *args, alias, **kwargs):
        super().__init__(*args, **kwargs)
        self.alias = alias

    def coefficient_row(self, index):
        return super().coefficient_row(self.alias.get(index, index))


def test_rlc_decode_of_dependent_rows_raises():
    k = 6
    alias = {20: 6, 21: 7, 22: 8, 23: 9}
    code = _AliasedRLC(k, 12, seed=5, alias=alias)
    blocks = _blocks(np.random.default_rng(0), k)
    # Eight packets, but only four distinct combinations: rank 4 < k.
    indices = sorted(alias) + sorted(alias.values())
    packets = dict(zip(indices, code.encode_indices(blocks, indices)))
    with pytest.raises(DecodeError):
        code.decode(packets)
