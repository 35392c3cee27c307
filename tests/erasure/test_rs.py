"""Unit and property tests for the systematic Reed-Solomon code."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_rank
from repro.erasure.rs import ReedSolomonCode
from repro.errors import CodingError, DecodeError


def _blocks(k, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes() for _ in range(k)]


def test_systematic_prefix():
    code = ReedSolomonCode(4, 8)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    assert encoded[:4] == blocks
    assert len(encoded) == 8


def test_rate_and_redundancy():
    code = ReedSolomonCode(4, 10)
    assert code.rate == 2.5
    assert code.redundancy == 6
    assert code.kprime == 4


def test_decode_from_systematic_subset():
    code = ReedSolomonCode(4, 8)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    assert code.decode({i: encoded[i] for i in range(4)}) == blocks


def test_decode_from_parity_only():
    code = ReedSolomonCode(4, 8)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    assert code.decode({i: encoded[i] for i in (4, 5, 6, 7)}) == blocks


def test_mds_every_k_subset_decodes():
    """The MDS property, exhaustively for a small code."""
    code = ReedSolomonCode(3, 6)
    blocks = _blocks(3, seed=5)
    encoded = code.encode(blocks)
    for subset in itertools.combinations(range(6), 3):
        got = code.decode({i: encoded[i] for i in subset})
        assert got == blocks, f"subset {subset} failed"


def test_extra_packets_ignored_gracefully():
    code = ReedSolomonCode(4, 8)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    assert code.decode({i: encoded[i] for i in range(6)}) == blocks


def test_too_few_packets_rejected():
    code = ReedSolomonCode(4, 8)
    encoded = code.encode(_blocks(4))
    with pytest.raises(DecodeError):
        code.decode({0: encoded[0], 1: encoded[1]})


def test_parameter_validation():
    with pytest.raises(CodingError):
        ReedSolomonCode(0, 4)
    with pytest.raises(CodingError):
        ReedSolomonCode(8, 4)
    with pytest.raises(CodingError):
        ReedSolomonCode(8, 300)
    with pytest.raises(CodingError):
        ReedSolomonCode(8, 12, kprime=13)


def test_wrong_block_count_rejected():
    code = ReedSolomonCode(4, 8)
    with pytest.raises(CodingError):
        code.encode(_blocks(3))


def test_unequal_block_sizes_rejected():
    code = ReedSolomonCode(2, 4)
    with pytest.raises(CodingError):
        code.encode([b"aaaa", b"bb"])


def test_coefficient_rows_full_rank_everywhere():
    code = ReedSolomonCode(4, 10)
    rows = np.stack([code.coefficient_row(i) for i in range(10)])
    for subset in itertools.combinations(range(10), 4):
        assert gf_rank(rows[list(subset)]) == 4


def test_coefficient_row_bounds():
    code = ReedSolomonCode(4, 8)
    with pytest.raises(CodingError):
        code.coefficient_row(8)


@pytest.mark.parametrize("bad", [-1, -4, 8, 9])
def test_decode_rejects_packet_indices_outside_the_code(bad):
    """A key outside [0, n) must not alias a parity row via negative indexing."""
    code = ReedSolomonCode(4, 8)
    encoded = code.encode(_blocks(4))
    packets = {i: encoded[i] for i in (1, 2, 3)}
    packets[bad] = encoded[0]
    with pytest.raises(CodingError):
        code.decode(packets)


def test_declared_kprime_gates_decode_attempts():
    code = ReedSolomonCode(4, 8, kprime=6)
    assert not code.can_attempt_decode(5)
    assert code.can_attempt_decode(6)


def test_rate_one_code():
    code = ReedSolomonCode(4, 4)
    blocks = _blocks(4)
    assert code.encode(blocks) == blocks
    assert code.decode({i: b for i, b in enumerate(blocks)}) == blocks


@pytest.mark.parametrize("k,n", [(1, 2), (8, 12), (32, 48), (100, 256), (5, 5)])
def test_cauchy_matrix_matches_scalar_inverses(k, n):
    expected = np.array(
        [[GF256.inv(x ^ j) for j in range(k)] for x in range(k, n)],
        dtype=np.uint8,
    ).reshape(n - k, k)
    got = ReedSolomonCode._cauchy_matrix(k, n - k)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_property_random_subsets_roundtrip(k, extra, seed):
    n = k + extra
    code = ReedSolomonCode(k, n)
    blocks = _blocks(k, size=8, seed=seed)
    encoded = code.encode(blocks)
    rng = np.random.default_rng(seed + 1)
    subset = rng.choice(n, size=k, replace=False)
    assert code.decode({int(i): encoded[int(i)] for i in subset}) == blocks
