"""Unit tests for random linear codes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure.rlc import RandomLinearCode
from repro.errors import CodingError, DecodeError


def _blocks(k, size=16, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes() for _ in range(k)]


def test_systematic_prefix():
    code = RandomLinearCode(4, 8, seed=1)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    assert encoded[:4] == blocks


def test_default_kprime_has_overhead():
    code = RandomLinearCode(8, 12)
    assert code.kprime == 10  # k + 2


def test_decode_from_parity_combinations():
    code = RandomLinearCode(4, 10, seed=2)
    blocks = _blocks(4)
    encoded = code.encode(blocks)
    got = code.decode({i: encoded[i] for i in (4, 5, 6, 7, 8)})
    assert got == blocks


def test_indices_beyond_n_decode():
    code = RandomLinearCode(4, 6, seed=3)
    blocks = _blocks(4)
    fresh = code.encode_indices(blocks, [100, 101, 102, 103, 104])
    got = code.decode({100 + i: fresh[i] for i in range(5)})
    assert got == blocks


def test_same_seed_same_rows_across_instances():
    a = RandomLinearCode(4, 8, seed=9, generation=2)
    b = RandomLinearCode(4, 8, seed=9, generation=2)
    for idx in (4, 7, 1000):
        assert np.array_equal(a.coefficient_row(idx), b.coefficient_row(idx))


def test_generations_differ():
    a = RandomLinearCode(4, 8, seed=9, generation=0)
    b = RandomLinearCode(4, 8, seed=9, generation=1)
    assert not np.array_equal(a.coefficient_row(5), b.coefficient_row(5))


def test_decodable_rank_check():
    code = RandomLinearCode(4, 8, seed=4)
    assert not code.decodable([0, 1, 2])
    assert code.decodable([0, 1, 2, 3])
    assert code.decodable([4, 5, 6, 7])


def test_insufficient_packets_rejected():
    code = RandomLinearCode(4, 8, seed=5)
    encoded = code.encode(_blocks(4))
    with pytest.raises(DecodeError):
        code.decode({0: encoded[0]})


def test_negative_index_rejected():
    code = RandomLinearCode(4, 8)
    with pytest.raises(CodingError):
        code.coefficient_row(-1)


def test_wrong_block_count_rejected():
    code = RandomLinearCode(4, 8)
    with pytest.raises(CodingError):
        code.encode(_blocks(5))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
def test_property_kplus2_random_combinations_decode(k, seed):
    """k+2 random (non-systematic) combinations decode w.h.p. over GF(256)."""
    code = RandomLinearCode(k, k + 2, seed=seed)
    blocks = _blocks(k, size=8, seed=seed % 1000)
    indices = list(range(k, k + 2)) + [1000 + i for i in range(k)]
    payloads = code.encode_indices(blocks, indices)
    received = dict(zip(indices, payloads))
    if code.decodable(indices):
        assert code.decode(received) == blocks
