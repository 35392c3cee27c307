"""Random linear codes over GF(256).

A fixed-rate code with ``n`` predetermined rows: an alternative LR-Seluge
code (``code_kind="rlc"``) whose packets are random combinations of the
source.  Any ``k`` received rows decode iff they are linearly independent —
true with probability > 0.996 over GF(256) — so the declared threshold
``k' = k + 2`` makes decode failures negligible, matching the paper's
``k' > k`` assumption.

Rows are derived deterministically from ``(seed, generation, index)`` so
every node in a simulation generates identical packets — exactly the paper's
requirement that "every node can generate the same n encoded packets".
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.erasure.base import ErasureCode, array_to_blocks, blocks_to_array
from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_rank, gf_solve
from repro.errors import CodingError, DecodeError

__all__ = ["RandomLinearCode"]


def _row_from_hash(seed: int, generation: int, index: int, k: int) -> np.ndarray:
    """Deterministic pseudo-random GF(256) row for packet ``index``."""
    out = np.zeros(k, dtype=np.uint8)
    filled = 0
    counter = 0
    while filled < k:
        digest = hashlib.sha256(
            f"rlc:{seed}:{generation}:{index}:{counter}".encode()
        ).digest()
        take = min(k - filled, len(digest))
        out[filled : filled + take] = np.frombuffer(digest[:take], dtype=np.uint8)
        filled += take
        counter += 1
    if not out.any():  # all-zero row would be useless; perturb deterministically
        out[index % k] = 1
    return out


class RandomLinearCode(ErasureCode):
    """Fixed-rate random linear code with systematic prefix.

    The first ``k`` encoded blocks are the source blocks themselves (this
    mirrors practical RLC deployments and keeps the loss-free path cheap);
    indices ``k..n-1`` are dense random combinations.  Rows are derived per
    index, so indices ``>= n`` are well-defined too.
    """

    def __init__(self, k: int, n: int, kprime: int = 0, seed: int = 0, generation: int = 0) -> None:
        super().__init__(k, n, kprime or min(n, k + 2))
        self.seed = seed
        self.generation = generation
        self._row_cache: Dict[int, np.ndarray] = {}

    def coefficient_row(self, index: int) -> np.ndarray:
        """Combination row for encoded block ``index`` (any index >= 0)."""
        if index < 0:
            raise CodingError(f"encoded index must be >= 0, got {index}")
        row = self._row_cache.get(index)
        if row is None:
            if index < self.k:
                row = np.zeros(self.k, dtype=np.uint8)
                row[index] = 1
            else:
                row = _row_from_hash(self.seed, self.generation, index, self.k)
            self._row_cache[index] = row
        return row

    def encode(self, blocks: Sequence[bytes]) -> List[bytes]:
        if len(blocks) != self.k:
            raise CodingError(f"expected {self.k} source blocks, got {len(blocks)}")
        return self.encode_indices(blocks, range(self.n))

    def encode_indices(self, blocks: Sequence[bytes], indices: Iterable[int]) -> List[bytes]:
        """Encode only the requested indices."""
        data = blocks_to_array(blocks)
        wanted = list(indices)
        out = {i: bytes(blocks[i]) for i in wanted if 0 <= i < self.k}
        coded = [i for i in wanted if i not in out]
        if coded:
            rows = np.stack([self.coefficient_row(i) for i in coded])
            out.update(zip(coded, array_to_blocks(GF256.matmul(rows, data))))
        return [out[i] for i in wanted]

    def decode(self, packets: Dict[int, bytes]) -> List[bytes]:
        if len(packets) < self.k:
            raise DecodeError(
                f"need at least k={self.k} packets to decode, got {len(packets)}"
            )
        indices = sorted(packets)
        coeffs = np.stack([self.coefficient_row(i) for i in indices])
        payloads = blocks_to_array([packets[i] for i in indices])
        solved = gf_solve(coeffs, payloads)
        return array_to_blocks(solved)

    def decodable(self, indices: Sequence[int]) -> bool:
        """True when the given packet indices span the source (rank k)."""
        if len(indices) < self.k:
            return False
        coeffs = np.stack([self.coefficient_row(i) for i in indices])
        return gf_rank(coeffs) == self.k
