"""Systematic Reed-Solomon code over GF(256) via a Cauchy parity matrix.

The full encoding matrix is ``[I_k ; C]`` where ``C`` is the (n-k) x k Cauchy
matrix ``C[i, j] = 1 / (x_i + y_j)`` with distinct ``x_i = k + i`` and
``y_j = j``.  Every square submatrix of a Cauchy matrix is nonsingular, which
makes the code MDS: *any* ``k`` of the ``n`` encoded blocks recover the page.

LR-Seluge's protocol threshold ``k'`` may be declared larger than ``k`` to
emulate the reception overhead of the non-MDS (Tornado-style) codes the paper
assumes; decoding itself only ever needs ``k`` blocks.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence

import numpy as np

from repro.erasure.base import ErasureCode, array_to_blocks, blocks_to_array
from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_solve
from repro.errors import CodingError, DecodeError

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode(ErasureCode):
    """Systematic MDS code: encoded blocks 0..k-1 are the source itself."""

    def __init__(self, k: int, n: int, kprime: int = 0) -> None:
        super().__init__(k, n, kprime or k)
        if n > 256:
            raise CodingError(f"RS over GF(256) supports n <= 256, got {n}")
        self._parity = self._cauchy_matrix(k, n - k)
        # Full row for encoded index j: identity row if j < k else parity row.
        self._rows = np.vstack([np.eye(k, dtype=np.uint8), self._parity]) if n > k else np.eye(k, dtype=np.uint8)

    @staticmethod
    def _cauchy_matrix(k: int, parity_rows: int) -> np.ndarray:
        if parity_rows == 0:
            return np.zeros((0, k), dtype=np.uint8)
        if k + parity_rows > 256:
            raise CodingError("Cauchy construction needs k + (n-k) <= 256")
        # C[i, j] = 1 / (x_i + y_j); addition in GF(256) is XOR.
        return GF256.inv_table[np.bitwise_xor.outer(np.arange(k, k + parity_rows), np.arange(k))]

    def coefficient_row(self, index: int) -> np.ndarray:
        """The GF(256) combination row that produced encoded block ``index``."""
        if not 0 <= index < self.n:
            raise CodingError(f"encoded index {index} out of range [0, {self.n})")
        return self._rows[index]

    def encode(self, blocks: Sequence[bytes]) -> List[bytes]:
        if len(blocks) != self.k:
            raise CodingError(f"expected {self.k} source blocks, got {len(blocks)}")
        data = blocks_to_array(blocks)
        encoded = list(blocks)  # systematic prefix, no copy of bytes needed
        if self.n > self.k:
            parity = GF256.matmul(self._parity, data)
            encoded = list(blocks) + array_to_blocks(parity)
        return encoded

    def decode(self, packets: Dict[int, bytes]) -> List[bytes]:
        if len(packets) < self.k:
            raise DecodeError(
                f"need at least k={self.k} packets to decode, got {len(packets)}"
            )
        ordered = sorted(packets)
        for index in (ordered[0], ordered[-1]):  # the extremes bound every key
            if not 0 <= index < self.n:
                raise CodingError(f"encoded index {index} out of range [0, {self.n})")
        indices = ordered[: self.k]
        # Systematic keys sort first, so ``indices`` holds every received
        # source block, then one parity block per erased source block.
        split = bisect.bisect_left(indices, self.k)
        known, parity = indices[:split], indices[split:]
        if not parity:
            return [packets[i] for i in indices]
        erased = [j for j in range(self.k) if j not in packets]
        payloads = blocks_to_array([packets[i] for i in indices])
        rows = self._parity[[i - self.k for i in parity]]
        # Move the known source blocks' share of each parity block to the
        # right-hand side; what remains is an e x e Cauchy system (e erased
        # rows), nonsingular because every square Cauchy submatrix is.
        rhs = payloads[split:] ^ GF256.matmul(rows[:, known], payloads[:split])
        solved = gf_solve(rows[:, erased], rhs)
        blocks = {i: packets[i] for i in known}
        blocks.update(zip(erased, array_to_blocks(solved)))
        return [blocks[j] for j in range(self.k)]
