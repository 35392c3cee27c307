"""Dense linear algebra over GF(256): elimination, rank, inversion, solving.

Used by the Reed-Solomon and random-linear-code decoders.  All matrices are
numpy uint8 arrays.  Elimination works on one ``[A | augment]`` array and
clears a pivot's column from every other row in a single product-table
gather, so a k-column elimination costs O(k) numpy calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.erasure.gf256 import GF256
from repro.errors import DecodeError

__all__ = ["gf_rank", "gf_invert", "gf_solve", "gf_rref"]


def gf_rref(matrix: np.ndarray, augment: Optional[np.ndarray] = None) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Reduced row-echelon form over GF(256).

    Row-reduces ``matrix`` (copied) and mirrors every row operation on the
    optional ``augment`` block.  Returns ``(rref, reduced_augment, rank)``.
    The pivot for each column is the first row at or below the current
    pivot row with a nonzero entry there.
    """
    cols = matrix.shape[1]
    if augment is None:
        a = matrix.astype(np.uint8)
    else:
        a = np.hstack([matrix.astype(np.uint8), augment.astype(np.uint8)])
    rows = a.shape[0]
    mul = GF256.mul_table
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        candidates = np.flatnonzero(a[pivot_row:, col])
        if candidates.size == 0:
            continue
        pivot = pivot_row + int(candidates[0])
        if pivot != pivot_row:
            a[[pivot_row, pivot]] = a[[pivot, pivot_row]]
        a[pivot_row] = mul[GF256.inv_table[a[pivot_row, col]], a[pivot_row]]
        factors = a[:, col].copy()
        factors[pivot_row] = 0
        a ^= mul[factors][:, a[pivot_row]]
        pivot_row += 1
    return a[:, :cols], (a[:, cols:] if augment is not None else None), pivot_row


def gf_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(256)."""
    _, _, rank = gf_rref(matrix)
    return rank


def gf_invert(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises :class:`DecodeError` if singular."""
    n, m = matrix.shape
    if n != m:
        raise DecodeError(f"cannot invert non-square matrix {matrix.shape}")
    identity = np.eye(n, dtype=np.uint8)
    rref, inv, rank = gf_rref(matrix, identity)
    if rank < n:
        raise DecodeError(f"matrix is singular (rank {rank} < {n})")
    del rref
    if inv is None:
        raise AssertionError('invariant violated: inv is not None')
    return inv


def gf_solve(coeffs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Solve ``coeffs @ X = payloads`` for X over GF(256).

    ``coeffs`` is (m x k) with m >= k and rank k; ``payloads`` is (m x L).
    Returns the (k x L) solution.  Raises :class:`DecodeError` when the
    system is rank-deficient (not enough independent packets).
    """
    m, k = coeffs.shape
    if payloads.shape[0] != m:
        raise DecodeError(
            f"coefficient rows ({m}) != payload rows ({payloads.shape[0]})"
        )
    _, reduced, rank = gf_rref(coeffs, payloads)
    if rank < k:
        raise DecodeError(f"system is rank-deficient (rank {rank} < {k})")
    if reduced is None:
        raise AssertionError('invariant violated: reduced is not None')
    # Full column rank: the pivots sit at columns 0..k-1, in order.
    return reduced[:k]
