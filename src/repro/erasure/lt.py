"""LT code (Luby, FOCS'02) used at a fixed rate.

Each encoded symbol draws a degree from the Robust Soliton distribution and
XORs that many uniformly chosen source blocks.  An LT encoder can emit
symbols without end; LR-Seluge's trick is to *predetermine* the first ``n``
symbols (the symbol derivation is seeded by ``(seed, generation, index)``,
so every node generates identical symbols), which is exactly what makes
hash-chaining — and therefore immediate authentication — possible.

The price is reception overhead: peeling/Gaussian decoding needs somewhat
more than ``k`` symbols.  The default declared threshold uses the classic
``k + O(sqrt(k) ln^2(k/delta))`` margin, and
:meth:`~repro.erasure.xor_base.XorErasureCode.empirical_overhead` measures
the real figure.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.erasure.xor_base import XorErasureCode
from repro.errors import CodingError
from repro.sim.rng import derived_stream

__all__ = ["LTCode", "robust_soliton"]


def robust_soliton(k: int, c: float = 0.1, delta: float = 0.5) -> List[float]:
    """The Robust Soliton degree distribution over degrees 1..k.

    Returns a probability vector ``p[d-1] = P[degree = d]``.
    """
    if k < 1:
        raise CodingError(f"k must be >= 1, got {k}")
    if k == 1:
        return [1.0]
    # Ideal Soliton.
    rho = [0.0] * (k + 1)
    rho[1] = 1.0 / k
    for d in range(2, k + 1):
        rho[d] = 1.0 / (d * (d - 1))
    # Robust addition tau.
    big_r = c * math.log(k / delta) * math.sqrt(k)
    big_r = max(big_r, 1.0)
    pivot = int(round(k / big_r))
    pivot = min(max(pivot, 1), k)
    tau = [0.0] * (k + 1)
    for d in range(1, pivot):
        tau[d] = big_r / (d * k)
    tau[pivot] = big_r * math.log(big_r / delta) / k if big_r > delta else 0.0
    total = sum(rho) + sum(tau)
    return [(rho[d] + tau[d]) / total for d in range(1, k + 1)]


class LTCode(XorErasureCode):
    """Fixed-rate LT code: the first ``n`` symbols of a seeded LT stream."""

    def __init__(self, k: int, n: int, kprime: int = 0, seed: int = 0,
                 generation: int = 0, c: float = 0.1, delta: float = 0.5) -> None:
        if not kprime:
            # ~90th-percentile of the empirical reception overhead: mean is
            # ~sqrt(k)·ln(k)·0.35 for this distribution; failing a decode
            # attempt is cheap (the receiver just waits for one more packet).
            margin = int(math.ceil(math.sqrt(k) * math.log(max(k, 2)) * 0.5)) + 1
            kprime = min(n, k + margin)
        super().__init__(k, n, kprime)
        self.seed = seed
        self.generation = generation
        self._dist = robust_soliton(k, c, delta)
        self._cdf: List[float] = []
        acc = 0.0
        for p in self._dist:
            acc += p
            self._cdf.append(acc)
        self._mask_cache: Dict[int, int] = {}
        self._ensure_full_rank()

    def symbol_mask(self, index: int) -> int:
        mask = self._mask_cache.get(index)
        if mask is not None:
            return mask
        # Derived, not injected: symbol identity across nodes requires the
        # stream to be a pure function of (seed, generation, index).
        rng = derived_stream("lt", self.seed, self.generation, index)
        u = rng.random()
        degree = 1 + next(
            (d for d, cum in enumerate(self._cdf) if u <= cum), self.k - 1
        )
        chosen = rng.sample(range(self.k), min(degree, self.k))
        mask = 0
        for j in chosen:
            mask |= 1 << j
        # Guarantee the *set* of predetermined symbols spans every block at
        # least plausibly: degree-1 symbols for the first few indices help
        # the peeling start (systematic-ish head).
        if index < max(2, self.k // 8) and index < self.k:
            mask = 1 << index
        self._mask_cache[index] = mask
        return mask
