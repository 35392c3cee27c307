"""Erasure-coding substrate.

LR-Seluge encodes every page with a fixed-rate ``k``-``n``-``k'`` erasure code
(Section II-C): ``k`` source blocks become ``n`` encoded blocks and any ``k'``
of them recover the page.  This package provides real codes, not stand-ins:

* :class:`ReedSolomonCode` — systematic MDS code built from a Cauchy matrix
  over GF(256); ``k' = k`` plus an optional declared reception overhead to
  emulate the non-MDS (Tornado-style) codes the paper assumes (``k' > k``).
* :class:`RandomLinearCode` — fixed-rate random linear code over GF(256)
  (``code_kind="rlc"``).
"""

from repro.erasure.base import ErasureCode, make_code
from repro.erasure.gf256 import GF256
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.rlc import RandomLinearCode
from repro.erasure.lt import LTCode
from repro.erasure.tornado import TornadoCode

__all__ = [
    "ErasureCode",
    "make_code",
    "GF256",
    "ReedSolomonCode",
    "RandomLinearCode",
    "LTCode",
    "TornadoCode",
]
