"""Analytical models from Section V of the paper.

* :func:`seluge_expected_tx` — expected data-packet transmissions for one
  Seluge page in the one-hop model (Theorem-1 analogue).
* :func:`ack_lr_expected_tx` — the ACK-based LR-Seluge round model that
  upper-bounds the real protocol (Theorem-2 analogue).
"""

from repro.analysis.onehop import (
    ack_lr_expected_tx,
    ack_lr_round_distribution,
    seluge_expected_tx,
    seluge_page_expected_tx,
)
from repro.analysis.distributions import (
    expected_max_geometric,
    binomial_pmf,
    binomial_tail_ge,
)

__all__ = [
    "seluge_expected_tx",
    "seluge_page_expected_tx",
    "ack_lr_expected_tx",
    "ack_lr_round_distribution",
    "expected_max_geometric",
    "binomial_pmf",
    "binomial_tail_ge",
]
