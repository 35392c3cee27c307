"""Experiment harness: scenarios, metrics, and figure/table regeneration.

``python -m repro.experiments <fig3a|fig3b|fig4|fig5|fig6|table2|table3|all>``
regenerates the corresponding paper artifact as a text table; the same
functions are importable for programmatic use (the benchmarks call them with
reduced sizes).
"""

from repro.experiments.metrics import RunResult
from repro.experiments.runner import CompletionTracker, run_network
from repro.experiments.scenarios import (
    MultiHopScenario,
    OneHopScenario,
    run_multihop,
    run_one_hop,
)
from repro.experiments.energy import EnergyModel, EnergyReport, estimate_energy

__all__ = [
    "RunResult",
    "CompletionTracker",
    "run_network",
    "OneHopScenario",
    "MultiHopScenario",
    "run_one_hop",
    "run_multihop",
    "EnergyModel",
    "EnergyReport",
    "estimate_energy",
]
