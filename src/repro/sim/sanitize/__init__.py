"""simsan — the determinism sanitizer for the discrete-event core.

Three dynamic race detectors that make engine/radio refactors (ROADMAP
items 1-2) safe to attempt:

* **Schedule perturbation** (:mod:`repro.sim.sanitize.perturb`): run the
  same scenario under K different deterministic tie-break permutations of
  same-timestamp events and byte-compare metric/trace digests.  Any
  divergence means a result depends on the engine's FIFO tie-break — an
  order-dependence bug that a batched/vectorised engine would surface as
  unreproducible figures.
* **Shared-state detection** (:mod:`repro.sim.sanitize.aliases`):
  fingerprint the mutable containers reachable from each node/protocol
  instance and report any container aliased across two nodes that is not
  part of the sanctioned shared infrastructure (radio, trace, registry...).
* **RNG-discipline tripwire** (:mod:`repro.sim.sanitize.tripwire`): record
  which execution context draws each named stream from the
  :class:`~repro.sim.rng.RngRegistry` and flag streams consumed from two
  different node contexts.

None of this touches :mod:`repro.sim.engine`: the perturbed scheduler is a
:class:`~repro.sim.engine.Simulator` subclass, so production runs pay zero
overhead (the perfbench gate, ``python -m repro.obs bench-compare``, is the
enforcement).  See DESIGN.md
section 13 for the workflow and ``python -m repro.sim.sanitize`` for the CLI.
"""

from repro.sim.sanitize.aliases import AliasFinding, find_shared_state
from repro.sim.sanitize.digest import (
    DigestPair,
    canonical_events,
    event_digest,
    first_divergence,
    metrics_digest,
)
from repro.sim.sanitize.harness import (
    DEFAULT_CELLS,
    CellReport,
    SanitizeCell,
    SanitizerReport,
    default_cells,
    run_cell,
    run_sanitizer,
)
from repro.sim.sanitize.perturb import HandlerContext, PerturbedSimulator
from repro.sim.sanitize.tripwire import StreamBinding, TripwireRegistry

__all__ = [
    "AliasFinding",
    "CellReport",
    "DEFAULT_CELLS",
    "DigestPair",
    "HandlerContext",
    "PerturbedSimulator",
    "SanitizeCell",
    "SanitizerReport",
    "StreamBinding",
    "TripwireRegistry",
    "canonical_events",
    "default_cells",
    "event_digest",
    "find_shared_state",
    "first_divergence",
    "metrics_digest",
    "run_cell",
    "run_sanitizer",
]
