"""LR-Seluge: loss-resilient and secure code dissemination for WSNs.

A complete reproduction of Zhang & Zhang, "LR-Seluge: Loss-Resilient and
Secure Code Dissemination in Wireless Sensor Networks" (ICDCS 2011) —
protocol, baselines (Deluge, Seluge), every substrate
(discrete-event simulation, CSMA broadcast radio, Trickle, erasure codes,
cryptography), adversary models, analytical models, and an experiment
harness that regenerates every figure and table of the paper's evaluation.

Quick start::

    from repro.experiments import OneHopScenario, run_scenario

    result = run_scenario(OneHopScenario(protocol="lr-seluge", loss_rate=0.2))
    assert result.images_ok

Subpackages
-----------
``repro.sim``
    Deterministic discrete-event engine, timers, seeded RNG streams.
``repro.net``
    Frames, loss models, topologies (incl. TinyOS-style file I/O), radio.
``repro.trickle``
    RFC-6206-style advertisement timer.
``repro.erasure``
    GF(256) Reed-Solomon, random linear, LT, and Tornado-style codes.
``repro.crypto``
    Hash images, Merkle trees, ECDSA (P-192), puzzles, key chains,
    cluster keys.
``repro.core``
    The paper's machinery: preprocessing, verification, TX scheduling.
``repro.protocols``
    Deluge / Seluge / LR-Seluge and control auth.
``repro.attacks``
    The paper's adversaries (bogus data, signature flood, denial of
    receipt, control forgery) and the engine that deploys them.
``repro.faults``
    Deterministic crashes, churn, link flaps and flash persistence.
``repro.obs``
    Counters, flight and causal recorders, trace analysis, run manifests.
``repro.analysis``
    Section-V transmission models plus an analytical latency model.
``repro.experiments``
    Scenarios, metrics, energy accounting, figure/table harness.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
