"""Per-node verification accounting is pinned.

Every node pays for its own checks: the energy model and ``--energy`` read
each node's ``pipeline.stats``.  These sums were recorded before the run's
pipelines shared a verification memo and must not move with it.
"""

from collections import Counter

import pytest

from repro.attacks.plan import AttackSpec
from repro.experiments.scenarios import Scenario, build_rig

BASE = dict(topology="grid:3x3:3", ambient=True, image_size=4000, k=8, n=12,
            seed=9, max_time=600.0)
ATTACKS = (AttackSpec(kind="bogus-data", start=0.5, period=0.3),
           AttackSpec(kind="signature-flood", start=0.5, period=0.7))

PINNED = {
    ("seluge", False): (2153, {
        "hash_checks": 1171, "merkle_checks": 20, "overheard_compare": 67,
        "puzzle_checks": 9, "signature_verifications": 9,
    }),
    ("lr-seluge", True): (4920, {
        "decode_ops": 90, "encode_ops": 22, "hash_checks": 2123,
        "merkle_checks": 76, "overheard_compare": 147, "puzzle_checks": 18,
        "puzzle_rejects": 9, "rejected_packets": 281,
        "signature_verifications": 9,
    }),
    ("seluge", True): (3719, {
        "hash_checks": 1584, "merkle_checks": 13, "overheard_compare": 84,
        "puzzle_checks": 18, "puzzle_rejects": 9, "rejected_packets": 183,
        "signature_verifications": 9,
    }),
}


@pytest.mark.parametrize("protocol, attacked", sorted(PINNED),
                         ids=lambda v: str(v))
def test_per_node_verification_stats_are_pinned(protocol, attacked):
    rig = build_rig(Scenario(protocol=protocol,
                             attacks=ATTACKS if attacked else (), **BASE))
    assert rig.run().completed
    total: Counter = Counter()
    for node in [rig.base] + rig.nodes:
        total.update(node.pipeline.stats)
    events, stats = PINNED[(protocol, attacked)]
    assert rig.sim.processed_events == events
    assert dict(total) == stats
