"""Brute-force oracle for the greedy round-robin TX scheduler (lossless).

Without losses a tracking table is a covering problem: find the fewest
packets S of [n] such that every neighbour v gets ``|S & wanted_v| >= d_v``
of the packets it asked for.  The oracle enumerates every subset of [n]
(n <= 12, so at most 4096) as a bitmask and takes the smallest feasible
one.  Greedy is pinned optimal on the paper's Table I walk-through; on
3000 seeded random tables (n 4-12, 1-5 neighbours) it is at most one
packet above the optimum, and one explicit table where it pays that extra
packet is pinned.
"""

import random

import numpy as np

from repro.core.scheduler import GreedyRoundRobinScheduler, TrackingTable


_POPCOUNT = np.array([bin(m).count("1") for m in range(1 << 12)])


def _table(n, kprime, wants):
    table = TrackingTable(n, kprime)
    for node_id, wanted in enumerate(wants, start=1):
        table.update_from_snack(node_id, wanted)
    return table


def optimum(table):
    """Minimum number of packets that satisfies every entry, by enumeration."""
    masks = np.arange(1 << table.n)
    popcount = _POPCOUNT[: masks.size]
    feasible = np.ones(masks.size, dtype=bool)
    for entry in table.entries.values():
        wanted = sum(1 << i for i in entry.wanted)
        feasible &= popcount[masks & wanted] >= entry.distance
    return int(popcount[feasible].min())


def greedy(table):
    return len(GreedyRoundRobinScheduler(table).drain())


def test_greedy_is_optimal_on_the_table1_walkthrough():
    table = _table(4, 3, [{1, 2}, {1, 2, 3}, {0, 1, 3}])
    assert optimum(table) == 2
    assert greedy(table) == 2


def test_greedy_is_within_one_packet_of_optimal_on_random_tables():
    rng = random.Random(20111)
    gaps = []
    for _ in range(3000):
        n = rng.randint(4, 12)
        kprime = rng.randint(1, n)
        wants = [
            {i for i in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
            for _ in range(rng.randint(1, 5))
        ]
        best = optimum(_table(n, kprime, wants))
        gaps.append(greedy(_table(n, kprime, wants)) - best)
    # Never below the optimum (that would be an oracle bug), never more
    # than one packet above it; the miss happens on 49 of 3000 tables.
    assert {gap: gaps.count(gap) for gap in set(gaps)} == {0: 2951, 1: 49}


def test_greedy_pays_one_extra_packet_on_a_pinned_table():
    # The most popular packet is not always in a minimum cover: greedy
    # opens with packet 9 (wanted by three neighbours) and needs 10
    # packets, while packets 1-9 satisfy every distance (1, 1, 1, 2, 9).
    wants = [{0, 2, 7}, {9}, {4, 10}, {0, 3, 8, 9}, set(range(1, 12))]
    order = GreedyRoundRobinScheduler(_table(12, 10, wants)).drain()
    assert len(order) == 10
    assert order[0] == 9
    assert optimum(_table(12, 10, wants)) == 9
    cover = _table(12, 10, wants)
    for index in range(1, 10):
        cover.mark_sent(index)
    assert cover.empty
