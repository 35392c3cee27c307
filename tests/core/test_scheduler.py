"""Unit and property tests for the tracking table and TX schedulers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    GreedyRoundRobinScheduler,
    TrackingTable,
    UnionScheduler,
)
from repro.errors import ProtocolError


def test_distance_formula():
    """d_v = q + k' - n (Section IV-D3), clamped to >= 1 for requesters."""
    table = TrackingTable(n_packets=4, threshold=3)
    table.update_from_snack(1, {0, 1, 2, 3})  # q = 4 -> d = 4 + 3 - 4 = 3
    assert table.entries[1].distance == 3
    table.update_from_snack(2, {1, 2})        # q = 2 -> d = 1
    assert table.entries[2].distance == 1
    # q = 1 implies d = 0, but a node that requests cannot decode yet (it
    # may hold rank-deficient symbols of a non-MDS code): serve >= 1.
    table.update_from_snack(3, {1})
    assert table.entries[3].distance == 1
    # An empty bit-vector clears the entry.
    table.update_from_snack(3, set())
    assert 3 not in table.entries


def test_snack_update_replaces_entry():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1, 2, 3})
    table.update_from_snack(1, {2, 3})
    assert table.entries[1].wanted == {2, 3}
    assert table.entries[1].distance == 1


def test_out_of_range_indices_ignored():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1, 7, -2, 3})
    assert table.entries[1].wanted == {0, 1, 3}


def test_popularity():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1, 2, 3})
    table.update_from_snack(2, {1, 2, 3})
    assert table.popularity(0) == 1
    assert table.popularity(1) == 2
    assert table.popularity_vector() == [1, 2, 2, 2]


def test_mark_sent_clears_column_and_decrements():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1, 2, 3})
    table.update_from_snack(2, {1, 2})
    table.mark_sent(1)
    assert table.entries[1].wanted == {0, 2, 3}
    assert table.entries[1].distance == 2
    assert 2 not in table.entries  # distance hit zero -> deleted


def test_threshold_cannot_exceed_packets():
    with pytest.raises(ProtocolError):
        TrackingTable(4, 5)


def test_greedy_first_pick_is_most_popular_lowest_index():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {1, 3})
    table.update_from_snack(2, {1, 2, 3})
    table.update_from_snack(3, {0, 1, 3})
    sched = GreedyRoundRobinScheduler(table)
    # popularity: [1, 3, 1, 3]; tie between 1 and 3 -> lowest index 1
    assert sched.next_packet() == 1


def test_greedy_round_robin_tiebreak_to_the_right():
    table = TrackingTable(6, 6)
    table.update_from_snack(1, {0, 1, 2, 3, 4, 5})
    sched = GreedyRoundRobinScheduler(table)
    order = []
    for _ in range(6):
        idx = sched.next_packet()
        order.append(idx)
        table.mark_sent(idx)
    # All equal popularity: pure round robin from index 0.
    assert order == [0, 1, 2, 3, 4, 5]


def test_greedy_wraps_cyclically():
    table = TrackingTable(4, 4)
    table.update_from_snack(1, {0, 3})
    sched = GreedyRoundRobinScheduler(table)
    first = sched.next_packet()
    assert first == 0
    table.mark_sent(0)
    assert sched.next_packet() == 3


def test_paper_walkthrough_example():
    """A Table-I style walkthrough: send most-popular, drop satisfied nodes.

    v1 wants {1,2} (d=1), v2 wants {1,2,3} (d=2), v3 wants {0,1,3} (d=2)
    with n=4, k'=3.  Sending packet 1 (popularity 3) satisfies v1; packet 3
    (most popular right of 1) then satisfies v2 and v3: two transmissions
    serve three neighbors.
    """
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {1, 2})
    table.update_from_snack(2, {1, 2, 3})
    table.update_from_snack(3, {0, 1, 3})
    sched = GreedyRoundRobinScheduler(table)
    order = sched.drain()
    assert order == [1, 3]
    assert table.empty


def test_drain_handles_losses_via_resnack():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1, 2, 3})
    sched = GreedyRoundRobinScheduler(table)
    sent = sched.drain()
    assert len(sent) == 3  # distance was 3
    # Two of them were lost: the node still needs 2 + 3 - 4 = 1 more.
    table.update_from_snack(1, {sent[0], sent[1]})
    assert not table.empty
    assert table.entries[1].distance == 1
    more = sched.drain()
    assert len(more) == 1 and more[0] in (sent[0], sent[1])


def test_next_packet_none_when_empty():
    table = TrackingTable(4, 3)
    sched = GreedyRoundRobinScheduler(table)
    assert sched.next_packet() is None


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.sets(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    min_size=1, max_size=6,
))
def test_property_drain_satisfies_every_entry(wants):
    """Lossless drain always empties the table within sum(d_v) sends."""
    n, threshold = 8, 6
    table = TrackingTable(n, threshold)
    for node, want in enumerate(wants):
        table.update_from_snack(node, want)
    budget = sum(e.distance for e in table.entries.values())
    sched = GreedyRoundRobinScheduler(table)
    order = sched.drain()
    assert table.empty
    assert len(order) <= budget
    assert len(set(order)) == len(order)  # never repeats a packet


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.sets(st.integers(min_value=0, max_value=7), min_size=4, max_size=8),
    min_size=2, max_size=6,
))
def test_property_greedy_not_worse_than_union(wants):
    """For the same demands, greedy RR sends no more packets than the union rule."""
    n, threshold = 8, 6
    table = TrackingTable(n, threshold)
    union = UnionScheduler(n)
    for node, want in enumerate(wants):
        table.update_from_snack(node, want)
        if node in table.entries:  # satisfied requesters send no SNACK
            union.update_from_snack(want)
    greedy_sent = GreedyRoundRobinScheduler(table).drain()
    union_sent = []
    while not union.empty:
        idx = union.next_packet()
        union_sent.append(idx)
        union.mark_sent(idx)
    assert len(greedy_sent) <= len(union_sent)


def test_union_scheduler_cyclic_order():
    union = UnionScheduler(6)
    union.update_from_snack({0, 2, 4})
    order = []
    while not union.empty:
        idx = union.next_packet()
        order.append(idx)
        union.mark_sent(idx)
    assert order == [0, 2, 4]
    union.update_from_snack({1, 5})
    # Continues to the right of the last sent index (4).
    assert union.next_packet() == 5


def test_union_ignores_out_of_range():
    union = UnionScheduler(4)
    union.update_from_snack({2, 9, -1})
    assert union.pending == {2}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_union_pick_matches_the_modulo_rule(data):
    """The wrap-around pick equals the cyclic-distance rule
    ``min(pending, key=lambda i: (i - last - 1) % n)`` for any pending set
    and last pick, over SNACK folds that also carry out-of-range indices."""
    n = data.draw(st.integers(1, 64), label="n")
    union = UnionScheduler(n)
    union.update_from_snack(data.draw(
        st.sets(st.integers(-2, n + 2), max_size=n + 4), label="needed"))
    union._last = data.draw(st.none() | st.integers(0, n - 1), label="last")
    pending, last = set(union.pending), union._last
    if not pending:
        expected = None
    elif last is None:
        expected = min(pending)
    else:
        expected = min(pending, key=lambda i: (i - last - 1) % n)
    assert union.next_packet() == expected
    assert union.pending == pending
    if expected is not None:
        assert union._last == expected


def _recount(table):
    """Naive popularity vector: one pass over every entry's wanted set."""
    counts = [0] * table.n
    for entry in table.entries.values():
        for idx in entry.wanted:
            counts[idx] += 1
    return counts


def _round_robin_pick(counts, last):
    """The selection rule stated over a full recount (the reference)."""
    best = max(counts, default=0)
    if best == 0:
        return None
    candidates = [i for i, c in enumerate(counts) if c == best]
    if last is None:
        return candidates[0]
    return min(candidates, key=lambda i: (i - last - 1) % len(counts))


_TABLE_OPS = st.one_of(
    st.tuples(st.just("snack"), st.integers(0, 4),
              st.sets(st.integers(-1, 9), max_size=10)),
    st.tuples(st.just("sent"), st.integers(0, 7)),
    st.tuples(st.just("remove"), st.integers(0, 4)),
    st.tuples(st.just("next"), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(_TABLE_OPS, max_size=40))
def test_property_kept_popularity_matches_a_recount(threshold, ops):
    """The table's kept counts equal a recount over ``entries`` after any
    sequence of SNACK folds, sends and removals, and the scheduler picks
    what the full-recount rule picks."""
    table = TrackingTable(8, threshold)
    sched = GreedyRoundRobinScheduler(table)
    for op in ops:
        if op[0] == "snack":
            table.update_from_snack(op[1], op[2])
        elif op[0] == "sent":
            table.mark_sent(op[1])
        elif op[0] == "remove":
            table.remove(op[1])
        else:
            expected = _round_robin_pick(_recount(table), sched._last)
            assert sched.next_packet() == expected
            if expected is not None and op[1]:
                table.mark_sent(expected)
        counts = _recount(table)
        assert table.popularity_vector() == counts
        assert [table.popularity(i) for i in range(table.n)] == counts
        assert table.empty == (not table.entries)
        assert not any(e.satisfied() for e in table.entries.values())


def test_popularity_vector_is_a_copy():
    table = TrackingTable(4, 3)
    table.update_from_snack(1, {0, 1})
    table.popularity_vector()[0] = 99
    assert table.popularity(0) == 1
    assert table.snapshot()["popularity"] == [1, 1, 0, 0]
