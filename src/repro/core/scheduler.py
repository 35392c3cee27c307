"""TX-state scheduling: tracking table + greedy round-robin (Section IV-D3).

A sender serving a page keeps one tracking entry per requesting neighbor:
the bit-vector of packets that neighbor still wants and its *distance* — the
number of additional packets it needs to decode the page,
``d_v = q + k' - n`` where ``q`` is the number of requested packets.  The
scheduler repeatedly transmits the packet wanted by the most neighbors
(*popularity*), breaking ties round-robin (the first candidate to the right
of the previously sent index, cyclically); after each transmission it clears
that column and decrements the distance of every neighbor that wanted the
packet, deleting entries whose distance reaches zero.  Transmission stops
when the table empties — i.e. when, as far as the sender knows, every
neighbor can decode.

The table keeps the popularity vector as it goes: a SNACK fold, a send and
a removal each adjust the counts of the indices they touch, so a pick scans
one list of ``n`` counts instead of recounting every requester's
bit-vector.  The selection rule itself is unchanged.

Deluge/Seluge semantics (request-all, union of bit-vectors) are provided
for the baselines and the scheduler ablation (DESIGN.md E10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.errors import ProtocolError

__all__ = [
    "TrackingEntry",
    "TrackingTable",
    "GreedyRoundRobinScheduler",
    "UnionScheduler",
]


@dataclass
class TrackingEntry:
    """One neighbor's outstanding demand for the page being served."""

    node_id: int
    wanted: Set[int]
    distance: int

    def satisfied(self) -> bool:
        return self.distance <= 0 or not self.wanted


class TrackingTable:
    """The per-page table a TX-state node maintains (paper Table I).

    ``_counts[i]`` is the number of entries that want packet ``i``; every
    method that changes an entry's ``wanted`` set adjusts it, so it always
    equals a recount over :attr:`entries`.  ``entries`` is read-only to
    callers.
    """

    def __init__(self, n_packets: int, threshold: int):
        if threshold > n_packets:
            raise ProtocolError(
                f"threshold {threshold} exceeds packet count {n_packets}"
            )
        self.n = n_packets
        self.threshold = threshold
        self.entries: Dict[int, TrackingEntry] = {}
        self._counts: List[int] = [0] * n_packets

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def empty(self) -> bool:
        return not self.entries

    def update_from_snack(self, node_id: int, needed: Iterable[int]) -> None:
        """Create or refresh the entry for ``node_id``.

        ``needed`` is the set of packet indices from the SNACK bit-vector.
        The distance is ``q + threshold - n`` (at most ``threshold`` more
        packets are ever required), clamped to at least 1: a node only
        requests when it genuinely cannot decode yet, which matters for
        non-MDS codes (LT/Tornado) whose received symbols can be
        rank-deficient even at ``k'`` receptions.
        """
        wanted = {i for i in needed if 0 <= i < self.n}
        self.remove(node_id)
        if not wanted:
            return
        counts = self._counts
        for i in sorted(wanted):
            counts[i] += 1
        q = len(wanted)
        distance = max(1, q + self.threshold - self.n)
        self.entries[node_id] = TrackingEntry(node_id, wanted, distance)

    def popularity(self, index: int) -> int:
        """Number of tracked neighbors that want packet ``index``."""
        return self._counts[index] if 0 <= index < self.n else 0

    def popularity_vector(self) -> List[int]:
        return list(self._counts)

    def mark_sent(self, index: int) -> None:
        """Account for a transmission (ours or an overheard one).

        Clears column ``index``, decrements the distance of every neighbor
        that wanted it, and deletes satisfied entries.  If the packet was
        lost at some neighbor, that neighbor's next SNACK reinstates it.
        Only an entry that wanted ``index`` can become satisfied here (no
        satisfied entry outlives the call that satisfied it), so the scan
        stops once the column's count is used up.
        """
        counts = self._counts
        wanting = counts[index] if 0 <= index < self.n else 0
        if not wanting:
            return
        counts[index] = 0
        done: List[int] = []
        for node_id, entry in self.entries.items():
            wanted = entry.wanted
            if index in wanted:
                wanted.discard(index)
                entry.distance -= 1
                if entry.satisfied():
                    done.append(node_id)
                wanting -= 1
                if not wanting:
                    break
        for node_id in done:
            self.remove(node_id)

    def remove(self, node_id: int) -> None:
        entry = self.entries.pop(node_id, None)
        if entry is not None:
            counts = self._counts
            for i in entry.wanted:
                counts[i] -= 1

    def snapshot(self) -> Dict[str, object]:
        """Introspection view for the flight recorder (JSON-serialisable).

        Neighbor ids key the distance map; ``popularity`` is the full
        per-index demand vector so a trace can replay scheduler decisions.
        """
        return {
            "popularity": tuple(self._counts),
            "distances": {
                node_id: self.entries[node_id].distance
                for node_id in sorted(self.entries)
            },
        }


class GreedyRoundRobinScheduler:
    """LR-Seluge's packet selection policy over a :class:`TrackingTable`."""

    def __init__(self, table: TrackingTable):
        self.table = table
        self._last: Optional[int] = None

    def next_packet(self) -> Optional[int]:
        """Choose the next packet index to transmit, or None when done.

        Highest popularity wins; ties go to the lowest index for the first
        transmission and to the first candidate to the right of the last
        sent index (cyclically) afterwards.  The caller must follow up with
        ``table.mark_sent(index)`` once the packet is actually transmitted.
        """
        counts = self.table._counts
        best = max(counts, default=0)
        if best == 0:
            return None
        choice = counts.index(best)
        if self._last is not None and choice <= self._last:
            # Round robin: the first tie right of the last pick, if any,
            # else wrap round to the first tie overall.
            try:
                choice = counts.index(best, self._last + 1)
            except ValueError:
                pass
        self._last = choice
        return choice

    def drain(self, lossless: bool = True) -> List[int]:
        """Run the policy to completion, returning the transmission order.

        With ``lossless=True`` every transmission is assumed received (the
        paper's Table I walk-through); the table ends empty.
        """
        order: List[int] = []
        while True:
            choice = self.next_packet()
            if choice is None:
                break
            order.append(choice)
            if lossless:
                self.table.mark_sent(choice)
            if len(order) > self.table.n * (len(self.table.entries) + len(order) + 1):
                raise ProtocolError("scheduler failed to make progress")
        return order


class UnionScheduler:
    """Deluge/Seluge policy: transmit the union of requested indices.

    Packets go out in index order, cyclically continuing after the last
    transmitted index (Deluge's behaviour).  Lost packets are re-requested
    in later SNACKs, which re-adds them to the pending set.
    """

    def __init__(self, n_packets: int):
        self.n = n_packets
        self.pending: Set[int] = set()
        self._last: Optional[int] = None

    @property
    def empty(self) -> bool:
        return not self.pending

    def update_from_snack(self, needed: Iterable[int]) -> None:
        for idx in needed:
            if 0 <= idx < self.n:
                self.pending.add(idx)

    def mark_sent(self, index: int) -> None:
        self.pending.discard(index)

    def next_packet(self) -> Optional[int]:
        pending = self.pending
        if not pending:
            return None
        choice = min(pending)
        last = self._last
        if last is not None and choice <= last:
            # Round robin: the first pending index right of the last pick,
            # else wrap round to the smallest.  ``pending`` only holds
            # indices in ``[0, n)``, so this is the cyclic order after it.
            for i in range(last + 1, self.n):
                if i in pending:
                    choice = i
                    break
        self._last = choice
        return choice

    def snapshot(self) -> Dict[str, object]:
        """Introspection view for the flight recorder (JSON-serialisable)."""
        return {"pending": tuple(sorted(self.pending))}
