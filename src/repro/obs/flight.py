"""Flight and causal recorders: subscribers to the observation seam.

Both recorders are :class:`repro.sim.trace.Observer` subclasses.  The radio
and the protocols report each outcome once, to
:class:`repro.sim.trace.TraceRecorder`, which bumps its counters and then
calls the hooks of its subscribers — the ``flight`` recorder first, then the
``causal`` one.  A run without ``--flight-record``/``--causal-trace`` has no
subscriber, so no hook is called.

Everything the recorders emit goes through ``sink.instant`` **directly** —
never through ``TraceRecorder.record`` — so enabling either cannot touch the
counter store: the same seed and flags produce byte-identical counter
snapshots, completion times, and RNG draws with and without them.

:class:`FlightRecorder` (``--flight-record``) emits ``frame``/
``link_auth_drop``/``link_duplicate``/``pkt_auth_ok``/``pkt_buffered``/
``tracker_snapshot``/``flight_meta``/``flight_topology``/
``flight_link_stats``.  These kinds are declared in :mod:`repro.obs.catalog`
like every other event kind, so the schema-versioned
:class:`~repro.obs.events.EventLog` JSONL form carries them unchanged and the
analyzer (:mod:`repro.obs.analyze`) and critical-path walk
(:mod:`repro.obs.causal`) replay them offline.

Each aired frame is one ``frame`` record, written when the frame leaves the
air and stamped with its air start (``ts``) and sender (``node``).  Its
detail holds the frame id (``frame``, the ``(sender, seq)`` pair that cause
stamps name as ``parent``), wire ``kind`` and ``size``, MAC enqueue time
(``enq``; the gap to ``ts`` is MAC/carrier-sense wait), air end (``end``),
the payload's ``unit``/``index`` and the ``dest`` when present, the
protocol's ``cause`` stamp when one was made, and the outcome at every
receiver: ``rx`` lists the receivers it reached and ``lost`` each
``[receiver, cause]`` it missed (:data:`LOSS_CAUSES`).  A frame still on the
air when the run ends is written by :meth:`FlightRecorder.finalize` with
``open: true``.  The recorder keeps a reference to each ``frame`` record's
detail it writes, by sender, and counts the ``link_auth_drop``/
``link_duplicate`` outcomes per link; the per-link accounting matrix
(:meth:`FlightRecorder.link_matrix`) is folded from those when asked for,
so a delivery costs the recorder nothing.  :meth:`FlightRecorder.finalize`
writes it as one ``flight_link_stats`` event per observed ``(src, dst)``
link, plus a ``flight_topology`` event with every node's hop distance from
the base station (BFS over the observed radio's topology).

:class:`CausalRecorder` (``--causal-trace``) emits ``causal_decode``.  Its
presence also tells the protocols to stamp each frame with its ``cause``;
the DAG's edges are the flight recorder's ``frame`` records, so a causal
trace attaches both.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.sim.trace import LOSS_CAUSES, Observer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.packets import DataPacket
    from repro.net.packet import Frame, FrameId
    from repro.net.radio import Radio
    from repro.sim.trace import TraceSink

__all__ = ["FlightRecorder", "CausalRecorder", "LOSS_CAUSES"]

#: Event kind each authentication outcome is logged under.
_AUTH_KINDS: Dict[str, str] = {
    "ok": "pkt_auth_ok",
    "buffered": "pkt_buffered",
    "drop": "link_auth_drop",
    "duplicate": "link_duplicate",
}


class FlightRecorder(Observer):
    """Collects per-link, per-packet, and tracker events into a trace sink."""

    def __init__(self, sink: "TraceSink") -> None:
        self.sink = sink
        #: The detail of every ``frame`` record written, by sender: the
        #: link matrix and the per-node frame counts are folded from these.
        self._written: Dict[int, List[Dict[str, Any]]] = {}
        #: ``(src, dst, outcome)`` -> count, for the ``drop`` and
        #: ``duplicate`` authentication outcomes.
        self._auth_counts: Dict[Tuple[int, int, str], int] = {}
        #: MAC enqueue time of each queued frame, moved to ``_airing`` when
        #: the frame goes on the air; ``_airing`` holds (frame, enq, start)
        #: until the frame's record is written.
        self._queued: Dict["FrameId", float] = {}
        self._airing: Dict["FrameId", Tuple["Frame", float, float]] = {}
        self._radio: Optional["Radio"] = None
        self._base: Optional[int] = None
        self._finalized = False

    # -- wiring ---------------------------------------------------------------

    def observe_radio(self, radio: "Radio") -> None:
        """Remember the radio whose topology :meth:`finalize` maps."""
        self._radio = radio

    # -- radio outcomes -------------------------------------------------------

    def on_enqueue(self, ts: float, frame: "Frame") -> None:
        self._queued[frame.frame_id] = ts

    def on_mac_drop(self, ts: float, frame: "Frame") -> None:
        # Never aired: no record, and its enqueue stamp must not leak.
        self._queued.pop(frame.frame_id, None)

    def on_tx(self, ts: float, frame: "Frame", unit: Optional[int]) -> None:
        fid = frame.frame_id
        self._airing[fid] = (frame, self._queued.pop(fid, ts), ts)

    def on_frame(self, ts: float, frame: "Frame", start: float,
                 delivered: List[int], lost: List[Tuple[int, str]]) -> None:
        enq = self._airing.pop(frame.frame_id)[1]
        self._write(frame, start, enq, ts, delivered, lost)

    def _write(self, frame: "Frame", start: float, enq: float, end: float,
               delivered: Sequence[int], lost: Sequence[Tuple[int, str]],
               still_open: bool = False) -> None:
        detail: Dict[str, Any] = {
            "frame": frame.frame_id,
            "kind": frame.kind._value_,
            "size": frame.size_bytes,
            "enq": enq,
            "end": end,
        }
        payload = frame.payload
        unit = getattr(payload, "unit", None)
        if unit is not None:
            detail["unit"] = unit
        index = getattr(payload, "index", None)
        if index is not None:
            detail["index"] = index
        if frame.dest is not None:
            detail["dest"] = frame.dest
        if frame.cause is not None:
            detail["cause"] = frame.cause
        # Tuples, not the radio's lists: the collector stops tracking a
        # tuple of atoms once it has seen it, and the log keeps one record
        # per aired frame for the whole run.
        detail["rx"] = tuple(delivered)
        detail["lost"] = tuple(lost)
        if still_open:
            detail["open"] = True
        sender = frame.sender
        written = self._written.get(sender)
        if written is None:
            written = self._written[sender] = []
        written.append(detail)
        self.sink.instant(start, "frame", sender, detail)

    # -- protocol outcomes ----------------------------------------------------

    def on_meta(self, ts: float, node: int, protocol: str, is_base: bool,
                total_units: Optional[int], secured: bool,
                profile: str) -> None:
        if is_base and self._base is None:
            self._base = node
        self.sink.instant(ts, "flight_meta", node, {
            "protocol": protocol,
            "base": is_base,
            "total_units": total_units,
            "secured": secured,
            "profile": profile,
        })

    def on_auth(self, ts: float, node: int, src: int, outcome: str,
                pkt: "DataPacket") -> None:
        if outcome == "drop" or outcome == "duplicate":
            key = (src, node, outcome)
            counts = self._auth_counts
            counts[key] = counts.get(key, 0) + 1
        self.sink.instant(ts, _AUTH_KINDS[outcome], node, {
            "src": src, "version": pkt.version, "unit": pkt.unit,
            "index": pkt.index,
        })

    def on_tracker(self, ts: float, node: int, unit: int, trigger: str,
                   state: Optional[Dict[str, Any]], requester: Optional[int],
                   index: Optional[int], via: Optional[int]) -> None:
        """``requester`` is the *claimed* identity folded into the policy;
        ``via`` the link-layer sender that relayed it — they differ when a
        SNACK claims an identity other than its sender's.
        """
        if state is None:
            return  # the policy offers no introspection
        # The snapshot was taken for this hook: it becomes the detail.
        state["unit"] = unit
        state["trigger"] = trigger
        if requester is not None:
            state["requester"] = requester
        if index is not None:
            state["index"] = index
        if via is not None:
            state["via"] = via
        self.sink.instant(ts, "tracker_snapshot", node, state)

    # -- end of run -----------------------------------------------------------

    def hop_distances(self) -> Dict[int, int]:
        """BFS hop count from the base station over the observed topology."""
        if self._radio is None or self._base is None:
            return {}
        neighbors = self._radio.topology.neighbors
        hops: Dict[int, int] = {self._base: 0}
        frontier = deque([self._base])
        while frontier:
            u = frontier.popleft()
            for v in sorted(neighbors.get(u, ())):
                if v not in hops:
                    hops[v] = hops[u] + 1
                    frontier.append(v)
        return hops

    def finalize(self, ts: float) -> None:
        """Flush the frames still on the air (``open: true``, no receivers
        yet), the topology map and the per-link accounting summary.

        Idempotent: a second call is a no-op so CLI paths that both run and
        persist a simulation cannot double-emit the summary.
        """
        if self._finalized:
            return
        self._finalized = True
        for frame, enq, start in self._airing.values():
            self._write(frame, start, enq, ts, (), (), still_open=True)
        self._airing.clear()
        hops = self.hop_distances()
        if hops or self._written:
            self.sink.instant(ts, "flight_topology", None, {
                "base": self._base,
                "hops": {str(n): h for n, h in sorted(hops.items())},
                "tx_frames": {
                    str(n): c
                    for n, c in sorted(self.tx_frame_counts().items())
                },
            })
        for row in self.link_matrix().values():
            self.sink.instant(ts, "flight_link_stats", None, row)

    def link_matrix(self) -> Dict[Tuple[int, int], Dict[str, Any]]:
        """The per-link accounting matrix, sorted by ``(src, dst)``: frames
        delivered and lost (by cause) folded from the ``frame`` records
        written so far, plus the authentication drops and duplicates."""
        delivered: "Counter[Tuple[int, int]]" = Counter()
        lost: "Counter[Tuple[int, Tuple[int, str]]]" = Counter()
        rx_of, lost_of = itemgetter("rx"), itemgetter("lost")
        for sender, details in self._written.items():
            delivered.update(zip(repeat(sender),
                                 chain.from_iterable(map(rx_of, details))))
            lost.update(zip(repeat(sender),
                            chain.from_iterable(map(lost_of, details))))
        rows: Dict[Tuple[int, int], Dict[str, Any]] = {}

        def row(src: int, dst: int) -> Dict[str, Any]:
            found = rows.get((src, dst))
            if found is None:
                found = rows[(src, dst)] = {
                    "src": src, "dst": dst, "rx": 0, "lost": 0,
                    "auth_drop": 0, "duplicate": 0, "causes": {}}
            return found

        for (src, dst), count in delivered.items():
            row(src, dst)["rx"] = count
        for (src, (dst, cause)), count in sorted(lost.items()):
            found = row(src, dst)
            found["lost"] += count
            found["causes"][cause] = count
        for (src, dst, outcome), count in self._auth_counts.items():
            row(src, dst)["auth_drop" if outcome == "drop" else "duplicate"] = count
        return {link: rows[link] for link in sorted(rows)}

    def tx_frame_counts(self) -> Dict[int, int]:
        """Frames each node put on the air (per-attacker damage attribution
        reads an adversary's injected-frame count from here)."""
        counts = {sender: len(details)
                  for sender, details in self._written.items()}
        for frame, _enq, _start in self._airing.values():
            counts[frame.sender] = counts.get(frame.sender, 0) + 1
        return counts


class CausalRecorder(Observer):
    """Cross-node causal provenance: attaching it makes the protocols stamp
    every frame with what triggered it (see :attr:`repro.net.packet.Frame.
    cause`), which the flight recorder's ``frame`` records carry.

    Emitted kind (catalogued in :mod:`repro.obs.catalog`, replayed offline
    by :mod:`repro.obs.causal`):

    ``causal_decode``
        A page decoded/verified at a node, parented on the frame whose
        arrival completed it (the seam's current frame at the node), with
        the decode geometry (``need`` of ``of`` packets) so coded and ARQ
        pages compare directly.
    """

    def __init__(self, sink: "TraceSink") -> None:
        self.sink = sink

    def on_decode(self, ts: float, node: int, unit: int,
                  parent: Optional["FrameId"], need: int, of: int) -> None:
        self.sink.instant(ts, "causal_decode", node, {
            "unit": unit, "frame": parent, "need": need, "of": of,
        })
