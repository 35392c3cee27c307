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
``[receiver, cause]`` it missed (:data:`LOSS_CAUSES`).  An aborted frame
(its sender crashed mid-air) reaches nobody; a frame still on the air when
the run ends is written by :meth:`FlightRecorder.finalize` with ``open:
true``.  The same outcomes feed the in-memory per-link accounting matrix,
flushed at :meth:`FlightRecorder.finalize` as one ``flight_link_stats``
event per observed ``(src, dst)`` link, plus a ``flight_topology`` event
with every node's hop distance from the base station (BFS over the observed
radio's topology).

:class:`CausalRecorder` (``--causal-trace``) emits ``causal_decode``.  Its
presence also tells the protocols to stamp each frame with its ``cause``;
the DAG's edges are the flight recorder's ``frame`` records, so a causal
trace attaches both.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

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


class _LinkStats:
    """Mutable per-``(src, dst)`` accounting row."""

    __slots__ = ("rx", "auth_drop", "duplicate", "causes")

    def __init__(self) -> None:
        self.rx = 0
        self.auth_drop = 0
        self.duplicate = 0
        self.causes: Dict[str, int] = {}

    @property
    def lost(self) -> int:
        return sum(self.causes.values())

    def to_detail(self, src: int, dst: int) -> Dict[str, Any]:
        return {
            "src": src,
            "dst": dst,
            "rx": self.rx,
            "lost": self.lost,
            "auth_drop": self.auth_drop,
            "duplicate": self.duplicate,
            "causes": dict(sorted(self.causes.items())),
        }


class FlightRecorder(Observer):
    """Collects per-link, per-packet, and tracker events into a trace sink."""

    def __init__(self, sink: "TraceSink") -> None:
        self.sink = sink
        self._links: Dict[Tuple[int, int], _LinkStats] = {}
        self._tx_frames: Dict[int, int] = {}
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

    def _link(self, src: int, dst: int) -> _LinkStats:
        stats = self._links.get((src, dst))
        if stats is None:
            stats = _LinkStats()
            self._links[(src, dst)] = stats
        return stats

    # -- radio outcomes -------------------------------------------------------

    def on_enqueue(self, ts: float, frame: "Frame") -> None:
        self._queued[frame.frame_id] = ts

    def on_mac_drop(self, ts: float, frame: "Frame") -> None:
        # Never aired: no record, and its enqueue stamp must not leak.
        self._queued.pop(frame.frame_id, None)

    def on_tx(self, ts: float, frame: "Frame", unit: Optional[int]) -> None:
        sender = frame.sender
        self._tx_frames[sender] = self._tx_frames.get(sender, 0) + 1
        fid = frame.frame_id
        self._airing[fid] = (frame, self._queued.pop(fid, ts), ts)

    def on_frame(self, ts: float, frame: "Frame", start: float,
                 delivered: List[int], lost: List[Tuple[int, str]]) -> None:
        enq = self._airing.pop(frame.frame_id)[1]
        self._write(frame, start, enq, ts, delivered, lost)
        sender = frame.sender
        for dst in delivered:
            self._link(sender, dst).rx += 1
        for dst, cause in lost:
            causes = self._link(sender, dst).causes
            causes[cause] = causes.get(cause, 0) + 1

    def _write(self, frame: "Frame", start: float, enq: float, end: float,
               delivered: List[int], lost: List[Tuple[int, str]],
               still_open: bool = False) -> None:
        detail: Dict[str, Any] = {
            "frame": frame.frame_id,
            "kind": frame.kind.value,
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
        detail["rx"] = delivered
        detail["lost"] = lost
        if still_open:
            detail["open"] = True
        self.sink.instant(start, "frame", frame.sender, detail)

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
        if outcome == "drop":
            self._link(src, node).auth_drop += 1
        elif outcome == "duplicate":
            self._link(src, node).duplicate += 1
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
        detail: Dict[str, Any] = {"unit": unit, "trigger": trigger}
        if requester is not None:
            detail["requester"] = requester
        if index is not None:
            detail["index"] = index
        if via is not None:
            detail["via"] = via
        detail.update(state)
        self.sink.instant(ts, "tracker_snapshot", node, detail)

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
            self._write(frame, start, enq, ts, [], [], still_open=True)
        self._airing.clear()
        hops = self.hop_distances()
        if hops or self._tx_frames:
            self.sink.instant(ts, "flight_topology", None, {
                "base": self._base,
                "hops": {str(n): h for n, h in sorted(hops.items())},
                "tx_frames": {
                    str(n): c for n, c in sorted(self._tx_frames.items())
                },
            })
        for (src, dst) in sorted(self._links):
            self.sink.instant(ts, "flight_link_stats", None,
                              self._links[(src, dst)].to_detail(src, dst))

    def link_matrix(self) -> Dict[Tuple[int, int], Dict[str, Any]]:
        """The in-memory accounting matrix (for tests and the analyzer)."""
        return {
            (src, dst): self._links[(src, dst)].to_detail(src, dst)
            for (src, dst) in sorted(self._links)
        }

    def tx_frame_counts(self) -> Dict[int, int]:
        """Frames each node put on the air (per-attacker damage attribution
        reads an adversary's injected-frame count from here)."""
        return dict(self._tx_frames)


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
