"""Counters and the observation seam for simulations.

The radio and the protocols report what happened through a
:class:`TraceRecorder`; experiment code reads the counters afterwards.

The recorder owns the run's counter store, :attr:`TraceRecorder.counters`,
a plain :class:`collections.Counter`, so the hot path is a single dict
update.  Counter names are declared in :mod:`repro.obs.catalog`, which
resolves each to its spec (kind, unit, help) for reports and lists the names
a run used without a declaration
(:func:`~repro.obs.catalog.unregistered_names`).

It is also the one observation seam.  Each outcome is reported once, by one
method: ``enqueue``, ``tx``, ``frame_end``, ``mac_drop``, ``auth`` (one of
:data:`AUTH_OUTCOMES`), ``decode``, ``meta`` and ``tracker``.  The method
bumps the outcome's counters inline, then calls the matching ``on_*`` hook
of every subscribed :class:`Observer` in subscription order — the
constructor subscribes ``flight`` before ``causal`` — with positional
arguments, so no event object is allocated per outcome.  A subscriber is
called only for the hooks it overrides.  Subscribers write to their own
sink, never to the counter store, so counters, RNG draws and the counted
event stream are the same whichever recorders are attached.

Deliveries and losses are counted one by one, as the radio reaches each
receiver: the radio bumps ``rx_delivered``/``rx_delivered_bytes`` or the
loss cause's :data:`LOSS_COUNTERS` entry in :attr:`TraceRecorder.counters`
itself, inline in its delivery loop.  A run that completes inside a receive
handler freezes its counters there, mid-frame, so each must land before the
handler runs.  Observers hear of both once per aired frame: every receiver
of a broadcast hears it at the same instant, so ``frame_end`` hands the
hooks the frame's whole receiver set and each lost receiver's cause.

``sink`` is the structured event log (:class:`repro.obs.events.EventLog`
shaped): :meth:`TraceRecorder.record` mirrors counted instants into it and
:meth:`~TraceRecorder.span_begin`/:meth:`~TraceRecorder.span_end` open and
close packet/page lifecycle spans there.  Span completions are counted
whether or not a sink is attached.  The sink takes ownership of each
detail dict it is handed.

The radio marks the frame it is delivering (:attr:`TraceRecorder.rx_frame`,
once per frame) and the receiver it is handing it to
(:attr:`TraceRecorder.rx_node`, once per delivery), and
:meth:`~TraceRecorder.current_frame` names that frame, so the receiver's
``on_receive`` can parent what it triggers (a SNACK arm, a decode) on it.
The mark stays until the next delivery or until ``frame_end``, so it also
covers the loss decisions for later receivers of the same frame; those must
not ask for it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

__all__ = ["TraceRecorder", "TraceSink", "Observer", "LOSS_CAUSES",
           "LOSS_COUNTERS", "AUTH_OUTCOMES"]

#: Delivery-failure cause -> the counter it bumps, in the order the radio
#: checks the causes.
LOSS_COUNTERS: Dict[str, str] = {
    "halfduplex": "rx_halfduplex_miss",
    "collision": "rx_collision",
    "channel": "rx_lost",
}
LOSS_CAUSES: Tuple[str, ...] = tuple(LOSS_COUNTERS)

#: Per-packet authentication outcomes of a received data packet: verified,
#: inserted into the RX buffer, rejected before buffering, or a repeat of a
#: packet already buffered.
AUTH_OUTCOMES: Tuple[str, ...] = ("ok", "buffered", "drop", "duplicate")


class TraceSink(Protocol):
    """Structural interface a structured-event sink must provide.

    :class:`repro.obs.events.EventLog` satisfies this; the recorder only
    depends on the shape so the strict-typed ``repro.sim`` surface does not
    import the (heavier) events module.
    """

    def instant(self, ts: float, kind: str, node: Optional[int] = None,
                detail: Optional[Dict[str, Any]] = None) -> None: ...

    def begin(self, ts: float, kind: str, node: Optional[int] = None,
              key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None: ...

    def end(self, ts: float, kind: str, node: Optional[int] = None,
            key: Any = None, detail: Optional[Dict[str, Any]] = None) -> None: ...


class Observer:
    """A subscriber to the observation seam; every hook is a no-op here.

    Subclasses override the outcomes they use.  ``frame`` arguments are
    :class:`repro.net.packet.Frame` instances and ``pkt`` a
    :class:`repro.core.packets.DataPacket`, typed ``Any`` so the strict
    ``repro.sim`` surface does not import the layers above it.
    """

    def observe_radio(self, radio: Any) -> None:
        """The radio whose outcomes follow (called once, as it is built)."""

    def on_enqueue(self, ts: float, frame: Any) -> None:
        """``frame`` joined its sender's MAC queue."""

    def on_tx(self, ts: float, frame: Any, unit: Optional[int]) -> None:
        """``frame`` went on the air; ``unit`` is its payload's unit, if any."""

    def on_frame(self, ts: float, frame: Any, start: float,
                 delivered: List[int], lost: List[Tuple[int, str]]) -> None:
        """``frame``, on the air since ``start``, ended at ``ts``: it reached
        the receivers in ``delivered`` and was lost at each ``(receiver,
        cause)`` of ``lost`` (LOSS_CAUSES)."""

    def on_mac_drop(self, ts: float, frame: Any) -> None:
        """``frame`` left the MAC queue without ever going on the air."""

    def on_auth(self, ts: float, node: int, src: int, outcome: str,
                pkt: Any) -> None:
        """A data packet from ``src`` met ``outcome`` (AUTH_OUTCOMES)."""

    def on_decode(self, ts: float, node: int, unit: int,
                  parent: Optional[int], need: int, of: int) -> None:
        """``node`` decoded ``unit`` from ``need`` of ``of`` packets; the
        frame being handled at the time (if any) is ``parent``."""

    def on_meta(self, ts: float, node: int, protocol: str, is_base: bool,
                total_units: Optional[int], secured: bool,
                profile: str) -> None:
        """Per-node run metadata, reported once at ``start()``."""

    def on_tracker(self, ts: float, node: int, unit: int, trigger: str,
                   state: Optional[Dict[str, Any]], requester: Optional[int],
                   index: Optional[int], via: Optional[int]) -> None:
        """A TX policy's state after a SNACK fold, a send or an overheard
        packet (``trigger``); ``state`` is None for an opaque policy, else
        a snapshot taken for this hook alone, which it may keep."""


class TraceRecorder:
    """Accumulates named counters and fans outcomes out to observers."""

    def __init__(
        self,
        sink: Optional[TraceSink] = None,
        flight: Optional[Observer] = None,
        causal: Optional[Observer] = None,
    ) -> None:
        self.counters: "Counter[str]" = Counter()
        self.sink = sink
        # The recorders stay reachable by name: the flight recorder is
        # finalized at the end of a run, and protocol code builds causal
        # provenance stamps only when a causal recorder is attached.
        self.flight = flight
        self.causal = causal
        #: The current-frame mark, written by the radio: the id of the
        #: frame it is delivering and the receiver it is handing it to
        #: (None outside a delivery loop).
        self.rx_frame: Any = None
        self.rx_node: Optional[int] = None
        # Per frame kind: its tx counter name, its bytes counter name and
        # its per-unit counter names by unit, built on the kind's first tx.
        self._tx_names: Dict[Any, Tuple[str, str, Dict[int, str]]] = {}
        self._observers: List[Observer] = [
            o for o in (flight, causal) if o is not None]
        self._bind()

    def subscribe(self, observer: Observer) -> None:
        """Call ``observer``'s hooks for every outcome from now on."""
        self._observers.append(observer)
        self._bind()

    def _bind(self) -> None:
        """Cache, per hook, the bound methods subscribers override."""
        def hooks(name: str) -> Tuple[Callable[..., None], ...]:
            default = getattr(Observer, name)
            return tuple(getattr(o, name) for o in self._observers
                         if getattr(type(o), name, default) is not default)

        self._on_radio = hooks("observe_radio")
        self._on_enqueue = hooks("on_enqueue")
        self._on_tx = hooks("on_tx")
        self._on_frame = hooks("on_frame")
        self._on_mac_drop = hooks("on_mac_drop")
        self._on_auth = hooks("on_auth")
        #: True when a subscriber overrides ``on_auth``; the receive path
        #: skips calling :meth:`auth` otherwise.
        self.observes_auth = bool(self._on_auth)
        self._on_decode = hooks("on_decode")
        self._on_meta = hooks("on_meta")
        self._on_tracker = hooks("on_tracker")

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counters[name] += amount

    def record(self, time: float, kind: str, node: Optional[int] = None, **detail: Any) -> None:
        """Count ``kind`` and mirror it into the sink as an instant event."""
        self.counters[kind] += 1
        if self.sink is not None:
            self.sink.instant(time, kind, node, detail or None)

    # -- outcomes ---------------------------------------------------------------

    def observe_radio(self, radio: Any) -> None:
        for hook in self._on_radio:
            hook(radio)

    def enqueue(self, ts: float, frame: Any) -> None:
        for hook in self._on_enqueue:
            hook(ts, frame)

    def tx(self, ts: float, frame: Any) -> None:
        """``frame`` went on the air: per-kind, total and per-unit counts."""
        counters = self.counters
        kind = frame.kind
        names = self._tx_names.get(kind)
        if names is None:
            name = kind.metric_name
            names = self._tx_names[kind] = (name, f"{name}_bytes", {})
        name, bytes_name, unit_names = names
        size = frame.size_bytes
        counters[name] += 1
        counters[bytes_name] += size
        counters["tx_total"] += 1
        counters["tx_total_bytes"] += size
        unit = getattr(frame.payload, "unit", None)
        if unit is not None:
            unit_name = unit_names.get(unit)
            if unit_name is None:
                unit_name = unit_names[unit] = f"{name}_unit_{unit}"
            counters[unit_name] += 1
        for hook in self._on_tx:
            hook(ts, frame, unit)

    def current_frame(self, node: int) -> Any:
        """The id of the frame ``node`` is handling right now, or None (a
        timer fire)."""
        return self.rx_frame if node == self.rx_node else None

    def frame_end(self, ts: float, frame: Any, start: float,
                  delivered: List[int], lost: List[Tuple[int, str]]) -> None:
        """``frame`` left the air and its delivery loop ended, so no frame
        is being handled; its receivers were already counted, one by one,
        as the radio reached them."""
        self.rx_node = None
        for hook in self._on_frame:
            hook(ts, frame, start, delivered, lost)

    def mac_drop(self, ts: float, frame: Any) -> None:
        """The MAC gave up on ``frame`` after too many busy-channel backoffs."""
        self.record(ts, "mac_drop", frame.sender, frame_kind=frame.kind.value)
        for hook in self._on_mac_drop:
            hook(ts, frame)

    def auth(self, ts: float, node: int, src: int, outcome: str,
             pkt: Any) -> None:
        for hook in self._on_auth:
            hook(ts, node, src, outcome, pkt)

    def decode(self, ts: float, node: int, unit: int, need: int,
               of: int) -> None:
        """``node`` completed ``unit``: counted and logged as
        ``unit_complete`` after the observers see the decode."""
        self.counters["unit_complete"] += 1
        parent = self.current_frame(node)
        for hook in self._on_decode:
            hook(ts, node, unit, parent, need, of)
        if self.sink is not None:
            self.sink.instant(ts, "unit_complete", node, {"unit": unit})

    def meta(self, ts: float, node: int, protocol: str, is_base: bool,
             total_units: Optional[int], secured: bool, profile: str) -> None:
        for hook in self._on_meta:
            hook(ts, node, protocol, is_base, total_units, secured, profile)

    def tracker(self, ts: float, node: int, unit: int, trigger: str,
                policy: Any, requester: Optional[int] = None,
                index: Optional[int] = None,
                via: Optional[int] = None) -> None:
        """A TX policy changed; each observing hook gets its own
        ``snapshot()``, so none is taken unless observed."""
        for hook in self._on_tracker:
            hook(ts, node, unit, trigger, policy.snapshot(), requester, index,
                 via)

    # -- lifecycle spans ----------------------------------------------------------

    def span_begin(self, time: float, kind: str, node: Optional[int] = None,
                   key: Any = None, **detail: Any) -> None:
        """Open a lifecycle span in the structured sink (no-op without one)."""
        if self.sink is not None:
            self.sink.begin(time, kind, node, key, detail or None)

    def span_end(self, time: float, kind: str, node: Optional[int] = None,
                 key: Any = None, **detail: Any) -> None:
        """Count one completion of ``kind``; close its span in the sink."""
        self.counters[kind] += 1
        if self.sink is not None:
            self.sink.end(time, kind, node, key, detail or None)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict copy of all counters."""
        return dict(self.counters)
