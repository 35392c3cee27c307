"""Shared epidemic dissemination machinery (MAINTAIN / RX / TX).

Every protocol node runs the same three activities:

* **MAINTAIN** — a Trickle timer paces advertisements of
  ``(version, units_complete)``; hearing an inconsistent advertisement
  resets Trickle, hearing a neighbor with *more* units triggers RX.
* **RX** — the node SNACK-requests the packets it still needs for its next
  unit from a neighbor that has it, retrying after ``request_timeout`` and
  giving up after ``request_max_tries`` until a fresh advertisement arrives.
  Every protocol suppresses a pending request when an equivalent request is
  overheard (LR-Seluge inherits this from Deluge, paper Section IV-E); its
  savings come from the scheduler instead.
* **TX** — a node addressed by a SNACK for a unit it possesses serves
  packets, pacing one transmission per airtime + gap, until its TX policy
  (union set for Deluge/Seluge, tracking table for LR-Seluge) drains.
  Overhearing another sender's data packet for the same unit suppresses the
  corresponding pending transmission.

A node whose TX policies are non-empty defers its own requests (the paper's
rule that transmissions for smaller page indices win).
"""

from __future__ import annotations

import abc
import dataclasses
import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.flash import NodeFlash
    from repro.protocols.control_auth import ControlAuthenticator

from repro.core.config import ProtocolTiming, WireFormat
from repro.core.packets import Advertisement, DataPacket, SignaturePacket, SnackRequest
from repro.core.preprocess import PreprocessedImage
from repro.core.verify import ReceiverPipeline
from repro.net.node import NetworkNode
from repro.net.packet import Frame, FrameKind
from repro.net.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.process import Timer
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.trickle.timer import TrickleTimer

__all__ = ["ProtocolName", "TxPolicy", "DisseminationNode"]


class ProtocolName(str, enum.Enum):
    DELUGE = "deluge"
    SELUGE = "seluge"
    LR_SELUGE = "lr-seluge"


# Module-level aliases for the receive path: reading a member off an enum
# class costs ~100 ns on CPython 3.11, a module global ~7 ns.
_DATA, _SIGNATURE, _ADV, _SNACK = (FrameKind.DATA, FrameKind.SIGNATURE,
                                   FrameKind.ADV, FrameKind.SNACK)


class TxPolicy(abc.ABC):
    """What a TX-state node still owes its neighbors for one unit."""

    @property
    @abc.abstractmethod
    def empty(self) -> bool:
        """True when every known request has been satisfied."""

    @abc.abstractmethod
    def on_snack(self, requester: int, needed: Tuple[int, ...]) -> None:
        """Fold a SNACK for this unit into the pending state."""

    @abc.abstractmethod
    def next_packet(self) -> Optional[int]:
        """Index of the next packet to transmit, or None when drained."""

    @abc.abstractmethod
    def mark_sent(self, index: int) -> None:
        """Account for a transmission of ``index`` (ours or overheard)."""

    def snapshot(self) -> Optional[Dict[str, object]]:
        """Introspection view for the flight recorder; None = opaque policy."""
        return None


class DisseminationNode(NetworkNode):
    """One protocol participant (sensor node or base station)."""

    protocol: ProtocolName = ProtocolName.DELUGE

    #: Scheduler label (``flight_meta`` ``profile`` detail): names the
    #: transport family so protocol-comparison tables group runs without
    #: re-deriving it from counters.  Overridden per protocol module.
    causal_profile: str = "arq-union"

    def __init__(
        self,
        node_id: int,
        sim: Simulator,
        radio: Radio,
        rngs: RngRegistry,
        trace: TraceRecorder,
        pipeline: ReceiverPipeline,
        timing: ProtocolTiming,
        wire: WireFormat,
        is_base: bool = False,
        preprocessed: Optional[PreprocessedImage] = None,
        on_complete: Optional[Callable[["DisseminationNode"], None]] = None,
        snack_flood_threshold: Optional[int] = None,
        control_auth: Optional["ControlAuthenticator"] = None,
        pipeline_factory: Optional[Callable[[int], ReceiverPipeline]] = None,
        flash: Optional["NodeFlash"] = None,
    ):
        super().__init__(node_id, sim, radio, rngs, trace)
        self.pipeline = pipeline
        self.flash = flash
        self.crashed = False
        self.timing = timing
        self.wire = wire
        self.is_base = is_base
        self.on_complete = on_complete
        self.snack_flood_threshold = snack_flood_threshold
        self.control_auth = control_auth
        self.pipeline_factory = pipeline_factory
        self._upgrade_server: Optional[int] = None
        self._upgrade_version: int = 0
        self._upgrade_tries: int = 0
        self._upgrade_cooldown_until: float = 0.0

        self.units_complete = 0
        self.complete = False
        self.completion_time: Optional[float] = None
        self._rx_buffer: Dict[int, DataPacket] = {}
        self._neighbor_progress: Dict[int, int] = {}
        # max(_neighbor_progress.values(), default=-1), kept by _set_progress.
        self._best_progress = -1
        self._request_tries = 0
        self._suppressions = 0
        self._data_suppressions = 0
        self._last_overheard_snack: Dict[int, float] = {}
        self._last_data_heard: Dict[int, float] = {}
        self._service: Dict[int, TxPolicy] = {}
        self._tx_timer = Timer(sim, self._tx_pump)
        self._request_timer = Timer(sim, self._request_fire)
        self._signature_packet: Optional[SignaturePacket] = None
        self._snack_counts: Dict[Tuple[int, int], int] = {}
        self._advertised_total = 0
        self._tx_deferrals = 0
        self._last_served_unit = -1

        # Causal-tracer provenance state (written only when trace.causal is
        # attached; both stay empty/None otherwise so the disabled path pays
        # nothing beyond the attribute checks in the cause-stamp helpers).
        #   _causal_req: last request-timer arm — (reason, parent frame, ts).
        #   _causal_unit_snack: last SNACK rx frame folded per served unit.
        self._causal_req: Optional[Tuple[str, Optional[int], float]] = None
        self._causal_unit_snack: Dict[int, Tuple[int, float]] = {}

        if is_base:
            if preprocessed is None:
                raise ValueError("base station needs the preprocessed image")
            self.pipeline.preload(preprocessed)
            self._signature_packet = preprocessed.signature_packet
            self.units_complete = preprocessed.total_units
            self.complete = True
            self.completion_time = 0.0

        self.trickle = TrickleTimer(
            sim,
            self._advertise,
            rngs.get(f"trickle/{node_id}"),
            i_min=timing.adv_i_min,
            i_max=timing.adv_i_max,
            redundancy_k=timing.adv_redundancy,
        )

    # -- protocol hooks --------------------------------------------------------

    @property
    def uses_signature(self) -> bool:
        """Secure protocols treat unit 0 as the signature packet."""
        return self.pipeline.secured

    @abc.abstractmethod
    def make_tx_policy(self, unit: int) -> TxPolicy:
        """Fresh TX pending-state for ``unit``."""

    # -- causal provenance (all no-ops unless trace.causal is attached) -----------

    def _note_request_cause(self, reason: str,
                            parent: Optional[int] = None) -> None:
        """Remember why the request timer was (re)armed, and by which frame.

        ``parent`` defaults to the frame currently being handled (the adv or
        data packet that triggered the arm).  Timer-context re-arms have no
        rx frame; they inherit the previous parent so the causal chain stays
        rooted across defer/suppress cycles — the *reason* updates each time
        and labels the wait category of the final arm-to-fire interval.
        """
        if self.trace.causal is None:
            return
        if parent is None:
            parent = self.trace.current_frame(self.node_id)
        if parent is None and self._causal_req is not None:
            parent = self._causal_req[1]
        self._causal_req = (reason, parent, self.sim.now)

    def _request_cause(self) -> Optional[Dict[str, Any]]:
        """Cause stamp for a SNACK: the last noted request-timer arm."""
        if self.trace.causal is None:
            return None
        reason, parent, armed = self._causal_req or (
            "unknown", None, self.sim.now)
        cause: Dict[str, Any] = {
            "trigger": "request", "reason": reason, "armed": armed}
        if parent is not None:
            cause["parent"] = parent
        return cause

    def _serve_cause(self, unit: int) -> Optional[Dict[str, Any]]:
        """Cause stamp for a served data/signature packet: the SNACK rx."""
        if self.trace.causal is None:
            return None
        cause: Dict[str, Any] = {"trigger": "serve", "unit": unit}
        snack = self._causal_unit_snack.get(unit)
        if snack is not None:
            cause["parent"], cause["armed"] = snack
        return cause

    def _adv_cause(self) -> Optional[Dict[str, Any]]:
        """Cause stamp for an advertisement: the trickle round."""
        if self.trace.causal is None:
            return None
        return {"trigger": "trickle", "uc": self.units_complete}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Begin operating; the base station also pushes the signature packet."""
        self.trace.meta(self.sim.now, self.node_id, self.protocol.value,
                        self.is_base, self.total_units, self.pipeline.secured,
                        self.causal_profile)
        self.trickle.start()
        if not self.is_base and not self.complete:
            self.trace.span_begin(self.sim.now, "span_disseminate", self.node_id)
        if self.is_base:
            if self.uses_signature and self._signature_packet is not None:
                delay = self.rng.uniform(0.0, 0.05)
                self.sim.schedule(delay, self._broadcast_signature)
            self.sim.schedule(self.rng.uniform(0.01, 0.1), self._advertise)

    @property
    def total_units(self) -> Optional[int]:
        return self.pipeline.total_units

    def image_bytes(self) -> bytes:
        """The reassembled code image (valid once complete)."""
        return self.pipeline.assembled_image()

    # -- faults: crash / reboot ----------------------------------------------------

    def crash(self) -> None:
        """Power loss: RAM state vanishes and the radio goes silent.

        Only :attr:`flash` (and the base station's program-flash image)
        survives; everything else — RX buffers, neighbor tables, pending TX
        policies, timers — is gone.  Neighbors' state about this node ages
        out through the normal ``request_timeout``/``request_max_tries``
        machinery.
        """
        if self.crashed:
            return
        self.crashed = True
        self.radio.detach(self.node_id)
        self.trickle.stop()
        self._tx_timer.cancel()
        self._request_timer.cancel()
        self._rx_buffer.clear()
        self._neighbor_progress.clear()
        self._best_progress = -1
        self._service.clear()
        self._last_data_heard.clear()
        self._last_overheard_snack.clear()
        self._snack_counts.clear()
        self._request_tries = 0
        self._suppressions = 0
        self._data_suppressions = 0
        self._tx_deferrals = 0
        self._last_served_unit = -1
        self._upgrade_server = None
        self._upgrade_tries = 0
        self._upgrade_cooldown_until = 0.0
        self._causal_req = None
        self._causal_unit_snack.clear()
        self.trace.record(self.sim.now, "fault_crash", self.node_id)

    def reboot(self) -> None:
        """Power restored: re-verify flash-persisted progress and resume.

        The base station's image lives in program flash, so it comes back
        serving everything; a sensor node replays its :class:`NodeFlash`
        through a fresh pipeline and resumes from the persisted page index.
        Trickle restarts from ``i_min`` either way.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.radio.attach(self.node_id)
        if self.is_base:
            resume_unit = self.units_complete
            if self.uses_signature and self._signature_packet is not None:
                self.sim.schedule(self.rng.uniform(0.0, 0.05), self._broadcast_signature)
        else:
            resume_unit = self._recover_from_flash()
        self.trickle.stop()
        self.trickle.start()
        self.trace.record(self.sim.now, "fault_reboot", self.node_id,
                          resume_unit=resume_unit)

    def _recover_from_flash(self) -> int:
        """Rebuild receiver state from flash; returns the resume unit index.

        Flash contents are never trusted: every persisted unit is replayed
        through a fresh :class:`ReceiverPipeline` exactly as if received off
        the air, so a stale or half-written store degrades to an earlier
        resume point instead of poisoning the node.
        """
        if self.pipeline_factory is None:
            # Bare rigs without a factory cannot rebuild a pipeline; treat
            # the existing one as NVRAM-resident and resume where it was.
            return self.units_complete
        flash = self.flash
        version = (
            flash.version
            if flash is not None and flash.version is not None
            else (self.pipeline.version or 0)
        )
        self._adopt_pipeline(self.pipeline_factory(version))
        if flash is None or flash.empty:
            return 0
        if self.pipeline.secured:
            if flash.signature is None or not self.pipeline.handle_signature(
                flash.signature
            ):
                flash.wipe()
                return 0
            self._signature_packet = flash.signature
            self.units_complete = 1
        elif flash.total_units is not None:
            self._learn_total_units(flash.total_units)
        unit = self.units_complete
        while True:
            packets = flash.unit_packets(unit)
            if packets is None:
                break
            accepted = {
                idx: pkt
                for idx, pkt in sorted(packets.items())
                if self.pipeline.authenticate(pkt)
            }
            if not accepted or not self.pipeline.complete_unit(unit, accepted):
                flash.truncate_from(unit)
                break
            unit += 1
            self.units_complete = unit
        flash.set_units_complete(self.units_complete)
        total = self.total_units
        if total is not None and self.units_complete >= total:
            # It had completed before the crash; on_complete already fired
            # then, so restoring completeness must not re-fire it.
            self.complete = True
            self.completion_time = self.sim.now
        self.trace.count("flash_units_restored", self.units_complete)
        return self.units_complete

    # -- MAINTAIN -----------------------------------------------------------------

    def _advertise(self) -> None:
        adv = Advertisement(
            version=self.pipeline.version or 0,
            units_complete=self.units_complete,
            total_units=self.total_units or self._advertised_total,
        )
        if self.control_auth is not None:
            adv = dataclasses.replace(adv, mac=self.control_auth.tag_adv(adv))
        self.broadcast(FrameKind.ADV, self.wire.adv_size(), adv,
                       cause=self._adv_cause())

    def _on_adv(self, adv: Advertisement, sender: int) -> None:
        my_version = self.pipeline.version or 0
        if adv.version > my_version:
            self._on_newer_version_advertised(adv, sender)
            return
        if adv.version < my_version:
            # The neighbor is behind a whole image version: gossip fast so
            # it hears about the new image.
            self.trickle.heard_inconsistent()
            return
        self._set_progress(sender, adv.units_complete)
        if adv.total_units:
            self._advertised_total = max(self._advertised_total, adv.total_units)
            self._learn_total_units(adv.total_units)
        if adv.units_complete == self.units_complete:
            self.trickle.heard_consistent()
        else:
            self.trickle.heard_inconsistent()
        if adv.units_complete > self.units_complete and not self.complete:
            self._request_tries = 0
            self._maybe_schedule_request()

    # -- image-version upgrades ---------------------------------------------------

    def _on_newer_version_advertised(self, adv: Advertisement, sender: int) -> None:
        """A neighbor advertises a newer code image.

        Insecure protocols trust the advertisement and reset immediately
        (their documented weakness: a forged advertisement wedges them).
        Secure protocols only ever switch on a *verified* signature packet,
        so here they merely request unit 0 of the new version.
        """
        if self.pipeline_factory is None or self.is_base:
            return
        self.trickle.heard_inconsistent()
        if not self.pipeline.secured:
            self._adopt_pipeline(self.pipeline_factory(adv.version))
            self._learn_total_units(adv.total_units)
            self._set_progress(sender, adv.units_complete)
            self._maybe_schedule_request()
            return
        if self.sim.now < self._upgrade_cooldown_until:
            return  # recently burned by an unverifiable "newer version"
        self._upgrade_server = sender
        self._upgrade_version = adv.version
        if not self._request_timer.armed:
            self._note_request_cause("upgrade")
            self._request_timer.start(self.rng.uniform(0.0, self.timing.request_delay_max))

    def _adopt_pipeline(self, pipeline: ReceiverPipeline) -> None:
        """Reset all dissemination state for a new image version."""
        # Verification-work statistics are per *node*, not per image.
        pipeline.stats.update(self.pipeline.stats)
        self.pipeline = pipeline
        self.units_complete = 0
        self.complete = False
        self.completion_time = None
        self._rx_buffer.clear()
        self._neighbor_progress.clear()
        self._best_progress = -1
        self._request_tries = 0
        self._suppressions = 0
        self._data_suppressions = 0
        self._service.clear()
        self._last_data_heard.clear()
        self._last_overheard_snack.clear()
        self._snack_counts.clear()
        self._advertised_total = 0
        self._signature_packet = None
        self._upgrade_server = None
        self._upgrade_tries = 0
        self._upgrade_cooldown_until = 0.0
        self._tx_deferrals = 0
        self._last_served_unit = -1
        self._causal_req = None
        self._causal_unit_snack.clear()
        self.trace.record(self.sim.now, "version_adopted", self.node_id,
                          version=pipeline.version)

    def publish_image(self, preprocessed: PreprocessedImage) -> None:
        """Base-station side: switch to disseminating a new image version."""
        if not self.is_base:
            raise ValueError("only the base station publishes images")
        if self.pipeline_factory is None:
            raise ValueError("publishing needs a pipeline_factory")
        pipeline = self.pipeline_factory(preprocessed.image.version)
        pipeline.preload(preprocessed)
        self._adopt_pipeline(pipeline)
        self._signature_packet = preprocessed.signature_packet
        self.units_complete = preprocessed.total_units
        self.complete = True
        self.completion_time = self.sim.now
        if self.uses_signature and self._signature_packet is not None:
            self.sim.schedule(self.rng.uniform(0.0, 0.05), self._broadcast_signature)
        self.sim.schedule(self.rng.uniform(0.05, 0.15), self._advertise)

    def _learn_total_units(self, total_units: int) -> None:
        """Insecure protocols bootstrap the page count from advertisements."""
        learn = getattr(self.pipeline, "learn_total_units", None)
        if learn is not None:
            learn(total_units)

    # -- RX -------------------------------------------------------------------------

    def _set_progress(self, sender: int, units: int) -> None:
        """Record that ``sender`` holds ``units`` units; the one writer of
        :attr:`_neighbor_progress`, so :attr:`_best_progress` stays its max."""
        progress = self._neighbor_progress
        previous = progress.get(sender)
        progress[sender] = units
        if units >= self._best_progress:
            self._best_progress = units
        elif previous == self._best_progress:
            # The (possibly shared) best was lowered: recount.
            self._best_progress = max(progress.values())

    def _servers_for(self, unit: int) -> List[int]:
        """Neighbors able to serve ``unit``, best-progressed first.

        Requesting from the most-progressed advertiser concentrates serving
        on one sender per neighborhood (as Deluge's advertisement-driven
        selection does); the caller rotates to the next candidate when
        retries make no progress, which matters over asymmetric links.
        """
        qualified = sorted(
            (
                (-progress, v)
                for v, progress in self._neighbor_progress.items()
                if progress > unit
            ),
        )
        return [v for _, v in qualified]

    def _maybe_schedule_request(self) -> None:
        if self.complete or self._request_timer.armed:
            return
        if self._request_tries >= self.timing.request_max_tries:
            return  # back to MAINTAIN; a fresh advertisement resets tries
        if self._best_progress <= self.units_complete:
            return  # no neighbour can serve it yet
        if self._serving_active():
            return  # TX pump re-schedules us once drained
        self._note_request_cause("first_request")
        self._request_timer.start(self.rng.uniform(0.0, self.timing.request_delay_max))

    def _request_fire(self) -> None:
        if self._upgrade_server is not None:
            # Ask the advertising neighbor for the new version's signature
            # packet; only its successful verification switches us over.
            # Bounded: an advertiser that never produces a verifiable
            # signature (a version liar) is abandoned and ignored a while,
            # so normal dissemination resumes.
            self._upgrade_tries += 1
            if self._upgrade_tries > 5:
                self.trace.count("upgrade_abandoned")
                self._upgrade_server = None
                self._upgrade_tries = 0
                self._upgrade_cooldown_until = self.sim.now + 10.0
                self._maybe_schedule_request()
                return
            request = SnackRequest(
                version=self._upgrade_version,
                unit=0,
                requester=self.node_id,
                server=self._upgrade_server,
                needed=(0,),
            )
            if self.control_auth is not None:
                request = dataclasses.replace(
                    request, mac=self.control_auth.tag_snack(request)
                )
            sent = self.broadcast(FrameKind.SNACK, self.wire.snack_size(1),
                                  request, dest=self._upgrade_server,
                                  cause=self._request_cause())
            self._note_request_cause("upgrade_retry", parent=sent.frame_id)
            self._request_timer.start(self._rearm_delay(self.timing.request_timeout))
            return
        if self.complete:
            return
        if self._serving_active():
            # Defer while transmissions for earlier pages are pending.
            self._note_request_cause("serve_defer")
            self._request_timer.start(self._rearm_delay(self.timing.request_timeout))
            return
        unit = self.units_complete
        if self._best_progress <= unit:
            return  # no neighbour can serve it
        if self._request_tries >= self.timing.request_max_tries:
            return
        # Deluge rule: overheard data suppresses a pending request — but
        # asymmetrically.  A burst for *our* page still in the air means keep
        # listening (retry shortly after it stops); data for an *earlier*
        # page means someone behind us is being served, so hold back long
        # enough for their catch-up request to win.  This keeps the
        # neighborhood advancing page-by-page in near lockstep.
        now = self.sim.now
        last_same = self._last_data_heard.get(unit)
        if self._data_suppressions < self.timing.data_suppression_cap:
            if last_same is not None and now - last_same < self.timing.burst_active_gap:
                self._data_suppressions += 1
                self.trace.count("request_data_suppressed")
                self._note_request_cause("data_burst")
                self._request_timer.start(self.timing.burst_active_gap * self.rng.uniform(1.0, 2.0))
                return
            last_lower: Optional[float] = None
            for u, t in self._last_data_heard.items():
                if u < unit and (last_lower is None or t > last_lower):
                    last_lower = t
            if (
                last_lower is not None
                and now - last_lower < self.timing.data_quiet_window
                and (last_same is None or last_same < last_lower)
            ):
                self._data_suppressions += 1
                self.trace.count("request_data_suppressed")
                self._note_request_cause("lower_page")
                self._request_timer.start(self.rng.uniform(0.5, 1.0) * self.timing.data_quiet_window)
                return
        self._data_suppressions = 0
        if self._suppressions < self.timing.suppression_cap:
            overheard = self._last_overheard_snack.get(unit)
            if overheard is not None and self.sim.now - overheard < self.timing.suppression_window:
                self._suppressions += 1
                self.trace.count("snack_suppressed")
                self._note_request_cause("snack_suppressed")
                self._request_timer.start(self._rearm_delay(self.timing.request_timeout))
                return
        self._suppressions = 0
        n_packets, _ = self.pipeline.geometry(unit)
        needed = tuple(j for j in range(n_packets) if j not in self._rx_buffer)
        if not needed:
            return
        # Stick with the best server while making progress; rotate through
        # the alternatives as consecutive tries fail (bad/asymmetric link).
        servers = self._servers_for(unit)
        server = servers[self._request_tries % len(servers)]
        request = SnackRequest(
            version=self.pipeline.version or 0,
            unit=unit,
            requester=self.node_id,
            server=server,
            needed=needed,
        )
        if self.control_auth is not None:
            request = dataclasses.replace(
                request, mac=self.control_auth.tag_snack(request)
            )
        self._request_tries += 1
        sent = self.broadcast(FrameKind.SNACK, self.wire.snack_size(n_packets),
                              request, dest=server,
                              cause=self._request_cause())
        # The next fire (if this SNACK goes unanswered) is a retry chained on
        # this very attempt, so the walk attributes the wait to retransmission.
        self._note_request_cause("retry", parent=sent.frame_id)
        self._request_timer.start(self.timing.request_timeout)

    def _rearm_delay(self, base: float) -> float:
        """``base`` with small multiplicative jitter from the node's stream.

        A fixed timeout synchronises a whole neighborhood: every node that
        overhears the same frame re-arms at exactly rx_time + timeout, all
        the timers fire in the same simulator tick, and *who transmits
        first* falls to the engine's same-timestamp tie-break — an order
        dependence that ``test_divergence_detection_catches_an_injected_race``
        in ``tests/sim/test_sanitize.py`` reintroduces and the tie-order test
        catches.  Real radios never tie exactly; +/-5% keeps the contention
        physical.
        """
        return base * self.rng.uniform(0.95, 1.05)

    def _on_data(self, pkt: DataPacket, sender: int) -> None:
        pipeline = self.pipeline
        if pkt.version != (pipeline.version or 0):
            self.trace.count("data_version_mismatch")
            return
        now = self.sim.now
        trace = self.trace
        observed = trace.observes_auth
        unit, index = pkt.unit, pkt.index
        # Only the unit's fixed packet set exists: reject out-of-range units
        # and indices before buffering.
        total = pipeline.total_units
        if total is not None and not 0 <= unit < total:
            n_packets = threshold = 0
        else:
            n_packets, threshold = pipeline.geometry(unit)
        acceptable_index = 0 <= index < n_packets
        authentic = False
        if not self.complete and unit == self.units_complete and acceptable_index:
            rx_buffer = self._rx_buffer
            buffered = rx_buffer.get(index)
            if buffered is not None:
                authentic = buffered == pkt
                if authentic and observed:
                    trace.auth(now, self.node_id, sender, "duplicate", pkt)
            elif pipeline.authenticate(pkt):
                authentic = True
                if observed:
                    trace.auth(now, self.node_id, sender, "ok", pkt)
                if not rx_buffer:
                    # First buffered packet of this page: open its assembly
                    # span (first packet -> verified decode).
                    trace.span_begin(now, "span_page", self.node_id,
                                     key=unit, unit=unit)
                rx_buffer[index] = pkt
                if observed:
                    trace.auth(now, self.node_id, sender, "buffered", pkt)
                self._request_tries = 0
                if self._request_timer.armed:
                    if trace.causal is not None:
                        self._note_request_cause("data_progress")
                    self._request_timer.start(self._rearm_delay(self.timing.request_timeout))
                if len(rx_buffer) >= threshold:
                    self._try_complete_unit()
            else:
                trace.count("data_rejected")
                if observed:
                    trace.auth(now, self.node_id, sender, "drop", pkt)
        elif acceptable_index:
            # Not the unit we are collecting: a cheap authenticity check
            # decides whether this packet may influence our timers at all.
            authentic = pipeline.validate_overheard(pkt)
            if not authentic and observed and pipeline.secured:
                trace.auth(now, self.node_id, sender, "drop", pkt)

        if not authentic:
            if not self.complete and not self._request_timer.armed:
                self._maybe_schedule_request()
            return

        # The sender evidently possesses pkt.unit, i.e. >= unit+1 units.
        # (An absent entry reads as 0, like an entry of 0.)
        if self._neighbor_progress.get(sender, 0) <= unit:
            self._set_progress(sender, unit + 1)
        self._last_data_heard[unit] = now

        # Sender-side suppression: someone else covered this packet.
        policy = self._service.get(unit)
        if policy is not None:
            policy.mark_sent(index)
            trace.count("data_suppressed")
            trace.tracker(now, self.node_id, unit, "overheard", policy,
                          index=index)
        if not self.complete and not self._request_timer.armed:
            self._maybe_schedule_request()

    def _try_complete_unit(self) -> None:
        """Decode the unit being collected; ``_on_data`` calls this once its
        buffer holds the unit's threshold of packets."""
        if self.pipeline.complete_unit(self.units_complete, dict(self._rx_buffer)):
            self._advance_unit()

    def _advance_unit(self) -> None:
        if self.flash is not None and not self.is_base:
            # Page-completion is the durable point: everything that just
            # verified goes to flash before the RX buffer is recycled.
            completed = self.units_complete
            version = self.pipeline.version or 0
            if completed == 0 and self.uses_signature:
                if self._signature_packet is not None:
                    self.flash.write_signature(version, self._signature_packet)
            else:
                self.flash.write_unit(version, completed, self._rx_buffer,
                                      total_units=self.total_units)
            self.flash.set_units_complete(self.units_complete + 1)
        self.units_complete += 1
        self._rx_buffer.clear()
        self._request_tries = 0
        self._request_timer.cancel()
        self.trickle.heard_inconsistent()  # state changed: gossip fast
        completed_unit = self.units_complete - 1
        n_packets, threshold = self.pipeline.geometry(completed_unit)
        # Counted and logged as ``unit_complete``.
        self.trace.decode(self.sim.now, self.node_id, completed_unit,
                          threshold, n_packets)
        self.trace.span_end(self.sim.now, "span_page", self.node_id,
                            key=completed_unit, unit=completed_unit)
        total = self.total_units
        if total is not None and self.units_complete >= total:
            self.complete = True
            self.completion_time = self.sim.now
            self.trace.record(self.sim.now, "node_complete", self.node_id,
                              total=total)
            self.trace.span_end(self.sim.now, "span_disseminate", self.node_id)
            if self.on_complete is not None:
                self.on_complete(self)
            return
        self._maybe_schedule_request()

    # -- TX -------------------------------------------------------------------------

    def _serving_active(self) -> bool:
        return any(not p.empty for p in self._service.values())

    def _on_snack(self, request: SnackRequest, sender: int) -> None:
        if request.version != (self.pipeline.version or 0):
            # Stale-version requester: our advertisements (and, for secure
            # protocols, the signature packet it will request) catch it up.
            return
        self._last_overheard_snack[request.unit] = self.sim.now
        if self._neighbor_progress.get(sender, 0) < request.unit:
            self._set_progress(sender, request.unit)
        if request.server != self.node_id:
            return
        if self.units_complete <= request.unit:
            return  # we do not possess the requested unit
        if self._snack_flood_exceeded(request.requester, request.unit):
            self.trace.count("snack_ignored_flood")
            return
        if self.trace.causal is not None:
            rx_frame = self.trace.current_frame(self.node_id)
            if rx_frame is not None:
                # The latest folded SNACK parents every packet this unit's
                # serve burst puts on the air.
                self._causal_unit_snack[request.unit] = (rx_frame, self.sim.now)
        policy = self._service.get(request.unit)
        if policy is None:
            policy = self.make_tx_policy(request.unit)
            self._service[request.unit] = policy
            # TX service span: first SNACK for the unit until the policy
            # drains in the pump.
            self.trace.span_begin(self.sim.now, "span_serve", self.node_id,
                                  key=request.unit, unit=request.unit)
        policy.on_snack(request.requester, request.needed)
        self.trace.tracker(self.sim.now, self.node_id, request.unit, "snack",
                           policy, requester=request.requester, via=sender)
        if not self._tx_timer.armed:
            self._tx_timer.start(self._rearm_delay(self.timing.tx_aggregation_delay))

    def _snack_flood_exceeded(self, requester: int, unit: int) -> bool:
        """Denial-of-receipt mitigation (Section IV-E, optional).

        Keyed on the claimed requester id, as the paper specifies.
        """
        if self.snack_flood_threshold is None:
            return False
        key = (requester, unit)
        self._snack_counts[key] = self._snack_counts.get(key, 0) + 1
        return self._snack_counts[key] > self.snack_flood_threshold

    def _tx_pump(self) -> None:
        if self.radio.queue_length(self.node_id) > 0:
            # MAC still draining; try again shortly.
            self._tx_timer.start(self._rearm_delay(self.timing.tx_gap))
            return
        pending = sorted(u for u, p in self._service.items() if not p.empty)
        if not pending:
            for u, p in self._service.items():
                if p.empty:
                    self.trace.span_end(self.sim.now, "span_serve",
                                        self.node_id, key=u, unit=u)
            self._service = {u: p for u, p in self._service.items() if not p.empty}
            if not self.complete:
                self._maybe_schedule_request()
            return
        # Deluge rule: data for a smaller page suppresses a transmission for
        # a larger one — let the earlier page finish first.  Serve the first
        # unit (lowest first, rotating upward from the last unit served so a
        # unit with perpetual demand cannot starve the rest) that is not
        # deferred; the deferral cap breaks livelock when lower-page traffic
        # never quiesces (e.g. a denial-of-receipt SNACK flood).
        horizon = self.sim.now - self.timing.data_quiet_window
        # A unit is deferred when a lower one was heard (or sent) since
        # ``horizon``: that is, when the lowest such unit is below it.
        lowest = min((u for u, t in self._last_data_heard.items() if t >= horizon),
                     default=None)

        def deferred(u: int) -> bool:
            return lowest is not None and lowest < u

        order = [u for u in pending if u > self._last_served_unit]
        order += [u for u in pending if u <= self._last_served_unit]
        cap_reached = self._tx_deferrals >= self.timing.data_suppression_cap
        unit = next((u for u in order if cap_reached or not deferred(u)), None)
        if unit is None:
            self._tx_deferrals += 1
            self.trace.count("tx_data_deferred")
            self._tx_timer.start(self.rng.uniform(0.5, 1.0) * self.timing.data_quiet_window)
            return
        if not deferred(unit):
            # Natural quiet resets the guard; under perpetual lower-page
            # traffic we keep serving once the cap tripped.
            self._tx_deferrals = 0
        policy = self._service[unit]
        index = policy.next_packet()
        if index is None:
            self._service.pop(unit, None)
            self.trace.span_end(self.sim.now, "span_serve", self.node_id,
                                key=unit, unit=unit)
            self._tx_timer.start(0.0)
            return
        frame_size = self._transmit_unit_packet(unit, index)
        policy.mark_sent(index)
        self.trace.tracker(self.sim.now, self.node_id, unit, "sent", policy,
                           index=index)
        self._last_served_unit = unit
        self._tx_timer.start(
            self._rearm_delay(self.radio.config.airtime(frame_size) + self.timing.tx_gap))

    def _transmit_unit_packet(self, unit: int, index: int) -> int:
        # Record our own transmission so the pump grants a grace period to
        # stragglers of this unit before starting to serve a higher one.
        self._last_data_heard[unit] = self.sim.now
        if self.uses_signature and unit == 0:
            return self._broadcast_signature(cause=self._serve_cause(unit))
        packets = self.pipeline.serving_packets(unit)
        pkt = packets[index]
        size = self.wire.data_packet_size(len(pkt.payload), len(pkt.auth_path))
        self.broadcast(FrameKind.DATA, size, pkt, cause=self._serve_cause(unit))
        return size

    def _broadcast_signature(self, cause: Optional[Dict[str, Any]] = None) -> int:
        if cause is None and self.trace.causal is not None:
            # Unsolicited pushes (base start / reboot / publish) root the
            # causal chain at image availability rather than at a SNACK.
            cause = {"trigger": "start"}
        size = self.wire.signature_packet_size()
        self.broadcast(FrameKind.SIGNATURE, size, self._signature_packet,
                       cause=cause)
        return size

    def _on_signature(self, packet: SignaturePacket, sender: int) -> None:
        if not self.uses_signature:
            return
        my_version = self.pipeline.version or 0
        if (
            packet.version > my_version
            and self.pipeline_factory is not None
            and not self.is_base
        ):
            # A newer image: verify with a *fresh* pipeline before adopting
            # anything — forged high-version signature packets die here.
            fresh = self.pipeline_factory(packet.version)
            if fresh.handle_signature(packet):
                self._adopt_pipeline(fresh)
                self._last_data_heard[0] = self.sim.now
                self._signature_packet = packet
                self._set_progress(sender, 1)
                self._advance_unit()
            else:
                # Keep the (cheap) verification work visible in our stats.
                self.pipeline.stats.update(fresh.stats)
            return
        self._set_progress(sender, max(self._neighbor_progress.get(sender, 0), 1))
        if self.complete or self.units_complete > 0:
            return
        if self.pipeline.handle_signature(packet):
            # Only an *authentic* signature counts as unit-0 data activity;
            # otherwise a signature flood would suppress all data serving.
            self._last_data_heard[0] = self.sim.now
            self._signature_packet = packet
            self._advance_unit()

    # -- dispatch -----------------------------------------------------------------

    def on_receive(self, frame: Frame, sender: int) -> None:
        if self.crashed:
            return  # defensive: the radio already delivers nothing to us
        kind, payload = frame.kind, frame.payload
        if kind is _DATA:
            self._on_data(payload, sender)
        elif kind is _SIGNATURE:
            self._on_signature(payload, sender)
        elif kind is _ADV:
            if self.control_auth is not None and not self.control_auth.check_adv(
                payload, payload.mac, sender
            ):
                self.trace.count("ctrl_auth_reject_adv")
                return
            self._on_adv(payload, sender)
        else:
            if self.control_auth is not None and not self.control_auth.check_snack(
                payload, payload.mac, sender
            ):
                self.trace.count("ctrl_auth_reject_snack")
                return
            self._on_snack(payload, sender)
