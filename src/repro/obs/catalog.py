"""The central metric-name catalogue.

Every counter incremented through :class:`repro.sim.trace.TraceRecorder` and
every structured-event kind has a declared :class:`MetricSpec` here: a name,
a metric kind, a unit, and one line of help text.  The catalogue is the
single vocabulary that

* the manifest/report CLI uses to attach units and help to counter tables,
* :func:`unregistered_names` checks a run's counter store against, so run
  manifests record any counter that escaped it,
* replint rule REP011 enforces at review time — a ``trace.count("txdata")``
  typo no longer silently creates an orphan counter, it fails the lint.

replint loads this vocabulary *syntactically* (it never imports analysed
code), so every ``MetricSpec`` first argument and every entry of
:data:`DYNAMIC_METRIC_PREFIXES` must be a plain string literal.

Metric kinds:

* ``counter`` — monotonically increasing count (packets, bytes, drops).
* ``event`` — a structured trace event kind (instant or span).  Kinds the
  seam records or closes as spans are also counted; the flight and causal
  recorders' kinds go to the event log only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "MetricSpec",
    "METRICS",
    "DYNAMIC_METRIC_PREFIXES",
    "METRICS_BY_NAME",
    "is_known_metric",
    "spec_for",
    "unregistered_names",
]


@dataclass(frozen=True)
class MetricSpec:
    """Declared identity of one metric: name, kind, unit, help text."""

    name: str
    kind: str = "counter"  # "counter" | "event"
    unit: str = ""
    help: str = ""


METRICS: Tuple[MetricSpec, ...] = (
    # -- transmissions (radio TX path) --------------------------------------
    MetricSpec("tx_data", "counter", "packets", "data packets transmitted"),
    MetricSpec("tx_data_bytes", "counter", "bytes", "data bytes transmitted"),
    MetricSpec("tx_snack", "counter", "packets", "SNACK requests transmitted"),
    MetricSpec("tx_snack_bytes", "counter", "bytes", "SNACK bytes transmitted"),
    MetricSpec("tx_adv", "counter", "packets", "advertisements transmitted"),
    MetricSpec("tx_adv_bytes", "counter", "bytes", "advertisement bytes transmitted"),
    MetricSpec("tx_signature", "counter", "packets", "signature packets transmitted"),
    MetricSpec("tx_signature_bytes", "counter", "bytes", "signature bytes transmitted"),
    MetricSpec("tx_total", "counter", "packets", "all frames transmitted"),
    MetricSpec("tx_total_bytes", "counter", "bytes", "all bytes transmitted"),
    MetricSpec("tx_data_deferred", "counter", "times",
               "TX pump deferrals to let an earlier page finish"),
    # -- receptions (radio RX path) -----------------------------------------
    MetricSpec("rx_delivered", "counter", "frames", "frames delivered to a receiver"),
    MetricSpec("rx_delivered_bytes", "counter", "bytes", "bytes delivered to receivers"),
    MetricSpec("rx_lost", "counter", "frames", "frames dropped by the loss model"),
    MetricSpec("rx_collision", "counter", "frames", "frames lost to collisions"),
    MetricSpec("rx_halfduplex_miss", "counter", "frames",
               "frames missed while the receiver was itself transmitting"),
    MetricSpec("mac_drop", "event", "frames",
               "frames abandoned after exhausting CSMA backoff attempts"),
    # -- protocol state machine ---------------------------------------------
    MetricSpec("unit_complete", "event", "units", "a node completed one unit/page"),
    MetricSpec("node_complete", "event", "nodes", "a node holds the whole image"),
    MetricSpec("version_adopted", "event", "times",
               "a node switched to a new image version"),
    MetricSpec("upgrade_abandoned", "counter", "times",
               "version upgrades abandoned after unverifiable advertisements"),
    MetricSpec("snack_suppressed", "counter", "requests",
               "SNACKs suppressed by an overheard equivalent request"),
    MetricSpec("request_data_suppressed", "counter", "requests",
               "requests suppressed by recently overheard data"),
    MetricSpec("data_suppressed", "counter", "packets",
               "pending transmissions suppressed by overheard data"),
    MetricSpec("data_rejected", "counter", "packets",
               "data packets failing per-packet authentication"),
    MetricSpec("data_version_mismatch", "counter", "packets",
               "data packets for a different image version"),
    MetricSpec("snack_ignored_flood", "counter", "requests",
               "SNACKs ignored by the denial-of-receipt flood guard"),
    MetricSpec("ctrl_auth_reject_adv", "counter", "packets",
               "advertisements rejected by control-plane authentication"),
    MetricSpec("ctrl_auth_reject_snack", "counter", "packets",
               "SNACKs rejected by control-plane authentication"),
    # -- attacks --------------------------------------------------------------
    MetricSpec("attack_bogus_data", "counter", "packets", "forged data packets injected"),
    MetricSpec("attack_bogus_signature", "counter", "packets",
               "forged signature packets injected"),
    MetricSpec("attack_forged_control", "counter", "packets",
               "forged control packets injected"),
    MetricSpec("attack_dor_snack", "counter", "packets",
               "denial-of-receipt SNACK floods injected"),
    MetricSpec("attack_deployed", "event", "attackers",
               "the attack engine placed an attacker into the topology"),
    MetricSpec("attack_halted", "event", "attackers",
               "an attacker stopped firing (victims done or window closed)"),
    # -- adversarial run results (RunResult counters, not trace counters) -----
    MetricSpec("adv_frames_injected", "counter", "frames",
               "frames all attackers put on the air (damage attribution)"),
    MetricSpec("adv_frames_delivered", "counter", "frames",
               "injected frames that reached a victim's radio"),
    MetricSpec("adv_auth_drops", "counter", "packets",
               "injected data packets rejected by victim authentication"),
    # -- observability itself -------------------------------------------------
    MetricSpec("obs_unregistered_metric", "counter", "names",
               "distinct counter names used without a catalogue entry"),
    # -- flight recorder (per-link accounting, --flight-record) ---------------
    MetricSpec("frame", "event", "frames",
               "flight: one aired frame with its receivers and the cause "
               "of each loss"),
    MetricSpec("link_auth_drop", "event", "packets",
               "flight: a data packet failed authentication before buffering"),
    MetricSpec("link_duplicate", "event", "packets",
               "flight: an already-buffered data packet arrived again"),
    MetricSpec("pkt_auth_ok", "event", "packets",
               "flight: per-packet authentication succeeded at a receiver"),
    MetricSpec("pkt_buffered", "event", "packets",
               "flight: a receiver inserted a data packet into its RX buffer"),
    MetricSpec("tracker_snapshot", "event", "snapshots",
               "flight: TX-policy state after a SNACK fold or a transmission"),
    MetricSpec("flight_meta", "event", "runs",
               "flight: run metadata (protocol, base station, total units, "
               "scheduler profile)"),
    MetricSpec("flight_topology", "event", "maps",
               "flight: hop distance of every node from the base station"),
    MetricSpec("flight_link_stats", "event", "links",
               "flight: end-of-run per-link accounting summary"),
    # -- causal tracer (cross-node provenance, --causal-trace) ----------------
    MetricSpec("causal_decode", "event", "units",
               "causal: a page decoded/verified, parented on the frame that "
               "completed it"),
    # -- span kinds (packet/page lifecycles) ----------------------------------
    MetricSpec("span_disseminate", "event", "spans",
               "node lifetime from start() to holding the full image"),
    MetricSpec("span_page", "event", "spans",
               "page assembly: first buffered packet to verified decode"),
    MetricSpec("span_serve", "event", "spans",
               "TX service: first SNACK for a unit to the policy draining"),
)

# Families of per-instance counter names built with f-strings at runtime
# (``tx_<kind>_unit_<n>``).  A name matching any of these prefixes is part of
# the vocabulary; replint skips non-literal kinds anyway, but
# :func:`unregistered_names` and the report tooling resolve these to their
# family spec.
DYNAMIC_METRIC_PREFIXES: Tuple[str, ...] = (
    "tx_data_unit_",
    "tx_snack_unit_",
    "tx_adv_unit_",
    "tx_signature_unit_",
    "adv_attacker_",
)

METRICS_BY_NAME: Dict[str, MetricSpec] = {spec.name: spec for spec in METRICS}

_DYNAMIC_SPECS: Dict[str, MetricSpec] = {
    prefix: MetricSpec(prefix + "*", "counter", "packets",
                       "per-unit transmission count family")
    for prefix in DYNAMIC_METRIC_PREFIXES
}


def is_known_metric(name: str) -> bool:
    """Is ``name`` part of the declared vocabulary (exact or dynamic)?"""
    if name in METRICS_BY_NAME:
        return True
    return name.startswith(DYNAMIC_METRIC_PREFIXES)


def spec_for(name: str) -> Optional[MetricSpec]:
    """Resolve ``name`` to its spec (family spec for dynamic names)."""
    spec = METRICS_BY_NAME.get(name)
    if spec is not None:
        return spec
    for prefix, family in _DYNAMIC_SPECS.items():
        if name.startswith(prefix):
            return family
    return None


def unregistered_names(counters: Iterable[str]) -> List[str]:
    """The names in ``counters`` the catalogue does not declare, sorted."""
    return sorted(name for name in counters if not is_known_metric(name))
