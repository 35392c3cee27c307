"""The metric catalogue: unique, fully documented, resolvable names."""

from repro.obs.catalog import (
    DYNAMIC_METRIC_PREFIXES,
    METRICS,
    METRICS_BY_NAME,
    MetricSpec,
    is_known_metric,
    spec_for,
    unregistered_names,
)

VALID_KINDS = {"counter", "event"}


def test_names_are_unique():
    names = [spec.name for spec in METRICS]
    assert len(names) == len(set(names))
    assert set(METRICS_BY_NAME) == set(names)


def test_every_spec_is_fully_documented():
    for spec in METRICS:
        assert spec.kind in VALID_KINDS, spec.name
        assert spec.unit, spec.name
        assert spec.help, spec.name


def test_core_protocol_counters_are_declared():
    for name in ("tx_data", "tx_snack", "tx_adv", "rx_delivered",
                 "unit_complete", "node_complete"):
        assert is_known_metric(name)


def test_dynamic_prefixes_resolve_to_family_specs():
    for prefix in DYNAMIC_METRIC_PREFIXES:
        name = prefix + "17"
        assert is_known_metric(name)
        family = spec_for(name)
        assert family is not None
        assert family.name == prefix + "*"
    # A bare prefix with nothing appended is still part of the family.
    assert is_known_metric(DYNAMIC_METRIC_PREFIXES[0])


def test_unknown_names_are_rejected():
    assert not is_known_metric("txdata")
    assert spec_for("txdata") is None


def test_spec_for_exact_match_beats_family():
    spec = spec_for("tx_data")
    assert isinstance(spec, MetricSpec)
    assert spec.name == "tx_data"
    assert spec.unit == "packets"


def test_unregistered_names_reports_orphans_only():
    counters = {
        "tx_data": 1,           # catalogue name
        "tx_data_unit_3": 1,    # dynamic family
        "zz_mystery": 1,        # orphan
        "aa_mystery": 1,        # orphan
    }
    assert unregistered_names(counters) == ["aa_mystery", "zz_mystery"]
    assert unregistered_names({}) == []
