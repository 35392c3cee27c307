"""Where counters are declared and held: the catalogue's spec lookup and the
TraceRecorder's counter store."""

from repro.obs.catalog import spec_for
from repro.sim.trace import TraceRecorder


def test_spec_falls_back_to_catalogue_and_families():
    assert spec_for("tx_data") is not None        # catalogue entry
    assert spec_for("tx_adv_unit_9") is not None  # dynamic family
    assert spec_for("tx_adv_unit_9").name == "tx_adv_unit_*"
    assert spec_for("nope") is None


def test_snapshots():
    rec = TraceRecorder()
    rec.count("tx_data", 3)
    snap = rec.snapshot()
    assert snap == {"tx_data": 3}
    snap["tx_data"] = 99
    assert rec.counters["tx_data"] == 3  # snapshot is a copy
    rec.count("tx_data")
    assert snap["tx_data"] == 99
    assert rec.snapshot() == {"tx_data": 4}
