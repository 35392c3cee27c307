"""Tests for the replint static-analysis suite.

Every rule gets at least one fixture that triggers it and one that passes.
The suppression, baseline, ``--fix`` and CLI layers are exercised end to end
against temporary trees.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from replint import Baseline, analyze_source
from replint.cli import main
from replint.finding import RULES, RULES_BY_CODE, Severity
from replint.fixes import fix_source

SRC = "src/repro/protocols/example.py"  # generic library-code path


def codes(findings, *, include_suppressed=False):
    return sorted(
        f.rule for f in findings if include_suppressed or not f.suppressed
    )


def run(source: str, relpath: str = SRC, select=None):
    return analyze_source(textwrap.dedent(source), relpath, select=select)


# ---------------------------------------------------------------------------
# Rule registry sanity
# ---------------------------------------------------------------------------

def test_registry_is_complete():
    from replint.rules import RULE_CHECKS

    assert [r.code for r in RULES] == sorted(RULE_CHECKS)
    assert all(r.code in RULES_BY_CODE for r in RULES)
    assert all(r.summary and r.rationale for r in RULES)


# ---------------------------------------------------------------------------
# REP001 — global-random
# ---------------------------------------------------------------------------

def test_rep001_flags_global_random_calls():
    findings = run(
        """
        import random

        def jitter():
            return random.random() * 2
        """
    )
    assert "REP001" in codes(findings)


def test_rep001_flags_stream_construction_in_src():
    findings = run(
        """
        import random

        def make(seed):
            return random.Random(seed)
        """
    )
    assert "REP001" in codes(findings)


def test_rep001_flags_numpy_global_random():
    findings = run(
        """
        import numpy as np

        def noise():
            np.random.seed(0)
            return np.random.rand(4)
        """
    )
    assert codes(findings).count("REP001") == 2


def test_rep001_allows_rng_module_and_injected_streams():
    sanctioned = run(
        """
        import random

        def derived_stream(seed):
            return random.Random(seed)
        """,
        relpath="src/repro/sim/rng.py",
    )
    assert codes(sanctioned) == []

    injected = run(
        """
        def sample(rng):
            return rng.random()
        """
    )
    assert codes(injected) == []


def test_rep001_allows_seeded_fixture_streams_in_tests():
    findings = run(
        """
        import random
        import numpy as np

        def make_fixture():
            return random.Random(42), np.random.default_rng(7)
        """,
        relpath="tests/test_example.py",
    )
    assert codes(findings) == []
    # ...but unseeded generators and global draws stay flagged even in tests.
    bad = run(
        """
        import numpy as np

        def make_fixture():
            return np.random.default_rng()
        """,
        relpath="tests/test_example.py",
    )
    assert "REP001" in codes(bad)


# ---------------------------------------------------------------------------
# REP002 — wall-clock
# ---------------------------------------------------------------------------

def test_rep002_flags_wall_clock_reads():
    findings = run(
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), time.monotonic(), datetime.now()
        """
    )
    assert codes(findings).count("REP002") == 3


def test_rep002_allows_the_reporting_shim():
    findings = run(
        """
        import time

        def stopwatch():
            return time.perf_counter()
        """,
        relpath="src/repro/experiments/reporting.py",
    )
    assert codes(findings) == []


def test_rep002_sanctions_only_the_reporting_shim():
    # Host cost is measured outside the program (perfbench), so no module
    # besides experiments/reporting.py may read the clock, obs/ included.
    for former in ("src/repro/obs/profile.py", "src/repro/obs/perf.py"):
        findings = run(
            """
            import time

            def clock():
                return time.perf_counter()
            """,
            relpath=former,
        )
        assert codes(findings) == ["REP002"]


# ---------------------------------------------------------------------------
# REP003 — unordered-iteration
# ---------------------------------------------------------------------------

def test_rep003_flags_set_iteration():
    findings = run(
        """
        def emit(packets, send):
            pending = set(packets)
            for p in pending:
                send(p)
        """
    )
    assert "REP003" in codes(findings)


def test_rep003_flags_set_algebra_and_list_conversion():
    findings = run(
        """
        def union_order(a, b):
            merged = set(a) | set(b)
            return list(merged)
        """
    )
    assert "REP003" in codes(findings)


def test_rep003_allows_sorted_iteration():
    findings = run(
        """
        def emit(packets, send):
            pending = set(packets)
            for p in sorted(pending):
                send(p)
            return len(pending), sum(pending), max(pending)
        """
    )
    assert codes(findings) == []


def test_rep003_reassignment_clears_tracking():
    findings = run(
        """
        def rebind(items):
            xs = set(items)
            xs = sorted(xs)
            for x in xs:
                yield x
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP004 — crypto-hygiene
# ---------------------------------------------------------------------------

def test_rep004_flags_weak_hashes_anywhere():
    findings = run(
        """
        import hashlib

        def fingerprint(data):
            return hashlib.md5(data).digest(), hashlib.new("sha1", data)
        """
    )
    assert codes(findings).count("REP004") == 2


def test_rep004_flags_random_in_crypto():
    findings = run(
        """
        import random

        def make_nonce():
            return random.getrandbits(64)
        """,
        relpath="src/repro/crypto/nonce.py",
        select={"REP004"},
    )
    assert codes(findings) == ["REP004"]


def test_rep004_allows_sha256_and_noncrypto_randomness():
    findings = run(
        """
        import hashlib

        def fingerprint(data):
            return hashlib.sha256(data).digest()
        """,
        relpath="src/repro/crypto/hashing.py",
    )
    assert codes(findings) == []
    # The random module outside crypto/ is REP001's business, not REP004's.
    elsewhere = run(
        """
        import random

        def draw():
            return random.random()
        """,
        select={"REP004"},
    )
    assert codes(elsewhere) == []


# ---------------------------------------------------------------------------
# REP005 — swallowed-exceptions
# ---------------------------------------------------------------------------

def test_rep005_flags_bare_and_swallowing_excepts():
    findings = run(
        """
        def handle(pkt, process):
            try:
                process(pkt)
            except:
                pass

        def handle2(pkt, process):
            try:
                process(pkt)
            except Exception:
                pass
        """
    )
    assert codes(findings).count("REP005") == 2


def test_rep005_allows_narrow_and_handled_excepts():
    findings = run(
        """
        def handle(pkt, process, log):
            try:
                process(pkt)
            except ValueError:
                pass
            except Exception as exc:
                log(exc)
                raise
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP006 — mutable-default
# ---------------------------------------------------------------------------

def test_rep006_flags_mutable_defaults():
    findings = run(
        """
        def enqueue(item, queue=[]):
            queue.append(item)
            return queue

        def tally(key, counts={}, *, seen=set()):
            counts[key] = counts.get(key, 0) + 1
            seen.add(key)
            return counts
        """
    )
    assert codes(findings).count("REP006") == 3


def test_rep006_allows_none_and_immutable_defaults():
    findings = run(
        """
        def enqueue(item, queue=None, limits=(), name="q"):
            if queue is None:
                queue = []
            queue.append(item)
            return queue
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP007 — handler-purity
# ---------------------------------------------------------------------------

def test_rep007_flags_handlers_touching_module_state():
    findings = run(
        """
        EVENTS = []
        COUNTS = {}

        class Node:
            def start(self, sim):
                sim.schedule(1.0, self.on_timer)

            def on_timer(self):
                EVENTS.append("fired")
                COUNTS["fired"] = COUNTS.get("fired", 0) + 1
        """
    )
    assert codes(findings).count("REP007") == 2


def test_rep007_flags_global_declarations_in_handlers():
    findings = run(
        """
        TICKS = 0

        def on_tick():
            global TICKS
            TICKS += 1

        def start(sim):
            sim.schedule_at(0.0, on_tick)
        """
    )
    assert "REP007" in codes(findings)


def test_rep007_allows_instance_state_and_unscheduled_functions():
    findings = run(
        """
        EVENTS = []

        class Node:
            def __init__(self):
                self.fired = 0

            def start(self, sim):
                sim.schedule(1.0, self.on_timer)

            def on_timer(self):
                self.fired += 1

        def not_a_handler():
            EVENTS.append("ok here: never scheduled on the engine")
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP008 — assert-validation
# ---------------------------------------------------------------------------

def test_rep008_flags_asserts_in_src():
    findings = run(
        """
        def decode(blocks):
            assert blocks, "no blocks"
            return blocks[0]
        """
    )
    assert "REP008" in codes(findings)


def test_rep008_ignores_tests_and_tools():
    for relpath in ("tests/test_decode.py", "tools/replint/rules.py"):
        findings = run(
            """
            def test_decode():
                assert 1 + 1 == 2
            """,
            relpath=relpath,
        )
        assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP009 — stray-print
# ---------------------------------------------------------------------------

def test_rep009_flags_print_in_library_code():
    findings = run(
        """
        def on_packet(pkt):
            print("got", pkt)
        """
    )
    assert "REP009" in codes(findings)
    assert RULES_BY_CODE["REP009"].severity is Severity.WARNING


def test_rep009_allows_cli_shims():
    for relpath in (
        "src/repro/simulate.py",
        "src/repro/experiments/__main__.py",
        "src/repro/experiments/figures.py",
    ):
        findings = run(
            """
            def report(result):
                print(result)
            """,
            relpath=relpath,
        )
        assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP010 — env-dependence
# ---------------------------------------------------------------------------

def test_rep010_flags_environment_reads():
    findings = run(
        """
        import os
        import sys

        def load():
            root = os.environ["SIM_ROOT"]
            fallback = os.getenv("SIM_SEED", "0")
            prog = sys.argv[0]
            return root, fallback, prog
        """
    )
    assert codes(findings).count("REP010") == 3


def test_rep010_allows_config_and_cli_shims():
    for relpath in ("src/repro/core/config.py", "src/repro/simulate.py"):
        findings = run(
            """
            import os

            def load():
                return os.getenv("SIM_SEED", "0")
            """,
            relpath=relpath,
        )
        assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP011 — unknown-metric
# ---------------------------------------------------------------------------

CATALOG_SNIPPET = """
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class MetricSpec:
    name: str
    kind: str = "counter"
    unit: str = ""
    help: str = ""


METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("tx_data", "counter", "packets", "data packets"),
    MetricSpec("span_page", "event", "spans", "page assembly"),
)

DYNAMIC_METRIC_PREFIXES: Tuple[str, ...] = (
    "tx_data_unit_",
)
"""


def vocab():
    from replint.rules import load_vocabulary

    return load_vocabulary(textwrap.dedent(CATALOG_SNIPPET))


def run_with_vocab(source: str, relpath: str = SRC):
    return analyze_source(textwrap.dedent(source), relpath, vocabulary=vocab())


def test_load_vocabulary_reads_specs_and_annotated_prefixes():
    v = vocab()
    assert v.names == frozenset({"tx_data", "span_page"})
    assert v.prefixes == ("tx_data_unit_",)
    assert v.known("tx_data")
    assert v.known("tx_data_unit_7")
    assert not v.known("txdata")


def test_load_vocabulary_handles_plain_assignments():
    from replint.rules import load_vocabulary

    v = load_vocabulary(
        'DYNAMIC_METRIC_PREFIXES = ("rx_page_",)\n'
    )
    assert v.prefixes == ("rx_page_",)


def test_rep011_flags_typo_kinds():
    findings = run_with_vocab(
        """
        def on_data(self, pkt):
            self.trace.count("txdata")
            self.trace.record(self.now, "tx_datas", node=1)
        """
    )
    assert codes(findings).count("REP011") == 2


def test_rep011_checks_span_calls():
    findings = run_with_vocab(
        """
        def on_data(trace, now):
            trace.span_begin(now, "span_pgae", node=1, key=0)
            trace.span_end(now, kind="span_pgae", node=1, key=0)
        """
    )
    assert codes(findings).count("REP011") == 2


def test_rep011_allows_declared_names_and_dynamic_families():
    findings = run_with_vocab(
        """
        def on_data(self, pkt, unit):
            self.trace.count("tx_data")
            self.trace.count("tx_data_unit_3")
            self.trace.count(f"tx_data_unit_{unit}")  # non-literal: skipped
            self.trace.record(self.now, "span_page", node=1)
        """
    )
    assert codes(findings) == []


def test_rep011_skips_tests_catalog_and_foreign_receivers():
    source = """
        def helper(log, trace):
            trace.count("txdata")
            log.count("txdata")  # not a trace recorder: out of scope
    """
    assert codes(run_with_vocab(source, relpath="tests/test_mod.py")) == []
    assert codes(
        run_with_vocab(source, relpath="src/repro/obs/catalog.py")
    ) == []
    in_src = run_with_vocab(source)
    assert codes(in_src).count("REP011") == 1  # only the trace.* call


def test_rep011_is_inert_without_a_vocabulary():
    findings = run(
        """
        def on_data(trace):
            trace.count("txdata")
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP013 — non-event-trace-kind
# ---------------------------------------------------------------------------

def test_rep013_flags_counter_kinds_in_record():
    findings = run_with_vocab(
        """
        def on_data(self, pkt):
            self.trace.record(self.now, "tx_data", node=1)
        """
    )
    assert "REP013" in codes(findings)
    assert "REP011" not in codes(findings)  # known name: not REP011's problem


def test_rep013_checks_span_calls_and_allows_event_kinds():
    findings = run_with_vocab(
        """
        def on_data(trace, now):
            trace.span_begin(now, "tx_data", node=1, key=0)
            trace.span_end(now, kind="span_page", node=1, key=0)
            trace.record(now, "span_page", node=1)
        """
    )
    assert codes(findings).count("REP013") == 1  # only the span_begin


def test_rep013_leaves_unknown_and_dynamic_kinds_to_rep011():
    findings = run_with_vocab(
        """
        def on_data(self, unit):
            self.trace.record(self.now, "tx_datas", node=1)
            self.trace.record(self.now, "tx_data_unit_3", node=1)
        """
    )
    # The typo is REP011's finding; the dynamic family has no declared kind.
    assert "REP013" not in codes(findings)
    assert "REP011" in codes(findings)


def test_rep013_ignores_counter_calls_and_tests():
    source = """
        def on_data(self):
            self.trace.count("tx_data")
    """
    assert codes(run_with_vocab(source)) == []
    flagged = """
        def on_data(self):
            self.trace.record(0.0, "tx_data", node=1)
    """
    assert codes(run_with_vocab(flagged, relpath="tests/test_mod.py")) == []
    assert codes(
        run_with_vocab(flagged, relpath="src/repro/obs/catalog.py")
    ) == []


def test_rep013_is_inert_without_a_vocabulary():
    findings = run(
        """
        def on_data(trace):
            trace.record(0.0, "tx_data", node=1)
        """
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP012 — unsanctioned-artifact-write
# ---------------------------------------------------------------------------

def test_rep012_flags_open_for_write():
    findings = run(
        """
        def dump(path, data):
            with open(path, "w") as handle:
                handle.write(data)
        """
    )
    assert "REP012" in codes(findings)


def test_rep012_flags_write_modes_only():
    source = """
        def roundtrip(path):
            with open(path) as ro:
                data = ro.read()
            with open(path, mode="rb") as rb:
                rb.read()
            with open(path, "a") as log:
                log.write(data)
    """
    findings = run(source)
    assert codes(findings).count("REP012") == 1  # only the append


def test_rep012_flags_write_text():
    findings = run(
        """
        from pathlib import Path

        def export(path, text):
            Path(path).write_text(text, encoding="utf-8")
        """
    )
    assert "REP012" in codes(findings)


def test_rep012_allows_persist_tests_and_tools():
    source = """
        def dump(path, text):
            with open(path, "w") as handle:
                handle.write(text)
    """
    for sanctioned in (
        "src/repro/persist.py",
        "tests/experiments/test_checkpoint.py",
        "tools/replint/runner.py",
    ):
        assert codes(run(source, relpath=sanctioned)) == [], sanctioned
    assert codes(run(source)).count("REP012") == 1


def test_rep012_allows_fs_mutations_in_persist_tests_and_tools():
    source = """
        import os

        def atomic(path, text):
            fd = os.open(path, 0)
            os.write(fd, text.encode())
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
    """
    for sanctioned in (
        "src/repro/persist.py",
        "tests/experiments/test_checkpoint.py",
        "tools/replint/runner.py",
    ):
        assert codes(run(source, relpath=sanctioned)) == [], sanctioned
    # One finding per call: os.open, os.write and os.fdopen.
    assert codes(run(source)).count("REP012") == 3


def test_rep012_skips_dynamic_modes():
    findings = run(
        """
        def reopen(path, mode):
            return open(path, mode)
        """
    )
    assert codes(findings) == []


def test_rep012_flags_direct_fs_mutations_in_src():
    findings = run(
        """
        import os

        def save(path, data):
            fd = os.open(path, os.O_WRONLY)
            os.write(fd, data)
            os.fsync(fd)
            os.replace(path + ".tmp", path)
        """,
        select={"REP012"},
    )
    assert codes(findings).count("REP012") == 4


def test_rep012_sees_aliased_and_from_imported_spellings():
    findings = run(
        """
        import os as _os
        from os import replace, unlink as rm

        def shuffle(a, b):
            replace(a, b)
            rm(a)
            _os.rename(b, a)
        """,
        select={"REP012"},
    )
    assert codes(findings).count("REP012") == 3


def test_rep012_ignores_read_only_os_calls():
    findings = run(
        """
        import os

        def tail(fd):
            os.lseek(fd, -64, os.SEEK_END)
            return os.read(fd, 64), os.stat("x").st_size
        """,
        select={"REP012"},
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP014 — queue-order-read
# ---------------------------------------------------------------------------

def test_rep014_flags_zero_delay_handler_reading_queue_state():
    findings = run(
        """
        class Node:
            def start(self, sim):
                sim.schedule(0.0, self.on_wake)

            def on_wake(self, sim):
                if sim.pending_events:
                    self.fire()
        """
    )
    assert "REP014" in codes(findings)


def test_rep014_flags_schedule_at_now_handlers():
    findings = run(
        """
        class Node:
            def start(self, sim):
                sim.schedule_at(sim.now, self.on_wake)

            def on_wake(self, sim):
                return len(sim._queue)
        """
    )
    assert "REP014" in codes(findings)


def test_rep014_allows_delayed_handlers_and_pure_same_ts_handlers():
    # A handler with real delay may inspect the queue (it runs in its own
    # timestamp group), and a zero-delay handler is fine if it only reads
    # simulated time / node state.
    findings = run(
        """
        class Node:
            def start(self, sim):
                sim.schedule(1.0, self.on_later)
                sim.schedule(0.0, self.on_now)
                sim.schedule_at(self.deadline, self.on_deadline)

            def on_later(self, sim):
                return sim.pending_events

            def on_now(self, sim):
                return sim.now + self.backoff

            def on_deadline(self, sim):
                return sim.pending_events
        """
    )
    assert "REP014" not in codes(findings)


def test_rep014_skips_tests():
    findings = run(
        """
        def start(sim):
            sim.schedule(0.0, probe)

        def probe(sim):
            assert sim.pending_events == 0
        """,
        relpath="tests/test_engine.py",
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP015 — shared-class-state
# ---------------------------------------------------------------------------

def test_rep015_flags_mutable_class_attrs_and_method_defaults():
    findings = run(
        """
        class Node:
            peers = []
            cache: dict = {}

            def record(self, item, seen=set()):
                seen.add(item)
        """,
        select={"REP015"},
    )
    assert codes(findings).count("REP015") == 3


def test_rep015_allows_immutable_slots_and_per_instance_state():
    findings = run(
        """
        from dataclasses import dataclass, field

        class Node:
            __slots__ = ("peers",)
            LIMIT = 4
            name: str = "n"
            pending: list

            def __init__(self):
                self.peers = []

        @dataclass
        class Spec:
            items: list = field(default_factory=list)
        """,
        select={"REP015"},
    )
    assert codes(findings) == []


def test_rep015_is_scoped_to_per_node_modules():
    source = """
        class Sweeper:
            results = []
    """
    in_scope = run(source, relpath="src/repro/attacks/example.py",
                   select={"REP015"})
    assert "REP015" in codes(in_scope)
    out_of_scope = run(source, relpath="src/repro/experiments/example.py",
                       select={"REP015"})
    assert codes(out_of_scope) == []


# ---------------------------------------------------------------------------
# REP016 — hot-path-unordered
# ---------------------------------------------------------------------------

HOT = "src/repro/net/radio.py"


def test_rep016_flags_attribute_set_iteration_on_hot_path():
    findings = run(
        """
        class Radio:
            def __init__(self):
                self._detached = set()

            def survivors(self):
                return [n for n in self._detached]
        """,
        relpath=HOT,
    )
    assert "REP016" in codes(findings)


def test_rep016_flags_set_annotated_parameters():
    findings = run(
        """
        class Radio:
            def deliver(self, audible: set):
                for n in audible:
                    self.send(n)
        """,
        relpath=HOT,
    )
    assert "REP016" in codes(findings)


def test_rep016_defers_local_names_to_rep003():
    # A local set name is REP003's finding even on the hot path: one
    # defect, one code.
    findings = run(
        """
        def pump(queue, send):
            pending = set(queue)
            for p in pending:
                send(p)
        """,
        relpath=HOT,
    )
    assert codes(findings).count("REP003") == 1
    assert "REP016" not in codes(findings)


def test_rep016_allows_sorted_dicts_and_cold_modules():
    clean = run(
        """
        class Radio:
            def __init__(self):
                self._detached = set()
                self._queues = {}

            def survivors(self):
                for n in sorted(self._detached):
                    yield n
                for nid in self._queues:
                    yield nid
        """,
        relpath=HOT,
    )
    assert codes(clean) == []
    # The same attribute iteration off the hot path is out of scope.
    elsewhere = run(
        """
        class Planner:
            def __init__(self):
                self._seen = set()

            def emit(self):
                return [x for x in self._seen]
        """,
        select={"REP016"},
    )
    assert codes(elsewhere) == []


# ---------------------------------------------------------------------------
# REP017 — hot-path-allocation
# ---------------------------------------------------------------------------

ENGINE = "src/repro/sim/engine.py"


def test_rep017_flags_slotless_dataclass_on_hot_path():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass
        class Event:
            time: float
        """,
        relpath=ENGINE,
    )
    assert "REP017" in codes(findings)
    assert RULES_BY_CODE["REP017"].severity is Severity.WARNING


def test_rep017_flags_per_iteration_allocation_in_loops_and_handlers():
    findings = run(
        """
        class Engine:
            def drain(self, queue):
                while queue:
                    batch = [e for e in queue if e.ready]
                    self.fire(batch)

            def start(self, sim):
                sim.schedule(1.0, self.on_timer)

            def on_timer(self):
                return list(self.pending)
        """,
        relpath=ENGINE,
    )
    assert codes(findings).count("REP017") == 2


def test_rep017_allows_slotted_dataclasses_and_cold_allocation():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass(slots=True)
        class Event:
            time: float

        @dataclass
        class Stats:
            __slots__ = ("pushes",)
            pushes: int

        class Engine:
            def drain(self, queue, send):
                while queue:
                    send(e.size for e in queue)  # generator: no allocation churn
                    empty = list()  # no args: not a materialiser copy

            def snapshot(self):
                return [e for e in self.pending]  # not a loop, not a handler
        """,
        relpath=ENGINE,
    )
    assert codes(findings) == []


@pytest.mark.parametrize("relpath", ["src/repro/sim/trace.py",
                                     "src/repro/obs/events.py",
                                     "src/repro/obs/flight.py"])
def test_hot_path_rules_cover_the_recording_path(relpath):
    """The seam, the event log and the flight recorder run on every
    recorded outcome, so REP016/REP017 hold them to the engine's rules."""
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Record:
            ts: float

        class Log:
            def __init__(self):
                self._seen = set()

            def flush(self, spans):
                for detail in spans:
                    merged = dict(detail)
                return [n for n in self._seen]
        """,
        relpath=relpath,
    )
    assert codes(findings) == ["REP016", "REP017", "REP017"]


def test_rep017_is_scoped_to_hot_modules():
    findings = run(
        """
        from dataclasses import dataclass

        @dataclass
        class Row:
            label: str
        """,
        select={"REP017"},
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# REP018 — unsanctioned-profiling
# ---------------------------------------------------------------------------

def test_rep018_flags_tracemalloc_import_and_calls():
    findings = run(
        """
        import tracemalloc

        def measure(fn):
            tracemalloc.start()
            fn()
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak
        """
    )
    # the import plus each of the three driving calls
    assert codes(findings).count("REP018") == 4


def test_rep018_flags_aliased_tracemalloc_and_from_import():
    findings = run(
        """
        import tracemalloc as tm
        from tracemalloc import start

        def measure():
            tm.start()
        """
    )
    assert codes(findings).count("REP018") == 3


def test_rep018_flags_bare_from_imported_clock_calls():
    findings = run(
        """
        from time import perf_counter
        from time import monotonic as mono

        def stamp():
            return perf_counter() + mono()
        """,
        select={"REP018"},
    )
    assert codes(findings).count("REP018") == 2


def test_rep018_dotted_clock_stays_rep002_territory():
    findings = run(
        """
        import time

        def stamp():
            return time.perf_counter()
        """
    )
    assert "REP002" in codes(findings)
    assert "REP018" not in codes(findings)


def test_rep018_exempts_only_tests():
    # No program module may drive tracemalloc or call a bare clock, obs/
    # included; only tests are exempt.
    for former in ("src/repro/obs/profile.py", "src/repro/obs/perf.py"):
        findings = run(
            """
            import tracemalloc
            from time import perf_counter

            def clock():
                tracemalloc.start()
                return perf_counter()
            """,
            relpath=former,
            select={"REP018"},
        )
        # the import, the start() call and the bare perf_counter() call
        assert codes(findings).count("REP018") == 3

    in_tests = run(
        """
        import tracemalloc

        def test_alloc():
            assert not tracemalloc.is_tracing()
        """,
        relpath="tests/obs/test_alloc.py",
    )
    assert "REP018" not in codes(in_tests)


def test_rep018_allows_non_clock_time_imports():
    findings = run(
        """
        from time import sleep

        def pause():
            sleep(0.1)
        """,
        select={"REP018"},
    )
    assert codes(findings) == []


# ---------------------------------------------------------------------------
# Parse errors
# ---------------------------------------------------------------------------

def test_unparseable_file_is_a_finding():
    findings = analyze_source("def broken(:\n", SRC)
    assert codes(findings) == ["REP000"]


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def test_same_line_suppression():
    findings = run(
        """
        import time

        def stamp():
            return time.time()  # replint: disable=REP002
        """
    )
    assert codes(findings) == []
    assert codes(findings, include_suppressed=True) == ["REP002"]


def test_suppression_is_rule_specific():
    findings = run(
        """
        import time

        def stamp():
            return time.time()  # replint: disable=REP001
        """
    )
    assert codes(findings) == ["REP002"]


def test_bare_disable_suppresses_all_rules_on_line():
    findings = run(
        """
        import time, random

        def stamp():
            return time.time(), random.random()  # replint: disable
        """
    )
    assert codes(findings) == []


def test_directive_inside_string_is_not_a_suppression():
    findings = run(
        """
        import time

        def stamp():
            note = "# replint: disable=REP002"
            return time.time(), note
        """
    )
    assert codes(findings) == ["REP002"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def test_baseline_grandfathers_then_blocks_new(tmp_path):
    source = textwrap.dedent(
        """
        import time

        def stamp():
            return time.time()
        """
    )
    findings = analyze_source(source, SRC)
    baseline = Baseline.from_findings(findings)
    assert all(baseline.consume(f) for f in analyze_source(source, SRC))

    grown = source + "\n\ndef stamp2():\n    return time.time()\n"
    fresh = Baseline.from_findings(findings)
    leftover = [f for f in analyze_source(grown, SRC) if not fresh.consume(f)]
    assert len(leftover) == 1  # only the *new* violation escapes the baseline


def test_baseline_roundtrip(tmp_path):
    source = "import time\n\n\ndef f():\n    return time.time()\n"
    findings = analyze_source(source, SRC)
    path = tmp_path / "baseline.json"
    Baseline.from_findings(findings).dump(path)
    loaded = Baseline.load(path)
    assert len(loaded) == len(findings) == 1
    assert loaded.consume(findings[0])
    assert not loaded.consume(findings[0])  # counts are a multiset
    assert Baseline.load(tmp_path / "missing.json").consume(findings[0]) is False


def test_baseline_survives_line_shifts():
    source = "import time\n\n\ndef f():\n    return time.time()\n"
    baseline = Baseline.from_findings(analyze_source(source, SRC))
    shifted = "import time\n\nPAD = 1\n\n\ndef f():\n    return time.time()\n"
    assert all(baseline.consume(f) for f in analyze_source(shifted, SRC))


def test_baseline_reports_unconsumed_entries():
    source = "import time\n\n\ndef f():\n    return time.time()\n"
    baseline = Baseline.from_findings(analyze_source(source, SRC))
    (path, rule, _line_hash, count), = baseline.unconsumed()
    assert (path, rule, count) == (SRC, "REP002", 1)
    for finding in analyze_source(source, SRC):
        baseline.consume(finding)
    assert baseline.unconsumed() == []


def test_cli_fails_on_stale_baseline_entry(tmp_path, capsys):
    """Drift check: a baselined finding that stops firing fails the run."""
    target = _make_tree(tmp_path, """
        import time

        def stamp():
            return time.time()
        """)
    src = str(tmp_path / "src")
    assert main([src, "--root", str(tmp_path), "--write-baseline"]) == 0
    assert main([src, "--root", str(tmp_path)]) == 0
    # Fix the violation: the baseline entry goes stale and CI must notice.
    target.write_text("def stamp(clock):\n    return clock()\n")
    capsys.readouterr()
    assert main([src, "--root", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "stale baseline entry" in err and "REP002" in err
    # Refreshing the baseline clears the failure.
    assert main([src, "--root", str(tmp_path), "--write-baseline"]) == 0
    assert main([src, "--root", str(tmp_path)]) == 0


def test_stale_check_skips_select_and_uncovered_paths(tmp_path, capsys):
    _make_tree(tmp_path, """
        import time

        def stamp():
            return time.time()
        """)
    other = tmp_path / "tests"
    other.mkdir()
    (other / "test_ok.py").write_text("def test_f():\n    assert True\n")
    src = str(tmp_path / "src")
    assert main([src, "--root", str(tmp_path), "--write-baseline"]) == 0
    # A --select subset never consumes other rules' entries: not drift.
    assert main([src, "--root", str(tmp_path), "--select", "REP008"]) == 0
    # A run over paths that don't cover the entry: not drift either.
    assert main([str(other), "--root", str(tmp_path)]) == 0


# ---------------------------------------------------------------------------
# Fixes
# ---------------------------------------------------------------------------

def test_fix_rewrites_asserts_preserving_behaviour():
    source = textwrap.dedent(
        """
        def pick(value):
            assert value is not None
            assert value >= 0, f"negative: {value}"
            return value
        """
    )
    fixed, n = fix_source(source, {"REP008"})
    assert n == 2
    assert "assert" not in fixed
    assert "if value is None:" in fixed  # mypy-narrowable special case
    namespace: dict = {}
    exec(compile(fixed, "<fixed>", "exec"), namespace)
    assert namespace["pick"](3) == 3
    with pytest.raises(AssertionError):
        namespace["pick"](None)
    with pytest.raises(AssertionError, match="negative: -1"):
        namespace["pick"](-1)


def test_fix_rewrites_mutable_defaults_without_state_leak():
    source = textwrap.dedent(
        """
        def enqueue(item, queue=[]):
            '''Append and return.'''
            queue.append(item)
            return queue
        """
    )
    fixed, n = fix_source(source, {"REP006"})
    assert n == 1
    assert "queue=None" in fixed.replace(" ", "").replace("queue =", "queue=") or "None" in fixed
    namespace: dict = {}
    exec(compile(fixed, "<fixed>", "exec"), namespace)
    assert namespace["enqueue"](1) == [1]
    assert namespace["enqueue"](2) == [2]  # no shared default any more
    assert namespace["enqueue"].__doc__ == "Append and return."


def test_fix_leaves_suppressed_lines_alone():
    source = (
        "def f(x):\n"
        "    assert x  # replint: disable=REP008\n"
        "    return x\n"
    )
    fixed, n = fix_source(source, {"REP008"})
    assert n == 0
    assert fixed == source


def test_fixed_output_is_flagged_clean():
    source = "def f(x):\n    assert x\n    return x\n"
    fixed, _ = fix_source(source, {"REP008"})
    assert codes(analyze_source(fixed, SRC)) == []
    ast.parse(fixed)


FIX_FIXTURES = {
    "REP006": textwrap.dedent(
        """
        def enqueue(item, queue=[], *, seen=set()):
            queue.append(item)
            seen.add(item)
            return queue
        """
    ),
    "REP008": textwrap.dedent(
        """
        def decode(blocks):
            assert blocks, "no blocks"
            assert blocks[0] is not None
            return blocks[0]
        """
    ),
}


@pytest.mark.parametrize("rule", sorted(FIX_FIXTURES))
def test_fix_is_idempotent(rule):
    """Fixing twice must equal fixing once, for every autofix rule."""
    once, n_once = fix_source(FIX_FIXTURES[rule], {rule})
    assert n_once == 2
    twice, n_twice = fix_source(once, {rule})
    assert n_twice == 0
    assert twice == once


@pytest.mark.parametrize("rule", sorted(FIX_FIXTURES))
def test_fix_is_a_noop_on_clean_files(rule):
    clean = textwrap.dedent(
        """
        def enqueue(item, queue=None):
            if queue is None:
                raise ValueError("queue required")
            queue.append(item)
            return queue
        """
    )
    fixed, n = fix_source(clean, {rule})
    assert n == 0
    assert fixed == clean


def test_fix_rule_inventory_matches_registry():
    """Every rule advertised as fixable has a fix fixture exercising it."""
    from replint.fixes import FIXABLE_RULES

    fixable = {rule.code for rule in RULES if rule.fixable}
    assert fixable == set(FIXABLE_RULES) == set(FIX_FIXTURES)


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------

def _make_tree(tmp_path: Path, body: str) -> Path:
    target = tmp_path / "src" / "repro" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(textwrap.dedent(body), encoding="utf-8")
    return target


def test_cli_exit_codes(tmp_path, capsys):
    _make_tree(tmp_path, """
        import time

        def stamp():
            return time.time()
        """)
    # Paths are resolved relative to the process cwd, so pass them absolute.
    assert main([str(tmp_path / "src"), "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "REP002" in out

    clean = tmp_path / "clean"
    (clean / "src").mkdir(parents=True)
    (clean / "src" / "ok.py").write_text("def f(rng):\n    return rng.random()\n")
    assert main([str(clean / "src"), "--root", str(clean)]) == 0


def test_cli_select_limits_rules(tmp_path, capsys):
    _make_tree(tmp_path, """
        import time

        def stamp():
            assert time
            return time.time()
        """)
    assert main([str(tmp_path / "src"), "--root", str(tmp_path),
                 "--select", "REP008"]) == 1
    out = capsys.readouterr().out
    assert "REP008" in out and "REP002" not in out


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    _make_tree(tmp_path, """
        import time

        def stamp():
            return time.time()
        """)
    src = str(tmp_path / "src")
    assert main([src, "--root", str(tmp_path), "--write-baseline"]) == 0
    baseline_path = tmp_path / ".replint-baseline.json"
    assert baseline_path.exists()
    assert main([src, "--root", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main([src, "--root", str(tmp_path), "--no-baseline"]) == 1


def test_cli_fix_applies_in_place(tmp_path, capsys):
    target = _make_tree(tmp_path, """
        def f(x):
            assert x
            return x
        """)
    assert main([str(tmp_path / "src"), "--root", str(tmp_path), "--fix"]) == 0
    assert "assert" not in target.read_text()
    assert "fix(es) applied" in capsys.readouterr().out


def test_cli_fix_never_touches_test_asserts(tmp_path):
    target = tmp_path / "tests" / "test_mod.py"
    target.parent.mkdir(parents=True)
    body = "def test_f():\n    assert 1 + 1 == 2\n"
    target.write_text(body)
    assert main([str(target.parent), "--root", str(tmp_path), "--fix"]) == 0
    assert target.read_text() == body


def test_cli_json_format(tmp_path, capsys):
    _make_tree(tmp_path, """
        import time

        def stamp():
            return time.time()
        """)
    main([str(tmp_path / "src"), "--root", str(tmp_path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["findings"][0]["rule"] == "REP002"


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule.code in out


def test_cli_strict_promotes_warnings(tmp_path, capsys):
    _make_tree(tmp_path, """
        def on_packet(pkt):
            print("got", pkt)
        """)
    src = str(tmp_path / "src")
    assert main([src, "--root", str(tmp_path)]) == 0  # REP009 is a warning
    capsys.readouterr()
    assert main([src, "--root", str(tmp_path), "--strict"]) == 1


def test_repo_tree_is_clean():
    """The acceptance gate: replint exits 0 on the real src/ and tests/."""
    root = Path(__file__).resolve().parents[2]
    assert main([str(root / "src"), str(root / "tests"),
                 "--root", str(root)]) == 0
