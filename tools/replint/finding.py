"""Core data model for replint: severities, findings, and the rule registry.

A *finding* is one violation of one rule at one source location.  Rules are
registered declaratively in :data:`RULES` so the CLI can list them, ``--select``
can subset them, and the docs stay in one place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Severity(enum.IntEnum):
    """How much a finding matters.

    ``ERROR`` findings fail the run (exit code 1) unless suppressed or
    baselined; ``WARNING`` findings are reported but only fail under
    ``--strict``.
    """

    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """Static metadata for one replint rule."""

    code: str
    name: str
    severity: Severity
    summary: str
    rationale: str
    fixable: bool = False


@dataclass
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    severity: Severity
    source_line: str = ""  # stripped text of the offending line, for baselining
    suppressed: bool = False
    baselined: bool = False
    fixed: bool = False

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        """Render as a classic ``path:line:col: CODE [sev] message`` line."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


# The rule registry.  Order here is the order of ``--list-rules`` output and of
# DESIGN.md section 8; keep the two in sync.
RULES: Tuple[Rule, ...] = (
    Rule(
        code="REP001",
        name="global-random",
        severity=Severity.ERROR,
        summary="no module-level random / numpy.random sampling outside sim/rng.py",
        rationale=(
            "Every stochastic component must draw from an injected, seeded "
            "random.Random (or a stream derived in sim/rng.py). Calls into the "
            "process-global random module share hidden state across "
            "components, so adding one draw anywhere perturbs every seeded "
            "run and breaks byte-identical replay."
        ),
    ),
    Rule(
        code="REP002",
        name="wall-clock",
        severity=Severity.ERROR,
        summary="no wall-clock reads outside the reporting stopwatch shim",
        rationale=(
            "time.time()/datetime.now()/time.monotonic() leak host time into "
            "simulation logic, which must be a pure function of (config, "
            "seed). Wall-clock reads are allowed only in "
            "experiments/reporting.py — stopwatch() for CLI progress timing "
            "and utc_now_iso() for manifest stamps. Host cost is measured "
            "from outside the program by perfbench/run.py."
        ),
    ),
    Rule(
        code="REP003",
        name="unordered-iteration",
        severity=Severity.ERROR,
        summary="set iteration feeding scheduling/packet decisions needs sorted()",
        rationale=(
            "Iteration order over sets depends on object hashes, and str/bytes "
            "hashing is salted per process (PYTHONHASHSEED). Any set iterated "
            "to schedule events, emit packets, or consume RNG draws must go "
            "through sorted(...) to keep traces byte-identical across runs."
        ),
    ),
    Rule(
        code="REP004",
        name="crypto-hygiene",
        severity=Severity.ERROR,
        summary="no md5/sha1 anywhere; no random-module keys/nonces in crypto/",
        rationale=(
            "The dissemination protocol's security argument rests on "
            "collision-resistant hashing (Merkle paths, hash chains, puzzle "
            "digests). md5/sha1 are broken for those purposes, and the random "
            "module is not a CSPRNG, so crypto/ code must derive key/nonce "
            "material from hashlib.sha256+ or an explicit keychain, never "
            "from random.*."
        ),
    ),
    Rule(
        code="REP005",
        name="swallowed-exceptions",
        severity=Severity.ERROR,
        summary="no bare except: and no except-pass in protocol handlers",
        rationale=(
            "A handler that silently eats exceptions turns a protocol bug "
            "into a wedged simulated node, which the fault injector then "
            "misreads as a crash. Catch specific exceptions and at least "
            "record them."
        ),
    ),
    Rule(
        code="REP006",
        name="mutable-default",
        severity=Severity.ERROR,
        summary="no mutable default arguments",
        rationale=(
            "A list/dict/set default is created once at def time and shared "
            "by every call, so state leaks between nodes and between "
            "simulation runs in the same process. Use None and materialise "
            "inside the function."
        ),
        fixable=True,
    ),
    Rule(
        code="REP007",
        name="handler-purity",
        severity=Severity.ERROR,
        summary="event handlers must not touch module-level mutable state",
        rationale=(
            "Callbacks scheduled on the engine run in event order; if they "
            "read or write module globals, two simulations in one process "
            "(or a re-run after a partial failure) contaminate each other. "
            "Handler state belongs on the node/protocol instance."
        ),
    ),
    Rule(
        code="REP008",
        name="assert-validation",
        severity=Severity.ERROR,
        summary="no assert for runtime validation in src/ (stripped under -O)",
        rationale=(
            "python -O removes assert statements, so any invariant that "
            "guards protocol or decoding correctness silently vanishes in "
            "optimised deployments. Raise a real exception instead."
        ),
        fixable=True,
    ),
    Rule(
        code="REP009",
        name="stray-print",
        severity=Severity.WARNING,
        summary="no print() in library code (CLI shims and experiments excepted)",
        rationale=(
            "Library layers must report through return values and the trace "
            "recorder; stray prints corrupt machine-read experiment output "
            "and make million-event runs unusably chatty."
        ),
    ),
    Rule(
        code="REP010",
        name="env-dependence",
        severity=Severity.ERROR,
        summary="no os.environ / sys.argv reads outside CLI and config shims",
        rationale=(
            "Environment lookups make a run's behaviour depend on the host "
            "shell, which defeats seeded reproduction. Only the CLI entry "
            "points and core/config.py may translate environment into "
            "explicit config objects."
        ),
    ),
    Rule(
        code="REP011",
        name="unknown-metric",
        severity=Severity.ERROR,
        summary="trace.count()/record() kinds must come from the metric catalogue",
        rationale=(
            "Counter and event names are the repo's measurement vocabulary "
            "(src/repro/obs/catalog.py): reports attach units and help text "
            "by name, and manifests are diffed across runs by name. A typo'd "
            "literal silently creates an orphan counter that no table ever "
            "shows, so every literal kind passed to trace.count/record/"
            "span_begin/span_end must be declared in the catalogue first."
        ),
    ),
    Rule(
        code="REP012",
        name="unsanctioned-artifact-write",
        severity=Severity.ERROR,
        summary="no open(...,'w')/write_text/fs-mutating os.* call in src/ "
                "outside repro/persist.py",
        rationale=(
            "Artifacts (manifests, checkpoints, figure exports, benchmark "
            "JSON) must be written through repro/persist.py's atomic "
            "write-temp-then-rename helpers, so a crash or SIGKILL mid-write "
            "can never leave a torn half-file that a resumed campaign or a "
            "manifest diff then misreads. A direct open-for-write bypasses "
            "that durability contract, and so does a raw os.write()/"
            "os.replace()/os.unlink() call. (Exception *handling* around "
            "writes is REP005's territory; this rule only covers the write "
            "path.)"
        ),
    ),
    Rule(
        code="REP013",
        name="non-event-trace-kind",
        severity=Severity.ERROR,
        summary="trace.record()/span_begin()/span_end() kinds must be "
                "declared kind=\"event\" in the catalogue",
        rationale=(
            "Structured-event call sites and plain counters share one "
            "namespace, but only kinds declared as events in src/repro/obs/"
            "catalog.py are meant to appear in the schema-versioned trace: "
            "the invariant checker and flight-trace analyzer dispatch on "
            "event kinds, and a counter-kind name smuggled through "
            "trace.record() would produce trace entries no offline tool "
            "recognises. Counters belong in trace.count(); events must be "
            "catalogued with kind=\"event\"."
        ),
    ),
    Rule(
        code="REP014",
        name="queue-order-read",
        severity=Severity.ERROR,
        summary="same-timestamp callbacks must not read engine queue state",
        rationale=(
            "An event scheduled with zero delay (or at the current sim time) "
            "runs in the same timestamp group as its scheduler, so its "
            "position among simultaneous events is decided by the engine's "
            "tie-break — which the determinism sanitizer deliberately "
            "permutes and a future batched engine will not preserve. A "
            "handler in that position that reads the engine's queue "
            "introspection (pending_events, processed_events, heap_stats, "
            "_queue, _seq) observes tie-break order directly, making its "
            "behaviour a function of scheduling internals instead of "
            "simulated time."
        ),
    ),
    Rule(
        code="REP015",
        name="shared-class-state",
        severity=Severity.ERROR,
        summary="no mutable class attributes or defaults on node/protocol/attack classes",
        rationale=(
            "A list/dict/set assigned in a class body is one object shared "
            "by every instance: every node (or attacker) in the network "
            "reads and writes the same container, which is exactly the "
            "cross-node aliased state the sanitizer's shared-state detector "
            "hunts dynamically. Whether one node's write lands before "
            "another node's read depends on event order. Initialise mutable "
            "state per-instance in __init__."
        ),
    ),
    Rule(
        code="REP016",
        name="hot-path-unordered",
        severity=Severity.ERROR,
        summary="set iteration in hot-path modules (engine/radio/channel) needs sorted()",
        rationale=(
            "sim/engine.py, net/radio.py and net/channel.py sit under every "
            "event in every run, so an unordered set iteration there "
            "perturbs every experiment at once. Unlike REP003 (which only "
            "flags sets feeding scheduling or packet decisions), any bare "
            "set iteration in these modules is an error: on the hot path "
            "there is no cold side. Dict iteration is exempt — CPython "
            "dicts iterate in insertion order, which is deterministic for a "
            "deterministic run."
        ),
    ),
    Rule(
        code="REP017",
        name="hot-path-allocation",
        severity=Severity.WARNING,
        summary="avoid slot-less dataclasses and per-event comprehension churn on hot paths",
        rationale=(
            "The engine and radio execute per event; a dataclass without "
            "__slots__ there costs a dict per instance, and a comprehension "
            "or list()/set()/dict() materialisation inside a loop allocates "
            "per iteration of the innermost loop the simulation has. These "
            "are warnings, not errors: measure first (perfbench/run.py and "
            "its bench-compare gate), "
            "but the pattern is worth a look every time it appears in "
            "sim/engine.py, net/radio.py or net/channel.py."
        ),
    ),
    Rule(
        code="REP018",
        name="unsanctioned-profiling",
        severity=Severity.ERROR,
        summary="no tracemalloc or from-imported clock calls outside tests",
        rationale=(
            "Performance is measured from outside the program, by "
            "perfbench/run.py (end-to-end time and peak_rss_mb, per-layer "
            "time through Simulator.set_profiler). tracemalloc tracing is "
            "process-global — one stray start()/stop() corrupts every "
            "allocation measurement in flight — and a from-imported "
            "perf_counter() is the same wall-clock leak REP002 bans, in a "
            "spelling its dotted-name matching cannot see. Route CLI "
            "timing through reporting.stopwatch()."
        ),
    ),
)

RULES_BY_CODE = {rule.code: rule for rule in RULES}

# Extra pseudo-rule for files replint cannot parse at all.
PARSE_ERROR_RULE = Rule(
    code="REP000",
    name="parse-error",
    severity=Severity.ERROR,
    summary="file could not be parsed as Python",
    rationale="replint needs a syntactically valid module to analyse.",
)


def make_finding(
    rule: Rule,
    path: str,
    line: int,
    col: int,
    message: str,
    source_line: str = "",
    severity: "Severity | None" = None,
) -> Finding:
    """Construct a finding, defaulting severity from the rule."""
    return Finding(
        rule=rule.code,
        path=path,
        line=line,
        col=col,
        message=message,
        severity=rule.severity if severity is None else severity,
        source_line=source_line,
    )
