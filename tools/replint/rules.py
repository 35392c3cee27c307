"""The replint rule implementations.

Each rule is a function ``(tree, ctx) -> list[Finding]`` over one module's
AST.  Rules are intentionally syntactic: replint runs without importing the
analysed code, so detection is based on names and shapes, with sanctioned
call sites expressed as path allow-lists in :class:`FileContext`.  The
trade-off is documented per rule — where a heuristic can miss (aliased
modules, values smuggled through attributes), the matching determinism tests
from PR 1 remain the backstop; replint catches the overwhelmingly common
spellings at review time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from replint.finding import Finding, RULES_BY_CODE, make_finding

__all__ = [
    "FileContext",
    "MetricVocabulary",
    "load_vocabulary",
    "run_rules",
    "RULE_CHECKS",
]


@dataclass(frozen=True)
class MetricVocabulary:
    """The declared metric names from ``src/repro/obs/catalog.py``.

    Loaded *syntactically* (replint never imports analysed code): every
    string-literal first argument of a ``MetricSpec(...)`` call plus the
    literal entries of ``DYNAMIC_METRIC_PREFIXES``.  ``kinds`` maps each
    declared name to its metric kind (second ``MetricSpec`` argument,
    default ``"counter"``) so REP013 can tell events from plain counters.
    """

    names: frozenset
    prefixes: Tuple[str, ...]
    kinds: Mapping[str, str] = field(default_factory=dict)

    def known(self, name: str) -> bool:
        return name in self.names or name.startswith(self.prefixes)

    def declared_kind(self, name: str) -> Optional[str]:
        """The catalogued metric kind of ``name``; None when undeclared or
        declared with a non-literal kind (then REP013 stays silent)."""
        return self.kinds.get(name)


def _metric_spec_kind(node: ast.Call) -> Optional[str]:
    """The literal ``kind`` of one ``MetricSpec(...)`` call, if decidable."""
    if len(node.args) > 1:
        arg = node.args[1]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None  # computed kind: undecidable syntactically
    for kw in node.keywords:
        if kw.arg == "kind":
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                return kw.value.value
            return None
    return "counter"  # MetricSpec's declared default


def load_vocabulary(catalog_source: str) -> MetricVocabulary:
    """Extract the metric vocabulary from the catalogue module's source."""
    tree = ast.parse(catalog_source)
    names: Set[str] = set()
    prefixes: List[str] = []
    kinds: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = _dotted(node.func)
            if callee is not None and callee.split(".")[-1] == "MetricSpec":
                if node.args and isinstance(node.args[0], ast.Constant) \
                        and isinstance(node.args[0].value, str):
                    names.add(node.args[0].value)
                    kind = _metric_spec_kind(node)
                    if kind is not None:
                        kinds[node.args[0].value] = kind
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            named = [t.id for t in targets if isinstance(t, ast.Name)]
            if "DYNAMIC_METRIC_PREFIXES" in named and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                prefixes.extend(
                    el.value for el in node.value.elts
                    if isinstance(el, ast.Constant) and isinstance(el.value, str)
                )
    return MetricVocabulary(names=frozenset(names), prefixes=tuple(prefixes),
                            kinds=kinds)


@dataclass
class FileContext:
    """Everything a rule needs to know about the file under analysis."""

    path: str  # repo-relative posix path, e.g. "src/repro/sim/engine.py"
    lines: Sequence[str]  # raw source lines (1-indexed via line-1)
    # Metric vocabulary for REP011; None (e.g. in bare analyze_source unit
    # tests) disables the rule rather than flagging everything.
    vocabulary: Optional[MetricVocabulary] = None

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- path scopes ------------------------------------------------------------

    @property
    def in_tests(self) -> bool:
        return self.path.startswith("tests/") or "/tests/" in self.path

    @property
    def in_src(self) -> bool:
        return self.path.startswith("src/") or "/src/" in self.path

    @property
    def in_crypto(self) -> bool:
        return "/crypto/" in self.path

    @property
    def is_cli_shim(self) -> bool:
        """CLI entry points where console output and argv access are the job."""
        return (
            self.path.endswith("__main__.py")
            or self.path.endswith("simulate.py")
            or "/experiments/" in self.path
        )

    @property
    def rng_sanctioned(self) -> bool:
        """The one module allowed to construct streams from the random module."""
        return self.path.endswith("sim/rng.py")

    @property
    def clock_sanctioned(self) -> bool:
        """The one module allowed to read the wall clock: the CLI stopwatch
        and timestamp shim (measurement *about* the simulation, never an
        input to it)."""
        return self.path.endswith("experiments/reporting.py")


def _finding(code: str, ctx: FileContext, node: ast.AST, message: str) -> Finding:
    lineno = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    return make_finding(
        RULES_BY_CODE[code], ctx.path, lineno, col, message,
        source_line=ctx.source_line(lineno),
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# REP001 — global-random
# ---------------------------------------------------------------------------

# Module-level sampling entry points of the stdlib random module.  Calling any
# of these consumes (or reseeds) the hidden global Mersenne Twister.
_RANDOM_SAMPLERS = {
    "random", "uniform", "randint", "randrange", "choice", "choices",
    "sample", "shuffle", "seed", "getrandbits", "gauss", "normalvariate",
    "lognormvariate", "expovariate", "betavariate", "gammavariate",
    "triangular", "vonmisesvariate", "paretovariate", "weibullvariate",
    "randbytes", "binomialvariate",
}

_NUMPY_ALIASES = {"numpy", "np"}


def check_rep001(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Global random / numpy.random use outside the sanctioned stream factory."""
    if ctx.rng_sanctioned:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.partition(".")
        if head == "random" and tail in _RANDOM_SAMPLERS:
            findings.append(_finding(
                "REP001", ctx, node,
                f"call to global random.{tail}() — draw from an injected "
                "random.Random (see sim/rng.py derived_stream/RngRegistry)",
            ))
        elif dotted == "random.Random" and not ctx.in_tests:
            # Tests may construct seeded streams at the fixture boundary —
            # that *is* the injection point.  Library code must go through
            # sim/rng.py so stream derivation stays in one audited place.
            findings.append(_finding(
                "REP001", ctx, node,
                "random.Random constructed outside sim/rng.py — accept an "
                "injected stream or use sim.rng.derived_stream(...)",
            ))
        elif head in _NUMPY_ALIASES and tail.startswith("random."):
            # Tests may construct *seeded* generators at the fixture
            # boundary, mirroring the random.Random allowance above.
            seeded_test_ctor = (
                ctx.in_tests
                and tail == "random.default_rng"
                and bool(node.args or node.keywords)
            )
            if not seeded_test_ctor:
                findings.append(_finding(
                    "REP001", ctx, node,
                    f"call to {dotted}() — use RngRegistry.get_numpy(...) "
                    "from sim/rng.py for seeded numpy streams",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP002 — wall-clock
# ---------------------------------------------------------------------------

_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today", "date.today",
}


def check_rep002(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Wall-clock reads outside the reporting stopwatch."""
    if ctx.clock_sanctioned:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted in _CLOCK_CALLS:
            findings.append(_finding(
                "REP002", ctx, node,
                f"wall-clock read {dotted}() — simulation logic must be a "
                "pure function of (config, seed); for CLI timing use "
                "repro.experiments.reporting.stopwatch()",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP003 — unordered-iteration
# ---------------------------------------------------------------------------

_SET_RETURNING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}


class _SetTracker(ast.NodeVisitor):
    """Track local names bound to syntactic set expressions, per function."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._set_names: List[Set[str]] = [set()]  # stack of scopes

    # -- scope handling --

    def _enter_scope(self) -> None:
        self._set_names.append(set())

    def _exit_scope(self) -> None:
        self._set_names.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        self.generic_visit(node)
        self._exit_scope()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _name_is_set(self, name: str) -> bool:
        return any(name in scope for scope in self._set_names)

    def _is_set_expr(self, node: ast.AST) -> bool:
        """Syntactic evidence that ``node`` evaluates to a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return self._name_is_set(node.id)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._set_names[-1].add(target.id)
                else:
                    self._set_names[-1].discard(target.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``s |= other`` keeps (or makes) s a set-ish name.
        if (
            isinstance(node.target, ast.Name)
            and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor))
            and self._is_set_expr(node.value)
        ):
            self._set_names[-1].add(node.target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        ann = _dotted(node.annotation) if not isinstance(
            node.annotation, ast.Subscript
        ) else _dotted(node.annotation.value)
        if isinstance(node.target, ast.Name) and ann in ("set", "Set", "typing.Set", "frozenset", "FrozenSet"):
            self._set_names[-1].add(node.target.id)
        self.generic_visit(node)

    # -- consumption sites --

    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(_finding(
            "REP003", self.ctx, node,
            f"{what} iterates a set in hash order — wrap the iterable in "
            "sorted(...) so event/packet order is independent of "
            "PYTHONHASHSEED",
        ))

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def visit_comprehension_iter(self, comp: ast.comprehension) -> None:
        if self._is_set_expr(comp.iter):
            self._flag(comp.iter, "comprehension")

    def _visit_comp(self, node: ast.AST) -> None:
        for comp in getattr(node, "generators", []):
            self.visit_comprehension_iter(comp)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # Building one set from another is order-free; only flag if the
        # element expression itself is order-sensitive (out of scope here).
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted in ("list", "tuple", "enumerate", "iter", "next") and node.args:
            if self._is_set_expr(node.args[0]):
                self._flag(node.args[0], f"{dotted}() over a set")
        # sorted()/len()/sum()/min()/max()/any()/all() over sets are fine:
        # either order-insensitive or explicitly ordering.
        self.generic_visit(node)


def check_rep003(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Unordered set iteration at event/packet decision points.

    Syntactic heuristic: only expressions that are *visibly* sets in the
    local scope are flagged (set literals/calls/comprehensions, set algebra,
    names assigned from those).  Sets that arrive through attributes or
    parameters are out of reach — the determinism trace tests cover those.
    """
    if ctx.in_tests:
        return []
    tracker = _SetTracker(ctx)
    tracker.visit(tree)
    return tracker.findings


# ---------------------------------------------------------------------------
# REP004 — crypto-hygiene
# ---------------------------------------------------------------------------

_WEAK_HASHES = {"md5", "sha1"}


def check_rep004(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Weak hash primitives anywhere; random-module material in crypto/."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head, _, tail = dotted.partition(".")
        if head == "hashlib" and tail in _WEAK_HASHES:
            findings.append(_finding(
                "REP004", ctx, node,
                f"hashlib.{tail} is collision-broken — the protocol's Merkle/"
                "hash-chain security argument needs sha256 or stronger",
            ))
        elif dotted == "hashlib.new" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and str(arg.value).lower() in _WEAK_HASHES:
                findings.append(_finding(
                    "REP004", ctx, node,
                    f"hashlib.new({arg.value!r}) selects a collision-broken "
                    "hash — use sha256 or stronger",
                ))
        elif ctx.in_crypto and head == "random":
            findings.append(_finding(
                "REP004", ctx, node,
                "random module used in crypto/ — the Mersenne Twister is "
                "predictable from output; derive keys/nonces from the "
                "keychain or hashlib, or use the secrets module",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP005 — swallowed-exceptions
# ---------------------------------------------------------------------------

def _body_is_noop(body: Sequence[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        if isinstance(stmt, ast.Continue):
            continue
        return False
    return True


def check_rep005(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Bare excepts, and broad excepts whose body does nothing."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            findings.append(_finding(
                "REP005", ctx, node,
                "bare except: catches SystemExit/KeyboardInterrupt too — "
                "name the exception types this handler can actually recover",
            ))
            continue
        broad = _dotted(node.type) in ("Exception", "BaseException")
        if broad and _body_is_noop(node.body):
            findings.append(_finding(
                "REP005", ctx, node,
                "except Exception with an empty body silently swallows "
                "protocol errors — narrow the type or record the failure",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP006 — mutable-default
# ---------------------------------------------------------------------------

def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        return dotted in ("list", "dict", "set", "bytearray",
                          "collections.defaultdict", "defaultdict",
                          "collections.deque", "deque",
                          "collections.OrderedDict", "OrderedDict",
                          "collections.Counter", "Counter")
    return False


def check_rep006(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Mutable default arguments (shared across calls, leaks state)."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        pos_defaults = arguments.defaults
        offset = len(positional) - len(pos_defaults)
        pairs: List[Tuple[ast.arg, ast.AST]] = [
            (positional[offset + i], default)
            for i, default in enumerate(pos_defaults)
        ]
        pairs += [
            (arg, default)
            for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)
            if default is not None
        ]
        for arg, default in pairs:
            if _is_mutable_default(default):
                findings.append(_finding(
                    "REP006", ctx, default,
                    f"mutable default for parameter '{arg.arg}' is shared "
                    "across calls — default to None and materialise in the "
                    "body (fixable with --fix)",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP007 — handler-purity
# ---------------------------------------------------------------------------

_SCHEDULE_METHODS = {"schedule", "schedule_at", "call_later", "call_at"}

_MUTATING_METHODS = {
    "append", "extend", "insert", "add", "update", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "appendleft", "popleft",
}


def _callback_names(call: ast.Call) -> List[str]:
    """Names/attribute-tails of the callback argument of a schedule call."""
    names: List[str] = []
    if len(call.args) >= 2:
        cb = call.args[1]
        if isinstance(cb, ast.Name):
            names.append(cb.id)
        elif isinstance(cb, ast.Attribute):
            names.append(cb.attr)
    return names


def check_rep007(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Functions scheduled on the engine must not touch module globals.

    Detection: any function whose name appears as the callback argument of a
    ``.schedule(...)``/``.schedule_at(...)`` call in the same module is a
    *handler*.  Inside handlers, flag: ``global`` declarations that are
    written, stores to module-level names, and mutating method calls or
    subscript stores on module-level names.
    """
    if ctx.in_tests:
        return []
    module_names: Set[str] = set()
    for stmt in getattr(tree, "body", []):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module_names.add(stmt.target.id)

    # Collect handler names from schedule call sites.
    handler_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _SCHEDULE_METHODS:
                handler_names.update(_callback_names(node))
    if not handler_names:
        return []

    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in handler_names:
            continue
        declared_global: Set[str] = set()
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                declared_global.update(inner.names)
                findings.append(_finding(
                    "REP007", ctx, inner,
                    f"handler '{node.name}' declares global "
                    f"{', '.join(inner.names)} — event handlers must keep "
                    "state on the node/protocol instance",
                ))
            elif isinstance(inner, (ast.Assign, ast.AugAssign)):
                targets = (
                    inner.targets if isinstance(inner, ast.Assign)
                    else [inner.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if (
                        isinstance(base, ast.Name)
                        and base.id in module_names
                        and not isinstance(target, ast.Name)
                    ):
                        findings.append(_finding(
                            "REP007", ctx, inner,
                            f"handler '{node.name}' mutates module-level "
                            f"'{base.id}' — handler state belongs on the "
                            "instance",
                        ))
            elif isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute):
                if inner.func.attr in _MUTATING_METHODS and isinstance(
                    inner.func.value, ast.Name
                ) and inner.func.value.id in module_names:
                    findings.append(_finding(
                        "REP007", ctx, inner,
                        f"handler '{node.name}' calls "
                        f"{inner.func.value.id}.{inner.func.attr}() on "
                        "module-level state — handler state belongs on the "
                        "instance",
                    ))
    return findings


# ---------------------------------------------------------------------------
# REP008 — assert-validation
# ---------------------------------------------------------------------------

def check_rep008(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """assert used for runtime validation in shipped src/ code."""
    if not ctx.in_src:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            findings.append(_finding(
                "REP008", ctx, node,
                "assert is stripped under python -O — raise an explicit "
                "exception for runtime validation (fixable with --fix)",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP009 — stray-print
# ---------------------------------------------------------------------------

def check_rep009(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """print() in library code (outside CLI shims, experiments, tests)."""
    if ctx.in_tests or ctx.is_cli_shim or not ctx.in_src:
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            findings.append(_finding(
                "REP009", ctx, node,
                "print() in library code — report via return values or the "
                "trace recorder",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP010 — env-dependence
# ---------------------------------------------------------------------------

def check_rep010(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """os.environ / os.getenv / sys.argv outside CLI and config shims."""
    if ctx.in_tests or ctx.is_cli_shim or ctx.path.endswith("core/config.py"):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        dotted: Optional[str] = None
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted not in ("os.getenv", "os.environ.get"):
                dotted = None
        elif isinstance(node, (ast.Attribute, ast.Subscript)):
            dotted = _dotted(node if isinstance(node, ast.Attribute) else node.value)
            if dotted not in ("os.environ", "sys.argv"):
                dotted = None
        if dotted:
            findings.append(_finding(
                "REP010", ctx, node,
                f"{dotted} read in library code — environment must enter "
                "through explicit config (core/config.py) or the CLI",
            ))
    # Deduplicate nested matches (os.environ inside os.environ.get, the
    # Attribute inside the Subscript, etc.) — keep one finding per location.
    unique: Dict[Tuple[int, int], Finding] = {}
    for f in findings:
        unique.setdefault((f.line, f.col), f)
    return list(unique.values())


# ---------------------------------------------------------------------------
# REP011 — unknown-metric
# ---------------------------------------------------------------------------

# TraceRecorder entry points and the position of their kind-string argument.
_METRIC_METHODS = {"count": 0, "record": 1, "span_begin": 1, "span_end": 1}

_METRIC_KEYWORDS = {"count": "name", "record": "kind",
                    "span_begin": "kind", "span_end": "kind"}


def _metric_kind_arg(node: ast.Call, method: str) -> Optional[ast.expr]:
    """The kind/name argument of a recorder call, positional or keyword."""
    pos = _METRIC_METHODS[method]
    if len(node.args) > pos:
        return node.args[pos]
    wanted = _METRIC_KEYWORDS[method]
    for kw in node.keywords:
        if kw.arg == wanted:
            return kw.value
    return None


def check_rep011(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Literal metric kinds must be declared in the central catalogue.

    Detection: calls ``<...>.trace.count/record/span_begin/span_end`` (or on
    a bare name ``trace``) whose kind argument is a string literal.  Kinds
    built at runtime (f-strings like ``tx_{kind.value}``) are skipped — the
    catalogue covers those via declared dynamic prefixes, and
    ``repro.obs.catalog.unregistered_names()`` reports any that escape.  Without a loaded
    vocabulary (bare ``analyze_source``) the rule is inert.
    """
    vocab = ctx.vocabulary
    if vocab is None or ctx.in_tests:
        return []
    if ctx.path.endswith("obs/catalog.py"):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        method = node.func.attr
        if method not in _METRIC_METHODS:
            continue
        receiver = _dotted(node.func.value)
        if receiver is None or not (
            receiver == "trace" or receiver.endswith(".trace")
        ):
            continue
        arg = _metric_kind_arg(node, method)
        if not isinstance(arg, ast.Constant) or not isinstance(arg.value, str):
            continue
        if not vocab.known(arg.value):
            findings.append(_finding(
                "REP011", ctx, node,
                f"metric kind {arg.value!r} is not declared in "
                "src/repro/obs/catalog.py — add a MetricSpec (name, kind, "
                "unit, help) or fix the typo; orphan counters never reach "
                "reports",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP013 — non-event-trace-kind
# ---------------------------------------------------------------------------

# Structured-event entry points: their kind lands in the EventLog, so it
# must be catalogued as kind="event".  trace.count() is the counter path
# and stays REP011-only.
_EVENT_METHODS = ("record", "span_begin", "span_end")


def check_rep013(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Structured-event kinds must be declared ``kind="event"``.

    Detection mirrors REP011 (same receivers, same literal-kind argument),
    but instead of unknown names it flags *known* names whose catalogued
    metric kind is not ``"event"``: a counter name passed to
    ``trace.record``/``span_begin``/``span_end`` produces trace entries the
    offline tooling (flight analyzer, critical-path walk) never dispatches
    on.  Unknown names stay REP011's finding — one problem, one code.
    Names whose declared kind is syntactically undecidable are skipped.
    """
    vocab = ctx.vocabulary
    if vocab is None or ctx.in_tests:
        return []
    if ctx.path.endswith("obs/catalog.py"):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(
            node.func, ast.Attribute
        ):
            continue
        method = node.func.attr
        if method not in _EVENT_METHODS:
            continue
        receiver = _dotted(node.func.value)
        if receiver is None or not (
            receiver == "trace" or receiver.endswith(".trace")
        ):
            continue
        arg = _metric_kind_arg(node, method)
        if not isinstance(arg, ast.Constant) or not isinstance(arg.value, str):
            continue
        if not vocab.known(arg.value):
            continue  # REP011's territory
        declared = vocab.declared_kind(arg.value)
        if declared is not None and declared != "event":
            findings.append(_finding(
                "REP013", ctx, node,
                f"trace.{method}() kind {arg.value!r} is declared "
                f'kind="{declared}" in src/repro/obs/catalog.py — '
                "structured-event call sites need an event-kind entry "
                "(or use trace.count() for plain counters)",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP012 — unsanctioned-artifact-write
# ---------------------------------------------------------------------------

# Mode strings that open a file for writing (create, truncate, append,
# exclusive, or update).  Pure reads ("r", "rb") pass.
def _mode_writes(mode: str) -> bool:
    return any(ch in mode for ch in "wax+")


def _open_mode(node: ast.Call) -> Optional[str]:
    """The literal mode of an ``open(...)``/``os.fdopen(...)`` call, if any.

    Returns "r" when the call has no mode argument (open's default), and
    None when the mode is a non-literal expression (dynamic modes are rare
    enough that flagging them would be noise).
    """
    for kw in node.keywords:
        if kw.arg == "mode":
            if isinstance(kw.value, ast.Constant) and isinstance(kw.value.value, str):
                return kw.value.value
            return None
    if len(node.args) >= 2:
        arg = node.args[1]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return None
    return "r"


# os-level calls that mutate the filesystem.  Durability (atomic replace,
# fsynced appends, torn-tail repair) lives in repro/persist.py; a direct call
# elsewhere ships a write path no durability test covers.  Read-only calls
# (os.read, os.lseek, os.stat) stay legal.
_FS_MUTATING_OS_CALLS = {
    "write", "fsync", "fdatasync", "replace", "rename", "open", "fdopen",
    "truncate", "ftruncate", "unlink", "remove", "link", "symlink",
}


def _os_call_origins(tree: ast.AST) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to the os module, and from-imported fs-mutating calls
    (local name -> os function name)."""
    os_names: Set[str] = set()
    fs_aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "os":
                    os_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in _FS_MUTATING_OS_CALLS:
                    fs_aliases[alias.asname or alias.name] = alias.name
    return os_names, fs_aliases


def check_rep012(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Direct artifact writes in src/ outside the sanctioned persist helper.

    Detection: ``open(...)`` / ``io.open(...)`` with a write/append/update
    mode, any ``<...>.write_text(...)`` call, and any fs-mutating ``os``
    call (``os.write``/``os.replace``/``os.unlink``/...) in its dotted,
    aliased-module (``import os as _os``) or from-imported
    (``from os import replace``) spelling.  ``src/repro/persist.py`` is the
    single sanctioned call site (its helpers implement the atomic
    write-temp-then-rename + fsync protocol); tests and tools may write
    however they like.  Heuristic limits: a file handle smuggled through a
    helper that opens on the caller's behalf is not seen — the REP012 test
    fixtures and review remain the backstop for exotic spellings.
    """
    if not ctx.in_src or ctx.path.endswith("repro/persist.py"):
        return []
    findings: List[Finding] = []
    os_names, fs_aliases = _os_call_origins(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is not None:
            head, _, tail = dotted.partition(".")
            if tail in _FS_MUTATING_OS_CALLS and head in os_names:
                origin: Optional[str] = tail
            else:
                origin = fs_aliases.get(dotted)
            if origin is not None:
                findings.append(_finding(
                    "REP012", ctx, node,
                    f"{dotted}() mutates the filesystem directly — route "
                    f"the {origin} through repro/persist.py (atomic_write_*/"
                    "atomic_append_jsonl) so a crash cannot tear the file",
                ))
                continue
        if dotted in ("open", "io.open"):
            mode = _open_mode(node)
            if mode is not None and _mode_writes(mode):
                findings.append(_finding(
                    "REP012", ctx, node,
                    f"{dotted}(..., {mode!r}) writes an artifact directly — "
                    "route it through repro/persist.py (atomic_write_text/"
                    "json/jsonl) so a crash cannot tear the file",
                ))
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
            findings.append(_finding(
                "REP012", ctx, node,
                ".write_text(...) writes an artifact directly — route it "
                "through repro/persist.py (atomic_write_text/json/jsonl) "
                "so a crash cannot tear the file",
            ))
    return findings


# ---------------------------------------------------------------------------
# REP014 — queue-order-read
# ---------------------------------------------------------------------------

# Engine introspection surface whose value depends on the heap's tie-break
# order among same-timestamp events.
_QUEUE_INTROSPECTION = {
    "pending_events", "processed_events", "heap_stats", "_queue", "_seq",
}


def _is_zero_delay(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value in (0, 0.0)


def _mentions_now(node: ast.expr) -> bool:
    """Does a schedule_at time expression reference ``<...>.now``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "now":
            return True
        if isinstance(sub, ast.Name) and sub.id == "now":
            return True
    return False


def check_rep014(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Same-timestamp callbacks that read engine queue introspection.

    Detection: a function is a *same-timestamp handler* when its name is
    the callback argument of a ``.schedule(0, ...)``/``.schedule(0.0, ...)``
    call or of a ``.schedule_at(<...>.now, ...)`` call in the same module —
    it will run inside the scheduling event's own timestamp group, where
    order is pure tie-break.  Inside such handlers, any read of the
    engine's queue introspection (pending_events, processed_events,
    heap_stats, _queue, _seq) is flagged.  Callbacks smuggled through
    variables and cross-module handlers are out of syntactic reach — the
    schedule-perturbation harness is the dynamic backstop.
    """
    if ctx.in_tests:
        return []
    same_ts_handlers: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in _SCHEDULE_METHODS or not node.args:
            continue
        when = node.args[0]
        zero = (node.func.attr in ("schedule", "call_later")
                and _is_zero_delay(when))
        at_now = (node.func.attr in ("schedule_at", "call_at")
                  and _mentions_now(when))
        if zero or at_now:
            same_ts_handlers.update(_callback_names(node))
    if not same_ts_handlers:
        return []

    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in same_ts_handlers:
            continue
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Attribute)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.attr in _QUEUE_INTROSPECTION):
                findings.append(_finding(
                    "REP014", ctx, inner,
                    f"'{node.name}' runs in its scheduler's timestamp group "
                    f"(scheduled with zero delay / at sim.now) and reads "
                    f"engine queue state '.{inner.attr}' — its value there "
                    "is tie-break order, which the tie-order test permutes; "
                    "derive the decision from simulated time or node state",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP015 — shared-class-state
# ---------------------------------------------------------------------------

def _rep015_scoped(ctx: FileContext) -> bool:
    """Modules whose classes are instantiated once per network participant."""
    return ctx.in_src and any(
        part in ctx.path for part in ("/net/", "/protocols/", "/attacks/")
    )


def check_rep015(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Mutable class-level attributes (and defaults) on per-node classes.

    Scope: ``src`` modules under ``net/``, ``protocols/`` and ``attacks/``
    — the classes instantiated once per network participant.  A mutable
    container in a class body is shared by every instance; one per-node
    class is all it takes to couple the whole network through event order.
    ``__slots__`` and ``dataclasses.field(...)`` initialisers are exempt
    (per-instance by construction).  Mutable *defaults* on these classes'
    methods are also flagged here (they alias state across nodes the same
    way), in addition to REP006's generic finding.
    """
    if not _rep015_scoped(ctx):
        return []
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if "__slots__" in names or stmt.value is None:
                    continue
                if _is_mutable_default(stmt.value):
                    label = names[0] if names else "<attribute>"
                    findings.append(_finding(
                        "REP015", ctx, stmt,
                        f"class attribute '{node.name}.{label}' is a mutable "
                        "container shared by every instance — every node in "
                        "the network reads/writes the same object; "
                        "initialise it per-instance in __init__",
                    ))
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = stmt.args
                defaults = list(arguments.defaults) + [
                    d for d in arguments.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        findings.append(_finding(
                            "REP015", ctx, default,
                            f"mutable default on '{node.name}.{stmt.name}' "
                            "is shared across every node's calls — default "
                            "to None and materialise per instance",
                        ))
    return findings


# ---------------------------------------------------------------------------
# REP016 — hot-path-unordered
# ---------------------------------------------------------------------------

_HOT_PATH_SUFFIXES = ("sim/engine.py", "net/radio.py", "net/channel.py")

_SET_ANNOTATIONS = {"set", "Set", "typing.Set", "frozenset", "FrozenSet",
                    "typing.FrozenSet"}


def _is_hot_path(ctx: FileContext) -> bool:
    return ctx.path.endswith(_HOT_PATH_SUFFIXES)


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    return _dotted(target) in _SET_ANNOTATIONS


class _HotSetTracker(_SetTracker):
    """REP003's tracker, extended to see ``self.<attr>`` sets and set-typed
    parameters — the shapes that dominate hot-path modules."""

    def __init__(self, ctx: FileContext, attr_sets: Set[str]):
        super().__init__(ctx)
        self._attr_sets = attr_sets

    def _is_set_expr(self, node: ast.AST) -> bool:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self._attr_sets):
            return True
        return super()._is_set_expr(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope()
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if _annotation_is_set(arg.annotation):
                self._set_names[-1].add(arg.arg)
        self.generic_visit(node)
        self._exit_scope()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(_finding(
            "REP016", self.ctx, node,
            f"{what} iterates a set on the hot path — this module runs "
            "under every event of every run; wrap the iterable in "
            "sorted(...) or restructure around an ordered container",
        ))


def _module_attr_sets(tree: ast.AST) -> Set[str]:
    """Attribute names assigned set values (or set annotations) anywhere."""
    attrs: Set[str] = set()
    probe = _SetTracker.__new__(_SetTracker)
    probe._set_names = [set()]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and probe._is_set_expr(node.value)):
                    attrs.add(target.attr)
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _annotation_is_set(node.annotation)):
                attrs.add(target.attr)
    return attrs


def check_rep016(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Unordered set iteration in hot-path modules.

    REP003 already flags *local* set names feeding decisions anywhere in
    src; this rule closes the attribute/parameter gap specifically for the
    modules under every event (sim/engine.py, net/radio.py,
    net/channel.py): iteration over ``self.<attr>`` sets and set-annotated
    parameters.  Dict iteration is exempt — CPython dicts iterate in
    insertion order, deterministic for a deterministic run.
    """
    if not _is_hot_path(ctx):
        return []
    tracker = _HotSetTracker(ctx, _module_attr_sets(tree))
    tracker.visit(tree)
    # REP003 flags local-name sets in these files too; keep only findings
    # REP003 cannot see so one defect maps to one code.
    rep003 = {(f.line, f.col) for f in check_rep003(tree, ctx)}
    return [f for f in tracker.findings if (f.line, f.col) not in rep003]


# ---------------------------------------------------------------------------
# REP017 — hot-path-allocation
# ---------------------------------------------------------------------------

_MATERIALISERS = {"list", "set", "dict", "tuple", "frozenset"}


def _dataclass_decorator(node: ast.ClassDef) -> Optional[ast.AST]:
    """The @dataclass decorator of a class, or None."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _dotted(target) in ("dataclass", "dataclasses.dataclass"):
            return dec
    return None


def _dataclass_has_slots(node: ast.ClassDef, decorator: ast.AST) -> bool:
    if isinstance(decorator, ast.Call):
        for kw in decorator.keywords:
            if (kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True):
                return True
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "__slots__"
                   for t in stmt.targets):
                return True
    return False


def check_rep017(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """Allocation anti-patterns in hot-path modules (WARNING).

    Two shapes, both scoped to sim/engine.py, net/radio.py and
    net/channel.py: (a) a @dataclass without ``slots=True`` (or a manual
    ``__slots__``) — a per-instance ``__dict__`` on a per-event object;
    (b) a comprehension or list()/set()/dict()/tuple() materialiser inside
    a loop body or inside a handler scheduled in this module — an
    allocation per iteration of the innermost loop the simulation has.
    Warnings, not errors: the perfbench gate measures, this rule points.
    """
    if not _is_hot_path(ctx):
        return []
    findings: List[Finding] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            decorator = _dataclass_decorator(node)
            if decorator is not None and not _dataclass_has_slots(node, decorator):
                findings.append(_finding(
                    "REP017", ctx, node,
                    f"@dataclass '{node.name}' on the hot path has no "
                    "slots — each instance carries a __dict__; add "
                    "slots=True (or a __slots__ tuple) or move the class "
                    "off the hot path",
                ))

    handler_names: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULE_METHODS):
            handler_names.update(_callback_names(node))

    def _alloc_sites(body: Sequence[ast.stmt]) -> List[Tuple[ast.AST, str]]:
        sites: List[Tuple[ast.AST, str]] = []
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp)):
                    sites.append((sub, "comprehension"))
                elif (isinstance(sub, ast.Call)
                      and isinstance(sub.func, ast.Name)
                      and sub.func.id in _MATERIALISERS
                      and (sub.args or sub.keywords)):
                    sites.append((sub, f"{sub.func.id}() materialiser"))
        return sites

    flagged: Set[Tuple[int, int]] = set()

    def _flag(sub: ast.AST, what: str, where: str) -> None:
        key = (getattr(sub, "lineno", 0), getattr(sub, "col_offset", 0))
        if key in flagged:
            return
        flagged.add(key)
        findings.append(_finding(
            "REP017", ctx, sub,
            f"{what} {where} on the hot path allocates per iteration/event "
            "— hoist it, reuse a buffer, or justify with a suppression",
        ))

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.While)):
            for sub, what in _alloc_sites(node.body):
                _flag(sub, what, "inside a loop body")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in handler_names:
                for sub, what in _alloc_sites(node.body):
                    _flag(sub, what, f"in scheduled handler '{node.name}'")
    return findings


# ---------------------------------------------------------------------------
# REP018 — unsanctioned-profiling
# ---------------------------------------------------------------------------

# Clock entry points of the time module by *bare* name, the spelling REP002's
# dotted-name matching cannot see once they are from-imported.
_BARE_CLOCK_NAMES = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
}


def check_rep018(tree: ast.AST, ctx: FileContext) -> List[Finding]:
    """tracemalloc use, and from-imported clock calls, outside tests.

    Two gaps this closes over REP002: (a) ``tracemalloc`` — starting or
    stopping allocation tracing is process-global state that perturbs every
    other measurement in flight, so no module of the program may drive it;
    performance is measured from outside by ``perfbench/`` (``peak_rss_mb``
    end to end, per-layer time through ``Simulator.set_profiler``); (b)
    ``from time import perf_counter`` followed by a bare ``perf_counter()``
    call — the dotted spelling is REP002's territory, but the from-imported
    form slips past its name matching.  Tests are exempt.  Aliased imports
    are tracked; values smuggled through attributes remain out of syntactic
    reach.
    """
    if ctx.in_tests:
        return []
    findings: List[Finding] = []
    clock_aliases: Dict[str, str] = {}
    tracemalloc_names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _BARE_CLOCK_NAMES:
                        clock_aliases[alias.asname or alias.name] = alias.name
            elif node.module == "tracemalloc":
                findings.append(_finding(
                    "REP018", ctx, node,
                    "tracemalloc imported — allocation tracing is "
                    "process-global; measure memory with perfbench "
                    "(peak_rss_mb) instead",
                ))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "tracemalloc":
                    tracemalloc_names.add(alias.asname or alias.name)
                    findings.append(_finding(
                        "REP018", ctx, node,
                        "tracemalloc imported — allocation tracing is "
                        "process-global; measure memory with perfbench "
                        "(peak_rss_mb) instead",
                    ))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        head = dotted.partition(".")[0]
        if "." in dotted and head in tracemalloc_names:
            findings.append(_finding(
                "REP018", ctx, node,
                f"{dotted}() mutates process-global allocation tracing — "
                "no module of the program may drive tracemalloc",
            ))
        elif dotted in clock_aliases and not ctx.clock_sanctioned:
            origin = clock_aliases[dotted]
            findings.append(_finding(
                "REP018", ctx, node,
                f"bare {dotted}() reads the wall clock (from time import "
                f"{origin}) — simulation logic must be a pure function of "
                "(config, seed); for CLI timing use "
                "repro.experiments.reporting.stopwatch(), for host cost use "
                "perfbench/run.py",
            ))
    return findings


RULE_CHECKS: Dict[str, Callable[[ast.AST, FileContext], List[Finding]]] = {
    "REP001": check_rep001,
    "REP002": check_rep002,
    "REP003": check_rep003,
    "REP004": check_rep004,
    "REP005": check_rep005,
    "REP006": check_rep006,
    "REP007": check_rep007,
    "REP008": check_rep008,
    "REP009": check_rep009,
    "REP010": check_rep010,
    "REP011": check_rep011,
    "REP012": check_rep012,
    "REP013": check_rep013,
    "REP014": check_rep014,
    "REP015": check_rep015,
    "REP016": check_rep016,
    "REP017": check_rep017,
    "REP018": check_rep018,
}


def run_rules(
    tree: ast.AST,
    ctx: FileContext,
    select: "Optional[Set[str]]" = None,
) -> List[Finding]:
    """Run all (or the selected subset of) rules over one parsed module."""
    findings: List[Finding] = []
    for code, check in RULE_CHECKS.items():
        if select is not None and code not in select:
            continue
        findings.extend(check(tree, ctx))
    findings.sort(key=lambda f: f.sort_key)
    return findings
