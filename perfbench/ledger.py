"""Per-layer span ledger for the traced benchmark run.

The traced run wraps the public boundary of each layer of the simulator
from here, the benchmark's own code, and changes no program file:

* ``sim``        -- ``Simulator.run`` (opened by :class:`BenchSimulator`);
                    handler dispatch comes through ``Simulator.set_profiler``
* ``radio``      -- radio event handlers and ``Radio.send``
* ``channel``    -- ``should_drop`` of every ``LossModel`` subclass
* ``protocols``  -- ``DisseminationNode.on_receive`` and protocol timers
* ``crypto``     -- ECDSA/Merkle/puzzle/hash functions at the names their
                    callers resolve (``repro.core.verify``,
                    ``repro.core.preprocess``, the protocol builders)
* ``erasure``    -- ``encode``/``decode`` of every ``ErasureCode`` subclass,
                    and ``make_code`` where the callers resolve it
* ``preprocess`` -- every ``*Preprocessor.build``
* ``obs``        -- public methods of ``FlightRecorder``, ``CausalRecorder``
                    and ``EventLog``

Each wrapped call records a span (operation, start, end, parent) in flat
arrays.  When a dissemination ends, :meth:`Tracer.fold` turns the spans into
self time per layer -- a span's duration minus the time its child spans
cover -- plus outermost-call counts and inclusive time per operation, and
clears the arrays.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator

LAYERS = ("sim", "radio", "channel", "protocols", "crypto", "erasure",
          "preprocess", "obs")

# Operation -> layer.  Call counts and inclusive times are kept per
# operation; self time is folded per layer.
OPS: Dict[str, str] = {
    "sim.run": "sim",
    "radio.handler": "radio",
    "radio.send": "radio",
    "channel.should_drop": "channel",
    "protocols.on_receive": "protocols",
    "protocols.timer": "protocols",
    "crypto.verify": "crypto",
    "crypto.hash": "crypto",
    "crypto.sign": "crypto",
    "erasure.encode": "erasure",
    "erasure.decode": "erasure",
    "erasure.make_code": "erasure",
    "preprocess.build": "preprocess",
    "obs.call": "obs",
    # A handler whose module maps to no layer; its time stays unattributed.
    "other.handler": "",
}
_OP_NAMES = tuple(OPS)
_OP_ID = {name: i for i, name in enumerate(_OP_NAMES)}

# Handler modules -> dispatch operation.  ``repro.sim.process.Timer`` only
# wraps callbacks armed by protocol code in these scenarios.
_HANDLER_MODULES = (
    ("repro.net.", "radio.handler"),
    ("repro.protocols.", "protocols.timer"),
    ("repro.core.", "protocols.timer"),
    ("repro.trickle.", "protocols.timer"),
    ("repro.sim.process", "protocols.timer"),
)


class Tracer:
    """In-memory span store with a fold into per-layer self time."""

    def __init__(self) -> None:
        self._handler_ops: Dict[Any, int] = {}
        self._clear()

    def _clear(self) -> None:
        self._op = array("b")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self._pending = -1

    # -- recording -----------------------------------------------------------

    def open(self, op: int) -> int:
        idx = len(self._op)
        stack = self._stack
        self._op.append(op)
        self._parent.append(stack[-1] if stack else -1)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], op_name: str) -> Callable[..., Any]:
        op = _OP_ID[op_name]
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = open_(op)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- Simulator.set_profiler protocol ---------------------------------------
    # The engine calls clock() before and after each handler, then record().
    # The first clock() opens the dispatch span so that spans the handler
    # opens nest under it; record() names the operation and closes it.

    def clock(self) -> float:
        if self._pending < 0:
            self._pending = self.open(_OP_ID["other.handler"])
        return 0.0

    def record(self, fn: Callable[..., Any], args: Tuple[Any, ...],
               elapsed: float, heap_len: int) -> None:
        idx = self._pending
        self._end[idx] = time.perf_counter()
        self._stack.pop()
        self._pending = -1
        func = getattr(fn, "__func__", fn)
        op = self._handler_ops.get(func)
        if op is None:
            module = getattr(func, "__module__", "") or ""
            name = next((o for prefix, o in _HANDLER_MODULES
                         if module.startswith(prefix)), "other.handler")
            op = self._handler_ops[func] = _OP_ID[name]
        self._op[idx] = op

    # -- folding ---------------------------------------------------------------

    def fold(self) -> "Ledger":
        """Fold the recorded spans into a :class:`Ledger` and clear them."""
        if self._stack:
            raise RuntimeError("fold() with spans still open")
        ops, parents = self._op, self._parent
        durations = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * len(durations)
        for idx, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[idx]
        ledger = Ledger()
        for idx, op in enumerate(ops):
            name = _OP_NAMES[op]
            layer = OPS[name]
            if layer:
                ledger.self_s[layer] += durations[idx] - child[idx]
            parent = parents[idx]
            if parent < 0 or ops[parent] != op:
                ledger.calls[name] += 1
                ledger.incl_s[name] += durations[idx]
        self._clear()
        return ledger


class Ledger:
    """Self time per layer; outermost calls and inclusive time per op."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {op: 0 for op in OPS}
        self.incl_s: Dict[str, float] = {op: 0.0 for op in OPS}

    def add(self, other: "Ledger") -> None:
        for key, value in other.self_s.items():
            self.self_s[key] += value
        for key, count in other.calls.items():
            self.calls[key] += count
        for key, value in other.incl_s.items():
            self.incl_s[key] += value

    @property
    def attributed_s(self) -> float:
        return sum(self.self_s.values())


class SetupDone(Exception):
    """Raised by a ``setup_only`` BenchSimulator when the scenario first runs."""


class BenchSimulator(Simulator):
    """A Simulator that times its own ``run`` calls.

    ``first_run_at`` (perf_counter) marks the end of scenario set-up and
    ``run_s`` sums host seconds spent inside ``run``.  With ``setup_only``
    the first ``run`` raises :class:`SetupDone` instead, so a scenario can be
    set up without being simulated.  With a tracer it also records the
    ``sim.run`` span and installs the tracer as the dispatch profiler.
    """

    def __init__(self, tracer: Optional[Tracer] = None,
                 setup_only: bool = False) -> None:
        super().__init__()
        self.first_run_at: Optional[float] = None
        self.run_s = 0.0
        self._setup_only = setup_only
        self._tracer = tracer
        if tracer is not None:
            self.set_profiler(tracer)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        start = time.perf_counter()
        if self.first_run_at is None:
            self.first_run_at = start
            if self._setup_only:
                raise SetupDone()
        tracer = self._tracer
        idx = tracer.open(_OP_ID["sim.run"]) if tracer is not None else -1
        try:
            return super().run(until=until, max_events=max_events)
        finally:
            self.run_s += time.perf_counter() - start
            if tracer is not None:
                tracer.close(idx)


# -- layer boundaries ------------------------------------------------------------

def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _boundaries() -> List[Tuple[Any, str, str]]:
    """(owner, attribute, operation) for every wrapped layer boundary."""
    channel = importlib.import_module("repro.net.channel")
    radio = importlib.import_module("repro.net.radio")
    common = importlib.import_module("repro.protocols.common")
    verify = importlib.import_module("repro.core.verify")
    preprocess = importlib.import_module("repro.core.preprocess")
    puzzle = importlib.import_module("repro.crypto.puzzle")
    merkle = importlib.import_module("repro.crypto.merkle")
    base = importlib.import_module("repro.erasure.base")
    flight = importlib.import_module("repro.obs.flight")
    events = importlib.import_module("repro.obs.events")
    for name in ("rs", "rlc", "lt", "tornado"):
        importlib.import_module(f"repro.erasure.{name}")

    found: List[Tuple[Any, str, str]] = [
        (radio.Radio, "send", "radio.send"),
        (verify, "verify", "crypto.verify"),
        (verify, "verify_merkle_path", "crypto.verify"),
        (verify, "hash_image", "crypto.hash"),
        (verify, "make_code", "erasure.make_code"),
        (preprocess, "hash_image", "crypto.hash"),
        (preprocess, "sign", "crypto.sign"),
        (preprocess, "make_code", "erasure.make_code"),
        (puzzle.MessageSpecificPuzzle, "check", "crypto.verify"),
        (puzzle.MessageSpecificPuzzle, "solve", "crypto.sign"),
        (merkle.MerkleTree, "__init__", "crypto.sign"),
    ]
    for module_name in ("repro.protocols.seluge", "repro.protocols.lr_seluge"):
        module = importlib.import_module(module_name)
        found.append((module, "generate_keypair", "crypto.sign"))
    for cls in [channel.LossModel] + _subclasses(channel.LossModel):
        if _plain(cls, "should_drop"):
            found.append((cls, "should_drop", "channel.should_drop"))
    for cls in [common.DisseminationNode] + _subclasses(common.DisseminationNode):
        if _plain(cls, "on_receive"):
            found.append((cls, "on_receive", "protocols.on_receive"))
    for cls in _subclasses(base.ErasureCode):
        for attr in ("encode", "decode"):
            if _plain(cls, attr):
                found.append((cls, attr, f"erasure.{attr}"))
    for name in dir(preprocess):
        cls = getattr(preprocess, name)
        if (isinstance(cls, type) and name.endswith("Preprocessor")
                and _plain(cls, "build")):
            found.append((cls, "build", "preprocess.build"))
    for cls in (flight.FlightRecorder, flight.CausalRecorder, events.EventLog):
        for attr in list(vars(cls)):
            if not attr.startswith("_") and _plain(cls, attr):
                found.append((cls, attr, "obs.call"))
    return found


def _plain(owner: type, attr: str) -> bool:
    """A concrete function defined on ``owner`` itself (not inherited)."""
    value = vars(owner).get(attr)
    return (callable(value) and not isinstance(value, (staticmethod, classmethod, type))
            and not getattr(value, "__isabstractmethod__", False))


class Boundaries:
    """Context manager that wraps every layer boundary with ``tracer`` spans."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Boundaries":
        for owner, attr, op in _boundaries():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._tracer.wrap(original, op))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
