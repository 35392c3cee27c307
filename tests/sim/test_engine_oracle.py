"""Order oracle for the event engine.

``NaiveSimulator`` keeps every queued entry in a plain list and, at each
step, takes the minimum by ``(time, key)``.  It applies the engine's
documented bookkeeping literally: a cancel of a queued event turns it into
garbage and compacts once garbage is more than half the queue, a cancelled
entry that reaches the front is dropped, and ``run(until=...)`` stops before
the first live entry past ``until`` and then advances time to ``until``.

Hypothesis generates programs that interleave schedules with tied times,
cancels (of queued, executed and already-cancelled events, from the driver
and from inside handlers), nested schedules made by handlers, and bounded
or unbounded runs.  The engine must execute the same events in the same
order and report the same ``heap_stats()`` and ``now`` after every step,
for the FIFO :class:`Simulator` and for :class:`PerturbedSimulator`.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import PerturbedSimulator, Simulator
from repro.sim.rng import derive_seed


class _Entry:
    __slots__ = ("time", "key", "fn", "args", "cancelled", "executed")

    def __init__(self, time, key, fn, args):
        self.time = time
        self.key = key
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.executed = False

    def cancel(self, sim):
        if self.cancelled:
            return
        self.cancelled = True
        if not self.executed:
            sim.live -= 1
            sim.garbage += 1
            if sim.garbage * 2 > len(sim.queue):
                sim.queue = [e for e in sim.queue if not e.cancelled]
                sim.garbage = 0
                sim.compactions += 1


class NaiveSimulator:
    def __init__(self, key=lambda counter: counter):
        self.key = key
        self.queue = []
        self.now = 0.0
        self.counter = 0
        self.live = 0
        self.garbage = 0
        self.compactions = 0

    def schedule(self, delay, fn, *args):
        entry = _Entry(self.now + delay, self.key(self.counter), fn, args)
        self.counter += 1
        self.queue.append(entry)
        self.live += 1
        return entry

    def cancel(self, entry):
        entry.cancel(self)

    def run(self, until=None):
        while self.queue:
            head = min(self.queue, key=lambda e: (e.time, e.key))
            if head.cancelled:
                self.queue.remove(head)
                self.garbage -= 1
                continue
            if until is not None and head.time > until:
                break
            self.queue.remove(head)
            self.live -= 1
            head.executed = True
            self.now = head.time
            head.fn(*head.args)
        if until is not None and self.now < until:
            self.now = until

    def heap_stats(self):
        return {
            "pending": self.live,
            "heap_len": len(self.queue),
            "cancelled_garbage": self.garbage,
            "compactions": self.compactions,
        }


class _Engine:
    """Adapts a real simulator to the driver's schedule/cancel/run calls."""

    def __init__(self, sim):
        self.sim = sim
        self.schedule = sim.schedule
        self.run = sim.run
        self.heap_stats = sim.heap_stats

    @property
    def now(self):
        return self.sim.now

    @staticmethod
    def cancel(event):
        event.cancel()


def play(sim, program):
    """Run ``program`` on ``sim``; return the execution log and snapshots."""
    handles = []
    log = []
    snapshots = []

    def fire(label, children, cancels):
        log.append((label, sim.now))
        for delay, grandchildren, child_cancels in children:
            add(delay, grandchildren, child_cancels)
        for target in cancels:
            if handles:
                sim.cancel(handles[target % len(handles)])

    def add(delay, children, cancels):
        handles.append(sim.schedule(delay, fire, len(handles), children, cancels))

    for op in program:
        if op[0] == "add":
            add(*op[1:])
        elif op[0] == "cancel":
            if handles:
                sim.cancel(handles[op[1] % len(handles)])
        else:
            sim.run(until=None if op[1] is None else sim.now + op[1])
        snapshots.append((sim.heap_stats(), sim.now, len(log)))
    sim.run()
    snapshots.append((sim.heap_stats(), sim.now, len(log)))
    return log, snapshots


delays = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.5])
targets = st.integers(min_value=0, max_value=200)
leaf = st.tuples(delays, st.just(()), st.lists(targets, max_size=2))
inner = st.tuples(delays, st.lists(leaf, max_size=3), st.lists(targets, max_size=2))
ops = st.one_of(
    st.tuples(st.just("add"), delays, st.lists(inner, max_size=2),
              st.lists(targets, max_size=2)),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("cancel"), targets),
    st.tuples(st.just("run"), st.one_of(st.none(), delays)),
)
programs = st.lists(ops, min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(program=programs)
def test_simulator_matches_naive_order(program):
    assert play(_Engine(Simulator()), program) == play(NaiveSimulator(), program)


@settings(max_examples=60, deadline=None)
@given(program=programs, perturbation=st.integers(min_value=1, max_value=50))
def test_perturbed_simulator_matches_naive_order(program, perturbation):
    def key(counter):
        return (derive_seed(perturbation, f"tiebreak/{counter}") << 40) | counter

    assert (play(_Engine(PerturbedSimulator(perturbation)), program)
            == play(NaiveSimulator(key), program))


def test_programs_reach_compaction_and_nested_schedules():
    """A fixed program exercising what the generated ones are for."""
    program = [("add", 1.0, [(0.0, [(0.0, (), [])], [0])], [])] * 6
    program += [("cancel", i) for i in range(1, 6)]
    program += [("run", 0.5), ("run", None)]
    engine = _Engine(Simulator())
    log, snapshots = play(engine, program)
    assert (log, snapshots) == play(NaiveSimulator(), program)
    assert engine.sim.heap_stats()["compactions"] >= 1
    assert len(log) > 1
