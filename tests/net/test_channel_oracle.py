"""Naive reference for the loss models' draws.

The references below resolve their stream by name on every decision
(``rngs.get(f"loss/{s}-{r}")`` and friends) and compose with ``any()``.  The
models under test must make the same decisions from the same streams, in the
same order, and leave every named stream in the same state, so one further
draw from each stream must agree too.  Sequences are generated over 1-40
directed links; some cases switch registry partway, extend the per-link map
after a link's first decision, or pin links at p = 0 / p = 1.  The grids'
one map-carrying :class:`GilbertElliottLoss` is checked against the
composition of the per-link and Gilbert-Elliott references.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.channel import BernoulliLoss, GilbertElliottLoss, PerLinkLoss
from repro.net.packet import Frame, FrameKind
from repro.sim.rng import RngRegistry

FRAME = Frame(kind=FrameKind.DATA, sender=0, size_bytes=40, payload=None)


class RefBernoulli:
    def __init__(self, p):
        self.p = p

    def should_drop(self, rngs, sender, receiver, frame, time):
        if self.p == 0.0:
            return False
        return rngs.get(f"loss/{receiver}").random() < self.p


class RefPerLink:
    def __init__(self, loss_map, default=1.0):
        self.loss_map = loss_map
        self.default = default

    def should_drop(self, rngs, sender, receiver, frame, time):
        p = self.loss_map.get((sender, receiver), self.default)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return rngs.get(f"loss/{sender}-{receiver}").random() < p


class RefGilbertElliott:
    def __init__(self, loss_good, loss_bad, mean_good, mean_bad):
        self.loss_good, self.loss_bad = loss_good, loss_bad
        self.mean_good, self.mean_bad = mean_good, mean_bad
        self.state = {}

    def should_drop(self, rngs, sender, receiver, frame, time):
        rng = rngs.get(f"ge/{sender}-{receiver}")
        bad, expires = self.state.get((sender, receiver), (False, 0.0))
        while expires <= time:
            bad = not bad
            expires += rng.expovariate(1.0 / (self.mean_bad if bad else self.mean_good))
        self.state[(sender, receiver)] = (bad, expires)
        return rng.random() < (self.loss_bad if bad else self.loss_good)


class RefComposite:
    def __init__(self, *models):
        self.models = models

    def should_drop(self, rngs, sender, receiver, frame, time):
        return any(m.should_drop(rngs, sender, receiver, frame, time)
                   for m in self.models)


def _stream_names(links):
    names = set()
    for s, r in links:
        names.update((f"loss/{s}-{r}", f"ge/{s}-{r}", f"loss/{r}"))
    return sorted(names)


def _replay(model, ref, steps, links, seeds, switches=(), on_step=None):
    """Drive model and reference side by side, then draw once from every stream.

    At each step index in ``switches`` both move to the other registry.
    """
    regs = [RngRegistry(seeds[0]), RngRegistry(seeds[1])]
    ref_regs = [RngRegistry(seeds[0]), RngRegistry(seeds[1])]
    current = 0
    time = 0.0
    for i, (link_index, dt) in enumerate(steps):
        if i in switches:
            current = 1 - current
        if on_step is not None:
            on_step(i)
        sender, receiver = links[link_index % len(links)]
        time += dt
        got = model.should_drop(regs[current], sender, receiver, FRAME, time)
        want = ref.should_drop(ref_regs[current], sender, receiver, FRAME, time)
        assert got == want, f"step {i}: link {(sender, receiver)} at t={time}"
    for reg, ref_reg in zip(regs, ref_regs):
        for name in _stream_names(links):
            assert reg.get(name).random() == ref_reg.get(name).random(), name


links_st = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda link: link[0] != link[1]),
    min_size=1, max_size=40, unique=True,
)
steps_st = st.lists(
    st.tuples(st.integers(0, 39),
              st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False))),
    min_size=1, max_size=120,
)
seeds_st = st.tuples(st.integers(0, 2**32), st.integers(0, 2**32))
switches_st = st.sets(st.integers(0, 119), max_size=3)
p_st = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.01, 0.99))


@settings(max_examples=60, deadline=None)
@given(links=links_st, steps=steps_st, seeds=seeds_st,
       p=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
       switches=switches_st)
def test_bernoulli_matches_reference(links, steps, seeds, p, switches):
    _replay(BernoulliLoss(p), RefBernoulli(p), steps, links, seeds, switches)


@settings(max_examples=60, deadline=None)
@given(links=links_st, steps=steps_st, seeds=seeds_st, data=st.data(),
       switches=switches_st)
def test_per_link_matches_reference(links, steps, seeds, data, switches):
    probs = data.draw(st.lists(p_st, min_size=len(links), max_size=len(links)))
    default = data.draw(p_st)
    # Links in ``late`` start on the default and are spliced into the live
    # map partway through, as the attack engine does after radio set-up.
    late = data.draw(st.sets(st.sampled_from(range(len(links)))))
    splice_at = data.draw(st.integers(0, len(steps)))
    loss_map = {link: p for i, (link, p) in enumerate(zip(links, probs))
                if i not in late}
    ref_map = dict(loss_map)

    def splice(i):
        if i == splice_at:
            for j in late:
                loss_map[links[j]] = ref_map[links[j]] = probs[j]

    _replay(PerLinkLoss(loss_map, default), RefPerLink(ref_map, default),
            steps, links, seeds, switches, splice)


ge_params_st = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                         st.floats(0.05, 10.0), st.floats(0.05, 10.0))


@settings(max_examples=60, deadline=None)
@given(links=links_st, steps=steps_st, seeds=seeds_st, params=ge_params_st,
       switches=switches_st)
def test_gilbert_elliott_matches_reference(links, steps, seeds, params, switches):
    _replay(GilbertElliottLoss(*params), RefGilbertElliott(*params),
            steps, links, seeds, switches)


@settings(max_examples=60, deadline=None)
@given(links=links_st, steps=steps_st, seeds=seeds_st, params=ge_params_st,
       data=st.data(), switches=switches_st)
def test_composite_matches_reference(links, steps, seeds, params, data, switches):
    """The map-carrying model decides as per-link loss composed with the
    chain, including links spliced into the live map after first use."""
    probs = data.draw(st.lists(p_st, min_size=len(links), max_size=len(links)))
    # Links in ``late`` always drop until they are spliced into the live map.
    late = data.draw(st.sets(st.sampled_from(range(len(links)))))
    splice_at = data.draw(st.integers(0, len(steps)))
    loss_map = {link: p for i, (link, p) in enumerate(zip(links, probs))
                if i not in late}
    ref_map = dict(loss_map)

    def splice(i):
        if i == splice_at:
            for j in late:
                loss_map[links[j]] = ref_map[links[j]] = probs[j]

    model = GilbertElliottLoss(*params, loss_map=loss_map)
    ref = RefComposite(RefPerLink(ref_map), RefGilbertElliott(*params))
    _replay(model, ref, steps, links, seeds, switches, splice)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_per_link_certain_links_do_not_draw(p):
    model = PerLinkLoss({(0, 1): p}, default=p)
    rngs = RngRegistry(9)
    for t in range(50):
        assert model.should_drop(rngs, 0, 1, FRAME, t * 0.1) == (p == 1.0)
        assert model.should_drop(rngs, 0, 2, FRAME, t * 0.1) == (p == 1.0)
    fresh = RngRegistry(9)
    for name in ("loss/0-1", "loss/0-2"):
        assert rngs.get(name).random() == fresh.get(name).random()


def test_composite_short_circuit_leaves_ge_stream_untouched():
    """A link pinned at p = 1 drops before the chain: neither its loss nor
    its ge stream is drawn from."""
    model = GilbertElliottLoss(loss_map={(0, 1): 1.0})
    rngs = RngRegistry(4)
    for t in range(50):
        assert model.should_drop(rngs, 0, 1, FRAME, t * 0.1)
    fresh = RngRegistry(4)
    for name in ("loss/0-1", "ge/0-1"):
        assert rngs.get(name).random() == fresh.get(name).random()
