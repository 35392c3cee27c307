"""Packet-loss models.

The paper's one-hop evaluation emulates losses at the application layer:
every received data/advertisement/SNACK packet is dropped independently with
probability ``p`` (Section VI-A).  :class:`BernoulliLoss` reproduces exactly
that.  Multi-hop grids use :class:`PerLinkLoss` with per-link reception
probabilities produced by a propagation model (see
:mod:`repro.net.topology`), and :class:`GilbertElliottLoss` adds bursty,
time-correlated losses in the spirit of the TinyOS ``meyer-heavy`` noise
trace (our documented substitution).

Models draw from the named streams ``loss/{receiver}``, ``loss/{s}-{r}`` and
``ge/{s}-{r}`` of the run's registry, each resolved once per link per registry
and kept, so a decision formats no name and does no registry lookup.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.errors import ConfigError
from repro.net.packet import Frame
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.topology import Topology

__all__ = [
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "PerLinkLoss",
    "GilbertElliottLoss",
    "CompositeLoss",
    "SyntheticNoiseTrace",
    "noise_trace_prr_map",
]


class LossModel(abc.ABC):
    """Decides, per (link, frame, time), whether a reception is dropped."""

    # Streams a model has resolved, per link, and the registry they came from.
    _rngs: Optional[RngRegistry] = None
    _streams: Dict[Any, random.Random]

    def _stream(self, rngs: RngRegistry, key: Any, name: str) -> random.Random:
        if rngs is not self._rngs:
            self._rngs, self._streams = rngs, {}
        stream = self._streams[key] = rngs.get(name)
        return stream

    @abc.abstractmethod
    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        """True when ``receiver`` loses this frame from ``sender``."""


class NoLoss(LossModel):
    """Perfect channel (useful for unit tests and p=0 baselines)."""

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        return False


class BernoulliLoss(LossModel):
    """Independent drop with probability ``p`` at every receiver.

    This is the paper's application-layer loss emulation: it applies to
    data, advertisement, and SNACK packets alike.
    """

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ConfigError(f"loss probability {p} outside [0, 1)")
        self.p = p

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        if self.p == 0.0:
            return False
        stream = self._streams.get(receiver) if rngs is self._rngs else None
        if stream is None:
            stream = self._stream(rngs, receiver, f"loss/{receiver}")
        return stream.random() < self.p


class PerLinkLoss(LossModel):
    """Per-directed-link drop probabilities (from a propagation model).

    Holds a live reference to ``loss_map`` rather than a copy: components
    that extend the topology after radio construction (the attack engine
    splicing adversary links into ``Topology.link_loss``) must be visible
    here, or the new links fall through to ``default`` and go silent.
    """

    def __init__(self, loss_map: Dict[Tuple[int, int], float], default: float = 1.0):
        for link, p in loss_map.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"loss probability {p} for link {link} outside [0, 1]")
        if not 0.0 <= default <= 1.0:
            raise ConfigError(f"default loss probability {default} outside [0, 1]")
        self.loss_map = loss_map
        self.default = default

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        link = (sender, receiver)
        p = self.loss_map.get(link, self.default)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        stream = self._streams.get(link) if rngs is self._rngs else None
        if stream is None:
            stream = self._stream(rngs, link, f"loss/{sender}-{receiver}")
        return stream.random() < p


class GilbertElliottLoss(LossModel):
    """Two-state bursty channel per directed link.

    Each link is an independent Gilbert-Elliott chain: GOOD state drops with
    ``loss_good``, BAD with ``loss_bad``; sojourn times are exponential with
    mean ``mean_good`` / ``mean_bad`` seconds and the state is advanced lazily
    to the reception time.  This models the time-correlated outages a heavy
    environmental-noise trace produces.
    """

    def __init__(
        self,
        loss_good: float = 0.02,
        loss_bad: float = 0.8,
        mean_good: float = 8.0,
        mean_bad: float = 2.0,
    ):
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} {value} outside [0, 1]")
        if mean_good <= 0 or mean_bad <= 0:
            raise ConfigError("mean state sojourns must be positive")
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        # (state, time at which the current state expires) per link
        self._state: Dict[Tuple[int, int], Tuple[bool, float]] = {}

    def _advance(self, rng: random.Random, link: Tuple[int, int], bad: bool,
                 expires: float, time: float) -> bool:
        """Step an expired link to its state at ``time``; True when BAD."""
        while expires <= time:
            bad = not bad
            mean = self.mean_bad if bad else self.mean_good
            expires += rng.expovariate(1.0 / mean)
        self._state[link] = (bad, expires)
        return bad

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        link = (sender, receiver)
        rng = self._streams.get(link) if rngs is self._rngs else None
        if rng is None:
            rng = self._stream(rngs, link, f"ge/{sender}-{receiver}")
        bad, expires = self._state.get(link, (False, 0.0))
        if expires <= time:
            bad = self._advance(rng, link, bad, expires, time)
        return rng.random() < (self.loss_bad if bad else self.loss_good)


class CompositeLoss(LossModel):
    """A reception survives only if every component model lets it through.

    Used for the multi-hop grids: static per-link PRR (distance + shadowing)
    composed with time-correlated ambient bursts (the meyer-heavy-style
    environmental noise that makes even short links lossy at times).
    """

    def __init__(self, *models: LossModel):
        if not models:
            raise ConfigError("CompositeLoss needs at least one component")
        self.models = models

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        for m in self.models:
            if m.should_drop(rngs, sender, receiver, frame, time):
                return True
        return False


class SyntheticNoiseTrace:
    """Bursty ambient-noise process (substitution for ``meyer-heavy.txt``).

    A two-state Markov modulation (quiet/heavy) selects the noise mean; the
    instantaneous noise is Gaussian around that mean.  Values are derived
    deterministically per time-bin so all receivers observe the same ambient
    environment, as a shared noise trace would provide.
    """

    def __init__(
        self,
        rngs: RngRegistry,
        bin_seconds: float = 0.05,
        quiet_dbm: float = -98.0,
        heavy_dbm: float = -82.0,
        sigma_db: float = 3.0,
        p_enter_heavy: float = 0.08,
        p_exit_heavy: float = 0.25,
    ):
        self._rng = rngs.get("noise-trace")
        self.bin_seconds = bin_seconds
        self.quiet_dbm = quiet_dbm
        self.heavy_dbm = heavy_dbm
        self.sigma_db = sigma_db
        self.p_enter_heavy = p_enter_heavy
        self.p_exit_heavy = p_exit_heavy
        self._bins: Dict[int, float] = {}
        self._last_bin = -1
        self._heavy = False

    def noise_at(self, time: float) -> float:
        """Noise floor (dBm) in the bin containing ``time``."""
        index = int(time / self.bin_seconds)
        value = self._bins.get(index)
        if value is None:
            # Advance the modulation chain up to this bin.
            while self._last_bin < index:
                self._last_bin += 1
                if self._heavy:
                    if self._rng.random() < self.p_exit_heavy:
                        self._heavy = False
                else:
                    if self._rng.random() < self.p_enter_heavy:
                        self._heavy = True
                mean = self.heavy_dbm if self._heavy else self.quiet_dbm
                self._bins[self._last_bin] = self._rng.gauss(mean, self.sigma_db)
            value = self._bins[index]
        return value


def snr_to_prr(snr_db: float, frame_bytes: int = 36) -> float:
    """Map SNR to packet-reception ratio with a mica2-style sigmoid.

    A logistic approximation of the NCFSK bit-error curve: PRR ≈ 0 below
    ~2 dB, ≈ 1 above ~10 dB, matching empirical mica2 link studies.
    """
    ber = 1.0 / (1.0 + math.exp(1.2 * (snr_db - 5.5)))
    prr = (1.0 - ber) ** (8.0 * frame_bytes / 8.0)
    return max(0.0, min(1.0, prr))


def noise_trace_prr_map(
    topology: "Topology",
    rngs: RngRegistry,
    trace: SyntheticNoiseTrace,
    samples: int = 200,
) -> Dict[Tuple[int, int], float]:
    """Average a noise trace into per-link loss probabilities.

    For each link, sample the trace at ``samples`` time points and average
    the instantaneous PRR given the link's received signal strength.
    """
    loss: Dict[Tuple[int, int], float] = {}
    for (u, v), rx_dbm in topology.link_rx_power.items():
        total = 0.0
        for s in range(samples):
            noise = trace.noise_at(s * trace.bin_seconds * 7.0)
            total += snr_to_prr(rx_dbm - noise)
        loss[(u, v)] = 1.0 - total / samples
    return loss
