"""Packet-loss models.

The paper's one-hop evaluation emulates losses at the application layer:
every received data/advertisement/SNACK packet is dropped independently with
probability ``p`` (Section VI-A).  :class:`BernoulliLoss` reproduces exactly
that.  Multi-hop grids use :class:`PerLinkLoss` with per-link reception
probabilities produced by a propagation model (see
:mod:`repro.net.topology`); with ambient noise on, one
:class:`GilbertElliottLoss` carrying that per-link map adds bursty,
time-correlated losses in the spirit of the TinyOS ``meyer-heavy`` noise
trace (our documented substitution) behind the static drop.

Models draw from the named streams ``loss/{receiver}``, ``loss/{s}-{r}`` and
``ge/{s}-{r}`` of the run's registry, each resolved once per link per registry
and kept, so a decision formats no name and does no registry lookup.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

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


def _check_loss_map(loss_map: Dict[Tuple[int, int], float]) -> None:
    for link, p in loss_map.items():
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"loss probability {p} for link {link} outside [0, 1]")


class PerLinkLoss(LossModel):
    """Per-directed-link drop probabilities (from a propagation model).

    Holds a live reference to ``loss_map`` rather than a copy: components
    that extend the topology after radio construction (the attack engine
    splicing adversary links into ``Topology.link_loss``) must be visible
    here, or the new links fall through to ``default`` and go silent.
    """

    def __init__(self, loss_map: Dict[Tuple[int, int], float], default: float = 1.0):
        _check_loss_map(loss_map)
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
    """Two-state bursty channel per directed link, optionally behind a
    static per-link loss.

    Each link is an independent Gilbert-Elliott chain: GOOD state drops with
    ``loss_good``, BAD with ``loss_bad``; sojourn times are exponential with
    mean ``mean_good`` / ``mean_bad`` seconds and the state is advanced lazily
    to the reception time.  This models the time-correlated outages a heavy
    environmental-noise trace produces.

    With a ``loss_map`` (the multi-hop grids) a frame first takes the
    link's static drop exactly as :class:`PerLinkLoss` decides it, on stream
    ``loss/{s}-{r}`` and with ``p`` read from the live map on every decision
    (a link missing from the map always drops, as under ``PerLinkLoss``'s
    default); only a frame that survives takes the chain's draw on
    ``ge/{s}-{r}``.
    """

    def __init__(
        self,
        loss_good: float = 0.02,
        loss_bad: float = 0.8,
        mean_good: float = 8.0,
        mean_bad: float = 2.0,
        loss_map: Optional[Dict[Tuple[int, int], float]] = None,
    ):
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} {value} outside [0, 1]")
        if mean_good <= 0 or mean_bad <= 0:
            raise ConfigError("mean state sojourns must be positive")
        if loss_map is not None:
            _check_loss_map(loss_map)
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.mean_good = mean_good
        self.mean_bad = mean_bad
        self.loss_map = loss_map
        self._rate_good = 1.0 / mean_good
        self._rate_bad = 1.0 / mean_bad
        # Per link: [loss stream, ge stream, BAD?, time the state expires].
        self._links: Dict[Tuple[int, int], List[Any]] = {}

    def _rebind(self, rngs: RngRegistry) -> None:
        """Resolve every known link's streams in ``rngs``; chains carry on."""
        self._rngs = rngs
        for (sender, receiver), link in self._links.items():
            link[0], link[1] = self._link_streams(rngs, sender, receiver)

    def _link_streams(self, rngs: RngRegistry, sender: int,
                      receiver: int) -> Tuple[Optional[random.Random], random.Random]:
        loss = (rngs.get(f"loss/{sender}-{receiver}")
                if self.loss_map is not None else None)
        return loss, rngs.get(f"ge/{sender}-{receiver}")

    def should_drop(
        self, rngs: RngRegistry, sender: int, receiver: int, frame: Frame, time: float
    ) -> bool:
        if rngs is not self._rngs:
            self._rebind(rngs)
        key = (sender, receiver)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = [
                *self._link_streams(rngs, sender, receiver), False, 0.0]
        loss_map = self.loss_map
        if loss_map is not None:
            p = loss_map.get(key, 1.0)
            if not p <= 0.0 and (p >= 1.0 or link[0].random() < p):
                return True
        ge = link[1]
        if link[3] <= time:
            bad, expires = link[2], link[3]
            while expires <= time:
                bad = not bad
                expires += ge.expovariate(self._rate_bad if bad else self._rate_good)
            link[2], link[3] = bad, expires
        return ge.random() < (self.loss_bad if link[2] else self.loss_good)


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
