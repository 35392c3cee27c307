"""Exception hierarchy for the repro package."""

from typing import Dict, Optional

__all__ = [
    "ReproError",
    "SimulationError",
    "SimulationRunawayError",
    "CodingError",
    "DecodeError",
    "AuthenticationError",
    "ConfigError",
    "PersistError",
    "ProtocolError",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulator (past scheduling, reentrancy...)."""


class SimulationRunawayError(SimulationError):
    """A watchdog guard tripped: the simulation exceeded its event or time budget.

    Raised by :class:`repro.sim.engine.Simulator` when a livelocked protocol
    would otherwise run (and hang a campaign worker) forever.  The structured
    payload — events executed, simulated time, and the event-heap statistics
    at the moment the guard fired — travels with the exception so supervisors
    can record *why* a task was killed, not just that it died.
    """

    def __init__(
        self,
        message: str,
        *,
        events: int = 0,
        sim_time: float = 0.0,
        heap_stats: Optional[Dict[str, int]] = None,
    ) -> None:
        super().__init__(message)
        self.events = events
        self.sim_time = sim_time
        self.heap_stats: Dict[str, int] = dict(heap_stats or {})


class CodingError(ReproError):
    """Invalid erasure-code parameters or encode-side failure."""


class DecodeError(CodingError):
    """Decoding failed: not enough packets or inconsistent symbols."""


class AuthenticationError(ReproError):
    """A packet, signature, Merkle path, or puzzle failed verification."""


class ConfigError(ReproError):
    """Inconsistent or out-of-range configuration values."""


class PersistError(ReproError):
    """A durable write through :mod:`repro.persist` failed.

    Raised instead of a bare :class:`OSError` when the sanctioned persistence
    layer cannot complete a write — typically ENOSPC or EIO.  The
    structured payload says *how far* the write got: ``partial_bytes > 0``
    on an append means a torn trailing record may now exist on disk (which
    the next append repairs), while ``partial_bytes == 0`` means the target
    file is untouched.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Optional[str] = None,
        partial_bytes: Optional[int] = None,
        errno: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.path = path
        self.partial_bytes = partial_bytes
        self.errno = errno


class ProtocolError(ReproError):
    """Protocol state-machine violation (e.g. serving a page not possessed)."""
