"""FaultyFS: the deterministic filesystem fault injector.

A :class:`FaultyFS` implements the :class:`repro.persist.FileSystem` seam and
sits between the persist helpers and the real ``os`` syscalls.  Every disk
*mutation* (open-for-write, write, fsync, replace, truncate, unlink) becomes
a numbered :class:`OpRecord`; faults fire either at a fixed operation index
(the crash-point explorer's mode) or wherever a :class:`~repro.chaos.
schedule.FaultSchedule` says (the replayable random-injection mode).

Fault semantics, chosen to mirror what real storage does:

* ``enospc`` / ``eio`` — the operation fails with the matching ``OSError``
  and **no bytes reach the disk**; the caller sees the error.
* ``short`` — a write persists only a prefix and returns the short count,
  exactly as POSIX permits; the persist layer's short-write loop must finish
  the record.
* ``crash`` — simulated process death *before* the operation takes effect.
  Exploring "crash before op *k*" for every *k* covers every distinct
  on-disk state a kill can produce, because the disk state after op *k-1*
  completes is identical to the state just before op *k* starts.
* ``torn`` — death *mid-write*: a prefix of the data lands, then the
  process dies.  This is the one state "before/after" enumeration cannot
  reach, so the explorer runs it as a separate mode over write ops.

Death is modelled two ways: ``crash_action="raise"`` raises
:class:`ChaosCrash` — a ``BaseException`` so no campaign retry logic
(``except Exception``) can absorb it — and freezes the filesystem (every
later mutation also dies, the way a dead process stops touching disk);
``crash_action="sigkill"`` delivers a real ``SIGKILL`` to the current
process, generalising the single-point kill-resume test to any operation.
"""

from __future__ import annotations

import errno
import os
import signal
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.persist import FileSystem

__all__ = ["ChaosCrash", "OpRecord", "FaultyFS", "FAULT_KINDS"]

FAULT_KINDS = ("enospc", "eio", "short", "crash", "torn")


class ChaosCrash(BaseException):
    """Simulated process death at one filesystem operation.

    Deliberately a ``BaseException``: the campaign executor retries task
    failures caught as ``Exception``, and a simulated kill must behave like
    a real one — nothing in the dying process may handle it, only the
    explorer that staged it.
    """

    def __init__(self, op: "OpRecord") -> None:
        super().__init__(
            f"simulated crash at fs op #{op.index}: {op.op} {op.path}"
        )
        self.op = op


@dataclass(frozen=True)
class OpRecord:
    """One numbered disk mutation as seen at the persist seam."""

    index: int
    op: str          # "open" | "write" | "fsync" | "replace" | "truncate" | "unlink"
    path: str
    detail: str = ""  # e.g. "n=123" for writes, the destination for replaces

    def describe(self) -> str:
        text = f"#{self.index} {self.op} {self.path}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class FaultyFS(FileSystem):
    """A :class:`~repro.persist.FileSystem` that injects scheduled faults.

    ``crash_at``/``crash_mode`` stage one deterministic death for the
    crash-point explorer; ``schedule`` drives replayable random injection.
    Both may be ``None``, which turns the instance into a pure recorder —
    the explorer's enumeration pass.  ``ops`` accumulates every mutation
    performed (or died at) in order.
    """

    schedule: Optional[object] = None          # FaultSchedule (duck-typed)
    crash_at: Optional[int] = None
    crash_mode: str = "before"                 # "before" | "torn"
    crash_action: str = "raise"                # "raise" | "sigkill"
    inner: FileSystem = field(default_factory=FileSystem)
    ops: List[OpRecord] = field(default_factory=list)
    dead: bool = False

    def __post_init__(self) -> None:
        self._fd_paths: Dict[int, str] = {}

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, op: str, path: str, detail: str = "") -> OpRecord:
        rec = OpRecord(index=len(self.ops), op=op, path=path, detail=detail)
        self.ops.append(rec)
        return rec

    def _die(self, rec: OpRecord) -> None:
        if self.crash_action == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
        self.dead = True
        raise ChaosCrash(rec)

    def _fault_for(self, rec: OpRecord) -> Optional[str]:
        if self.crash_at is not None and rec.index == self.crash_at:
            if self.crash_mode == "torn" and rec.op == "write":
                return "torn"
            return "crash"
        if self.schedule is not None:
            kind = self.schedule.fault_for(rec)  # type: ignore[attr-defined]
            if kind is not None:
                return str(kind)
        return None

    def _enter(self, op: str, path: str, detail: str = "") -> OpRecord:
        """Record the op; die if the process already crashed; apply faults
        common to non-write ops.  Returns the record for write()'s own
        fault handling."""
        if self.dead:
            # A dead process performs no further mutations: re-raise at the
            # first op attempted after the staged death (unwind handlers
            # hit this).
            raise ChaosCrash(OpRecord(len(self.ops), op, path, "post-mortem"))
        return self._record(op, path, detail)

    def _apply_simple_fault(self, rec: OpRecord) -> None:
        kind = self._fault_for(rec)
        if kind in ("crash", "torn"):
            self._die(rec)
        if kind == "enospc":
            raise OSError(errno.ENOSPC,
                          f"no space left on device (chaos {rec.describe()})")
        if kind in ("eio", "short"):
            # A short read-modify op degenerates to EIO for non-writes.
            raise OSError(errno.EIO, f"i/o error (chaos {rec.describe()})")

    # -- the seam --------------------------------------------------------------

    def open(self, path: str, flags: int, mode: int = 0o644) -> int:
        rec = self._enter("open", path)
        self._apply_simple_fault(rec)
        fd = self.inner.open(path, flags, mode)
        self._fd_paths[fd] = path
        return fd

    def write(self, fd: int, data: bytes) -> int:
        path = self._fd_paths.get(fd, f"fd={fd}")
        rec = self._enter("write", path, f"n={len(data)}")
        kind = self._fault_for(rec)
        if kind == "crash":
            self._die(rec)
        if kind == "torn":
            n = len(data) // 2
            if n > 0:
                self.inner.write(fd, data[:n])
            self._die(rec)
        if kind == "enospc":
            raise OSError(errno.ENOSPC,
                          f"no space left on device (chaos {rec.describe()})")
        if kind == "eio":
            raise OSError(errno.EIO, f"i/o error (chaos {rec.describe()})")
        if kind == "short" and len(data) > 1:
            return self.inner.write(fd, data[: len(data) // 2])
        return self.inner.write(fd, data)

    def fsync(self, fd: int) -> None:
        rec = self._enter("fsync", self._fd_paths.get(fd, f"fd={fd}"))
        self._apply_simple_fault(rec)
        self.inner.fsync(fd)

    def close(self, fd: int) -> None:
        # Closing mutates nothing durable, so it is neither recorded nor
        # faulted — and it still works after a staged death, so in-process
        # exploration does not leak file descriptors across crash points.
        self._fd_paths.pop(fd, None)
        self.inner.close(fd)

    def replace(self, src: str, dst: str) -> None:
        rec = self._enter("replace", src, f"-> {dst}")
        self._apply_simple_fault(rec)
        self.inner.replace(src, dst)

    def truncate(self, fd: int, length: int) -> None:
        rec = self._enter("truncate", self._fd_paths.get(fd, f"fd={fd}"),
                          f"len={length}")
        self._apply_simple_fault(rec)
        self.inner.truncate(fd, length)

    def unlink(self, path: str) -> None:
        rec = self._enter("unlink", path)
        self._apply_simple_fault(rec)
        self.inner.unlink(path)

    # -- introspection ---------------------------------------------------------

    def op_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for rec in self.ops:
            counts[rec.op] = counts.get(rec.op, 0) + 1
        return dict(sorted(counts.items()))
