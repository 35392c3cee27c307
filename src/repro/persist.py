"""Crash-safe artifact persistence: the sanctioned atomic-write helper.

Every result-shaped artifact this repository writes — run manifests, figure
CSV/JSON exports, benchmark JSON, structured traces, campaign checkpoints —
goes through this module, so a process killed mid-write can never leave a
truncated or half-updated file behind.  The recipe is the classic one:

1. write the full content to a temporary file *in the target directory*
   (same filesystem, so the rename below is atomic),
2. flush and ``fsync`` the temporary file,
3. ``replace`` it over the target (atomic on POSIX and Windows),
4. ``fsync`` the target's parent directory, so the *rename itself* is
   durable across power loss (a metadata-only change lives in the directory
   inode, which step 3 does not flush).

A reader therefore always sees either the previous complete artifact or the
new complete artifact, never a mix.  replint rule REP012 enforces that
``src/`` code does not open artifact files for writing anywhere else, and
REP019 enforces that raw filesystem syscalls stay behind this module's
:class:`FileSystem` seam.

The seam is the storage chaos engine's interposition point
(:mod:`repro.chaos`): every byte this module moves goes through the active
:class:`FileSystem`, so a :class:`repro.chaos.FaultyFS` installed with
:func:`use_fs` can deterministically inject ENOSPC, EIO, short writes, and
crash points into any persist operation without monkeypatching ``os``.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Union
from contextlib import contextmanager

from repro.errors import PersistError

__all__ = [
    "FileSystem",
    "current_fs",
    "use_fs",
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_jsonl",
    "atomic_append_jsonl",
    "read_jsonl",
    "read_jsonl_report",
    "JsonlReport",
    "PersistError",
]

_log = logging.getLogger("repro.persist")

# Read the last 4 KiB when hunting for the newline that terminates the last
# complete record; torn tails are at most one record long.
_TAIL_CHUNK = 4096


class FileSystem:
    """The raw syscall surface persist uses — one method per fs operation.

    The default instance delegates straight to ``os``.  The chaos engine
    substitutes a :class:`repro.chaos.FaultyFS` via :func:`use_fs`; rules
    REP012/REP019 keep every artifact write in ``src/`` behind this seam, so
    swapping the instance interposes on *all* durable state the repository
    produces.
    """

    def open(self, path: str, flags: int, mode: int = 0o644) -> int:
        return os.open(path, flags, mode)

    def write(self, fd: int, data: bytes) -> int:
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def close(self, fd: int) -> None:
        os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def truncate(self, fd: int, length: int) -> None:
        os.ftruncate(fd, length)

    def unlink(self, path: str) -> None:
        os.unlink(path)


_REAL_FS = FileSystem()
_active_fs: FileSystem = _REAL_FS


def current_fs() -> FileSystem:
    """The filesystem seam persist operations currently run through."""
    return _active_fs


@contextmanager
def use_fs(fs: FileSystem) -> Iterator[FileSystem]:
    """Install ``fs`` as the active seam for the duration of the block.

    This is how the chaos engine interposes: process-local, re-entrant
    (nesting restores the previous seam), and never leaks past the block
    even when a simulated crash unwinds through it.
    """
    global _active_fs
    previous = _active_fs
    _active_fs = fs
    try:
        yield fs
    finally:
        _active_fs = previous


def _write_all(fs: FileSystem, fd: int, data: bytes, path: str) -> None:
    """Write every byte of ``data``, looping on short writes.

    ``os.write`` may write fewer bytes than asked (signals, quota edges,
    near-full disks); silently accepting a short count would truncate a
    record.  A zero-progress write or an OSError mid-record surfaces as a
    typed :class:`PersistError` carrying how many bytes actually landed, so
    callers (and the chaos invariants) can distinguish "nothing happened"
    from "a torn tail is now on disk".
    """
    view = memoryview(data)
    written = 0
    while written < len(view):
        try:
            n = fs.write(fd, bytes(view[written:]))
        except OSError as exc:
            raise PersistError(
                f"write to {path} failed after {written}/{len(data)} bytes: "
                f"{exc}",
                path=path, partial_bytes=written, errno=exc.errno,
            ) from exc
        if n <= 0:
            raise PersistError(
                f"write to {path} made no progress after "
                f"{written}/{len(data)} bytes",
                path=path, partial_bytes=written,
            )
        written += n


def _fsync_parent_dir(fs: FileSystem, target: Path) -> None:
    """Flush the directory entry so a completed rename survives power loss.

    POSIX only — directories cannot be opened for fsync on Windows, where
    ``os.replace`` already implies the needed metadata flush semantics for
    our single-writer journals.
    """
    if os.name != "posix":  # pragma: no cover - exercised on POSIX CI only
        return
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    fd = fs.open(str(target.parent) or ".", flags)
    try:
        fs.fsync(fd)
    finally:
        fs.close(fd)


def _temp_path(target: Path) -> Path:
    """A same-directory temp name; pid-suffixed so concurrent *processes*
    writing different artifacts in one directory cannot collide.  Artifact
    files are single-writer by design, so no in-process uniqueness needed."""
    return target.with_name(f".{target.name}.{os.getpid()}.tmp")


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> Path:
    """Atomically replace ``path`` with ``text`` (temp + fsync + rename + dir fsync)."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    fs = _active_fs
    tmp = _temp_path(target)
    data = text.encode(encoding)
    try:
        fd = fs.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fs, fd, data, str(tmp))
            fs.fsync(fd)
        finally:
            fs.close(fd)
        fs.replace(str(tmp), str(target))
    except BaseException:
        # The temp file is garbage on any failure (including KeyboardInterrupt
        # between write and rename) — remove it so retries start clean.  A
        # simulated crash (ChaosCrash) freezes the fs seam, so under chaos the
        # droppings stay on disk exactly as a real SIGKILL would leave them.
        try:
            fs.unlink(str(tmp))
        except OSError:
            pass
        raise
    _fsync_parent_dir(fs, target)
    return target


def atomic_write_json(
    path: Union[str, Path],
    obj: Any,
    indent: int = 2,
    sort_keys: bool = False,
) -> Path:
    """Atomically write ``obj`` as JSON with a trailing newline."""
    return atomic_write_text(
        path, json.dumps(obj, indent=indent, sort_keys=sort_keys) + "\n"
    )


def atomic_write_jsonl(path: Union[str, Path], records: Iterable[Any]) -> Path:
    """Atomically write an iterable of records as one-line-per-record JSONL.

    The whole file is rewritten through the temp-then-rename path, so a
    journal updated through this function can never contain a torn line.
    Append-heavy journals (the campaign checkpoint) use
    :func:`atomic_append_jsonl` instead and reserve this full rewrite for
    their crash-safe *compaction* step: either the old appended journal or
    the new compacted one is on disk, never a mix.
    """
    lines = [json.dumps(record, sort_keys=True) for record in records]
    text = "\n".join(lines) + "\n" if lines else ""
    return atomic_write_text(path, text)


def _repair_torn_tail(fs: FileSystem, fd: int, path: str) -> int:
    """Truncate a torn trailing record before appending after a crash.

    If the file does not end in a newline, the previous appender died
    mid-record.  Appending after the fragment would turn it into a torn
    *interior* line — permanently corrupting the journal instead of leaving
    a recoverable tail — so the fragment is dropped back to the last
    newline (or to empty).  Returns the number of bytes discarded.
    """
    size = os.lseek(fd, 0, os.SEEK_END)
    if size == 0:
        return 0
    os.lseek(fd, size - 1, os.SEEK_SET)
    if os.read(fd, 1) == b"\n":
        return 0
    # Scan backwards in chunks for the newline ending the last full record.
    end = size - 1  # everything in [keep, size) is the torn fragment
    keep = 0
    pos = end
    while pos > 0:
        start = max(0, pos - _TAIL_CHUNK)
        os.lseek(fd, start, os.SEEK_SET)
        chunk = os.read(fd, pos - start)
        nl = chunk.rfind(b"\n")
        if nl >= 0:
            keep = start + nl + 1
            break
        pos = start
    fs.truncate(fd, keep)
    dropped = size - keep
    _log.warning(
        "repaired torn tail in %s: dropped %d byte(s) of a partial record",
        path, dropped,
    )
    return dropped


def atomic_append_jsonl(path: Union[str, Path], record: Any) -> Path:
    """Append one JSON record to a JSONL file durably.

    Unlike :func:`atomic_write_jsonl`, this does not rewrite the file — it is
    meant for append-only stores that outlive single runs (the campaign
    checkpoint journal).  The
    record is serialised to a single line first, then written with one
    ``O_APPEND`` write (looping on short writes) and fsynced.  POSIX makes
    small O_APPEND writes atomic with respect to other appenders, and a crash
    mid-write can at worst leave one torn *trailing* line, which the read
    path tolerates — earlier records are never damaged.  Before appending,
    any torn tail left by a previous crash is truncated away so the torn
    fragment can never become an unrecoverable interior line.
    """
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    fs = _active_fs
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = fs.open(str(target), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _repair_torn_tail(fs, fd, str(target))
        _write_all(fs, fd, line.encode("utf-8"), str(target))
        fs.fsync(fd)
    finally:
        fs.close(fd)
    return target


@dataclass
class JsonlReport:
    """What a tolerant JSONL read actually found, line by line.

    Resume paths need to tell an *expected* state (a torn trailing line from
    a crash mid-append) from an *alarming* one (malformed lines in the
    journal's interior, which no crash of a sanctioned writer can produce).
    """

    records: List[Any] = field(default_factory=list)
    total_lines: int = 0          # non-empty lines seen
    torn_tail: bool = False       # last non-empty line failed to parse
    skipped_interior: int = 0     # malformed lines *before* the last one

    @property
    def clean(self) -> bool:
        return not self.torn_tail and self.skipped_interior == 0


def read_jsonl_report(path: Union[str, Path]) -> JsonlReport:
    """Read a JSONL file tolerantly and report exactly what was skipped.

    Every parseable record is kept — including records *after* a malformed
    interior line, which the old read path silently discarded.  A malformed
    final line is classified as a torn tail (the expected post-crash state
    of an append-only store); malformed interior lines are counted
    separately so callers can raise the alarm on real corruption.  Both
    conditions log a warning.
    """
    target = Path(path)
    report = JsonlReport()
    if not target.exists():
        return report
    lines = [
        stripped
        for raw in target.read_text(encoding="utf-8").splitlines()
        if (stripped := raw.strip())
    ]
    report.total_lines = len(lines)
    bad_lines: List[int] = []
    for i, line in enumerate(lines):
        try:
            report.records.append(json.loads(line))
        except json.JSONDecodeError:
            bad_lines.append(i)
    if bad_lines:
        if bad_lines[-1] == len(lines) - 1:
            report.torn_tail = True
            bad_lines = bad_lines[:-1]
        report.skipped_interior = len(bad_lines)
        if report.torn_tail:
            _log.warning(
                "%s: torn trailing line (crash mid-append?); kept %d "
                "complete record(s)", target, len(report.records),
            )
        if report.skipped_interior:
            _log.warning(
                "%s: skipped %d malformed interior line(s) — this is journal "
                "corruption, not a torn tail; kept %d record(s)",
                target, report.skipped_interior, len(report.records),
            )
    return report


def read_jsonl(path: Union[str, Path]) -> List[Any]:
    """Read a JSONL file, tolerating torn or malformed lines (records only).

    Convenience wrapper over :func:`read_jsonl_report` for callers that do
    not care why lines were skipped; resume paths that must distinguish a
    torn tail from interior corruption use the report form.
    """
    return read_jsonl_report(path).records
