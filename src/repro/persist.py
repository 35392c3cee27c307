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
``src/`` code neither opens artifact files for writing nor calls an
fs-mutating ``os`` function anywhere else.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Iterable, List, Union

from repro.errors import PersistError

__all__ = [
    "atomic_write_text",
    "atomic_write_json",
    "atomic_write_jsonl",
    "atomic_append_jsonl",
    "read_jsonl",
    "PersistError",
]

_log = logging.getLogger("repro.persist")

# Read the last 4 KiB when hunting for the newline that terminates the last
# complete record; torn tails are at most one record long.
_TAIL_CHUNK = 4096


def _write_all(fd: int, data: bytes, path: str) -> None:
    """Write every byte of ``data``, looping on short writes.

    ``os.write`` may write fewer bytes than asked (signals, quota edges,
    near-full disks); silently accepting a short count would truncate a
    record.  A zero-progress write or an OSError mid-record surfaces as a
    typed :class:`PersistError` carrying how many bytes actually landed, so
    callers can distinguish "nothing happened" from "a torn tail is now on
    disk".
    """
    view = memoryview(data)
    written = 0
    while written < len(view):
        try:
            n = os.write(fd, bytes(view[written:]))
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


def _fsync_parent_dir(target: Path) -> None:
    """Flush the directory entry so a completed rename survives power loss.

    POSIX only — directories cannot be opened for fsync on Windows, where
    ``os.replace`` already implies the needed metadata flush semantics for
    our single-writer journals.
    """
    if os.name != "posix":  # pragma: no cover - exercised on POSIX CI only
        return
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    fd = os.open(str(target.parent) or ".", flags)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
    tmp = _temp_path(target)
    data = text.encode(encoding)
    try:
        fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fd, data, str(tmp))
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(str(tmp), str(target))
    except BaseException:
        # The temp file is garbage on any failure (including KeyboardInterrupt
        # between write and rename) — remove it so retries start clean.
        try:
            os.unlink(str(tmp))
        except OSError:
            pass
        raise
    _fsync_parent_dir(target)
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
    journal written through this function can never contain a torn line.
    Append-heavy journals (the campaign checkpoint) grow through
    :func:`atomic_append_jsonl` instead and use this only to start empty.
    """
    lines = [json.dumps(record, sort_keys=True) for record in records]
    text = "\n".join(lines) + "\n" if lines else ""
    return atomic_write_text(path, text)


def _repair_torn_tail(fd: int, path: str) -> int:
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
    os.ftruncate(fd, keep)
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
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(str(target), os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        _repair_torn_tail(fd, str(target))
        _write_all(fd, line.encode("utf-8"), str(target))
        os.fsync(fd)
    finally:
        os.close(fd)
    return target


def read_jsonl(path: Union[str, Path]) -> List[Any]:
    """Read a JSONL file tolerantly: every parseable record, in order.

    A missing file reads as empty.  A malformed *final* line is a torn tail
    — the expected residue of a crash mid-append, which the next
    :func:`atomic_append_jsonl` truncates away.  Malformed *interior* lines
    are corruption no crash of a sanctioned writer can produce; the records
    after them are still returned.  Each condition logs its own warning, so
    corruption is surfaced, never silently swallowed.
    """
    target = Path(path)
    if not target.exists():
        return []
    records: List[Any] = []
    bad_lines: List[int] = []
    lines = [
        stripped
        for raw in target.read_text(encoding="utf-8").splitlines()
        if (stripped := raw.strip())
    ]
    for i, line in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            bad_lines.append(i)
    if bad_lines and bad_lines[-1] == len(lines) - 1:
        bad_lines.pop()
        _log.warning(
            "%s: torn trailing line (crash mid-append?); kept %d "
            "complete record(s)", target, len(records),
        )
    if bad_lines:
        _log.warning(
            "%s: skipped %d malformed interior line(s) — this is journal "
            "corruption, not a torn tail; kept %d record(s)",
            target, len(bad_lines), len(records),
        )
    return records
