"""Live campaign telemetry: worker heartbeats -> status file -> watch view.

A long multi-hour campaign run through :func:`repro.experiments.executor.
run_campaign` is a black box today: the checkpoint journal says what
*finished*, but nothing says what the workers are doing right now.  This
module closes that gap with three small pieces:

* workers run a daemon **heartbeat thread** that periodically sends
  ``("hb", {...})`` messages over the *existing* result pipe (sharing it
  with the final result under a lock, so no extra IPC machinery), sampling
  the live simulator through :func:`repro.sim.engine.current_simulator`;
* the supervisor feeds every heartbeat (and task lifecycle edge) into a
  :class:`TelemetryHub`, which maintains a campaign-wide status snapshot —
  tasks done/running/quarantined, per-worker events/s, ETA — and writes it
  atomically (and throttled) to ``<telemetry_dir>/status.json``;
* ``python -m repro.obs watch <dir>`` polls that file and renders a
  plaintext/TTY live view.  The file is the interface: the watcher shares
  no process state with the campaign, so it can run on another terminal,
  after a resume, or against a dead campaign (it just shows the last
  snapshot).

ETA math uses only quantities *stored in the snapshot* (elapsed and done
counts), so the watcher needs no wall-clock of its own — the sanctioned
clock stays inside the executor's stopwatch.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "STATUS_FILENAME",
    "TelemetryHub",
    "render_status",
    "watch",
]

STATUS_FILENAME = "status.json"
STATUS_SCHEMA = 1


class TelemetryHub:
    """Aggregates campaign progress and publishes an atomic status snapshot.

    One hub serves one ``run_campaign`` call.  All methods are supervisor-
    side (single thread); workers never touch the hub — they only send
    heartbeat tuples, which the supervisor relays into :meth:`heartbeat`.
    """

    def __init__(
        self,
        out_dir: Union[str, Path],
        total: int,
        write_every_s: float = 0.5,
    ) -> None:
        from repro.experiments.reporting import stopwatch

        self.out_dir = Path(out_dir)
        self.total = total
        self.done = 0
        self.resumed = 0
        self.quarantined = 0
        self.running: Dict[str, Dict[str, Any]] = {}
        self.write_every_s = write_every_s
        self._last_write = -1.0
        # Degraded-telemetry accounting: status writes that failed (ENOSPC,
        # EIO, injected chaos faults...).  Telemetry is an observability
        # side-channel — a full disk must never kill the campaign, so write
        # failures are counted and surfaced, not raised.
        self.write_errors = 0
        self.last_write_error: Optional[str] = None
        # stopwatch() is the sanctioned wall-clock shim; keep it open for
        # the hub's lifetime so elapsed_s is campaign-relative.
        self._stack = ExitStack()
        self._elapsed = self._stack.enter_context(stopwatch())

    # -- lifecycle edges -------------------------------------------------------

    def task_started(self, key: str, label: str) -> None:
        self.running[key] = {"key": key, "label": label}
        self._publish()

    def task_done(self, key: str) -> None:
        self.running.pop(key, None)
        self.done += 1
        self._publish(force=True)

    def task_resumed(self, key: str) -> None:
        self.done += 1
        self.resumed += 1

    def task_retrying(self, key: str) -> None:
        self.running.pop(key, None)
        self._publish()

    def task_quarantined(self, key: str) -> None:
        self.running.pop(key, None)
        self.quarantined += 1
        self._publish(force=True)

    def heartbeat(self, key: str, beat: Dict[str, Any]) -> None:
        """Fold one worker heartbeat into the live view.

        Per-worker events/s derives from consecutive beats (delta events
        over delta wall time), so a stalled worker shows 0 — exactly the
        signal a live view exists to surface.
        """
        entry = self.running.get(key)
        if entry is None:
            return  # late beat from an already-classified worker
        prev_events = entry.get("events")
        prev_wall = entry.get("wall_s")
        entry.update(beat)
        if (
            isinstance(prev_events, int)
            and isinstance(beat.get("events"), int)
            and isinstance(prev_wall, (int, float))
            and isinstance(beat.get("wall_s"), (int, float))
            and float(beat["wall_s"]) > float(prev_wall)
        ):
            entry["events_per_s"] = round(
                (beat["events"] - prev_events)
                / (float(beat["wall_s"]) - float(prev_wall)),
                1,
            )
        self._publish()

    def close(self) -> None:
        """Final snapshot write and clock release."""
        self._publish(force=True)
        self._stack.close()

    # -- snapshot --------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        from repro.experiments.reporting import utc_now_iso

        elapsed = self._elapsed()
        remaining = self.total - self.done - self.quarantined
        fresh_done = self.done - self.resumed
        eta: Optional[float] = None
        if remaining > 0 and fresh_done > 0 and elapsed > 0:
            # Resumed cells cost ~nothing; scale by cells actually executed.
            eta = round(elapsed / fresh_done * remaining, 1)
        snapshot: Dict[str, Any] = {
            "schema": STATUS_SCHEMA,
            "updated_utc": utc_now_iso(),
            "elapsed_s": round(elapsed, 1),
            "total": self.total,
            "done": self.done,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "running": sorted(
                (dict(entry) for entry in self.running.values()),
                key=lambda e: str(e.get("key")),
            ),
            "eta_s": eta,
        }
        if self.write_errors:
            snapshot["degraded"] = {
                "write_errors": self.write_errors,
                "last_error": self.last_write_error,
            }
        return snapshot

    def _publish(self, force: bool = False) -> None:
        from repro.persist import PersistError, atomic_write_json

        now = self._elapsed()
        if not force and (now - self._last_write) < self.write_every_s:
            return
        self._last_write = now
        try:
            atomic_write_json(self.out_dir / STATUS_FILENAME, self.status())
        except (OSError, PersistError) as exc:
            # Degrade, never abort: the campaign's durability contract is on
            # the checkpoint journal, not the live view.  The failure is
            # noted in the next snapshot that does land (and on the hub for
            # the campaign report).  Writes stay throttled so a dead disk
            # is not hammered on every heartbeat.
            self.write_errors += 1
            self.last_write_error = f"{type(exc).__name__}: {exc}"


# -- the watch view ------------------------------------------------------------


def render_status(status: Dict[str, Any]) -> str:
    """One status snapshot as a plaintext progress panel."""
    from repro.experiments.reporting import format_table

    total = int(status.get("total", 0))
    done = int(status.get("done", 0))
    quarantined = int(status.get("quarantined", 0))
    running = list(status.get("running", []))
    eta = status.get("eta_s")
    width = 30
    finished = done + quarantined
    filled = int(round(width * finished / total)) if total else 0
    bar = "#" * filled + "-" * (width - filled)
    lines = [
        f"campaign progress  [{bar}]  {finished}/{total}",
        f"done {done} ({status.get('resumed', 0)} resumed) | "
        f"running {len(running)} | quarantined {quarantined}",
        f"elapsed {float(status.get('elapsed_s', 0.0)):.1f}s | "
        + (f"eta {float(eta):.1f}s" if eta is not None else "eta -")
        + f" | updated {status.get('updated_utc', '?')}",
    ]
    if running:
        rows: List[List[object]] = [
            [
                str(entry.get("label") or entry.get("key", "?"))[:48],
                entry.get("events", "-"),
                entry.get("sim_time_s", "-"),
                entry.get("events_per_s", "-"),
            ]
            for entry in running
        ]
        lines.append("")
        lines.append(format_table(
            ["task", "events", "sim_t", "events/s"], rows,
            title="running workers",
        ))
    return "\n".join(lines)


def watch(
    telemetry_dir: Union[str, Path],
    interval_s: float = 1.0,
    once: bool = False,
    max_polls: Optional[int] = None,
) -> int:
    """Poll ``status.json`` and print a live view; returns an exit code.

    ``once=True`` renders a single snapshot (test- and script-friendly);
    otherwise the loop redraws every ``interval_s`` until the campaign
    finishes (done + quarantined == total) or ``max_polls`` is exhausted.
    Exit code 2 when no status file exists yet.
    """
    status_path = Path(telemetry_dir) / STATUS_FILENAME
    polls = 0
    while True:
        polls += 1
        if not status_path.exists():
            print(f"error: no status file at {status_path} "  # replint: disable=REP009
                  "(campaign not started, or wrong --telemetry-dir)")
            return 2
        try:
            status = json.loads(status_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            # Mid-replace reads can't happen (writes are atomic), but a
            # foreign/corrupt file can; surface it rather than crash-loop.
            print(f"error: unreadable status file at {status_path}")  # replint: disable=REP009
            return 2
        rendered = render_status(status)
        if not once:
            # ANSI clear keeps the panel in place on a TTY; plain scroll
            # otherwise is still readable.
            print("\x1b[2J\x1b[H", end="")  # replint: disable=REP009
        print(rendered)  # replint: disable=REP009
        finished = (
            int(status.get("done", 0)) + int(status.get("quarantined", 0))
            >= int(status.get("total", 0))
        )
        if once or finished or (max_polls is not None and polls >= max_polls):
            return 0
        time.sleep(interval_s)
