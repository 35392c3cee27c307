"""The small campaign the chaos engine tortures.

A :class:`ChaosWorkload` is a miniature but *complete* exercise of the
durability layer: a deluge + lr-seluge one-hop campaign run inline through
:func:`repro.experiments.executor.run_campaign` with

* the append-only **checkpoint journal** (compacted when a resume finds
  it dirty),
* a **quarantine** record (one deliberately failing cell),
* a per-cell **append-only results store** (``results.jsonl``), and
* a final **aggregate CSV** derived purely from journal-keyed results.

Every cell is a deterministic simulation, so two runs of the same workload
— or a crashed run plus its resume — must produce byte-identical aggregate
CSVs.  That is the anchor invariant the crash-point explorer checks at
every simulated kill.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.experiments.executor import (
    CampaignConfig,
    CampaignOutcome,
    Task,
    run_campaign,
    task_key,
)
from repro.experiments.metrics import RunResult
from repro.experiments.scenarios import OneHopScenario, run_one_hop
from repro.persist import atomic_append_jsonl, atomic_write_text

__all__ = ["ChaosWorkload", "CHAOS_TASK_KIND"]

CHAOS_TASK_KIND = "chaos_one_hop"

# Stable marker for the deliberately failing cell (exercises quarantine).
_FAILING_LABEL = "chaos:failing-cell"


class ChaosCellError(RuntimeError):
    """The scripted failure of the workload's quarantine cell."""


def _run_cell(payload: Dict[str, Any]) -> RunResult:
    """Run one campaign cell and append its summary to the results store.

    Module-level (picklable) so the same workload also runs supervised.
    The append lands *before* the executor journals the checkpoint record,
    so a kill between the two leaves the interesting half-recorded state
    the monotonicity invariant exists to check.
    """
    if payload.get("fail"):
        raise ChaosCellError("chaos workload: scripted cell failure")
    scenario = OneHopScenario(**payload["scenario"])
    result = run_one_hop(scenario)
    atomic_append_jsonl(payload["results_path"], {
        "label": payload["label"],
        "completed": result.completed,
        "latency_s": round(result.latency, 6),
        "data_pkts": result.data_packets,
    })
    return result


def _encode(result: Any) -> Any:
    return result.to_jsonable()


def _decode(data: Any) -> RunResult:
    return RunResult.from_jsonable(data)


@dataclass(frozen=True)
class ChaosWorkload:
    """Parameters of the torture campaign; deterministic per instance."""

    protocols: Tuple[str, ...] = ("deluge", "lr-seluge")
    seeds: Tuple[int, ...] = (1, 2)
    loss_rate: float = 0.1
    receivers: int = 2
    image_size: int = 1024
    k: int = 4
    n: int = 6
    include_failing_cell: bool = True

    # -- (de)serialisation -----------------------------------------------------

    def to_jsonable(self) -> Dict[str, Any]:
        """JSON-safe params dict; :meth:`from_jsonable` restores exactly.

        Crossing the process boundary matters: SIGKILL crash points run the
        workload in a child process built from this payload.
        """
        data = asdict(self)
        data["protocols"] = list(self.protocols)
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ChaosWorkload":
        params = dict(data)
        params["protocols"] = tuple(params.get("protocols", ()))
        params["seeds"] = tuple(int(s) for s in params.get("seeds", ()))
        return cls(**params)

    # -- layout ----------------------------------------------------------------

    @staticmethod
    def checkpoint_dir(root: Union[str, Path]) -> Path:
        return Path(root) / "ckpt"

    @staticmethod
    def results_path(root: Union[str, Path]) -> Path:
        return Path(root) / "results.jsonl"

    @staticmethod
    def csv_path(root: Union[str, Path]) -> Path:
        return Path(root) / "aggregate.csv"

    def journal_paths(self, root: Union[str, Path]) -> List[Path]:
        """Every JSONL store the workload appends to (for the invariants)."""
        ckpt = self.checkpoint_dir(root)
        return [
            ckpt / "checkpoint.jsonl",
            ckpt / "quarantine.jsonl",
            self.results_path(root),
        ]

    # -- tasks -----------------------------------------------------------------

    def tasks(self, root: Union[str, Path]) -> List[Task]:
        results_path = str(self.results_path(root))
        tasks: List[Task] = []
        for protocol in self.protocols:
            for seed in self.seeds:
                scenario = OneHopScenario(
                    protocol=protocol, loss_rate=self.loss_rate,
                    receivers=self.receivers, image_size=self.image_size,
                    k=self.k, n=self.n, seed=seed,
                )
                label = f"{protocol}:seed={seed}"
                payload = {
                    "scenario": asdict(scenario),
                    "label": label,
                    "results_path": results_path,
                }
                # Key from the *scenario only*: stable across roots, so a
                # resumed run in a different directory still joins rows.
                tasks.append(Task(
                    key=task_key(CHAOS_TASK_KIND, asdict(scenario)),
                    runner=_run_cell, payload=payload, label=label,
                ))
        if self.include_failing_cell:
            tasks.append(Task(
                key=task_key(CHAOS_TASK_KIND, {"fail": True}),
                runner=_run_cell,
                payload={"fail": True, "label": _FAILING_LABEL,
                         "results_path": results_path},
                label=_FAILING_LABEL,
            ))
        return tasks

    # -- execution -------------------------------------------------------------

    def run(self, root: Union[str, Path], resume: bool = False) -> bytes:
        """Run (or resume) the campaign under ``root``; returns the CSV bytes.

        The aggregate is assembled from journal-keyed results — quarantined
        cells degrade to ``nan`` rows — then written atomically, matching
        how real sweeps derive figures from campaign outcomes.
        """
        root = Path(root)
        config = CampaignConfig(
            processes=None,
            max_retries=0,
            checkpoint_dir=self.checkpoint_dir(root),
            resume=resume,
        )
        tasks = self.tasks(root)
        outcome = run_campaign(tasks, config, encode=_encode, decode=_decode)
        csv = self._aggregate_csv(tasks, outcome)
        atomic_write_text(self.csv_path(root), csv)
        return csv.encode("utf-8")

    def _aggregate_csv(
        self, tasks: List[Task], outcome: CampaignOutcome
    ) -> str:
        lines = ["label,completed,latency_s,data_pkts"]
        for task in sorted(tasks, key=lambda t: t.label):
            result = outcome.results.get(task.key)
            if result is None:
                lines.append(f"{task.label},NO,nan,nan")
            else:
                lines.append(
                    f"{task.label},{'yes' if result.completed else 'NO'},"
                    f"{result.latency:.6f},{result.data_packets}"
                )
        return "\n".join(lines) + "\n"
