"""Run-level metrics matching the paper's five evaluation quantities.

Section VI compares: total data packets, total SNACK packets, total
advertisement packets, total communication cost in bytes (data + SNACK +
advertisement, to account for LR-Seluge's ``n - k`` extra SNACK bits), and
overall dissemination latency (time until every node holds the image).
A run also reports its completion rate (nodes finished / nodes tracked).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Outcome of one simulated dissemination."""

    protocol: str
    completed: bool
    latency: float
    counters: Dict[str, int] = field(default_factory=dict)
    per_node_completion: Dict[int, float] = field(default_factory=dict)
    images_ok: Optional[bool] = None
    seed: int = 0
    n_nodes: Optional[int] = None   # tracked receivers (excludes the base)
    tracked: Optional[Tuple[int, ...]] = None  # ids behind n_nodes, if known

    # -- the paper's five metrics ------------------------------------------------

    @property
    def data_packets(self) -> int:
        return self.counters.get("tx_data", 0) + self.counters.get("tx_signature", 0)

    @property
    def snack_packets(self) -> int:
        return self.counters.get("tx_snack", 0)

    @property
    def adv_packets(self) -> int:
        return self.counters.get("tx_adv", 0)

    @property
    def total_bytes(self) -> int:
        return (
            self.counters.get("tx_data_bytes", 0)
            + self.counters.get("tx_signature_bytes", 0)
            + self.counters.get("tx_snack_bytes", 0)
            + self.counters.get("tx_adv_bytes", 0)
        )

    @property
    def data_bytes(self) -> int:
        return self.counters.get("tx_data_bytes", 0) + self.counters.get(
            "tx_signature_bytes", 0
        )

    # -- completion --------------------------------------------------------------

    @property
    def completion_rate(self) -> Optional[float]:
        """Fraction of tracked nodes that completed (None when untracked).

        Completion events can arrive from nodes outside the tracked set
        (e.g. a late base-station republish, or a caller folding several
        node populations into one recorder); only completions from tracked
        ids count, and the rate is clamped so it can never exceed 1.0.
        """
        if self.n_nodes is None:
            return None
        if self.n_nodes == 0:
            return 1.0
        done = len(self.per_node_completion)
        if self.tracked is not None:
            done = len(set(self.tracked) & set(self.per_node_completion))
        return min(done, self.n_nodes) / self.n_nodes

    def summary_row(self) -> Dict[str, float]:
        """The five paper metrics as a flat dict (for report tables)."""
        return {
            "data_pkts": self.data_packets,
            "snack_pkts": self.snack_packets,
            "adv_pkts": self.adv_packets,
            "total_bytes": self.total_bytes,
            "latency_s": round(self.latency, 2),
        }

    # -- checkpoint (de)serialisation ----------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-safe dict that :meth:`from_jsonable` restores exactly.

        Floats survive JSON round-trips bit-for-bit (repr-shortest encoding),
        so a result replayed from a campaign checkpoint is indistinguishable
        from a freshly computed one — the foundation of byte-identical
        resume.  Int dict keys become strings in JSON and are converted back.
        """
        return {
            "protocol": self.protocol,
            "completed": self.completed,
            "latency": self.latency,
            "counters": dict(self.counters),
            "per_node_completion": {
                str(node): t for node, t in self.per_node_completion.items()
            },
            "images_ok": self.images_ok,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "tracked": list(self.tracked) if self.tracked is not None else None,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_jsonable` output."""
        tracked = data.get("tracked")
        n_nodes = data.get("n_nodes")
        images_ok = data.get("images_ok")
        return cls(
            protocol=str(data.get("protocol", "?")),
            completed=bool(data.get("completed", False)),
            latency=float(data.get("latency", 0.0)),
            counters={
                str(k): int(v)
                for k, v in dict(data.get("counters") or {}).items()
            },
            per_node_completion={
                int(k): float(v)
                for k, v in dict(data.get("per_node_completion") or {}).items()
            },
            images_ok=None if images_ok is None else bool(images_ok),
            seed=int(data.get("seed", 0)),
            n_nodes=None if n_nodes is None else int(n_nodes),
            tracked=None if tracked is None else tuple(int(i) for i in tracked),
        )

    def __str__(self) -> str:  # pragma: no cover - convenience formatting
        status = "ok" if self.completed else "INCOMPLETE"
        return (
            f"{self.protocol}: {status} data={self.data_packets} "
            f"snack={self.snack_packets} adv={self.adv_packets} "
            f"bytes={self.total_bytes} latency={self.latency:.1f}s"
        )
