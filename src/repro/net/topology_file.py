"""TinyOS-style topology file I/O.

The paper's multi-hop experiments load ``15-15-tight-mica2-grid.txt`` /
``15-15-medium-mica2-grid.txt`` — TinyOS/TOSSIM topology files.  Those
artifacts are not shipped with the paper, but supporting the *format* lets
users plug in their own site surveys (and lets us persist/share the
regenerated grids).  We support two line-oriented record types, ``#``
comments and blank lines ignored:

``node <id> <x> <y>``
    A node position in meters.

``link <src> <dst> <value>``
    Directed link quality.  ``value`` is a packet-reception ratio in
    [0, 1] by default, or a TOSSIM-style gain in dBm when ``gain=True``
    (then PRR is derived through the propagation model's SNR curve).

:func:`save_topology` writes this format; :func:`load_topology` reads it.
A round-trip preserves positions and link loss exactly (PRR mode).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError
from repro.net.topology import PropagationModel, Topology

__all__ = ["load_topology", "save_topology"]

PathLike = Union[str, Path]


def save_topology(topo: Topology, path: PathLike) -> None:
    """Write ``topo`` as a TinyOS-style topology file (PRR link values)."""
    lines: List[str] = [
        f"# topology: {topo.name}",
        f"# nodes: {topo.size}  links: {len(topo.link_loss)}",
    ]
    for node_id in topo.node_ids:
        x, y = topo.positions[node_id]
        lines.append(f"node {node_id} {x:.4f} {y:.4f}")
    for (u, v), loss in sorted(topo.link_loss.items()):
        lines.append(f"link {u} {v} {1.0 - loss:.6f}")
    from repro.persist import atomic_write_text

    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def load_topology(
    path: PathLike,
    name: str = "",
    gain: bool = False,
    model: Optional[PropagationModel] = None,
) -> Topology:
    """Parse a TinyOS-style topology file.

    With ``gain=True`` the link values are received powers in dBm (TOSSIM
    gain-model style) and PRR is derived via ``model`` (default
    :class:`PropagationModel`).
    """
    model = model or PropagationModel()
    positions: Dict[int, Tuple[float, float]] = {}
    links: List[Tuple[int, int, float]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read topology file {path}: {exc.strerror}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0].lower()
        try:
            if kind == "node":
                if len(fields) != 4:
                    raise ValueError("expected: node <id> <x> <y>")
                positions[int(fields[1])] = (float(fields[2]), float(fields[3]))
            elif kind == "link":
                if len(fields) != 4:
                    raise ValueError("expected: link <src> <dst> <value>")
                links.append((int(fields[1]), int(fields[2]), float(fields[3])))
            else:
                raise ValueError(f"unknown record type {kind!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc

    topo = Topology(
        positions=positions,
        name=name or Path(path).stem,
    )
    for node_id in positions:
        topo.neighbors[node_id] = []
    for u, v, value in links:
        if u not in positions or v not in positions:
            raise ConfigError(f"link {u}->{v} references an unknown node")
        if gain:
            prr = model.prr(value)
            rx = value
        else:
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"link {u}->{v}: PRR {value} outside [0, 1] "
                    f"(did you mean gain=True?)"
                )
            prr = value
            rx = model.noise_floor_dbm + 10.0  # nominal; unknown in PRR mode
        if prr <= 0.0:
            continue
        topo.neighbors[u].append(v)
        topo.link_loss[(u, v)] = 1.0 - prr
        topo.link_rx_power[(u, v)] = rx
    return topo
