"""CSV persistence for the paper's edge-list format.

Two plain CSV layouts:

* the **arc file** mirrors Algorithm 1's ``r x 3`` array — columns
  ``start,end,color`` with ``0`` = trading (black) and ``1`` = influence
  (blue), influence rows first;
* the optional **node file** carries ``node,color`` rows so isolated
  nodes and Person/Company colors survive a round trip.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TextIO

from repro.errors import SerializationError
from repro.fusion.tpiin import TPIIN
from repro.graph.edgelist import COLOR_INFLUENCE, COLOR_TRADING, EdgeList
from repro.model.colors import VColor

__all__ = [
    "write_edge_list_csv",
    "read_edge_list_csv",
    "write_tpiin_csv",
    "read_tpiin_csv",
]


def write_edge_list_csv(edge_list: EdgeList, path: str | Path) -> Path:
    """Write the arc rows (paper layout) to ``path``."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["start", "end", "color"])
        nodes = edge_list.nodes
        for tail_ix, head_ix, color in edge_list.array:
            writer.writerow([nodes[int(tail_ix)], nodes[int(head_ix)], int(color)])
    return path


def _open_csv(path: Path) -> TextIO:
    """Open an input CSV; a missing or unreadable file is a typed error."""
    try:
        return path.open(newline="")
    except OSError as exc:
        raise SerializationError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_edge_list_csv(path: str | Path) -> EdgeList:
    """Read an arc CSV back into an :class:`EdgeList`."""
    path = Path(path)
    rows: list[tuple[str, str, int]] = []
    with _open_csv(path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["start", "end", "color"]:
            raise SerializationError(
                f"{path}: expected header 'start,end,color', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise SerializationError(f"{path}:{lineno}: expected 3 columns")
            try:
                color = int(row[2])
            except ValueError as exc:
                raise SerializationError(
                    f"{path}:{lineno}: color {row[2]!r} is not an integer"
                ) from exc
            if color not in (COLOR_TRADING, COLOR_INFLUENCE):
                raise SerializationError(f"{path}:{lineno}: unknown color {color}")
            rows.append((row[0], row[1], color))
    # Stable node indexing: first-seen order, influence block first is
    # preserved by sorting rows on color (influence=1 first) like the
    # paper's layout requires.
    rows.sort(key=lambda r: -r[2])
    index_of: dict[str, int] = {}
    for tail, head, _color in rows:
        for node in (tail, head):
            if node not in index_of:
                index_of[node] = len(index_of)
    import numpy as np

    array = np.array(
        [[index_of[t], index_of[h], c] for t, h, c in rows], dtype=np.int64
    ).reshape(len(rows), 3)
    return EdgeList(array, list(index_of))


def write_tpiin_csv(tpiin: TPIIN, arc_path: str | Path, node_path: str | Path) -> None:
    """Write a TPIIN as an arc CSV plus a node-color CSV."""
    write_edge_list_csv(tpiin.to_edge_list(), arc_path)
    node_path = Path(node_path)
    with node_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node", "color"])
        for node in tpiin.graph.nodes():
            color = tpiin.graph.node_color(node)
            writer.writerow([node, getattr(color, "value", color)])


def read_tpiin_csv(arc_path: str | Path, node_path: str | Path) -> TPIIN:
    """Rebuild a TPIIN from the two CSV files."""
    edge_list = read_edge_list_csv(arc_path)
    node_path = Path(node_path)
    colors: dict[str, VColor] = {}
    with _open_csv(node_path) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["node", "color"]:
            raise SerializationError(
                f"{node_path}: expected header 'node,color', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise SerializationError(f"{node_path}:{lineno}: expected 2 columns")
            try:
                colors[row[0]] = VColor(row[1])
            except ValueError as exc:
                raise SerializationError(
                    f"{node_path}:{lineno}: unknown node color {row[1]!r}"
                ) from exc
    tpiin = TPIIN.from_edge_list(edge_list, node_colors=colors)
    for node, color in colors.items():
        if not tpiin.graph.has_node(node):
            tpiin.graph.add_node(node, color)
    return tpiin
