"""Activity CSV parsing and kernel rasterization onto the shared pitch lattice."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    EmptyInput,
    MalformedHeatmap,
    MalformedRecord,
    NonpositiveBandwidth,
    ZeroMass,
)
from .grid import DEFAULT_EXTENT, PitchGrid

__all__ = [
    "ActivityPoint",
    "Heatmap",
    "DropCounts",
    "parse_activity_csv",
    "parse_activity_groups",
    "rasterize",
    "normalize",
    "heatmap_to_json",
    "heatmap_from_json",
    "MIN_BANDWIDTH",
]

CSV_HEADER = ["player_id", "x", "y", "value"]

# clamp to avoid delta-function degeneracy as bandwidth -> 0
MIN_BANDWIDTH = 1e-3

# required fields of a heatmap JSON document and their JSON types
_HEATMAP_FIELDS = {"player_id": str, "rows": int, "cols": int, "cells": list, "normalized": bool}


class ActivityPoint(NamedTuple):
    """One centroid record: field position and nonnegative activity weight."""

    x: float
    y: float
    value: float


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Per-player activity over the cells of a shared grid.

    ``grid_ref`` is the :attr:`PitchGrid.key` of the grid the cells refer to.
    ``cells`` is a length-n float vector in flat-index order. When
    ``normalized`` is true the cells sum to 1 and read as time proportions.
    """

    player_id: str
    grid_ref: tuple
    cells: np.ndarray
    normalized: bool = False


@dataclass(frozen=True)
class DropCounts:
    """Rows rejected during parsing, by reason."""

    out_of_extent: int = 0
    negative_value: int = 0

    @property
    def total(self) -> int:
        return self.out_of_extent + self.negative_value


def _open_text(source):
    if hasattr(source, "read"):
        first = source.read(0)
        if isinstance(first, bytes):
            return io.TextIOWrapper(source, encoding="utf-8"), False
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def parse_activity_groups(source, extent=DEFAULT_EXTENT):
    """Parse a combined activity CSV, grouping rows by player id.

    ``source`` is a path or an open stream with header
    ``player_id,x,y,value``. Rows outside the extent or with a negative
    value are dropped and counted; non-numeric fields abort the parse.

    Returns
    -------
    groups : dict[str, list[ActivityPoint]]
        Players in first-seen order.
    drops : DropCounts

    Raises
    ------
    MalformedRecord
        On a bad header or non-numeric x/y/value field.
    EmptyInput
        When no valid rows remain.
    """
    xmin, ymin, xmax, ymax = extent
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput("activity CSV has no header") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise MalformedRecord(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        groups: dict[str, list[ActivityPoint]] = {}
        out_of_extent = 0
        negative = 0
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise MalformedRecord(f"line {lineno}: expected 4 fields, got {len(row)}")
            pid = row[0].strip()
            try:
                x, y, value = (float(f) for f in row[1:])
            except ValueError:
                raise MalformedRecord(f"line {lineno}: non-numeric field in {row!r}") from None
            if not all(math.isfinite(v) for v in (x, y, value)):
                raise MalformedRecord(f"line {lineno}: non-finite field in {row!r}")
            if value < 0:
                negative += 1
                continue
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                out_of_extent += 1
                continue
            groups.setdefault(pid, []).append(ActivityPoint(x, y, value))
        if not groups:
            raise EmptyInput("activity CSV has no valid rows")
        return groups, DropCounts(out_of_extent=out_of_extent, negative_value=negative)
    finally:
        if owned:
            stream.close()


def parse_activity_csv(source, extent=DEFAULT_EXTENT):
    """Parse a single-player activity CSV.

    Returns (player_id, points, drops); raises ValueError if the file
    mixes several player ids.
    """
    groups, drops = parse_activity_groups(source, extent=extent)
    if len(groups) != 1:
        raise ValueError(
            f"expected one player per file, found {sorted(groups)}; "
            "use parse_activity_groups for combined files"
        )
    player_id, points = next(iter(groups.items()))
    return player_id, points, drops


def rasterize(points, grid: PitchGrid, bandwidth: float, player_id: str = "") -> Heatmap:
    """Smooth weighted centroids onto the grid with an isotropic Gaussian kernel.

    Each cell receives ``sum_p value_p * K_h(center - p)`` where ``K_h`` is a
    Gaussian density with standard deviation ``max(bandwidth, MIN_BANDWIDTH)``
    in field units, evaluated at the cell center. No edge correction is
    applied, so densities near the touchlines are attenuated equally for all
    players. Points are accumulated in a canonical order with compensated
    summation, making the output bitwise reproducible and independent of the
    input ordering.

    Raises
    ------
    EmptyInput
        If ``points`` is empty.
    NonpositiveBandwidth
        If ``bandwidth`` <= 0.
    """
    points = list(points)
    if not points:
        raise EmptyInput("rasterize needs at least one activity point")
    if bandwidth <= 0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    h = max(float(bandwidth), MIN_BANDWIDTH)

    centers = grid.cell_centers()
    cx, cy = centers[:, 0], centers[:, 1]
    norm = 1.0 / (2.0 * math.pi * h * h)
    inv_two_h2 = 1.0 / (2.0 * h * h)

    acc = np.zeros(grid.n)
    comp = np.zeros(grid.n)
    for p in sorted(points):
        d2 = (cx - p.x) ** 2 + (cy - p.y) ** 2
        contrib = (p.value * norm) * np.exp(-d2 * inv_two_h2)
        # Kahan step, one term per point and cell
        t = contrib - comp
        s = acc + t
        comp = (s - acc) - t
        acc = s
    return Heatmap(player_id=player_id, grid_ref=grid.key, cells=acc, normalized=False)


def normalize(h: Heatmap) -> Heatmap:
    """Scale cells to sum to 1. Idempotent; all-zero heatmaps are rejected.

    Raises
    ------
    ZeroMass
        If the cells sum to 0.
    """
    if h.normalized:
        return h
    total = float(h.cells.sum())
    if total <= 0.0:
        raise ZeroMass(f"heatmap {h.player_id!r} has zero total activity")
    return replace(h, cells=h.cells / total, normalized=True)


def heatmap_to_json(h: Heatmap) -> dict:
    rows, cols, _ = h.grid_ref
    return {
        "player_id": h.player_id,
        "rows": rows,
        "cols": cols,
        "cells": [float(v) for v in h.cells],
        "normalized": bool(h.normalized),
    }


def heatmap_from_json(doc: dict, extent=DEFAULT_EXTENT) -> Heatmap:
    """Rebuild a heatmap from its JSON document.

    The document carries only rows/cols; the extent comes from the caller's
    configuration and defaults to the normalized field.

    Raises
    ------
    MalformedHeatmap
        If the document is not an object, or a required field is missing
        or has the wrong type; the message names the field.
    ValueError
        If the cell count does not match rows * cols, or a cell is negative
        or non-finite.
    """
    if not isinstance(doc, dict):
        raise MalformedHeatmap(f"heatmap must be a JSON object, got {type(doc).__name__}")
    for key, kind in _HEATMAP_FIELDS.items():
        if key not in doc:
            raise MalformedHeatmap(f"heatmap is missing field {key!r}")
        value = doc[key]
        # bool is a subclass of int, but true is not a row count
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise MalformedHeatmap(
                f"heatmap field {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc["cells"]):
        raise MalformedHeatmap("heatmap field 'cells' must hold only numbers")
    rows, cols = doc["rows"], doc["cols"]
    cells = np.asarray(doc["cells"], dtype=np.float64)
    if cells.shape[0] != rows * cols:
        raise ValueError(
            f"heatmap {doc.get('player_id')!r} has {cells.shape[0]} cells, "
            f"expected {rows * cols}"
        )
    if not np.all(np.isfinite(cells)) or cells.min() < 0:
        raise ValueError(f"heatmap {doc.get('player_id')!r} has invalid cell values")
    grid = PitchGrid(rows=rows, cols=cols, extent=tuple(float(v) for v in extent))
    return Heatmap(
        player_id=doc["player_id"],
        grid_ref=grid.key,
        cells=cells,
        normalized=doc["normalized"],
    )
