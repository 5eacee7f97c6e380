"""Activity CSV parsing and kernel rasterization onto the shared pitch lattice."""

from __future__ import annotations

import csv
import io
import itertools
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

# points per matrix product in rasterize: bounds its kernel factors at
# _POINT_CHUNK * (rows + cols) floats whatever the number of points
_POINT_CHUNK = 8192

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
        appends = {}  # player id -> bound append of its list in groups
        isfinite = math.isfinite
        # tuple.__new__ builds the namedtuple without its Python-level __new__
        make = tuple.__new__
        out_of_extent = 0
        negative = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                raise MalformedRecord(f"line {lineno}: expected 4 fields, got {len(row)}")
            try:
                x = float(row[1])
                y = float(row[2])
                value = float(row[3])
            except ValueError:
                raise MalformedRecord(f"line {lineno}: non-numeric field in {row!r}") from None
            if not (isfinite(x) and isfinite(y) and isfinite(value)):
                raise MalformedRecord(f"line {lineno}: non-finite field in {row!r}")
            if value < 0:
                negative += 1
                continue
            if not (xmin <= x <= xmax and ymin <= y <= ymax):
                out_of_extent += 1
                continue
            pid = row[0].strip()
            append = appends.get(pid)
            if append is None:
                append = appends[pid] = groups.setdefault(pid, []).append
            append(make(ActivityPoint, (x, y, value)))
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


def _axis_factor(p: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """``exp(-a (p_i - c_j)²)`` as a (len(p), len(c)) array, built in one buffer."""
    k = np.subtract.outer(p, c)
    k *= k
    k *= -a
    return np.exp(k, out=k)


def rasterize(points, grid: PitchGrid, bandwidth: float, player_id: str = "") -> Heatmap:
    """Smooth weighted centroids onto the grid with an isotropic Gaussian kernel.

    Each cell receives ``sum_p value_p * K_h(center - p)`` where ``K_h`` is a
    Gaussian density with standard deviation ``max(bandwidth, MIN_BANDWIDTH)``
    in field units, evaluated at the cell center. No edge correction is
    applied, so densities near the touchlines are attenuated equally for all
    players.

    The kernel factors by axis, ``exp(-(dx² + dy²)/2h²) = exp(-dx²/2h²) ·
    exp(-dy²/2h²)``, so the sum is a matrix product
    ``(K_y · diag(value))ᵀ · K_x`` over per-point row and column factors, not
    compensated summation; it is taken over fixed-size chunks of points,
    which bounds memory. Points are first put in canonical (x, y, value)
    order, so the output is bitwise reproducible and independent of the
    input ordering. It agrees with the direct kernel sum to about 1e-13
    relative.

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

    m = len(points)
    flat = np.fromiter(itertools.chain.from_iterable(points), np.float64, count=3 * m)
    # one contiguous row per field: lexsort's last key is its primary one
    fields = flat.reshape(m, 3).T.copy()
    px, py, value = fields[:, np.lexsort(fields[::-1])]

    # flat-index order: row 0 holds every column's x, column 0 every row's y
    centers = grid.cell_centers()
    cx = centers[: grid.cols, 0]
    cy = centers[:: grid.cols, 1]
    a = 1.0 / (2.0 * h * h)
    norm = 1.0 / (2.0 * math.pi * h * h)
    cells = np.zeros((grid.rows, grid.cols))
    for s in range(0, m, _POINT_CHUNK):
        chunk = slice(s, s + _POINT_CHUNK)
        kx = _axis_factor(px[chunk], cx, a)
        ky = _axis_factor(py[chunk], cy, a)
        ky *= (value[chunk] * norm)[:, None]
        cells += ky.T @ kx
    return Heatmap(player_id=player_id, grid_ref=grid.key, cells=cells.ravel(), normalized=False)


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
