"""Activity CSV parsing and kernel rasterization onto the shared pitch lattice."""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    EmptyInput,
    MalformedHeatmap,
    MalformedRecord,
    NonpositiveBandwidth,
    ZeroMass,
)
from .grid import DEFAULT_EXTENT, PitchGrid, build_grid

__all__ = [
    "Heatmap",
    "DropCounts",
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
        return source, False
    return open(source, "r", encoding="utf-8", newline=""), True


def parse_activity_groups(source, extent=DEFAULT_EXTENT):
    """Parse a combined activity CSV, grouping rows by player id.

    ``source`` is a path or an open text stream with header
    ``player_id,x,y,value``. Rows outside the extent or with a negative
    value are dropped and counted; non-numeric fields abort the parse.

    Returns
    -------
    groups : dict[str, numpy.ndarray]
        Each player's accepted rows as a C-contiguous ``(m, 3)`` float64
        array of ``(x, y, value)``, players in first-seen order.
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
        groups: dict[str, array] = {}  # player id -> flat x, y, value buffer
        extends = {}  # player id -> bound extend of its buffer in groups
        isfinite = math.isfinite
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
            extend = extends.get(pid)
            if extend is None:
                extend = extends[pid] = groups.setdefault(pid, array("d")).extend
            extend((x, y, value))
        if not groups:
            raise EmptyInput("activity CSV has no valid rows")
        # views of the buffers, not copies
        arrays = {pid: np.frombuffer(buf).reshape(-1, 3) for pid, buf in groups.items()}
        return arrays, DropCounts(out_of_extent=out_of_extent, negative_value=negative)
    finally:
        if owned:
            stream.close()


def _axis_factor(p: np.ndarray, c: np.ndarray, a: float) -> np.ndarray:
    """``exp(-a (p_i - c_j)²)`` as a (len(p), len(c)) array, built in one buffer."""
    k = np.subtract.outer(p, c)
    k *= k
    k *= -a
    return np.exp(k, out=k)


def rasterize(points, grid: PitchGrid, bandwidth: float, player_id: str = "") -> Heatmap:
    """Smooth weighted centroids onto the grid with an isotropic Gaussian kernel.

    ``points`` is an ``(m, 3)`` array-like of ``(x, y, value)`` rows, such as
    a player's array from :func:`parse_activity_groups`. Each cell receives
    ``sum_p value_p * K_h(center - p)`` where ``K_h`` is a Gaussian density
    with standard deviation ``max(bandwidth, MIN_BANDWIDTH)`` in field units,
    evaluated at the cell center. No edge correction is applied, so
    densities near the touchlines are attenuated equally for all players.

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
    ValueError
        If ``points`` is not of shape ``(m, 3)``.
    NonpositiveBandwidth
        If ``bandwidth`` is not > 0 (NaN included).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise EmptyInput("rasterize needs at least one activity point")
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (m, 3), got {points.shape}")
    if not bandwidth > 0:
        raise NonpositiveBandwidth(f"bandwidth must be > 0, got {bandwidth}")
    h = max(float(bandwidth), MIN_BANDWIDTH)

    m = len(points)
    # canonical (x, y, value) order: lexsort's last key is its primary one
    px, py, value = points[np.lexsort(points.T[::-1])].T

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
    InvalidDimension
        If rows or cols is below 2.
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
    grid = build_grid(doc["rows"], doc["cols"], extent)
    try:
        cells = np.asarray(doc["cells"], dtype=np.float64)
    except OverflowError:
        raise MalformedHeatmap(
            "heatmap field 'cells' holds a number too large for float64"
        ) from None
    if cells.shape[0] != grid.n:
        raise ValueError(
            f"heatmap {doc.get('player_id')!r} has {cells.shape[0]} cells, "
            f"expected {grid.n}"
        )
    if not np.all(np.isfinite(cells)) or cells.min() < 0:
        raise ValueError(f"heatmap {doc.get('player_id')!r} has invalid cell values")
    return Heatmap(
        player_id=doc["player_id"],
        grid_ref=grid.key,
        cells=cells,
        normalized=doc["normalized"],
    )
