"""Activity CSV parsing and kernel rasterization onto the shared pitch lattice."""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from . import _HOMES
from .errors import (
    EmptyInput,
    MalformedHeatmap,
    MalformedRecord,
    ZeroMass,
    as_float64,
    check_bandwidth,
)
from .grid import DEFAULT_EXTENT, PitchGrid, build_grid, check_extent

__all__ = list(_HOMES["heatmap"])

CSV_HEADER = ["player_id", "x", "y", "value"]

# clamp to avoid delta-function degeneracy as bandwidth -> 0
MIN_BANDWIDTH = 1e-3

# points per matrix product in rasterize: bounds its kernel factors at
# _POINT_CHUNK * (rows + cols) floats whatever the number of points
_POINT_CHUNK = 8192

# body lines per np.loadtxt call in parse_activity_groups: bounds the parse's
# working memory whatever the file size
_BLOCK_LINES = 4096

_ROW_DTYPE = np.dtype(
    [("player_id", object), ("x", np.float64), ("y", np.float64), ("value", np.float64)]
)

# required fields of a heatmap JSON document and their JSON types
_HEATMAP_FIELDS = {"player_id": str, "rows": int, "cols": int, "cells": list, "normalized": bool}


@dataclass(frozen=True, eq=False)
class Heatmap:
    """Per-player activity over the cells of a shared grid.

    ``grid`` is the :class:`PitchGrid` the cells lie on. ``cells`` is kept as
    a read-only float64 copy, one value per grid cell in flat-index order; a
    wrong count, a negative or a non-finite cell raises ``ValueError``.
    ``normalized`` is read from the cells: true when they sum to 1 within
    1e-12, so that they read as time proportions.
    """

    player_id: str
    grid: PitchGrid
    cells: np.ndarray

    def __post_init__(self):
        cells = as_float64(self.cells, f"heatmap {self.player_id!r}").ravel().copy()
        if cells.shape[0] != self.grid.n:
            raise ValueError(f"heatmap {self.player_id!r} has {cells.shape[0]} cells, "
                             f"expected {self.grid.n}")
        if not np.all(np.isfinite(cells)) or cells.min() < 0:
            raise ValueError(f"heatmap {self.player_id!r} has invalid cell values")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def normalized(self) -> bool:
        with np.errstate(over="ignore"):  # finite cells may sum to inf
            return abs(float(self.cells.sum()) - 1.0) <= 1e-12


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
    return open(source, "r", encoding="utf-8-sig", newline=""), True


def _plain_block(lines: list[str]):
    """``(ids, xyz, len(lines))`` of whole lines from one ``np.loadtxt`` call, or None.

    Returns None when a line is over ``csv.field_size_limit()``, a quote is
    open at the end, or a field is one ``np.loadtxt`` refuses or non-finite:
    only :func:`_csv_block` reads those and reports them with their line number.
    """
    text = "".join(lines)
    if not text.strip("\r\n"):
        return [], (), len(lines)  # blank lines only; np.loadtxt would warn of no data
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=_ROW_DTYPE, comments=None,
                          quotechar='"', ndmin=1)
    except ValueError:
        return None
    xyz = np.column_stack((rows["x"], rows["y"], rows["value"]))
    if not np.isfinite(xyz).all():
        return None
    return rows["player_id"], xyz, len(lines)


def _csv_block(lines, n, first: int):
    """Read ``lines`` through ``csv.reader`` up to the first record that ends
    on or past line ``n``, so a quoted field may run on past line ``n``.

    ``first`` is the number of the first line; a bad record is reported with
    the number of its own first line. Returns the records' ids, their x, y,
    value fields as one flat ``array('d')``, and the number of lines read.
    """
    reader = csv.reader(lines)
    ids, xyz = [], array("d")
    add_id, add_xyz = ids.append, xyz.extend
    isfinite = math.isfinite
    read = 0  # lines before the current record
    try:
        for row in reader:
            if len(row) == 4:
                try:
                    x, y, value = fields = float(row[1]), float(row[2]), float(row[3])
                except ValueError:
                    raise MalformedRecord(
                        f"line {first + read}: non-numeric field in {row!r}") from None
                if not (isfinite(x) and isfinite(y) and isfinite(value)):
                    raise MalformedRecord(f"line {first + read}: non-finite field in {row!r}")
                add_id(row[0])
                add_xyz(fields)
            elif row and (len(row) > 1 or row[0].strip()):
                raise MalformedRecord(f"line {first + read}: expected 4 fields, got {len(row)}")
            read = reader.line_num
            if read >= n:
                break
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise MalformedRecord(f"line {first + read}: {exc}") from None
    return ids, xyz, read


def _add_batch(pieces: dict[str, list[np.ndarray]], extent, ids, xyz) -> tuple[int, int]:
    """Append a batch's accepted rows to each player's piece list in ``pieces``.

    ``extent`` holds the checked (xmin, ymin, xmax, ymax) floats, ``ids`` the
    rows' raw player ids and ``xyz`` their x, y, value fields, flat or as
    ``(m, 3)``. Returns the numbers of rows dropped as out of extent and as negative.
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    x, y, value = xyz.T
    xmin, ymin, xmax, ymax = extent
    negative = value < 0
    inside = (xmin <= x) & (x <= xmax) & (ymin <= y) & (y <= ymax)
    kept = np.flatnonzero(inside & ~negative)
    # a row both negative and out of extent counts as negative
    n_negative = int(np.count_nonzero(negative))

    # strip each distinct raw id once; number the players by first sighting
    ids = np.asarray(ids, dtype=object)[kept].tolist()
    players = []  # each player's piece list in pieces, by number
    number_of_raw = {}
    number_of_pid = {}
    for raw in dict.fromkeys(ids):
        pid = raw.strip()
        number = number_of_pid.get(pid)
        if number is None:
            number = number_of_pid[pid] = len(players)
            players.append(pieces.setdefault(pid, []))
        number_of_raw[raw] = number
    numbers = np.fromiter(map(number_of_raw.__getitem__, ids), np.intp, len(ids))
    # a stable sort keeps each player's rows in file order
    order = np.argsort(numbers, kind="stable")
    ends = np.cumsum(np.bincount(numbers, minlength=len(players)))
    # copies, so no piece keeps the whole batch's array alive
    for player, piece in zip(players, np.split(xyz[kept[order]], ends[:-1])):
        player.append(piece.copy())
    return len(xyz) - n_negative - len(kept), n_negative


def _lines_then_raise(lines, exc):
    """Yield ``lines``, then raise ``exc``, as the stream they came from did."""
    yield from lines
    raise exc


def parse_activity_groups(source, extent=DEFAULT_EXTENT):
    """Parse a combined activity CSV, grouping rows by player id.

    ``source`` is a path to UTF-8 text, with or without the byte order mark
    of a spreadsheet's "CSV UTF-8" export, or an open text stream; the header
    is ``player_id,x,y,value``. Rows outside the extent or with a negative
    value are dropped and counted; non-numeric fields abort the parse.

    The body is read in blocks of ``_BLOCK_LINES`` lines, each parsed by one
    ``np.loadtxt`` call, quotes included. A block with a line over
    ``csv.field_size_limit()``, a quote open at its end, a non-finite field
    or anything else ``np.loadtxt`` refuses is read by ``csv.reader`` alone,
    on past its last line to the end of a quoted field that runs on; the next
    block goes to ``np.loadtxt`` again. Both readers' rows pass the same drop
    and grouping step, so the result and every error message are those of
    one ``csv.reader`` loop over the whole body. Errors name the first
    physical line of the bad record.

    Returns
    -------
    groups : dict[str, numpy.ndarray]
        Each player's accepted rows as a C-contiguous ``(m, 3)`` float64
        array of ``(x, y, value)``, in file order, players in first-seen
        order.
    drops : DropCounts

    Raises
    ------
    InvalidDimension
        If the extent is not of finite width and height > 0, as for :class:`PitchGrid`.
    MalformedRecord
        On a bad header, a row without 4 fields, a non-numeric or non-finite
        x/y/value field, or a field over ``csv.field_size_limit()``.
    EmptyInput
        When no valid rows remain.
    """
    extent = check_extent(extent)
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput("activity CSV has no header") from None
        except csv.Error as exc:
            raise MalformedRecord(f"line 1: {exc}") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise MalformedRecord(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}"
            )
        pieces: dict[str, list[np.ndarray]] = {}  # player id -> (m, 3) pieces in file order
        drops = np.zeros(2, np.int64)  # rows dropped out of extent, negative
        lineno = reader.line_num + 1
        while True:
            block = []
            try:
                block.extend(islice(stream, _BLOCK_LINES))
            except (OSError, UnicodeDecodeError) as exc:
                # the rows read before the failure are checked first; then
                # the reader meets exc where the stream raised it
                _csv_block(_lines_then_raise(block, exc), math.inf, lineno)
            if not block:
                break
            ids, xyz, n = (_plain_block(block)
                           or _csv_block(chain(block, stream), len(block), lineno))
            drops += _add_batch(pieces, extent, ids, xyz)
            lineno += n
        if not pieces:
            raise EmptyInput("activity CSV has no valid rows")
        # popping frees each player's pieces once joined, not after the last
        groups = {pid: np.concatenate(pieces.pop(pid)) for pid in list(pieces)}
        return groups, DropCounts(*drops.tolist())
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
        If ``points`` is not of shape ``(m, 3)``, or a row has a non-finite
        field or a negative value.
    NonpositiveBandwidth
        If ``bandwidth`` is not finite and > 0.
    ZeroMass
        If the kernel sum overflows, so that a cell is not finite.
    """
    points = as_float64(points, "points array")
    if points.size == 0:
        raise EmptyInput("rasterize needs at least one activity point")
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"points must have shape (m, 3), got {points.shape}")
    bad = ~np.isfinite(points).all(axis=1) | (points[:, 2] < 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"points row {i} has a non-finite field or a negative value: "
                         f"{tuple(points[i].tolist())}")
    check_bandwidth(bandwidth)
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
    # an overflow leaves inf cells, and NaN where inf meets a factor of 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, m, _POINT_CHUNK):
            chunk = slice(s, s + _POINT_CHUNK)
            kx = _axis_factor(px[chunk], cx, a)
            ky = _axis_factor(py[chunk], cy, a)
            ky *= (value[chunk] * norm)[:, None]
            cells += ky.T @ kx
        if not np.isfinite(cells).all():
            raise _no_mass(player_id, float(cells.sum()))
    return Heatmap(player_id=player_id, grid=grid, cells=cells)


def normalize(h: Heatmap) -> Heatmap:
    """Scale cells to sum to 1; a heatmap that is already normalized is returned as it is.

    Raises
    ------
    ZeroMass
        If the cells do not sum to a finite number > 0 (a sum that
        overflows to inf would scale every cell to 0).
    """
    if h.normalized:
        return h
    with np.errstate(over="ignore"):
        total = float(h.cells.sum())
    if not 0.0 < total < math.inf:
        raise _no_mass(h.player_id, total)
    return replace(h, cells=h.cells / total)


def _no_mass(player_id: str, total: float) -> ZeroMass:
    return ZeroMass(f"heatmap {player_id!r} has total activity {total}, not finite and > 0")


def heatmap_to_json(h: Heatmap) -> dict:
    return {
        "player_id": h.player_id,
        "rows": h.grid.rows,
        "cols": h.grid.cols,
        "cells": h.cells.tolist(),
        "normalized": h.normalized,
    }


def heatmap_from_json(doc: dict, extent=DEFAULT_EXTENT) -> Heatmap:
    """Rebuild a heatmap from its JSON document.

    The document carries only rows/cols; the extent comes from the caller's
    configuration and defaults to the normalized field. Its required
    ``normalized`` flag is informational: the heatmap reads it from the cells.

    Raises
    ------
    MalformedHeatmap
        If the document is not an object, a required field is missing or
        has the wrong type, or the player id is not UTF-8 text; the message
        names the field.
    InvalidDimension
        If rows or cols is below 2.
    ValueError
        If :class:`Heatmap` refuses the cells.
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
    # a lone surrogate is valid JSON and a valid str, but has no UTF-8 form
    if any("\ud800" <= ch <= "\udfff" for ch in doc["player_id"]):
        raise MalformedHeatmap("heatmap field 'player_id' must be UTF-8 text")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in doc["cells"]):
        raise MalformedHeatmap("heatmap field 'cells' must hold only numbers")
    grid = build_grid(doc["rows"], doc["cols"], extent)
    return Heatmap(player_id=doc["player_id"], grid=grid, cells=doc["cells"])
