"""Regular pitch lattice, contiguity neighbourhoods and binary spatial weights."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import InvalidDimension, IsolatedCell, as_float64

__all__ = list(_HOMES["grid"])

# (xmin, ymin, xmax, ymax) in normalized field coordinates
DEFAULT_EXTENT = (0.0, 0.0, 100.0, 100.0)

SCHEMES = ("rook", "queen")


def check_extent(extent) -> tuple[float, float, float, float]:
    """The extent rule: (xmin, ymin, xmax, ymax) floats of finite width and height > 0."""
    xmin, ymin, xmax, ymax = extent = tuple(as_float64(extent, "extent").tolist())
    if not (0 < xmax - xmin < np.inf and 0 < ymax - ymin < np.inf):
        raise InvalidDimension(f"degenerate extent {extent!r}")
    return extent


@dataclass(frozen=True)
class PitchGrid:
    """Regular lattice over the field, row-major flat indexing.

    ``rows`` counts cells across the field width (y axis), ``cols`` across
    the field length (x axis). Cell ``(r, c)`` has flat index ``r * cols + c``.
    Both are ints of at least 2. ``extent``, of finite width and height > 0, is
    stored as a tuple of floats, so two grids are equal exactly when they describe one lattice.
    """

    rows: int
    cols: int
    extent: tuple[float, float, float, float] = DEFAULT_EXTENT

    def __post_init__(self):
        try:
            object.__setattr__(self, "rows", operator.index(self.rows))
            object.__setattr__(self, "cols", operator.index(self.cols))
        except TypeError:
            raise InvalidDimension(
                f"grid sizes must be ints, got {self.rows!r}x{self.cols!r}") from None
        if self.rows < 2 or self.cols < 2:
            raise InvalidDimension(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
        object.__setattr__(self, "extent", check_extent(self.extent))

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def cell_width(self) -> float:
        xmin, _, xmax, _ = self.extent
        return (xmax - xmin) / self.cols

    @property
    def cell_height(self) -> float:
        _, ymin, _, ymax = self.extent
        return (ymax - ymin) / self.rows

    def cell_centers(self) -> np.ndarray:
        """Cell center coordinates as an (n, 2) array in flat-index order."""
        xmin, ymin, _, _ = self.extent
        cx = xmin + (np.arange(self.cols) + 0.5) * self.cell_width
        cy = ymin + (np.arange(self.rows) + 0.5) * self.cell_height
        xs, ys = np.meshgrid(cx, cy)
        return np.column_stack([xs.ravel(), ys.ravel()])


class WeightsMatrix:
    """Binary contiguity weights over ``n`` cells, from ``(i, j)`` neighbour pairs.

    Each pair is stored both ways, duplicates once. The n-by-n 0/1 matrix,
    symmetric with a zero diagonal, is held as a C-contiguous ``(width, n)``
    intp table whose column ``i`` lists cell ``i``'s neighbours in ascending
    order, padded with ``n``; ``width`` is the largest neighbour count. ``grid``
    is the :class:`PitchGrid` the weights lie on, or None; ``scale`` is Lee's
    normalizer n / sum_i (sum_j w_ij)^2. ``n`` < 1, a self-pair or an index
    outside [0, n) raises ``ValueError``, a cell with no neighbour :class:`IsolatedCell`.
    """

    def __init__(self, n: int, pairs, grid=None):
        if n < 1:
            raise ValueError(f"weights need n >= 1 cells, got n = {n}")
        try:
            p = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
        except OverflowError:  # an index intp cannot hold
            raise ValueError(f"neighbour index outside [0, {n})") from None
        same = p[:, 0] == p[:, 1]
        if same.any():
            raise ValueError(f"self-neighbour entry {tuple(p[same.argmax()].tolist())}")
        if p.size and (p.min() < 0 or p.max() >= n):
            raise ValueError(f"neighbour index outside [0, {n})")
        # one key per directed entry, row-major: sorted, they list each row's neighbours in
        # order (a sort and a mask: numpy 2's np.unique hashes first, far slower on these keys)
        keys = np.sort(np.concatenate((p[:, 0] * n + p[:, 1], p[:, 1] * n + p[:, 0])))
        rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        counts = np.bincount(rows, minlength=n)
        if not counts.all():
            raise IsolatedCell(f"cell {int(np.argmin(counts))} has no neighbours")
        table = np.full((int(counts.max()), n), n, dtype=np.intp)
        # rank of each entry within its row
        table[np.arange(rows.size) - (np.cumsum(counts) - counts)[rows], rows] = cols
        table.flags.writeable = False
        row_sums = counts.astype(np.float64)
        row_sums.flags.writeable = False
        self._table, self._row_sums, self.grid = table, row_sums, grid
        self.scale = n / float(row_sums @ row_sums)

    @property
    def n(self) -> int:
        return self._table.shape[1]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._table != self.n))

    def row_sums(self) -> np.ndarray:
        """Neighbour count of each cell as float64; a read-only array."""
        return self._row_sums

    def lag(self, values: np.ndarray) -> np.ndarray:
        """Spatial lag: for each cell i, sum_j w_ij * values[j].

        Each cell's sum starts at 0.0 and adds its neighbours' values one at
        a time in ascending index order, then the padding's 0.0. The order is
        fixed so that every statistic built on the lag is reproducible to the
        bit; numpy's ``sum`` would reassociate the terms.
        """
        padded = np.zeros(self.n + 1)
        padded[:-1] = values
        out = np.zeros(self.n)
        for row in padded[self._table]:
            out += row
        return out

    def to_dense(self) -> np.ndarray:
        n = self.n
        dense = np.zeros((n, n + 1))
        dense[np.arange(n), self._table] = 1.0
        return dense[:, :n].copy()


def build_grid(rows: int, cols: int, extent=DEFAULT_EXTENT) -> PitchGrid:
    """Construct the pitch lattice.

    Parameters
    ----------
    rows, cols : int
        Cell counts along field width and length; both must be >= 2.
    extent : tuple
        (xmin, ymin, xmax, ymax) of the normalized field.

    Raises
    ------
    InvalidDimension
        If rows or cols is not an int >= 2, or the extent is not of finite width/height > 0.
    """
    return PitchGrid(rows, cols, extent)


def adjacency(grid: PitchGrid, scheme: str = "queen") -> WeightsMatrix:
    """Binary contiguity weights for the grid, recording it as their ``grid``.

    ``rook`` joins cells sharing an edge; ``queen`` additionally joins cells
    sharing only a corner; any other ``scheme`` is refused. The result is
    symmetric with zero diagonal.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be {' or '.join(SCHEMES)}, got {scheme!r}")
    # the forward lattice steps, edge-sharing first; the weights store each pair both ways
    dr, dc = np.array([(0, 1), (1, 0), (1, -1), (1, 1)][:4 if scheme == "queen" else 2]).T
    row, col = np.divmod(np.arange(grid.n), grid.cols)
    nr, nc = row[:, None] + dr, col[:, None] + dc
    cells, step = np.nonzero((nr < grid.rows) & (0 <= nc) & (nc < grid.cols))
    return WeightsMatrix(grid.n, np.column_stack((cells, (nr * grid.cols + nc)[cells, step])), grid)
