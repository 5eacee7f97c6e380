"""Regular pitch lattice, contiguity neighbourhoods and binary spatial weights."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension

__all__ = [
    "DEFAULT_EXTENT",
    "PitchGrid",
    "WeightsMatrix",
    "build_grid",
    "adjacency",
]

# (xmin, ymin, xmax, ymax) in normalized field coordinates
DEFAULT_EXTENT = (0.0, 0.0, 100.0, 100.0)

SCHEMES = ("rook", "queen")


@dataclass(frozen=True)
class PitchGrid:
    """Regular lattice over the field, row-major flat indexing.

    ``rows`` counts cells across the field width (y axis), ``cols`` across
    the field length (x axis). Cell ``(r, c)`` has flat index ``r * cols + c``.
    Both are ints of at least 2. ``extent`` is stored as a tuple of floats,
    so two grids are equal exactly when they describe one lattice.
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
        object.__setattr__(self, "extent", tuple(float(v) for v in self.extent))
        xmin, ymin, xmax, ymax = self.extent
        if not (xmax > xmin and ymax > ymin):
            raise InvalidDimension(f"degenerate extent {self.extent!r}")

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
    """Binary contiguity weights over grid cells.

    An n-by-n matrix of 0/1 entries, symmetric with a zero diagonal, held as
    a neighbour table: a C-contiguous ``(width, n)`` intp array whose column
    ``i`` lists cell ``i``'s neighbours in ascending order, padded with
    ``n``. ``width`` is the largest neighbour count, at most 8 on a lattice.

    ``grid`` is the :class:`PitchGrid` that :func:`adjacency` built the
    weights on, or None for :meth:`from_pairs` weights. The constructor
    takes the entries those two build as given: distinct, symmetric,
    off-diagonal ``(rows, cols)`` pairs in row-major order.
    """

    def __init__(self, n: int, rows: np.ndarray, cols: np.ndarray, grid=None):
        counts = np.bincount(rows, minlength=n)
        table = np.full((int(counts.max(initial=0)), n), n, dtype=np.intp)
        # rank of each entry within its row
        table[np.arange(rows.size) - (np.cumsum(counts) - counts)[rows], rows] = cols
        table.flags.writeable = False
        row_sums = counts.astype(np.float64)
        row_sums.flags.writeable = False
        self._table = table
        self._row_sums = row_sums
        self.grid = grid

    @classmethod
    def from_pairs(cls, n: int, pairs):
        """Build from an iterable of (i, j) neighbour pairs, on no grid.

        Each pair is stored symmetrically; duplicates collapse to one 1. No
        n-by-n array is built, so memory follows the pair count.
        """
        p = np.array([(i, j) for i, j in pairs], dtype=np.intp).reshape(-1, 2)
        self_pairs = np.flatnonzero(p[:, 0] == p[:, 1])
        if self_pairs.size:
            i, j = p[self_pairs[0]]
            raise ValueError(f"self-neighbour entry ({i}, {j})")
        if p.size and (p.min() < 0 or p.max() >= n):
            raise ValueError(f"neighbour index outside [0, {n})")
        # one key per directed entry, row-major: sorted keys give each row's
        # neighbours in ascending order
        keys = np.unique(np.concatenate((p[:, 0] * n + p[:, 1], p[:, 1] * n + p[:, 0])))
        return cls(n, *np.divmod(keys, n))

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
        If rows or cols is not an int >= 2, or the extent has nonpositive width/height.
    """
    return PitchGrid(rows, cols, extent)


def adjacency(grid: PitchGrid, scheme: str = "queen") -> WeightsMatrix:
    """Binary contiguity weights for the grid, recording it as their ``grid``.

    ``rook`` joins cells sharing an edge; ``queen`` additionally joins cells
    sharing only a corner. The result is symmetric with zero diagonal.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    # lattice steps in ascending order of their flat offset dr * cols + dc
    # (|dc| < cols), so each cell's neighbours come out in ascending order
    dr, dc = np.array([(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1)
                       if (r or c) and (scheme == "queen" or not (r and c))]).T
    row, col = np.divmod(np.arange(grid.n), grid.cols)
    nr, nc = row[:, None] + dr, col[:, None] + dc
    cells, step = np.nonzero((0 <= nr) & (nr < grid.rows) & (0 <= nc) & (nc < grid.cols))
    return WeightsMatrix(grid.n, cells, (nr * grid.cols + nc)[cells, step], grid)
