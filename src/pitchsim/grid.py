"""Regular pitch lattice, contiguity neighbourhoods and sparse spatial weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

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
    Both counts must be at least 2.
    """

    rows: int
    cols: int
    extent: tuple[float, float, float, float] = DEFAULT_EXTENT

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise InvalidDimension(f"grid must be at least 2x2, got {self.rows}x{self.cols}")
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

    @property
    def key(self) -> tuple:
        """Hashable grid identity used by heatmaps referencing this grid."""
        return (self.rows, self.cols, tuple(float(v) for v in self.extent))

    def cell_index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        return row * self.cols + col

    def cell_rowcol(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.n):
            raise IndexError(f"flat index {index} outside [0, {self.n})")
        return divmod(index, self.cols)

    def cell_centers(self) -> np.ndarray:
        """Cell center coordinates as an (n, 2) array in flat-index order."""
        xmin, ymin, _, _ = self.extent
        cx = xmin + (np.arange(self.cols) + 0.5) * self.cell_width
        cy = ymin + (np.arange(self.rows) + 0.5) * self.cell_height
        xs, ys = np.meshgrid(cx, cy)
        return np.column_stack([xs.ravel(), ys.ravel()])

    def cell_of(self, x: float, y: float) -> int:
        """Flat index of the cell containing (x, y); boundary points are clipped inward."""
        xmin, ymin, xmax, ymax = self.extent
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            raise ValueError(f"point ({x}, {y}) outside extent {self.extent!r}")
        col = min(int((x - xmin) / self.cell_width), self.cols - 1)
        row = min(int((y - ymin) / self.cell_height), self.rows - 1)
        return self.cell_index(row, col)


class WeightsMatrix:
    """Binary contiguity weights over grid cells.

    Stores an n-by-n CSR matrix of 0/1 entries, symmetric with a zero
    diagonal.
    """

    def __init__(self, matrix):
        m = sparse.csr_array(matrix, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"weights matrix must be square, got {m.shape}")
        m.eliminate_zeros()
        m.sort_indices()
        if m.diagonal().any():
            raise ValueError("weights matrix must have a zero diagonal")
        if not np.all(m.data == 1):
            raise ValueError("weights must be 0 or 1")
        if (m != m.T).nnz:
            raise ValueError("weights must be symmetric")
        self._m = m

    @classmethod
    def from_pairs(cls, n: int, pairs):
        """Build from an iterable of (i, j) neighbour pairs.

        Each pair is stored symmetrically; duplicates collapse to one 1.
        """
        rows, cols = [], []
        for i, j in pairs:
            if i == j:
                raise ValueError(f"self-neighbour entry ({i}, {j})")
            rows += (i, j)
            cols += (j, i)
        m = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        m.data = np.minimum(m.data, 1.0)
        return cls(m)

    @property
    def n(self) -> int:
        return self._m.shape[0]

    @property
    def nnz(self) -> int:
        return self._m.nnz

    def row_sums(self) -> np.ndarray:
        return np.asarray(self._m.sum(axis=1)).ravel()

    def total(self) -> float:
        return float(self._m.sum())

    def lag(self, values: np.ndarray) -> np.ndarray:
        """Spatial lag: for each cell i, sum_j w_ij * values[j]."""
        return self._m @ values

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()


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
        If rows < 2, cols < 2, or the extent has nonpositive width/height.
    """
    return PitchGrid(rows=rows, cols=cols, extent=tuple(float(v) for v in extent))


def adjacency(grid: PitchGrid, scheme: str = "queen") -> WeightsMatrix:
    """Binary contiguity weights for the grid.

    ``rook`` joins cells sharing an edge; ``queen`` additionally joins cells
    sharing only a corner. The result is symmetric with zero diagonal.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    rows, cols = grid.rows, grid.cols
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                pairs.append((i, i + 1))
            if r + 1 < rows:
                pairs.append((i, i + cols))
                if scheme == "queen":
                    if c + 1 < cols:
                        pairs.append((i, i + cols + 1))
                    if c - 1 >= 0:
                        pairs.append((i, i + cols - 1))
    return WeightsMatrix.from_pairs(grid.n, pairs)
