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
    "row_standardize",
    "grid_weights_to_json",
    "grid_weights_from_json",
]

# (xmin, ymin, xmax, ymax) in normalized field coordinates
DEFAULT_EXTENT = (0.0, 0.0, 100.0, 100.0)

SCHEMES = ("rook", "queen")


@dataclass(frozen=True)
class PitchGrid:
    """Regular lattice over the field, row-major flat indexing.

    ``rows`` counts cells across the field width (y axis), ``cols`` across
    the field length (x axis). Cell ``(r, c)`` has flat index ``r * cols + c``.
    Direct construction admits 1-row or 1-column lattices for testing;
    :func:`build_grid` is stricter and is what the pipeline uses.
    """

    rows: int
    cols: int
    extent: tuple[float, float, float, float] = DEFAULT_EXTENT

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1 or self.rows * self.cols < 2:
            raise InvalidDimension(
                f"grid must have at least 2 cells, got {self.rows}x{self.cols}"
            )
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
    """Sparse symmetric spatial weights over grid cells.

    Stores an n-by-n CSR matrix with zero diagonal and nonnegative entries.
    ``style`` is ``"binary"`` (0/1, symmetric) or ``"row_standardized"``
    (each nonzero row sums to 1). ``scheme`` records the contiguity rule the
    matrix was built from, when known.
    """

    def __init__(self, matrix, style: str = "binary", scheme: str | None = None):
        m = sparse.csr_array(matrix, dtype=np.float64)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"weights matrix must be square, got {m.shape}")
        m.eliminate_zeros()
        m.sort_indices()
        if m.diagonal().any():
            raise ValueError("weights matrix must have a zero diagonal")
        if m.nnz and m.data.min() < 0:
            raise ValueError("weights must be nonnegative")
        if style == "binary":
            if m.nnz and not np.all((m.data == 0) | (m.data == 1)):
                raise ValueError("binary weights must be 0 or 1")
            if (m != m.T).nnz:
                raise ValueError("binary weights must be symmetric")
        elif style != "row_standardized":
            raise ValueError(f"unknown weights style {style!r}")
        self._m = m
        self.style = style
        self.scheme = scheme

    @classmethod
    def from_pairs(cls, n: int, pairs, style: str = "binary", scheme: str | None = None):
        """Build from an iterable of (i, j) or (i, j, w) entries.

        For the binary style each pair is stored symmetrically; weights
        default to 1.
        """
        rows, cols, data = [], [], []
        for entry in pairs:
            if len(entry) == 2:
                i, j = entry
                w = 1.0
            else:
                i, j, w = entry
            if i == j:
                raise ValueError(f"self-neighbour entry ({i}, {j})")
            rows.append(i)
            cols.append(j)
            data.append(float(w))
            if style == "binary":
                rows.append(j)
                cols.append(i)
                data.append(float(w))
        m = sparse.coo_array((data, (rows, cols)), shape=(n, n))
        # duplicate undirected pairs collapse to a single 1
        m = sparse.csr_array(m)
        if style == "binary":
            m.data = np.minimum(m.data, 1.0)
        return cls(m, style=style, scheme=scheme)

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

    def lag_transpose(self, values: np.ndarray) -> np.ndarray:
        """Transposed lag: for each cell j, sum_i w_ij * values[i].

        Equals :meth:`lag` for symmetric weights, such as the binary style.
        """
        return self._m.T @ values

    def pairs(self) -> list[tuple[int, int, float]]:
        """Sparse entries as (i, j, w). Binary matrices list each pair once with i < j."""
        coo = sparse.coo_array(self._m)
        out = []
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if self.style == "binary" and i >= j:
                continue
            out.append((int(i), int(j), float(w)))
        out.sort()
        return out

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
    if rows < 2 or cols < 2:
        raise InvalidDimension(f"grid must be at least 2x2, got {rows}x{cols}")
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
    return WeightsMatrix.from_pairs(grid.n, pairs, style="binary", scheme=scheme)


def row_standardize(w: WeightsMatrix) -> WeightsMatrix:
    """Scale each nonzero row to sum to 1; zero rows are preserved."""
    if w.style != "binary":
        raise ValueError("row_standardize expects binary weights")
    m = w._m.copy()
    sums = w.row_sums()
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    m.data = m.data * np.repeat(scale, np.diff(m.indptr))
    return WeightsMatrix(m, style="row_standardized", scheme=w.scheme)


def grid_weights_to_json(grid: PitchGrid, w: WeightsMatrix) -> dict:
    """JSON document for a grid plus its weights."""
    if w.n != grid.n:
        raise ValueError(f"weights size {w.n} does not match grid with {grid.n} cells")
    return {
        "rows": grid.rows,
        "cols": grid.cols,
        "extent": [float(v) for v in grid.extent],
        "scheme": w.scheme,
        "style": w.style,
        "pairs": [[i, j, wv] for i, j, wv in w.pairs()],
    }


def grid_weights_from_json(doc: dict) -> tuple[PitchGrid, WeightsMatrix]:
    grid = PitchGrid(
        rows=int(doc["rows"]), cols=int(doc["cols"]), extent=tuple(doc["extent"])
    )
    w = WeightsMatrix.from_pairs(
        grid.n, doc["pairs"], style=doc.get("style", "binary"), scheme=doc.get("scheme")
    )
    return grid, w
