"""Lattice construction and contiguity weights."""

import tracemalloc

import numpy as np
import pytest
import pitchsim as ps
from pitchsim.errors import InvalidDimension

from oracles import grid_dense_queen, grid_dense_rook, sequential_lag


class TestBuildGrid:
    def test_2x2_cells_are_50_by_50(self):
        g = ps.build_grid(2, 2)
        assert g.n == 4
        assert g.cell_width == 50.0
        assert g.cell_height == 50.0
        # the extent is held as floats, so equal grids are one lattice
        assert ps.PitchGrid(2, 2, extent=[0, 0, 100, 100]) == g

    def test_default_resolution_arithmetic(self):
        g = ps.build_grid(14, 20)
        assert g.n == 280
        assert g.cell_width == 100.0 / 20
        assert g.cell_height == 100.0 / 14

    def test_1x1_rejected(self):
        with pytest.raises(InvalidDimension, match="at least 2x2, got 1x1"):
            ps.build_grid(1, 1)
        with pytest.raises(InvalidDimension, match="at least 2x2, got 1x1"):
            ps.PitchGrid(1, 1)

    def test_single_row_or_col_rejected_by_build(self):
        for make in (ps.build_grid, ps.PitchGrid):
            with pytest.raises(InvalidDimension, match="at least 2x2, got 1x5"):
                make(1, 5)
            with pytest.raises(InvalidDimension, match="at least 2x2, got 5x1"):
                make(5, 1)

    @pytest.mark.parametrize("rows,cols,bad", [
        (3.5, 4, "3.5"), (4, 5.0, "5.0"), ("4", 5, "'4'"), (None, 5, "None"),
        (4, np.float64(6), "6"),
    ])
    def test_non_integer_dimension_rejected_naming_it(self, rows, cols, bad):
        for make in (ps.build_grid, ps.PitchGrid):
            with pytest.raises(InvalidDimension, match=f"must be ints, got .*{bad}"):
                make(rows, cols)

    def test_integer_likes_are_stored_as_python_ints(self):
        g = ps.build_grid(np.int64(3), np.uint8(4))
        assert (type(g.rows), type(g.cols), type(g.n)) == (int, int, int)
        assert g == ps.build_grid(3, 4) and g.n == 12

    def test_degenerate_extent_rejected(self):
        with pytest.raises(InvalidDimension):
            ps.build_grid(2, 2, extent=(0, 0, 0, 100))

    def test_row_major_indexing(self):
        # cell (r, c) has flat index r * cols + c: x varies fastest
        g = ps.build_grid(3, 4)
        centers = g.cell_centers()
        for idx in range(g.n):
            r, c = divmod(idx, g.cols)
            assert tuple(centers[idx]) == ((c + 0.5) * g.cell_width, (r + 0.5) * g.cell_height)

    def test_cell_centers_inside_extent(self):
        g = ps.build_grid(5, 7, extent=(-3.0, 2.0, 10.0, 40.0))
        centers = g.cell_centers()
        assert centers.shape == (35, 2)
        assert np.all(centers[:, 0] > -3.0) and np.all(centers[:, 0] < 10.0)
        assert np.all(centers[:, 1] > 2.0) and np.all(centers[:, 1] < 40.0)


class TestAdjacency:
    def test_2x2_rook_four_pairs_degree_two(self):
        w = ps.adjacency(ps.build_grid(2, 2), "rook")
        assert w.nnz // 2 == 4
        assert np.all(w.row_sums() == 2.0)

    def test_2x2_queen_all_mutually_adjacent(self):
        w = ps.adjacency(ps.build_grid(2, 2), "queen")
        assert w.nnz // 2 == 6
        assert np.all(w.row_sums() == 3.0)

    def test_3x3_rook_enumeration(self):
        w = ps.adjacency(ps.build_grid(3, 3), "rook")
        assert w.nnz // 2 == 12
        # center cell has all four edge neighbours
        assert w.row_sums()[4] == 4.0

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6),
                                           (2, 9), (9, 2), (30, 45)])
    def test_matches_dense_oracle(self, rows, cols):
        g = ps.build_grid(rows, cols)
        assert np.array_equal(ps.adjacency(g, "rook").to_dense(), grid_dense_rook(rows, cols))
        assert np.array_equal(ps.adjacency(g, "queen").to_dense(), grid_dense_queen(rows, cols))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 4), (10, 10)])
    def test_pair_count_formulas(self, rows, cols):
        g = ps.build_grid(rows, cols)
        rook = ps.adjacency(g, "rook").nnz // 2
        queen = ps.adjacency(g, "queen").nnz // 2
        assert rook == rows * (cols - 1) + cols * (rows - 1)
        assert queen == rook + 2 * (rows - 1) * (cols - 1)

    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_symmetric_zero_diagonal(self, scheme):
        w = ps.adjacency(ps.build_grid(4, 5), scheme)
        dense = w.to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)

    def test_rook_subset_of_queen(self):
        g = ps.build_grid(5, 6)
        rook = ps.adjacency(g, "rook").to_dense()
        queen = ps.adjacency(g, "queen").to_dense()
        assert np.all(queen[rook == 1.0] == 1.0)

    def test_large_grid_builds_no_dense_matrix(self):
        # the CLI puts no cap on --rows/--cols; a dense 4800x4800 float64
        # matrix alone would take 184 MB
        grid = ps.build_grid(60, 80)
        tracemalloc.start()
        try:
            w = ps.adjacency(grid, "queen")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.n == 4800
        assert peak < 32 * 2**20

    def test_records_its_grid(self):
        g = ps.build_grid(3, 4)
        assert ps.adjacency(g, "rook").grid is g
        assert ps.adjacency(g, "queen").grid is g
        assert ps.WeightsMatrix.from_pairs(3, [(0, 1)]).grid is None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ps.adjacency(ps.build_grid(2, 2), "bishop")


class TestWeightsMatrix:
    def test_duplicate_pairs_collapse_to_one(self):
        w = ps.WeightsMatrix.from_pairs(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert np.array_equal(w.to_dense(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix.from_pairs(3, [(1, 1)])

    def test_rejects_pair_outside_lattice(self):
        for pair in ((0, 3), (-1, 2)):
            with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
                ps.WeightsMatrix.from_pairs(3, [(0, 1), pair])

    def test_lag_is_neighbour_sum(self):
        w = ps.adjacency(ps.build_grid(2, 2), "rook")
        v = np.array([1.0, 2.0, 3.0, 4.0])
        # cell 0 neighbours cells 1 and 2
        assert np.array_equal(w.lag(v), np.array([5.0, 5.0, 5.0, 5.0]))

    def test_lag_matches_dense_transpose(self):
        # the permutation kernel's W^T W = W W rests on this
        v = np.random.default_rng(0).normal(size=12)
        for scheme in ("rook", "queen"):
            w = ps.adjacency(ps.build_grid(3, 4), scheme)
            assert np.allclose(w.lag(v), w.to_dense().T @ v, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 11), (14, 20),
                                           (2, 9), (9, 2), (30, 45)])
    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_lag_is_bitwise_sequential_sum(self, scheme, rows, cols):
        # every output byte rests on this summation order
        g = ps.build_grid(rows, cols)
        w = ps.adjacency(g, scheme)
        dense = w.to_dense()
        rng = np.random.default_rng(rows * cols)
        for _ in range(5):
            v = rng.choice([-1.0, 1.0], g.n) * 10.0 ** rng.uniform(-8, 8, g.n)
            assert w.lag(v).tobytes() == sequential_lag(dense, v).tobytes()
        # a sum that starts at +0.0 never ends at -0.0
        v = np.full(g.n, -0.0)
        assert w.lag(v).tobytes() == sequential_lag(dense, v).tobytes()
