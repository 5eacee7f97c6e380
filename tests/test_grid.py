"""Lattice construction and contiguity weights."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("extent", [
        (0, 0, float("inf"), 1), (float("-inf"), 0, 1, 1), (0, 0, 1, float("nan")),
        (0, float("-inf"), 1, float("inf")),
        # finite bounds whose width overflows to inf
        (-1.7e308, 0, 1.7e308, 1),
    ])
    def test_extent_that_is_not_finite_rejected(self, extent):
        # an infinite extent would rasterize to all-zero cells and draw width="inf" in SVG
        for make in (ps.build_grid, ps.PitchGrid):
            with pytest.raises(InvalidDimension, match="degenerate extent"):
                make(2, 2, extent)

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
        assert ps.WeightsMatrix(3, [(0, 1), (1, 2)]).grid is None

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ps.adjacency(ps.build_grid(2, 2), "bishop")


class TestWeightsMatrix:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_cells_refused_without_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^weights need n >= 1 cells, got n = {n}$"):
                ps.WeightsMatrix(n, [])

    def test_duplicate_pairs_collapse_to_one(self):
        w = ps.WeightsMatrix(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert np.array_equal(w.to_dense(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix(3, [(1, 1)])

    def test_rejects_pair_outside_lattice(self):
        for pair in ((0, 3), (-1, 2), (0, 10**30), (-10**30, 1), (0, 2**64)):
            with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
                ps.WeightsMatrix(3, [(0, 1), pair])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(0, 6), data=st.data())
    def test_built_from_any_pairs_or_refused(self, n, data):
        # pairs (i, i + k mod n), 0 < k < n, then at most one of indices from -1 to n:
        # duplicates, both orders, self-pairs, misses and isolated cells all occur
        step = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(1, max(n - 1, 1)))
        pairs = [(i, (i + k) % max(n, 1)) for i, k in data.draw(st.lists(step, max_size=10))]
        if pairs and data.draw(st.booleans()):
            index = st.integers(-1, n)
            pairs[data.draw(st.integers(0, len(pairs) - 1))] = data.draw(st.tuples(index, index))
        valid = n >= 1 and all(0 <= i < n and 0 <= j < n and i != j for i, j in pairs)
        dense = np.zeros((max(n, 0), max(n, 0)))
        if valid:
            for i, j in pairs:
                dense[i, j] = dense[j, i] = 1.0
        try:
            w = ps.WeightsMatrix(n, pairs)
        except ValueError:
            assert not (valid and dense.any(axis=1).all())
            return
        assert valid
        assert np.array_equal(w.to_dense(), dense)
        assert not np.diag(dense).any() and dense.any(axis=1).all()
        rs = dense.sum(axis=1)
        assert np.array_equal(w.row_sums(), rs) and w.nnz == rs.sum()
        assert w.scale == n / float(rs @ rs)
        # the same pairs in another order, some of them turned round
        flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        turned = [(j, i) if flip else (i, j) for (i, j), flip in zip(pairs, flips)]
        other = ps.WeightsMatrix(n, data.draw(st.permutations(turned)))
        v = np.random.default_rng(n).normal(size=n) * 10.0 ** np.arange(-n, n, 2)
        assert other.lag(v).tobytes() == w.lag(v).tobytes() == sequential_lag(dense, v).tobytes()

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
