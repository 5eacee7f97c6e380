"""Lattice construction and contiguity weights."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim.errors import InvalidDimension, IsolatedCell

from oracles import dense_from_pairs, grid_dense, sequential_lag


def _through_lag(w) -> np.ndarray:
    """W column by column through the public lag: ``w.lag(e_j)`` is column j, exactly."""
    return np.column_stack([w.lag(e) for e in np.eye(w.n)])


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
        assert np.all(w.lag(np.ones(4)) == 2.0)

    def test_2x2_queen_all_mutually_adjacent(self):
        w = ps.adjacency(ps.build_grid(2, 2), "queen")
        assert w.nnz // 2 == 6
        assert np.all(w.lag(np.ones(4)) == 3.0)

    def test_3x3_rook_enumeration(self):
        w = ps.adjacency(ps.build_grid(3, 3), "rook")
        assert w.nnz // 2 == 12
        # center cell has all four edge neighbours
        assert w.lag(np.ones(9))[4] == 4.0

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6),
                                           (2, 9), (9, 2), (30, 45)])
    def test_matches_dense_oracle(self, rows, cols):
        g = ps.build_grid(rows, cols)
        for scheme in ("rook", "queen"):
            w = ps.adjacency(g, scheme)
            assert np.array_equal(_through_lag(w), grid_dense(rows, cols, scheme))

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
        dense = _through_lag(w)
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)

    def test_rook_subset_of_queen(self):
        g = ps.build_grid(5, 6)
        rook = _through_lag(ps.adjacency(g, "rook"))
        queen = _through_lag(ps.adjacency(g, "queen"))
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
    @pytest.mark.parametrize("n", [0, -1, -10**30, [3]])
    def test_no_cells_refused_without_warning(self, n):
        # one int n, the int rule's ints past int64 included; a list of one is not one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=f"^weights need n >= 1 cells, got n = {re.escape(str(n))}$"):
                ps.WeightsMatrix(n, [])

    def test_duplicate_pairs_collapse_to_one(self):
        w = ps.WeightsMatrix(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert np.array_equal(_through_lag(w), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    @pytest.mark.parametrize("pairs", [[(1, 1)], [(np.int64(1), np.int64(1))],
                                       np.array([[0, 1], [1, 1]])])
    def test_rejects_self_pair(self, pairs):
        with pytest.raises(ValueError, match=r"^self-neighbour entry \(1, 1\)$"):
            ps.WeightsMatrix(3, pairs)

    def test_rejects_pair_outside_lattice(self):
        for pair in ((0, 3), (-1, 2), (0, 10**30), (-10**30, 1), (0, 2**63), (0, 2**64)):
            with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
                ps.WeightsMatrix(3, [(0, 1), pair])

    @pytest.mark.parametrize("n, pairs, message", [
        (2, [(0.9, 1.7)], "neighbour index must be an int, got 0.9"),
        # a float array is refused before numpy casts its NaN
        (3, np.array([[0, 1.0], [1, np.nan]]), "neighbour index must be an int, got 0.0"),
        (2, [("0", "1")], "neighbour index must be an int, got '0'"),
        (2, [(False, True)], "neighbour index must be an int, got False"),
        (2, [(0, None)], "neighbour index must be an int, got None"),
        (2.5, [(0, 1)], "n must be an int, got 2.5"),
        (True, [(0, 1)], "n must be an int, got True"),
    ])
    def test_what_is_not_an_int_refused_without_warning(self, n, pairs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ps.WeightsMatrix(n, pairs)

    @pytest.mark.parametrize("pairs", [[(0, 1), (True, 2)], [(0, 1), (1, np.True_)],
                                       [np.array([0, 1]), (1, False)]])
    def test_bool_among_ints_refused(self, pairs):
        # numpy casts a list of ints and bools to int64 before any bool could be seen;
        # the message shows np.True_ as numpy 2 writes it, or True under numpy 1
        with pytest.raises(ValueError,
                           match=r"^neighbour index must be an int, got (np\.)?(True|False)_?$"):
            ps.WeightsMatrix(3, pairs)

    @pytest.mark.parametrize("n, pairs, cell", [
        (10**30, [(0, 1)], 2), (2**62, [(0, 1), (2, 3)], 4), (3, [], 0),
        (3, np.empty((0, 2)), 0),
    ])
    def test_n_past_the_pairs_is_an_isolated_cell(self, n, pairs, cell):
        # k pairs touch at most 2k cells: one of the first 2k + 1 has no neighbour,
        # whatever n is, so no n is counted cell by cell to find it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IsolatedCell, match=f"^cell {cell} has no neighbours$"):
                ps.WeightsMatrix(n, pairs)

    def test_numpy_ints_of_any_width_build_the_same_weights(self):
        pairs = [(0, 1), (1, 2)]
        w = ps.WeightsMatrix(np.uint8(3), np.array(pairs, dtype=np.int8))
        assert type(w.n) is int and w.n == 3
        assert np.array_equal(_through_lag(w), dense_from_pairs(3, pairs))
        assert w.scale == ps.WeightsMatrix(3, pairs).scale

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
        dense = dense_from_pairs(n, pairs) if valid else None
        try:
            w = ps.WeightsMatrix(n, pairs)
        except ValueError:
            assert not (valid and dense.any(axis=1).all())
            return
        assert valid
        # W through the lag alone: its columns, and its row sums as the lag of ones
        assert np.array_equal(_through_lag(w), dense)
        assert not np.diag(dense).any() and dense.any(axis=1).all()
        rs = dense.sum(axis=1)
        assert np.array_equal(w.lag(np.ones(n)), rs) and w.nnz == rs.sum()
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
            assert np.allclose(w.lag(v), grid_dense(3, 4, scheme).T @ v, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 11), (14, 20),
                                           (2, 9), (9, 2), (30, 45)])
    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_lag_is_bitwise_sequential_sum(self, scheme, rows, cols):
        # every output byte rests on this summation order
        g = ps.build_grid(rows, cols)
        w = ps.adjacency(g, scheme)
        dense = grid_dense(rows, cols, scheme)
        rng = np.random.default_rng(rows * cols)
        for _ in range(5):
            v = rng.choice([-1.0, 1.0], g.n) * 10.0 ** rng.uniform(-8, 8, g.n)
            assert w.lag(v).tobytes() == sequential_lag(dense, v).tobytes()
        # a sum that starts at +0.0 never ends at -0.0
        v = np.full(g.n, -0.0)
        assert w.lag(v).tobytes() == sequential_lag(dense, v).tobytes()
