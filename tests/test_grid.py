"""Lattice construction, contiguity weights, and their serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim.errors import InvalidDimension

from oracles import grid_dense_queen, grid_dense_rook


class TestBuildGrid:
    def test_2x2_cells_are_50_by_50(self):
        g = ps.build_grid(2, 2)
        assert g.n == 4
        assert g.cell_width == 50.0
        assert g.cell_height == 50.0

    def test_default_resolution_arithmetic(self):
        g = ps.build_grid(14, 20)
        assert g.n == 280
        assert g.cell_width == 100.0 / 20
        assert g.cell_height == 100.0 / 14

    def test_1x1_rejected(self):
        with pytest.raises(InvalidDimension):
            ps.build_grid(1, 1)

    def test_single_row_or_col_rejected_by_build(self):
        with pytest.raises(InvalidDimension):
            ps.build_grid(1, 5)
        with pytest.raises(InvalidDimension):
            ps.build_grid(5, 1)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(InvalidDimension):
            ps.build_grid(2, 2, extent=(0, 0, 0, 100))

    def test_row_major_indexing(self):
        g = ps.build_grid(3, 4)
        assert g.cell_index(0, 0) == 0
        assert g.cell_index(1, 0) == 4
        assert g.cell_index(2, 3) == 11
        assert g.cell_rowcol(7) == (1, 3)

    def test_cell_centers_inside_extent(self):
        g = ps.build_grid(5, 7, extent=(-3.0, 2.0, 10.0, 40.0))
        centers = g.cell_centers()
        assert centers.shape == (35, 2)
        assert np.all(centers[:, 0] > -3.0) and np.all(centers[:, 0] < 10.0)
        assert np.all(centers[:, 1] > 2.0) and np.all(centers[:, 1] < 40.0)

    def test_cell_of_round_trips_centers(self):
        g = ps.build_grid(4, 6)
        for idx, (cx, cy) in enumerate(g.cell_centers()):
            assert g.cell_of(cx, cy) == idx


class TestAdjacency:
    def test_2x2_rook_four_pairs_degree_two(self):
        w = ps.adjacency(ps.build_grid(2, 2), "rook")
        assert len(w.pairs()) == 4
        assert np.all(w.row_sums() == 2.0)

    def test_2x2_queen_all_mutually_adjacent(self):
        w = ps.adjacency(ps.build_grid(2, 2), "queen")
        assert len(w.pairs()) == 6
        assert np.all(w.row_sums() == 3.0)

    def test_3x3_rook_enumeration(self):
        w = ps.adjacency(ps.build_grid(3, 3), "rook")
        assert len(w.pairs()) == 12
        # center cell has all four edge neighbours
        assert w.row_sums()[4] == 4.0

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 5), (3, 3), (4, 7), (6, 6)])
    def test_matches_dense_oracle(self, rows, cols):
        g = ps.build_grid(rows, cols)
        assert np.array_equal(ps.adjacency(g, "rook").to_dense(), grid_dense_rook(rows, cols))
        assert np.array_equal(ps.adjacency(g, "queen").to_dense(), grid_dense_queen(rows, cols))

    @pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (7, 4), (10, 10)])
    def test_pair_count_formulas(self, rows, cols):
        g = ps.build_grid(rows, cols)
        rook = len(ps.adjacency(g, "rook").pairs())
        queen = len(ps.adjacency(g, "queen").pairs())
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

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            ps.adjacency(ps.build_grid(2, 2), "bishop")


class TestRowStandardize:
    def test_degree_four_rows_become_quarter(self):
        w = ps.row_standardize(ps.adjacency(ps.build_grid(3, 3), "rook"))
        dense = w.to_dense()
        assert np.all(dense[4][dense[4] > 0] == 0.25)

    def test_2x2_rook_all_half(self):
        w = ps.row_standardize(ps.adjacency(ps.build_grid(2, 2), "rook"))
        dense = w.to_dense()
        assert np.all(dense[dense > 0] == 0.5)

    def test_zero_row_preserved(self):
        # leaf cell 2 of a path graph 0-1, isolated 2
        w = ps.WeightsMatrix.from_pairs(3, [(0, 1)])
        std = ps.row_standardize(w)
        assert std.row_sums()[2] == 0.0
        sums = std.row_sums()
        assert np.allclose(sums[:2], 1.0)

    def test_rows_sum_to_one(self):
        w = ps.row_standardize(ps.adjacency(ps.build_grid(4, 6), "queen"))
        assert np.allclose(w.row_sums(), 1.0)

    def test_sparsity_pattern_preserved(self):
        orig = ps.adjacency(ps.build_grid(3, 4), "queen")
        std = ps.row_standardize(orig)
        assert np.array_equal(orig.to_dense() > 0, std.to_dense() > 0)


class TestWeightsMatrix:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_rejects_asymmetric_binary(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]), style="row_standardized")

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            ps.WeightsMatrix.from_pairs(3, [(1, 1)])

    def test_lag_is_neighbour_sum(self):
        w = ps.adjacency(ps.build_grid(2, 2), "rook")
        v = np.array([1.0, 2.0, 3.0, 4.0])
        # cell 0 neighbours cells 1 and 2
        assert np.array_equal(w.lag(v), np.array([5.0, 5.0, 5.0, 5.0]))

    def test_lag_transpose_matches_dense_transpose(self):
        binary = ps.adjacency(ps.build_grid(3, 3), "queen")
        std = ps.row_standardize(binary)
        v = np.random.default_rng(0).normal(size=9)
        assert np.array_equal(binary.lag_transpose(v), binary.lag(v))
        assert np.allclose(std.lag_transpose(v), std.to_dense().T @ v,
                           rtol=1e-14, atol=0.0)
        assert not np.allclose(std.lag_transpose(v), std.lag(v))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_round_trip(self, scheme):
        g = ps.build_grid(3, 4, extent=(0.0, 0.0, 100.0, 100.0))
        w = ps.adjacency(g, scheme)
        doc = ps.grid_weights_to_json(g, w)
        assert all(i < j for i, j, _ in doc["pairs"])
        g2, w2 = ps.grid_weights_from_json(doc)
        assert g2 == g
        assert np.array_equal(w.to_dense(), w2.to_dense())
        assert w2.scheme == scheme

    def test_row_standardized_round_trip(self):
        g = ps.build_grid(2, 3)
        w = ps.row_standardize(ps.adjacency(g, "rook"))
        doc = ps.grid_weights_to_json(g, w)
        _, w2 = ps.grid_weights_from_json(doc)
        assert np.allclose(w.to_dense(), w2.to_dense())

    @settings(max_examples=50, deadline=None)
    @given(rows=st.integers(2, 8), cols=st.integers(2, 8),
           scheme=st.sampled_from(["rook", "queen"]))
    def test_round_trip_property(self, rows, cols, scheme):
        g = ps.build_grid(rows, cols)
        w = ps.adjacency(g, scheme)
        g2, w2 = ps.grid_weights_from_json(ps.grid_weights_to_json(g, w))
        assert g2 == g and np.array_equal(w.to_dense(), w2.to_dense())
