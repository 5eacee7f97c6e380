"""Moran's I, Lee's L, and the permutation tests."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import pitchsim as ps
from pitchsim import stats
from pitchsim.errors import (
    EmptyWeights,
    InsufficientPermutations,
    IsolatedCell,
    TooLarge,
    ZeroVariance,
)

from oracles import exhaustive_p, lee_batch_dense, lee_formula, moran_formula

CHECKER_2X2 = np.array([1.0, -1.0, -1.0, 1.0])


def _rook(rows, cols):
    return ps.adjacency(ps.build_grid(rows, cols), "rook")


def _queen(rows, cols):
    return ps.adjacency(ps.build_grid(rows, cols), "queen")


def _checkerboard(rows, cols):
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.where((r + c) % 2 == 0, 1.0, -1.0)


class TestMoransI:
    def test_checkerboard_is_minus_one(self):
        w = _rook(2, 2)
        assert ps.morans_i(CHECKER_2X2, w) == -1.0
        assert moran_formula(CHECKER_2X2, w.to_dense()) == -1.0

    def test_row_gradient_is_half(self):
        w = _rook(3, 3)
        x = np.repeat([0.0, 1.0, 2.0], 3)
        assert ps.morans_i(x, w) == 0.5
        assert moran_formula(x, w.to_dense()) == 0.5

    @pytest.mark.parametrize("rows,cols", [(4, 4), (4, 6), (6, 6)])
    def test_checkerboard_negative_split_positive(self, rows, cols):
        w = _rook(rows, cols)
        assert ps.morans_i(_checkerboard(rows, cols), w) < 0.0
        r, c = np.divmod(np.arange(rows * cols), cols)
        split = np.where(c < cols // 2, 0.0, 1.0)
        assert ps.morans_i(split, w) > 0.0

    def test_matches_oracle_on_random_fields(self):
        rng = np.random.default_rng(5)
        for rows, cols, scheme in ((2, 2, "rook"), (3, 4, "queen"), (4, 4, "rook")):
            w = ps.adjacency(ps.build_grid(rows, cols), scheme)
            dense = w.to_dense()
            for _ in range(10):
                x = rng.normal(size=w.n)
                got = ps.morans_i(x, w)
                want = moran_formula(x, dense)
                assert got == pytest.approx(want, rel=1e-12)

    def test_constant_field_rejected(self):
        with pytest.raises(ZeroVariance):
            ps.morans_i(np.ones(4), _rook(2, 2))

    def test_empty_weights_rejected(self):
        w = ps.WeightsMatrix.from_pairs(3, [])
        with pytest.raises(EmptyWeights):
            ps.morans_i(np.array([1.0, 2.0, 3.0]), w)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ps.morans_i(np.ones(3), _rook(2, 2))


class TestLeesL:
    def test_checkerboard_pair_is_minus_one(self):
        w = _rook(2, 2)
        assert ps.lees_l(CHECKER_2X2, -CHECKER_2X2, w) == -1.0
        assert lee_formula(CHECKER_2X2, -CHECKER_2X2, w.to_dense()) == -1.0

    def test_self_similarity_of_checkerboard_is_one(self):
        assert ps.lees_l(CHECKER_2X2, CHECKER_2X2, _rook(2, 2)) == 1.0

    def test_smooth_field_self_positive(self):
        w = _queen(4, 5)
        x = np.arange(20, dtype=float)
        assert ps.lees_l(x, x, w) > 0.0

    def test_matches_oracle_on_random_fields(self):
        rng = np.random.default_rng(6)
        for rows, cols, scheme in ((2, 2, "rook"), (2, 3, "queen"),
                                   (3, 3, "rook"), (4, 5, "queen")):
            w = ps.adjacency(ps.build_grid(rows, cols), scheme)
            dense = w.to_dense()
            for _ in range(12):
                x = rng.normal(size=w.n)
                y = rng.normal(size=w.n)
                got = ps.lees_l(x, y, w)
                want = lee_formula(x, y, dense)
                assert got == pytest.approx(want, rel=1e-12)

    def test_symmetry_over_thousand_cases(self):
        grids = [_rook(2, 2), _queen(2, 3), _rook(3, 3), _queen(3, 4)]
        rng = np.random.default_rng(77)
        for k in range(1000):
            w = grids[k % len(grids)]
            x = rng.normal(size=w.n)
            y = rng.normal(size=w.n)
            a = ps.lees_l(x, y, w)
            b = ps.lees_l(y, x, w)
            assert a == pytest.approx(b, rel=1e-12)

    def test_affine_invariance_up_to_sign(self):
        w = _queen(3, 3)
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.normal(size=9)
            y = rng.normal(size=9)
            base = ps.lees_l(x, y, w)
            a, c = rng.uniform(-5, 5, 2)
            if abs(a) < 1e-3 or abs(c) < 1e-3:
                continue
            b, d = rng.uniform(-10, 10, 2)
            got = ps.lees_l(a * x + b, c * y + d, w)
            want = math.copysign(1.0, a) * math.copysign(1.0, c) * base
            assert got == pytest.approx(want, rel=1e-10)

    def test_isolated_cell_rejected(self):
        w = ps.WeightsMatrix.from_pairs(3, [(0, 1)])
        with pytest.raises(IsolatedCell):
            ps.lees_l(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0]), w)

    def test_non_finite_input_rejected(self):
        w = _rook(2, 2)
        bad = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            ps.lees_l(bad, CHECKER_2X2, w)


class TestPermutationTest:
    def test_result_identities(self):
        w = _queen(3, 3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        res = ps.permutation_test(x, y, w, n_perm=499, seed=4)
        assert 0 <= res.n_ge <= res.n_perm == 499
        assert res.p_value == (res.n_ge + 1) / (res.n_perm + 1)
        assert 0.0 < res.p_value <= 1.0
        assert res.statistic == pytest.approx(ps.lees_l(x, y, w), rel=1e-12)
        assert res.seed == 4

    def test_perfectly_clustered_pattern_hits_p_floor(self):
        # identical strongly autocorrelated maps: no permutation should win
        from rosters import corner_heatmap, default_weights

        h = corner_heatmap()
        w = default_weights()
        res = ps.permutation_test(h.cells, h.cells, w, n_perm=999, seed=0)
        assert res.n_ge == 0
        assert res.p_value == 1 / 1000
        assert res.z_score > 10.0

    def test_counts_match_regenerated_permutation_stream(self):
        # white box: rebuild the Philox stream the test draws from and
        # re-score every permutation through the independent dense path
        w = _queen(4, 4)
        rng = np.random.default_rng(14)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        n_perm, seed = 499, 21
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)

        perms = np.tile(np.arange(16), (n_perm + 1, 1))
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.permuted(perms[1:], axis=1, out=perms[1:])
        sims = lee_batch_dense(x, y[perms[1:]], w.to_dense())
        tol = 1e-9 * (1.0 + abs(res.statistic))
        at_least = int(np.count_nonzero(sims > res.statistic + tol))
        at_most = int(np.count_nonzero(sims >= res.statistic - tol))
        assert at_least <= res.n_ge <= at_most

    def test_counts_match_regenerated_stream_across_chunks(self):
        # as above, with a stream that spans several chunks
        w = _queen(4, 4)
        rng = np.random.default_rng(15)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        n_perm, seed = 2500, 22
        assert n_perm > 2 * stats._PERM_CHUNK
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        assert res.statistic == ps.lees_l(x, y, w)

        perms = np.tile(np.arange(16), (n_perm + 1, 1))
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.permuted(perms[1:], axis=1, out=perms[1:])
        sims = lee_batch_dense(x, y[perms[1:]], w.to_dense())
        tol = 1e-9 * (1.0 + abs(res.statistic))
        at_least = int(np.count_nonzero(sims > res.statistic + tol))
        at_most = int(np.count_nonzero(sims >= res.statistic - tol))
        assert at_least <= res.n_ge <= at_most

    @pytest.mark.parametrize("rows,cols,scheme,n_perm", [
        (2, 2, "rook", 500),
        (4, 4, "queen", 2500),
    ])
    def test_chunk_size_changes_nothing(self, monkeypatch, rows, cols, scheme, n_perm):
        w = ps.adjacency(ps.build_grid(rows, cols), scheme)
        rng = np.random.default_rng(rows * cols)
        x = rng.normal(size=w.n)
        y = rng.normal(size=w.n)
        results = []
        for chunk in (1, 7, stats._PERM_CHUNK):
            monkeypatch.setattr(stats, "_PERM_CHUNK", chunk)
            res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=5)
            results.append((res.n_ge, res.p_value, res.statistic))
        assert results[0] == results[1] == results[2]

    def test_memory_bounded_in_n_perm(self):
        w = _queen(14, 20)
        rng = np.random.default_rng(16)
        x = rng.random(w.n)
        y = rng.random(w.n)
        tracemalloc.start()
        try:
            ps.permutation_test(x, y, w, n_perm=99_999, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_agrees_with_exhaustive_enumeration_on_nine_cells(self):
        w = _rook(3, 3)
        rng = np.random.default_rng(42)
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        n_perm = math.factorial(9)  # every arrangement, expected once each
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=7)
        p_exact, _ = exhaustive_p(x, y, w.to_dense())
        se = math.sqrt(p_exact * (1.0 - p_exact) / n_perm)
        assert abs(res.p_value - p_exact) <= 3.0 * se

    def test_super_uniform_under_null(self):
        w = _queen(3, 3)
        rng = np.random.default_rng(123)
        pvals = np.array([
            ps.permutation_test(rng.normal(size=9), rng.normal(size=9), w,
                                n_perm=199, seed=1000 + rep).p_value
            for rep in range(400)
        ])
        for alpha in (0.05, 0.5):
            frac = float((pvals <= alpha).mean())
            assert frac <= alpha + 3.0 * math.sqrt(alpha * (1 - alpha) / 400)

    def test_bitwise_deterministic(self):
        w = _queen(3, 4)
        rng = np.random.default_rng(31)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = ps.permutation_test(x, y, w, n_perm=999, seed=17)
        b = ps.permutation_test(x, y, w, n_perm=999, seed=17)
        assert a == b

    def test_different_seeds_differ(self):
        w = _queen(3, 4)
        rng = np.random.default_rng(32)
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        a = ps.permutation_test(x, y, w, n_perm=999, seed=0)
        b = ps.permutation_test(x, y, w, n_perm=999, seed=1)
        assert a.n_ge != b.n_ge

    def test_single_permutation_z_is_nan(self):
        w = _rook(2, 2)
        rng = np.random.default_rng(1)
        res = ps.permutation_test(rng.normal(size=4), rng.normal(size=4), w,
                                  n_perm=1, seed=0)
        assert math.isnan(res.z_score)
        assert res.p_value in (0.5, 1.0)

    def test_zero_permutations_rejected(self):
        w = _rook(2, 2)
        with pytest.raises(InsufficientPermutations):
            ps.permutation_test(CHECKER_2X2, CHECKER_2X2, w, n_perm=0)


class TestExactPermutationTest:
    def test_two_cells(self):
        w = ps.WeightsMatrix.from_pairs(2, [(0, 1)])
        x = np.array([0.0, 1.0])
        aligned = ps.exact_permutation_test(x, x, w)
        assert aligned.n_perm == 1
        assert aligned.n_ge == 0
        assert aligned.p_value == 0.5
        flipped = ps.exact_permutation_test(x, x[::-1], w)
        assert flipped.p_value == 1.0

    def test_checkerboard_ties_counted_inclusively(self):
        # relabelings within each colour class reproduce the observed L;
        # 2 * 2 of the 24 arrangements tie with the identity
        res = ps.exact_permutation_test(CHECKER_2X2, CHECKER_2X2, _rook(2, 2))
        assert res.statistic == 1.0
        assert res.n_perm == 23
        assert res.n_ge == 3
        assert res.p_value == 4 / 24

    def test_lattice_symmetry_ties_counted(self):
        # On the 2x2 rook lattice W^T W xc is constant on each diagonal pair
        # of cells, so every relabeling that swaps within the pairs has the
        # observed L in exact arithmetic, however the kernel rounds it.
        w = _rook(2, 2)
        x = np.array([0.3, 0.1, 0.7, 0.2])
        y = np.array([0.1, 0.2, 0.2, 0.4])  # mirror-symmetric about the 0-3 diagonal
        exact = ps.exact_permutation_test(x, y, w)
        p_oracle, _ = exhaustive_p(x, y, w.to_dense())
        assert exact.p_value == p_oracle
        assert (exact.n_ge + 1) % 4 == 0

        # Monte Carlo: rank each regenerated relabeling in exact rational
        # arithmetic. L orders like (W y[pi]) . (W (n x - sum x)), since the
        # centering of y and the denominator do not depend on pi.
        n_perm, seed = 300, 8
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        perms = np.tile(np.arange(4), (n_perm, 1))
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.permuted(perms, axis=1, out=perms)
        dense = w.to_dense()
        xf = [Fraction(v) for v in x]
        xs = [4 * v - sum(xf) for v in xf]
        lag_x = [sum(Fraction(dense[i, j]) * xs[j] for j in range(4)) for i in range(4)]

        def key(perm):
            yp = [Fraction(y[k]) for k in perm]
            return sum(lag_x[i] * sum(Fraction(dense[i, j]) * yp[j] for j in range(4))
                       for i in range(4))

        observed = key(range(4))
        want = sum(key(p) >= observed for p in perms)
        assert res.n_ge == want
        assert 0 < want < n_perm

    def test_monte_carlo_converges_to_exact(self):
        w = _rook(2, 2)
        exact = ps.exact_permutation_test(CHECKER_2X2, CHECKER_2X2, w)
        mc = ps.permutation_test(CHECKER_2X2, CHECKER_2X2, w, n_perm=10000, seed=3)
        se = math.sqrt(exact.p_value * (1 - exact.p_value) / 10000)
        assert abs(mc.p_value - exact.p_value) <= 3.0 * se

    def test_matches_oracle_on_random_fields(self):
        rng = np.random.default_rng(0)
        w4, w6 = _rook(2, 2), _queen(2, 3)
        for _ in range(30):
            for w in (w4, w6):
                x = rng.normal(size=w.n)
                y = rng.normal(size=w.n)
                res = ps.exact_permutation_test(x, y, w)
                p_oracle, l_oracle = exhaustive_p(x, y, w.to_dense())
                # p-values are integer counts over n!; they must agree exactly
                assert abs(res.p_value - p_oracle) < 0.5 / math.factorial(w.n)
                assert res.statistic == pytest.approx(l_oracle, rel=1e-12)

    def test_too_many_cells_rejected(self):
        w = _rook(3, 3)
        x = np.arange(9, dtype=float)
        with pytest.raises(TooLarge):
            ps.exact_permutation_test(x, x, w)

    def test_deterministic(self):
        w = _queen(2, 3)
        rng = np.random.default_rng(13)
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        assert ps.exact_permutation_test(x, y, w) == ps.exact_permutation_test(x, y, w)
