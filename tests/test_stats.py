"""Lee's L, the permutation test, and the references they are checked against."""

import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import pitchsim as ps
from pitchsim import stats
from pitchsim.errors import InsufficientPermutations, IsolatedCell, ZeroVariance

from oracles import (
    dense_from_pairs,
    exhaustive_p,
    grid_dense,
    indexed_stream_scores,
    lee_batch_dense,
    lee_formula,
    moran_formula,
)

CHECKER_2X2 = np.array([1.0, -1.0, -1.0, 1.0])


def _rook(rows, cols):
    return ps.adjacency(ps.build_grid(rows, cols), "rook")


def _queen(rows, cols):
    return ps.adjacency(ps.build_grid(rows, cols), "queen")


def _chunk_rows(w):
    """Rows of relabeled cells in each full chunk of the permutation stream on ``w``."""
    return stats._PERM_BYTES // (8 * w.n)


def _checkerboard(rows, cols):
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.where((r + c) % 2 == 0, 1.0, -1.0)


def _philox_perms(n, n_perm, seed):
    """The relabelings that ``permutation_test`` draws for ``seed``, regenerated."""
    perms = np.tile(np.arange(n), (n_perm, 1))
    gen = np.random.Generator(np.random.Philox(key=seed))
    gen.permuted(perms, axis=1, out=perms)
    return perms


def _every_arrangement_scored(x, y, w):
    """``lees_l`` of ``x`` against every relabeling of ``y``, identity first."""
    y = np.asarray(y, dtype=float)
    return [ps.lees_l(x, y[list(p)], w) for p in permutations(range(w.n))]


def _tie_tolerant_p(scores):
    """Share of ``scores`` at or above the first, counted as ``exhaustive_p`` counts."""
    tol = 1e-9 * (1.0 + abs(scores[0]))
    return sum(s >= scores[0] - tol for s in scores) / len(scores)


class TestMoransI:
    """Moran's I by the term-by-term reference on the oracle's weights.

    Acceptance test 2 computes Moran's I as ``moran_formula`` of
    ``grid_dense(...)``, so these pin that reference on fields with known
    answers and check the package's lag against its double sum.
    """

    def test_checkerboard_is_minus_one(self):
        assert moran_formula(CHECKER_2X2, grid_dense(2, 2, "rook")) == -1.0

    def test_row_gradient_is_half(self):
        x = np.repeat([0.0, 1.0, 2.0], 3)
        assert moran_formula(x, grid_dense(3, 3, "rook")) == 0.5

    @pytest.mark.parametrize("rows,cols", [(4, 4), (4, 6), (6, 6)])
    def test_checkerboard_negative_split_positive(self, rows, cols):
        dense = grid_dense(rows, cols, "rook")
        assert moran_formula(_checkerboard(rows, cols), dense) < 0.0
        r, c = np.divmod(np.arange(rows * cols), cols)
        split = np.where(c < cols // 2, 0.0, 1.0)
        assert moran_formula(split, dense) > 0.0

    def test_matches_oracle_on_random_fields(self):
        # (n / S0) xc . W xc / xc . xc through WeightsMatrix.lag and nnz
        rng = np.random.default_rng(5)
        for rows, cols, scheme in ((2, 2, "rook"), (3, 4, "queen"), (4, 4, "rook")):
            w = ps.adjacency(ps.build_grid(rows, cols), scheme)
            dense = grid_dense(rows, cols, scheme)
            for _ in range(10):
                x = rng.normal(size=w.n)
                xc = x - x.mean()
                got = w.n / w.nnz * float(xc @ w.lag(xc)) / float(xc @ xc)
                assert got == pytest.approx(moran_formula(x, dense), rel=1e-12)

    def test_matches_oracle_on_random_weights(self):
        # non-lattice weights from pairs: lag and nnz agree with the oracle's dense W
        rng = np.random.default_rng(9)
        for n in (3, 5, 8):
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
            pairs |= {(i, i + 1) for i in range(n - 1)}  # no isolated cell
            w = ps.WeightsMatrix(n, sorted(pairs))
            dense = dense_from_pairs(n, pairs)
            assert w.nnz == 2 * len(pairs) == dense.sum()
            x = rng.normal(size=n)
            xc = x - x.mean()
            got = n / w.nnz * float(xc @ w.lag(xc)) / float(xc @ xc)
            assert got == pytest.approx(moran_formula(x, dense), rel=1e-12)

    def test_constant_field_rejected(self):
        # Moran's I divides by zero; the package refuses the field first
        w = _rook(2, 2)
        with pytest.raises(ZeroDivisionError):
            moran_formula(np.ones(4), grid_dense(2, 2, "rook"))
        with pytest.raises(ZeroVariance):
            ps.prepare_cells(np.ones(4), w)

    def test_empty_weights_rejected(self):
        # S0 = 0 leaves Moran's I undefined; the package refuses such weights
        with pytest.raises(ZeroDivisionError):
            moran_formula(np.array([1.0, 2.0, 3.0]), np.zeros((3, 3)))
        with pytest.raises(IsolatedCell, match="^cell 0 has no neighbours$"):
            ps.WeightsMatrix(3, [])


class TestLeesL:
    def test_checkerboard_pair_is_minus_one(self):
        w = _rook(2, 2)
        assert ps.lees_l(CHECKER_2X2, -CHECKER_2X2, w) == -1.0
        assert lee_formula(CHECKER_2X2, -CHECKER_2X2, grid_dense(2, 2, "rook")) == -1.0

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
            dense = grid_dense(rows, cols, scheme)
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
        # refused when the weights are built, before any statistic reads them
        with pytest.raises(IsolatedCell, match="^cell 2 has no neighbours$"):
            ps.WeightsMatrix(3, [(0, 1)])

    def test_non_finite_input_rejected(self):
        w = _rook(2, 2)
        bad = np.array([1.0, np.nan, 0.0, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            ps.lees_l(bad, CHECKER_2X2, w)

    @pytest.mark.parametrize("call,message", [
        (lambda w: ps.lees_l(CHECKER_2X2, np.ones(3), w), "y has length 3, expected 4"),
        (lambda w: ps.lees_l(np.ones(5), CHECKER_2X2, w), "x has length 5, expected 4"),
        (lambda w: ps.prepare_cells(np.ones(3), w, "y"), "y has length 3, expected 4"),
        (lambda w: ps.permutation_test(np.ones(3), CHECKER_2X2, w, n_perm=9),
         "x has length 3, expected 4"),
    ], ids=["lees_l-y", "lees_l-x", "prepare_cells", "permutation_test"])
    def test_length_mismatch_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(_rook(2, 2))


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
        sims = lee_batch_dense(x, y[perms[1:]], grid_dense(4, 4, "queen"))
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
        n_perm, seed = 40_000, 22
        assert n_perm > 2 * _chunk_rows(w)
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        assert res.statistic == ps.lees_l(x, y, w)

        perms = np.tile(np.arange(16), (n_perm + 1, 1))
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.permuted(perms[1:], axis=1, out=perms[1:])
        sims = lee_batch_dense(x, y[perms[1:]], grid_dense(4, 4, "queen"))
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
        for budget in (8 * w.n, 7 * 8 * w.n, stats._PERM_BYTES):  # 1, 7 and all rows
            monkeypatch.setattr(stats, "_PERM_BYTES", budget)
            res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=5)
            results.append((res.n_ge, res.p_value, res.statistic))
        assert results[0] == results[1] == results[2]

    def test_memory_bounded_in_n_perm(self):
        # each chunk is counted as it is drawn: nothing grows with n_perm
        w = _queen(14, 20)
        rng = np.random.default_rng(16)
        x = rng.random(w.n)
        y = rng.random(w.n)
        peaks = []
        for n_perm in (10_000, 100_000):
            tracemalloc.start()
            try:
                ps.permutation_test(x, y, w, n_perm=n_perm, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024

    @pytest.mark.parametrize("rows, cols, n_perm", [(14, 20, 10_000), (60, 80, 999)])
    def test_memory_is_one_chunk_of_cells(self, rows, cols, n_perm):
        # one float64 buffer of relabeled cells within the byte budget, on a
        # large grid too; no index array, no gathered copy
        w = _queen(rows, cols)
        rng = np.random.default_rng(16)
        x = stats.prepare_cells(rng.random(w.n), w)
        y = stats.prepare_cells(rng.random(w.n), w, "y")
        tracemalloc.start()
        try:
            ps.permutation_test(x, y, w, n_perm=n_perm, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * stats._PERM_BYTES

    def test_agrees_with_exhaustive_enumeration_on_nine_cells(self):
        w = _rook(3, 3)
        rng = np.random.default_rng(42)
        x = rng.normal(size=9)
        y = rng.normal(size=9)
        n_perm = math.factorial(9)  # every arrangement, expected once each
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=7)
        p_exact, _ = exhaustive_p(x, y, grid_dense(3, 3, "rook"))
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

    def test_z_is_nan_only_when_the_double_lag_is_constant(self):
        w = _rook(2, 2)
        rng = np.random.default_rng(1)
        res = ps.permutation_test(rng.normal(size=4), rng.normal(size=4), w,
                                  n_perm=1, seed=0)
        assert isinstance(res.z_score, float) and math.isfinite(res.z_score)
        assert res.p_value in (0.5, 1.0)
        # these dyadic cells have W xc = 0 exactly, so with them fixed u = 0
        # and every relabeling of the other side ties with L = 0
        flat_lag = np.array([0.375, 0.25, 0.25, 0.125])
        other = np.array([0.5, 0.25, 0.125, 0.125])
        assert not w.lag(flat_lag - flat_lag.mean()).any()
        for n_perm in (1, 999):
            res = ps.permutation_test(flat_lag, other, w, n_perm=n_perm, seed=0)
            assert (res.statistic, res.n_ge, res.p_value) == (0.0, n_perm, 1.0)
            assert math.isnan(res.z_score)
            # permuted instead of fixed, it leaves u varying: z = L / sd = 0
            assert ps.permutation_test(other, flat_lag, w, n_perm=n_perm).z_score == 0.0

    def test_zero_permutations_rejected(self):
        w = _rook(2, 2)
        with pytest.raises(InsufficientPermutations):
            ps.permutation_test(CHECKER_2X2, CHECKER_2X2, w, n_perm=0)

    @pytest.mark.parametrize("n_perm, seed", [(99.0, 0), (99, 1.5)])
    def test_non_int_count_or_seed_rejected_before_any_work(self, monkeypatch, n_perm, seed):
        # refused before the cells are prepared, not run as the seed's int part
        def refuse(*args):
            raise AssertionError("the cells were prepared")

        monkeypatch.setattr(stats, "_prepared", refuse)
        with pytest.raises(TypeError):
            ps.permutation_test(CHECKER_2X2, CHECKER_2X2, _rook(2, 2), n_perm=n_perm, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # a seed masked to 64 bits would run one seed and report another
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            ps.permutation_test(CHECKER_2X2, CHECKER_2X2, _rook(2, 2), n_perm=9, seed=seed)

    def test_seeds_at_the_ends_of_the_range_run_and_are_reported(self):
        w = _queen(3, 3)
        x, y = np.random.default_rng(2).normal(size=(2, 9))
        for seed in (0, (1 << 64) - 1, np.uint64((1 << 64) - 1)):
            res = ps.permutation_test(x, y, w, n_perm=9, seed=seed)
            assert type(res.seed) is int and res.seed == int(seed)


class TestRelabeledCells:
    """The chunks are the permuted cells themselves, drawn without indices:
    every L(pi), n_ge and p equals the index-and-gather path bit for bit."""

    @pytest.mark.parametrize("rows,cols,scheme", [
        (2, 2, "rook"),
        (3, 5, "queen"),  # a 120-byte row: not a multiple of 64 bytes
        (7, 9, "rook"),
        (14, 20, "queen"),
    ])
    # n_perm = chunks * rows + extra: one draw, just below, at and just above
    # one chunk, and past two
    @pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 452)])
    def test_scores_equal_the_indexed_stream(self, monkeypatch, rows, cols, scheme, chunks,
                                             extra):
        w = ps.adjacency(ps.build_grid(rows, cols), scheme)
        n_perm = chunks * _chunk_rows(w) + extra
        rng = np.random.default_rng(rows * cols + n_perm)
        x = stats.prepare_cells(rng.random(w.n), w)
        y = stats.prepare_cells(rng.random(w.n), w, "y")
        seed = 3 + n_perm
        l_obs = ps.lees_l(x, y, w)
        u = x.lag2 * (x.w.scale / (x.norm * y.norm))
        drawn = []

        class Recording(np.random.Generator):
            # the buffer is reused, so each chunk is copied as it is drawn
            def permuted(self, *args, **kwargs):
                chunk = super().permuted(*args, **kwargs)
                drawn.append(chunk.copy())
                return chunk

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "Generator", Recording)
            res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        scores = np.concatenate([c @ u for c in drawn])
        expected = indexed_stream_scores(u, y.vc, n_perm, seed, _chunk_rows(w))
        assert scores.tobytes() == expected.tobytes()
        n_ge = int(np.count_nonzero(expected >= l_obs - stats._TIE_RTOL * max(1.0, abs(l_obs))))
        assert (res.statistic, res.n_ge, res.p_value) == (l_obs, n_ge, (n_ge + 1) / (n_perm + 1))


def _permutation_variance(x, y, w_dense) -> float:
    """Exact variance of Lee's L over uniform relabelings of y, from dense W.

    L(pi) = yc[pi] . u with u = scale * W W xc / (|xc| |yc|), so its variance
    is sum (u - ubar)^2 * sum yc^2 / (n - 1) (Hoeffding 1951); its mean is 0.
    """
    n = x.size
    xc, yc = x - x.mean(), y - y.mean()
    scale = n / float((w_dense.sum(axis=1) ** 2).sum())
    u = scale * (w_dense @ (w_dense @ xc)) / math.sqrt(float(xc @ xc) * float(yc @ yc))
    uc = u - u.mean()
    return float(uc @ uc) * float(yc @ yc) / (n - 1)


class TestPermutationMoments:
    """z is L over the exact permutation sd, and the counts are of the draws."""

    @pytest.mark.parametrize("rows,cols,scheme", [(2, 2, "rook"), (2, 3, "queen"), (2, 4, "rook")])
    def test_every_arrangement(self, rows, cols, scheme):
        w = ps.adjacency(ps.build_grid(rows, cols), scheme)
        rng = np.random.default_rng(rows * cols)
        x, y = rng.random(w.n), rng.random(w.n)
        perms = np.array(list(permutations(range(w.n))))
        dense = grid_dense(rows, cols, scheme)
        sims = lee_batch_dense(x, y[perms], dense)
        var = float(sims.var())
        assert abs(float(sims.mean())) <= 1e-12 * math.sqrt(var)
        assert var == pytest.approx(_permutation_variance(x, y, dense), rel=1e-12)
        # z does not depend on the draws: one is enough
        res = ps.permutation_test(x, y, w, n_perm=1)
        assert res.z_score == pytest.approx(res.statistic / math.sqrt(var), rel=1e-12)

    @pytest.mark.parametrize("rows,cols,scheme,n_perm", [
        (4, 4, "queen", 20_000),
        (6, 9, "rook", 24_000),
    ])
    def test_regenerated_stream(self, rows, cols, scheme, n_perm):
        # the stream spans many chunks; rebuild it in one piece and score it
        # through the dense path
        w = ps.adjacency(ps.build_grid(rows, cols), scheme)
        rng = np.random.default_rng(rows * cols)
        x, y = rng.random(w.n), rng.random(w.n)
        seed = 11
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        perms = np.tile(np.arange(w.n), (n_perm, 1))
        gen = np.random.Generator(np.random.Philox(key=seed))
        gen.permuted(perms, axis=1, out=perms)
        dense = grid_dense(rows, cols, scheme)
        sims = lee_batch_dense(x, y[perms], dense)

        sigma2 = _permutation_variance(x, y, dense)
        assert abs(float(sims.mean())) <= 4.0 * math.sqrt(sigma2 / n_perm)
        # the mean is known to be 0, so the variance is estimated as mean L^2
        var = float(np.mean(sims ** 2))
        se_var = math.sqrt((float(np.mean(sims ** 4)) - var ** 2) / n_perm)
        assert abs(var - sigma2) <= 4.0 * se_var
        assert res.z_score == pytest.approx(res.statistic / math.sqrt(sigma2), rel=1e-12)

        tol = 1e-9 * (1.0 + abs(res.statistic))
        assert (int(np.count_nonzero(sims > res.statistic + tol)) <= res.n_ge
                <= int(np.count_nonzero(sims >= res.statistic - tol)))


class TestPreparedCells:
    """Records made once per player give the same results as raw cell vectors."""

    @pytest.mark.parametrize("rows,cols,scheme,n_perm", [
        (2, 2, "rook", 1),       # one permutation: z is defined all the same
        (3, 4, "queen", 499),
        (14, 20, "queen", 99),
        (7, 9, "rook", 1500),    # the stream spans two chunks
    ])
    def test_prepared_and_raw_calls_agree_in_every_field(self, rows, cols, scheme, n_perm):
        w = ps.adjacency(ps.build_grid(rows, cols), scheme)
        rng = np.random.default_rng(rows * cols + n_perm)
        x, y = rng.random(w.n), rng.random(w.n)
        px, py = ps.prepare_cells(x, w), ps.prepare_cells(y, w, "y")
        raw = ps.permutation_test(x, y, w, n_perm=n_perm, seed=17)
        # repr is exact for floats and also compares a NaN z_score
        for a, b in ((px, py), (px, y), (x, py)):
            assert repr(ps.permutation_test(a, b, w, n_perm=n_perm, seed=17)) == repr(raw)
        assert ps.lees_l(px, py, w) == ps.lees_l(x, y, w) == raw.statistic

    def test_exact_test_agrees(self):
        # scoring every arrangement through records gives the raw scores and the oracle's p
        w = _queen(2, 3)
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=6), rng.normal(size=6)
        px = ps.prepare_cells(x, w)
        scores = [ps.lees_l(px, ps.prepare_cells(y[list(p)], w, "y"), w)
                  for p in permutations(range(6))]
        assert scores == _every_arrangement_scored(x, y, w)
        assert _tie_tolerant_p(scores) == exhaustive_p(x, y, grid_dense(2, 3, "queen"))[0]

    def test_record_holds_the_centered_cells_and_their_lags(self):
        w = _queen(4, 5)
        x = np.random.default_rng(3).random(w.n)
        rec = ps.prepare_cells(x, w)
        xc = x - x.mean()
        assert np.array_equal(rec.vc, xc)
        assert rec.norm == math.sqrt(float(xc @ xc))
        assert np.array_equal(rec.lag, w.lag(xc))
        assert np.array_equal(rec.lag2, w.lag(w.lag(xc)))
        for a in (rec.vc, rec.lag, rec.lag2):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_floating_point_order_is_pinned(self, scheme):
        # every p-value and L in the outputs depends on these operations and
        # their order; a refactor that reassociates them changes output bytes
        w = ps.adjacency(ps.build_grid(6, 9), scheme)
        rng = np.random.default_rng(5)
        n_perm = 60
        rs = grid_dense(6, 9, scheme).sum(axis=1)
        scale = w.n / float(rs @ rs)
        for seed in range(30):
            x, y = rng.random(w.n), rng.random(w.n)
            xc, yc = x - x.mean(), y - y.mean()
            denom = math.sqrt(float(xc @ xc)) * math.sqrt(float(yc @ yc))
            l_obs = scale * float(w.lag(xc) @ w.lag(yc)) / denom
            u = w.lag(w.lag(xc)) * (scale / denom)
            perms = np.tile(np.arange(w.n), (n_perm, 1))
            gen = np.random.Generator(np.random.Philox(key=seed))
            gen.permuted(perms, axis=1, out=perms)
            # ties count, with a relative tolerance
            n_ge = int(np.count_nonzero(yc[perms] @ u >= l_obs - 1e-10 * max(1.0, abs(l_obs))))
            # the exact permutation sd of L
            uc = u - u.mean()
            sd = math.sqrt(float(uc @ uc) / (w.n - 1)) * math.sqrt(float(yc @ yc))
            want = stats.TestResult(statistic=l_obs, n_perm=n_perm, n_ge=n_ge,
                                    p_value=(n_ge + 1) / (n_perm + 1), z_score=l_obs / sd,
                                    seed=seed)
            got = ps.permutation_test(ps.prepare_cells(x, w), ps.prepare_cells(y, w), w,
                                      n_perm=n_perm, seed=seed)
            assert repr(got) == repr(want)

    def test_record_from_other_weights_rejected(self):
        rng = np.random.default_rng(4)
        x, y = rng.random(12), rng.random(12)
        rook, queen = _rook(3, 4), _queen(3, 4)
        with pytest.raises(ValueError, match="y was prepared on other weights"):
            ps.permutation_test(x, ps.prepare_cells(y, rook), queen, n_perm=9)

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 7), (14, 20)])
    def test_constant_vector_rejected_even_if_its_mean_rounds(self, rows, cols):
        # on 2x7 the mean of fourteen cells of 1/14 is not 1/14, so centering
        # alone leaves a tiny nonzero constant
        w = _queen(rows, cols)
        flat = np.full(w.n, 1.0 / w.n)
        other = np.arange(w.n, dtype=float)
        with pytest.raises(ZeroVariance, match="y is constant"):
            ps.permutation_test(other, flat, w, n_perm=9)
        with pytest.raises(ZeroVariance, match="x is constant"):
            ps.lees_l(flat, other, w)

    @pytest.mark.parametrize("scale, size, ss", [(1e200, "large", "inf"), (1e-170, "small", "0")])
    def test_vector_past_the_scored_range_refused_without_a_warning(self, scale, size, ss):
        # its sum of squared deviations overflows, where L read -0.0, or underflows
        # to 0, where the vector was refused as constant; the filter in
        # pyproject.toml turns numpy's warnings into errors
        w = _queen(14, 20)
        rng = np.random.default_rng(9)
        v, other = scale * (1 + rng.random(w.n)), rng.random(w.n)
        for name, call in (("x", lambda: ps.lees_l(v, other, w)),
                           ("y", lambda: ps.permutation_test(other, v, w, n_perm=9))):
            with pytest.raises(ValueError, match=rf"^{name} is too {size} to score: its sum of "
                                                 rf"squared deviations {ss} is outside "
                                                 r"\[1e-300, 1e\+300\]$"):
                call()

    @pytest.mark.parametrize("scale", [1e140, 1e-140])
    def test_vector_inside_the_scored_range_scores_as_at_unit_scale(self, scale):
        w = _queen(14, 20)
        rng = np.random.default_rng(9)
        x, y = rng.random(w.n), rng.random(w.n)
        assert ps.lees_l(scale * x, y, w) == pytest.approx(ps.lees_l(x, y, w), rel=1e-12)


class TestExactPermutationTest:
    """The exact test by full enumeration, ``oracles.exhaustive_p``.

    Acceptance test 3 checks the Monte Carlo p against it. Relabelings that
    tie with the observed arrangement count as >= it, in both tests.
    """

    def test_two_cells(self):
        w = ps.WeightsMatrix(2, [(0, 1)])
        dense = dense_from_pairs(2, [(0, 1)])
        x = np.array([0.0, 1.0])
        assert exhaustive_p(x, x, dense) == (0.5, pytest.approx(1.0, rel=1e-12))
        assert exhaustive_p(x, x[::-1], dense) == (1.0, pytest.approx(-1.0, rel=1e-12))
        # every relabeling of the flipped field is at or above its L = -1
        flipped = ps.permutation_test(x, x[::-1], w, n_perm=9, seed=2)
        assert (flipped.n_ge, flipped.p_value) == (9, 1.0)
        aligned = ps.permutation_test(x, x, w, n_perm=9, seed=2)
        kept = int(np.count_nonzero(_philox_perms(2, 9, 2)[:, 0] == 0))
        assert aligned.n_ge == kept

    def test_checkerboard_ties_counted_inclusively(self):
        # a relabeling that keeps each cell in its colour class reproduces
        # the observed L = 1 exactly: 2 * 2 of the 24 arrangements
        w = _rook(2, 2)
        assert exhaustive_p(CHECKER_2X2, CHECKER_2X2, grid_dense(2, 2, "rook")) == (4 / 24, 1.0)
        n_perm, seed = 300, 4
        res = ps.permutation_test(CHECKER_2X2, CHECKER_2X2, w, n_perm=n_perm, seed=seed)
        assert res.statistic == 1.0
        perms = _philox_perms(4, n_perm, seed)
        same = int(np.count_nonzero((CHECKER_2X2[perms] == CHECKER_2X2).all(axis=1)))
        assert res.n_ge == same
        assert 0 < same < n_perm
    def test_lattice_symmetry_ties_counted(self):
        # On the 2x2 rook lattice W^T W xc is constant on each diagonal pair
        # of cells, so every relabeling that swaps within the pairs has the
        # observed L in exact arithmetic, however the kernel rounds it.
        w = _rook(2, 2)
        x = np.array([0.3, 0.1, 0.7, 0.2])
        y = np.array([0.1, 0.2, 0.2, 0.4])  # mirror-symmetric about the 0-3 diagonal
        dense = grid_dense(2, 2, "rook")
        p_oracle, _ = exhaustive_p(x, y, dense)
        assert round(p_oracle * 24) % 4 == 0

        # Monte Carlo: rank each regenerated relabeling in exact rational
        # arithmetic. L orders like (W y[pi]) . (W (n x - sum x)), since the
        # centering of y and the denominator do not depend on pi.
        n_perm, seed = 300, 8
        res = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
        perms = _philox_perms(4, n_perm, seed)
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
        p_exact, _ = exhaustive_p(CHECKER_2X2, CHECKER_2X2, grid_dense(2, 2, "rook"))
        mc = ps.permutation_test(CHECKER_2X2, CHECKER_2X2, w, n_perm=10000, seed=3)
        se = math.sqrt(p_exact * (1 - p_exact) / 10000)
        assert abs(mc.p_value - p_exact) <= 3.0 * se

    def test_one_way_pairs_give_the_exact_p(self):
        # pairs listed one way only still build symmetric weights, on which
        # the kernel's W W xc is Lee's L: the Monte Carlo p is the exact one
        pairs = list(zip([0, 0, 1, 2, 3, 3, 4, 5], [1, 2, 2, 0, 0, 1, 3, 4]))
        w = ps.WeightsMatrix(6, pairs)
        dense = dense_from_pairs(6, pairs)
        # lag(e_j) is column j of the stored W: every pair is held both ways
        assert np.array_equal(np.column_stack([w.lag(e) for e in np.eye(6)]), dense)
        assert w.nnz == 14
        rng = np.random.default_rng(5)
        n_perm = 20_000
        for seed in range(30):
            x, y = rng.normal(size=6), rng.normal(size=6)
            p_exact, _ = exhaustive_p(x, y, dense)
            mc = ps.permutation_test(x, y, w, n_perm=n_perm, seed=seed)
            se = math.sqrt(p_exact * (1 - p_exact) / n_perm)
            assert abs(mc.p_value - p_exact) <= 3.0 * se

    def test_matches_oracle_on_random_fields(self):
        # every arrangement scored by lees_l gives the oracle's L and p
        rng = np.random.default_rng(0)
        cases = ((_rook(2, 2), grid_dense(2, 2, "rook")),
                 (_queen(2, 3), grid_dense(2, 3, "queen")))
        for _ in range(4):
            for w, dense in cases:
                x = rng.normal(size=w.n)
                y = rng.normal(size=w.n)
                scores = _every_arrangement_scored(x, y, w)
                p_oracle, l_oracle = exhaustive_p(x, y, dense)
                assert _tie_tolerant_p(scores) == p_oracle
                assert scores[0] == pytest.approx(l_oracle, rel=1e-12)
