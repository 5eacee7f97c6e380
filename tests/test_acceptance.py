"""Acceptance suite: one verdict line per criterion, tolerances pinned.

Each test prints a single [PASS]/[FAIL] line (bypassing capture so the
verdicts always appear in the run log) and then asserts.
"""

import json
import math
import time

import numpy as np
import pytest

import pitchsim as ps
from pitchsim.cli import main as cli_main

from oracles import lee_formula
from rosters import (
    FWD_IDX,
    GK_IDX,
    MASTER_SEED,
    MID_IDX,
    N_PERM,
    default_grid,
    default_weights,
    five_player_roster,
    forty_player_roster,
    nine_player_roster,
)


def _verdict(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}", flush=True)
    assert ok, text


def _random_weights(rng, n):
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.45]
        if not pairs:
            continue
        w = ps.WeightsMatrix.from_pairs(n, pairs)
        if np.all(w.row_sums() > 0):
            return w


@pytest.fixture(scope="module")
def five_matrix_timed():
    g = default_grid()
    heatmaps = five_player_roster(g)
    t0 = time.perf_counter()
    m = ps.compute_matrix(heatmaps, default_weights(g),
                          n_perm=N_PERM, master_seed=MASTER_SEED)
    return m, time.perf_counter() - t0


def test_1_statistic_matches_term_by_term_formula(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        n = (4, 9, 16)[k % 3]
        w = _random_weights(rng, n)
        dense = w.to_dense()
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        got = ps.lees_l(x, y, w)
        want = lee_formula(x, y, dense)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        worst <= 1e-12 and elapsed < 5.0,
        f"1 formula oracle: 200 random instances, worst rel err {worst:.2e} "
        f"(tol 1e-12), {elapsed:.2f}s (< 5s)",
    )


def test_2_moran_checkerboard_and_gradients(capsys):
    t0 = time.perf_counter()
    checker = np.array([1.0, -1.0, -1.0, 1.0])
    exact = ps.morans_i(checker, ps.adjacency(ps.build_grid(2, 2), "rook"))
    min_grad = math.inf
    for rows in range(2, 11):
        for cols in range(2, 11):
            if rows == 2 and cols == 2:
                # on the 2x2 lattice rook adjacency is bipartite-complete,
                # so no field can autocorrelate positively (I <= 0 always)
                continue
            grid = ps.build_grid(rows, cols)
            r, c = np.divmod(np.arange(grid.n), cols)
            ramp = (r + c).astype(float)
            for scheme in ("rook", "queen"):
                min_grad = min(min_grad, ps.morans_i(ramp, ps.adjacency(grid, scheme)))
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        exact == -1.0 and min_grad > 0.0 and elapsed < 1.0,
        f"2 moran references: checkerboard I = {exact} (exactly -1), gradient "
        f"min I {min_grad:.4f} > 0 on grids to 10x10, {elapsed:.2f}s (< 1s)",
    )


def test_3_monte_carlo_matches_exhaustive(capsys):
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    worst_gap = -math.inf
    for k in range(20):
        n = (4, 5, 6, 7)[k % 4]
        w = _random_weights(rng, n)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        exact = ps.exact_permutation_test(x, y, w)
        mc = ps.permutation_test(x, y, w, n_perm=50000, seed=100 + k)
        se = math.sqrt(exact.p_value * (1.0 - exact.p_value) / 50000)
        gap = abs(mc.p_value - exact.p_value) - 3.0 * se
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    _verdict(
        capsys,
        worst_gap <= 0.0 and elapsed < 120.0,
        f"3 exact vs monte carlo: 20 pairs (n <= 7), worst |diff| - 3se = "
        f"{worst_gap:.2e} (<= 0), {elapsed:.1f}s (< 2min)",
    )


def test_4_role_sign_structure(five_matrix_timed, capsys):
    m, elapsed = five_matrix_timed
    others = [i for i in range(5) if i != GK_IDX]
    gk_neg = all(m.statistic[GK_IDX, i] < 0.0 for i in others)
    gk_p = all(m.pseudo_distance[GK_IDX, i] > 0.5 for i in others)
    mid_mid = [m.statistic[i, j] for i in MID_IDX for j in MID_IDX if i < j]
    mid_fwd = [m.statistic[i, FWD_IDX] for i in MID_IDX]
    ordered = min(mid_mid) > max(mid_fwd)
    _verdict(
        capsys,
        gk_neg and gk_p and ordered and elapsed < 30.0,
        f"4 role sign structure: keeper L < 0 and p > 0.5 vs all "
        f"({gk_neg and gk_p}), min mid-mid L {min(mid_mid):.3f} > max mid-fwd L "
        f"{max(mid_fwd):.3f}, matrix in {elapsed:.1f}s (< 30s)",
    )


def test_5_merge_order_midfield_first_keeper_last(five_matrix_timed, capsys):
    m, _ = five_matrix_timed
    dend = ps.complete_linkage(m.pseudo_distance, m.player_ids)
    first_pair = {dend.merges[0].left, dend.merges[0].right}
    mids_first = first_pair <= set(MID_IDX)
    keeper_last = dend.merges[-1].right == GK_IDX
    _verdict(
        capsys,
        mids_first and keeper_last,
        f"5 merge order: first merge {sorted(first_pair)} within midfield "
        f"{MID_IDX}, final attach is keeper leaf {GK_IDX}",
    )


def test_6_cut_recovers_generating_groups(capsys):
    g = default_grid()
    heatmaps, roles = nine_player_roster(g)
    m = ps.compute_matrix(heatmaps, default_weights(g),
                          n_perm=N_PERM, master_seed=MASTER_SEED)
    labels = ps.cut(ps.complete_linkage(m.pseudo_distance, m.player_ids), 0.5)
    agree = sum(
        (labels[i] == labels[j]) == (roles[i] == roles[j])
        for i in range(9) for j in range(i + 1, 9)
    )
    rand_index = agree / 36.0
    _verdict(
        capsys,
        rand_index == 1.0,
        f"6 cut-off recovery: 9 players, cut 0.5, Rand index {rand_index} (= 1.0)",
    )


def test_7_pvalue_saturation(capsys):
    g = default_grid()
    heatmaps, _ = forty_player_roster(g)
    t0 = time.perf_counter()
    m = ps.compute_matrix(heatmaps, default_weights(g),
                          n_perm=N_PERM, master_seed=MASTER_SEED, workers=4)
    elapsed = time.perf_counter() - t0
    off = m.pseudo_distance[np.triu_indices(40, k=1)]
    frac = float(np.mean((off <= 0.01) | (off >= 0.9)))
    _verdict(
        capsys,
        frac >= 0.8 and elapsed < 300.0,
        f"7 p-value saturation: {frac:.1%} of 780 pairwise p-values in "
        f"[0, 0.01] u [0.9, 1] (>= 80%), {elapsed:.1f}s (< 5min)",
    )


def test_8_worker_count_gives_byte_identical_outputs(tmp_path, capsys):
    g = default_grid()
    heatmaps, _ = nine_player_roster(g)
    hm_dir = tmp_path / "hm"
    hm_dir.mkdir()
    paths = []
    for h in heatmaps:
        p = hm_dir / f"{h.player_id}.json"
        p.write_text(json.dumps(ps.heatmap_to_json(h)), encoding="utf-8")
        paths.append(str(p))
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        code = cli_main(["cluster", *paths, "--cut", "0.5",
                         "--workers", str(workers), "--out", str(out)])
        assert code == 0
        outs[workers] = out
    same_csv = (outs[1] / "pairs.csv").read_bytes() == (outs[4] / "pairs.csv").read_bytes()
    same_nwk = (outs[1] / "dendrogram.nwk").read_bytes() == \
        (outs[4] / "dendrogram.nwk").read_bytes()
    _verdict(
        capsys,
        same_csv and same_nwk,
        f"8 determinism: cluster run with 1 vs 4 workers, pairs.csv identical "
        f"({same_csv}), dendrogram.nwk identical ({same_nwk})",
    )


def test_9_null_calibration(capsys):
    w = ps.adjacency(ps.build_grid(4, 5), "queen")
    rng = np.random.default_rng(97)
    x = rng.normal(size=20)
    t0 = time.perf_counter()
    hits = 0
    for rep in range(500):
        y = rng.permutation(x)
        res = ps.permutation_test(x, y, w, n_perm=999, seed=rep)
        hits += res.p_value <= 0.05
    elapsed = time.perf_counter() - t0
    frac = hits / 500.0
    bound = 0.05 + 1.0 / 1000.0 + 3.0 * math.sqrt(0.05 * 0.95 / 500)
    _verdict(
        capsys,
        frac <= bound,
        f"9 null calibration: P(p <= 0.05) = {frac:.4f} over 500 replicates "
        f"(bound {bound:.4f}), {elapsed:.1f}s",
    )
