"""All-pairs pseudo-distance matrix over synthetic rosters."""

import concurrent.futures
import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import multiprocessing
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim import roster
from pitchsim.errors import GridMismatch, InsufficientPermutations, ZeroVariance

from oracles import grid_dense_queen, lee_formula
from rosters import (
    FWD_IDX,
    GK_IDX,
    MASTER_SEED,
    MID_IDX,
    N_PERM,
    blob_heatmap,
    default_grid,
    default_weights,
    five_player_roster,
    forty_player_roster,
    nine_player_roster,
)


@pytest.fixture(scope="module")
def grid():
    return default_grid()


@pytest.fixture(scope="module")
def weights(grid):
    return default_weights(grid)


@pytest.fixture(scope="module")
def five(grid):
    return five_player_roster(grid)


@pytest.fixture(scope="module")
def five_matrix(five, weights):
    return ps.compute_matrix(five, weights, n_perm=N_PERM, master_seed=MASTER_SEED)


def _quartet(grid):
    # two twins sharing a centre plus two moderately overlapping far players:
    # every player has a unique nearest neighbour by p-value
    rng = np.random.default_rng(23)
    return [
        blob_heatmap(rng, "t1", 30.0, 35.0, 10.0, grid),
        blob_heatmap(rng, "t2", 30.0, 35.0, 10.0, grid),
        blob_heatmap(rng, "f1", 75.0, 65.0, 12.0, grid),
        blob_heatmap(rng, "f2", 75.0, 40.0, 12.0, grid),
    ]


class TestFivePlayerMatrix:
    def test_matrix_shape_and_symmetry(self, five_matrix):
        p = five_matrix.pseudo_distance
        assert p.shape == (5, 5)
        assert np.array_equal(p, p.T)
        assert np.all((p > 0.0) & (p <= 1.0))
        assert five_matrix.player_ids == ("mid_a", "mid_b", "mid_c", "fwd", "gk")

    def test_self_tests_sit_at_the_p_floor(self, five_matrix):
        assert np.all(np.diag(five_matrix.pseudo_distance) == 1 / (N_PERM + 1))

    def test_goalkeeper_is_dissimilar_to_everyone(self, five_matrix):
        others = [i for i in range(5) if i != GK_IDX]
        assert all(five_matrix.statistic[GK_IDX, i] < 0.0 for i in others)
        assert all(five_matrix.pseudo_distance[GK_IDX, i] > 0.5 for i in others)

    def test_midfielders_outrank_forward_links(self, five_matrix):
        mid_mid = [five_matrix.statistic[i, j] for i in MID_IDX for j in MID_IDX if i < j]
        mid_fwd = [five_matrix.statistic[i, FWD_IDX] for i in MID_IDX]
        assert min(mid_mid) > max(mid_fwd)
        assert all(five_matrix.pseudo_distance[i, j] == 1 / (N_PERM + 1)
                   for i in MID_IDX for j in MID_IDX if i < j)

    def test_adding_a_player_preserves_existing_entries(self, five, weights, five_matrix):
        sub = ps.compute_matrix(five[:3], weights, n_perm=N_PERM, master_seed=MASTER_SEED)
        assert np.array_equal(sub.pseudo_distance, five_matrix.pseudo_distance[:3, :3])
        assert np.array_equal(sub.statistic, five_matrix.statistic[:3, :3])

    def test_worker_count_does_not_change_results(self, five, weights, five_matrix):
        par = ps.compute_matrix(five, weights, n_perm=N_PERM,
                                master_seed=MASTER_SEED, workers=4)
        assert par.player_ids == five_matrix.player_ids
        assert np.array_equal(par.pseudo_distance, five_matrix.pseudo_distance)
        assert np.array_equal(par.statistic, five_matrix.statistic)


class _SerialPool:
    """Stands in for ProcessPoolExecutor, which compute_matrix looks up in
    concurrent.futures when it starts a pool: records its size, maps in
    this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestPoolSize:
    @pytest.mark.parametrize("players, workers, cpus, pool_size", [
        (2, 8, 64, 3),         # 3 pairs: no more processes than pairs
        (2, 5000, 64, 3),
        (5, 5000, 4, 4),       # no more processes than CPUs
        (5, 3, 64, 3),
        (5, 2, 1, None),       # one process: the serial path, no pool
        (5, 8, None, None),    # unknown CPU count counts as one
        (2, 1, 64, None),
    ])
    def test_pool_capped_at_pairs_and_cpus(self, monkeypatch, five, weights, five_matrix,
                                           players, workers, cpus, pool_size):
        sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda n: _SerialPool(sizes, n))
        monkeypatch.setattr(roster.os, "cpu_count", lambda: cpus)
        m = ps.compute_matrix(five[:players], weights, n_perm=N_PERM,
                              master_seed=MASTER_SEED, workers=workers)
        assert sizes == ([] if pool_size is None else [pool_size])
        sub = np.ix_(range(players), range(players))
        assert np.array_equal(m.pseudo_distance, five_matrix.pseudo_distance[sub])
        assert np.array_equal(m.statistic, five_matrix.statistic[sub])


class TestPreparedPlayers:
    """compute_matrix prepares each player once; every entry stays the raw test."""

    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_entries_equal_raw_permutation_tests(self, grid, scheme, workers):
        nine, _ = nine_player_roster(grid)
        w = ps.adjacency(grid, scheme)
        m = ps.compute_matrix(nine, w, n_perm=N_PERM, master_seed=MASTER_SEED,
                              workers=workers)
        for i in range(9):
            for j in range(i, 9):
                x, y = sorted((nine[i], nine[j]), key=lambda h: h.player_id)
                want = ps.permutation_test(
                    x.cells, y.cells, w, n_perm=N_PERM,
                    seed=ps.pair_seed(MASTER_SEED, x.player_id, y.player_id))
                assert m.pseudo_distance[i, j] == m.pseudo_distance[j, i] == want.p_value
                assert m.statistic[i, j] == m.statistic[j, i] == want.statistic

    def test_every_pair_calls_the_module_level_permutation_test(self, monkeypatch, five,
                                                                weights, five_matrix):
        calls = []
        real = roster.permutation_test

        def counted(x, y, w, **kwargs):
            calls.append((x, y))
            return real(x, y, w, **kwargs)

        monkeypatch.setattr(roster, "permutation_test", counted)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda n: _SerialPool([], n))
        monkeypatch.setattr(roster.os, "cpu_count", lambda: 2)
        m = ps.compute_matrix(five, weights, n_perm=N_PERM, master_seed=MASTER_SEED,
                              workers=2)
        assert len(calls) == 5 * 6 // 2
        # one record per player, shared by all of that player's pairs
        records = {id(r) for pair in calls for r in pair}
        assert len(records) == 5
        assert all(isinstance(r, ps.PreparedCells) for pair in calls for r in pair)
        assert np.array_equal(m.pseudo_distance, five_matrix.pseudo_distance)


class TestCheckedPlayers:
    """compute_matrix also takes the players check_roster returned."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_checked_players_give_the_heatmaps_matrix(self, five, weights, workers):
        want = ps.compute_matrix(five, weights, n_perm=N_PERM, master_seed=MASTER_SEED,
                                 workers=workers)
        got = ps.compute_matrix(roster.check_roster(five, weights), weights, n_perm=N_PERM,
                                master_seed=MASTER_SEED, workers=workers)
        assert got.player_ids == want.player_ids
        assert np.array_equal(got.pseudo_distance, want.pseudo_distance)
        assert np.array_equal(got.statistic, want.statistic)

    @pytest.mark.parametrize("scheme", ["rook", "queen"])
    def test_players_prepared_on_other_weights_rejected(self, monkeypatch, grid, five,
                                                         weights, scheme):
        # a second queen adjacency is equal but not the same weights
        players = roster.check_roster(five, ps.adjacency(grid, scheme))

        def refuse(*args, **kwargs):
            raise AssertionError("a pair test or pool started")

        monkeypatch.setattr(roster, "permutation_test", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.raises(ValueError, match=r"^player 'mid_a' was prepared on other weights$"):
            ps.compute_matrix(players, weights, n_perm=9, workers=2)

    @pytest.mark.parametrize("players_first", [True, False])
    def test_players_mixed_with_heatmaps_rejected(self, five, weights, players_first):
        players, heatmaps = roster.check_roster(five[:2], weights), list(five[2:])
        mixed = players + heatmaps if players_first else heatmaps + players
        message = "^a roster is all heatmaps or all prepared players, not a mix$"
        with pytest.raises(ValueError, match=message):
            roster.check_roster(mixed, weights)
        with pytest.raises(ValueError, match=message):
            ps.compute_matrix(mixed, weights, n_perm=9)


class TestPoolCleanup:
    """No pool process outlives the run that started it."""

    def test_no_process_left_after_a_pooled_run(self, monkeypatch, five, weights):
        monkeypatch.setattr(roster.os, "cpu_count", lambda: 2)
        ps.compute_matrix(five, weights, n_perm=9, master_seed=MASTER_SEED, workers=2)
        assert multiprocessing.active_children() == []

    def test_no_process_left_after_the_runner_is_closed_early(self, monkeypatch, five,
                                                              weights, five_matrix):
        monkeypatch.setattr(roster.os, "cpu_count", lambda: 2)
        players = roster.check_roster(five, weights)
        pairs = [(i, j) for i in range(5) for j in range(i, 5)]
        results = roster._run(players, pairs, N_PERM, MASTER_SEED, 2)
        first = next(results)
        assert multiprocessing.active_children() != []
        results.close()
        assert multiprocessing.active_children() == []
        assert first.p_value == five_matrix.pseudo_distance[0, 0]


class TestPinnedCounts:
    """The p-value bytes of two rosters, recorded from the index-and-gather
    permutation path. p = (n_ge + 1) / (n_perm + 1), so they pin every n_ge
    and none of the BLAS rounding in L."""

    @pytest.mark.parametrize("roster_of,scheme,n_perm,digest", [
        (forty_player_roster, "queen", 99,
         "b273a91fc3fe90956008fcdb0ed5d3048206f903890da9859017be77a9ba4e86"),
        (nine_player_roster, "rook", 2500,
         "b1dd160d411dde65cadb08455359a4c99cedec3f8c7dd7d4f83a9eb4a1c59c9c"),
    ])
    def test_pseudo_distance_bytes(self, grid, roster_of, scheme, n_perm, digest):
        heatmaps, _ = roster_of(grid)
        m = ps.compute_matrix(heatmaps, ps.adjacency(grid, scheme), n_perm=n_perm,
                              master_seed=0)
        assert hashlib.sha256(m.pseudo_distance.tobytes()).hexdigest() == digest


class TestMatrixStructure:
    def test_identical_players_all_entries_at_floor(self, grid, weights):
        rng = np.random.default_rng(4)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        b = ps.Heatmap(player_id="b", grid=a.grid, cells=a.cells)
        m = ps.compute_matrix([a, b], weights, n_perm=N_PERM, master_seed=MASTER_SEED)
        assert np.all(m.pseudo_distance == 1 / (N_PERM + 1))
        assert np.all(m.statistic == m.statistic[0, 0])

    def test_disjoint_players_are_negatively_associated(self, grid, weights):
        nine, _ = nine_player_roster(grid)
        trio = [nine[0], nine[3], nine[6]]
        m = ps.compute_matrix(trio, weights, n_perm=N_PERM, master_seed=MASTER_SEED)
        off = [(i, j) for i in range(3) for j in range(3) if i < j]
        assert all(m.pseudo_distance[i, j] >= 0.9 for i, j in off)
        assert all(m.statistic[i, j] < 0.0 for i, j in off)
        want = lee_formula(trio[0].cells, trio[1].cells, grid_dense_queen(grid.rows, grid.cols))
        assert m.statistic[0, 1] == pytest.approx(want, rel=1e-12)

    def test_nearest_neighbour_is_stable_under_input_order(self, grid, weights):
        quartet = _quartet(grid)

        def nearest_by_id(heatmaps):
            m = ps.compute_matrix(heatmaps, weights, n_perm=N_PERM,
                                  master_seed=MASTER_SEED)
            p = m.pseudo_distance.copy()
            np.fill_diagonal(p, np.inf)
            return {
                m.player_ids[i]: m.player_ids[int(np.argmin(p[i]))]
                for i in range(len(heatmaps))
            }

        base = nearest_by_id(quartet)
        assert base == {"t1": "t2", "t2": "t1", "f1": "f2", "f2": "f1"}
        shuffled = [quartet[i] for i in (2, 0, 3, 1)]
        assert nearest_by_id(shuffled) == base


class TestValidation:
    def test_mixed_grids_rejected(self, grid, weights):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        other = ps.build_grid(7, 10)
        b = blob_heatmap(rng, "b", 40.0, 40.0, 9.0, other)
        with pytest.raises(GridMismatch):
            ps.compute_matrix([a, b], weights, n_perm=9)

    def test_weights_grid_mismatch_rejected(self, grid, weights):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        b = blob_heatmap(rng, "b", 60.0, 60.0, 9.0, grid)
        # the transposed lattice and the same neighbours given as pairs both
        # have the heatmaps' cell count
        for w in (ps.adjacency(ps.build_grid(7, 10), "queen"),
                  ps.adjacency(ps.build_grid(grid.cols, grid.rows), "rook"),
                  ps.WeightsMatrix(grid.n, np.argwhere(grid_dense_queen(grid.rows, grid.cols)))):
            with pytest.raises(GridMismatch, match="weights"):
                ps.compute_matrix([a, b], w, n_perm=9)

    def test_constant_heatmap_rejected_naming_player(self, grid, weights):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        flat = ps.Heatmap(player_id="flat", grid=grid, cells=np.full(grid.n, 1.0 / grid.n))
        with pytest.raises(ZeroVariance, match="flat"):
            ps.compute_matrix([a, flat], weights, n_perm=9)

    def test_unnormalized_heatmap_rejected(self, grid, weights):
        rng = np.random.default_rng(6)
        raw = ps.rasterize([(40.0, 40.0, 1.0)], grid, 5.0, player_id="a")
        b = blob_heatmap(rng, "b", 60.0, 60.0, 9.0, grid)
        with pytest.raises(ValueError, match="normalized"):
            ps.compute_matrix([raw, b], weights, n_perm=9)

    def test_duplicate_player_id_rejected_naming_it(self, grid, weights):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "twin", 40.0, 40.0, 9.0, grid)
        b = blob_heatmap(rng, "other", 60.0, 60.0, 9.0, grid)
        c = blob_heatmap(rng, "twin", 70.0, 30.0, 9.0, grid)
        with pytest.raises(ValueError, match="duplicate player id 'twin'"):
            ps.compute_matrix([a, b, c], weights, n_perm=9)

    def test_single_heatmap_rejected(self, grid, weights):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        with pytest.raises(ValueError, match="at least 2"):
            ps.compute_matrix([a], weights, n_perm=9)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_fewer_than_one_worker_rejected(self, five, weights, workers):
        with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
            ps.compute_matrix(five, weights, n_perm=9, workers=workers)

    @pytest.mark.parametrize("workers", [1.5, 2.5])
    def test_non_int_workers_rejected(self, monkeypatch, five, weights, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        with pytest.raises(TypeError):
            ps.compute_matrix(five, weights, n_perm=9, workers=workers)

    @pytest.mark.parametrize("n_perm, error", [
        (0, InsufficientPermutations),
        (99.0, TypeError),
    ])
    def test_bad_count_rejected_before_any_work(self, monkeypatch, five, weights,
                                                n_perm, error):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(roster, "_prepare", refuse)
        with pytest.raises(error):
            ps.compute_matrix(five, weights, n_perm=n_perm, workers=2)
        with pytest.raises(error):
            ps.pair_test(five[0], five[1], weights, n_perm=n_perm)


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestPairTestValidation:
    """pair_test refuses exactly the heatmaps compute_matrix refuses, with the same error."""

    @pytest.mark.parametrize("case, error", [
        ("transposed grid", GridMismatch),
        ("weights of another grid", GridMismatch),
        ("weights of the transposed grid", GridMismatch),
        ("weights from pairs", GridMismatch),
        ("unnormalized", ValueError),
        ("constant", ZeroVariance),
        ("shared id", ValueError),
    ])
    def test_same_refusal_as_compute_matrix(self, grid, weights, case, error):
        rng = np.random.default_rng(6)
        a = blob_heatmap(rng, "a", 40.0, 40.0, 9.0, grid)
        b = blob_heatmap(rng, "b", 60.0, 60.0, 9.0, grid)
        w = weights
        if case == "transposed grid":
            b = blob_heatmap(rng, "b", 60.0, 60.0, 9.0,
                             ps.build_grid(grid.cols, grid.rows))
        elif case == "weights of another grid":
            w = ps.adjacency(ps.build_grid(7, 10), "queen")
        elif case == "weights of the transposed grid":
            w = ps.adjacency(ps.build_grid(grid.cols, grid.rows), "queen")
        elif case == "weights from pairs":
            w = ps.WeightsMatrix(grid.n, np.argwhere(grid_dense_queen(grid.rows, grid.cols)))
        elif case == "unnormalized":
            b = ps.rasterize([(60.0, 60.0, 1.0)], grid, 5.0, player_id="b")
        elif case == "shared id":
            b = blob_heatmap(rng, "a", 60.0, 60.0, 9.0, grid)
        else:
            b = ps.Heatmap(player_id="b", grid=grid, cells=np.full(grid.n, 1.0 / grid.n))
        got = _refusal(lambda: ps.pair_test(a, b, w, n_perm=9))
        assert got == _refusal(lambda: ps.compute_matrix([a, b], w, n_perm=9))
        assert issubclass(got[0], error)


class TestNoSharedState:
    def test_concurrent_serial_matrices_keep_their_own_rosters(self, monkeypatch, grid,
                                                               weights):
        rng = np.random.default_rng(31)
        rosters = [[blob_heatmap(rng, f"{tag}{i}", 20.0 + 12.0 * i, cy, 9.0, grid)
                    for i in range(6)]
                   for tag, cy in (("a", 30.0), ("b", 70.0))]
        want = [ps.compute_matrix(r, weights, n_perm=N_PERM, master_seed=MASTER_SEED)
                for r in rosters]

        # each thread holds its first pair test until the other thread has
        # started its own pair loop, so the two loops overlap
        started = threading.Barrier(2, timeout=60)
        local = threading.local()
        real = roster.permutation_test

        def overlapped(*args, **kwargs):
            if not getattr(local, "started", False):
                local.started = True
                started.wait()
            return real(*args, **kwargs)

        monkeypatch.setattr(roster, "permutation_test", overlapped)
        got = [None, None]

        def run(t):
            got[t] = ps.compute_matrix(rosters[t], weights, n_perm=N_PERM,
                                       master_seed=MASTER_SEED, workers=1)

        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for g, m in zip(got, want):
            assert g is not None
            assert g.player_ids == m.player_ids
            assert np.array_equal(g.pseudo_distance, m.pseudo_distance)
            assert np.array_equal(g.statistic, m.statistic)

    def test_a_pooled_and_a_serial_matrix_run_in_two_threads(self, monkeypatch, grid,
                                                             weights):
        rng = np.random.default_rng(37)
        # (roster, master seed, workers): the second thread starts a pool
        calls = [([blob_heatmap(rng, f"{tag}{i}", 20.0 + 12.0 * i, cy, 9.0, grid)
                   for i in range(6)], seed, workers)
                 for tag, cy, seed, workers in (("a", 30.0, 3, 1), ("b", 70.0, 5, 2))]
        want = [ps.compute_matrix(r, weights, n_perm=N_PERM, master_seed=seed)
                for r, seed, _ in calls]
        monkeypatch.setattr(roster.os, "cpu_count", lambda: 2)
        started = threading.Barrier(2, timeout=60)
        got = [None, None]

        def run(t):
            r, seed, workers = calls[t]
            started.wait()
            got[t] = ps.compute_matrix(r, weights, n_perm=N_PERM, master_seed=seed,
                                       workers=workers)

        threads = [threading.Thread(target=run, args=(t,), daemon=True) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        for g, m in zip(got, want):
            assert g is not None
            assert g.player_ids == m.player_ids
            assert np.array_equal(g.pseudo_distance, m.pseudo_distance)
            assert np.array_equal(g.statistic, m.statistic)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_roster_global_keeps_the_players_or_weights(self, monkeypatch, grid, five,
                                                           workers):
        w = ps.adjacency(grid, "queen")
        records = []
        real = roster.prepare_cells

        def tracked(*args, **kwargs):
            cells = real(*args, **kwargs)
            records.append(weakref.ref(cells))
            return cells

        monkeypatch.setattr(roster, "prepare_cells", tracked)
        ps.compute_matrix(five, w, n_perm=9, master_seed=MASTER_SEED, workers=workers)
        gc.collect()
        assert len(records) == len(five)
        assert all(r() is None for r in records)
        state = [vars(roster)] + [v for v in vars(roster).values()
                                  if isinstance(v, (dict, list, set))]
        assert not any(r is s for r in gc.get_referrers(w) for s in state)


class TestPairSeed:
    def test_symmetric_in_the_pair(self):
        assert ps.pair_seed(0, "mid_a", "gk") == ps.pair_seed(0, "gk", "mid_a")
        assert ps.pair_seed(7, 3, 7) == ps.pair_seed(7, 7, 3)

    def test_distinct_across_pairs_and_masters(self):
        ids = [f"r{i // 10}_{i % 10}" for i in range(40)]
        seeds = set()
        for master in (0, 1):
            for i in range(40):
                for j in range(i, 40):
                    seeds.add(ps.pair_seed(master, ids[i], ids[j]))
        assert len(seeds) == 2 * 820

    def test_in_64_bit_range(self):
        for a, b in (("a", "a"), ("mid_a", "gk"), ("", "z" * 200)):
            s = ps.pair_seed(0, a, b)
            assert 0 <= s < 1 << 64

    def test_integer_ids_still_work(self):
        # perfbench/tracer.py seeds its single-test pass with pair_seed(0, 0, 1)
        s = ps.pair_seed(0, 0, 1)
        assert type(s) is int and 0 <= s < 1 << 64
        assert s == ps.pair_seed(0, "0", "1")

    @pytest.mark.parametrize("master", [-1, 1 << 64, (1 << 64) + 5, -(1 << 64)])
    def test_master_seed_outside_64_bits_rejected_before_any_test(
            self, master, five, weights, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a pair test or pool started")

        monkeypatch.setattr(roster, "_prepare", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        want = rf"master seed must be in \[0, 2\*\*64\), got {master}$"
        for call in (lambda: ps.pair_seed(master, "a", "b"),
                     lambda: ps.pair_test(five[0], five[1], weights, master_seed=master),
                     lambda: ps.compute_matrix(five, weights, master_seed=master, workers=2)):
            with pytest.raises(ValueError, match=want):
                call()

    def test_master_seeds_at_the_ends_of_the_range_are_distinct(self):
        seeds = {ps.pair_seed(master, "a", "b") for master in (0, 1, (1 << 64) - 1)}
        assert len(seeds) == 3


class TestPairTest:
    def test_permutes_the_player_whose_id_sorts_last(self, five, weights):
        gk, mid_b = five[GK_IDX], five[1]
        res = ps.pair_test(mid_b, gk, weights, n_perm=N_PERM, master_seed=MASTER_SEED)
        want = ps.permutation_test(gk.cells, mid_b.cells, weights, n_perm=N_PERM,
                                   seed=ps.pair_seed(MASTER_SEED, "gk", "mid_b"))
        assert res == want

    def test_one_heatmap_twice_is_its_self_test(self, five, weights, five_matrix):
        # compare mid_a mid_a passes one heatmap twice: that is no shared id
        for i, h in enumerate(five):
            res = ps.pair_test(h, h, weights, n_perm=N_PERM, master_seed=MASTER_SEED)
            assert (res.p_value, res.statistic) == \
                (five_matrix.pseudo_distance[i, i], five_matrix.statistic[i, i])

    def test_shuffled_roster_permutes_the_matrix(self, five, weights, five_matrix):
        order = [4, 2, 0, 3, 1]
        m = ps.compute_matrix([five[i] for i in order], weights, n_perm=N_PERM,
                              master_seed=MASTER_SEED)
        assert np.array_equal(m.pseudo_distance,
                              five_matrix.pseudo_distance[np.ix_(order, order)])
        assert np.array_equal(m.statistic, five_matrix.statistic[np.ix_(order, order)])


@st.composite
def _small_rosters(draw):
    """2-4 players with distinct ids of any non-surrogate text, in random order,
    and positive normalized cells on a 3x3 grid."""
    grid = ps.build_grid(3, 3)
    ids = draw(st.lists(st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
                        min_size=2, max_size=4, unique=True))
    cell = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
    players = []
    for pid in ids:
        cells = np.array(draw(st.lists(cell, min_size=9, max_size=9)
                              .filter(lambda c: min(c) < max(c))))
        players.append(ps.normalize(ps.Heatmap(player_id=pid, grid=grid, cells=cells)))
    return draw(st.permutations(players))


class TestPairJob:
    @settings(max_examples=25, deadline=None)
    @given(heatmaps=_small_rosters(), master=st.integers(0, (1 << 64) - 1))
    def test_matrix_entries_are_the_pair_tests_on_any_ids(self, heatmaps, master):
        w = ps.adjacency(heatmaps[0].grid, "queen")
        m = ps.compute_matrix(heatmaps, w, n_perm=9, master_seed=master, workers=1)
        for i, a in enumerate(heatmaps):
            for j, b in enumerate(heatmaps):
                res = ps.pair_test(a, b, w, n_perm=9, master_seed=master)
                x, y = sorted((a, b), key=lambda h: h.player_id)
                assert res == ps.permutation_test(
                    x.cells, y.cells, w, n_perm=9,
                    seed=ps.pair_seed(master, x.player_id, y.player_id))
                assert (m.pseudo_distance[i, j], m.statistic[i, j]) == \
                    (res.p_value, res.statistic)

    @pytest.mark.parametrize("n_perm,master_seed", [
        (np.int64(9), np.uint64(3)),
        (True, True),
    ])
    def test_numpy_and_bool_counts_are_stored_as_ints(self, five, weights, n_perm,
                                                      master_seed):
        m = ps.compute_matrix(five[:2], weights, n_perm=n_perm, master_seed=master_seed)
        res = ps.pair_test(five[0], five[1], weights, n_perm=n_perm, master_seed=master_seed)
        direct = ps.permutation_test(five[0].cells, five[1].cells, weights, n_perm=n_perm)
        assert all(type(v) is int for v in (m.n_perm, m.master_seed, res.n_perm, direct.n_perm))
        assert type(res.p_value) is float
        assert f'"n_perm": {int(n_perm)}, "master_seed": {int(master_seed)},' in \
            json.dumps(ps.matrix_to_json(m))
        want = ps.compute_matrix(five[:2], weights, n_perm=int(n_perm),
                                 master_seed=int(master_seed))
        assert np.array_equal(m.pseudo_distance, want.pseudo_distance)


HALVES = np.full((2, 2), 0.5)  # a valid 2x2 p and L matrix


class TestRosterMatrixRules:
    """A RosterMatrix is checked when it is built, so both writers take it as it is."""

    def test_fields_are_kept_as_checked_copies(self):
        p, lee = np.array([[0.5, 0.25], [0.25, 0.5]]), [[1, -2], [-2, 3]]
        m = ps.RosterMatrix(["a", "b"], p, lee, np.int64(9), np.uint64(3))
        p[0, 1] = p[1, 0] = 0.75
        assert m.player_ids == ("a", "b")
        assert (type(m.n_perm), type(m.master_seed)) == (int, int)
        assert m.pseudo_distance[0, 1] == 0.25
        for a in (m.pseudo_distance, m.statistic):
            assert a.dtype == np.float64 and not a.flags.writeable
        with pytest.raises(ValueError):
            m.statistic[0, 0] = 0.0

    @pytest.mark.parametrize("field", ["pseudo_distance", "statistic"])
    def test_asymmetric_matrix_refused(self, five_matrix, field):
        values = getattr(five_matrix, field).copy()
        values[0, 1] = values[1, 0] / 2
        with pytest.raises(ValueError, match=f"^{field} must be 5x5, finite and symmetric$"):
            dataclasses.replace(five_matrix, **{field: values})

    def test_more_ids_than_rows_refused(self):
        with pytest.raises(ValueError, match="^pseudo_distance must be 3x3, finite and symmetric$"):
            ps.RosterMatrix(("a", "b", "c"), HALVES, HALVES, 9, 0)

    def test_duplicate_ids_refused(self):
        with pytest.raises(ValueError, match="^player ids must be distinct$"):
            ps.RosterMatrix(("a", "a"), HALVES, HALVES, 9, 0)

    @pytest.mark.parametrize("off", [0.0, -0.5, 1.5])
    def test_p_outside_zero_one_refused(self, off):
        p = np.array([[1.0, off], [off, 1.0]])
        with pytest.raises(ValueError, match=r"^p-values must be in \(0, 1\]$"):
            ps.RosterMatrix(("a", "b"), p, HALVES, 9, 0)

    @pytest.mark.parametrize("n_perm, master_seed, error", [
        (0, 0, InsufficientPermutations),
        (9, 1 << 64, ValueError),
        (9.0, 0, TypeError),
        (9, "0", TypeError),
    ])
    def test_counts_follow_their_rules(self, n_perm, master_seed, error):
        with pytest.raises(error):
            ps.RosterMatrix(("a", "b"), HALVES, HALVES, n_perm, master_seed)


class TestSerialization:
    def test_json_round_trip(self, five_matrix):
        doc = json.loads(json.dumps(ps.matrix_to_json(five_matrix)))
        assert tuple(doc["player_ids"]) == five_matrix.player_ids
        assert doc["n_perm"] == five_matrix.n_perm
        assert doc["master_seed"] == five_matrix.master_seed
        assert np.array_equal(np.asarray(doc["p"]), five_matrix.pseudo_distance)
        assert np.array_equal(np.asarray(doc["l"]), five_matrix.statistic)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["pseudo_distance", "statistic"])
    def test_non_finite_value_refused_for_json(self, five_matrix, field, bad):
        # the record refuses it, so no writer ever sees it
        values = getattr(five_matrix, field).copy()
        values[0, 1] = values[1, 0] = bad
        with pytest.raises(ValueError, match=f"^{field} must be 5x5, finite and symmetric$"):
            dataclasses.replace(five_matrix, **{field: values})

    def test_pairs_csv_layout(self, five_matrix):
        text = ps.pairs_to_csv(five_matrix)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["player_a", "player_b", "lee_l", "p_value"]
        assert len(rows) == 1 + 15  # header + upper triangle with diagonal
        assert rows[1][:2] == ["mid_a", "mid_a"]
        assert float(rows[1][2]) == five_matrix.statistic[0, 0]
        assert float(rows[1][3]) == five_matrix.pseudo_distance[0, 0]
        pairs = {(r[0], r[1]) for r in rows[1:]}
        assert ("gk", "gk") in pairs and ("mid_a", "gk") in pairs
