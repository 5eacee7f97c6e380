"""Pairwise pseudo-distance matrix over a roster of player heatmaps."""

from __future__ import annotations

import csv
import hashlib
import io
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from .errors import GridMismatch, ZeroVariance
from .grid import WeightsMatrix
from .heatmap import Heatmap
from .stats import PreparedCells, TestResult, permutation_test, prepare_cells

__all__ = [
    "RosterMatrix",
    "compute_matrix",
    "pair_seed",
    "pair_test",
    "matrix_to_json",
    "pairs_to_csv",
]

@dataclass(frozen=True)
class RosterMatrix:
    """All-pairs test results for a roster.

    ``pseudo_distance`` holds the one-sided permutation p-values (symmetric,
    diagonal = self-test, entries in (0, 1]); ``statistic`` the observed
    Lee's L values. The p-value is a pseudo-distance only: the triangle
    inequality is not guaranteed.
    """

    player_ids: tuple[str, ...]
    pseudo_distance: np.ndarray
    statistic: np.ndarray
    n_perm: int
    master_seed: int


def pair_seed(master_seed: int, a, b) -> int:
    """Deterministic 64-bit seed for the unordered pair of player ids (a, b).

    Symmetric in a and b and a function of the two ids alone, so neither the
    argument order nor the other players in a roster change a pair's seed.
    The master seed and an 8-byte BLAKE2b digest of each id's ``str``, in
    sorted order, are absorbed as fixed-width words by numpy's SeedSequence:
    distinct master seeds cannot collide with shifted digests. Integer ids
    therefore seed like their decimal strings. ``master_seed`` must be an
    int in [0, 2**64).
    """
    _check_seed(master_seed)
    return _seed(master_seed, _digest(a), _digest(b))


def _check_seed(master_seed: int) -> None:
    if not 0 <= operator.index(master_seed) < 1 << 64:
        raise ValueError(f"master seed must be in [0, 2**64), got {master_seed}")


def _digest(pid) -> int:
    return int.from_bytes(hashlib.blake2b(str(pid).encode("utf-8"), digest_size=8).digest(),
                          "little")


def _seed(master_seed: int, da: int, db: int) -> int:
    lo, hi = sorted((da, db))
    words = np.array([master_seed, lo, hi], dtype=np.uint64)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class _Player:
    """What every pair test of one player needs from that player alone."""

    player_id: str
    digest: int
    cells: PreparedCells


def _prepare(heatmaps: list[Heatmap], w: WeightsMatrix) -> list[_Player]:
    """Each player's half of every pair test on ``w``; the one place the
    per-player rules (on the grid ``w`` was built on, normalized, not constant) are checked."""
    players = []
    for h in heatmaps:
        if h.grid != w.grid:
            raise GridMismatch(f"player {h.player_id!r} is on {h.grid}, "
                               f"the weights on {w.grid or 'no grid'}")
        if not h.normalized:
            raise ValueError(f"heatmap {h.player_id!r} is not normalized")
        try:
            cells = prepare_cells(h.cells, w)
        except ZeroVariance:
            raise ZeroVariance(f"player {h.player_id!r} has a constant heatmap") from None
        players.append(_Player(h.player_id, _digest(h.player_id), cells))
    return players


def _test(a: _Player, b: _Player, n_perm: int, master_seed: int) -> TestResult:
    # permutation_test is looked up here at call time, so a wrapper
    # installed on this module sees every pair test
    x, y = (a, b) if a.player_id <= b.player_id else (b, a)
    seed = _seed(master_seed, x.digest, y.digest)
    return permutation_test(x.cells, y.cells, x.cells.w, n_perm=n_perm, seed=seed)


def pair_test(a: Heatmap, b: Heatmap, w: WeightsMatrix, n_perm: int = 999,
              master_seed: int = 0) -> TestResult:
    """Permutation test of one pair of players, keyed by their identities.

    The heatmap whose ``player_id`` sorts first is held fixed and the other
    one is permuted, with the stream seeded by :func:`pair_seed`. The result
    is therefore the same for (a, b) and (b, a), and in any roster that
    holds the pair. ``w`` must come from :func:`~pitchsim.grid.adjacency` on
    the heatmaps' own grid. It refuses the same heatmaps and weights as
    :func:`compute_matrix`, with the same errors.
    """
    _check_seed(master_seed)
    return _test(*_prepare([a, b], w), n_perm, master_seed)


def _pair(players, n_perm, master_seed, pair: tuple[int, int]) -> tuple[int, int, TestResult]:
    i, j = pair
    return i, j, _test(players[i], players[j], n_perm, master_seed)


def compute_matrix(
    heatmaps: list[Heatmap],
    w: WeightsMatrix,
    n_perm: int = 999,
    master_seed: int = 0,
    workers: int = 1,
) -> RosterMatrix:
    """Run the permutation test for every unordered pair, diagonal included.

    Each entry is :func:`pair_test` of the two players, so it depends on
    their two heatmaps, ``w``, ``n_perm`` and ``master_seed`` only, and
    player ids are the identity that keys it: reordering the heatmaps only
    permutes the matrix, adding a player leaves every existing entry
    unchanged, and results are bitwise identical for any worker count and
    any pair scheduling order. Each player's half of the work (checks,
    centering, spatial lags, id digest) is done once, so the pair loop does
    only per-pair work. A pool of ``min(workers, pairs, CPUs)`` processes
    maps one bound pair test over chunks of pairs, each chunk carrying the
    prepared players; with one process, the pairs run in this process. No
    module state is kept, so several threads may call this at once.

    Raises
    ------
    GridMismatch
        If a heatmap is not on the grid ``w`` was built on by
        :func:`~pitchsim.grid.adjacency`; ``from_pairs`` weights are on none.
    ZeroVariance
        Naming the first player whose heatmap is constant.
    ValueError
        If fewer than 2 heatmaps, two heatmaps share a player id, any
        heatmap is not normalized, or ``master_seed`` is outside [0, 2**64).
    """
    _check_seed(master_seed)
    k = len(heatmaps)
    if k < 2:
        raise ValueError(f"need at least 2 heatmaps, got {k}")
    seen = set()
    for h in heatmaps:
        if h.player_id in seen:
            raise ValueError(f"duplicate player id {h.player_id!r}")
        seen.add(h.player_id)
    players = _prepare(heatmaps, w)

    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    # the pool starts all its processes at once
    workers = min(workers, len(pairs), os.cpu_count() or 1)

    test = partial(_pair, players, n_perm, master_seed)
    pmat = np.empty((k, k))
    lmat = np.empty((k, k))
    with ExitStack() as stack:
        if workers <= 1:
            results = map(test, pairs)
        else:
            # each chunk of pairs carries the prepared players in one pickle
            pool = stack.enter_context(ProcessPoolExecutor(workers))
            results = pool.map(test, pairs, chunksize=max(1, len(pairs) // (workers * 4)))
        # position-addressed writes: scheduling order never affects the matrix
        for i, j, res in results:
            pmat[i, j] = pmat[j, i] = res.p_value
            lmat[i, j] = lmat[j, i] = res.statistic

    return RosterMatrix(
        player_ids=tuple(h.player_id for h in heatmaps),
        pseudo_distance=pmat,
        statistic=lmat,
        n_perm=n_perm,
        master_seed=master_seed,
    )


def matrix_to_json(m: RosterMatrix) -> dict:
    return {
        "player_ids": list(m.player_ids),
        "n_perm": m.n_perm,
        "master_seed": m.master_seed,
        "p": np.asarray(m.pseudo_distance, dtype=np.float64).tolist(),
        "l": np.asarray(m.statistic, dtype=np.float64).tolist(),
    }


def pairs_to_csv(m: RosterMatrix) -> str:
    """Flat CSV of unordered pairs (diagonal included): player_a,player_b,lee_l,p_value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["player_a", "player_b", "lee_l", "p_value"])
    ids = m.player_ids
    lmat = np.asarray(m.statistic, dtype=np.float64).tolist()
    pmat = np.asarray(m.pseudo_distance, dtype=np.float64).tolist()
    for i, a in enumerate(ids):
        writer.writerows(zip(repeat(a), ids[i:], map(repr, lmat[i][i:]), map(repr, pmat[i][i:])))
    return buf.getvalue()
