"""Pairwise pseudo-distance matrix over a roster of player heatmaps."""

from __future__ import annotations

import csv
import hashlib
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

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

_MASK64 = (1 << 64) - 1


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
    therefore seed like their decimal strings.
    """
    return _seed(master_seed, _digest(a), _digest(b))


def _digest(pid) -> int:
    return int.from_bytes(hashlib.blake2b(str(pid).encode("utf-8"), digest_size=8).digest(),
                          "little")


def _seed(master_seed: int, da: int, db: int) -> int:
    lo, hi = sorted((da, db))
    words = np.array([master_seed & _MASK64, lo, hi], dtype=np.uint64)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class _Player:
    """What every pair test of one player needs from that player alone."""

    player_id: str
    digest: int
    cells: PreparedCells


def _prepare(heatmaps: list[Heatmap], w: WeightsMatrix) -> list[_Player]:
    """Each player's half of every pair test on ``w``; the one place the
    per-player rules (one grid of ``w.n`` cells, normalized, not constant) are checked."""
    rows, cols, _ = ref = heatmaps[0].grid_ref
    if w.n != rows * cols:
        raise GridMismatch(f"weights have {w.n} cells, heatmaps have {rows * cols}")
    players = []
    for h in heatmaps:
        if h.grid_ref != ref:
            raise GridMismatch(
                f"player {h.player_id!r} uses grid {h.grid_ref}, others use {ref}"
            )
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
    holds the pair. It refuses the same heatmaps as :func:`compute_matrix`,
    with the same errors.
    """
    return _test(*_prepare([a, b], w), n_perm, master_seed)


def _pair(players, n_perm, master_seed, pair: tuple[int, int]) -> tuple[int, int, TestResult]:
    i, j = pair
    return i, j, _test(players[i], players[j], n_perm, master_seed)


_POOL: dict = {}  # a pool worker process's bound _pair, set once by _pool_init


def _pool_init(players, n_perm, master_seed):
    _POOL["pair"] = partial(_pair, players, n_perm, master_seed)


def _pool_pair(pair: tuple[int, int]) -> tuple[int, int, TestResult]:
    return _POOL["pair"](pair)


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
    centering, spatial lags, id digest) is done once, before the pool
    starts, so the pair loop does only per-pair work. The pool has
    ``min(workers, pairs, CPUs)`` processes; with one, the pairs run in
    this process. No module state is kept in the calling process, so
    several threads may call this at once.

    Raises
    ------
    GridMismatch
        If the heatmaps do not all share one grid matching ``w``.
    ZeroVariance
        Naming the first player whose heatmap is constant.
    ValueError
        If fewer than 2 heatmaps, two heatmaps share a player id, or any
        heatmap is not normalized.
    """
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

    pmat = np.empty((k, k))
    lmat = np.empty((k, k))
    if workers <= 1:
        _fill(pmat, lmat, map(partial(_pair, players, n_perm, master_seed), pairs))
    else:
        # workers get the prepared players once, with the pool state, not per pair
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(players, n_perm, master_seed),
        ) as pool:
            chunk = max(1, len(pairs) // (workers * 4))
            _fill(pmat, lmat, pool.map(_pool_pair, pairs, chunksize=chunk))

    return RosterMatrix(
        player_ids=tuple(h.player_id for h in heatmaps),
        pseudo_distance=pmat,
        statistic=lmat,
        n_perm=n_perm,
        master_seed=master_seed,
    )


def _fill(pmat: np.ndarray, lmat: np.ndarray, results) -> None:
    # position-addressed writes: scheduling order never affects the matrix
    for i, j, res in results:
        pmat[i, j] = pmat[j, i] = res.p_value
        lmat[i, j] = lmat[j, i] = res.statistic


def matrix_to_json(m: RosterMatrix) -> dict:
    return {
        "player_ids": list(m.player_ids),
        "n_perm": m.n_perm,
        "master_seed": m.master_seed,
        "p": [[float(v) for v in row] for row in m.pseudo_distance],
        "l": [[float(v) for v in row] for row in m.statistic],
    }


def pairs_to_csv(m: RosterMatrix) -> str:
    """Flat CSV of unordered pairs (diagonal included): player_a,player_b,lee_l,p_value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["player_a", "player_b", "lee_l", "p_value"])
    k = len(m.player_ids)
    for i in range(k):
        for j in range(i, k):
            writer.writerow(
                [
                    m.player_ids[i],
                    m.player_ids[j],
                    repr(float(m.statistic[i, j])),
                    repr(float(m.pseudo_distance[i, j])),
                ]
            )
    return buf.getvalue()
