"""Pairwise pseudo-distance matrix over a roster of player heatmaps."""

from __future__ import annotations

import csv
import hashlib
import io
import operator
import os
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from . import _HOMES
from .errors import GridMismatch, ZeroVariance, as_float64, check_n_perm, check_seed, check_workers
from .grid import WeightsMatrix
from .heatmap import Heatmap
from .stats import (
    PreparedCells,
    TestResult,
    permutation_test,
    prepare_cells,
)

__all__ = list(_HOMES["roster"])


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


def check_roster(heatmaps, w: WeightsMatrix) -> list[tuple[str, PreparedCells]]:
    """At least 2 heatmaps, then :func:`_prepare`'s per-player rules; returns its players.
    Players it returned are returned as they are, once each is seen to be prepared on ``w``."""
    if len(heatmaps) < 2:
        raise ValueError(f"need at least 2 heatmaps, got {len(heatmaps)}")
    if all(isinstance(p, tuple) for p in heatmaps):  # its own players
        for pid, cells in heatmaps:
            if cells.w is not w:
                raise ValueError(f"player {pid!r} was prepared on other weights")
        return list(heatmaps)
    return _prepare(heatmaps, w)


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
    check_seed(master_seed, "master seed")
    digests = (hashlib.blake2b(str(pid).encode("utf-8"), digest_size=8).digest() for pid in (a, b))
    lo, hi = sorted(int.from_bytes(d, "little") for d in digests)
    words = np.array([master_seed, lo, hi], dtype=np.uint64)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def _prepare(heatmaps: list[Heatmap], w: WeightsMatrix) -> list[tuple[str, PreparedCells]]:
    """Each player's half of every pair test on ``w``; the one place the per-player rules
    (a distinct id, on the grid of ``w``, cells that sum to 1, not constant) are checked."""
    seen = set()
    for h in heatmaps:
        if h.player_id in seen:
            raise ValueError(f"duplicate player id {h.player_id!r}")
        seen.add(h.player_id)
    players = []
    for h in heatmaps:
        if h.grid != w.grid:
            raise GridMismatch(f"player {h.player_id!r} is on {h.grid}, "
                               f"the weights on {w.grid or 'no grid'}")
        if not h.normalized:
            raise ValueError(f"heatmap {h.player_id!r} is not normalized")
        try:
            cells = prepare_cells(h.cells, w, f"player {h.player_id!r}")
        except ZeroVariance:
            raise ZeroVariance(f"player {h.player_id!r} has a constant heatmap") from None
        players.append((h.player_id, cells))
    return players


def _test(players, n_perm: int, master_seed: int, pair: tuple[int, int]) -> TestResult:
    """Test of the ``players`` at the indices ``pair``; the id that sorts first is held fixed."""
    (a, x), (b, y) = sorted((players[i] for i in pair), key=operator.itemgetter(0))
    # permutation_test is looked up here at call time, so a wrapper
    # installed on this module sees every pair test
    return permutation_test(x, y, x.w, n_perm=n_perm, seed=pair_seed(master_seed, a, b))


def _run(players, pairs, n_perm: int, master_seed: int, workers: int):
    """Yield :func:`_test` of each of the index ``pairs``, in order. A pool of ``min(workers,
    pairs, CPUs)`` processes, all started at once, maps them in chunks that each carry the
    players, and is shut down when the runner ends or is closed; one process runs them here."""
    test = partial(_test, players, n_perm, master_seed)
    workers = min(workers, len(pairs), os.cpu_count() or 1)
    if workers <= 1:
        yield from map(test, pairs)
        return
    # loaded here, so a one-process run never imports the pool's modules
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        yield from pool.map(test, pairs, chunksize=max(1, len(pairs) // (workers * 4)))


def pair_test(a: Heatmap, b: Heatmap, w: WeightsMatrix, n_perm: int = 999,
              master_seed: int = 0) -> TestResult:
    """Permutation test of one pair of players, keyed by their identities.

    The heatmap whose ``player_id`` sorts first is held fixed and the other
    one is permuted, with the stream seeded by :func:`pair_seed`. The result
    is therefore the same for (a, b) and (b, a), and in any roster that
    holds the pair: it is :func:`compute_matrix`'s one-pair job. ``w`` must
    come from :func:`~pitchsim.grid.adjacency` on the heatmaps' own grid.
    It refuses the same heatmaps and weights as :func:`compute_matrix`, with
    the same errors, two heatmaps that share a player id included; one
    heatmap passed twice is its self-test.
    """
    check_seed(master_seed, "master seed")
    check_n_perm(n_perm)
    players = _prepare([a] if a is b else [a, b], w)
    return next(_run(players, [(0, len(players) - 1)], n_perm, master_seed, 1))


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
    any pair scheduling order. ``heatmaps`` may also be the players that
    :func:`check_roster` returned on ``w``: each player's half of the work
    (checks, centering, spatial lags) is done once, and each pair test
    digests the two ids into its seed. All pairs go through the one pair
    runner, on ``min(workers, pairs, CPUs)`` processes. No module state is
    kept, so several threads may call this at once.

    Raises
    ------
    GridMismatch
        If a heatmap is not on the grid ``w`` was built on by
        :func:`~pitchsim.grid.adjacency`; weights built on no grid match no heatmap.
    ZeroVariance
        Naming the first player whose heatmap is constant.
    InsufficientPermutations
        If ``n_perm`` < 1, before any player is prepared or pool started.
    ValueError
        If fewer than 2 heatmaps, two heatmaps share a player id, any
        heatmap is not normalized, a player was prepared on other weights,
        ``master_seed`` is outside [0, 2**64), or ``workers`` is below 1.
    """
    check_seed(master_seed, "master seed")
    check_n_perm(n_perm)
    check_workers(workers)
    players = check_roster(heatmaps, w)
    k = len(players)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    pmat, lmat = np.empty((k, k)), np.empty((k, k))
    # position-addressed writes: scheduling order never affects the matrix
    for (i, j), res in zip(pairs, _run(players, pairs, n_perm, master_seed, workers)):
        pmat[i, j] = pmat[j, i] = res.p_value
        lmat[i, j] = lmat[j, i] = res.statistic

    return RosterMatrix(
        player_ids=tuple(pid for pid, _ in players),
        pseudo_distance=pmat,
        statistic=lmat,
        n_perm=operator.index(n_perm),
        master_seed=operator.index(master_seed),
    )


def matrix_to_json(m: RosterMatrix) -> dict:
    """The roster matrix as a JSON-ready document.

    Raises
    ------
    ValueError
        If a p or L value is not finite: JSON has no NaN or infinity.
    """
    p, lee = as_float64(m.pseudo_distance, "pseudo_distance"), as_float64(m.statistic, "statistic")
    if not (np.isfinite(p).all() and np.isfinite(lee).all()):
        raise ValueError("p and L values must be finite for JSON export")
    return {"player_ids": list(m.player_ids), "n_perm": m.n_perm,
            "master_seed": m.master_seed, "p": p.tolist(), "l": lee.tolist()}


def pairs_to_csv(m: RosterMatrix) -> str:
    """Flat CSV of unordered pairs (diagonal included): player_a,player_b,lee_l,p_value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["player_a", "player_b", "lee_l", "p_value"])
    ids = m.player_ids
    lmat = as_float64(m.statistic, "statistic").tolist()
    pmat = as_float64(m.pseudo_distance, "pseudo_distance").tolist()
    for i, a in enumerate(ids):
        writer.writerows(zip(repeat(a), ids[i:], map(repr, lmat[i][i:]), map(repr, pmat[i][i:])))
    return buf.getvalue()
