"""Pairwise pseudo-distance matrix over a roster of player heatmaps."""

from __future__ import annotations

import csv
import hashlib
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, ZeroVariance
from .grid import WeightsMatrix
from .heatmap import Heatmap
from .stats import TestResult, permutation_test

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
    digests = [hashlib.blake2b(str(pid).encode("utf-8"), digest_size=8).digest()
               for pid in (a, b)]
    lo, hi = sorted(int.from_bytes(d, "little") for d in digests)
    words = np.array([master_seed & _MASK64, lo, hi], dtype=np.uint64)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def pair_test(a: Heatmap, b: Heatmap, w: WeightsMatrix, n_perm: int = 999,
              master_seed: int = 0) -> TestResult:
    """Permutation test of one pair of players, keyed by their identities.

    The heatmap whose ``player_id`` sorts first is held fixed and the other
    one is permuted, with the stream seeded by :func:`pair_seed`. The result
    is therefore the same for (a, b) and (b, a), and in any roster that
    holds the pair.
    """
    x, y = (a, b) if a.player_id <= b.player_id else (b, a)
    seed = pair_seed(master_seed, x.player_id, y.player_id)
    return permutation_test(x.cells, y.cells, w, n_perm=n_perm, seed=seed)


_POOL: dict = {}


def _pool_init(heatmaps, w, n_perm, master_seed):
    _POOL["heatmaps"] = heatmaps
    _POOL["w"] = w
    _POOL["n_perm"] = n_perm
    _POOL["master_seed"] = master_seed


def _pool_pair(pair: tuple[int, int]) -> tuple[int, int, TestResult]:
    i, j = pair
    heatmaps = _POOL["heatmaps"]
    result = pair_test(heatmaps[i], heatmaps[j], _POOL["w"],
                       n_perm=_POOL["n_perm"], master_seed=_POOL["master_seed"])
    return i, j, result


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
    any pair scheduling order. The pool has ``min(workers, pairs, CPUs)``
    processes; with one, the pairs run in this process.

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
    ref = heatmaps[0].grid_ref
    seen = set()
    for h in heatmaps:
        if h.player_id in seen:
            raise ValueError(f"duplicate player id {h.player_id!r}")
        seen.add(h.player_id)
        if h.grid_ref != ref:
            raise GridMismatch(
                f"player {h.player_id!r} uses grid {h.grid_ref}, others use {ref}"
            )
        if not h.normalized:
            raise ValueError(f"heatmap {h.player_id!r} is not normalized")
        if np.ptp(h.cells) == 0.0:
            raise ZeroVariance(f"player {h.player_id!r} has a constant heatmap")
    rows, cols, _ = ref
    if w.n != rows * cols:
        raise GridMismatch(f"weights have {w.n} cells, heatmaps have {rows * cols}")

    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    # the pool starts all its processes at once
    workers = min(workers, len(pairs), os.cpu_count() or 1)

    pmat = np.empty((k, k))
    lmat = np.empty((k, k))
    if workers <= 1:
        _pool_init(heatmaps, w, n_perm, master_seed)
        _fill(pmat, lmat, map(_pool_pair, pairs))
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(heatmaps, w, n_perm, master_seed),
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
