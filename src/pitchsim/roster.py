"""Pairwise pseudo-distance matrix over a roster of player heatmaps."""

from __future__ import annotations

import csv
import io
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


def pair_seed(master_seed: int, i: int, j: int) -> int:
    """Deterministic 64-bit seed for the unordered pair (i, j).

    Symmetric in i and j and independent of roster size, so adding players
    never changes the seeds (and hence the results) of existing pairs. The
    triple is hashed with numpy's SeedSequence, which absorbs each word
    positionally: distinct master seeds cannot collide with shifted pair
    indices.
    """
    lo, hi = (i, j) if i <= j else (j, i)
    ss = np.random.SeedSequence([master_seed & _MASK64, lo, hi])
    return int(ss.generate_state(1, np.uint64)[0])


_POOL: dict = {}


def _pool_init(cells, w, n_perm, master_seed):
    _POOL["cells"] = cells
    _POOL["w"] = w
    _POOL["n_perm"] = n_perm
    _POOL["master_seed"] = master_seed


def _pool_pair(pair: tuple[int, int]) -> tuple[int, int, TestResult]:
    i, j = pair
    result = permutation_test(
        _POOL["cells"][i],
        _POOL["cells"][j],
        _POOL["w"],
        n_perm=_POOL["n_perm"],
        seed=pair_seed(_POOL["master_seed"], i, j),
    )
    return i, j, result


def compute_matrix(
    heatmaps: list[Heatmap],
    w: WeightsMatrix,
    n_perm: int = 999,
    master_seed: int = 0,
    workers: int = 1,
) -> RosterMatrix:
    """Run the permutation test for every unordered pair, diagonal included.

    Each pair's test is seeded by :func:`pair_seed`, so the matrix is a pure
    function of (heatmaps, w, n_perm, master_seed): results are bitwise
    identical for any worker count and any pair scheduling order.

    Raises
    ------
    GridMismatch
        If the heatmaps do not all share one grid matching ``w``.
    ZeroVariance
        Naming the first player whose heatmap is constant.
    ValueError
        If fewer than 2 heatmaps, or any heatmap is not normalized.
    """
    k = len(heatmaps)
    if k < 2:
        raise ValueError(f"need at least 2 heatmaps, got {k}")
    ref = heatmaps[0].grid_ref
    for h in heatmaps:
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

    cells = [h.cells for h in heatmaps]
    pairs = [(i, j) for i in range(k) for j in range(i, k)]

    pmat = np.empty((k, k))
    lmat = np.empty((k, k))
    if workers <= 1:
        _pool_init(cells, w, n_perm, master_seed)
        _fill(pmat, lmat, map(_pool_pair, pairs))
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(cells, w, n_perm, master_seed),
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
