"""Global Moran's I, Lee's bivariate L, and permutation inference.

Significance is assessed with a conditional Monte Carlo permutation test:
the cell labels of the second variable are relabeled uniformly at random,
the statistic recomputed each time, and the one-sided p-value taken as
(count of permuted values >= observed + 1) / (n_perm + 1). The alternative
is positive spatial cross-correlation; negative association yields p near 1.

Ties count as >= observed, with a tolerance: ``L_perm >= L_obs - 1e-10 *
max(1, |L_obs|)``. Permutations come from one Philox stream in fixed-size
chunks, so memory per test is O(chunk * n) plus n_perm floats for any n_perm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations

import numpy as np

from .errors import (
    EmptyWeights,
    InsufficientPermutations,
    IsolatedCell,
    TooLarge,
    ZeroVariance,
)
from .grid import WeightsMatrix

__all__ = [
    "TestResult",
    "morans_i",
    "lees_l",
    "permutation_test",
    "exact_permutation_test",
    "EXACT_MAX_CELLS",
]

# n! enumeration cap for the exact test (8! = 40320)
EXACT_MAX_CELLS = 8

_MASK64 = (1 << 64) - 1

# permutations drawn per chunk of the stream
_PERM_CHUNK = 1024

# Relative tie tolerance. Lattice symmetries tie with the observed arrangement
# in exact arithmetic but can round a few ulps apart; 1e-10 is far above that
# rounding, even on lattices of thousands of cells, and far below real gaps.
_TIE_RTOL = 1e-10


@dataclass(frozen=True)
class TestResult:
    """Outcome of a one-sided permutation test for positive association.

    Attributes
    ----------
    statistic : float
        Observed Lee's L.
    n_perm : int
        Number of permutations drawn (observed arrangement excluded).
    n_ge : int
        Permuted statistics >= the observed one, ties included.
    p_value : float
        (n_ge + 1) / (n_perm + 1), in (0, 1].
    z_score : float
        (statistic - permutation mean) / permutation sd; NaN when the
        permutation distribution is degenerate. Diagnostics only.
    seed : int
        Seed the permutation stream was keyed with.
    """

    statistic: float
    n_perm: int
    n_ge: int
    p_value: float
    z_score: float
    seed: int


def _as_vector(values, n: int, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.shape[0] != n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    return v


def _center(v: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    """Mean-centered copy and its sum of squares; rejects constant input."""
    vc = v - v.mean()
    ss = float(vc @ vc)
    if ss <= 0.0:
        raise ZeroVariance(f"{name} is constant")
    return vc, ss


def morans_i(x, w: WeightsMatrix) -> float:
    """Global Moran's I of one cell vector.

    I = [n / sum_ij w_ij] * [sum_ij w_ij (x_i - xbar)(x_j - xbar)]
        / [sum_i (x_i - xbar)^2]

    Positive values mean neighbouring cells tend to sit on the same side of
    the mean; negative values mean they alternate.

    Raises
    ------
    ZeroVariance
        If ``x`` is constant.
    EmptyWeights
        If the weights matrix has no nonzero entries.
    """
    x = _as_vector(x, w.n, "x")
    s0 = w.total()
    if s0 <= 0.0:
        raise EmptyWeights("weights matrix has no nonzero entries")
    xc, ssx = _center(x, "x")
    num = float(xc @ w.lag(xc))
    return (w.n / s0) * (num / ssx)


def _lee_parts(x, y, w: WeightsMatrix):
    """Observed Lee's L, centered ``y``, ``W xc`` and the factor scale/denom.

    W is symmetric, so (W yc[pi]) . (W xc) = yc[pi] . (W W xc), and with
    u = W (W xc) * factor, scoring a relabeling pi of ``y`` is one gather
    and one dot product, L(pi) = yc[pi] @ u.
    """
    x = _as_vector(x, w.n, "x")
    y = _as_vector(y, w.n, "y")
    row_sums = w.row_sums()
    if np.any(row_sums == 0.0):
        isolated = int(np.flatnonzero(row_sums == 0.0)[0])
        raise IsolatedCell(f"cell {isolated} has no neighbours")
    xc, ssx = _center(x, "x")
    yc, ssy = _center(y, "y")
    scale = w.n / float(row_sums @ row_sums)
    denom = math.sqrt(ssx) * math.sqrt(ssy)
    lag_x = w.lag(xc)
    l_obs = scale * float(lag_x @ w.lag(yc)) / denom
    return l_obs, yc, lag_x, scale / denom


def lees_l(x, y, w: WeightsMatrix) -> float:
    """Lee's bivariate spatial cross-correlation statistic.

    L = [n / sum_i (sum_j w_ij)^2]
        * [sum_i (sum_j w_ij (x_j - xbar)) (sum_j w_ij (y_j - ybar))]
        / [sqrt(sum_i (x_i - xbar)^2) * sqrt(sum_i (y_i - ybar)^2)]

    Symmetric in ``x`` and ``y``. Positive when the two variables tend to
    be above (or below) their means in the same neighbourhoods.

    Raises
    ------
    ZeroVariance
        If either vector is constant.
    IsolatedCell
        If any cell has no neighbours.
    """
    return _lee_parts(x, y, w)[0]


def permutation_test(x, y, w: WeightsMatrix, n_perm: int = 999,
                     seed: int = 0) -> TestResult:
    """One-sided Monte Carlo permutation test of Lee's L.

    Holds ``x`` fixed, relabels the cells of ``y`` uniformly at random
    ``n_perm`` times, and counts permuted statistics at least as large as
    the observed one (ties count, see :func:`_summarize`). Fully
    reproducible: the permutation stream is a counter-based generator keyed
    by ``seed``, so results do not depend on scheduling or thread count.

    Raises
    ------
    InsufficientPermutations
        If ``n_perm`` < 1.
    """
    if n_perm < 1:
        raise InsufficientPermutations(f"n_perm must be >= 1, got {n_perm}")
    l_obs, yc, lag_x, factor = _lee_parts(x, y, w)
    u = w.lag(lag_x) * factor
    gen = np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))
    # chunks continue one stream, so the draws and n_ge ignore the chunk size
    rows = min(_PERM_CHUNK, n_perm)
    perms = np.empty((rows, w.n), dtype=np.intp)
    sims = np.empty(n_perm)
    for start in range(0, n_perm, rows):
        m = min(rows, n_perm - start)
        gen.permuted(np.broadcast_to(np.arange(w.n), (m, w.n)), axis=1, out=perms[:m])
        sims[start:start + m] = yc[perms[:m]] @ u
    return _summarize(l_obs, sims, n_perm, int(seed))


def exact_permutation_test(x, y, w: WeightsMatrix) -> TestResult:
    """Exhaustive permutation test over all n! relabelings of ``y``.

    The identity relabeling is part of the enumeration, so the p-value is
    (count of relabelings with L >= observed) / n!, which follows the same
    inclusive convention as :func:`permutation_test`. Deterministic; the
    reported seed is 0.

    Raises
    ------
    TooLarge
        If the grid has more than ``EXACT_MAX_CELLS`` cells.
    """
    n = w.n
    if n > EXACT_MAX_CELLS:
        raise TooLarge(f"exact test enumerates n! permutations; n={n} exceeds {EXACT_MAX_CELLS}")
    l_obs, yc, lag_x, factor = _lee_parts(x, y, w)
    u = w.lag(lag_x) * factor
    perms = np.array(list(iter_permutations(range(n))), dtype=np.intp)
    # the identity is enumerated first; it is the observed arrangement
    return _summarize(l_obs, yc[perms[1:]] @ u, perms.shape[0] - 1, 0)


def _summarize(l_obs: float, sims: np.ndarray, n_perm: int, seed: int) -> TestResult:
    """Test result from observed and permuted L; the one place ties are counted."""
    n_ge = int(np.count_nonzero(sims >= l_obs - _TIE_RTOL * max(1.0, abs(l_obs))))
    mean = float(sims.mean())
    sd = float(sims.std())
    z = (l_obs - mean) / sd if sd > 0.0 else float("nan")
    return TestResult(
        statistic=l_obs,
        n_perm=n_perm,
        n_ge=n_ge,
        p_value=(n_ge + 1) / (n_perm + 1),
        z_score=z,
        seed=seed,
    )
