"""Lee's bivariate L and permutation inference.

Significance is assessed with a conditional Monte Carlo permutation test:
the cell labels of the second variable are relabeled uniformly at random,
the statistic recomputed each time, and the one-sided p-value taken as
(count of permuted values >= observed + 1) / (n_perm + 1). The alternative
is positive spatial cross-correlation; negative association yields p near 1.

Ties count as >= observed, with a tolerance: ``L_perm >= L_obs - 1e-10 *
max(1, |L_obs|)``. Permutations come from one Philox stream in chunks of
relabeled cells, drawn into one (chunk, n) float64 buffer of at most 2 MiB per
test (one row if a row alone is larger) and counted as drawn, so memory per test
does not grow with n_perm or with the grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _HOMES
from .errors import IsolatedCell, ZeroVariance, check_n_perm, check_seed
from .grid import WeightsMatrix

__all__ = list(_HOMES["stats"])

# bytes of relabeled cells drawn per chunk of the stream
_PERM_BYTES = 2 << 20

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
        statistic / sd, sd the exact sd of L over uniform relabelings of
        ``y``; NaN when the double lag of ``x`` is constant. Diagnostics only.
    seed : int
        Seed the permutation stream was keyed with.
    """

    statistic: float
    n_perm: int
    n_ge: int
    p_value: float
    z_score: float
    seed: int


@dataclass(frozen=True, eq=False)
class PreparedCells:
    """One cell vector readied on ``w`` for Lee's L against any partner.

    Holds everything a test needs from one side of a pair, so a roster
    builds it once per player and every pair test reuses it. W is
    symmetric, so (W yc[pi]) . (W xc) = yc[pi] . (W W xc): with ``x``
    fixed, scoring a relabeling pi of ``y`` needs ``y.vc`` and
    ``x.lag2`` only. Built by :func:`prepare_cells`; the arrays are
    read-only.

    Attributes
    ----------
    w : WeightsMatrix
        The weights the record was prepared on.
    scale : float
        n / sum_i (sum_j w_ij)^2, Lee's normalizer; a property of ``w``.
    vc : ndarray
        Mean-centered cells.
    norm : float
        sqrt(sum vc^2).
    lag : ndarray
        W vc.
    lag2 : ndarray
        W (W vc).
    """

    w: WeightsMatrix
    scale: float
    vc: np.ndarray
    norm: float
    lag: np.ndarray
    lag2: np.ndarray


def prepare_cells(values, w: WeightsMatrix, name: str = "x") -> PreparedCells:
    """Check one cell vector and compute its half of every Lee's L test on ``w``.

    Raises
    ------
    ValueError
        If ``values`` does not have one finite value per cell, or its sum of
        squared deviations is outside [1e-300, 1e300].
    IsolatedCell
        If any cell of ``w`` has no neighbours.
    ZeroVariance
        If ``values`` is constant.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.shape[0] != w.n:
        raise ValueError(f"{name} has length {v.shape[0]}, expected {w.n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite values")
    row_sums = w.row_sums()
    if np.any(row_sums == 0.0):
        isolated = int(np.flatnonzero(row_sums == 0.0)[0])
        raise IsolatedCell(f"cell {isolated} has no neighbours")
    with np.errstate(over="ignore", invalid="ignore"):  # such a sum is refused below
        vc = v - v.mean()
        ss = float(vc @ vc)
    # a constant vector's mean can round off its value, leaving a tiny nonzero
    # constant instead of zeros, so constancy is tested on the values themselves
    if v.min() == v.max():
        raise ZeroVariance(f"{name} is constant")
    # past these bounds a pair's products overflow, or underflow and lose their digits
    if not 1e-300 <= ss <= 1e300:
        raise ValueError(f"{name} is too {'small' if ss < 1e-300 else 'large'} to score: its "
                         f"sum of squared deviations {ss:g} is outside [1e-300, 1e+300]")
    lag = w.lag(vc)
    lag2 = w.lag(lag)
    for a in (vc, lag, lag2):
        a.flags.writeable = False
    return PreparedCells(w=w, scale=w.n / float(row_sums @ row_sums), vc=vc,
                         norm=math.sqrt(ss), lag=lag, lag2=lag2)


def _prepared(x, y, w: WeightsMatrix) -> tuple[PreparedCells, PreparedCells]:
    """Both sides of a pair as records on ``w``; raw cell vectors are prepared here."""
    out = []
    for v, name in ((x, "x"), (y, "y")):
        if not isinstance(v, PreparedCells):
            v = prepare_cells(v, w, name)
        elif v.w is not w:
            raise ValueError(f"{name} was prepared on other weights")
        out.append(v)
    return out[0], out[1]


def _observed(x: PreparedCells, y: PreparedCells) -> tuple[float, np.ndarray]:
    """Observed Lee's L of the pair and u = x.lag2 * scale / denom, so that
    L(pi) = y.vc[pi] @ u."""
    denom = x.norm * y.norm
    return x.scale * float(x.lag @ y.lag) / denom, x.lag2 * (x.scale / denom)


def lees_l(x, y, w: WeightsMatrix) -> float:
    """Lee's bivariate spatial cross-correlation statistic.

    L = [n / sum_i (sum_j w_ij)^2]
        * [sum_i (sum_j w_ij (x_j - xbar)) (sum_j w_ij (y_j - ybar))]
        / [sqrt(sum_i (x_i - xbar)^2) * sqrt(sum_i (y_i - ybar)^2)]

    Symmetric in ``x`` and ``y``. Positive when the two variables tend to
    be above (or below) their means in the same neighbourhoods. Either
    argument may be a cell vector or a :class:`PreparedCells` record on
    ``w``.

    Raises
    ------
    ZeroVariance
        If either vector is constant.
    IsolatedCell
        If any cell has no neighbours.
    """
    return _observed(*_prepared(x, y, w))[0]


def permutation_test(x, y, w: WeightsMatrix, n_perm: int = 999,
                     seed: int = 0) -> TestResult:
    """One-sided Monte Carlo permutation test of Lee's L.

    Holds ``x`` fixed, relabels the cells of ``y`` uniformly at random
    ``n_perm`` times, and counts permuted statistics at least as large as
    the observed one (ties count, see the module docstring). Fully
    reproducible: the permutation stream is a counter-based generator keyed
    by ``seed``, so results do not depend on scheduling or thread count.
    ``x`` and ``y`` are cell vectors or :class:`PreparedCells` records on
    ``w``; the result is the same either way.

    Raises
    ------
    InsufficientPermutations
        If ``n_perm`` < 1.
    ValueError
        If ``seed`` is outside [0, 2**64).
    """
    n_perm = operator.index(n_perm)
    check_n_perm(n_perm)
    check_seed(seed)
    x, y = _prepared(x, y, w)
    l_obs, u = _observed(x, y)
    cut = l_obs - _TIE_RTOL * max(1.0, abs(l_obs))
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    # chunks continue one stream, so the draws ignore the chunk size; a
    # shuffle's swaps ignore the values moved, so each row is y.vc[pi] exactly
    rows = max(1, min(n_perm, _PERM_BYTES // (8 * w.n)))
    buf = np.empty((rows, w.n))
    n_ge = 0
    for start in range(0, n_perm, rows):
        m = min(rows, n_perm - start)
        chunk = gen.permuted(np.broadcast_to(y.vc, (m, w.n)), axis=1, out=buf[:m])
        n_ge += int(np.count_nonzero(chunk @ u >= cut))  # the one place ties are counted
    # L(pi) = y.vc[pi] @ u has mean 0 and variance sum (u - mean u)^2 *
    # sum y.vc^2 / (n - 1) exactly (Hoeffding 1951)
    uc = u - u.mean()
    sd = math.sqrt(float(uc @ uc) / (u.shape[0] - 1)) * y.norm
    return TestResult(
        statistic=l_obs,
        n_perm=n_perm,
        n_ge=n_ge,
        p_value=(n_ge + 1) / (n_perm + 1),
        z_score=l_obs / sd if u.min() < u.max() else float("nan"),
        seed=int(seed),
    )
