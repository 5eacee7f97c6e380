"""Exception types of the pitchsim pipeline, the setting rules and the number conversions."""

import math
import operator

import numpy as np

from . import _HOMES

__all__ = list(_HOMES["errors"])


class PitchsimError(ValueError):
    """Base class for all pitchsim errors."""


class InvalidDimension(PitchsimError):
    """Grid dimensions or extent are degenerate."""


class MalformedRecord(PitchsimError):
    """An activity CSV row or header could not be parsed."""


class MalformedHeatmap(PitchsimError):
    """A heatmap JSON document lacks a required field or has one of the wrong type."""


class EmptyInput(PitchsimError):
    """No usable input records."""


class NonpositiveBandwidth(PitchsimError):
    """Kernel bandwidth must be finite and strictly positive."""


def as_float64(values, what: str) -> np.ndarray:
    """``np.asarray(values, dtype=np.float64)``, refusing a number too large for float64."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{what} holds a number too large for float64") from None


def as_ints(values, what: str) -> np.ndarray:
    """The integer rule: ints of any width as an array, never cast; anything else, even a
    bool among ints, is refused. An ndarray of integer dtype is kept as it is."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    a = np.asarray(values, dtype=object)
    for v in a.flat:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} must be an int, got {v!r}")
    return a


def check_bandwidth(bandwidth) -> None:
    """The bandwidth rule: finite and > 0."""
    if not (bandwidth > 0 and math.isfinite(as_float64(bandwidth, "bandwidth"))):
        raise NonpositiveBandwidth(f"bandwidth must be finite and > 0, got {bandwidth}")


class ZeroMass(PitchsimError):
    """Heatmap total activity is not finite and > 0, so it cannot be normalized."""


class ZeroVariance(PitchsimError):
    """A cell vector is constant; the statistic is undefined."""


class IsolatedCell(PitchsimError):
    """A cell has no neighbours (zero row sum in the weights matrix)."""


class InsufficientPermutations(PitchsimError):
    """Permutation count must be at least 1."""


def check_n_perm(n_perm) -> None:
    """The permutation-count rule: an int >= 1."""
    if operator.index(n_perm) < 1:
        raise InsufficientPermutations(f"n_perm must be >= 1, got {n_perm}")


class GridMismatch(PitchsimError):
    """Inputs reference different grids."""


class AsymmetricInput(PitchsimError):
    """Distance matrix is not symmetric."""


class NaNInput(PitchsimError):
    """Input contains NaN values."""


class UnknownPlayer(PitchsimError):
    """Requested player id is not present in the inputs."""


def check_seed(seed, name: str = "seed") -> None:
    """The seed rule: an int in [0, 2**64); the error names ``name``."""
    if not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")


def check_cut(height) -> None:
    """The cut-height rule: finite and >= 0."""
    if not 0 <= height < float("inf"):
        raise ValueError(f"cut height must be finite and >= 0, got {height}")


def check_workers(workers) -> None:
    """The worker-count rule: an int >= 1."""
    if operator.index(workers) < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
