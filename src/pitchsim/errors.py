"""Exception types raised by the pitchsim pipeline."""


class PitchsimError(Exception):
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


class ZeroMass(PitchsimError):
    """Heatmap total activity is not finite and > 0, so it cannot be normalized."""


class ZeroVariance(PitchsimError):
    """A cell vector is constant; the statistic is undefined."""


class IsolatedCell(PitchsimError):
    """A cell has no neighbours (zero row sum in the weights matrix)."""


class InsufficientPermutations(PitchsimError):
    """Permutation count must be at least 1."""


class GridMismatch(PitchsimError):
    """Inputs reference different grids."""


class AsymmetricInput(PitchsimError):
    """Distance matrix is not symmetric."""


class NaNInput(PitchsimError):
    """Input contains NaN values."""


class UnknownPlayer(PitchsimError):
    """Requested player id is not present in the inputs."""
