"""Spatial similarity of football players from positional heatmaps.

Rasterizes activity onto a shared pitch lattice, scores pairs with Lee's L
spatial cross-correlation under a one-sided permutation test, and clusters
players on the resulting p-value pseudo-distances.
"""

from .cluster import (
    Dendrogram,
    Merge,
    clusters_to_csv,
    complete_linkage,
    cut,
    export_newick,
    merges_to_json,
)
from .errors import (
    AsymmetricInput,
    EmptyInput,
    EmptyWeights,
    GridMismatch,
    InsufficientPermutations,
    InvalidDimension,
    IsolatedCell,
    MalformedHeatmap,
    MalformedRecord,
    NaNInput,
    NonpositiveBandwidth,
    PitchsimError,
    TooLarge,
    UnknownPlayer,
    ZeroMass,
    ZeroVariance,
)
from .grid import (
    DEFAULT_EXTENT,
    PitchGrid,
    WeightsMatrix,
    adjacency,
    build_grid,
)
from .heatmap import (
    MIN_BANDWIDTH,
    DropCounts,
    Heatmap,
    heatmap_from_json,
    heatmap_to_json,
    normalize,
    parse_activity_groups,
    rasterize,
)
from .roster import (
    RosterMatrix,
    compute_matrix,
    matrix_to_json,
    pair_seed,
    pair_test,
    pairs_to_csv,
)
from .stats import (
    EXACT_MAX_CELLS,
    TestResult,
    exact_permutation_test,
    lees_l,
    morans_i,
    permutation_test,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetricInput",
    "DEFAULT_EXTENT",
    "Dendrogram",
    "DropCounts",
    "EXACT_MAX_CELLS",
    "EmptyInput",
    "EmptyWeights",
    "GridMismatch",
    "Heatmap",
    "InsufficientPermutations",
    "InvalidDimension",
    "IsolatedCell",
    "MIN_BANDWIDTH",
    "MalformedHeatmap",
    "MalformedRecord",
    "Merge",
    "NaNInput",
    "NonpositiveBandwidth",
    "PitchGrid",
    "PitchsimError",
    "RosterMatrix",
    "TestResult",
    "TooLarge",
    "UnknownPlayer",
    "WeightsMatrix",
    "ZeroMass",
    "ZeroVariance",
    "adjacency",
    "build_grid",
    "clusters_to_csv",
    "complete_linkage",
    "compute_matrix",
    "cut",
    "exact_permutation_test",
    "export_newick",
    "heatmap_from_json",
    "heatmap_to_json",
    "lees_l",
    "matrix_to_json",
    "merges_to_json",
    "morans_i",
    "normalize",
    "pair_seed",
    "pair_test",
    "pairs_to_csv",
    "parse_activity_groups",
    "permutation_test",
    "rasterize",
]
