"""Spatial similarity of football players from positional heatmaps.

Rasterizes activity onto a shared pitch lattice, scores pairs with Lee's L
spatial cross-correlation under a one-sided permutation test, and clusters
players on the resulting p-value pseudo-distances.

Each public name lives in one module and is looked up there on access
(PEP 562), so ``import pitchsim`` loads a module only when one of its
names is first used.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every public name, the one list of them: each home module's
# __all__ is its entry here
_HOMES = {
    "cluster": ("Dendrogram", "Merge", "clusters_to_csv", "complete_linkage", "cut",
                "export_newick", "merges_to_json"),
    "errors": ("AsymmetricInput", "EmptyInput", "GridMismatch", "InsufficientPermutations",
               "InvalidDimension", "IsolatedCell", "MalformedHeatmap", "MalformedRecord",
               "NaNInput", "NonpositiveBandwidth", "PitchsimError", "UnknownPlayer", "ZeroMass",
               "ZeroVariance"),
    "grid": ("DEFAULT_EXTENT", "PitchGrid", "WeightsMatrix", "adjacency", "build_grid"),
    "heatmap": ("MIN_BANDWIDTH", "DropCounts", "Heatmap", "heatmap_from_json",
                "heatmap_to_json", "normalize", "parse_activity_groups", "rasterize"),
    "roster": ("RosterMatrix", "compute_matrix", "matrix_to_json", "pair_seed", "pair_test",
               "pairs_to_csv"),
    "stats": ("PreparedCells", "TestResult", "lees_l", "permutation_test", "prepare_cells"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _HOMES:  # pitchsim.roster and the like, without importing them first
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _HOMES.keys())
