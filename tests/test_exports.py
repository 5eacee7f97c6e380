"""The package's public names, each looked up in its home module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pitchsim
import pitchsim.svg

from test_refusals import NUMERIC

# the 45 public names of pitchsim 0.1.0 by home module, pinned so that
# none is lost or moves
PUBLIC = {
    "cluster": ["Dendrogram", "Merge", "clusters_to_csv", "complete_linkage", "cut",
                "export_newick", "merges_to_json"],
    "errors": ["AsymmetricInput", "EmptyInput", "GridMismatch", "InsufficientPermutations",
               "InvalidDimension", "IsolatedCell", "MalformedHeatmap", "MalformedRecord",
               "NaNInput", "NonpositiveBandwidth", "PitchsimError", "UnknownPlayer", "ZeroMass",
               "ZeroVariance"],
    "grid": ["DEFAULT_EXTENT", "PitchGrid", "WeightsMatrix", "adjacency", "build_grid"],
    "heatmap": ["MIN_BANDWIDTH", "DropCounts", "Heatmap", "heatmap_from_json",
                "heatmap_to_json", "normalize", "parse_activity_groups", "rasterize"],
    "roster": ["RosterMatrix", "compute_matrix", "matrix_to_json", "pair_seed", "pair_test",
               "pairs_to_csv"],
    "stats": ["PreparedCells", "TestResult", "lees_l", "permutation_test", "prepare_cells"],
}
HOMES = [(name, module) for module, names in PUBLIC.items() for name in names]


def test_all_lists_the_pinned_names_once():
    assert len(HOMES) == 45
    assert sorted(pitchsim.__all__) == sorted(name for name, _ in HOMES)
    assert len(set(pitchsim.__all__)) == len(pitchsim.__all__)


@pytest.mark.parametrize("name, module", HOMES)
def test_name_is_its_home_modules_object(name, module):
    home = importlib.import_module(f"pitchsim.{module}")
    assert getattr(pitchsim, name) is getattr(home, name)


def test_star_import_binds_every_name():
    ns = {}
    exec("from pitchsim import *", ns)
    for name, _ in HOMES:
        assert ns[name] is getattr(pitchsim, name)


@pytest.mark.parametrize("module", PUBLIC)
def test_star_import_of_a_home_module_binds_exactly_its_names(module):
    ns = {}
    exec(f"from pitchsim.{module} import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(PUBLIC[module])


@pytest.mark.parametrize("name", PUBLIC["errors"])
def test_every_error_is_a_value_error(name):
    # a caller catches every library refusal, PitchsimError or not, as ValueError
    assert issubclass(getattr(pitchsim, name), ValueError)


# public callables that take no numbers of the caller's: the errors take a message,
# the functions ids, text, a scheme, int counts and seeds (refused with TypeError when
# not ints) or records whose numbers were checked when they were built; the records
# below store their fields as given, and each function that reads their numbers is in
# test_refusals.NUMERIC
TAKE_NO_NUMBERS = {
    *PUBLIC["errors"],
    "DropCounts", "Merge", "PreparedCells", "RosterMatrix", "TestResult",
    "adjacency", "clusters_to_csv", "compute_matrix", "heatmap_to_json", "normalize",
    "pair_seed", "pair_test", "svg.heatmap_svg",
}
CALLABLES = sorted([name for name in pitchsim.__all__ if callable(getattr(pitchsim, name))]
                   + [f"svg.{name}" for name in pitchsim.svg.__all__])


@pytest.mark.parametrize("name", CALLABLES)
def test_every_public_callable_is_classified_by_the_numbers_it_takes(name):
    assert (name in NUMERIC) != (name in TAKE_NO_NUMBERS), (
        f"list {name} in test_refusals.NUMERIC if it takes numbers, else in TAKE_NO_NUMBERS")


def test_number_lists_name_only_public_callables():
    assert NUMERIC.keys() | TAKE_NO_NUMBERS <= set(CALLABLES)


def test_dir_lists_every_name():
    assert {name for name, _ in HOMES} | PUBLIC.keys() <= set(dir(pitchsim))
    assert "__version__" in dir(pitchsim)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        pitchsim.no_such_name
    assert not hasattr(pitchsim, "no_such_name")


# Lists the package's modules a fresh interpreter has loaded after
# `import pitchsim` and after the first use of one stats name, then
# reaches each home module as an attribute of the package.
_FIRST_USE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("pitchsim"))
import pitchsim
report = {"import": loaded()}
pitchsim.lees_l
report["lees_l"] = loaded()
report["modules"] = [getattr(pitchsim, m).__name__ for m in sys.argv[1:]]
print(json.dumps(report))
"""


def test_import_loads_a_module_on_first_use_of_its_names(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(pitchsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _FIRST_USE, *PUBLIC], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == ["pitchsim"]
    # stats and what it imports; not the roster, cluster, heatmap or svg modules
    assert report["lees_l"] == ["pitchsim", "pitchsim.errors", "pitchsim.grid",
                                "pitchsim.stats"]
    assert report["modules"] == [f"pitchsim.{module}" for module in PUBLIC]
