"""Every public entry point that takes numbers refuses the ones it cannot use with ValueError.

``NUMERIC`` is the table of those entry points. Each row draws every numeric
argument of one call from the extremes of float64 (and past them), mixed with
a few ordinary values so that a call can get past one argument to the next,
and the call must return or raise ``ValueError``, with every warning an error.
``tests/test_exports.py`` checks that each public callable is in this table
or in its list of callables that take no numbers.
"""

import io
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim.svg import bar_chart_svg, matrix_svg

# past float64 both ways, infinities, NaN, signed zeros, the least subnormal,
# near the largest float, and an int past uint64
EXTREMES = [10**400, -10**400, math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
            1.7e308, -1.7e308, 2**64]
NUMBER = st.sampled_from(EXTREMES) | st.sampled_from([0.25, 1.0, 2.0, 60.0])

GRID = ps.build_grid(2, 2)
W = ps.adjacency(GRID, "rook")
CSV = "player_id,x,y,value\na,10,20,1\nb,60,70,2\n"


def _numbers(draw, n: int) -> list:
    return draw(st.lists(NUMBER, min_size=n, max_size=n))


def _extent(draw):
    return draw(st.just(ps.DEFAULT_EXTENT) | st.lists(NUMBER, min_size=4, max_size=4))


def _heatmap_doc(draw) -> dict:
    return {"player_id": "p", "rows": 2, "cols": 2, "cells": _numbers(draw, 4),
            "normalized": True}


def _distances(draw) -> list:
    a, b, c, x, y, z = _numbers(draw, 6)
    return [[a, x, y], [x, b, z], [y, z, c]]


def _dendrogram(draw) -> ps.Dendrogram:
    low, high = _numbers(draw, 2)
    return ps.Dendrogram(["a", "b", "c"], [ps.Merge(0, 1, low), ps.Merge(2, 3, high)])


def _roster_matrix(draw) -> ps.RosterMatrix:
    p, lee = _numbers(draw, 2), _numbers(draw, 2)
    return ps.RosterMatrix(("a", "b"), [[1.0, p[0]], [p[0], p[1]]],
                           [[1.0, lee[0]], [lee[0], lee[1]]], 9, 0)


# public name -> one call of it, its numbers drawn by ``draw``; a record that
# stores the numbers it is given (Dendrogram, RosterMatrix) reaches the
# functions that read it with them as drawn
NUMERIC = {
    "Dendrogram": _dendrogram,
    "Heatmap": lambda draw: ps.Heatmap("p", GRID, _numbers(draw, 4)),
    "PitchGrid": lambda draw: ps.PitchGrid(2, 2, _extent(draw)),
    "WeightsMatrix": lambda draw: ps.WeightsMatrix(2, [tuple(_numbers(draw, 2))]),
    "build_grid": lambda draw: ps.build_grid(2, 2, _extent(draw)),
    "complete_linkage": lambda draw: ps.complete_linkage(_distances(draw), ["a", "b", "c"]),
    "cut": lambda draw: ps.cut(_dendrogram(draw), draw(NUMBER)),
    "export_newick": lambda draw: ps.export_newick(_dendrogram(draw)),
    "heatmap_from_json":
        lambda draw: ps.heatmap_from_json(_heatmap_doc(draw), extent=_extent(draw)),
    "lees_l": lambda draw: ps.lees_l(_numbers(draw, 4), _numbers(draw, 4), W),
    "matrix_to_json": lambda draw: ps.matrix_to_json(_roster_matrix(draw)),
    "merges_to_json": lambda draw: ps.merges_to_json(_dendrogram(draw)),
    "pairs_to_csv": lambda draw: ps.pairs_to_csv(_roster_matrix(draw)),
    "parse_activity_groups":
        lambda draw: ps.parse_activity_groups(io.StringIO(CSV), _extent(draw)),
    "permutation_test":
        lambda draw: ps.permutation_test(_numbers(draw, 4), _numbers(draw, 4), W, 9, 1),
    "prepare_cells": lambda draw: ps.prepare_cells(_numbers(draw, 4), W),
    "rasterize": lambda draw: ps.rasterize([_numbers(draw, 3), _numbers(draw, 3)], GRID,
                                           draw(NUMBER)),
    "svg.bar_chart_svg": lambda draw: bar_chart_svg(_numbers(draw, 3), _numbers(draw, 2)),
    "svg.matrix_svg": lambda draw: matrix_svg([_numbers(draw, 2), _numbers(draw, 2)],
                                              ["a", "b"]),
}


@pytest.mark.parametrize("name", sorted(NUMERIC))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_returns_or_raises_value_error(name, data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            NUMERIC[name](data.draw)
        except ValueError:
            pass


BIG = 10**400

# the start of each refusal's message -> a call that passes one int too large for float64
OVERFLOWS = {
    "heatmap 'p' holds": lambda: ps.Heatmap("p", GRID, [BIG, 0, 0, 0]),
    "points array holds": lambda: ps.rasterize([(BIG, 0.5, 1.0)], GRID, 5.0),
    "bandwidth holds": lambda: ps.rasterize([(1.0, 0.5, 1.0)], GRID, BIG),
    "x holds": lambda: ps.lees_l([BIG, 0, 0, 1], [1, 0, 0, 2], W),
    "y holds": lambda: ps.permutation_test([1, 0, 0, 2], [BIG, 0, 0, 1], W, 9, 1),
    "distance matrix holds": lambda: ps.complete_linkage([[0, BIG], [BIG, 0]], ["a", "b"]),
    "extent holds": lambda: ps.build_grid(2, 2, extent=(0, 0, BIG, 1)),
    "matrix holds": lambda: matrix_svg([[0, BIG], [BIG, 0]], ["a", "b"]),
    "bar counts array holds": lambda: bar_chart_svg([0.0, 1.0], [BIG]),
    "bar edges array holds": lambda: bar_chart_svg([0, BIG], [1]),
    "dendrogram holds":
        lambda: ps.merges_to_json(ps.Dendrogram(["a", "b"], [ps.Merge(0, 1, BIG)])),
}


@pytest.mark.parametrize("message", OVERFLOWS)
def test_int_too_large_for_float64_is_refused_naming_the_argument(message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message} a number too large for float64$"):
            OVERFLOWS[message]()
