"""SVG output."""

import math
import re
from xml.dom import minidom

import numpy as np
import pytest

import pitchsim as ps
from pitchsim.svg import color_ramp, heatmap_svg, matrix_svg

from oracles import RAMP_ANCHORS, color_ramp_scalar


class TestColorRamp:
    def test_matches_scalar_walk_at_anchors_neighbours_and_outside(self):
        values = [math.nan, -math.inf, math.inf, -0.0, -1e-300, -3.0, 1.5, 2.0]
        for a, _ in RAMP_ANCHORS:
            values += [a, math.nextafter(a, -1.0), math.nextafter(a, 2.0)]
        values += np.random.default_rng(2).random(5000).tolist()
        values += (np.arange(8001) / 8000).tolist()
        assert [color_ramp(v) for v in values] == [color_ramp_scalar(v) for v in values]


class TestHeatmapSvg:
    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_each_cell_is_placed_by_its_row_and_column_and_filled_by_its_value(self, kind):
        g = ps.build_grid(3, 5, extent=(0.0, 0.0, 105.0, 68.0))
        cells = np.random.default_rng(4).random(g.n) if kind == "random" else np.zeros(g.n)
        svg = heatmap_svg(g, cells, title="p")
        rects = re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" '
                           r'height="([^"]+)" fill="(#[0-9a-f]{6})"/>', svg)
        cw, ch = g.cell_width * 6.0, g.cell_height * 6.0
        top = cells.max()
        expected = []
        for idx in range(g.n):
            r, c = g.cell_rowcol(idx)
            y = 22.0 + 10.0 + 68.0 * 6.0 - (r + 1) * ch
            t = cells[idx] / top if top > 0 else 0.0
            expected.append((f"{10.0 + c * cw:.2f}", f"{y:.2f}", f"{cw:.2f}", f"{ch:.2f}",
                             color_ramp_scalar(t)))
        assert rects == expected


class TestMatrixSvg:
    def test_each_cell_is_filled_with_the_ramp_colour_of_its_value(self):
        rng = np.random.default_rng(8)
        # repeated p-values, both zeros, out-of-range values and NaN
        pool = np.array([0.01, 0.02, 0.5, 1.0, 0.0, -0.0, -0.3, 1.7, np.nan])
        values = np.where(rng.random((12, 12)) < 0.5,
                          pool[rng.integers(0, pool.size, (12, 12))],
                          rng.random((12, 12)))
        svg = matrix_svg(values, [f"p{i}" for i in range(12)], title="m")
        fills = re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"', svg)
        assert fills == [color_ramp_scalar(v) for v in values.ravel()]
        xy = re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="18.00" height="18.00"', svg)
        label_w = 8.0 * 3
        assert xy == [(f"{10.0 + label_w + j * 18.0:.2f}", f"{22.0 + 10.0 + i * 18.0:.2f}")
                      for i in range(12) for j in range(12)]


class TestText:
    def test_text_is_well_formed_xml_and_keeps_every_allowed_character(self):
        forbidden = [*map(chr, range(0x9)), "\x0b", "\x0c", *map(chr, range(0xE, 0x20)),
                     "\ufffe", "\uffff"]
        allowed = ["Smith, J", "a&b<c>\"d'", "tab\tand\nnewline", "\x7f\x85 é 中 \U0001f600",
                   "\ufffd", "\ufffd\U0010ffff"]
        labels = [f"a{c}b" for c in forbidden] + allowed
        svg = matrix_svg(np.eye(len(labels)), labels, title="\x01 & <t>")
        texts = [node.firstChild.data
                 for node in minidom.parseString(svg.encode()).getElementsByTagName("text")]
        assert texts == ["\ufffd & <t>", *["a\ufffdb"] * len(forbidden), *allowed]
