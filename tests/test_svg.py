"""SVG output."""

import math
import re
from xml.dom import minidom

import numpy as np
import pytest

import pitchsim as ps
from pitchsim.svg import bar_chart_svg, heatmap_svg, matrix_svg

from oracles import RAMP_ANCHORS, color_ramp_scalar


class TestColorRamp:
    def test_matches_scalar_walk_at_anchors_neighbours_and_outside(self):
        values = [-0.0, -1e-300, -3.0, 1.5, 2.0]
        for a, _ in RAMP_ANCHORS:
            values += [a, math.nextafter(a, -1.0), math.nextafter(a, 2.0)]
        values += np.random.default_rng(2).random(5000).tolist()
        values += (np.arange(8001) / 8000).tolist()
        # the fills of a square matrix image, the values repeated to fill it
        k = math.isqrt(len(values) - 1) + 1
        square = np.resize(values, (k, k))
        fills = re.findall(r'<rect [^>]*fill="(#[0-9a-f]{6})"', matrix_svg(square, [""] * k))
        assert fills == [color_ramp_scalar(v) for v in square.ravel()]


class TestHeatmapSvg:
    @pytest.mark.parametrize("kind", ["random", "zero"])
    def test_each_cell_is_placed_by_its_row_and_column_and_filled_by_its_value(self, kind):
        g = ps.build_grid(3, 5, extent=(0.0, 0.0, 105.0, 68.0))
        cells = np.random.default_rng(4).random(g.n) if kind == "random" else np.zeros(g.n)
        svg = heatmap_svg(ps.Heatmap(player_id="p", grid=g, cells=cells))
        rects = re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" '
                           r'height="([^"]+)" fill="(#[0-9a-f]{6})"/>', svg)
        cw, ch = g.cell_width * 6.0, g.cell_height * 6.0
        top = cells.max()
        expected = []
        for idx in range(g.n):
            r, c = divmod(idx, g.cols)
            y = 22.0 + 10.0 + 68.0 * 6.0 - (r + 1) * ch
            t = cells[idx] / top if top > 0 else 0.0
            expected.append((f"{10.0 + c * cw:.2f}", f"{y:.2f}", f"{cw:.2f}", f"{ch:.2f}",
                             color_ramp_scalar(t)))
        assert rects == expected


class TestMatrixSvg:
    def test_each_cell_is_filled_with_the_ramp_colour_of_its_value(self):
        rng = np.random.default_rng(8)
        # repeated p-values, both zeros and out-of-range values
        pool = np.array([0.01, 0.02, 0.5, 1.0, 0.0, -0.0, -0.3, 1.7])
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

    def test_empty_matrix_renders(self):
        # zero players are zero rows of zero values: no cell, but a document
        lines = matrix_svg(np.zeros((0, 0)), []).splitlines()
        assert lines[-1] == "</svg>" and not [line for line in lines if "<rect" in line]


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("render, message", [
        (lambda v: matrix_svg(np.array([[0.1, v], [v, 0.1]]), ["a", "b"]),
         "matrix values must be finite"),
        (lambda v: bar_chart_svg(np.linspace(0.0, 1.0, 5), np.array([1.0, v, 3.0, 2.0])),
         "bar counts must be finite and >= 0"),
    ], ids=["matrix", "bar chart"])
    def test_non_finite_values_refused(self, render, message, bad):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            render(bad)

    @pytest.mark.parametrize("render, message", [
        (lambda: matrix_svg(np.ones((2, 3)), ["a", "b"]),
         r"matrix values must have shape \(2, 2\), got \(2, 3\)"),
        (lambda: matrix_svg(np.eye(3), ["a", "b"]),
         r"matrix values must have shape \(2, 2\), got \(3, 3\)"),
        # a negative count would be a bar of negative height, which SVG forbids
        (lambda: bar_chart_svg(np.linspace(0.0, 1.0, 4), np.array([1.0, -2.0, 3.0])),
         "bar counts must be finite and >= 0"),
        # one bar needs two edges, and each bin a width > 0
        (lambda: bar_chart_svg(np.array([0.0, 0.5]), np.array([1, 2, 3, 4])),
         "bar edges must be 5 finite, strictly increasing values"),
        (lambda: bar_chart_svg(np.array([0.0, 0.5, 0.5]), np.array([1, 2])),
         "bar edges must be 3 finite, strictly increasing values"),
        (lambda: bar_chart_svg(np.array([0.0, 0.5, np.inf]), np.array([1, 2])),
         "bar edges must be 3 finite, strictly increasing values"),
        (lambda: bar_chart_svg(np.array([np.nan, 0.5, 1.0]), np.array([1, 2])),
         "bar edges must be 3 finite, strictly increasing values"),
        (lambda: bar_chart_svg(np.array([1.0, 0.5, 0.0]), np.array([1, 2])),
         "bar edges must be 3 finite, strictly increasing values"),
    ], ids=["matrix 2x3", "matrix 3x3", "bar chart negative", "bar chart 2 edges for 4 bars",
            "bar chart empty bin", "bar chart inf edge", "bar chart nan edge",
            "bar chart decreasing edges"])
    def test_values_of_the_wrong_shape_or_sign_refused(self, render, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            render()


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


# each renderer on a small input, with its left margin and its size without a title
FRAMES = {
    "heatmap": (lambda title: heatmap_svg(ps.Heatmap(
        player_id=title, grid=ps.build_grid(3, 5, extent=(0.0, 0.0, 105.0, 68.0)),
        cells=np.arange(15.0))), 10, 650, 428),
    "matrix": (lambda title: matrix_svg(np.eye(3), ["a", "bb", "ccc"], title=title), 10, 98, 78),
    "bar chart": (lambda title: bar_chart_svg(np.linspace(0.0, 1.0, 5), np.array([1, 3, 0, 2]),
                                              title=title), 30, 480, 260),
}


class TestFrame:
    @pytest.mark.parametrize("title", ["t & <u>", ""], ids=["titled", "untitled"])
    @pytest.mark.parametrize("kind", FRAMES)
    def test_root_size_and_title_band(self, kind, title):
        render, margin, width, height = FRAMES[kind]
        lines = render(title).splitlines()
        height += 22 if title else 0
        assert lines[0] == (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                            f'height="{height}" viewBox="0 0 {width} {height}">')
        assert lines[-1] == "</svg>"
        band = [line for line in lines if ' y="16.00" ' in line]
        if title:
            assert band == lines[1:2] == [
                f'<text x="{margin}.00" y="16.00" font-size="14" font-family="sans-serif" '
                'text-anchor="start">t &amp; &lt;u&gt;</text>']
        else:
            assert band == []

    @pytest.mark.parametrize("header", [22, 0])
    def test_bar_chart_bars_scale_to_the_largest_count(self, header):
        svg = bar_chart_svg(np.linspace(0.0, 1.0, 5), np.array([1, 3, 0, 2]),
                            title="h" if header else "")
        # 420 units of plot width over 4 bins, 210 of plot height for the count 3
        assert re.findall(r"<rect [^>]*/>", svg) == [
            f'<rect x="{x:.2f}" y="{header + 210 - h:.2f}" width="96.60" height="{h:.2f}" '
            'fill="#3e6db0"/>' for x, h in ((30, 70), (135, 210), (240, 0), (345, 140))]
