"""Hand-rolled SVG output: pitch heatmaps, matrix images, and bar charts."""

from __future__ import annotations

import numpy as np

from .grid import PitchGrid

__all__ = ["heatmap_svg", "matrix_svg", "bar_chart_svg", "color_ramp"]

# monotone dark-violet-to-yellow ramp, interpolated between fixed anchors
_RAMP = (
    (0.000, (68, 1, 84)),
    (0.125, (72, 40, 120)),
    (0.250, (62, 74, 137)),
    (0.375, (49, 104, 142)),
    (0.500, (38, 130, 142)),
    (0.625, (31, 158, 137)),
    (0.750, (53, 183, 121)),
    (0.875, (109, 205, 89)),
    (1.000, (253, 231, 37)),
)


def color_ramp(t: float) -> str:
    """Hex color for t in [0, 1]; out-of-range values are clipped."""
    t = min(max(float(t), 0.0), 1.0)
    for (t0, c0), (t1, c1) in zip(_RAMP, _RAMP[1:]):
        if t <= t1:
            f = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            r, g, b = (round(a + f * (b_ - a)) for a, b_ in zip(c0, c1))
            return f"#{r:02x}{g:02x}{b:02x}"
    r, g, b = _RAMP[-1][1]
    return f"#{r:02x}{g:02x}{b:02x}"


def _document(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _rect(x, y, w, h, fill, extra="") -> str:
    return (
        f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
        f'fill="{fill}"{extra}/>'
    )


def _text(x, y, s, size=12, anchor="start") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{_escape(s)}</text>'
    )


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def heatmap_svg(grid: PitchGrid, cells: np.ndarray, title: str = "") -> str:
    """Shade each grid cell by its activity value on a field-shaped canvas."""
    cells = np.asarray(cells, dtype=np.float64)
    top = float(cells.max())
    scale = 6.0
    xmin, ymin, xmax, ymax = grid.extent
    field_w = (xmax - xmin) * scale
    field_h = (ymax - ymin) * scale
    margin = 10.0
    header = 22.0 if title else 0.0

    body = []
    if title:
        body.append(_text(margin, 16, title, size=14))
    cw = grid.cell_width * scale
    ch = grid.cell_height * scale
    for idx in range(grid.n):
        r, c = grid.cell_rowcol(idx)
        x = margin + c * cw
        # row 0 sits at the bottom of the field, SVG y grows downward
        y = header + margin + field_h - (r + 1) * ch
        t = cells[idx] / top if top > 0 else 0.0
        body.append(_rect(x, y, cw, ch, color_ramp(t)))
    body.append(
        f'<rect x="{margin:.2f}" y="{header + margin:.2f}" width="{field_w:.2f}" '
        f'height="{field_h:.2f}" fill="none" stroke="white" stroke-width="1"/>'
    )
    return _document(field_w + 2 * margin, field_h + header + 2 * margin, body)


def matrix_svg(values: np.ndarray, labels: list[str], title: str = "") -> str:
    """Square matrix image, cells shaded by value on a fixed [0, 1] scale."""
    values = np.asarray(values, dtype=np.float64)
    k = values.shape[0]
    cell = 18.0
    label_w = 8.0 * max((len(s) for s in labels), default=0)
    header = 22.0 if title else 0.0
    margin = 10.0
    size_x = margin + label_w + k * cell + margin
    size_y = header + margin + k * cell + margin + 4

    body = []
    if title:
        body.append(_text(margin, 16, title, size=14))
    x0 = margin + label_w
    y0 = header + margin
    # p-values take few distinct values (at most n_perm + 1): colour each once
    distinct, which = np.unique(values, return_inverse=True)
    colors = [color_ramp(v) for v in distinct]
    which = which.reshape(values.shape)
    for i in range(k):
        body.append(_text(margin, y0 + i * cell + cell * 0.7, labels[i], size=10))
        for j in range(k):
            body.append(
                _rect(x0 + j * cell, y0 + i * cell, cell, cell, colors[which[i, j]])
            )
    return _document(size_x, size_y, body)


def bar_chart_svg(edges: np.ndarray, counts: np.ndarray, title: str = "") -> str:
    """Histogram bars over consecutive bins given by ``edges``."""
    counts = np.asarray(counts, dtype=np.float64)
    top = float(counts.max()) if counts.size else 0.0
    width, height = 480.0, 240.0
    margin = 30.0
    header = 22.0 if title else 0.0
    plot_w = width - 2 * margin
    plot_h = height - margin

    body = []
    if title:
        body.append(_text(margin, 16, title, size=14))
    nbins = len(counts)
    bar_w = plot_w / nbins if nbins else plot_w
    for b, count in enumerate(counts):
        h = plot_h * (count / top) if top > 0 else 0.0
        x = margin + b * bar_w
        y = header + plot_h - h
        body.append(_rect(x, y, bar_w * 0.92, h, "#3e6db0"))
    body.append(_text(margin, header + plot_h + 14, f"{edges[0]:g}", size=10))
    body.append(_text(margin + plot_w, header + plot_h + 14, f"{edges[-1]:g}", size=10, anchor="end"))
    return _document(width, height + header + 20, body)
