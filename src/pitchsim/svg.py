"""Hand-rolled SVG output: pitch heatmaps, matrix images, and bar charts."""

from __future__ import annotations

import numpy as np

from .errors import as_float64
from .heatmap import Heatmap

__all__ = ["heatmap_svg", "matrix_svg", "bar_chart_svg"]

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
_ANCHORS = np.array([t for t, _ in _RAMP])
_CHANNELS = np.array([c for _, c in _RAMP], dtype=np.float64)


def _ramp(t) -> list[str]:
    """Hex colour of each finite value in ``t``; out-of-range values are clipped.

    ``t`` in (anchor i, anchor i+1] takes segment i, and each channel is
    rounded half to even.
    """
    t = np.clip(np.asarray(t, dtype=np.float64), 0.0, 1.0)
    seg = np.searchsorted(_ANCHORS[1:], t)
    t0 = _ANCHORS[seg]
    f = (t - t0) / (_ANCHORS[seg + 1] - t0)
    lo = _CHANNELS[seg]
    rgb = np.rint(lo + f[:, None] * (_CHANNELS[seg + 1] - lo)).astype(np.int64)
    return [f"#{v:06x}" for v in (rgb @ [1 << 16, 1 << 8, 1]).tolist()]


def _document(width: float, height: float, margin: float, title: str, body: list[str]) -> str:
    """The ``<svg>`` root around ``body``, after a title band when ``title`` is set."""
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    band = [_text(margin, 16, title, size=14)] if title else []
    return "\n".join([head, *band, *body, "</svg>"]) + "\n"


def _cells(xs: list[str], y: float, size: str, fills) -> list[str]:
    """One row of grid cells: a rect at each formatted x in ``xs``, its top edge at ``y``."""
    y = f"{y:.2f}"
    return [f'<rect x="{x}" y="{y}" {size} fill="{fill}"/>' for x, fill in zip(xs, fills)]


def _text(x, y, s, size, anchor="start") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}">{_escape(s)}</text>'
    )


# the characters XML 1.0 forbids in a document, each written as U+FFFD
_NOT_XML = dict.fromkeys([*range(0x9), 0xB, 0xC, *range(0xE, 0x20), 0xFFFE, 0xFFFF], "\ufffd")


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").translate(_NOT_XML)


def heatmap_svg(h: Heatmap) -> str:
    """Shade each grid cell by its activity on a field-shaped canvas, titled with the player id.

    Raises
    ------
    ValueError
        If the canvas, 6 units per field unit, is too large to be finite.
    """
    grid, cells, title = h.grid, h.cells, h.player_id
    top = float(cells.max())
    scale = 6.0
    xmin, ymin, xmax, ymax = grid.extent
    field_w = (xmax - xmin) * scale
    field_h = (ymax - ymin) * scale
    margin = 10.0
    header = 22.0 if title else 0.0
    if not np.isfinite([field_w, field_h]).all():
        raise ValueError(f"heatmap {title!r} is too large to draw: field {field_w} by {field_h}")

    body = []
    cw = grid.cell_width * scale
    ch = grid.cell_height * scale
    xs = [f"{margin + c * cw:.2f}" for c in range(grid.cols)]
    size = f'width="{cw:.2f}" height="{ch:.2f}"'
    fills = _ramp(cells / top if top > 0 else np.zeros(grid.n))
    # flat index r * cols + c; row 0 sits at the bottom of the field, SVG y grows downward
    for r in range(grid.rows):
        body += _cells(xs, header + margin + field_h - (r + 1) * ch, size,
                       fills[r * grid.cols:(r + 1) * grid.cols])
    body.append(
        f'<rect x="{margin:.2f}" y="{header + margin:.2f}" width="{field_w:.2f}" '
        f'height="{field_h:.2f}" fill="none" stroke="white" stroke-width="1"/>'
    )
    return _document(field_w + 2 * margin, field_h + header + 2 * margin, margin, title, body)


def matrix_svg(values: np.ndarray, labels: list[str], title: str = "") -> str:
    """Square matrix image, cells shaded by value on a fixed [0, 1] scale.

    Raises
    ------
    ValueError
        If ``values`` is not square with one row per label, or any value is NaN or infinite.
    """
    values = as_float64(values, "matrix")
    if values.shape != (len(labels),) * 2:
        raise ValueError(f"matrix values must have shape {(len(labels),) * 2}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("matrix values must be finite")
    k = values.shape[0]
    cell = 18.0
    label_w = 8.0 * max((len(s) for s in labels), default=0)
    header = 22.0 if title else 0.0
    margin = 10.0
    size_x = margin + label_w + k * cell + margin
    size_y = header + margin + k * cell + margin + 4

    body = []
    x0 = margin + label_w
    y0 = header + margin
    xs = [f"{x0 + j * cell:.2f}" for j in range(k)]
    size = f'width="{cell:.2f}" height="{cell:.2f}"'
    # p-values take few distinct values (at most n_perm + 1): colour each once
    distinct, which = np.unique(values, return_inverse=True)
    colors = _ramp(distinct)
    for i, row in enumerate(which.reshape(values.shape).tolist()):
        body.append(_text(margin, y0 + i * cell + cell * 0.7, labels[i], size=10))
        body += _cells(xs, y0 + i * cell, size, map(colors.__getitem__, row))
    return _document(size_x, size_y, margin, title, body)


def bar_chart_svg(edges: np.ndarray, counts: np.ndarray, title: str = "") -> str:
    """Histogram bars over consecutive bins given by ``edges``.

    Raises
    ------
    ValueError
        If any count is NaN, infinite or negative, or ``edges`` are not
        ``len(counts) + 1`` finite, strictly increasing values.
    """
    counts = as_float64(counts, "bar counts array")
    if not (np.isfinite(counts).all() and (counts >= 0).all()):
        raise ValueError("bar counts must be finite and >= 0")
    edges = as_float64(edges, "bar edges array")
    if edges.shape != (len(counts) + 1,) or not (np.isfinite(edges).all()
                                                 and (edges[:-1] < edges[1:]).all()):
        raise ValueError(f"bar edges must be {len(counts) + 1} finite, strictly increasing values")
    top = float(counts.max()) if counts.size else 0.0
    width, height = 480.0, 240.0
    margin = 30.0
    header = 22.0 if title else 0.0
    plot_w = width - 2 * margin
    plot_h = height - margin

    body = []
    nbins = len(counts)
    bar_w = plot_w / nbins if nbins else plot_w
    for b, count in enumerate(counts):
        h = plot_h * (count / top) if top > 0 else 0.0
        x = margin + b * bar_w
        y = header + plot_h - h
        body.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.92:.2f}" '
                    f'height="{h:.2f}" fill="#3e6db0"/>')
    body.append(_text(margin, header + plot_h + 14, f"{edges[0]:g}", size=10))
    body.append(_text(margin + plot_w, header + plot_h + 14, f"{edges[-1]:g}", size=10, anchor="end"))
    return _document(width, height + header + 20, margin, title, body)
