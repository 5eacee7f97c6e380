"""Seeded input generator for the pitchsim benchmark.

Everything here is plain numpy and never imports pitchsim, so the inputs do
not depend on the code under measurement. Players are assigned round-robin
to planted roles; each role is a zone of the pitch, and each player is a
jittered Gaussian blob inside their role's zone.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Role zone centres (x along the pitch length, y across it), in field units:
# the four quarters and the centre circle, about 50 units apart. Blobs of
# different roles then barely overlap and their Lee's L is negative, so
# p-values across roles sit near 1 and within a role at the resolution
# floor. Zones only 27 units apart gave some cross-role pairs the floor
# p-value, and complete linkage, breaking the floor ties by leaf order,
# then mixed the two roles.
ROLE_CENTRES = ((15.0, 15.0), (15.0, 85.0), (50.0, 50.0), (85.0, 15.0), (85.0, 85.0))
ROWS, COLS = 14, 20
EXTENT = 100.0
BANDWIDTH = 5.0


def player_id(i: int) -> str:
    return f"p{i:03d}"


def roles(k: int) -> list[int]:
    """Planted role of each player: round-robin over the role zones."""
    return [i % len(ROLE_CENTRES) for i in range(k)]


def _player_centres(rng: np.random.Generator, k: int) -> np.ndarray:
    base = np.array([ROLE_CENTRES[r] for r in roles(k)])
    return base + rng.uniform(-4.0, 4.0, size=(k, 2))


def cell_centres(rows: int = ROWS, cols: int = COLS) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major (x, y) cell centres of a rows x cols lattice on the field."""
    xs = (np.arange(cols) + 0.5) * (EXTENT / cols)
    ys = (np.arange(rows) + 0.5) * (EXTENT / rows)
    gx, gy = np.meshgrid(xs, ys)
    return gx.ravel(), gy.ravel()


def heatmap_docs(seed: int, k: int) -> list[dict]:
    """k normalized heatmap JSON documents, one Gaussian blob per player."""
    rng = np.random.default_rng([seed, 1])
    centres = _player_centres(rng, k)
    sigmas = rng.uniform(7.0, 10.0, size=k)
    cx, cy = cell_centres()
    docs = []
    for i in range(k):
        d2 = (cx - centres[i, 0]) ** 2 + (cy - centres[i, 1]) ** 2
        cells = np.exp(-d2 / (2.0 * sigmas[i] ** 2))
        cells /= cells.sum()
        docs.append({
            "player_id": player_id(i),
            "rows": ROWS,
            "cols": COLS,
            "cells": [float(v) for v in cells],
            "normalized": True,
        })
    return docs


def tracking_points(seed: int, k: int, rows_per_player: int) -> dict[str, np.ndarray]:
    """Activity samples per player as (m, 3) arrays of x, y, value.

    Positions scatter around each player's centre and are clipped to the
    field, so no row is dropped by the parser. Coordinates carry two
    decimals, like exported tracking data, so the CSV text round-trips
    exactly.
    """
    rng = np.random.default_rng([seed, 2])
    centres = _player_centres(rng, k)
    out = {}
    for i in range(k):
        xy = centres[i] + rng.normal(0.0, 8.0, size=(rows_per_player, 2))
        xy = np.round(np.clip(xy, 0.0, EXTENT), 2)
        value = np.round(rng.uniform(0.5, 1.5, size=rows_per_player), 3)
        out[player_id(i)] = np.column_stack([xy, value])
    return out


def tracking_csv(points: dict[str, np.ndarray]) -> str:
    """Combined CSV with rows interleaved frame by frame, as a match feed is."""
    ids = list(points)
    m = len(next(iter(points.values())))
    lines = ["player_id,x,y,value"]
    cols = {pid: [[repr(float(v)) for v in col] for col in points[pid].T] for pid in ids}
    for t in range(m):
        for pid in ids:
            x, y, v = cols[pid]
            lines.append(f"{pid},{x[t]},{y[t]},{v[t]}")
    return "\n".join(lines) + "\n"


def kernel_sum(points: np.ndarray, bandwidth: float = BANDWIDTH) -> np.ndarray:
    """Dense Gaussian kernel sum of (x, y, value) points at every cell centre."""
    cx, cy = cell_centres()
    d2 = (cx[:, None] - points[:, 0]) ** 2 + (cy[:, None] - points[:, 1]) ** 2
    k = np.exp(-d2 / (2.0 * bandwidth * bandwidth)) / (2.0 * math.pi * bandwidth * bandwidth)
    return k @ points[:, 2]


def write_text(path: Path, text: str) -> str:
    """Write ``text`` and return its SHA-256."""
    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
