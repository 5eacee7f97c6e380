"""Synthetic roster construction shared by the test modules.

Geometry and seeds are frozen: the assertions on merge order and p-value
bands were verified against these exact configurations, and the pipeline is
deterministic, so the computed matrices never change between runs.
"""

from __future__ import annotations

import numpy as np

import pitchsim as ps

GRID_ROWS = 14
GRID_COLS = 20
BANDWIDTH = 5.0
N_PERM = 999
MASTER_SEED = 0


def default_grid() -> ps.PitchGrid:
    return ps.build_grid(GRID_ROWS, GRID_COLS)


def default_weights(grid=None) -> ps.WeightsMatrix:
    return ps.adjacency(grid or default_grid(), "queen")


def blob_points(rng, cx, cy, spread, n=150) -> np.ndarray:
    """Clipped Gaussian cloud of weighted activity points, as (n, 3) (x, y, value) rows."""
    return np.array([
        (
            np.clip(rng.normal(cx, spread), 0.0, 99.999),
            np.clip(rng.normal(cy, spread), 0.0, 99.999),
            rng.uniform(0.5, 2.0),
        )
        for _ in range(n)
    ])


def blob_heatmap(rng, player_id, cx, cy, spread, grid, n=150) -> ps.Heatmap:
    pts = blob_points(rng, cx, cy, spread, n=n)
    return ps.normalize(ps.rasterize(pts, grid, BANDWIDTH, player_id=player_id))


# role -> (center x, center y, spread). Linkage breaks the midfielders'
# saturated ties by player id: mid_a joins mid_b first, then mid_c
FIVE_PLAYER_ROLES = [
    ("mid_a", 44.0, 38.0, 13.0),
    ("mid_b", 44.0, 62.0, 13.0),
    ("mid_c", 40.0, 50.0, 13.0),
    ("fwd", 75.0, 50.0, 13.0),
    ("gk", 4.0, 50.0, 5.0),
]
FIVE_PLAYER_SEED = 11
MID_IDX = [0, 1, 2]
FWD_IDX = 3
GK_IDX = 4


def five_player_roster(grid=None) -> list[ps.Heatmap]:
    """Goalkeeper, three overlapping central midfielders, one forward."""
    grid = grid or default_grid()
    rng = np.random.default_rng(FIVE_PLAYER_SEED)
    return [
        blob_heatmap(rng, pid, cx, cy, s, grid)
        for pid, cx, cy, s in FIVE_PLAYER_ROLES
    ]


NINE_PLAYER_SEED = 5
NINE_PLAYER_ZONES = [(15.0, 50.0), (50.0, 50.0), (85.0, 50.0)]


def nine_player_roster(grid=None) -> tuple[list[ps.Heatmap], list[int]]:
    """Nine players in three disjoint activity zones; returns (heatmaps, roles)."""
    grid = grid or default_grid()
    rng = np.random.default_rng(NINE_PLAYER_SEED)
    heatmaps, roles = [], []
    for zi, (zx, zy) in enumerate(NINE_PLAYER_ZONES):
        for k in range(3):
            cx = zx + rng.uniform(-4, 4)
            cy = zy + rng.uniform(-12, 12)
            heatmaps.append(blob_heatmap(rng, f"z{zi}_{k}", cx, cy, 8.0, grid))
            roles.append(zi)
    return heatmaps, roles


FORTY_PLAYER_SEED = 17
FORTY_PLAYER_ZONES = [(12.0, 25.0), (12.0, 75.0), (88.0, 25.0), (88.0, 75.0)]


def forty_player_roster(grid=None) -> tuple[list[ps.Heatmap], list[int]]:
    """Forty players drawn from four well-separated roles."""
    grid = grid or default_grid()
    rng = np.random.default_rng(FORTY_PLAYER_SEED)
    heatmaps, roles = [], []
    for ri, (rx, ry) in enumerate(FORTY_PLAYER_ZONES):
        for k in range(10):
            cx = rx + rng.uniform(-3, 3)
            cy = ry + rng.uniform(-3, 3)
            heatmaps.append(blob_heatmap(rng, f"r{ri}_{k}", cx, cy, 6.0, grid))
            roles.append(ri)
    return heatmaps, roles


def corner_heatmap(grid=None, player_id="corner") -> ps.Heatmap:
    """Strongly clustered heatmap: all mass in one corner region."""
    grid = grid or default_grid()
    rng = np.random.default_rng(2)
    pts = blob_points(rng, 12.0, 12.0, 6.0, n=120)
    return ps.normalize(ps.rasterize(pts, grid, BANDWIDTH, player_id=player_id))
