"""Activity parsing, kernel rasterization, and normalization."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim import heatmap
from pitchsim.errors import (
    EmptyInput,
    MalformedRecord,
    NonpositiveBandwidth,
    ZeroMass,
)

from oracles import kernel_sum_direct


def _csv(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestParsing:
    def test_single_center_row(self):
        pid, points, drops = ps.parse_activity_csv(_csv("player_id,x,y,value\np1,50,50,3.0\n"))
        assert pid == "p1"
        assert points == [ps.ActivityPoint(50.0, 50.0, 3.0)]
        assert drops.total == 0

    def test_negative_value_dropped_and_counted(self):
        _, points, drops = ps.parse_activity_csv(
            _csv("player_id,x,y,value\np1,50,50,3.0\np1,40,40,-1\n")
        )
        assert len(points) == 1
        assert drops.negative_value == 1 and drops.total == 1

    def test_out_of_extent_dropped_and_counted(self):
        _, points, drops = ps.parse_activity_csv(
            _csv("player_id,x,y,value\np1,50,50,3.0\np1,150,50,1.0\n")
        )
        assert len(points) == 1
        assert drops.out_of_extent == 1 and drops.total == 1

    def test_non_numeric_field_aborts_with_line_number(self):
        with pytest.raises(MalformedRecord, match="line 3"):
            ps.parse_activity_csv(
                _csv("player_id,x,y,value\np1,50,50,3.0\np1,oops,50,1.0\n")
            )

    def test_non_finite_field_rejected(self):
        with pytest.raises(MalformedRecord, match="non-finite"):
            ps.parse_activity_csv(_csv("player_id,x,y,value\np1,nan,50,1.0\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedRecord, match="header"):
            ps.parse_activity_csv(_csv("id,x,y,v\np1,1,1,1\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInput):
            ps.parse_activity_csv(_csv(""))

    def test_no_valid_rows_rejected(self):
        with pytest.raises(EmptyInput):
            ps.parse_activity_csv(_csv("player_id,x,y,value\np1,150,150,1\n"))

    def test_groups_keep_first_seen_order(self):
        groups, _ = ps.parse_activity_groups(
            _csv("player_id,x,y,value\nb,1,1,1\na,2,2,1\nb,3,3,1\n")
        )
        assert list(groups) == ["b", "a"]
        assert len(groups["b"]) == 2

    def test_single_player_wrapper_rejects_mixed_file(self):
        with pytest.raises(ValueError, match="one player"):
            ps.parse_activity_csv(_csv("player_id,x,y,value\na,1,1,1\nb,2,2,1\n"))

    def test_boundary_points_kept(self):
        _, points, drops = ps.parse_activity_csv(
            _csv("player_id,x,y,value\np1,0,0,1\np1,100,100,1\n")
        )
        assert len(points) == 2 and drops.total == 0


class TestRasterize:
    def test_tiny_bandwidth_peaks_in_containing_cell(self):
        g = ps.build_grid(4, 5)
        # dead center of cell (2, 3)
        cx, cy = g.cell_centers()[g.cell_index(2, 3)]
        h = ps.rasterize([ps.ActivityPoint(cx, cy, 1.0)], g, 1e-12)
        assert int(np.argmax(h.cells)) == g.cell_index(2, 3)

    def test_off_center_small_bandwidth_peaks_in_containing_cell(self):
        # small but not clamped: the containing cell must stay above underflow
        g = ps.build_grid(4, 5)
        h = ps.rasterize([ps.ActivityPoint(41.0, 30.0, 2.0)], g, 1.0)
        assert int(np.argmax(h.cells)) == g.cell_of(41.0, 30.0)

    def test_linearity_in_values(self):
        g = ps.build_grid(6, 6)
        rng = np.random.default_rng(3)
        pts = [ps.ActivityPoint(*map(float, rng.uniform(5, 95, 2)), float(v))
               for v in rng.uniform(0.1, 3.0, 25)]
        scaled = [ps.ActivityPoint(p.x, p.y, 10.0 * p.value) for p in pts]
        a = ps.rasterize(pts, g, 7.0).cells
        b = ps.rasterize(scaled, g, 7.0).cells
        assert np.allclose(b, 10.0 * a, rtol=1e-12, atol=0.0)

    def test_matches_direct_kernel_oracle(self):
        g = ps.build_grid(4, 5)
        pts = [ps.ActivityPoint(12.5, 30.0, 2.0), ps.ActivityPoint(77.0, 60.0, 1.5),
               ps.ActivityPoint(50.0, 50.0, 0.7)]
        h = ps.rasterize(pts, g, 8.0)
        direct = kernel_sum_direct([(p.x, p.y, p.value) for p in pts], g.cell_centers(), 8.0)
        assert np.allclose(h.cells, direct, rtol=1e-12, atol=0.0)

    def test_matches_direct_kernel_oracle_on_non_square_grid(self):
        # rows != cols and cell_width != cell_height, so a swapped row/column
        # factor or a transposed product cannot agree with the oracle
        g = ps.build_grid(7, 11, extent=(0.0, 0.0, 105.0, 68.0))
        assert g.cell_width != g.cell_height
        rng = np.random.default_rng(21)
        xy = rng.uniform((0.0, 0.0), (105.0, 68.0), size=(300, 2))
        values = rng.uniform(0.1, 2.0, 300)
        pts = [ps.ActivityPoint(float(x), float(y), float(v)) for (x, y), v in zip(xy, values)]
        h = ps.rasterize(pts, g, 6.0)
        direct = kernel_sum_direct([(p.x, p.y, p.value) for p in pts], g.cell_centers(), 6.0)
        assert np.allclose(h.cells, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_point_chunks_match_oracle_and_ignore_order(self, monkeypatch, chunk):
        monkeypatch.setattr(heatmap, "_POINT_CHUNK", chunk)
        g = ps.build_grid(7, 11, extent=(0.0, 0.0, 105.0, 68.0))
        rng = np.random.default_rng(23)
        pts = [ps.ActivityPoint(float(x), float(y), float(v))
               for x, y, v in rng.uniform((0.0, 0.0, 0.1), (105.0, 68.0, 2.0), size=(150, 3))]
        cells = ps.rasterize(pts, g, 6.0).cells
        direct = kernel_sum_direct([(p.x, p.y, p.value) for p in pts], g.cell_centers(), 6.0)
        assert np.allclose(cells, direct, rtol=1e-12, atol=0.0)
        shuffled = [pts[i] for i in rng.permutation(len(pts))]
        assert np.array_equal(ps.rasterize(shuffled, g, 6.0).cells, cells)

    def test_memory_bounded_in_points(self):
        # the kernel factors are built one chunk of points at a time, so
        # memory grows with the points, not with points * (rows + cols)
        g = ps.build_grid(40, 60)
        rng = np.random.default_rng(9)
        pts = [ps.ActivityPoint(*map(float, r)) for r in rng.uniform(0, 100, (50_000, 3))]
        tracemalloc.start()
        try:
            ps.rasterize(pts, g, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_uniform_centers_equal_in_deep_interior(self):
        # one equal-value point at every cell center; cells far enough from
        # the boundary all see the same truncated kernel sum
        g = ps.build_grid(14, 20)
        pts = [ps.ActivityPoint(float(x), float(y), 1.0) for x, y in g.cell_centers()]
        h = ps.rasterize(pts, g, 4.0)
        cells = h.cells.reshape(14, 20)
        interior = cells[5:-5, 5:-5]
        assert interior.size == 40
        spread = float(interior.max() - interior.min()) / float(interior.max())
        assert spread <= 1e-9
        # and edge cells are attenuated relative to the interior
        assert cells[0, 0] < interior.min()

    def test_input_order_invariance_bitwise(self):
        g = ps.build_grid(5, 5)
        rng = np.random.default_rng(8)
        pts = [ps.ActivityPoint(*map(float, rng.uniform(0, 100, 2)), float(rng.uniform(0.1, 2)))
               for _ in range(40)]
        base = ps.rasterize(pts, g, 6.0).cells
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(pts))
            shuffled = [pts[i] for i in order]
            assert np.array_equal(ps.rasterize(shuffled, g, 6.0).cells, base)

    def test_input_order_invariance_bitwise_with_tied_sort_keys(self):
        # points sharing x, and points sharing (x, y) with different values,
        # must still be summed in one order whatever order they arrive in
        g = ps.build_grid(5, 6)
        rng = np.random.default_rng(13)
        pts = []
        for x in rng.uniform(0, 100, 6):
            for y in rng.uniform(0, 100, 4):
                pts += [ps.ActivityPoint(float(x), float(y), float(v))
                        for v in rng.uniform(0.1, 2.0, 3)]
        pts += pts[:5]  # exact duplicates too
        base = ps.rasterize(pts, g, 6.0).cells
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(pts))
            shuffled = [pts[i] for i in order]
            assert np.array_equal(ps.rasterize(shuffled, g, 6.0).cells, base)

    def test_blas_thread_count_does_not_change_cells(self):
        script = (
            "import sys, numpy as np, pitchsim as ps\n"
            "rng = np.random.default_rng(17)\n"
            "pts = [ps.ActivityPoint(*map(float, r)) for r in rng.uniform(0, 100, (20000, 3))]\n"
            "cells = ps.rasterize(pts, ps.build_grid(14, 20), 5.0).cells\n"
            "sys.stdout.write(cells.tobytes().hex())\n"
        )
        package_root = str(Path(ps.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=package_root)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 2 * 8 * 14 * 20
        assert outputs[0] == outputs[1]

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_input_order_invariance_property(self, pyrng):
        g = ps.build_grid(3, 4)
        pts = [
            ps.ActivityPoint(pyrng.uniform(0, 100), pyrng.uniform(0, 100), pyrng.uniform(0, 2))
            for _ in range(12)
        ]
        base = ps.rasterize(pts, g, 5.0).cells
        shuffled = list(pts)
        pyrng.shuffle(shuffled)
        assert np.array_equal(ps.rasterize(shuffled, g, 5.0).cells, base)

    def test_mass_positive_whenever_any_value_positive(self):
        g = ps.build_grid(3, 3)
        h = ps.rasterize([ps.ActivityPoint(1.0, 1.0, 1e-9)], g, 2.0)
        assert float(h.cells.sum()) > 0.0

    def test_cells_nonnegative_finite(self):
        g = ps.build_grid(4, 4)
        h = ps.rasterize([ps.ActivityPoint(99.0, 1.0, 3.0)], g, 0.5)
        assert np.all(np.isfinite(h.cells)) and np.all(h.cells >= 0.0)

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyInput):
            ps.rasterize([], ps.build_grid(2, 2), 5.0)

    def test_nonpositive_bandwidth_rejected(self):
        g = ps.build_grid(2, 2)
        pts = [ps.ActivityPoint(50.0, 50.0, 1.0)]
        with pytest.raises(NonpositiveBandwidth):
            ps.rasterize(pts, g, 0.0)
        with pytest.raises(NonpositiveBandwidth):
            ps.rasterize(pts, g, -2.0)


class TestNormalize:
    def test_quarter_quarter_half(self):
        g = ps.build_grid(2, 2)
        h = ps.Heatmap(player_id="p", grid_ref=g.key,
                       cells=np.array([2.0, 2.0, 4.0, 0.0]))
        out = ps.normalize(h)
        assert np.array_equal(out.cells, np.array([0.25, 0.25, 0.5, 0.0]))
        assert out.normalized

    def test_idempotent_exactly(self):
        g = ps.build_grid(3, 3)
        h = ps.rasterize([ps.ActivityPoint(40.0, 40.0, 2.0)], g, 5.0)
        once = ps.normalize(h)
        twice = ps.normalize(once)
        assert twice is once

    def test_zero_mass_rejected(self):
        g = ps.build_grid(2, 2)
        h = ps.Heatmap(player_id="p", grid_ref=g.key, cells=np.zeros(4))
        with pytest.raises(ZeroMass):
            ps.normalize(h)

    def test_normalized_sums_to_one(self):
        g = ps.build_grid(5, 5)
        rng = np.random.default_rng(4)
        pts = [ps.ActivityPoint(*map(float, rng.uniform(0, 100, 2)), 1.0) for _ in range(9)]
        out = ps.normalize(ps.rasterize(pts, g, 3.0))
        assert math.isclose(float(out.cells.sum()), 1.0, rel_tol=0, abs_tol=1e-9)


class TestHeatmapJson:
    def test_round_trip(self):
        g = ps.build_grid(3, 4)
        h = ps.normalize(ps.rasterize([ps.ActivityPoint(30.0, 60.0, 1.0)], g, 5.0, player_id="p9"))
        doc = ps.heatmap_to_json(h)
        assert doc["rows"] == 3 and doc["cols"] == 4 and doc["normalized"] is True
        back = ps.heatmap_from_json(doc)
        assert back.player_id == "p9"
        assert back.grid_ref == h.grid_ref
        assert np.array_equal(back.cells, h.cells)

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            ps.heatmap_from_json(
                {"player_id": "p", "rows": 2, "cols": 2, "cells": [1.0] * 5, "normalized": False}
            )

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            ps.heatmap_from_json(
                {"player_id": "p", "rows": 2, "cols": 2,
                 "cells": [1.0, -0.5, 0.0, 0.0], "normalized": False}
            )
