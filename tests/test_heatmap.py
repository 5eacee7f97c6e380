"""Activity parsing, kernel rasterization, and normalization."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import cycle, islice
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim import heatmap
from pitchsim.errors import (
    EmptyInput,
    MalformedHeatmap,
    MalformedRecord,
    NonpositiveBandwidth,
    PitchsimError,
    ZeroMass,
)

from oracles import kernel_sum_direct, parse_by_rows


def _csv(text: str) -> io.StringIO:
    return io.StringIO(text)


class TestParsing:
    def test_single_center_row(self):
        groups, drops = ps.parse_activity_groups(_csv("player_id,x,y,value\np1,50,50,3.0\n"))
        assert list(groups) == ["p1"]
        assert np.array_equal(groups["p1"], [[50.0, 50.0, 3.0]])
        assert drops.total == 0

    def test_negative_value_dropped_and_counted(self):
        groups, drops = ps.parse_activity_groups(
            _csv("player_id,x,y,value\np1,50,50,3.0\np1,40,40,-1\n")
        )
        assert len(groups["p1"]) == 1
        assert drops.negative_value == 1 and drops.total == 1

    def test_out_of_extent_dropped_and_counted(self):
        groups, drops = ps.parse_activity_groups(
            _csv("player_id,x,y,value\np1,50,50,3.0\np1,150,50,1.0\n")
        )
        assert len(groups["p1"]) == 1
        assert drops.out_of_extent == 1 and drops.total == 1

    def test_non_numeric_field_aborts_with_line_number(self):
        with pytest.raises(MalformedRecord, match="line 3"):
            ps.parse_activity_groups(
                _csv("player_id,x,y,value\np1,50,50,3.0\np1,oops,50,1.0\n")
            )

    def test_non_finite_field_rejected(self):
        with pytest.raises(MalformedRecord, match="non-finite"):
            ps.parse_activity_groups(_csv("player_id,x,y,value\np1,nan,50,1.0\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(MalformedRecord, match="header"):
            ps.parse_activity_groups(_csv("id,x,y,v\np1,1,1,1\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(EmptyInput):
            ps.parse_activity_groups(_csv(""))

    def test_no_valid_rows_rejected(self):
        with pytest.raises(EmptyInput):
            ps.parse_activity_groups(_csv("player_id,x,y,value\np1,150,150,1\n"))

    def test_groups_keep_first_seen_order(self):
        groups, _ = ps.parse_activity_groups(
            _csv("player_id,x,y,value\nb,1,1,1\na,2,2,1\nb,3,3,1\n")
        )
        assert list(groups) == ["b", "a"]
        assert len(groups["b"]) == 2

    def test_boundary_points_kept(self):
        groups, drops = ps.parse_activity_groups(
            _csv("player_id,x,y,value\np1,0,0,1\np1,100,100,1\n")
        )
        assert len(groups["p1"]) == 2 and drops.total == 0

    def test_groups_are_contiguous_float64_rows_in_first_seen_order(self):
        groups, _ = ps.parse_activity_groups(
            _csv("player_id,x,y,value\nb,1,2,3\na,4.5,5,6\nb,7,8,0\nc,9,10,1e-3\n")
        )
        assert list(groups) == ["b", "a", "c"]
        expected = {"b": [[1, 2, 3], [7, 8, 0]], "a": [[4.5, 5, 6]], "c": [[9, 10, 1e-3]]}
        for pid, rows in groups.items():
            assert isinstance(rows, np.ndarray)
            assert rows.dtype == np.float64 and rows.flags.c_contiguous
            assert rows.shape == (len(expected[pid]), 3)
            assert np.array_equal(rows, expected[pid])

    def test_retained_memory_per_row_bounded(self):
        # each accepted row is kept as three float64s, not as Python objects
        n_rows, n_players = 100_000, 22
        rng = np.random.default_rng(5)
        lines = ["player_id,x,y,value"]
        lines += [f"p{i % n_players},{x!r},{y!r},{v!r}"
                  for i, (x, y, v) in enumerate(rng.uniform(0, 100, (n_rows, 3)).tolist())]
        source = _csv("\n".join(lines) + "\n")
        del lines
        tracemalloc.start()
        try:
            groups, drops = ps.parse_activity_groups(source)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert drops.total == 0 and sum(len(rows) for rows in groups.values()) == n_rows
        assert retained / n_rows <= 32

    def test_peak_memory_close_to_the_rows_returned(self):
        # interleaved players leave one piece per player in every block; the
        # parse must not hold every accepted row twice while joining them
        n_rows, n_players = 200_000, 20
        rng = np.random.default_rng(6)
        lines = ["player_id,x,y,value"]
        lines += [f"p{i % n_players},{x!r},{y!r},{v!r}"
                  for i, (x, y, v) in enumerate(rng.uniform(0, 100, (n_rows, 3)).tolist())]
        source = _csv("\n".join(lines) + "\n")
        del lines
        tracemalloc.start()
        try:
            groups, _ = ps.parse_activity_groups(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(rows.nbytes for rows in groups.values())
        assert returned == n_rows * 3 * 8
        assert peak < 1.5 * returned


    def test_rows_read_before_undecodable_bytes_are_checked_first(self, tmp_path):
        # the bad byte sits past the stream's first 8 KiB chunk, in the same
        # block of lines as the bad row before it
        lines = ["player_id,x,y,value", "p1,50,50,1", "p1,oops,50,1"]
        lines += [f"p1,{i % 100},50,1" for i in range(3000)]
        path = tmp_path / "bad.csv"
        path.write_bytes(("\n".join(lines) + "\n").encode() + b"p1,\xff,1,1\n")
        with pytest.raises(MalformedRecord, match="^line 3: non-numeric"):
            ps.parse_activity_groups(path)
        del lines[2]
        path.write_bytes(("\n".join(lines) + "\n").encode() + b"p1,\xff,1,1\n")
        with pytest.raises(UnicodeDecodeError):
            ps.parse_activity_groups(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # the "CSV UTF-8" export of common spreadsheet tools starts with one
        text = "player_id,x,y,value\np1,50,50,3.0\np2,150,50,1.0\np1,40,40,-2\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbfplayer_id,")
        groups, drops = ps.parse_activity_groups(plain)
        got, got_drops = ps.parse_activity_groups(marked)
        assert got_drops == drops
        assert list(got) == list(groups)
        assert all(np.array_equal(got[pid], groups[pid]) for pid in groups)

    def test_block_of_blank_lines_does_not_warn(self):
        text = "player_id,x,y,value\np1,1,2,3\n" + "\n" * (2 * heatmap._BLOCK_LINES) + "p1,4,5,6\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            groups, drops = ps.parse_activity_groups(_csv(text))
        assert np.array_equal(groups["p1"], [[1, 2, 3], [4, 5, 6]]) and drops.total == 0

    @pytest.mark.parametrize("text, line", [
        (f'player_id,x,y,value\np1,1,2,3\n"{"a" * 200_000}",1,2,3\n', 3),
        (f'player_id,x,y,"{"v" * 200_000}"\np1,1,2,3\n', 1),
    ], ids=["row", "header"])
    def test_field_over_csv_limit_names_its_line(self, text, line):
        with pytest.raises(MalformedRecord, match=f"^line {line}: field larger than field limit"):
            ps.parse_activity_groups(_csv(text))

    @pytest.mark.parametrize("text, line", [
        ('player_id,x,y,value\n"a\nb",50,50,1\nc,x,1,1\n', 4),
        ('"player_id\n",x,y,value\nc,x,1,1\n', 3),
        (f'player_id,x,y,value\n"a\r\nb",50,50,1\nc,1,2\n', 4),
        (f'player_id,x,y,value\n"a\nb",50,50,1\n"{"a" * 200_000}",1,2,3\n', 4),
    ], ids=["row-after-field", "two-line-header", "field-count", "csv-error"])
    def test_error_names_the_first_physical_line_of_its_record(self, text, line):
        # a quoted field holding a newline makes records and lines differ
        with pytest.raises(MalformedRecord, match=f"^line {line}: "):
            ps.parse_activity_groups(_csv(text))


def _parse_by_rows(text, newline):
    """The row loop alone over the whole body: the reference for the parse."""
    stream = io.StringIO(text, newline=newline)
    next(stream)  # the header, one plain line in every generated body
    groups, (out_of_extent, negative) = parse_by_rows(stream, 2, ps.DEFAULT_EXTENT,
                                                      MalformedRecord)
    if not groups:
        raise EmptyInput("activity CSV has no valid rows")
    return groups, ps.DropCounts(out_of_extent=out_of_extent, negative_value=negative)


def _outcome(parse):
    try:
        groups, drops = parse()
    except PitchsimError as exc:
        return type(exc), str(exc)
    return [(pid, a.shape, a.dtype, a.flags.c_contiguous, a.tobytes())
            for pid, a in groups.items()], drops


_PLAIN_IDS = st.sampled_from(["a", "b", " a ", "b\t", "", "p 1", "a\x00"])
_QUOTED_IDS = st.sampled_from(['"a"', '" b"', '"a,b"', '"a""b"', '"x\ny"', '"x\r\ny"', '""', '"a"b',
                               ' "a"', '"a" '])
_NUMBERS = st.one_of(
    st.sampled_from(["0", "50", "100", "-0", " 1.5 ", "1_0", "\uff11", "nan", "inf", "-1",
                     "-150", "150", "1e999", "", "x", '"5"', "\u20031", '"1.5"', '" 1"',
                     '"1""5"', '"nan"']),
    st.floats(-20.0, 120.0).map(repr),
)
_ROWS = st.builds(lambda pid, x, y, value, extra: ",".join([pid, x, y, value]) + extra,
                  st.one_of(_PLAIN_IDS, _QUOTED_IDS), _NUMBERS, _NUMBERS, _NUMBERS,
                  st.sampled_from(["", "", "", ","]))
_LINES = st.one_of(_ROWS, st.sampled_from(["", " ", "\t", ","]))
# lines repeated to fill the first block, so that the drawn lines start just
# before, on or just after the boundary between the first two blocks
_FILLERS = {
    "rows": ["a,50,50,1", "b,10.5,20,0.5", " a ,0,100,2"],
    "drops": ["a,50,50,1", "b,150,50,1", "a,50,50,-1", "b,-5,50,-1"],
    "blank": [""],
}
_ENDINGS = ("\n", "\r\n", "\r")


@st.composite
def _bodies(draw):
    """A header line and a body of mostly one line ending, with its stream's newline."""
    ending = draw(st.sampled_from(_ENDINGS))
    n_fill = draw(st.sampled_from([0, 0, 0, heatmap._BLOCK_LINES - 2, heatmap._BLOCK_LINES - 1,
                                   heatmap._BLOCK_LINES, heatmap._BLOCK_LINES + 1]))
    filler = draw(st.sampled_from(sorted(_FILLERS)))
    lines = [line + ending for line in islice(cycle(_FILLERS[filler]), n_fill)]
    for line in draw(st.lists(_LINES, max_size=8)):
        lines.append(line + draw(st.sampled_from([ending, ending, ending, *_ENDINGS])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "player_id,x,y,value\n" + "".join(lines), draw(st.sampled_from(["", "\n"]))


class TestParseMatchesRowLoop:
    """parse_activity_groups must agree with the row loop on every input."""

    @settings(max_examples=300, deadline=None)
    @given(_bodies())
    # a quoted id in a block that np.loadtxt would read with its quotes
    @example(("player_id,x,y,value\n\"a\",50,50,1\n", ""))
    # a row both negative and out of extent is counted as negative
    @example(("player_id,x,y,value\na,50,50,1\na,150,50,-1\n", ""))
    # a bad row in the second block is reported with its own line number
    @example(("player_id,x,y,value\n" + "a,50,50,1\n" * heatmap._BLOCK_LINES + "a,x,50,1\n", ""))
    # a quoted id that starts on the first block's last line and ends in the next
    @example(("player_id,x,y,value\n" + "a,50,50,1\n" * (heatmap._BLOCK_LINES - 1)
              + '"x\ny",50,50,1\nb,150,50,1\nz,20,30,1\nb,10,10,-1\n', ""))
    # a quoted first block, then a plain block with a bad row
    @example(('player_id,x,y,value\n"a",50,50,1\n' + "b,40,40,1\n" * heatmap._BLOCK_LINES
              + "a,x,50,1\n", ""))
    def test_same_groups_drops_and_errors(self, body):
        text, newline = body
        expected = _outcome(lambda: _parse_by_rows(text, newline))
        got = _outcome(lambda: ps.parse_activity_groups(io.StringIO(text, newline=newline)))
        assert got == expected

    def test_plain_blocks_after_a_quoted_one_go_to_loadtxt(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def counting(lines, *args, **kwargs):
            calls.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(heatmap.np, "loadtxt", counting)
        n = heatmap._BLOCK_LINES
        text = ('player_id,x,y,value\n"Smith, J",50,50,1\n' + "b,40,40,1\n" * (2 * n - 1)
                + "b,30,30,1\n" * 10)
        groups, drops = ps.parse_activity_groups(io.StringIO(text))
        assert calls == [n, n, 10]
        assert list(groups) == ["Smith, J", "b"] and len(groups["b"]) == 2 * n + 9

    def test_quote_all_export_goes_to_loadtxt_alone(self, monkeypatch):
        # an exporter that quotes every field, as csv.QUOTE_ALL does
        rng = np.random.default_rng(24)
        rows = [(f"p {i % 7}", *rng.uniform(-10, 110, 2), rng.uniform(-0.5, 2.0))
                for i in range(heatmap._BLOCK_LINES + 500)]
        plain, quoted = io.StringIO(newline=""), io.StringIO(newline="")
        csv.writer(plain).writerows([heatmap.CSV_HEADER, *rows])
        csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows([heatmap.CSV_HEADER, *rows])
        assert quoted.getvalue().count('"') == 8 * (len(rows) + 1)
        want = _outcome(lambda: ps.parse_activity_groups(io.StringIO(plain.getvalue())))
        monkeypatch.setattr(heatmap, "_csv_block",
                            lambda *args: pytest.fail("csv.reader read a quoted block"))
        got = _outcome(lambda: ps.parse_activity_groups(io.StringIO(quoted.getvalue())))
        assert got == want and want[1].total > 0


class TestRasterize:
    def test_tiny_bandwidth_peaks_in_containing_cell(self):
        g = ps.build_grid(4, 5)
        # dead center of cell (2, 3)
        cx, cy = g.cell_centers()[2 * g.cols + 3]
        h = ps.rasterize([(cx, cy, 1.0)], g, 1e-12)
        assert int(np.argmax(h.cells)) == 2 * g.cols + 3

    def test_off_center_small_bandwidth_peaks_in_containing_cell(self):
        # small but not clamped: the containing cell must stay above underflow
        g = ps.build_grid(4, 5)
        h = ps.rasterize([(41.0, 30.0, 2.0)], g, 1.0)
        # (41, 30) lies in row 30 // 25 = 1, column 41 // 20 = 2
        assert int(np.argmax(h.cells)) == 1 * g.cols + 2

    def test_linearity_in_values(self):
        g = ps.build_grid(6, 6)
        rng = np.random.default_rng(3)
        pts = np.array([(*rng.uniform(5, 95, 2), v) for v in rng.uniform(0.1, 3.0, 25)])
        scaled = pts * [1.0, 1.0, 10.0]
        a = ps.rasterize(pts, g, 7.0).cells
        b = ps.rasterize(scaled, g, 7.0).cells
        assert np.allclose(b, 10.0 * a, rtol=1e-12, atol=0.0)

    def test_matches_direct_kernel_oracle(self):
        g = ps.build_grid(4, 5)
        pts = [(12.5, 30.0, 2.0), (77.0, 60.0, 1.5), (50.0, 50.0, 0.7)]
        h = ps.rasterize(pts, g, 8.0)
        direct = kernel_sum_direct(pts, g.cell_centers(), 8.0)
        assert np.allclose(h.cells, direct, rtol=1e-12, atol=0.0)

    def test_matches_direct_kernel_oracle_on_non_square_grid(self):
        # rows != cols and cell_width != cell_height, so a swapped row/column
        # factor or a transposed product cannot agree with the oracle
        g = ps.build_grid(7, 11, extent=(0.0, 0.0, 105.0, 68.0))
        assert g.cell_width != g.cell_height
        rng = np.random.default_rng(21)
        xy = rng.uniform((0.0, 0.0), (105.0, 68.0), size=(300, 2))
        values = rng.uniform(0.1, 2.0, 300)
        pts = np.column_stack([xy, values])
        h = ps.rasterize(pts, g, 6.0)
        direct = kernel_sum_direct(pts, g.cell_centers(), 6.0)
        assert np.allclose(h.cells, direct, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_point_chunks_match_oracle_and_ignore_order(self, monkeypatch, chunk):
        monkeypatch.setattr(heatmap, "_POINT_CHUNK", chunk)
        g = ps.build_grid(7, 11, extent=(0.0, 0.0, 105.0, 68.0))
        rng = np.random.default_rng(23)
        pts = rng.uniform((0.0, 0.0, 0.1), (105.0, 68.0, 2.0), size=(150, 3))
        cells = ps.rasterize(pts, g, 6.0).cells
        direct = kernel_sum_direct(pts, g.cell_centers(), 6.0)
        assert np.allclose(cells, direct, rtol=1e-12, atol=0.0)
        shuffled = pts[rng.permutation(len(pts))]
        assert np.array_equal(ps.rasterize(shuffled, g, 6.0).cells, cells)

    def test_memory_bounded_in_points(self):
        # the kernel factors are built one chunk of points at a time, so
        # memory grows with the points, not with points * (rows + cols)
        g = ps.build_grid(40, 60)
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 100, (50_000, 3))
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
        pts = np.column_stack([g.cell_centers(), np.ones(g.n)])
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
        pts = np.array([(*rng.uniform(0, 100, 2), rng.uniform(0.1, 2)) for _ in range(40)])
        base = ps.rasterize(pts, g, 6.0).cells
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(pts))
            shuffled = pts[order]
            assert np.array_equal(ps.rasterize(shuffled, g, 6.0).cells, base)

    def test_input_order_invariance_bitwise_with_tied_sort_keys(self):
        # points sharing x, and points sharing (x, y) with different values,
        # must still be summed in one order whatever order they arrive in
        g = ps.build_grid(5, 6)
        rng = np.random.default_rng(13)
        pts = []
        for x in rng.uniform(0, 100, 6):
            for y in rng.uniform(0, 100, 4):
                pts += [(x, y, v) for v in rng.uniform(0.1, 2.0, 3)]
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
            "pts = rng.uniform(0, 100, (20000, 3))\n"
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
            (pyrng.uniform(0, 100), pyrng.uniform(0, 100), pyrng.uniform(0, 2))
            for _ in range(12)
        ]
        base = ps.rasterize(pts, g, 5.0).cells
        shuffled = list(pts)
        pyrng.shuffle(shuffled)
        assert np.array_equal(ps.rasterize(shuffled, g, 5.0).cells, base)

    def test_mass_positive_whenever_any_value_positive(self):
        g = ps.build_grid(3, 3)
        h = ps.rasterize([(1.0, 1.0, 1e-9)], g, 2.0)
        assert float(h.cells.sum()) > 0.0

    def test_cells_nonnegative_finite(self):
        g = ps.build_grid(4, 4)
        h = ps.rasterize([(99.0, 1.0, 3.0)], g, 0.5)
        assert np.all(np.isfinite(h.cells)) and np.all(h.cells >= 0.0)

    def test_empty_points_rejected(self):
        with pytest.raises(EmptyInput):
            ps.rasterize([], ps.build_grid(2, 2), 5.0)

    @pytest.mark.parametrize("points", [
        np.full((4, 2), 50.0),
        np.full(3, 50.0),
        [50.0, 50.0, 1.0],
        np.full((2, 3, 1), 50.0),
    ], ids=["m_by_2", "1d_array", "1d_list", "3d"])
    def test_points_not_m_by_3_rejected(self, points):
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            ps.rasterize(points, ps.build_grid(2, 2), 5.0)

    @pytest.mark.parametrize("bad", [
        (math.nan, 50.0, 1.0),
        (50.0, -math.inf, 1.0),
        (50.0, 50.0, math.inf),
        (50.0, 50.0, math.nan),
        (50.0, 50.0, -1.0),
    ], ids=["nan_x", "inf_y", "inf_value", "nan_value", "negative_value"])
    def test_non_finite_or_negative_row_rejected(self, bad):
        # the CSV parse never passes such rows on; library callers can
        pts = [(10.0, 10.0, 1.0), bad, (20.0, 20.0, 1.0), bad]
        with pytest.raises(ValueError, match=r"^points row 1 has a non-finite field or a negative"):
            ps.rasterize(pts, ps.build_grid(3, 3), 5.0)

    def test_nonpositive_bandwidth_rejected(self):
        g = ps.build_grid(2, 2)
        pts = [(50.0, 50.0, 1.0)]
        with pytest.raises(NonpositiveBandwidth):
            ps.rasterize(pts, g, 0.0)
        with pytest.raises(NonpositiveBandwidth):
            ps.rasterize(pts, g, -2.0)
        with pytest.raises(NonpositiveBandwidth):
            ps.rasterize(pts, g, float("nan"))

    def test_infinite_bandwidth_rejected(self):
        # an infinite bandwidth gives all-zero cells, which the CLI refuses
        with pytest.raises(NonpositiveBandwidth,
                           match=r"^bandwidth must be finite and > 0, got inf$"):
            ps.rasterize([(50.0, 50.0, 1.0)], ps.build_grid(2, 2), float("inf"))


    @pytest.mark.parametrize("n, value, bandwidth, total", [
        (3000, 1.7e308, 5.0, "inf"),  # the matrix product overflows
        (1, 1e307, 1e-3, "nan"),  # an inf weight meets a kernel factor of 0
    ], ids=["inf", "nan"])
    def test_overflowing_kernel_sum_rejected_without_a_warning(self, n, value, bandwidth,
                                                               total):
        # the filter in pyproject.toml turns numpy's warnings into errors
        with pytest.raises(ZeroMass, match=rf"^heatmap 'a' has total activity {total}, "
                                           r"not finite and > 0$"):
            ps.rasterize([(50.0, 50.0, value)] * n, ps.build_grid(14, 20), bandwidth,
                         player_id="a")


@st.composite
def _heatmap_cells(draw):
    """A grid of 2x2 to 4x5 and cells at a scale from 1e-300 to 1e300: one per
    grid cell or one too few or too many, some of them negative or not finite."""
    grid = ps.build_grid(draw(st.integers(2, 4)), draw(st.integers(2, 5)))
    n = grid.n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    cells = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))
    cells *= 10.0 ** draw(st.integers(-300, 300))
    for bad in draw(st.lists(st.sampled_from([-1e-300, -1.0, math.nan, math.inf, -math.inf]),
                             max_size=2)):
        cells[draw(st.integers(0, n - 1))] = bad
    return grid, cells


class TestHeatmap:
    @pytest.mark.parametrize("cells, message", [
        ([0.5, 0.5, 0.0], "heatmap 'p' has 3 cells, expected 4"),
        ([0.25] * 5, "heatmap 'p' has 5 cells, expected 4"),
        ([0.5, math.nan, 0.5, 0.0], "heatmap 'p' has invalid cell values"),
        ([0.5, math.inf, 0.5, 0.0], "heatmap 'p' has invalid cell values"),
        ([0.5, -1e-300, 0.5, 0.0], "heatmap 'p' has invalid cell values"),
    ], ids=["short", "long", "nan", "inf", "negative"])
    def test_bad_cells_refused_when_built(self, cells, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            ps.Heatmap(player_id="p", grid=ps.build_grid(2, 2), cells=np.array(cells))

    def test_cells_are_a_read_only_flat_float64_copy(self):
        grid = ps.build_grid(2, 3)
        given = np.arange(6).reshape(2, 3)
        h = ps.Heatmap(player_id="p", grid=grid, cells=given)
        given[0, 0] = 99
        assert h.cells.dtype == np.float64 and not h.cells.flags.writeable
        assert h.cells.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            h.cells[0] = 1.0

    @pytest.mark.parametrize("cells, normalized", [
        ([0.25] * 4, True),
        ([0.25, 0.25, 0.5, 1e-13], True),
        ([0.25, 0.25, 0.5, 1e-11], False),
        ([2.0, 2.0, 4.0, 0.0], False),
        ([0.0] * 4, False),
        ([1e308] * 4, False),  # the sum overflows, without a warning
    ])
    def test_normalized_is_read_from_the_cells(self, cells, normalized):
        h = ps.Heatmap(player_id="p", grid=ps.build_grid(2, 2), cells=np.array(cells))
        assert h.normalized is normalized
        with pytest.raises(TypeError):
            ps.Heatmap(player_id="p", grid=h.grid, cells=h.cells, normalized=normalized)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_heatmap_cells(), st.sampled_from([0.5, 5.0, 30.0]))
    def test_rules_normalize_and_json_round_trip(self, case, bandwidth):
        grid, cells = case
        if len(cells) != grid.n:
            refusal = f"{len(cells)} cells, expected {grid.n}"
        elif not (np.isfinite(cells).all() and (cells >= 0).all()):
            refusal = "invalid cell values"
        else:
            refusal = None
        if refusal:
            with pytest.raises(ValueError, match=rf"^heatmap 'p' has {refusal}$"):
                ps.Heatmap(player_id="p", grid=grid, cells=cells)
            return
        h = ps.Heatmap(player_id="p", grid=grid, cells=cells)
        assert h.cells.tobytes() == cells.tobytes()
        text = json.dumps(ps.heatmap_to_json(h))
        back = ps.heatmap_from_json(json.loads(text))
        assert (back.player_id, back.grid, back.normalized) == ("p", grid, h.normalized)
        assert back.cells.tobytes() == h.cells.tobytes()
        if not 0.0 < math.fsum(cells) < math.inf:
            with pytest.raises(ZeroMass, match="^heatmap 'p' has total activity"):
                ps.normalize(h)
        else:
            assert ps.normalize(h).normalized
        # cells as the weights of points at the cell centres
        points = np.column_stack([grid.cell_centers(), cells])
        try:
            out = ps.normalize(ps.rasterize(points, grid, bandwidth, player_id="p"))
        except ZeroMass:  # the kernel sum overflows, or underflows to 0
            return
        back = ps.heatmap_from_json(json.loads(json.dumps(ps.heatmap_to_json(out))))
        assert back.normalized and ps.normalize(back) is back


class TestNormalize:
    def test_quarter_quarter_half(self):
        g = ps.build_grid(2, 2)
        h = ps.Heatmap(player_id="p", grid=g,
                       cells=np.array([2.0, 2.0, 4.0, 0.0]))
        out = ps.normalize(h)
        assert np.array_equal(out.cells, np.array([0.25, 0.25, 0.5, 0.0]))
        assert out.normalized

    def test_idempotent_exactly(self):
        g = ps.build_grid(3, 3)
        h = ps.rasterize([(40.0, 40.0, 2.0)], g, 5.0)
        once = ps.normalize(h)
        twice = ps.normalize(once)
        assert twice is once

    def test_zero_mass_rejected(self):
        g = ps.build_grid(2, 2)
        h = ps.Heatmap(player_id="p", grid=g, cells=np.zeros(4))
        with pytest.raises(ZeroMass):
            ps.normalize(h)

    def test_overflowing_mass_rejected_without_a_warning(self):
        # 280 finite cells whose sum overflows to inf; the filter in
        # pyproject.toml turns numpy's overflow warning into an error
        g = ps.build_grid(14, 20)
        h = ps.Heatmap(player_id="p", grid=g, cells=np.full(280, 1e308))
        with pytest.raises(ZeroMass, match="total activity inf, not finite and > 0"):
            ps.normalize(h)

    def test_normalized_sums_to_one(self):
        g = ps.build_grid(5, 5)
        rng = np.random.default_rng(4)
        pts = np.array([(*rng.uniform(0, 100, 2), 1.0) for _ in range(9)])
        out = ps.normalize(ps.rasterize(pts, g, 3.0))
        assert math.isclose(float(out.cells.sum()), 1.0, rel_tol=0, abs_tol=1e-9)


class TestHeatmapJson:
    def test_round_trip(self):
        g = ps.build_grid(3, 4)
        h = ps.normalize(ps.rasterize([(30.0, 60.0, 1.0)], g, 5.0, player_id="p9"))
        doc = ps.heatmap_to_json(h)
        assert doc["rows"] == 3 and doc["cols"] == 4 and doc["normalized"] is True
        back = ps.heatmap_from_json(doc)
        assert back.player_id == "p9"
        assert back.grid == h.grid
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

    @pytest.mark.parametrize("pid", ["\ud800x", "a\udfff"])
    def test_player_id_without_utf8_form_rejected(self, pid):
        # json.loads turns an escaped lone surrogate into such a str
        doc = json.loads(json.dumps({"player_id": pid, "rows": 2, "cols": 2,
                                     "cells": [0.25] * 4, "normalized": True}))
        assert doc["player_id"] == pid
        with pytest.raises(MalformedHeatmap, match="^heatmap field 'player_id' must be UTF-8"):
            ps.heatmap_from_json(doc)
        doc["player_id"] = "\U0001f600"  # a code point beyond U+FFFF is fine
        assert ps.heatmap_from_json(doc).player_id == "\U0001f600"
