"""End-to-end runs of the command line interface."""

import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

import pitchsim as ps
from pitchsim import cli, roster
from pitchsim.cli import main

from rosters import (
    FIVE_PLAYER_ROLES,
    FIVE_PLAYER_SEED,
    NINE_PLAYER_SEED,
    NINE_PLAYER_ZONES,
    blob_heatmap,
    blob_points,
)


def _write_csv(path, rows):
    """``rows`` holds (player id, (x, y, value)) pairs."""
    lines = ["player_id,x,y,value"]
    for pid, p in rows:
        x, y, value = map(float, p)
        lines.append(f"{pid},{x!r},{y!r},{value!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _five_player_csvs(directory):
    rng = np.random.default_rng(FIVE_PLAYER_SEED)
    paths = []
    for pid, cx, cy, spread in FIVE_PLAYER_ROLES:
        pts = blob_points(rng, cx, cy, spread)
        path = directory / f"{pid}.csv"
        _write_csv(path, [(pid, p) for p in pts])
        paths.append(path)
    return paths


def _nine_player_csvs(directory):
    rng = np.random.default_rng(NINE_PLAYER_SEED)
    paths = []
    for zi, (zx, zy) in enumerate(NINE_PLAYER_ZONES):
        for k in range(3):
            cx = zx + rng.uniform(-4, 4)
            cy = zy + rng.uniform(-12, 12)
            pts = blob_points(rng, cx, cy, 8.0)
            pid = f"z{zi}_{k}"
            path = directory / f"{pid}.csv"
            _write_csv(path, [(pid, p) for p in pts])
            paths.append(path)
    return paths


@pytest.fixture(scope="module")
def five_heatmap_dir(tmp_path_factory):
    csv_dir = tmp_path_factory.mktemp("csv")
    out = tmp_path_factory.mktemp("heatmaps")
    paths = _five_player_csvs(csv_dir)
    code = main(["rasterize", *map(str, paths), "--out", str(out)])
    assert code == 0
    return out


def _heatmap_args(directory):
    return [str(directory / f"heatmap_{pid}.json")
            for pid, _, _, _ in FIVE_PLAYER_ROLES]


COMMANDS = ("rasterize", "compare", "cluster")


def _command_argv(command, heatmap_dir, tmp_path):
    """A run of ``command`` that succeeds at the default settings, and the output
    directory it writes (which ``compare`` never does)."""
    out = tmp_path / "o"
    if command == "rasterize":
        csv_dir = tmp_path / "csv"
        csv_dir.mkdir(exist_ok=True)
        return ["rasterize", *map(str, _five_player_csvs(csv_dir)), "--out", str(out)], out
    paths = _heatmap_args(heatmap_dir)
    if command == "compare":
        return ["compare", "mid_a", "gk", *paths, "--json"], out
    return ["cluster", *paths, "--out", str(out)], out


class TestRasterize:
    def test_writes_json_and_svg_per_player(self, five_heatmap_dir, capsys):
        for pid, _, _, _ in FIVE_PLAYER_ROLES:
            doc = json.loads((five_heatmap_dir / f"heatmap_{pid}.json").read_text())
            assert doc["player_id"] == pid
            assert doc["rows"] == 14 and doc["cols"] == 20
            assert doc["normalized"] is True
            svg = (five_heatmap_dir / f"heatmap_{pid}.svg").read_text()
            assert svg.startswith("<svg")

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = _five_player_csvs(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["rasterize", *map(str, paths), "--out", str(out1)]) == 0
        assert main(["rasterize", *map(str, paths), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_combined_file_yields_one_heatmap_per_player(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rows = [("left", p) for p in blob_points(rng, 25.0, 50.0, 8.0, n=30)]
        rows += [("right", p) for p in blob_points(rng, 75.0, 50.0, 8.0, n=30)]
        path = tmp_path / "both.csv"
        _write_csv(path, rows)
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--out", str(out)]) == 0
        assert (out / "heatmap_left.json").exists()
        assert (out / "heatmap_right.json").exists()
        assert "rasterized 2 player(s)" in capsys.readouterr().out

    def test_dropped_rows_are_reported(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text(
            "player_id,x,y,value\np1,50,50,1.0\np1,150,50,1.0\np1,50,50,-2\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--out", str(out)]) == 0
        assert "dropped 2 row(s)" in capsys.readouterr().out

    def test_empty_csv_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        assert main(["rasterize", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no header" in err

    def test_field_over_csv_limit_fails_with_one_error_line(self, tmp_path, capsys):
        # csv's default field_size_limit is 131,072 characters
        path = tmp_path / "long.csv"
        path.write_text(f'player_id,x,y,value\n"{"a" * 200_000}",1,2,3\n', encoding="utf-8")
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "line 2" in lines[0] and "field larger than field limit" in lines[0]
        assert captured.out == ""
        assert not out.exists()

    def test_non_utf8_file_fails_with_one_error_line_naming_it(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        _write_csv(good, [("a", (50.0, 50.0, 1.0))])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"player_id,x,y,value\n\xff,50,50,1\n")
        out = tmp_path / "out"
        assert main(["rasterize", str(good), str(bad), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in lines[0]
        assert captured.out == ""
        assert not out.exists()

    def test_error_after_a_multiline_id_names_its_physical_line(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        path.write_text('player_id,x,y,value\n"a\nb",50,50,1\nc,x,1,1\n', encoding="utf-8")
        assert main(["rasterize", str(path), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {path}: line 4: non-numeric")

    def test_overflowing_total_fails_with_one_error_line(self, tmp_path, capsys):
        # the cells stay finite but their sum overflows: dividing by it would
        # write a heatmap of zeros marked normalized
        path = tmp_path / "big.csv"
        _write_csv(path, [("a", (50.0, 50.0, 1e308))] * 300 + [("b", (20.0, 20.0, 1.0))] * 10)
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: heatmap 'a' has total activity inf, not finite and > 0\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("n, value, bandwidth, total", [
        (3000, 1.7e308, "5", "inf"),
        (1, 1e307, "1e-3", "nan"),
    ], ids=["inf", "nan"])
    def test_overflowing_kernel_sum_is_the_only_stderr_line(self, tmp_path, capsys, n,
                                                            value, bandwidth, total):
        # pyproject.toml's filter turns numpy's overflow warnings into errors, so a
        # run that would print one before its error line fails here
        path = tmp_path / "big.csv"
        _write_csv(path, [("a", (50.0, 50.0, value))] * n)
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--bandwidth", bandwidth, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: heatmap 'a' has total activity {total}, not finite and > 0\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["rasterize", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    # what numpy says on a 100000x100000 grid; a bare MemoryError has no message
    ALLOCATION = ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                  "and data type float64")

    @pytest.mark.parametrize("exc, message", [(MemoryError(ALLOCATION), ALLOCATION),
                                              (MemoryError(), "MemoryError")])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             exc, message):
        # a kernel sum that raises stands in for a grid too large to allocate, so
        # nothing big is allocated here
        def out_of_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "rasterize", out_of_memory)
        argv, out = _command_argv("rasterize", None, tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("other", ["a_b", "a/b", "a  b", "_a b_"])
    def test_colliding_file_names_fail(self, tmp_path, capsys, other):
        # "a b" and every other id here slug to heatmap_a_b.json
        path = tmp_path / "both.csv"
        _write_csv(path, [("a b", (30.0, 40.0, 1.0)),
                          (other, (70.0, 60.0, 1.0))])
        out = tmp_path / "out"
        assert main(["rasterize", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert repr("a b") in lines[0] and repr(other) in lines[0]
        assert "heatmap_a_b.json" in lines[0]
        assert captured.out == ""
        assert not out.exists()

    def test_colliding_ids_across_files_name_both_files(self, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        _write_csv(first, [("a b", (30.0, 40.0, 1.0))])
        _write_csv(second, [("a/b", (70.0, 60.0, 1.0))])
        out = tmp_path / "out"
        assert main(["rasterize", str(first), str(second), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for part in (repr("a b"), repr("a/b"), str(first), str(second)):
            assert part in lines[0]
        assert not out.exists()

    def test_same_id_in_two_files_fails(self, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        _write_csv(first, [("p1", (30.0, 40.0, 1.0))])
        _write_csv(second, [("p1", (70.0, 60.0, 1.0))])
        out = tmp_path / "out"
        assert main(["rasterize", str(first), str(second), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for part in (repr("p1"), str(first), str(second)):
            assert part in lines[0]
        assert not out.exists()

    def test_collision_leaves_existing_outputs_alone(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "heatmap_p1.json").write_text("old", encoding="utf-8")
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        _write_csv(first, [("p1", (30.0, 40.0, 1.0))])
        _write_csv(second, [("p1", (70.0, 60.0, 1.0))])
        assert main(["rasterize", str(first), str(second), "--out", str(out)]) == 1
        assert [p.name for p in out.iterdir()] == ["heatmap_p1.json"]
        assert (out / "heatmap_p1.json").read_text(encoding="utf-8") == "old"


class TestCompare:
    def test_distant_players_text_output(self, five_heatmap_dir, capsys):
        code = main(["compare", "gk", "fwd", *_heatmap_args(five_heatmap_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "pair: gk vs fwd" in out
        lee = float(next(l for l in out.splitlines() if l.startswith("lee_l")).split()[-1])
        p = float(next(l for l in out.splitlines() if l.startswith("p_value")).split()[-1])
        assert lee < 0.0
        assert p > 0.5

    def test_self_comparison_hits_p_floor(self, five_heatmap_dir, capsys):
        code = main(["compare", "mid_a", "mid_a", "--json",
                     *_heatmap_args(five_heatmap_dir)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_perm"] == 999
        assert doc["p_value"] == 1 / 1000
        assert doc["n_ge"] == 0

    def test_argument_order_does_not_matter(self, five_heatmap_dir, capsys):
        assert main(["compare", "gk", "mid_b", "--json",
                     *_heatmap_args(five_heatmap_dir)]) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(["compare", "mid_b", "gk", "--json",
                     *_heatmap_args(five_heatmap_dir)]) == 0
        b = json.loads(capsys.readouterr().out)
        assert a["lee_l"] == b["lee_l"]
        assert a["p_value"] == b["p_value"]
        assert a["seed"] == b["seed"]

    @pytest.mark.parametrize("n_perm", [1, 999])
    def test_json_output_is_strict_json(self, five_heatmap_dir, tmp_path, capsys, n_perm):
        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        def compare_json(*argv):
            assert main(["compare", *argv, "--json", "--n-perm", str(n_perm)]) == 0
            return json.loads(capsys.readouterr().out, parse_constant=reject)

        # z is L over the exact permutation sd, so one permutation is enough
        doc = compare_json("gk", "fwd", *_heatmap_args(five_heatmap_dir))
        assert doc["n_perm"] == n_perm
        assert isinstance(doc["z_score"], float)

        # on 2x2 rook, "a" has W xc = 0 exactly; its id sorts first, so it is
        # the fixed side, every relabeling ties at L = 0 and z is undefined
        paths = []
        for pid, cells in (("a", [0.375, 0.25, 0.25, 0.125]), ("b", [0.5, 0.25, 0.125, 0.125])):
            path = tmp_path / f"{pid}.json"
            path.write_text(json.dumps({"player_id": pid, "rows": 2, "cols": 2,
                                        "cells": cells, "normalized": True}), encoding="utf-8")
            paths.append(str(path))
        for pair in (("a", "b"), ("b", "a")):
            doc = compare_json(*pair, *paths, "--rows", "2", "--cols", "2", "--scheme", "rook")
            assert (doc["lee_l"], doc["p_value"], doc["z_score"]) == (0.0, 1.0, None)

    def test_unknown_player_fails(self, five_heatmap_dir, capsys):
        assert main(["compare", "gk", "striker",
                     *_heatmap_args(five_heatmap_dir)]) == 1
        assert "not found" in capsys.readouterr().err

    def test_heatmap_with_byte_order_mark_reads_as_without(self, five_heatmap_dir,
                                                           tmp_path, capsys):
        paths = _heatmap_args(five_heatmap_dir)
        marked = tmp_path / "heatmap_gk.json"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(paths[0]).read_bytes())
        outputs = []
        for gk in (paths[0], str(marked)):
            assert main(["compare", "gk", "fwd", gk, *paths[1:], "--json"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_overflowing_total_fails_with_one_error_line(self, tmp_path, capsys):
        paths = []
        for pid, cells in (("a", [1e308] * 280), ("b", list(range(280)))):
            path = tmp_path / f"{pid}.json"
            path.write_text(json.dumps({"player_id": pid, "rows": 14, "cols": 20,
                                        "cells": cells, "normalized": False}),
                            encoding="utf-8")
            paths.append(str(path))
        assert main(["compare", "a", "b", *paths]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {paths[0]}: heatmap 'a' has total activity inf, "
                                "not finite and > 0\n")
        assert captured.out == ""


class TestConstantHeatmap:
    # on 2x7 the mean of fourteen cells of 1/14 rounds away from 1/14, so
    # centering leaves a tiny nonzero constant rather than zeros
    @pytest.mark.parametrize("rows, cols", [(14, 20), (2, 7)])
    @pytest.mark.parametrize("command", ["compare", "cluster"])
    def test_one_error_line_naming_the_player(self, tmp_path, capsys, command, rows, cols):
        n = rows * cols
        docs = {
            "flat": [1.0 / n] * n,
            "ramp": list(np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)),
        }
        paths = []
        for pid, cells in docs.items():
            path = tmp_path / f"{pid}.json"
            path.write_text(json.dumps({"player_id": pid, "rows": rows, "cols": cols,
                                        "cells": cells, "normalized": True}),
                            encoding="utf-8")
            paths.append(str(path))
        argv = [command, *paths, "--rows", str(rows), "--cols", str(cols)]
        if command == "compare":
            argv[1:1] = ["ramp", "flat"]
        else:
            # at the default cut, which warns about the p floor once the roster
            # passes its rules: a refused roster prints the error line alone
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: player 'flat' has a constant heatmap"]


def _compare_json(capsys, a, b, paths):
    assert main(["compare", a, b, "--json", *paths]) == 0
    return json.loads(capsys.readouterr().out)


def _pairs_rows(out):
    """pairs.csv data rows keyed by the unordered pair of ids."""
    lines = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()[1:]
    return {frozenset(line.split(",")[:2]): line for line in lines}


class TestPairIdentity:
    """A pair's test depends on the two players only, never on the others."""

    def test_cluster_in_shuffled_order_matches_compare(self, five_heatmap_dir,
                                                       tmp_path, capsys):
        paths = _heatmap_args(five_heatmap_dir)
        shuffled = [paths[i] for i in (4, 2, 0, 3, 1)]
        out = tmp_path / "out"
        assert main(["cluster", *shuffled, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "pairs.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 15
        for line in lines:
            a, b, lee_l, p_value = line.split(",")
            doc = _compare_json(capsys, a, b, paths)
            assert (float(lee_l), float(p_value)) == (doc["lee_l"], doc["p_value"]), line

    def test_inserting_a_player_keeps_existing_rows(self, five_heatmap_dir, tmp_path,
                                                    capsys):
        paths = _heatmap_args(five_heatmap_dir)
        without = [paths[i] for i in (0, 1, 3, 4)]
        inserted = [paths[i] for i in (0, 1, 2, 3, 4)]  # mid_c lands in the middle
        before, after = tmp_path / "before", tmp_path / "after"
        assert main(["cluster", *without, "--out", str(before)]) == 0
        assert main(["cluster", *inserted, "--out", str(after)]) == 0
        old, new = _pairs_rows(before), _pairs_rows(after)
        assert len(old) == 10 and len(new) == 15
        for key, line in old.items():
            assert new[key] == line, key

    def test_compare_ignores_the_other_heatmaps(self, five_heatmap_dir, capsys):
        paths = _heatmap_args(five_heatmap_dir)
        by_id = dict(zip((pid for pid, _, _, _ in FIVE_PLAYER_ROLES), paths))
        for a, b in (("fwd", "mid_b"), ("gk", "mid_c"), ("mid_a", "fwd")):
            alone = _compare_json(capsys, a, b, [by_id[a], by_id[b]])
            among_all = _compare_json(capsys, a, b, paths)
            for key in ("seed", "lee_l", "p_value"):
                assert alone[key] == among_all[key], (a, b, key)


def _partition(out):
    """clusters.csv as a set of clusters, each a set of player ids."""
    with open(out / "clusters.csv", encoding="utf-8", newline="") as f:
        groups = {}
        for pid, label in list(csv.reader(f))[1:]:
            groups.setdefault(label, set()).add(pid)
    return {frozenset(g) for g in groups.values()}


def _merges(out):
    """dendrogram.json's merges as (left ids, right ids, height)."""
    doc = json.loads((out / "dendrogram.json").read_text(encoding="utf-8"))
    members = [frozenset([pid]) for pid in doc["ids"]]
    merges = []
    for m in doc["merges"]:
        left, right = members[m["left"]], members[m["right"]]
        members.append(left | right)
        merges.append((left, right, m["height"]))
    return merges


class TestClusterIdentity:
    """The clusters depend on the players, never on the order of the arguments."""

    def test_reversed_arguments_give_one_partition(self, tmp_path, capsys):
        # uniform centres leave many pairs tied at the p-value floor, so the
        # merges depend on how ties are broken
        grid = ps.build_grid(14, 20)
        rng = np.random.default_rng(3)
        paths = []
        for i in range(40):
            cx, cy = rng.uniform(15.0, 85.0, size=2)
            h = blob_heatmap(rng, f"u{i:02d}", cx, cy, 12.0, grid)
            path = tmp_path / f"heatmap_u{i:02d}.json"
            path.write_text(json.dumps(ps.heatmap_to_json(h)), encoding="utf-8")
            paths.append(str(path))
        fwd, rev = tmp_path / "fwd", tmp_path / "rev"
        flags = ["--n-perm", "99", "--cut", "0.05"]
        assert main(["cluster", *paths, *flags, "--out", str(fwd)]) == 0
        assert main(["cluster", *paths[::-1], *flags, "--out", str(rev)]) == 0
        capsys.readouterr()
        values = [{key: line.split(",")[2:] for key, line in _pairs_rows(out).items()}
                  for out in (fwd, rev)]
        assert values[0] == values[1]
        assert len(_partition(fwd)) > 1
        assert _partition(fwd) == _partition(rev)
        assert _merges(fwd) == _merges(rev)


@pytest.fixture(scope="module")
def nine_out(tmp_path_factory):
    csv_dir = tmp_path_factory.mktemp("nine_csv")
    hm_dir = tmp_path_factory.mktemp("nine_hm")
    paths = _nine_player_csvs(csv_dir)
    assert main(["rasterize", *map(str, paths), "--out", str(hm_dir)]) == 0
    out = tmp_path_factory.mktemp("nine_out")
    heatmaps = [str(hm_dir / f"heatmap_z{z}_{k}.json")
                for z in range(3) for k in range(3)]
    assert main(["cluster", *heatmaps, "--cut", "0.5", "--out", str(out)]) == 0
    return hm_dir, out


class TestCluster:
    def test_all_outputs_written(self, nine_out):
        _, out = nine_out
        names = {p.name for p in out.iterdir()}
        assert names == {
            "matrix.json", "pairs.csv", "dendrogram.nwk", "dendrogram.json",
            "clusters.csv", "matrix_original.svg", "matrix_clustered.svg",
            "pvalue_histogram.csv", "pvalue_histogram.svg",
        }

    def test_zone_players_share_clusters(self, nine_out):
        _, out = nine_out
        lines = (out / "clusters.csv").read_text().strip().splitlines()
        assert lines[0] == "player_id,cluster"
        labels = {pid: int(c) for pid, c in (l.split(",") for l in lines[1:])}
        assert len(labels) == 9
        assert len(set(labels.values())) == 3
        for z in range(3):
            zone = {labels[f"z{z}_{k}"] for k in range(3)}
            assert len(zone) == 1

    def test_matrix_json_is_consistent(self, nine_out):
        _, out = nine_out
        doc = json.loads((out / "matrix.json").read_text())
        assert doc["n_perm"] == 999 and doc["master_seed"] == 0
        assert doc["player_ids"] == [f"z{z}_{k}" for z in range(3) for k in range(3)]
        p = np.asarray(doc["p"])
        assert p.shape == np.asarray(doc["l"]).shape == (9, 9)
        assert np.array_equal(p, p.T)
        assert np.all(np.diag(p) == 1 / 1000)

    def test_histogram_counts_cover_all_pairs(self, nine_out):
        _, out = nine_out
        lines = (out / "pvalue_histogram.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_start,bin_end,count"
        assert len(lines) == 21
        assert sum(int(l.split(",")[2]) for l in lines[1:]) == 36

    def test_histogram_edges_are_plain_decimals(self, nine_out):
        _, out = nine_out
        rows = [line.split(",") for line in
                (out / "pvalue_histogram.csv").read_text().splitlines()[1:]]
        edges = np.linspace(0.0, 1.0, 21).tolist()
        assert [(float(a), float(b)) for a, b, _ in rows] == list(zip(edges, edges[1:]))

    def test_rerun_is_byte_identical(self, nine_out, tmp_path):
        hm_dir, out = nine_out
        again = tmp_path / "again"
        heatmaps = [str(hm_dir / f"heatmap_z{z}_{k}.json")
                    for z in range(3) for k in range(3)]
        assert main(["cluster", *heatmaps, "--cut", "0.5", "--out", str(again)]) == 0
        for name in ("pairs.csv", "dendrogram.nwk", "matrix.json", "clusters.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_identical_players_merge_with_floor_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        pts = blob_points(rng, 40.0, 55.0, 9.0, n=40)
        for pid in ("dup_a", "dup_b"):
            _write_csv(tmp_path / f"{pid}.csv", [(pid, p) for p in pts])
        hm = tmp_path / "hm"
        assert main(["rasterize", str(tmp_path / "dup_a.csv"),
                     str(tmp_path / "dup_b.csv"), "--out", str(hm)]) == 0
        out = tmp_path / "out"
        code = main(["cluster", str(hm / "heatmap_dup_a.json"),
                     str(hm / "heatmap_dup_b.json"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "resolution floor" in captured.err
        labels = (out / "clusters.csv").read_text().strip().splitlines()[1:]
        assert labels == ["dup_a,1", "dup_b,1"]

    # at n_perm 99 the p-value floor is 1/100
    @pytest.mark.parametrize("cut, err", [
        ("0.01", "warning: cut height 0.01 equals the p-value resolution floor "
                 "1/(n_perm+1); consider raising --n-perm\n"),
        ("0.001", "warning: cut height 0.001 is below the p-value resolution floor "
                  "1/(n_perm+1), so no pair can merge; consider raising --n-perm\n"),
        ("0", "warning: cut height 0.0 is below the p-value resolution floor "
              "1/(n_perm+1), so no pair can merge; consider raising --n-perm\n"),
        ("0.5", ""),
    ], ids=["equal", "below", "zero", "above"])
    def test_cut_at_or_below_the_floor_warns(self, five_heatmap_dir, tmp_path, capsys,
                                             monkeypatch, cut, err):
        test, errs = roster.permutation_test, []

        def spy(*args, **kwargs):
            # stderr so far, at each pair test: the warning comes before the first
            errs.append(capsys.readouterr().err)
            return test(*args, **kwargs)

        monkeypatch.setattr(roster, "permutation_test", spy)
        out = tmp_path / "o"
        assert main(["cluster", *_heatmap_args(five_heatmap_dir), "--n-perm", "99",
                     "--cut", cut, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert len(errs) == 15 and errs[0] == err and not any(errs[1:])
        assert captured.err == ""
        labels = [int(row["cluster"]) for row in
                  csv.DictReader(io.StringIO((out / "clusters.csv").read_text()))]
        if float(cut) < 0.01:
            assert labels == [1, 2, 3, 4, 5]
            assert " 5 cluster(s) " in captured.out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_player_is_prepared_once(self, five_heatmap_dir, tmp_path, capsys,
                                          monkeypatch, workers):
        # the roster check before the floor warning and the pair tests share one record
        real, names = roster.prepare_cells, []

        def counted(values, w, name):
            names.append(name)
            return real(values, w, name)

        monkeypatch.setattr(roster, "prepare_cells", counted)
        assert main(["cluster", *_heatmap_args(five_heatmap_dir), "--n-perm", "9",
                     "--workers", workers, "--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        assert names == [f"player {pid!r}" for pid, *_ in FIVE_PLAYER_ROLES]

    def test_clusters_csv_quotes_player_ids(self, tmp_path):
        ids = ["Smith, J", 'say "hi"', "two\nlines", "plain"]
        grid = ps.build_grid(14, 20)
        rng = np.random.default_rng(4)
        paths = []
        for i, (pid, cx) in enumerate(zip(ids, (20.0, 40.0, 60.0, 80.0))):
            h = blob_heatmap(rng, pid, cx, 50.0, 9.0, grid)
            paths.append(tmp_path / f"h{i}.json")
            paths[-1].write_text(json.dumps(ps.heatmap_to_json(h)), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["cluster", *map(str, paths), "--n-perm", "99", "--out", str(out)]) == 0
        text = (out / "clusters.csv").read_bytes().decode("utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == ["player_id", "cluster"]
        assert [r[0] for r in rows[1:]] == ids
        assert all(len(r) == 2 and int(r[1]) >= 1 for r in rows[1:])
        assert text.endswith("\nplain," + rows[-1][1] + "\n")

    def test_svgs_stay_well_formed_xml_for_ids_xml_forbids(self, tmp_path):
        ids = ["a\x01b", "c\x1fd", "e\ufffef", "g\x0bh"]
        rng = np.random.default_rng(11)
        rows = [(pid, p) for pid, cx in zip(ids, (20.0, 40.0, 60.0, 80.0))
                for p in blob_points(rng, cx, 50.0, 8.0, n=30)]
        _write_csv(tmp_path / "ids.csv", rows)
        hm, out = tmp_path / "hm", tmp_path / "out"
        assert main(["rasterize", str(tmp_path / "ids.csv"), "--out", str(hm)]) == 0
        heatmaps = [str(hm / f"heatmap_{s}.json") for s in ("a_b", "c_d", "e_f", "g_h")]
        assert main(["cluster", *heatmaps, "--n-perm", "99", "--out", str(out)]) == 0
        svgs = sorted(hm.glob("*.svg")) + sorted(out.glob("*.svg"))
        assert len(svgs) == len(ids) + 3
        for path in svgs:
            minidom.parse(str(path))  # raises ExpatError when not well-formed
        title = minidom.parse(str(hm / "heatmap_a_b.svg")).getElementsByTagName("text")[0]
        assert title.firstChild.data == "a\ufffdb"

    def test_grid_mismatch_fails(self, tmp_path, capsys):
        paths = _five_player_csvs(tmp_path)
        hm = tmp_path / "hm"
        assert main(["rasterize", *map(str, paths[:2]), "--rows", "7",
                     "--cols", "10", "--out", str(hm)]) == 0
        files = sorted(str(p) for p in hm.glob("*.json"))
        assert main(["cluster", *files, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (f"error: {files[0]}: heatmap grid 7x10 does not "
                                           "match configured 14x20\n")

    def test_duplicate_player_id_fails(self, five_heatmap_dir, tmp_path, capsys):
        path = _heatmap_args(five_heatmap_dir)[0]
        pid = json.loads(Path(path).read_text(encoding="utf-8"))["player_id"]
        assert main(["cluster", path, path, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {path}: duplicate player id {pid!r}\n"

    def test_single_heatmap_fails_writing_nothing(self, five_heatmap_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["cluster", _heatmap_args(five_heatmap_dir)[0], "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need at least 2 heatmaps, got 1\n"
        assert captured.out == ""
        assert not out.exists()


class TestMalformedHeatmap:
    @pytest.mark.parametrize("field,mangle", [
        ("rows", lambda d: d.pop("rows")),
        ("cols", lambda d: d.update(cols="20")),
        ("cells", lambda d: d.update(cells={"0": 1.0})),
        ("cells", lambda d: d["cells"].__setitem__(0, "0.5")),
        ("normalized", lambda d: d.update(normalized="yes")),
        ("player_id", lambda d: d.update(player_id=7)),
        ("cells", lambda d: d["cells"].__setitem__(0, 10**400)),
        # valid JSON, but no UTF-8 form: cluster would warn, then fail at the digest
        pytest.param("player_id", lambda d: d.update(player_id="\ud800x"),
                     id="player_id-lone-surrogate"),
    ])
    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_one_error_line_naming_file_and_field(self, five_heatmap_dir, tmp_path,
                                                  capsys, command, field, mangle):
        paths = _heatmap_args(five_heatmap_dir)
        doc = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
        mangle(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, str(bad), *paths[1:]]
        if command == "compare":
            argv[1:1] = ["gk", "fwd"]
        else:
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: ")
        assert repr(field) in err[0]

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_non_utf8_file_fails_with_one_error_line_naming_it(self, five_heatmap_dir,
                                                                tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"player_id": "\xff"}')
        paths = _heatmap_args(five_heatmap_dir)
        argv = [command, str(bad), *paths[1:]]
        if command == "compare":
            argv[1:1] = ["gk", "fwd"]
        else:
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}: ")
        assert "can't decode byte 0xff" in lines[0]
        assert captured.out == ""
        assert not (tmp_path / "o").exists()

    def test_not_an_object(self, five_heatmap_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        paths = _heatmap_args(five_heatmap_dir)
        assert main(["cluster", str(bad), *paths, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad}: heatmap must be a JSON object, got list"]

    @pytest.mark.parametrize("command", ["cluster", "compare"])
    def test_nesting_beyond_the_recursion_limit(self, five_heatmap_dir, tmp_path, capsys,
                                                command):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000, encoding="utf-8")
        paths = _heatmap_args(five_heatmap_dir)
        argv = [command, str(bad), *paths]
        if command == "compare":
            argv[1:1] = ["gk", "fwd"]
        else:
            argv += ["--out", str(tmp_path / "o")]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {bad}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rows,cells", [(1, [0.25] * 4), (0, [])])
    def test_grid_below_2x2_fails(self, tmp_path, capsys, rows, cells):
        thin = tmp_path / "thin.json"
        thin.write_text(json.dumps({"player_id": "p", "rows": rows, "cols": 4,
                                    "cells": cells, "normalized": True}),
                        encoding="utf-8")
        assert main(["cluster", str(thin), str(thin), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {thin}: grid must be at least 2x2, got {rows}x4"]


def _declared_script(name):
    """Return the ``module:function`` target of ``name`` in ``[project.scripts]``."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    in_scripts = False
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts and "=" in line:
            key, _, value = line.partition("=")
            if key.strip().strip('"') == name:
                return value.strip().strip('"')
    raise AssertionError(f"{pyproject} declares no [project.scripts] entry {name!r}")


def _assert_pitchsim_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "rasterize" in proc.stdout
    assert proc.stdout.startswith("usage: pitchsim ")


class TestConfig:
    def test_config_file_applies_and_flags_win(self, tmp_path):
        rng = np.random.default_rng(5)
        _write_csv(tmp_path / "p.csv",
                   [("p1", p) for p in blob_points(rng, 50.0, 50.0, 10.0, n=25)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rows=7\ncols=10  # coarse grid\nbandwidth=3.0\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["rasterize", str(tmp_path / "p.csv"), "--config", str(cfg),
                     "--rows", "8", "--out", str(out)]) == 0
        doc = json.loads((out / "heatmap_p1.json").read_text())
        assert doc["rows"] == 8       # flag beats config
        assert doc["cols"] == 10      # config beats default
        assert len(doc["cells"]) == 80

    def test_config_file_with_byte_order_mark_applies(self, tmp_path):
        rng = np.random.default_rng(5)
        _write_csv(tmp_path / "p.csv",
                   [("p1", p) for p in blob_points(rng, 50.0, 50.0, 10.0, n=25)])
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfrows=7\ncols=10\n")
        out = tmp_path / "out"
        assert main(["rasterize", str(tmp_path / "p.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "heatmap_p1.json").read_text())
        assert (doc["rows"], doc["cols"]) == (7, 10)

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rowz=7\n", encoding="utf-8")
        assert main(["rasterize", "x.csv", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_non_utf8_config_file_fails_with_one_error_line_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"rows=7\ncols=\xff\n")
        assert main(["rasterize", "x.csv", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}: ")
        assert "can't decode byte 0xff" in lines[0]

    def test_unconvertible_config_value_names_file_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cols=10\nrows=abc\n", encoding="utf-8")
        assert main(["rasterize", "x.csv", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:2: invalid value for 'rows': 'abc'"]

    def test_invalid_values_fail_validation(self, five_heatmap_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["rasterize", "x.csv", "--rows", "1", "--out", str(out)]) == 1
        assert "at least 2x2" in capsys.readouterr().err
        paths = _heatmap_args(five_heatmap_dir)
        for argv in (["compare", "mid_a", "gk", *paths], ["cluster", *paths, "--out", str(out)]):
            assert main([*argv, "--n-perm", "0"]) == 1
            assert "n_perm must be >= 1" in capsys.readouterr().err
        # non-finite bandwidth and cut, as a flag and in a config file, on the
        # command that reads each; both are refused before the input is read
        cfg = tmp_path / "run.cfg"
        for command, key, value in (("rasterize", "bandwidth", "nan"),
                                    ("rasterize", "bandwidth", "inf"),
                                    ("cluster", "cut", "nan"), ("cluster", "cut", "inf")):
            cfg.write_text(f"{key}={value}\n", encoding="utf-8")
            for opts in ([f"--{key}", value], ["--config", str(cfg)]):
                assert main([command, "x.input", *opts, "--out", str(out)]) == 1
                err = capsys.readouterr().err.splitlines()
                assert err == [f"error: bandwidth must be finite and > 0, got {value}"
                               if key == "bandwidth" else
                               f"error: cut height must be finite and >= 0, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    @pytest.mark.parametrize("command", ["compare", "cluster"])
    def test_master_seed_outside_64_bits_fails(self, five_heatmap_dir, tmp_path, capsys,
                                               command, seed):
        paths = _heatmap_args(five_heatmap_dir)
        # cluster runs at the default cut, on the p-value floor: the refused
        # seed still ends the run before the floor warning is printed
        args = ["compare", "mid_a", "gk", *paths, "--json"] if command == "compare" \
            else ["cluster", *paths, "--out", str(tmp_path / "o")]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed={seed}\n", encoding="utf-8")
        for opts in (["--seed", seed], ["--config", str(cfg)]):
            assert main([*args, *opts]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: master seed must be in [0, 2**64), got {seed}\n"
            assert captured.out == ""
        assert not (tmp_path / "o").exists()

    # one case per setting rule, and one per type conversion, on each command that
    # reads the setting: (command, setting, refused value, error line); None
    # stands for the conversion's message. cluster runs at the default cut, on
    # the p-value floor, so its one error line also means no warning
    REFUSALS = [
        *[(command, "rows", "2.5", None) for command in COMMANDS],
        *[(command, "rows", "1", "grid must be at least 2x2, got 1x20")
          for command in COMMANDS],
        *[(command, "scheme", "hex", "scheme must be rook or queen, got 'hex'")
          for command in ("compare", "cluster")],
        ("rasterize", "bandwidth", "inf", "bandwidth must be finite and > 0, got inf"),
        *[(command, "n-perm", "abc", None) for command in ("compare", "cluster")],
        *[(command, "n-perm", "0", "n_perm must be >= 1, got 0")
          for command in ("compare", "cluster")],
        *[(command, "seed", "-1", "master seed must be in [0, 2**64), got -1")
          for command in ("compare", "cluster")],
        ("cluster", "cut", "nan", "cut height must be finite and >= 0, got nan"),
        ("cluster", "workers", "0", "workers must be >= 1, got 0"),
    ]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, setting, value, message", REFUSALS)
    def test_flag_and_config_value_refused_alike(self, five_heatmap_dir, tmp_path, capsys,
                                                 command, setting, value, message, source):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{setting}={value}\n", encoding="utf-8")
        opts = [f"--{setting}", value] if source == "flag" else ["--config", str(cfg)]
        argv, out = _command_argv(command, five_heatmap_dir, tmp_path)
        assert main([*argv, *opts]) == 1
        if message is None:
            where = f"--{setting}" if source == "flag" else f"{cfg}:1"
            message = f"{where}: invalid value for {setting.replace('-', '_')!r}: {value!r}"
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("setting, value, message", [
        ("n-perm", "0", "n_perm must be >= 1, got 0"),
        ("seed", "-1", "master seed must be in [0, 2**64), got -1"),
    ])
    @pytest.mark.parametrize("command", ["compare", "cluster"])
    def test_rule_checked_before_any_heatmap_is_read(self, tmp_path, capsys, command,
                                                     setting, value, message):
        missing = str(tmp_path / "nosuch.json")
        argv = ["compare", "a", "b", missing] if command == "compare" \
            else ["cluster", missing, "--out", str(tmp_path / "o")]
        assert main([*argv, f"--{setting}", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    # settings of other commands, each with a value the command taking it accepts
    FOREIGN = [
        *[("rasterize", setting, value) for setting, value in (
            ("scheme", "rook"), ("n-perm", "9"), ("seed", "1"), ("cut", "0.5"),
            ("workers", "2"))],
        *[("compare", setting, value) for setting, value in (
            ("bandwidth", "3"), ("cut", "0.5"), ("workers", "2"), ("out", "OUT"))],
        ("cluster", "bandwidth", "3"),
    ]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, setting, value", FOREIGN)
    def test_setting_of_another_command_refused(self, five_heatmap_dir, tmp_path, capsys,
                                                command, setting, value, source):
        argv, out = _command_argv(command, five_heatmap_dir, tmp_path)
        value = str(out) if value == "OUT" else value
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{setting}={value}\n", encoding="utf-8")
        if source == "flag":
            opts, message = [f"--{setting}", value], f"unrecognized arguments: --{setting} {value}"
        else:
            opts, message = ["--config", str(cfg)], \
                f"{cfg}:1: unknown key {setting.replace('-', '_')!r}"
        assert main([*argv, *opts]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("rasterize", {"--rows", "--cols", "--bandwidth", "--out"}),
        ("compare", {"--rows", "--cols", "--scheme", "--n-perm", "--seed", "--json"}),
        ("cluster", {"--rows", "--cols", "--scheme", "--n-perm", "--seed", "--cut",
                     "--workers", "--out"}),
    ])
    def test_help_lists_exactly_the_commands_flags(self, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert listed == {"-h", "--help", "--config", *flags}

    @pytest.mark.parametrize("command, setting, value, message", [
        ("rasterize", "bandwidth", "nan", "bandwidth must be finite and > 0, got nan"),
        ("cluster", "cut", "-0.5", "cut height must be finite and >= 0, got -0.5"),
        ("cluster", "n-perm", "0", "n_perm must be >= 1, got 0"),
        ("cluster", "seed", "-1", "master seed must be in [0, 2**64), got -1"),
        ("cluster", "workers", "0", "workers must be >= 1, got 0"),
    ])
    def test_bad_setting_refused_before_any_work(self, five_heatmap_dir, tmp_path, capsys,
                                                 monkeypatch, command, setting, value,
                                                 message):
        def refuse(*args, **kwargs):
            raise AssertionError("ran before the settings were checked")

        monkeypatch.setattr(roster, "permutation_test", refuse)
        monkeypatch.setattr(cli, "parse_activity_groups", refuse)
        monkeypatch.setattr(cli, "heatmap_from_json", refuse)
        argv, out = _command_argv(command, five_heatmap_dir, tmp_path)
        assert main([*argv, f"--{setting}", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # the same run at a good value reaches the refusing layer
        with pytest.raises(AssertionError, match="ran before"):
            main(argv)

    @pytest.mark.parametrize("args, message", [
        (["cluster", "HEATMAPS", "--bogus"], "unrecognized arguments: --bogus"),
        (["cluster", "HEATMAPS", "--rows"], "argument --rows: expected one argument"),
        (["cluster"], "the following arguments are required: HEATMAP_JSON"),
        (["compare", "mid_a"], "the following arguments are required: player_b"),
        (["frob"], "argument command: invalid choice: 'frob'"),
    ])
    def test_argparse_refusal_is_one_error_line(self, five_heatmap_dir, tmp_path, capsys,
                                                args, message):
        out = tmp_path / "o"
        paths = _heatmap_args(five_heatmap_dir)
        argv = [a for arg in args for a in (paths if arg == "HEATMAPS" else [arg])]
        if args[0] != "compare":  # compare writes no files and takes no --out
            argv += ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert not out.exists()

    def test_installed_entry_point(self, tmp_path):
        # Run the declared console-script target the way pip's generated
        # wrapper does, against the same package the suite imported, so the
        # check needs no install step. The tmp_path cwd keeps whatever
        # directory pytest runs from off the subprocess's sys.path.
        target = _declared_script("pitchsim")
        module, _, func = target.partition(":")
        code = (
            "import importlib, sys; sys.argv = ['pitchsim', '--help']; "
            f"sys.exit(getattr(importlib.import_module({module!r}), {func!r})())"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        _assert_pitchsim_help(proc)

    @pytest.mark.skipif(shutil.which("pitchsim") is None,
                        reason="pitchsim console script not on PATH (package not installed)")
    def test_console_script_on_path(self):
        proc = subprocess.run([shutil.which("pitchsim"), "--help"],
                              capture_output=True, text=True, timeout=60)
        _assert_pitchsim_help(proc)


# Runs every command in one fresh interpreter and lists, after the import
# and after each command, the watched modules that interpreter has loaded.
_RUN_ALL_COMMANDS = """
import json, sys
from pathlib import Path
WATCHED = ("scipy", "concurrent.futures", "multiprocessing", "pitchsim.roster",
           "pitchsim.cluster", "hashlib")
def loaded():
    return sorted(m for m in sys.modules
                  if any(m == w or m.startswith(w + ".") for w in WATCHED))
from pitchsim.cli import main
report = {"import": loaded()}
csv_dir, out = map(Path, sys.argv[1:])
codes = [main(["rasterize", *map(str, sorted(csv_dir.glob("*.csv"))), "--out", str(out)])]
report["rasterize"] = loaded()
maps = sorted(map(str, out.glob("heatmap_*.json")))
codes.append(main(["compare", "mid_a", "gk", *maps, "--n-perm", "9"]))
report["compare"] = loaded()
codes.append(main(["cluster", *maps, "--n-perm", "9", "--workers", "1",
                   "--out", str(out / "cluster")]))
report["cluster"] = loaded()
print(json.dumps({"codes": codes, "loaded": report}))
"""


def test_commands_import_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy.sparse alone used to
    # double every command's start-up. Each command loads only what it
    # runs: rasterize no roster, cluster or id digests, and a one-worker
    # run no process pool.
    _five_player_csvs(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(ps.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL_COMMANDS, str(tmp_path),
                           str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    loaded = report["loaded"]
    assert loaded["import"] == loaded["rasterize"] == []
    for command in ("compare", "cluster"):
        assert not [m for m in loaded[command]
                    if m.split(".")[0] in ("scipy", "concurrent", "multiprocessing")]
