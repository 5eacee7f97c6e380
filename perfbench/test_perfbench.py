"""Tests of the benchmark itself, on tiny workloads.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np
import pytest

import checks
import inputs
import run

TINY = {
    w.name: w
    for w in (
        run.Workload("tracking", "rasterize", players=5, rows_per_player=200),
        run.Workload("squad", "cluster", players=5, n_perm=99, cut=0.05),
        run.Workload("league", "cluster", players=10, n_perm=19, cut=0.1,
                     workers=2),
    )
}


def _cli(inp: run.Inputs, out, work) -> int:
    argv = [sys.executable, "-m", "pitchsim.cli", *inp.argv(out)]
    return run.spawn(argv, work / "cli.log", run._child_env())[2]


@pytest.mark.parametrize("name", list(TINY))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    spec = TINY[name]
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = run.Inputs(spec, 7, a).sha256
    assert run.Inputs(spec, 7, b).sha256 == first
    assert run.Inputs(spec, 8, c).sha256 != first
    assert sorted(first) == sorted(p.name for p in a.iterdir())


def test_heatmaps_are_normalized_blobs_of_their_role():
    docs = inputs.heatmap_docs(3, 10)
    cx, cy = inputs.cell_centres()
    for doc, role in zip(docs, inputs.roles(10)):
        cells = np.asarray(doc["cells"])
        assert abs(cells.sum() - 1.0) < 1e-12
        peak = np.argmax(cells)
        rx, ry = inputs.ROLE_CENTRES[role]
        assert np.hypot(cx[peak] - rx, cy[peak] - ry) < 10.0


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in declared["end_to_end" if trace == 0 else "per_layer"]}
    for name in TINY:
        code = run.main(["--workload", name, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], workloads=TINY)
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_layers_account_for_the_wall_time(capsys):
    run.main(["--workload", "league", "--seed", "2", "--seconds", "1", "--trace", "1"],
             workloads=TINY)
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert metrics["trace.accounted_frac"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["stats.tests"]["value"] == 10 * 11 // 2
    assert metrics["roster.scaling_eff"]["value"] > 0.0


def test_corrupted_cluster_output_counts_as_failed(tmp_path):
    inp = run.Inputs(TINY["league"], 4, tmp_path)
    tally = run.Tally(inp)
    out = tmp_path / "out"
    assert _cli(inp, out, tmp_path) == 0
    tally.record(out, True)
    assert (tally.attempted, tally.failed) == (1, 0)

    doc = json.loads((out / "matrix.json").read_text())
    doc["p"][0][1] = 0.5
    (out / "matrix.json").write_text(json.dumps(doc))
    tally.record(out, True)
    assert (tally.attempted, tally.failed) == (2, 1)

    shutil.rmtree(out)
    assert _cli(inp, out, tmp_path) == 0
    with open(out / "matrix_original.svg", "a") as fh:
        fh.write(" ")
    tally.record(out, True)
    assert (tally.attempted, tally.failed) == (3, 2)

    tally.record(out, False, "exit code 1")
    assert (tally.attempted, tally.failed) == (4, 3)


def test_corrupted_tracking_output_fails_the_kernel_oracle(tmp_path):
    inp = run.Inputs(TINY["tracking"], 5, tmp_path)
    out = tmp_path / "out"
    assert _cli(inp, out, tmp_path) == 0
    assert inp.check(out) == []

    path = out / f"heatmap_{inp.sampled[0]}.json"
    doc = json.loads(path.read_text())
    doc["cells"][0], doc["cells"][1] = doc["cells"][1], doc["cells"][0]
    path.write_text(json.dumps(doc))
    problems = inp.check(out)
    assert len(problems) == 1 and "dense kernel sum" in problems[0]


def test_missing_output_is_a_problem_not_a_crash(tmp_path):
    inp = run.Inputs(TINY["squad"], 6, tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    assert inp.check(out)[0].startswith("unreadable outputs")


def test_self_time_subtracts_covered_child_time():
    spans = [["cli.main", 0.0, 10.0, None], ["a.x", 1.0, 4.0, 0], ["b.y", 2.0, 3.0, 1],
             ["a.x", 5.0, 6.0, 0]]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert run.tail(list(range(100))) == (89, 90.0)
    assert checks.same_bytes({"a": "1"}, {"a": "1"}) == []


def test_one_command_runs_every_workload(capsys):
    assert run.main(["--seed", "3", "--seconds", "1"], workloads=TINY) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {f"{w}/{m['name']}" for w in TINY for m in declared}
    assert result["correct"] and result["failed"] == 0


def test_a_hung_command_is_killed_at_the_timeout(tmp_path):
    wall, _, code = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"],
                              tmp_path / "log", run._child_env(), timeout=0.5)
    assert code != 0 and wall < 10
