"""The README's code examples run as written."""

import argparse
import glob
import re
import shlex
from pathlib import Path

import numpy as np

from pitchsim import cli
from rosters import blob_points

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading: str, language: str = "python") -> str:
    """The first ```<language> block under the ``## <heading>`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"README section {heading!r} has no {language} block"
    return match.group(1)


def _write_matchday(directory, monkeypatch, players):
    """Write ``players``, (player id, (m, 3) points) pairs, to matchday.csv in
    ``directory`` in that order, and make it the working directory."""
    lines = ["player_id,x,y,value"]
    for pid, pts in players:
        lines += [f"{pid},{x!r},{y!r},{value!r}" for x, y, value in pts.tolist()]
    directory.mkdir(exist_ok=True)
    (directory / "matchday.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(directory)


def _run_library(directory, monkeypatch, players):
    """The Library snippet's names after it runs in ``directory`` on ``players``."""
    _write_matchday(directory, monkeypatch, players)
    ns = {}
    exec(compile(_section_code("Library"), str(README), "exec"), ns)
    return ns


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(12)
    players = [(pid, blob_points(rng, cx, cy, 10.0, n=60))
               for pid, cx, cy in (("alice", 40.0, 45.0), ("bob", 45.0, 55.0),
                                   ("cara", 80.0, 50.0))]
    ns = _run_library(tmp_path, monkeypatch, players)

    res, m = ns["res"], ns["m"]
    assert m.player_ids == ("alice", "bob", "cara")
    assert (res.statistic, res.p_value) == (m.statistic[0, 1], m.pseudo_distance[0, 1])
    assert len(ns["labels"]) == 3
    assert capsys.readouterr().out == f"{res.statistic} {res.p_value}\n"


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(12)
    _write_matchday(tmp_path, monkeypatch, [
        (pid, blob_points(rng, cx, cy, 10.0, n=60))
        for pid, cx, cy in (("alice", 40.0, 45.0), ("bob", 45.0, 55.0), ("cara", 80.0, 50.0))])
    commands = [line for line in _section_code("Command line", "sh").splitlines()
                if line and not line.startswith("#")]
    assert [shlex.split(line)[:2] for line in commands] == [
        ["pitchsim", "rasterize"], ["pitchsim", "compare"], ["pitchsim", "cluster"]]
    outputs = []
    for line in commands:
        # the shell expands each glob in name order
        argv = [path for word in shlex.split(line)[1:]
                for path in (sorted(glob.glob(word)) if "*" in word else [word])]
        assert cli.main(argv) == 0, line
        outputs.append(capsys.readouterr().out)
    assert outputs[0].startswith("rasterized 3 player(s) from 1 file(s)")
    assert outputs[1].startswith("pair: alice vs bob\n")
    lee_l, p_value = (line.split()[1] for line in outputs[1].splitlines()[1:3])
    pairs = (tmp_path / "results" / "pairs.csv").read_text(encoding="utf-8").splitlines()
    row = next(line.split(",") for line in pairs if line.startswith("alice,bob,"))
    assert (f"{float(row[2]):.6f}", f"{float(row[3]):.6f}") == (lee_l, p_value)


def _partition(ns):
    groups = {}
    for pid, label in zip(ns["m"].player_ids, ns["labels"]):
        groups.setdefault(label, set()).add(pid)
    return {frozenset(g) for g in groups.values()}


def _merge_sets(ns):
    members = [frozenset([pid]) for pid in ns["m"].player_ids]
    for m in ns["dend"].merges:
        members.append(members[m.left] | members[m.right])
    return [(members[m.left], members[m.right], m.height) for m in ns["dend"].merges]


def test_library_clusters_follow_the_players_not_their_order(tmp_path, monkeypatch,
                                                            capsys):
    # uniform centres leave many pairs tied at the p-value floor, so the
    # clusters depend on how the linkage breaks ties
    rng = np.random.default_rng(3)
    players = []
    for i in range(40):
        cx, cy = rng.uniform(15.0, 85.0, size=2)
        players.append((f"u{i:02d}", blob_points(rng, cx, cy, 12.0)))
    fwd = _run_library(tmp_path / "fwd", monkeypatch, players)
    rev = _run_library(tmp_path / "rev", monkeypatch, players[::-1])
    capsys.readouterr()
    assert len(_partition(fwd)) > 1
    assert _partition(fwd) == _partition(rev)
    assert _merge_sets(fwd) == _merge_sets(rev)


def _command_flags():
    """Each command's option strings, read from the parser itself."""
    sub = next(a for a in cli.make_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {flag for action in parser._actions for flag in action.option_strings}
            for name, parser in sub.choices.items()}


def test_settings_table_matches_the_parser():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    table = re.search(r"^((?:\|.*\n)+)", section, re.M).group(1)
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()]
    commands = [cell.strip("`") for cell in rows[0][2:-1]]
    flags = _command_flags()
    assert sorted(commands) == sorted(flags)
    keys = []
    for row in rows[2:]:
        names = re.findall(r"`--([\w-]+)`", row[0])
        for name, default in zip(names, row[1].split(", "), strict=True):
            key = name.replace("-", "_")
            keys.append(key)
            # the README's default converts to the one the command uses
            value = cli._SETTINGS[key][0]
            assert type(value)(default.strip("`")) == value, name
            ticked = {c for c, mark in zip(commands, row[2:-1]) if mark == "✓"}
            assert ticked == {c for c in commands if f"--{name}" in flags[c]}, name
    assert sorted(keys) == sorted(cli._SETTINGS)
