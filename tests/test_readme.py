"""The README's code examples run as written."""

import re
from pathlib import Path

import numpy as np

from rosters import blob_points

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading: str) -> str:
    """The first ```python block under the ``## <heading>`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"README section {heading!r} has no python block"
    return match.group(1)


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(12)
    lines = ["player_id,x,y,value"]
    for pid, cx, cy in (("alice", 40.0, 45.0), ("bob", 45.0, 55.0), ("cara", 80.0, 50.0)):
        lines += [f"{pid},{x!r},{y!r},{value!r}"
                  for x, y, value in blob_points(rng, cx, cy, 10.0, n=60).tolist()]
    (tmp_path / "matchday.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    ns = {}
    exec(compile(_section_code("Library"), str(README), "exec"), ns)

    res, m = ns["res"], ns["m"]
    assert m.player_ids == ("alice", "bob", "cara")
    assert (res.statistic, res.p_value) == (m.statistic[0, 1], m.pseudo_distance[0, 1])
    assert len(ns["labels"]) == 3
    assert capsys.readouterr().out == f"{res.statistic} {res.p_value}\n"
