"""Output checks run after every benchmark command, outside the timed span.

Each check returns a list of problems; an empty list means the outputs are
correct. None of them imports pitchsim.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import inputs

SUM_TOL = 1e-12
KERNEL_RTOL = 1e-9


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file in ``out_dir``, by name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def same_bytes(first: dict[str, str], now: dict[str, str]) -> list[str]:
    if now == first:
        return []
    changed = sorted(n for n in first.keys() | now.keys() if first.get(n) != now.get(n))
    return [f"outputs differ from the first run: {', '.join(changed)}"]


def check_tracking(out_dir: Path, points: dict[str, np.ndarray], sampled: list[str]) -> list[str]:
    """Two files per player, unit mass, and a dense kernel-sum oracle on ``sampled``."""
    problems = []
    names = {p.name for p in out_dir.iterdir()}
    expected = {f"heatmap_{pid}.{ext}" for pid in points for ext in ("json", "svg")}
    if names != expected:
        problems.append(f"expected {len(expected)} files, got {len(names)}")
        return problems
    for pid in points:
        cells = np.asarray(json.loads((out_dir / f"heatmap_{pid}.json").read_text())["cells"])
        if abs(cells.sum() - 1.0) > SUM_TOL:
            problems.append(f"{pid}: cells sum to {cells.sum()!r}")
        if pid in sampled:
            want = inputs.kernel_sum(points[pid])
            want /= want.sum()
            err = np.max(np.abs(cells - want) / want)
            if not err <= KERNEL_RTOL:
                problems.append(f"{pid}: relative error {err:.3g} against the dense kernel sum")
    return problems


def check_cluster(out_dir: Path, k: int, n_perm: int, planted: list[int]) -> list[str]:
    """Valid symmetric p-values, the diagonal floor, role recovery, k-1 merges."""
    problems = []
    doc = json.loads((out_dir / "matrix.json").read_text())
    p = np.asarray(doc["p"], dtype=float)
    if p.shape != (k, k):
        return [f"matrix.json has shape {p.shape}, expected {(k, k)}"]
    if not np.all((p > 0.0) & (p <= 1.0)):
        problems.append("p-values outside (0, 1]")
    if not np.array_equal(p, p.T):
        problems.append("p-value matrix is not symmetric")
    if not np.all(np.diag(p) == 1.0 / (n_perm + 1)):
        problems.append("diagonal differs from 1/(n_perm+1)")
    with open(out_dir / "clusters.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids = [inputs.player_id(i) for i in range(k)]
    if [r["player_id"] for r in rows] != ids:
        problems.append("clusters.csv lists other players")
    elif _partition([r["cluster"] for r in rows]) != _partition(planted):
        problems.append("clusters.csv does not recover the planted roles")
    merges = json.loads((out_dir / "dendrogram.json").read_text())["merges"]
    if len(merges) != k - 1:
        problems.append(f"dendrogram has {len(merges)} merges, expected {k - 1}")
    n_pairs = len((out_dir / "pairs.csv").read_text().splitlines()) - 1
    if n_pairs != k * (k + 1) // 2:
        problems.append(f"pairs.csv has {n_pairs} pairs, expected {k * (k + 1) // 2}")
    return problems


def _partition(labels) -> set[frozenset[int]]:
    groups: dict = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, set()).add(i)
    return {frozenset(g) for g in groups.values()}
