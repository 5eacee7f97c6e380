"""Complete-linkage agglomerative clustering, dendrogram cut, and Newick export."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AsymmetricInput, NaNInput

__all__ = [
    "Merge",
    "Dendrogram",
    "complete_linkage",
    "cut",
    "export_newick",
    "merges_to_json",
    "clusters_to_csv",
]


class Merge(NamedTuple):
    left: int
    right: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree over the players ``ids``, all distinct.

    Leaf i is ``ids[i]``; the t-th merge creates internal node k+t.
    Complete linkage guarantees non-decreasing merge heights.
    """

    ids: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if len(set(self.ids)) != self.n_leaves:
            raise ValueError("player ids must be distinct")
        if len(self.merges) != max(self.n_leaves - 1, 0):
            raise ValueError(
                f"{self.n_leaves} leaves need {self.n_leaves - 1} merges, "
                f"got {len(self.merges)}"
            )
        seen = set()
        heights = [m.height for m in self.merges]
        if any(b < a for a, b in zip(heights, heights[1:])):
            raise ValueError("merge heights must be non-decreasing")
        for t, m in enumerate(self.merges):
            limit = self.n_leaves + t
            for child in (m.left, m.right):
                if not (0 <= child < limit):
                    raise ValueError(f"merge {t} references invalid node {child}")
                if child in seen:
                    raise ValueError(f"node {child} appears as a child twice")
                seen.add(child)

    @property
    def n_leaves(self) -> int:
        return len(self.ids)


def complete_linkage(d, ids) -> Dendrogram:
    """Agglomerate by repeatedly merging the closest pair of clusters.

    The distance between two clusters is the largest pairwise distance
    between their members. The diagonal of ``d`` is ignored. ``ids`` names
    the player of each row, all distinct. Among the pairs tied at the
    minimal distance, the one whose (least id, least id) key sorts first
    merges, and the cluster with the lesser least id goes on the left, so
    the merges, as sets of ids, do not depend on the row order even when
    the distances saturate at a few values.

    Raises
    ------
    AsymmetricInput
        If ``d`` is not symmetric.
    NaNInput
        If ``d`` contains NaN.
    ValueError
        If ``ids`` does not hold one distinct id per row of ``d``.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    if np.isnan(d).any():
        raise NaNInput("distance matrix contains NaN")
    if not np.array_equal(d, d.T):
        raise AsymmetricInput("distance matrix is not symmetric")
    k = d.shape[0]
    off_diag = d[~np.eye(k, dtype=bool)]
    if off_diag.size and off_diag.min() < 0:
        raise ValueError("off-diagonal distances must be nonnegative")
    ids = tuple(ids)
    if len(ids) != k:
        raise ValueError(f"expected {k} ids, got {len(ids)}")
    # the least rank, in sorted id order, in each position's cluster;
    # Dendrogram refuses duplicate ids
    least = np.empty(k, dtype=np.intp)
    least[sorted(range(k), key=ids.__getitem__)] = np.arange(k)
    if k == 1:
        return Dendrogram(ids, ())

    work = d.copy()
    np.fill_diagonal(work, np.inf)
    active = np.arange(k)            # positions still in play
    node_id = list(range(k))         # dendrogram node id per position

    merges: list[Merge] = []
    for step in range(k - 1):
        block = work[np.ix_(active, active)]
        ai, bi = np.nonzero(block == block.min())
        # each pair appears in both orders: ai < bi keeps one, and no diagonal
        pa, pb = active[ai[ai < bi]], active[bi[ai < bi]]
        # among the pairs at the minimal height, the least (lo, hi) rank key
        la, lb = least[pa], least[pb]
        t = int(np.argmin(np.minimum(la, lb) * k + np.maximum(la, lb)))
        a, b = int(pa[t]), int(pb[t])
        height = float(work[a, b])
        if least[b] < least[a]:
            a, b = b, a
        merges.append(Merge(left=node_id[a], right=node_id[b], height=height))
        # complete-linkage update: slot a becomes the merged cluster; like
        # max(), keep slot a's value unless slot b's is larger
        merged = np.where(work[b, active] > work[a, active], work[b, active], work[a, active])
        work[a, active] = merged
        work[active, a] = merged
        node_id[a] = k + step
        least[a] = min(least[a], least[b])
        active = active[active != b]
    return Dendrogram(ids, tuple(merges))


def cut(dend: Dendrogram, height: float) -> list[int]:
    """Flat clusters from merges with height <= the cut height.

    Returns one label per leaf. Clusters are numbered 1..m in order of
    their smallest member leaf number.
    """
    if not height >= 0:
        raise ValueError(f"cut height must be >= 0, got {height}")
    k = dend.n_leaves
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # heights are non-decreasing, so merges below the cut form a prefix
    node_root = list(range(k))
    for m in dend.merges:
        if m.height > height:
            break
        ra, rb = find(node_root[m.left]), find(node_root[m.right])
        parent[rb] = ra
        node_root.append(ra)

    groups: dict[int, list[int]] = {}
    for leaf in range(k):
        groups.setdefault(find(leaf), []).append(leaf)
    ordered = sorted(groups.values(), key=min)
    labels = [0] * k
    for label, group in enumerate(ordered, start=1):
        for leaf in group:
            labels[leaf] = label
    return labels


def _newick_name(name: str) -> str:
    unsafe = set(" \t\n()[]{}:;,='\"")
    if any(ch in unsafe for ch in name) or not name:
        return "'" + name.replace("'", "''") + "'"
    return name


def export_newick(dend: Dendrogram) -> str:
    """Newick text with ultrametric branch lengths.

    Node elevations are half the merge heights, so the tree distance
    between two leaves equals the height of their first common merge.
    """
    k = dend.n_leaves
    if k == 1:
        return f"{_newick_name(dend.ids[0])};"

    elevation = [0.0] * k + [m.height / 2.0 for m in dend.merges]
    # each node's text without its branch length, built in merge order:
    # children always merge before their parent, so no recursion is needed
    text = {leaf: _newick_name(name) for leaf, name in enumerate(dend.ids)}
    for node, m in enumerate(dend.merges, start=k):
        left, right = text.pop(m.left), text.pop(m.right)
        top = elevation[node]
        text[node] = (f"({left}:{top - elevation[m.left]!r},"
                      f"{right}:{top - elevation[m.right]!r})")
    return f"{text[node]};"


def merges_to_json(dend: Dendrogram) -> dict:
    return {
        "ids": list(dend.ids),
        "merges": [
            {"left": m.left, "right": m.right, "height": float(m.height)}
            for m in dend.merges
        ],
    }


def clusters_to_csv(ids: list[str], labels: list[int]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([("player_id", "cluster"), *zip(ids, labels)])
    return buf.getvalue()
