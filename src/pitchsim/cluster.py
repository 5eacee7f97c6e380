"""Complete-linkage agglomerative clustering, dendrogram cut, and Newick export."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _HOMES
from .errors import AsymmetricInput, NaNInput, as_float64, as_ints, check_cut

__all__ = list(_HOMES["cluster"])


class Merge(NamedTuple):
    left: int
    right: int
    height: float


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree over the players ``ids``, distinct strs and at least one.

    Leaf i is ``ids[i]``; the t-th merge, a ``(left, right, height)`` triple kept as
    ``Merge(int, int, float)``, creates internal node k+t. Heights are >= 0 and
    non-decreasing, as complete linkage gives them; NaN is refused, inf kept.
    """

    ids: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        if not self.ids:
            raise ValueError("a dendrogram needs at least one leaf")
        if not all(isinstance(i, str) for i in self.ids):
            raise ValueError(f"player ids must be strs, got {self.ids!r}")
        if len(set(self.ids)) != self.n_leaves:
            raise ValueError("player ids must be distinct")
        try:
            given = [Merge(*m) for m in self.merges]
        except TypeError:
            raise ValueError("each merge must be a (left, right, height) triple") from None
        if len(given) != self.n_leaves - 1:
            raise ValueError(
                f"{self.n_leaves} leaves need {self.n_leaves - 1} merges, got {len(given)}")
        children = as_ints([c for m in given for c in m[:2]], "merge child")
        heights = as_float64([m.height for m in given], "dendrogram")
        if children.shape != (2 * len(given),) or heights.shape != (len(given),):
            raise ValueError("each merge must be a (left, right, height) triple")
        if np.isnan(heights).any():
            raise NaNInput("merge heights must not be NaN")
        if (heights < np.append(0.0, heights[:-1])).any():
            raise ValueError("merge heights must be >= 0 and non-decreasing")
        merges = tuple(Merge(int(a), int(b), h)
                       for a, b, h in zip(children[::2], children[1::2], heights.tolist()))
        object.__setattr__(self, "merges", merges)
        seen = set()
        for t, m in enumerate(merges):
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
    the player of each row, all distinct, and at least one. The clusters
    are searched with their rows in sorted id order, each cluster at the
    row of its least id: among the pairs tied at the minimal distance the
    first in that order merges, with the lower row on the left. So the
    merges, as sets of ids, do not depend on the row order of ``d`` even
    when the distances saturate at a few values.

    Raises
    ------
    AsymmetricInput
        If ``d`` is not symmetric.
    NaNInput
        If ``d`` contains NaN.
    ValueError
        If ``ids`` does not hold one distinct id per row of ``d``, or ``d``
        has no rows.
    """
    d = as_float64(d, "distance matrix")
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
    # rows in sorted id order, and a merged cluster keeps the lower row; a
    # merged-away row and column turn inf, so the first minimum of the whole
    # matrix in row-major order is the tied pair of live rows with the least
    # (least id, least id) key; Dendrogram refuses duplicate ids
    node_id = sorted(range(k), key=ids.__getitem__)   # node per row, None once merged away
    work = d[np.ix_(node_id, node_id)]
    np.fill_diagonal(work, np.inf)

    merges: list[Merge] = []
    for step in range(k - 1):
        a, b = divmod(int(np.argmin(work)), k)
        if a == b:                   # all remaining distances are inf
            a, b = [row for row, node in enumerate(node_id) if node is not None][:2]
        merges.append(Merge(left=node_id[a], right=node_id[b], height=work[a, b]))
        # complete-linkage update: row a becomes the merged cluster; like
        # max(), keep row a's value unless row b's is larger
        work[a] = work[:, a] = np.where(work[b] > work[a], work[b], work[a])
        work[b] = work[:, b] = np.inf
        node_id[a], node_id[b] = k + step, None
    return Dendrogram(ids, tuple(merges))


def cut(dend: Dendrogram, height: float) -> list[int]:
    """Flat clusters from merges with height <= the cut height, which must be
    finite and >= 0.

    Returns one label per leaf. Clusters are numbered 1..m in order of
    their smallest member leaf number.
    """
    check_cut(height)
    k = dend.n_leaves
    # the leaves under each node not yet merged; heights are non-decreasing,
    # so merges at or below the cut form a prefix
    members = {leaf: [leaf] for leaf in range(k)}
    for node, m in enumerate(dend.merges, start=k):
        if m.height > height:
            break
        members[node] = members.pop(m.left) + members.pop(m.right)
    labels = [0] * k
    for label, group in enumerate(sorted(members.values(), key=min), start=1):
        for leaf in group:
            labels[leaf] = label
    return labels


def _newick_name(name: str) -> str:
    # Newick readers skip unquoted whitespace, of any kind
    if not name or any(ch.isspace() or ch in "()[]{}:;,='\"" for ch in name):
        return "'" + name.replace("'", "''") + "'"
    return name


def _check_finite_heights(dend: Dendrogram, export: str) -> None:
    if not np.isfinite([m.height for m in dend.merges]).all():
        raise ValueError(f"merge heights must be finite for {export} export")


def export_newick(dend: Dendrogram) -> str:
    """Newick text with ultrametric branch lengths.

    Node elevations are half the merge heights, so the tree distance
    between two leaves equals the height of their first common merge.

    Raises
    ------
    ValueError
        If a merge height is not finite: it has no Newick branch length.
    """
    _check_finite_heights(dend, "Newick")
    k = dend.n_leaves
    elevation = [0.0] * k + [m.height / 2.0 for m in dend.merges]
    # each node's text without its branch length, built in merge order:
    # children always merge before their parent, so no recursion is needed
    text = {leaf: _newick_name(name) for leaf, name in enumerate(dend.ids)}
    for node, m in enumerate(dend.merges, start=k):
        left, right = text.pop(m.left), text.pop(m.right)
        top = elevation[node]
        text[node] = (f"({left}:{top - elevation[m.left]!r},"
                      f"{right}:{top - elevation[m.right]!r})")
    (root,) = text.values()
    return f"{root};"


def merges_to_json(dend: Dendrogram) -> dict:
    """The ids and the merges as a JSON-ready document.

    Raises
    ------
    ValueError
        If a merge height is not finite: JSON has no infinity.
    """
    _check_finite_heights(dend, "JSON")
    return {"ids": list(dend.ids),
            "merges": [{"left": m.left, "right": m.right, "height": m.height}
                       for m in dend.merges]}


def clusters_to_csv(ids: list[str], labels: list[int]) -> str:
    """``player_id,cluster`` rows, one per id with its label.

    Raises
    ------
    ValueError
        If ``ids`` and ``labels`` differ in length.
    """
    if len(ids) != len(labels):
        raise ValueError(f"expected one label per id, got {len(labels)} for {len(ids)} ids")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([("player_id", "cluster"), *zip(ids, labels)])
    return buf.getvalue()
