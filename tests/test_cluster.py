"""Complete-linkage clustering, dendrogram cut, and Newick export."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pitchsim as ps
from pitchsim.errors import AsymmetricInput, NaNInput

from oracles import naive_complete_linkage, parse_newick
from rosters import (
    MASTER_SEED,
    N_PERM,
    default_grid,
    default_weights,
    five_player_roster,
    nine_player_roster,
)


@pytest.fixture(scope="module")
def five_matrix():
    g = default_grid()
    return ps.compute_matrix(five_player_roster(g), default_weights(g),
                             n_perm=N_PERM, master_seed=MASTER_SEED)


@pytest.fixture(scope="module")
def nine():
    g = default_grid()
    heatmaps, roles = nine_player_roster(g)
    m = ps.compute_matrix(heatmaps, default_weights(g),
                          n_perm=N_PERM, master_seed=MASTER_SEED)
    return m, roles


def _ids(k):
    """k player ids that sort in leaf order."""
    return [f"p{i:02d}" for i in range(k)]


def _random_distance(rng, k):
    d = rng.uniform(0.01, 1.0, (k, k))
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return d


def _linkage(m):
    return ps.complete_linkage(m.pseudo_distance, m.player_ids)


class TestFivePlayerTree:
    def test_merge_order_midfield_first_goalkeeper_last(self, five_matrix):
        p = five_matrix.pseudo_distance
        dend = _linkage(five_matrix)
        floor = 1 / (N_PERM + 1)
        # two saturated midfield merges, then the forward, then the keeper;
        # "fwd" sorts before every "mid_" id, so it joins on the left
        assert dend.merges[0] == ps.Merge(0, 1, floor)
        assert dend.merges[1] == ps.Merge(5, 2, floor)
        assert dend.merges[2][:2] == (3, 6)
        assert dend.merges[2].height == max(p[i, 3] for i in (0, 1, 2))
        assert dend.merges[3][:2] == (7, 4)
        assert dend.merges[3].height == max(p[i, 4] for i in range(4))

    def test_cut_at_default_height_separates_roles(self, five_matrix):
        dend = _linkage(five_matrix)
        assert ps.cut(dend, 1 / (N_PERM + 1)) == [1, 1, 1, 2, 3]

    def test_cut_between_merge_heights(self, five_matrix):
        dend = _linkage(five_matrix)
        mid = (dend.merges[2].height + dend.merges[3].height) / 2.0
        assert ps.cut(dend, mid) == [1, 1, 1, 1, 2]

    def test_newick_traversal_order_and_ultrametric_depths(self, five_matrix):
        dend = _linkage(five_matrix)
        names, tree = parse_newick(ps.export_newick(dend))
        assert names == ["fwd", "mid_a", "mid_b", "mid_c", "gk"]

        depths = {}

        def walk(node, acc):
            sub, length = node
            acc += length or 0.0
            if isinstance(sub, str):
                depths[sub] = acc
            else:
                for child in sub:
                    walk(child, acc)

        walk(tree, 0.0)
        for name, depth in depths.items():
            assert depth == pytest.approx(dend.merges[-1].height / 2.0, rel=1e-12), name


class TestNinePlayerTree:
    def test_cut_at_half_recovers_the_three_zones(self, nine):
        m, roles = nine
        labels = ps.cut(_linkage(m), 0.5)
        assert labels == [r + 1 for r in roles]


class TestCompleteLinkage:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(15)
        for k in range(2, 13):
            d = _random_distance(rng, k)
            dend = ps.complete_linkage(d, _ids(k))
            want = naive_complete_linkage(d, _ids(k))
            assert [(m.left, m.right) for m in dend.merges] == [w[:2] for w in want]
            for got, (_, _, h) in zip(dend.merges, want):
                assert got.height == h

    def test_matches_naive_reference_under_saturated_ties(self):
        rng = np.random.default_rng(16)
        levels = np.array([0.001, 0.5, 1.0])
        for _ in range(10):
            d = levels[rng.integers(0, 3, (8, 8))]
            d = np.maximum(d, d.T)
            np.fill_diagonal(d, 0.0)
            dend = ps.complete_linkage(d, _ids(8))
            want = naive_complete_linkage(d, _ids(8))
            assert [(m.left, m.right, m.height) for m in dend.merges] == want

    def test_matches_naive_reference_on_a_large_saturated_roster(self):
        # p-values at n_perm 99 piled on the floor, a few middle values and 1
        rng = np.random.default_rng(17)
        levels = np.array([0.01, 0.02, 0.05, 0.5, 1.0])
        d = levels[rng.choice(5, (120, 120), p=[0.3, 0.1, 0.1, 0.1, 0.4])]
        d = np.maximum(d, d.T)
        np.fill_diagonal(d, 0.01)
        dend = ps.complete_linkage(d, _ids(120))
        assert [(m.left, m.right, m.height) for m in dend.merges] == \
            naive_complete_linkage(d, _ids(120))

    def test_ids_must_be_one_distinct_id_per_leaf(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        for ids in (["a"], ["a", "b", "c"], []):
            with pytest.raises(ValueError, match=f"expected 2 ids, got {len(ids)}"):
                ps.complete_linkage(d, ids)
        with pytest.raises(ValueError, match="distinct"):
            ps.complete_linkage(d, ["a", "a"])

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            d = _random_distance(rng, 9)
            heights = [m.height for m in ps.complete_linkage(d, _ids(9)).merges]
            assert all(a <= b for a, b in zip(heights, heights[1:]))

    def test_leaf_relabeling_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = _random_distance(rng, 8)
            perm = rng.permutation(8)
            dp = d[np.ix_(perm, perm)]
            ids = _ids(8)
            base = ps.complete_linkage(d, ids)
            moved = ps.complete_linkage(dp, [ids[p] for p in perm])
            assert sorted(m.height for m in base.merges) == \
                sorted(m.height for m in moved.merges)
            h = float(np.median([m.height for m in base.merges]))
            want = _partition(ps.cut(base, h))
            got = _partition(ps.cut(moved, h), relabel=perm)
            assert got == want

    def test_single_leaf(self):
        dend = ps.complete_linkage(np.zeros((1, 1)), ["A"])
        assert dend.n_leaves == 1 and dend.merges == ()
        assert ps.cut(dend, 0.0) == [1]
        assert ps.export_newick(dend) == "A;"

    def test_two_leaves(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        dend = ps.complete_linkage(d, ["A", "B"])
        assert dend.merges == (ps.Merge(0, 1, 0.4),)

    def test_asymmetric_rejected(self):
        d = np.array([[0.0, 0.2], [0.3, 0.0]])
        with pytest.raises(AsymmetricInput):
            ps.complete_linkage(d, ["a", "b"])

    def test_nan_rejected(self):
        d = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(NaNInput):
            ps.complete_linkage(d, ["a", "b"])

    def test_negative_distance_rejected(self):
        d = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            ps.complete_linkage(d, ["a", "b"])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ps.complete_linkage(np.zeros((2, 3)), ["a", "b"])


def _merge_sets(dend, names):
    """Each merge as (left players, right players, height)."""
    members = [frozenset([name]) for name in names]
    out = []
    for m in dend.merges:
        members.append(members[m.left] | members[m.right])
        out.append((members[m.left], members[m.right], m.height))
    return out


class TestIdentityTieBreak:
    """Ties go by the leaves' ids, so the merges follow the players, not the
    order they are listed in."""

    # all equal, two levels, and p-values saturated at the floor
    LEVELS = [(0.5,), (0.001, 1.0), (0.001, 0.001, 0.001, 0.5, 1.0)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.sampled_from(LEVELS), st.integers(0, 2**32 - 1))
    def test_merges_ignore_the_leaf_order(self, k, levels, seed):
        rng = np.random.default_rng(seed)
        d = np.asarray(levels)[rng.integers(0, len(levels), (k, k))]
        d = np.maximum(d, d.T)
        np.fill_diagonal(d, 0.0)
        names = _ids(k)
        ids = [names[r] for r in rng.permutation(k)]
        perm = rng.permutation(k)
        dp, idp = d[np.ix_(perm, perm)], [ids[p] for p in perm]
        base, moved = ps.complete_linkage(d, ids), ps.complete_linkage(dp, idp)
        assert _merge_sets(base, ids) == _merge_sets(moved, idp)
        assert [(m.left, m.right, m.height) for m in moved.merges] == \
            naive_complete_linkage(dp, idp)


def _partition(labels, relabel=None):
    groups = {}
    for leaf, label in enumerate(labels):
        key = int(relabel[leaf]) if relabel is not None else leaf
        groups.setdefault(label, set()).add(key)
    return {frozenset(g) for g in groups.values()}


class TestCut:
    @pytest.fixture()
    def dend(self):
        rng = np.random.default_rng(20)
        return ps.complete_linkage(_random_distance(rng, 6), _ids(6))

    def test_zero_height_gives_singletons(self, dend):
        assert ps.cut(dend, 0.0) == [1, 2, 3, 4, 5, 6]

    def test_above_root_gives_one_cluster(self, dend):
        assert ps.cut(dend, dend.merges[-1].height + 1.0) == [1] * 6

    def test_cut_is_inclusive_at_merge_heights(self, dend):
        assert ps.cut(dend, dend.merges[-1].height) == [1] * 6
        first = dend.merges[0]
        labels = ps.cut(dend, first.height)
        assert labels[first.left] == labels[first.right]

    def test_labels_ordered_by_smallest_member(self, dend):
        for h in (0.0, dend.merges[1].height, dend.merges[-1].height):
            labels = ps.cut(dend, h)
            firsts = {}
            for leaf, label in enumerate(labels):
                firsts.setdefault(label, leaf)
            assert list(firsts) == sorted(firsts)
            assert sorted(firsts.values()) == list(firsts.values())

    def test_negative_height_rejected(self, dend):
        with pytest.raises(ValueError, match=">= 0"):
            ps.cut(dend, -0.5)

    def test_nan_height_rejected(self, dend):
        with pytest.raises(ValueError, match=">= 0, got nan"):
            ps.cut(dend, float("nan"))


class TestNewick:
    def test_two_leaf_shape(self):
        dend = ps.complete_linkage(np.array([[0.0, 0.5], [0.5, 0.0]]), ["A", "B"])
        assert ps.export_newick(dend) == "(A:0.25,B:0.25);"

    def test_quoting_of_unsafe_ids(self):
        ids = ["goal keeper", "it's:odd(1)"]
        dend = ps.complete_linkage(np.array([[0.0, 0.5], [0.5, 0.0]]), ids)
        names, _ = parse_newick(ps.export_newick(dend))
        assert names == ids

    def test_round_trip_preserves_branch_lengths(self):
        rng = np.random.default_rng(21)
        d = _random_distance(rng, 7)
        dend = ps.complete_linkage(d, _ids(7))
        names, tree = parse_newick(ps.export_newick(dend))
        assert sorted(names) == _ids(7)

        total = []

        def walk(node, acc):
            sub, length = node
            acc += length or 0.0
            if isinstance(sub, str):
                total.append(acc)
            else:
                for child in sub:
                    walk(child, acc)

        walk(tree, 0.0)
        # ultrametric: every leaf sits at half the root merge height
        assert all(math.isclose(t, dend.merges[-1].height / 2.0, rel_tol=1e-12)
                   for t in total)

    def test_deep_chain_does_not_recurse(self):
        # each merge adds one leaf to the previous cluster: 4,999 levels deep
        k = 5000
        merges = [ps.Merge(0, 1, 1.0)] + [ps.Merge(k + t - 1, t + 1, 1.0)
                                          for t in range(1, k - 1)]
        dend = ps.Dendrogram([f"p{i}" for i in range(k)], tuple(merges))
        want = ("(" * (k - 1) + "p0:0.5,p1:0.5)"
                + "".join(f":0.0,p{i}:0.5)" for i in range(2, k)) + ";")
        assert ps.export_newick(dend) == want


class TestDendrogramValidation:
    def test_ids_are_kept_as_a_tuple_and_count_the_leaves(self):
        dend = ps.Dendrogram(["a", "b"], (ps.Merge(0, 1, 0.1),))
        assert dend.ids == ("a", "b") and dend.n_leaves == 2

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ps.Dendrogram(("a", "a"), (ps.Merge(0, 1, 0.1),))

    def test_wrong_merge_count_rejected(self):
        with pytest.raises(ValueError, match="merges"):
            ps.Dendrogram(("a", "b", "c"), (ps.Merge(0, 1, 0.1),))

    def test_decreasing_heights_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ps.Dendrogram(("a", "b", "c"),
                          (ps.Merge(0, 1, 0.5), ps.Merge(3, 2, 0.2)))

    def test_invalid_child_rejected(self):
        with pytest.raises(ValueError, match="invalid node"):
            ps.Dendrogram(("a", "b", "c"),
                          (ps.Merge(0, 4, 0.1), ps.Merge(3, 2, 0.2)))

    def test_reused_child_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            ps.Dendrogram(("a", "b", "c"),
                          (ps.Merge(0, 1, 0.1), ps.Merge(0, 2, 0.2)))


class TestSerialization:
    def test_merges_json_structure(self, five_matrix):
        doc = ps.merges_to_json(_linkage(five_matrix))
        assert doc["ids"] == list(five_matrix.player_ids)
        assert len(doc["merges"]) == 4
        assert doc["merges"][0] == {"left": 0, "right": 1, "height": 1 / (N_PERM + 1)}

    def test_clusters_csv_text(self):
        text = ps.clusters_to_csv(["a", "b", "c"], [1, 1, 2])
        assert text == "player_id,cluster\na,1\nb,1\nc,2\n"
