import logging
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semloc.graph
import semloc.matching
from semloc import (
    BoundingBox,
    CameraIntrinsics,
    DetectionRecord,
    PriorObjectNode,
    SemanticGraph,
    accumulate_label_frequencies,
    build_knn_edges,
    build_query_graph,
    normalize_confidences,
    prior_graph_from_nodes,
    score_all_pairs,
    top_k_labels,
)
from semloc.cli import _accumulate_map
from semloc.dataio import FrameRecord
from semloc.graph import backproject_pixel, pairwise_distances, robust_bbox_depth

from conftest import clustered_nodes, edge_ids, graph, knn_graph, make_table, prior_node, query_node
from oracles import dense_edge_arrays, knn_oracle, neighbors_of, node_of, serial_build_query_graph

INTR = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def edge_set(g):
    return {tuple(e) for e in g.edges.tolist()}


def oracle_edges(g, keyframes, k_edge):
    """The union of each keyframe's `knn_oracle` edges, as (lower, higher) node-index pairs."""
    expected = set()
    for members in keyframes:
        rows = sorted(set(members))
        expected |= {tuple(sorted((rows[a], rows[b]))) for a, b in knn_oracle(g.positions[rows], k_edge)}
    return expected


def walk_spy(nodes, keyframes, k_edge, prefix):
    """The prior graph built with `prefix` neighbours walked before the
    fallback, and the count of pairs each `_walk` call was given."""
    walked = []
    walk = semloc.graph._walk

    def spy(dist, member, need, pairs, length, edges):
        walked.append(len(pairs[0]))
        return walk(dist, member, need, pairs, length, edges)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semloc.graph, "_PREFIX", prefix)
        mp.setattr(semloc.graph, "_walk", spy)
        g = prior_graph_from_nodes(nodes, keyframes, k_edge=k_edge)
    assert len(walked) == 2
    return g, walked


# ---------------------------------------------------------------------------
# frequency tables


class TestLabelFrequencyTable:
    def test_exact_rationals(self):
        table = make_table({"a": 3, "b": 1}, total=4)
        assert table.per_label_counts["a"] / table.total_detections == 0.75
        assert table.per_label_counts["b"] / table.total_detections == 0.25
        assert "missing" not in table.per_label_counts
        assert list(table.per_label_counts) == ["a", "b"]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            make_table({"a": 5}, total=4)
        with pytest.raises(ValueError):
            make_table({"a": 0}, total=4)
        with pytest.raises(ValueError):
            make_table({}, total=0)

    def test_accumulate(self):
        table = accumulate_label_frequencies([{"a"}, {"a", "b"}, {"b"}])
        assert table.total_detections == 3
        assert table.per_label_counts == {"a": 2, "b": 2}

    def test_accumulate_ignores_multiplicity(self):
        # a label repeated within one detection still counts once
        table = accumulate_label_frequencies([["a", "a", "b"]])
        assert table.total_detections == 1
        assert table.per_label_counts == {"a": 1, "b": 1}

    def test_accumulate_empty_raises(self):
        with pytest.raises(ValueError, match="no detections"):
            accumulate_label_frequencies([])


# ---------------------------------------------------------------------------
# confidences


class TestConfidences:
    def test_top_k_order_and_cut(self):
        raw = [("a", 0.2), ("b", 0.5), ("c", 0.3)]
        assert top_k_labels(raw, 2) == [("b", 0.5), ("c", 0.3)]

    def test_top_k_tie_breaks_by_label(self):
        raw = [("z", 0.4), ("a", 0.4), ("m", 0.2)]
        assert top_k_labels(raw, 2) == [("a", 0.4), ("z", 0.4)]

    def test_top_k_dedupes_by_max(self):
        raw = [("a", 0.1), ("a", 0.7), ("b", 0.3)]
        assert top_k_labels(raw, 3) == [("a", 0.7), ("b", 0.3)]

    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_labels([("a", 1.0)], 0)

    def test_normalize(self):
        conf = normalize_confidences([("a", 0.5), ("b", 0.3), ("c", 0.2)], k=2)
        assert [l for l, _ in conf] == ["a", "b"]
        scores = dict(conf)
        assert scores["a"] == pytest.approx(0.625, abs=1e-12)
        assert scores["b"] == pytest.approx(0.375, abs=1e-12)

    def test_normalize_short_input(self):
        conf = normalize_confidences([("a", 2.0)], k=5)
        assert conf == [("a", 1.0)]

    def test_normalize_degenerate_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            normalize_confidences([("a", 0.0), ("b", 0.0)], k=2)

    def test_normalize_overflowing_sum_raises(self):
        # each score is finite, but their sum is not
        with pytest.raises(ValueError, match="degenerate"):
            normalize_confidences([("a", 1e308), ("b", 1e308)], k=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_normalize_rejects_non_finite_and_negative(self, bad):
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            normalize_confidences([("a", bad), ("b", 0.5)], k=5)
        # a bad score is rejected even when the top-k cut would drop it
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            normalize_confidences([("b", 0.5), ("c", 0.4), ("a", bad)], k=1)

    @pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True), [0.5]])
    def test_normalize_rejects_non_real_and_bool(self, bad):
        with pytest.raises(ValueError, match="not a real number"):
            normalize_confidences([("a", bad)], k=5)
        with pytest.raises(ValueError, match="not a real number"):
            normalize_confidences([("b", 0.5), ("c", 0.4), ("a", bad)], k=1)

    @pytest.mark.parametrize("score", [2, 0.25, np.float32(0.5), np.int64(3), 0.0])
    def test_top_k_one_label_is_the_general_path(self, score):
        # the one-label list skips the merge and the sort, not what they give
        assert top_k_labels([("a", score)], 3) == [("a", float(score))]
        assert type(top_k_labels([("a", score)], 1)[0][1]) is float
        assert top_k_labels([("a", score), ("a", score)], 3) == [("a", float(score))]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_normalize_sums_to_one(self, seed):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 8))
        raw = [(f"l{i}", float(r.random() + 1e-6)) for i in range(n)]
        conf = normalize_confidences(raw, k=int(r.integers(1, 6)))
        assert sum(s for _, s in conf) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= s <= 1.0 for _, s in conf)


# ---------------------------------------------------------------------------
# k-NN edges


class TestKnnEdges:
    def test_tie_break_prefers_lower_id(self):
        # node 0 is equidistant to 1 and 3; each satellite has a closer buddy
        # so the union cannot reintroduce the losing edge
        pos = {
            0: (0.0, 0.0, 0.0),
            1: (10.0, 0.0, 0.0),
            4: (10.1, 0.0, 0.0),
            3: (-10.0, 0.0, 0.0),
            5: (-10.1, 0.0, 0.0),
        }
        ids = sorted(pos)
        pairs = build_knn_edges(np.array([pos[i] for i in ids]), 1)
        assert [(ids[a], ids[b]) for a, b in pairs] == [(0, 1), (1, 4), (3, 5), (4, 1), (5, 3)]

    def test_small_graph(self):
        for n in (0, 1):
            pairs = build_knn_edges(np.zeros((n, 3)), 2)
            assert pairs.shape == (0, 2) and pairs.dtype == int

    def test_rejects_bad_args(self):
        for k_edge in (0, -1):
            with pytest.raises(ValueError, match="k_edge must be positive"):
                build_knn_edges(np.zeros((2, 3)), k_edge)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, seed, k):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 12))
        # grid coordinates force coincident points and exact distance ties
        positions = r.integers(0, 3, size=(n, 3)).astype(float)
        pairs = build_knn_edges(positions, k)
        assert pairs.shape == (n * min(k, n - 1), 2)
        assert pairs.tolist() == knn_oracle(positions, k)


# ---------------------------------------------------------------------------
# semantic graphs


class TestPriorObjectNode:
    @pytest.mark.parametrize("field", ["position", "rotation", "scale"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        values = dict(
            id=1,
            position=np.zeros(3),
            rotation=np.array([1.0, 0.0, 0.0, 0.0]),
            scale=np.full(3, 0.1),
            frequencies=make_table({"a": 1}),
        )
        values[field] = values[field].copy()
        values[field][1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            PriorObjectNode(**values)

    @pytest.mark.parametrize("scale", [1e200, 2e154])
    def test_rejects_scale_whose_square_overflows(self, scale):
        with pytest.raises(ValueError, match="scale squared must be finite"):
            PriorObjectNode(1, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]), [0.1, scale, 0.1], make_table({"a": 1}))


class TestSemanticGraph:
    def test_validation(self):
        a = prior_node(1, (0, 0, 0), {"a": 1})
        c = prior_node(2, (1, 0, 0), {"a": 1})
        # a repeated id and ids out of order break the one invariant
        for nodes in ([a, prior_node(1, (1, 0, 0), {"a": 1})], [c, a]):
            with pytest.raises(ValueError, match="node ids not strictly increasing"):
                SemanticGraph(nodes, [])
        with pytest.raises(ValueError, match="self edge"):
            SemanticGraph([a, c], [(0, 1), (1, 1)])
        for bad in ([(0, 2)], [(-1, 0)], [(0, 1), (5, 0)]):
            with pytest.raises(ValueError, match="unknown node"):
                SemanticGraph([a, c], bad)

    def test_repeated_and_reversed_pairs_are_one_edge(self):
        nodes = [prior_node(i, (i, 0, 0), {"a": 1}) for i in (1, 3, 5)]
        g = SemanticGraph(nodes, [(2, 0), (0, 2), (2, 0), (1, 0), (1, 0)])
        assert g.edges.tolist() == [[0, 1], [0, 2]]
        assert len(g.edges) == g.edge_root.size // 2 == 2
        assert g.degree.tolist() == [2, 1, 1]
        # node 1's neighbors in index order, which is id order: 3, then 5
        assert list(zip(g.edge_root.tolist(), g.edge_nbr.tolist())) == [(0, 1), (0, 2), (1, 0), (2, 0)]

    def test_accessors(self):
        nodes = [prior_node(i, (i, 0, 0), {"a": 1}) for i in (5, 1, 3)]
        g = graph(nodes, [(1, 5), (3, 5)])
        assert g.ids == [1, 3, 5]
        # node 5's neighbors, in id order
        assert [g.ids[j] for j in g.edge_nbr[g.edge_root == 2]] == [1, 3]
        # rows and columns in node order: 1, 3, 5
        want = [[False, False, True], [False, False, True], [True, True, False]]
        assert g.adjacency.tolist() == want
        np.testing.assert_allclose(g.positions[2], [5.0, 0.0, 0.0])
        assert len(g) == 3


class TestEdgeArrays:
    @staticmethod
    def _adjacency(g):
        """Sorted neighbor ids per node id, read off the undirected edges."""
        adjacency = {nid: [] for nid in g.ids}
        for a, b in edge_ids(g):
            adjacency[a].append(b)
            adjacency[b].append(a)
        return {nid: sorted(nbrs) for nid, nbrs in adjacency.items()}

    @classmethod
    def _expected(cls, g):
        """(root index, neighbor index, slot) per directed edge, from the undirected edges."""
        index = {nid: i for i, nid in enumerate(g.ids)}
        adjacency = cls._adjacency(g)
        return [
            (i, index[n], slot)
            for i, nid in enumerate(g.ids)
            for slot, n in enumerate(adjacency[nid])
        ]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_match_neighbors_and_positions(self, seed, n, k_edge):
        r = np.random.default_rng(seed)
        ids = [int(i) for i in r.permutation(40)[:n]]
        nodes = [prior_node(i, r.uniform(-3, 3, 3), {"a": 1}) for i in ids]
        knn = sorted(edge_ids(knn_graph(nodes, k_edge)))
        g = graph(nodes, [e for e in knn if r.random() < 0.6])
        assert g.ids == sorted(ids)
        expected = self._expected(g)
        assert list(zip(g.edge_root, g.edge_nbr, g.edge_slot)) == expected
        assert {i: neighbors_of(g, i) for i in ids} == self._adjacency(g)
        np.testing.assert_array_equal(g.degree, [len(neighbors_of(g, i)) for i in g.ids])
        assert g.max_degree == max(len(neighbors_of(g, i)) for i in ids)
        assert g.edge_root.size == 2 * len(g.edges)
        pos = g.positions
        for root, nbr, length in zip(g.edge_root, g.edge_nbr, g.edge_length):
            assert length == pytest.approx(np.linalg.norm(pos[nbr] - pos[root]), abs=1e-12)
        # each edge's reverse, and over a node's own run the edges into it, by root
        rev = g.edge_reverse
        assert list(zip(g.edge_root[rev], g.edge_nbr[rev])) == list(zip(g.edge_nbr, g.edge_root))
        start = np.cumsum(g.degree) - g.degree
        for i in range(n):
            into = rev[start[i] : start[i] + g.degree[i]].tolist()
            assert into == [e for e, (_, nbr, _) in enumerate(expected) if nbr == i]

    @given(n=st.integers(0, 12), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_match_the_dense_derivation(self, n, data):
        # repeated and reversed pairs, and nodes on no edge
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
        pairs = data.draw(st.lists(edge, max_size=40)) if n >= 2 else []
        g = SemanticGraph([prior_node(i, (i, 0.5 * i * i, 0), {"a": 1}) for i in range(n)], pairs)
        for name, want in dense_edge_arrays(n, pairs).items():
            got = getattr(g, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_without_edges(self, n):
        g = SemanticGraph([prior_node(i, (i, 0, 0), {"a": 1}) for i in range(n)], [])
        for arr in (g.edge_root, g.edge_nbr, g.edge_slot, g.edge_length, g.edge_reverse):
            assert arr.shape == (0,)
        assert g.edges.shape == (0, 2)
        np.testing.assert_array_equal(g.degree, np.zeros(n, dtype=int))
        assert g.max_degree == 0

    def test_pickle_round_trip(self):
        nodes = [prior_node(i, (i, 0.5 * i * i, 0), {"a": 1}) for i in (5, 1, 3, 7)]
        g = graph(nodes, [(1, 5), (3, 5), (1, 3)])  # 7 is isolated
        h = pickle.loads(pickle.dumps(g))
        for name in ("edges", "edge_root", "edge_nbr", "edge_slot", "edge_length", "edge_reverse", "degree"):
            a, b = getattr(g, name), getattr(h, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert h.max_degree == g.max_degree == 2
        assert list(zip(h.edge_root, h.edge_nbr, h.edge_slot)) == self._expected(h)


class TestPriorGraphBuilders:
    def test_keyframe_union_limits_edges(self):
        # two spatially interleaved keyframes; per-keyframe k-NN must not
        # connect landmarks that never co-occur
        nodes = [
            prior_node(0, (0.0, 0.0, 0.0), {"a": 1}),
            prior_node(1, (1.0, 0.0, 0.0), {"a": 1}),
            prior_node(2, (0.5, 0.0, 0.0), {"a": 1}),
            prior_node(3, (1.5, 0.0, 0.0), {"a": 1}),
        ]
        g = prior_graph_from_nodes(nodes, [[0, 1], [2, 3]], k_edge=2)
        assert edge_ids(g) == {(0, 1), (2, 3)}
        positions = np.stack([node.position for node in nodes])
        assert [0, 2] in build_knn_edges(positions, 2).tolist()

    def test_empty_keyframes_fall_back_to_global(self):
        nodes = [prior_node(i, (float(i), 0, 0), {"a": 1}) for i in range(3)]
        g = prior_graph_from_nodes(nodes, [], k_edge=1)
        assert edge_ids(g) == {(0, 1), (1, 2)}

    @given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_no_keyframes_is_one_keyframe_of_every_landmark(self, seed, n, k_edge):
        r = np.random.default_rng(seed)
        ids = [int(i) for i in r.permutation(40)[:n]]
        # grid positions force distance ties
        nodes = [prior_node(i, r.integers(0, 3, 3).astype(float), {"a": 1}) for i in ids]
        a = prior_graph_from_nodes(nodes, [], k_edge=k_edge)
        b = prior_graph_from_nodes(nodes, [ids], k_edge=k_edge)
        for name in ("edges", "edge_root", "edge_nbr", "edge_slot", "edge_length", "edge_reverse", "degree"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_shuffled_nodes_give_the_same_graph(self, seed, k_edge):
        # ties go to the lower id whatever the order of the node list
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 12))
        ids = sorted(int(i) for i in r.permutation(40)[:n])
        # grid positions force coincident points and distance ties; one label
        # set for all keeps the likelihood's sum order fixed
        nodes = [
            prior_node(i, r.integers(0, 3, 3).astype(float), {"a": int(r.integers(1, 4)), "b": 1}, 4)
            for i in ids
        ]
        keyframes = [[i for i in ids if r.random() < 0.7] for _ in range(3)]
        shuffled = [nodes[i] for i in r.permutation(n)]
        a = prior_graph_from_nodes(nodes, keyframes, k_edge=k_edge)
        b = prior_graph_from_nodes(shuffled, keyframes, k_edge=k_edge)
        assert a.ids == b.ids == ids
        assert a.edges.tolist() == b.edges.tolist()
        query = knn_graph(
            [query_node(j, r.uniform(-1, 1, 3) + [0, 0, 4], {"a": 0.6, "b": 0.4}) for j in range(5)], 2
        )
        for use_calp in (False, True):  # the likelihood alone, then with context
            ta, tb = score_all_pairs(a, query, use_calp), score_all_pairs(b, query, use_calp)
            assert ta.similarity.tobytes() == tb.similarity.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_one_distance_table_per_build(self, seed, k_edge):
        # the graph keeps the table its k-NN edges were read from, with the bits
        # of a table built on its own; each keyframe's edges are those of its landmarks alone
        r = np.random.default_rng(seed)
        n = int(r.integers(0, 15))
        nodes = [prior_node(i, r.integers(0, 3, 3).astype(float), {"a": 1}) for i in range(n)]
        keyframes = [[i for i in range(n) if r.random() < 0.6] for _ in range(3)]
        g = prior_graph_from_nodes(nodes, keyframes, k_edge=k_edge)
        assert g.distances.tobytes() == pairwise_distances(g.positions).tobytes()
        pos = g.positions
        expected = set()
        for members in keyframes:
            rows = np.array(sorted(members), dtype=int)
            expected |= {tuple(sorted(e)) for e in rows[build_knn_edges(pos[rows], k_edge)].tolist()}
        assert {tuple(e) for e in g.edges.tolist()} == expected

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([1, 24]))
    @settings(max_examples=40, deadline=None)
    def test_walk_matches_the_oracle(self, seed, k_edge, prefix):
        # keyframes of 0 to n landmarks, among them 1 and 2 and a repeated
        # member; k_edge is often at least a keyframe's size. A prefix of one
        # neighbour sends every pair that needs two or more to the full order.
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 25))
        nodes = [prior_node(i, r.integers(0, 3, 3).astype(float), {"a": 1}) for i in range(n)]
        sizes = [1, 2, *r.integers(0, n + 1, 6).tolist()]
        keyframes = [r.choice(n, size, replace=False).tolist() for size in sizes]
        keyframes[1] += keyframes[1][:1]
        g, walked = walk_spy(nodes, keyframes, k_edge, prefix)
        if prefix == 1:
            needs = [min(k_edge, len(set(m)) - 1) for m in keyframes for _ in m]
            assert walked[1] >= sum(need >= 2 for need in needs)
        assert edge_set(g) == oracle_edges(g, keyframes, k_edge)

    def test_sparse_map_falls_back_at_keyframe_edges(self):
        # 306 landmarks on a 2 m grid, keyframes of those within 4 m of a 3 m
        # grid: a member at a keyframe's rim has most of its nearest
        # neighbours outside it, so some pairs walk past the prefix
        xy = np.stack(np.meshgrid(np.arange(17) * 2.0, np.arange(18) * 2.0, indexing="ij"), -1).reshape(-1, 2)
        nodes = [prior_node(i, (x, y, 0.0), {"a": 1}) for i, (x, y) in enumerate(xy.tolist())]
        keyframes = [
            np.flatnonzero(np.hypot(*(xy - (cx, cy)).T) <= 4.0).tolist()
            for cx in np.arange(0.0, 34.0, 3.0)
            for cy in np.arange(0.0, 36.0, 3.0)
        ]
        g, walked = walk_spy(nodes, keyframes, 8, semloc.graph._PREFIX)
        assert walked[1] > 0
        assert edge_set(g) == oracle_edges(g, keyframes, 8)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_keyframe_and_member_order_do_not_matter(self, seed, k_edge):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 30))
        ids = [int(i) for i in r.permutation(60)[:n]]
        nodes = [prior_node(i, r.integers(0, 3, 3).astype(float), {"a": 1}) for i in ids]
        keyframes = [[i for i in ids if r.random() < 0.5] for _ in range(5)]
        shuffled = [[m[j] for j in r.permutation(len(m))] for m in (keyframes[j] for j in r.permutation(5))]
        a = prior_graph_from_nodes(nodes, keyframes, k_edge=k_edge)
        b = prior_graph_from_nodes(nodes, shuffled, k_edge=k_edge)
        assert a.edges.dtype == b.edges.dtype and a.edges.tobytes() == b.edges.tobytes()

    def test_unknown_keyframe_member_raises(self):
        nodes = [prior_node(0, (0, 0, 0), {"a": 1}), prior_node(20, (1, 0, 0), {"a": 1})]
        with pytest.raises(ValueError, match="unknown landmark 9$"):
            prior_graph_from_nodes(nodes, [[0, 9]], k_edge=1)
        # the first unknown id in keyframe order, not the least
        with pytest.raises(ValueError, match="unknown landmark 12$"):
            prior_graph_from_nodes(nodes, [[0, 20], [20, 12, 0, 9], [5]], k_edge=1)
        with pytest.raises(ValueError, match="unknown landmark 3$"):
            prior_graph_from_nodes([], [[3]], k_edge=1)

    def test_build_prior_graph_accumulates(self):
        # the map is accumulated from keyframe detections, then wired
        geometry = {"rotation": np.array([1.0, 0.0, 0.0, 0.0]), "scale": np.array([0.1, 0.1, 0.1])}
        landmarks = [
            {"id": 4, "position": np.zeros(3), **geometry},
            {"id": 5, "position": np.ones(3), **geometry},
        ]

        def det(*labels):
            return DetectionRecord(BoundingBox(0.0, 0.0, 10.0, 10.0), [(l, 0.5) for l in labels])

        frames = [
            FrameRecord(0, 0.0, [det("cup"), det("mug")]),
            FrameRecord(1, 0.1, [det("cup", "mug")]),
        ]
        nodes, keyframes = _accumulate_map(landmarks, frames, {0: {0: 4, 1: 5}, 1: {0: 4}}, k=5)
        assert keyframes == [[4, 5], [4]]
        g = prior_graph_from_nodes(nodes, keyframes, k_edge=1)
        assert node_of(g, 4).frequencies.total_detections == 2
        assert node_of(g, 4).frequencies.per_label_counts == {"cup": 2, "mug": 1}
        assert node_of(g, 5).frequencies.total_detections == 1
        assert node_of(g, 5).frequencies.per_label_counts == {"mug": 1}
        assert edge_ids(g) == {(4, 5)}


class TestLikelihoodBlocks:
    def test_hand_value(self):
        # landmarks 1-4 form one component through detection 1, which bridges
        # the a-b and c clusters; 6 and 7 another; landmark 5 no detection
        # supports, and detection 3's one label the map never saw
        p_nodes = [
            prior_node(1, (0, 0, 0), {"a": 1}),
            prior_node(2, (1, 0, 0), {"a": 1, "b": 1}),
            prior_node(3, (2, 0, 0), {"c": 1}),
            prior_node(4, (3, 0, 0), {"c": 1}),
            prior_node(5, (4, 0, 0), {"e": 1}),
            prior_node(6, (5, 0, 0), {"f": 1}),
            prior_node(7, (6, 0, 0), {"f": 1}),
        ]
        q_nodes = [
            query_node(0, (0, 0, 5), {"a": 1.0}),
            query_node(1, (1, 0, 5), {"b": 0.5, "c": 0.5}),
            query_node(2, (2, 0, 5), {"c": 1.0}),
            query_node(3, (3, 0, 5), {"unmapped": 1.0}),
            query_node(4, (4, 0, 5), {"f": 1.0}),
        ]
        pg = graph(p_nodes, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        qg = graph(q_nodes, [(0, 1), (1, 2), (2, 3), (3, 4)])
        like = score_all_pairs(pg, qg, use_calp=False).similarity
        # prior edges 6 (4 -> 5) and 9 (6 -> 5) run into landmark 5, query
        # edges 4 (2 -> 3) and 7 (4 -> 3) into detection 3: they are in no
        # block, and no joined pair reaches them
        assert pg.edge_nbr[[6, 9]].tolist() == [4, 4] and qg.edge_nbr[[4, 7]].tolist() == [3, 3]
        assert pg.edge_reverse.tolist() == [1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10]
        assert qg.edge_reverse.tolist() == [1, 0, 3, 2, 5, 4, 7, 6]
        # both components are small: every positive likelihood is joined, row-major
        blocks, (n, m) = semloc.matching._components(pg, qg, like)
        assert blocks == []
        assert list(zip(n.tolist(), m.tolist())) == [
            (0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (5, 4), (6, 4)
        ]
        # a block per component when every component is large enough
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semloc.matching, "_BLOCK_ELEMS", 1)
            blocks, (n, m) = semloc.matching._components(pg, qg, like)
        assert [(q.tolist(), p.tolist()) for q, p in blocks] == [
            ([0, 1, 2, 3, 5], [0, 1, 2, 3, 4, 5, 7]),
            ([6], [8, 10, 11]),
        ]
        assert n.size == m.size == 0
        # at 35 products, the first component's rectangle is a block and the second is joined
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semloc.matching, "_BLOCK_ELEMS", 35)
            blocks, (n, m) = semloc.matching._components(pg, qg, like)
        assert [(q.tolist(), p.tolist()) for q, p in blocks] == [([0, 1, 2, 3, 5], [0, 1, 2, 3, 4, 5, 7])]
        assert list(zip(n.tolist(), m.tolist())) == [(5, 4), (6, 4)]

    @pytest.mark.parametrize("seed", range(4))
    def test_reversed_map_gives_the_same_similarity(self, seed):
        r = np.random.default_rng(seed)
        p_nodes, q_nodes = clustered_nodes(r, 40, 20, bridges=1)
        keyframes = [[node.id for node in p_nodes if r.random() < 0.7] for _ in range(3)]
        a = prior_graph_from_nodes(p_nodes, keyframes, k_edge=4)
        b = prior_graph_from_nodes(p_nodes[::-1], keyframes, k_edge=4)
        query = knn_graph(q_nodes, 4)
        assert score_all_pairs(a, query).similarity.tobytes() == score_all_pairs(b, query).similarity.tobytes()


# ---------------------------------------------------------------------------
# depth and query graphs


class TestRobustDepth:
    def test_constant_patch(self):
        depth = np.full((480, 640), 2.5)
        assert robust_bbox_depth(depth, BoundingBox(100, 100, 140, 140)) == 2.5

    def test_ignores_pixels_outside_central_subbox(self):
        depth = np.full((480, 640), 3.0)
        box = BoundingBox(0.0, 0.0, 20.0, 20.0)
        # central sqrt(0.5)-scaled sub-box spans [2, 18); poison the border
        depth[:2, :] = np.inf
        depth[:, :2] = np.inf
        depth[19:21, :] = -5.0
        assert robust_bbox_depth(depth, box) == 3.0

    def test_filters_invalid_and_takes_median(self):
        depth = np.full((40, 40), np.nan)
        depth[10:20, 10:20] = 4.0
        depth[12, 12] = -1.0
        depth[13, 13] = np.inf
        assert robust_bbox_depth(depth, BoundingBox(8.0, 8.0, 22.0, 22.0)) == 4.0

    def test_all_invalid_is_none(self):
        depth = np.zeros((40, 40))
        assert robust_bbox_depth(depth, BoundingBox(5.0, 5.0, 15.0, 15.0)) is None

    def test_backproject(self):
        p = backproject_pixel([420.0, 340.0], 2.0, INTR)
        np.testing.assert_allclose(p, [2.0, 2.0, 2.0])


class TestQueryGraphBuilder:
    def _det(self, x=100.0, labels=(("cup", 0.8), ("mug", 0.2)), position=(0.0, 0.0, 2.0)):
        return DetectionRecord(
            BoundingBox(x, 100.0, x + 40.0, 140.0),
            list(labels),
            None if position is None else np.asarray(position, dtype=float),
        )

    def test_ids_are_detection_indices(self):
        dets = [self._det(100.0), self._det(200.0), self._det(300.0)]
        g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert g.ids == [0, 1, 2]
        assert g.nodes[1].confidences == [("cup", 0.8), ("mug", 0.2)]

    def test_dropped_detection_leaves_gap(self, caplog):
        dets = [self._det(100.0), self._det(labels=(("cup", 0.0),)), self._det(300.0)]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert g.ids == [0, 2]
        assert "detection 1 dropped" in caplog.text

    def test_box_outside_image_dropped(self, caplog):
        dets = [self._det(100.0), self._det(900.0), self._det(300.0)]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert g.ids == [0, 2]
        assert "box outside image" in caplog.text

    def test_no_depth_source_dropped(self, caplog):
        dets = [self._det(position=None)]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert len(g) == 0
        assert "no depth source" in caplog.text

    def test_depth_map_backprojection(self):
        depth = np.full((480, 640), 2.0)
        det = self._det(position=None)
        g = build_query_graph([det], k=2, k_edge=2, depth=depth, intrinsics=INTR)
        assert len(g) == 1
        box = det.bbox
        expected = backproject_pixel(box.center, 2.0, INTR)
        np.testing.assert_allclose(g.nodes[0].position, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_dropped(self, bad, caplog):
        dets = [
            self._det(100.0, position=(0.0, 0.0, 2.0)),
            self._det(150.0, position=(bad, 0.0, 2.0)),
            self._det(200.0, position=(0.2, 0.0, 2.0)),
            self._det(250.0, position=(0.3, 0.0, 2.0)),
        ]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=3, intrinsics=INTR)
        assert g.ids == [0, 2, 3]
        assert all(1 not in edge for edge in edge_ids(g))
        assert "detection 1 dropped: non-finite position" in caplog.text

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, "0.5", None, True])
    def test_bad_label_score_dropped(self, bad, caplog):
        dets = [self._det(100.0), self._det(labels=(("cup", bad), ("mug", 0.5))), self._det(300.0)]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert g.ids == [0, 2]
        assert "detection 1 dropped: score" in caplog.text

    def test_nonpositive_depth_dropped(self, caplog):
        dets = [self._det(position=(0.0, 0.0, -1.0))]
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=2, k_edge=2, intrinsics=INTR)
        assert len(g) == 0
        assert "nonpositive depth" in caplog.text

    def test_edges_use_knn(self):
        dets = [
            self._det(100.0, position=(0.0, 0.0, 2.0)),
            self._det(150.0, position=(0.1, 0.0, 2.0)),
            self._det(500.0, position=(5.0, 0.0, 2.0)),
        ]
        g = build_query_graph(dets, k=2, k_edge=1, intrinsics=INTR)
        assert edge_ids(g) == {(0, 1), (1, 2)}
        assert g.distances.tobytes() == pairwise_distances(g.positions).tobytes()

    @staticmethod
    def _mostly(good, *bad):
        """Draws from `good` about three times in four, else one of the bad values
        (None among them: a missing position, a score that is no number)."""
        return st.integers(0, 4 * len(bad) - 1).flatmap(lambda i: st.just(bad[i]) if i < len(bad) else good)

    # 0.5 repeats a score, within a list and across detections
    _SCORE = _mostly(st.floats(0.01, 1.0), 0.5, 0.0, math.nan, math.inf, -math.inf, -1.0, 1e308, "0.5", None, True)
    _COORD = _mostly(st.floats(-5.0, 5.0), math.nan, math.inf, -math.inf, 1e154, -1e200)
    _DETECTIONS = st.lists(
        st.builds(
            lambda x, y, w, h, labels, position: DetectionRecord(
                BoundingBox(x, y, x + w, y + h),
                labels,
                None if position is None else np.array(position),
            ),
            st.floats(-100.0, 700.0),
            st.floats(-100.0, 500.0),
            st.floats(0.5, 300.0),
            st.floats(0.5, 300.0),
            _mostly(
                st.lists(st.tuples(st.sampled_from(["cup", "mug", "tv"]), _SCORE), min_size=1, max_size=3),
                [],
            ),
            _mostly(st.tuples(_COORD, _COORD, _mostly(st.floats(0.1, 5.0), 0.0, -1.0, math.nan, 1e154)), None),
        ),
        max_size=8,
    )
    _DEPTH = st.none() | st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
        lambda shape: st.lists(
            st.sampled_from([math.nan, 0.0, -1.0]) | st.floats(0.01, 50.0),
            min_size=shape[0] * shape[1],
            max_size=shape[0] * shape[1],
        ).map(lambda values: np.array(values).reshape(shape))
    )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dets=_DETECTIONS,
        depth=_DEPTH,
        k=st.integers(1, 3),
        k_edge=st.integers(1, 3),
    )
    def test_fuzz_keeps_finite_positive_depth_and_logs_every_drop(
        self, caplog, dets, depth, k, k_edge
    ):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="semloc.graph"):
            g = build_query_graph(dets, k=k, k_edge=k_edge, depth=depth, intrinsics=INTR)
        for node in g.nodes:
            assert np.isfinite(node.position).all() and node.position[2] > 0.0
        dropped = sorted(set(range(len(dets))) - set(g.ids))
        messages = [r.getMessage() for r in caplog.records]
        assert [int(m.split()[1]) for m in messages] == dropped
        assert all(m.split(" dropped: ", 1)[1] for m in messages)

    _GRAPH_ARRAYS = (
        "edges",
        "adjacency",
        "edge_root",
        "edge_nbr",
        "edge_slot",
        "edge_length",
        "edge_reverse",
        "degree",
        "positions",
        "distances",
    )

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        dets=_DETECTIONS,
        depth=_DEPTH | st.just(np.full((6, 8), math.nan)),
        k=st.integers(1, 3),
        k_edge=st.integers(1, 3),
        four=st.integers(-1, 7),
    )
    def test_matches_the_serial_build(self, caplog, dets, depth, k, k_edge, four):
        # the array passes drop, log, place and wire every detection as the
        # one-at-a-time oracle does; `four` gives one detection a 4-vector position
        if 0 <= four < len(dets):
            dets[four] = DetectionRecord(dets[four].bbox, dets[four].labels, np.array([0.1, 0.2, 1.0, 1.0]))
        graphs, logs = [], []
        for build in (serial_build_query_graph, build_query_graph):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="semloc.graph"):
                try:
                    graphs.append(build(dets, k=k, k_edge=k_edge, depth=depth, intrinsics=INTR))
                except ValueError as exc:
                    graphs.append(exc)
            logs.append([r.getMessage() for r in caplog.records])
        want, got = graphs
        if isinstance(want, ValueError):
            assert isinstance(got, ValueError)
            return
        assert logs[1] == logs[0]
        assert got.ids == want.ids
        for a, b in zip(got.nodes, want.nodes):
            assert np.array(a.bbox.as_list()).tobytes() == np.array(b.bbox.as_list()).tobytes()
            assert a.position.dtype == b.position.dtype and a.position.tobytes() == b.position.tobytes()
            assert a.confidences == b.confidences
        for name in self._GRAPH_ARRAYS:
            x, y = getattr(got, name), getattr(want, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert got.max_degree == want.max_degree

    def test_clamp_keeps_a_signed_zero(self):
        # Python's max(-0.0, 0.0) is -0.0, also in a box the clamp changes elsewhere
        det = DetectionRecord(BoundingBox(-0.0, 100.0, 700.0, 140.0), [("cup", 1.0)], np.array([0.0, 0.0, 2.0]))
        boxes = [
            build([det], k=2, k_edge=2, intrinsics=INTR).nodes[0].bbox
            for build in (build_query_graph, serial_build_query_graph)
        ]
        assert boxes[0] == boxes[1] == BoundingBox(0.0, 100.0, 640.0, 140.0)
        assert [math.copysign(1.0, b.x_min) for b in boxes] == [-1.0, -1.0]

    def test_four_vector_position_raises(self):
        det = self._det(position=(0.0, 0.0, 2.0, 1.0))
        for build in (serial_build_query_graph, build_query_graph):
            with pytest.raises(ValueError):
                build([self._det(), det], k=2, k_edge=2, intrinsics=INTR)
