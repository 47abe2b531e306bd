import logging
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
from oracles import neighbors_of, node_of

INTR = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


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


def knn_oracle(positions, k):
    """Plain O(n^2) loop: per node, sort the others by (distance, index) and take k."""
    pairs = []
    for i in range(len(positions)):
        others = sorted((math.dist(positions[i], positions[j]), j) for j in range(len(positions)) if j != i)
        pairs += [[i, j] for _, j in others[:k]]
    return pairs


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

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_empty_without_edges(self, n):
        g = SemanticGraph([prior_node(i, (i, 0, 0), {"a": 1}) for i in range(n)], [])
        for arr in (g.edge_root, g.edge_nbr, g.edge_slot, g.edge_length):
            assert arr.shape == (0,)
        assert g.edges.shape == (0, 2)
        np.testing.assert_array_equal(g.degree, np.zeros(n, dtype=int))
        assert g.max_degree == 0

    def test_pickle_round_trip(self):
        nodes = [prior_node(i, (i, 0.5 * i * i, 0), {"a": 1}) for i in (5, 1, 3, 7)]
        g = graph(nodes, [(1, 5), (3, 5), (1, 3)])  # 7 is isolated
        h = pickle.loads(pickle.dumps(g))
        for name in ("edges", "edge_root", "edge_nbr", "edge_slot", "edge_length", "degree"):
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
        for name in ("edges", "edge_root", "edge_nbr", "edge_slot", "edge_length", "degree"):
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

    def test_unknown_keyframe_member_raises(self):
        nodes = [prior_node(0, (0, 0, 0), {"a": 1})]
        with pytest.raises(ValueError, match="unknown landmark"):
            prior_graph_from_nodes(nodes, [[0, 9]], k_edge=1)

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


class TestLabelGroups:
    def test_hand_value(self):
        nodes = [
            prior_node(1, (0, 0, 0), {"a": 1, "b": 1}),
            prior_node(2, (1, 0, 0), {"d": 1}),
            prior_node(3, (2, 0, 0), {"c": 1, "b": 2}),
            prior_node(4, (3, 0, 0), {"e": 1, "f": 1}),
            prior_node(5, (4, 0, 0), {}, total=1),  # never given a label
        ]
        g = graph(nodes, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert list(g.label_table[0]) == ["a", "b", "d", "c", "e", "f"]
        label_group, node_group, edge_group, group_edges = g.label_groups
        assert label_group.tolist() == [0, 0, 1, 0, 2, 2]
        assert node_group.tolist() == [0, 1, 0, 2, -1]
        assert edge_group.tolist() == node_group[g.edge_nbr].tolist()
        # the chain 1-2-3-4-5: nodes 1 and 3 have 1 and 2 edges, 2 has 2, 4 has 2
        assert group_edges.tolist() == [3, 2, 2]

    def test_chained_labels_are_one_group(self):
        # a-b, c-d and then b-c: one group, whoever came first
        nodes = [
            prior_node(1, (0, 0, 0), {"a": 1, "b": 1}),
            prior_node(2, (1, 0, 0), {"c": 1, "d": 1}),
            prior_node(3, (2, 0, 0), {"e": 1}),
            prior_node(4, (3, 0, 0), {"b": 1, "c": 1}),
        ]
        label_group, node_group, _, group_edges = graph(nodes, []).label_groups
        assert label_group.tolist() == [0, 0, 0, 0, 1]
        assert node_group.tolist() == [0, 0, 1, 0]
        assert group_edges.tolist() == [0, 0]

    def test_survive_pickle(self):
        # spawn workers unpickle the map graph: the groups come with it
        r = np.random.default_rng(3)
        p_nodes, _ = clustered_nodes(r, 30, 0)
        g = prior_graph_from_nodes(p_nodes, [], k_edge=4)
        groups = g.label_groups
        h = pickle.loads(pickle.dumps(g))
        assert "label_groups" in vars(h)
        for a, b in zip(groups, h.label_groups):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_reversed_map_gives_the_same_groups_and_similarity(self, seed):
        r = np.random.default_rng(seed)
        p_nodes, q_nodes = clustered_nodes(r, 40, 20, bridges=1)
        keyframes = [[node.id for node in p_nodes if r.random() < 0.7] for _ in range(3)]
        a = prior_graph_from_nodes(p_nodes, keyframes, k_edge=4)
        b = prior_graph_from_nodes(p_nodes[::-1], keyframes, k_edge=4)
        for x, y in zip(a.label_groups, b.label_groups):
            assert x.tobytes() == y.tobytes()
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
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
        """Draws from `good` about three times in four, else one of the bad values."""
        return st.sampled_from([None] * 3 * len(bad) + list(bad)).flatmap(
            lambda b: good if b is None else st.just(b)
        )

    _SCORE = _mostly(st.floats(0.01, 1.0), 0.0, math.nan, math.inf, -math.inf, -1.0, 1e308)
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
