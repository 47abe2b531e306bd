import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semloc.matching
from semloc import extract_candidates, score_all_pairs
from semloc.matching import SimilarityTable

from conftest import (
    CLUSTERS,
    VOCAB,
    clustered_nodes,
    edge_ids,
    graph,
    knn_graph,
    make_conf,
    make_table,
    prior_node,
    query_node,
    random_conf,
    random_table,
)
from oracles import (
    best_neighbor_set,
    multilabel_likelihood,
    neighbor_weight,
    neighbors_of,
    node_of,
    padded_score_all_pairs,
    per_column_extract_candidates,
    similarity_score,
)
from test_pose import _latency_scene_frames


def node_likelihood(prior_graph, query_graph):
    return lambda n, m: multilabel_likelihood(
        node_of(prior_graph, n).frequencies, node_of(query_graph, m).confidences
    )


# ---------------------------------------------------------------------------
# likelihood


class TestMultilabelLikelihood:
    def test_hand_value(self):
        table = make_table({"a": 2, "b": 1, "c": 1}, total=4)
        conf = make_conf({"a": 0.6, "b": 0.4})
        # 0.5*0.6 + 0.25*0.4 = 0.4
        assert multilabel_likelihood(table, conf) == pytest.approx(0.4, abs=1e-15)

    def test_no_shared_labels(self):
        table = make_table({"a": 1}, total=1)
        conf = make_conf({"b": 1.0})
        assert multilabel_likelihood(table, conf) == 0.0

    def test_perfect_match(self):
        table = make_table({"a": 4}, total=4)
        conf = make_conf({"a": 1.0})
        assert multilabel_likelihood(table, conf) == 1.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, seed):
        r = np.random.default_rng(seed)
        f = multilabel_likelihood(random_table(r), random_conf(r))
        assert 0.0 <= f <= 1.0 + 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_relabel_invariance(self, seed):
        r = np.random.default_rng(seed)
        table = random_table(r)
        conf = random_conf(r)
        perm = {label: f"renamed{i:03d}" for i, label in enumerate(r.permutation(VOCAB))}
        table2 = make_table(
            {perm[l]: c for l, c in table.per_label_counts.items()}, table.total_detections
        )
        conf2 = make_conf([(perm[l], s) for l, s in conf])
        assert multilabel_likelihood(table2, conf2) == pytest.approx(
            multilabel_likelihood(table, conf), abs=1e-15
        )


class TestNeighborWeight:
    def test_values(self):
        assert neighbor_weight(1.0, 1.0) == 1.0
        assert neighbor_weight(1.0, 2.0) == 0.5
        assert neighbor_weight(2.0, 1.0) == 0.5/1.0
        assert neighbor_weight(0.0, 3.0) == 0.25

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            neighbor_weight(-1.0, 1.0)


# ---------------------------------------------------------------------------
# neighbor selection and similarity


def _tie_fixture():
    """Exact-arithmetic tie: both prior neighbors score 0.25 for query 11."""
    pg = graph(
        [
            prior_node(1, (0.0, 0.0, 0.0), {"a": 1, "b": 1}, total=2),
            prior_node(2, (1.0, 0.0, 0.0), {"a": 1, "b": 1}, total=2),
            prior_node(3, (2.0, 0.0, 0.0), {"a": 1, "b": 3}, total=4),
        ],
        [(1, 2), (1, 3)],
    )
    qg = graph(
        [
            query_node(10, (0.0, 0.0, 5.0), {"a": 0.5, "b": 0.5}),
            query_node(11, (2.0, 0.0, 5.0), {"a": 1.0}),
            query_node(12, (0.0, 4.0, 5.0), {"b": 1.0}),
        ],
        [(10, 11), (10, 12)],
    )
    return pg, qg


class TestBestNeighborSet:
    def test_tie_breaks_to_lower_prior_id(self):
        pg, qg = _tie_fixture()
        sel = best_neighbor_set((1, 10), pg, qg, node_likelihood(pg, qg))
        by_query = {s.query_neighbor: s for s in sel.selections}
        # query 11: prior 2 gives 0.5*0.5, prior 3 gives 1.0*0.25, both 0.25
        assert by_query[11].prior_neighbor == 2
        assert by_query[11].weighted_likelihood == 0.25
        # query 12: prior 3 wins outright
        assert by_query[12].prior_neighbor == 3
        assert by_query[12].weighted_likelihood == pytest.approx((1.0 / 3.0) * 0.75, abs=1e-15)

    def test_empty_prior_neighbors(self):
        pg = graph([prior_node(1, (0, 0, 0), {"a": 1})], [])
        qg = graph(
            [query_node(10, (0, 0, 5), {"a": 1.0}), query_node(11, (1, 0, 5), {"a": 1.0})],
            [(10, 11)],
        )
        sel = best_neighbor_set((1, 10), pg, qg, node_likelihood(pg, qg))
        assert sel.selections == []

    def test_empty_query_neighbors(self):
        pg = graph(
            [prior_node(1, (0, 0, 0), {"a": 1}), prior_node(2, (1, 0, 0), {"a": 1})], [(1, 2)]
        )
        qg = graph([query_node(10, (0, 0, 5), {"a": 1.0})], [])
        sel = best_neighbor_set((1, 10), pg, qg, node_likelihood(pg, qg))
        assert sel.selections == []

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_cartesian_enumeration(self, seed):
        # per-neighbor argmax must attain the exhaustive product-space optimum
        # with lexicographically smallest prior ids on ties
        r = np.random.default_rng(seed)
        n_p = int(r.integers(1, 5))
        n_q = int(r.integers(1, 5))
        pg = graph(
            [prior_node(0, (0.0, 0.0, 0.0), {"a": 1})]
            + [
                prior_node(i + 1, r.uniform(-2, 2, 3), dict(random_table(r).per_label_counts))
                for i in range(n_p)
            ],
            [(0, i + 1) for i in range(n_p)],
        )
        qg = graph(
            [query_node(100, (0.0, 0.0, 5.0), {"a": 1.0})]
            + [query_node(101 + j, r.uniform(-2, 2, 3) + [0, 0, 5], random_conf(r)) for j in range(n_q)],
            [(100, 101 + j) for j in range(n_q)],
        )
        like = node_likelihood(pg, qg)
        sel = best_neighbor_set((0, 100), pg, qg, like)
        got = tuple(s.prior_neighbor for s in sel.selections)
        got_total = sum(s.weighted_likelihood for s in sel.selections)

        p_root, q_root = node_of(pg, 0).position, node_of(qg, 100).position
        qn = neighbors_of(qg, 100)
        pn = neighbors_of(pg, 0)
        products = {}
        for m in qn:
            dq = float(np.linalg.norm(node_of(qg, m).position - q_root))
            for n in pn:
                dp = float(np.linalg.norm(node_of(pg, n).position - p_root))
                products[(n, m)] = (1.0 / (1.0 + abs(dp - dq))) * like(n, m)
        best_total = -math.inf
        best_assign = None
        for assign in itertools.product(pn, repeat=len(qn)):
            total = sum(products[(n, m)] for n, m in zip(assign, qn))
            if total > best_total or (total == best_total and assign < best_assign):
                best_total, best_assign = total, assign
        assert got == best_assign
        assert got_total == best_total


class TestSimilarityScore:
    def test_falls_back_to_root_likelihood(self):
        pg = graph([prior_node(1, (0, 0, 0), {"a": 1})], [])
        qg = graph([query_node(10, (0, 0, 5), {"a": 1.0})], [])
        sel = best_neighbor_set((1, 10), pg, qg, node_likelihood(pg, qg))
        assert similarity_score(0.7, sel) == 0.7

    def test_hand_value(self):
        pg, qg = _tie_fixture()
        like = node_likelihood(pg, qg)
        sel = best_neighbor_set((1, 10), pg, qg, like)
        s = similarity_score(like(1, 10), sel)
        expected = 0.5 + (0.25 + (1.0 / 3.0) * 0.75) / 2.0
        assert s == pytest.approx(expected, abs=1e-15)

    def test_never_below_root_likelihood(self, rng):
        for _ in range(20):
            pg, qg = _tie_fixture()
            like = node_likelihood(pg, qg)
            for pid in pg.ids:
                for qid in qg.ids:
                    sel = best_neighbor_set((pid, qid), pg, qg, like)
                    assert similarity_score(like(pid, qid), sel) >= like(pid, qid)


# ---------------------------------------------------------------------------
# dense scoring


def _random_graphs(r, n_p=None, n_q=None):
    n_p = n_p if n_p is not None else int(r.integers(2, 9))
    n_q = n_q if n_q is not None else int(r.integers(2, 7))
    p_nodes = [
        prior_node(int(i * 3 + 1), r.uniform(-3, 3, 3), dict(random_table(r).per_label_counts))
        for i in range(n_p)
    ]
    q_nodes = [
        query_node(int(j * 2), r.uniform(-3, 3, 3) + [0, 0, 6], random_conf(r)) for j in range(n_q)
    ]
    return knn_graph(p_nodes, 3), knn_graph(q_nodes, 3)


class TestScoreAllPairs:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_per_pair_loop(self, seed):
        r = np.random.default_rng(seed)
        pg, qg = _random_graphs(r)
        table = score_all_pairs(pg, qg)
        likelihood = score_all_pairs(pg, qg, use_calp=False).similarity
        like = node_likelihood(pg, qg)
        for i, pid in enumerate(table.prior_ids):
            for j, qid in enumerate(table.query_ids):
                f = like(pid, qid)
                assert likelihood[i, j] == pytest.approx(f, abs=1e-12)
                sel = best_neighbor_set((pid, qid), pg, qg, like)
                assert table.similarity[i, j] == pytest.approx(
                    similarity_score(f, sel), abs=1e-12
                )

    def test_calp_disabled_copies_likelihood(self, rng):
        # without context the table is the one of the same nodes without edges
        pg, qg = _random_graphs(rng)
        table = score_all_pairs(pg, qg, use_calp=False)
        edge_free = score_all_pairs(graph(pg.nodes, []), graph(qg.nodes, []))
        np.testing.assert_array_equal(table.similarity, edge_free.similarity)
        assert not np.array_equal(table.similarity, score_all_pairs(pg, qg).similarity)

    def test_chunking_matches_single_pass(self, rng, monkeypatch):
        pg, qg = _random_graphs(rng, n_p=8, n_q=6)
        full = score_all_pairs(pg, qg)
        monkeypatch.setattr(semloc.matching, "_BLOCK_ELEMS", 1)  # dense blocks, sliced
        monkeypatch.setattr(semloc.matching, "_CHUNK_ELEMS", 16)
        chunked = score_all_pairs(pg, qg)
        np.testing.assert_array_equal(full.similarity, chunked.similarity)


def _thinned(r, nodes, keep, k_edge):
    """The nodes' k-NN graph with each edge kept at a rate."""
    edges = sorted(edge_ids(knn_graph(nodes, k_edge)))
    return graph(nodes, [e for e in edges if r.random() < keep])


def _thinned_graphs(seed, n_p, n_q, keep_p, keep_q, same_labels, k_edge=4):
    """Random prior and query graphs: k-NN wiring with each edge kept at a rate.

    same_labels gives every prior one frequency table and every query one
    confidence vector.
    """
    r = np.random.default_rng(seed)
    table, conf = random_table(r), random_conf(r)

    def thinned(nodes, keep):
        return _thinned(r, nodes, keep, k_edge)

    p_nodes = []
    for i in range(n_p):
        t = table if same_labels else random_table(r)
        p_nodes.append(
            prior_node(i * 3 + 1, r.uniform(-3, 3, 3), dict(t.per_label_counts), t.total_detections)
        )
    q_nodes = [
        query_node(j * 2, r.uniform(-3, 3, 3) + [0, 0, 6], conf if same_labels else random_conf(r))
        for j in range(n_q)
    ]
    return thinned(p_nodes, keep_p), thinned(q_nodes, keep_q)


def _clustered_graphs(seed, n_p, n_q, keep=1.0, k_edge=4, **labels):
    """Prior and query k-NN graphs over `clustered_nodes`, each edge kept at a rate."""
    r = np.random.default_rng(seed)
    p_nodes, q_nodes = clustered_nodes(r, n_p, n_q, **labels)
    return _thinned(r, p_nodes, keep, k_edge), _thinned(r, q_nodes, keep, k_edge)


# clustered-label frames; at the default _BLOCK_ELEMS only "one large group"
# has a dense block, and at _BLOCK_ELEMS = 1 every component is one
_CLUSTERED = {
    "four clusters": dict(n_p=40, n_q=20),
    "one large group": dict(n_p=90, n_q=40, weights=(12, 1, 1, 1), k_edge=5),
    "bridged": dict(n_p=40, n_q=20, bridges=2),
    "unmapped labels": dict(n_p=40, n_q=20, unmapped=3),
    "zero confidences": dict(n_p=40, n_q=20, zero_conf=3),
    "isolated nodes": dict(n_p=40, n_q=20, keep=0.3, k_edge=2),
}


def _components(pg, qg, block_elems=None):
    """The dense blocks, as lists of query edges and of prior edges, and the
    joined (prior node, query node) pairs of `_components` for this frame.

    Checks that they split the frame's products: each positive likelihood
    whose nodes both have edges is either joined or in exactly one block,
    with every edge into its two nodes, and no edge is in two blocks.
    """
    like = score_all_pairs(pg, qg, use_calp=False).similarity
    with pytest.MonkeyPatch.context() as mp:
        if block_elems is not None:
            mp.setattr(semloc.matching, "_BLOCK_ELEMS", block_elems)
        blocks, pairs = semloc.matching._components(pg, qg, like)
    blocks = [(q_edges.tolist(), p_edges.tolist()) for q_edges, p_edges in blocks]
    pairs = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    for edges in zip(*blocks):
        assert len(set(itertools.chain(*edges))) == sum(map(len, edges))
    for n, m in zip(*np.nonzero(like > 0.0)):
        into_n = set(np.flatnonzero(pg.edge_nbr == n).tolist())
        into_m = set(np.flatnonzero(qg.edge_nbr == m).tolist())
        inside = [b for b in blocks if into_m <= set(b[0]) and into_n <= set(b[1])]
        if into_n and into_m:
            assert ((n, m) in pairs) + len(inside) == 1
    assert all(like[n, m] > 0.0 for n, m in pairs)
    return blocks, pairs


def _solo_graphs(seed, n_p, labels_of, k_edge=4):
    """Landmarks 0..n_p-1 with one label each, "solo<i>", and a detection per
    entry of labels_of, carrying those landmarks' labels at equal confidence
    (an empty entry: one label the map never saw); k-NN graphs."""
    r = np.random.default_rng(seed)
    p_nodes = [prior_node(i, r.uniform(-3, 3, 3), {f"solo{i:02d}": 2}, 3) for i in range(n_p)]
    q_nodes = [
        query_node(
            j,
            r.uniform(-3, 3, 3) + [0, 0, 6],
            {f"solo{i:02d}": 1 / len(ls) for i in ls} if ls else {"unmapped": 1.0},
        )
        for j, ls in enumerate(labels_of)
    ]
    return _thinned(r, p_nodes, 1.0, k_edge), _thinned(r, q_nodes, 1.0, k_edge)


class TestMatchesPaddedOracle:
    """The edge-list context propagation against the padded-tensor oracle, bit for bit.

    Each frame is checked at the given _BLOCK_ELEMS, at 1 (every component
    a dense block) and at a size no frame reaches (every pair joined).
    """

    @staticmethod
    def _check(pg, qg, chunk_elems, block_elems=None):
        want = padded_score_all_pairs(pg, qg)
        for block in (block_elems, 1, math.inf):
            with pytest.MonkeyPatch.context() as mp:
                if chunk_elems is not None:
                    mp.setattr(semloc.matching, "_CHUNK_ELEMS", chunk_elems)
                if block is not None:
                    mp.setattr(semloc.matching, "_BLOCK_ELEMS", block)
                table = score_all_pairs(pg, qg)
            assert np.array_equal(table.similarity, want)

    @pytest.mark.parametrize("chunk_elems", [None, 16])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 12),
        n_q=st.integers(1, 14),
        keep_p=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
        keep_q=st.sampled_from([0.0, 0.4, 0.8, 1.0]),
        same_labels=st.booleans(),
        k_edge=st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_thinned_graphs(
        self, chunk_elems, seed, n_p, n_q, keep_p, keep_q, same_labels, k_edge
    ):
        pg, qg = _thinned_graphs(seed, n_p, n_q, keep_p, keep_q, same_labels, k_edge)
        self._check(pg, qg, chunk_elems)

    @pytest.mark.parametrize("chunk_elems", [None, 16])
    @pytest.mark.parametrize(
        "n_p, n_q, keep_p, keep_q, same_labels, k_edge",
        [
            (6, 5, 0.0, 1.0, False, 4),  # edgeless prior
            (6, 5, 1.0, 0.0, False, 4),  # edgeless query
            (1, 1, 1.0, 1.0, False, 4),  # one node each
            (1, 6, 1.0, 1.0, False, 4),
            (7, 1, 1.0, 1.0, False, 4),
            (8, 6, 0.3, 0.3, False, 2),  # isolated nodes on both sides
            (8, 6, 1.0, 1.0, True, 4),  # identical labels everywhere
            (12, 14, 1.0, 1.0, False, 10),  # degrees of 8 and more
        ],
    )
    def test_corner_cases(self, chunk_elems, n_p, n_q, keep_p, keep_q, same_labels, k_edge):
        for seed in range(5):
            pg, qg = _thinned_graphs(seed, n_p, n_q, keep_p, keep_q, same_labels, k_edge)
            self._check(pg, qg, chunk_elems)

    def test_corner_cases_reach_their_structure(self):
        thinned = [_thinned_graphs(seed, 8, 6, 0.3, 0.3, False, 2) for seed in range(5)]
        assert all((pg.degree == 0).any() and pg.max_degree > 0 for pg, _ in thinned)
        assert sum((qg.degree == 0).any() for _, qg in thinned) >= 3
        for seed in range(5):
            pg, qg = _thinned_graphs(seed, 12, 14, 1.0, 1.0, False, 10)
            assert min(pg.max_degree, qg.max_degree) >= 8

    @pytest.mark.parametrize("block_elems", [None, 1])
    @pytest.mark.parametrize("chunk_elems", [None, 16])
    @pytest.mark.parametrize("case", list(_CLUSTERED))
    def test_clustered_labels(self, case, chunk_elems, block_elems):
        for seed in range(5):
            pg, qg = _clustered_graphs(seed, **_CLUSTERED[case])
            self._check(pg, qg, chunk_elems, block_elems)

    @pytest.mark.parametrize("chunk_elems, block_elems", [(None, None), (16, 1), (None, 64)])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 40),
        n_q=st.integers(1, 20),
        weights=st.sampled_from([(1, 1, 1, 1), (12, 1, 1, 1), (1, 1, 0, 0)]),
        bridges=st.integers(0, 2),
        unmapped=st.integers(0, 2),
        zero_conf=st.integers(0, 2),
        keep=st.sampled_from([0.3, 1.0]),
        k_edge=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_clustered_graphs(
        self, chunk_elems, block_elems, seed, n_p, n_q, weights, bridges, unmapped, zero_conf, keep, k_edge
    ):
        pg, qg = _clustered_graphs(
            seed, n_p, n_q, keep, k_edge,
            weights=weights, bridges=bridges, unmapped=unmapped, zero_conf=zero_conf,
        )
        self._check(pg, qg, chunk_elems, block_elems)

    def test_clustered_cases_reach_their_structure(self):
        def clusters_of(pg, qg, j):
            """The label clusters of the landmarks with positive likelihood against query node j."""
            like = score_all_pairs(pg, qg, use_calp=False).similarity
            labels = [set(pg.nodes[i].frequencies.per_label_counts) for i in np.flatnonzero(like[:, j])]
            return {c for c, cluster in enumerate(CLUSTERS) for mine in labels if mine & set(cluster)}

        for seed in range(5):
            frames = {case: _clustered_graphs(seed, **kw) for case, kw in _CLUSTERED.items()}
            for pg, _ in frames.values():
                assert sorted(pg.label_table[0]) == sorted(l for c in CLUSTERS for l in c)
            # a small frame is joined whole, and splits into one block per cluster
            pg, qg = frames["four clusters"]
            like = score_all_pairs(pg, qg, use_calp=False).similarity
            assert _components(pg, qg) == ([], list(zip(*np.nonzero(like > 0.0))))
            blocks, pairs = _components(pg, qg, block_elems=1)
            assert len(blocks) == 4 and pairs == []
            # one component holds enough products for a dense block; the rest are joined
            pg, qg = frames["one large group"]
            blocks, pairs = _components(pg, qg)
            assert len(blocks) == 1 and pairs
            assert len(blocks[0][0]) * len(blocks[0][1]) >= semloc.matching._BLOCK_ELEMS
            # a detection with labels of two clusters links them into one component
            pg, qg = frames["bridged"]
            assert len(clusters_of(pg, qg, 0)) == 2
            assert len(_components(pg, qg, block_elems=1)[0]) <= 3
            # no label the map saw leaves a zero likelihood column and no component
            pg, qg = frames["unmapped labels"]
            assert clusters_of(pg, qg, 0) == set()
            assert not score_all_pairs(pg, qg, use_calp=False).similarity[:, 0].any()
            assert "unmapped" in dict(qg.nodes[1].confidences) and clusters_of(pg, qg, 1)
            # a zero confidence in another cluster's label links nothing
            pg, qg = frames["zero confidences"]
            assert 0.0 in dict(qg.nodes[0].confidences).values()
            assert len(_components(pg, qg, block_elems=1)[0]) == 4
            # isolated nodes on both sides
            pg, qg = frames["isolated nodes"]
            assert (pg.degree == 0).any() and (qg.degree == 0).any() and qg.max_degree > 0

    def test_detections_merging_small_groups_make_a_large_block(self):
        # every landmark its own label, so no landmark's edges make a large
        # block; detections carrying three labels each link them all into one
        pg, qg = _solo_graphs(5, 60, [[(2 * j + d) % 60 for d in range(3)] for j in range(30)])
        assert qg.edge_root.size * pg.max_degree < semloc.matching._BLOCK_ELEMS
        for block_elems in (None, 1):
            blocks, pairs = _components(pg, qg, block_elems)
            assert blocks == [(list(range(qg.edge_root.size)), list(range(pg.edge_root.size)))]
            assert pairs == []
        assert qg.edge_root.size * pg.edge_root.size >= semloc.matching._BLOCK_ELEMS
        self._check(pg, qg, None)

    @pytest.mark.parametrize("chunk_elems, block_elems", [(None, None), (16, 1)])
    def test_chain_of_detections(self, chunk_elems, block_elems):
        # detection j carries the labels of landmarks j and j + 1: one
        # component, which the fixpoint reaches one landmark a round
        pg, qg = _solo_graphs(6, 30, [[j, j + 1] for j in range(29)])
        blocks, pairs = _components(pg, qg, block_elems)
        assert blocks == [(list(range(qg.edge_root.size)), list(range(pg.edge_root.size)))]
        assert pairs == []
        # with no dense block, every positive likelihood is joined
        like = score_all_pairs(pg, qg, use_calp=False).similarity
        assert _components(pg, qg, math.inf) == ([], list(zip(*np.nonzero(like > 0.0))))
        self._check(pg, qg, chunk_elems, block_elems)

    @pytest.mark.parametrize("chunk_elems, block_elems", [(None, None), (16, 1)])
    def test_every_detection_unmapped(self, chunk_elems, block_elems):
        # no detection shares a label with the map: no block, nothing
        # joined, and the similarity is the likelihood, zero everywhere
        r = np.random.default_rng(7)
        p_nodes, _ = clustered_nodes(r, 20, 0)
        q_nodes = [query_node(j, r.uniform(-3, 3, 3) + [0, 0, 6], {"unmapped": 1.0}) for j in range(8)]
        pg, qg = knn_graph(p_nodes, 4), knn_graph(q_nodes, 4)
        assert _components(pg, qg, block_elems) == ([], [])
        table = score_all_pairs(pg, qg)
        assert table.similarity.shape == (20, 8) and not table.similarity.any()
        self._check(pg, qg, chunk_elems, block_elems)

    def test_criterion_8_block_holds_the_edges_into_shared_labels(self):
        # one landmark a label, so most prior edges run into a landmark no
        # detection of the frame shares a label with, and are in no block
        # and no joined pair's edges
        prior, queries, _ = _latency_scene_frames(seed=0, frame_ids=[0, 23, 42, 77, 101])
        for query in queries:
            seen = {label for node in query.nodes for label, score in node.confidences if score > 0.0}
            shared = np.array([bool(seen & set(node.frequencies.per_label_counts)) for node in prior.nodes])
            into_shared = np.flatnonzero(shared[prior.edge_nbr]).tolist()
            assert len(into_shared) < prior.edge_root.size // 2
            # each detection carries one label, so each component is one
            # detection and one landmark, too small for a block: the frame
            # is joined whole, a pair per detection
            blocks, pairs = _components(prior, query)
            assert blocks == [] and len(pairs) == sum(shared) == len(query)
            assert sorted(n for n, _ in pairs) == np.flatnonzero(shared).tolist()
            # as one block per component, the blocks hold exactly the edges into shared labels
            blocks, pairs = _components(prior, query, block_elems=1)
            assert len(blocks) == sum(shared) and pairs == []
            assert sorted(itertools.chain(*(p for _, p in blocks))) == into_shared
            self._check(prior, query, None)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 40),
        n_q=st.integers(1, 20),
        per_detection=st.integers(0, 3),
        k_edge=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_solo_labels(self, seed, n_p, n_q, per_detection, k_edge):
        # one label per landmark, as on the noise-free command line scene:
        # detections carry the labels of up to three landmarks, or one no
        # landmark has
        r = np.random.default_rng(seed)
        labels_of = [r.choice(n_p, min(per_detection, n_p), replace=False).tolist() for _ in range(n_q)]
        pg, qg = _solo_graphs(seed, n_p, labels_of, k_edge)
        self._check(pg, qg, None)

    def test_solo_labels_are_joined(self):
        # one label per detection, each another landmark's: every component
        # is one landmark and one detection, and every pair is joined
        pg, qg = _solo_graphs(3, 30, [[j] for j in range(0, 30, 2)])
        blocks, pairs = _components(pg, qg)
        assert blocks == [] and pairs == [(2 * j, j) for j in range(15)]
        self._check(pg, qg, 16)

    def test_empty_graphs(self):
        pg, qg = _thinned_graphs(0, 4, 3, 1.0, 1.0, False)
        assert score_all_pairs(graph([], []), qg).similarity.shape == (0, 3)
        assert score_all_pairs(pg, graph([], [])).similarity.shape == (4, 0)


# ---------------------------------------------------------------------------
# candidate extraction


def _table(prior_ids, query_ids, sim):
    """The table of these rows and columns, sorted into id order as graphs hold their nodes."""
    prior_ids, query_ids = list(prior_ids), list(query_ids)
    rows, cols = np.argsort(prior_ids), np.argsort(query_ids)
    sim = np.asarray(sim, dtype=float).reshape(len(rows), len(cols))[np.ix_(rows, cols)]
    return SimilarityTable(sorted(prior_ids), sorted(query_ids), sim)


def _candidates(table, tau):
    """extract_candidates as (prior id, query id) pairs, checked against the per-column oracle."""
    cands = extract_candidates(table, tau)
    prior, query = per_column_extract_candidates(table, tau)
    np.testing.assert_array_equal(cands.prior, prior)
    np.testing.assert_array_equal(cands.query, query)
    assert len(cands) == len(prior)
    return [(table.prior_ids[p], table.query_ids[q]) for p, q in zip(cands.prior, cands.query)]


class TestExtractCandidates:
    def test_keeps_exactly_tau(self):
        table = _table([1, 2, 3, 4], [10], [[0.9], [0.1], [0.5], [0.3]])
        assert _candidates(table, tau=2) == [(1, 10), (3, 10)]

    def test_tie_at_cutoff_prefers_lower_prior_id(self):
        table = _table([4, 2, 9, 7], [10], [[0.5], [0.5], [0.5], [0.2]])
        assert _candidates(table, tau=2) == [(2, 10), (4, 10)]

    def test_fewer_priors_than_tau(self):
        table = _table([3, 1], [10], [[0.5], [0.6]])
        assert _candidates(table, tau=5) == [(1, 10), (3, 10)]

    def test_zero_scores_still_fill_tau(self):
        table = _table([5, 6, 7], [10], [[0.0], [0.0], [0.0]])
        assert _candidates(table, tau=2) == [(5, 10), (6, 10)]

    def test_grouped_by_query_node_in_table_order(self):
        # ties within and across columns
        table = _table([8, 3, 5], [12, 10, 11], [[0.5, 0.2, 0.5], [0.5, 0.2, 0.1], [0.1, 0.9, 0.5]])
        assert table.prior_ids == [3, 5, 8] and table.query_ids == [10, 11, 12]
        assert _candidates(table, tau=2) == [(5, 10), (3, 10), (5, 11), (8, 11), (3, 12), (8, 12)]
        cands = extract_candidates(table, tau=2)
        assert cands.prior.tolist() == [1, 0, 1, 2, 0, 2]
        assert cands.query.tolist() == [0, 0, 1, 1, 2, 2]

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_tables(self, shape):
        table = _table(range(shape[0]), range(10, 10 + shape[1]), np.zeros(shape))
        assert _candidates(table, tau=2) == []

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(0, 7),
        n_q=st.integers(0, 5),
        levels=st.integers(1, 4),
        tau=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_column_oracle(self, seed, n_p, n_q, levels, tau):
        # few distinct scores, so ties within and across columns are common;
        # prior ids with gaps, and tau often above the prior count
        r = np.random.default_rng(seed)
        prior_ids = r.permutation(50)[:n_p].tolist()
        sim = r.integers(0, levels, (n_p, n_q)) / levels
        pairs = _candidates(_table(prior_ids, range(10, 10 + n_q), sim), tau)
        assert len(pairs) == n_q * min(tau, n_p)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 40),
        n_q=st.integers(1, 12),
        levels=st.integers(1, 3),
        tau=st.integers(1, 45),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_tables(self, seed, n_p, n_q, levels, tau):
        # one to three distinct scores, so the tau-th best of most columns
        # is tied with entries on both sides of the cut; tau up to past the
        # prior count, and a column of one score throughout
        r = np.random.default_rng(seed)
        sim = r.integers(0, levels, (n_p, n_q)) / levels
        sim[:, 0] = 0.5
        pairs = _candidates(_table(range(n_p), range(10, 10 + n_q), sim), tau)
        assert len(pairs) == n_q * min(tau, n_p)
        assert [p for p, q in pairs if q == 10] == list(range(min(tau, n_p)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 30),
        n_q=st.integers(2, 8),
        tau=st.integers(1, 35),
    )
    @settings(max_examples=60, deadline=None)
    def test_signed_zeros_and_equal_columns(self, seed, n_p, n_q, tau):
        # +0.0 and -0.0 compare equal, so they tie and go to the lower
        # index; a column of one positive score and a column of zeros of
        # either sign keep the tau lowest indices
        r = np.random.default_rng(seed)
        sim = r.choice([0.0, -0.0, 0.25, 0.5], (n_p, n_q))
        sim[:, 0] = 0.25
        sim[:, 1] = r.choice([0.0, -0.0], n_p)
        pairs = _candidates(_table(range(n_p), range(10, 10 + n_q), sim), tau)
        first = list(range(min(tau, n_p)))
        assert [p for p, q in pairs if q == 10] == [p for p, q in pairs if q == 11] == first

    def test_monotone_transform_invariance(self, rng):
        sim = rng.random((6, 4))
        table = _table(range(6), range(10, 14), sim)
        scaled = _table(range(6), range(10, 14), sim * 3.0 + 0.25)
        assert _candidates(table, tau=3) == _candidates(scaled, tau=3)

    def test_rejects_bad_tau(self):
        table = _table([1], [10], [[0.5]])
        with pytest.raises(ValueError):
            extract_candidates(table, tau=0)
