import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.spatial.distance
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc import (
    BoundingBox,
    CameraIntrinsics,
    DetectionRecord,
    LocalizationStatus,
    MatcherConfig,
    NoiseSpec,
    Pose,
    PriorObjectNode,
    SceneSpec,
    SemanticGraph,
    build_query_graph,
    calculate_was,
    estimate_pose,
    extract_candidates,
    generate_scene,
    generate_trajectory,
    is_valid_sample,
    prior_graph_from_nodes,
    render_frame,
    render_sequence,
    score_all_pairs,
)
import semloc.pose
from semloc.cli import _accumulate_map, _localize_frame, _seed_children
from semloc.dataio import FrameRecord
from semloc.geometry import _project_quadrics, quat_distance
from semloc.matching import CandidateSet, SimilarityTable
from semloc.pose import (
    _CHUNK,
    _DIST_TOL,
    _AlignmentScorer,
    _compatibility,
    _draw_triples,
)

from conftest import (
    VOCAB,
    candidate_set,
    edge_ids,
    graph,
    knn_graph,
    large_object_frame,
    make_table,
    pose_arrays,
    prior_node,
    quadric_of,
    query_node,
    random_rotation,
)
from oracles import (
    id_pairs,
    project_quadric_to_bbox,
    scalar_calculate_was,
    scalar_is_valid_sample,
    serial_estimate_pose,
)


INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
# a _perfect_scene spread that keeps every two landmarks within _DIST_TOL of
# each other (the unscaled layout spans at most 3.2 m): the sampler's
# distance term then passes every pair, and the valid samples are those of
# the unscaled layout's wiring, most of them wrong
_COMPACT = 0.09


def _perfect_scene(n=8, seed=3, center_boxes=False, spread=1.0):
    """Landmarks with unique labels rendered noise-free from a known pose.

    center_boxes shifts each box onto the projected landmark center so the
    center bearing is exact; raw conic boxes carry a subpixel ellipse bias.
    spread scales the layout about its center.
    """
    r = np.random.default_rng(seed)
    gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
    pos = spread * np.column_stack(
        [r.uniform(-1.2, 1.2, n), r.uniform(-1.0, 1.0, n), r.uniform(-0.3, 0.3, n)]
    )
    p_nodes, q_nodes = [], []
    for i in range(n):
        label = VOCAB[i]
        p = prior_node(i + 1, pos[i], {label: 5}, total=5)
        box = project_quadric_to_bbox(quadric_of(p), gt, INTR).clamped(INTR.width, INTR.height)
        assert box is not None
        if center_boxes:
            cam = gt.transform(pos[i])
            u = INTR.fx * cam[0] / cam[2] + INTR.cx
            v = INTR.fy * cam[1] / cam[2] + INTR.cy
            hw, hh = box.width / 2.0, box.height / 2.0
            box = BoundingBox(u - hw, v - hh, u + hw, v + hh)
        p_nodes.append(p)
        q_nodes.append(query_node(100 + i, gt.transform(pos[i]), {label: 1.0}, bbox=box))
    pg, qg = knn_graph(p_nodes, 3), knn_graph(q_nodes, 3)
    # rigid map preserves distances, so the wiring must agree
    np.testing.assert_array_equal(pg.edges, qg.edges)
    return pg, qg, gt


def _mapped_frames(spec, rings, q_ring, noise, n_dets, frame_ids):
    """Prior graph, query graphs and ground truth of frames of a simulated scene.

    Two 40-pose keyframe orbits at rings[0] and rings[1] (radius, height),
    noise-free, build the map; the frames come from a 120-pose query orbit
    at q_ring under `noise` and keep their first n_dets detections; each
    frame's ground truth maps detection index (query node id) to landmark
    id. Every seed of the recipe derives from spec.seed.
    """
    scene = generate_scene(spec)
    s1, s2, s3, s4, s5 = _seed_children(spec.seed, 5)
    kf_poses = [
        pose
        for ring_seed, (radius, height) in zip((s1, s2), rings)
        for pose in generate_trajectory(
            "orbit", 40, spec.bounds, seed=ring_seed, radius=radius, height=height
        )
    ]
    kf_frames = render_sequence(scene, kf_poses, INTR, NoiseSpec(), seed=s3)
    radius, height = q_ring
    q_poses = generate_trajectory("orbit", 120, spec.bounds, seed=s4, radius=radius, height=height)
    # one RNG stream per frame, so rendering a prefix renders the same frames
    rendered = render_sequence(scene, q_poses[: max(frame_ids) + 1], INTR, noise, seed=s5)
    landmarks = [
        {"id": lm.id, "position": lm.position, "rotation": lm.rotation, "scale": lm.scale}
        for lm in scene.landmarks
    ]
    config = MatcherConfig()
    nodes, keyframes = _accumulate_map(
        landmarks,
        [FrameRecord(i, 0.1 * i, d) for i, (d, _) in enumerate(kf_frames)],
        {i: assoc for i, (_, assoc) in enumerate(kf_frames)},
        config.K,
    )
    prior = prior_graph_from_nodes(nodes, keyframes, k_edge=config.k_edge)
    queries = [
        build_query_graph(
            rendered[i][0][:n_dets], k=config.K, k_edge=config.k_edge, intrinsics=INTR
        )
        for i in frame_ids
    ]
    return prior, queries, [rendered[i][1] for i in frame_ids]


def _latency_scene_frames(seed: int, frame_ids):
    """Prior graph, query graphs and ground truth of frames of the
    criterion-8 latency scene (50 unique labels, 10 detections a frame),
    built with every seed of its recipe set to `seed`."""
    spec = SceneSpec(
        n_landmarks=50,
        bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
        vocabulary=[f"obj{i:02d}" for i in range(50)],
        unique_labels=True,
        min_separation=0.25,
        seed=seed,
    )
    noise = NoiseSpec(bbox_jitter=1.0, depth_sigma=0.03, temperature=0.3)
    return _mapped_frames(spec, [(2.0, 1.0), (2.6, 1.8)], (2.0, 1.4), noise, 10, frame_ids)


def _wide_scene_frames(seed: int, frame_ids, n_dets: int):
    """Prior graph, query graphs and ground truth of frames of a 12 x 12 m
    room of 200 landmarks with 12 labels in 4 confusable clusters (the
    criterion-5 labels and noise), keeping n_dets detections a frame."""
    vocab = ["chair", "sofa", "bed", "table", "shelf", "door"]
    vocab += ["lamp", "monitor", "tv", "plant", "sink", "fridge"]
    spec = SceneSpec(
        n_landmarks=200,
        bounds=((-6.0, -6.0, 0.0), (6.0, 6.0, 2.5)),
        vocabulary=vocab,
        clusters=[vocab[i : i + 3] for i in range(0, 12, 3)],
        confusion_rate=0.3,
        scale_range=(0.1, 0.3),
        min_separation=0.4,
        seed=seed,
    )
    noise = NoiseSpec(bbox_jitter=2.0, depth_sigma=0.05, dropout=0.1, temperature=0.5)
    return _mapped_frames(spec, [(2.5, 1.2), (5.0, 1.8)], (4.0, 1.4), noise, n_dets, frame_ids)


def _localize_seed(frame_id: int) -> int:
    """The sampling seed `semloc localize` derives for a frame from rng_seed 0."""
    return int(np.random.SeedSequence([0, frame_id]).generate_state(1, np.uint64)[0])


def _three_landmark_frame(pts, prior_edges, query_edges):
    """Query and prior graphs of three landmarks seen from 4 m, one label for all."""
    gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
    p_nodes = [prior_node(i + 1, pts[i], {"a": 1}) for i in range(3)]
    q_nodes = [
        query_node(
            100 + i,
            gt.transform(pts[i]),
            {"a": 1.0},
            bbox=project_quadric_to_bbox(quadric_of(p_nodes[i]), gt, INTR),
        )
        for i in range(3)
    ]
    return graph(q_nodes, query_edges), graph(p_nodes, prior_edges)


def _edge_mismatch_frame():
    """A fully wired prior triangle against an edgeless query: no sample is valid."""
    pts = [np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    return _three_landmark_frame(pts, [(1, 2), (1, 3), (2, 3)], [])


def _collinear_frame():
    """Collinear landmarks with matching wiring: valid samples that P3P never solves."""
    pts = [np.array([-0.5 + 0.5 * i, 0.0, 0.0]) for i in range(3)]
    return _three_landmark_frame(pts, [(1, 2), (2, 3)], [(100, 101), (101, 102)])


class TestMatcherConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"K": 0}, {"tau": 0}, {"k_edge": -1}, {"C": 0.0}, {"n_iter": 0}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MatcherConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, -(2**63), np.int64(-5)])
    def test_rejects_negative_seed(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be nonnegative"):
            MatcherConfig(rng_seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_accepts_large_frame_seeds(self, seed):
        # per-frame seeds are 64-bit unsigned words (see _localize_seed)
        assert MatcherConfig(rng_seed=seed).rng_seed == seed

    @pytest.mark.parametrize("name", ["K", "tau", "n_iter", "k_edge", "rng_seed"])
    def test_rejects_non_integer_counts(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MatcherConfig(**{name: 2.5})

    @pytest.mark.parametrize("name", ["K", "tau", "n_iter", "k_edge", "rng_seed"])
    def test_rejects_boolean_counts(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MatcherConfig(**{name: True})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, True, "abc", None])
    def test_c_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="C must be a finite positive number"):
            MatcherConfig(C=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "abc", False])
    def test_early_exit_was_must_be_finite_or_none(self, value):
        with pytest.raises(ValueError, match="early_exit_was must be a finite number or none"):
            MatcherConfig(early_exit_was=value)

    def test_early_exit_was_accepts_none_and_numbers(self):
        assert MatcherConfig(early_exit_was=None).early_exit_was is None
        assert MatcherConfig(early_exit_was=1).early_exit_was == 1
        assert MatcherConfig(C=np.float64(50.0)).C == 50.0

    @pytest.mark.parametrize("value", [None, 1])
    def test_use_calp_must_be_a_bool(self, value):
        with pytest.raises(ValueError, match="use_calp must be true or false"):
            MatcherConfig(use_calp=value)

    def test_status_wire_values(self):
        assert LocalizationStatus.SUCCESS.value == "success"
        assert LocalizationStatus.NO_VALID_SAMPLE.value == "no-valid-sample"


class TestIsValidSample:
    @staticmethod
    def _valid(pairs):
        """is_valid_sample on candidates 0, 1, 2, checked against the id-based oracle."""
        pg = graph(
            [prior_node(i, (float(i), 0, 0), {"a": 1}) for i in range(1, 5)],
            [(1, 2), (2, 3)],
        )
        qg = graph(
            [query_node(i, (float(i), 0, 5), {"a": 1.0}) for i in range(10, 14)],
            [(10, 11), (11, 12)],
        )
        compatible = _compatibility(candidate_set(pairs, pg, qg), pg, qg)
        valid = is_valid_sample([0, 1, 2], compatible)
        assert valid is scalar_is_valid_sample(pairs, pg, qg)
        return valid

    def test_accepts_matching_pattern(self):
        assert self._valid([(1, 10), (2, 11), (3, 12)])

    def test_rejects_duplicate_prior(self):
        assert not self._valid([(1, 10), (1, 11), (3, 12)])

    def test_rejects_duplicate_query(self):
        assert not self._valid([(1, 10), (2, 10), (3, 12)])

    def test_rejects_edge_pattern_mismatch(self):
        # prior 4 is isolated but query 11-12 are connected
        assert not self._valid([(1, 10), (2, 11), (4, 12)])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            is_valid_sample([0, 1], np.ones((3, 3), dtype=bool))


class TestDrawTriples:
    """A frame's draw list: distinct index triples, uniform over all C(n, 3)."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        n_pairs=st.integers(3, 120),
        n=st.integers(1, 600),
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_in_range_and_ordered(self, seed, n_pairs, n):
        triples = _draw_triples(np.random.default_rng(seed), n_pairs, n)
        assert triples.shape == (min(n, math.comb(n_pairs, 3)), 3)
        i, j, k = triples.T
        assert (0 <= i).all() and (i < j).all() and (j < k).all() and (k < n_pairs).all()
        assert len(np.unique(triples, axis=0)) == len(triples)

    @pytest.mark.parametrize("n_pairs", [3, 4, 5, 9, 30])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_budget_past_the_triple_space_draws_every_triple(self, n_pairs, extra):
        total = math.comb(n_pairs, 3)
        triples = _draw_triples(np.random.default_rng(n_pairs), n_pairs, total + extra)
        assert sorted(map(tuple, triples.tolist())) == list(
            itertools.combinations(range(n_pairs), 3)
        )

    @given(seed=st.integers(0, 2**64 - 1), n_pairs=st.integers(3, 60), n=st.integers(1, 300))
    @settings(max_examples=30, deadline=None)
    def test_a_seed_gives_the_same_draws(self, seed, n_pairs, n):
        first = _draw_triples(np.random.default_rng(seed), n_pairs, n)
        again = _draw_triples(np.random.default_rng(seed), n_pairs, n)
        np.testing.assert_array_equal(first, again)

    def test_uniform_over_triples(self):
        # 6 pairs, 20 triples: 3000 frames of 4 draws each, counted per
        # triple over all draws and over each frame's first draw
        rng = np.random.default_rng(0)
        draws = np.stack([_draw_triples(rng, 6, 4) for _ in range(3000)])
        ranks = {t: r for r, t in enumerate(itertools.combinations(range(6), 3))}
        per_draw = np.array([[ranks[tuple(t)] for t in frame] for frame in draws.tolist()])
        assert scipy.stats.chisquare(np.bincount(per_draw.ravel(), minlength=20)).pvalue > 1e-3
        assert scipy.stats.chisquare(np.bincount(per_draw[:, 0], minlength=20)).pvalue > 1e-3

    def test_uniform_pair_frequency_over_a_large_triple_space(self):
        # 50 pairs, 19,600 triples: each pair is in 3/50 of them
        rng = np.random.default_rng(1)
        draws = np.concatenate([_draw_triples(rng, 50, 200) for _ in range(200)])
        assert scipy.stats.chisquare(np.bincount(draws.ravel(), minlength=50)).pvalue > 1e-3


def _all_triples_agree(query, prior, candidates) -> int:
    """is_valid_sample against the id-based oracle on every triple; the valid count."""
    pairs = id_pairs(candidates, prior, query)
    compatible = _compatibility(candidates, prior, query)
    n_valid = 0
    for sample in itertools.combinations(range(len(pairs)), 3):
        valid = scalar_is_valid_sample([pairs[i] for i in sample], prior, query)
        assert is_valid_sample(sample, compatible) is valid
        n_valid += valid
    return n_valid


class TestCompatibility:
    """The (pairs, pairs) compatibility table decides a sample as the id-based oracle does."""

    def test_criterion_8_frames(self):
        prior, queries, _ = _latency_scene_frames(seed=0, frame_ids=[0, 23, 42, 77, 101])
        for query in queries:
            cands = extract_candidates(score_all_pairs(prior, query), tau=3)
            assert 0 < _all_triples_agree(query, prior, cands) < math.comb(len(cands), 3)

    def test_wide_frames(self):
        prior, queries, _ = _wide_scene_frames(seed=0, frame_ids=[5, 60], n_dets=16)
        for query in queries:
            cands = extract_candidates(score_all_pairs(prior, query), tau=3)
            assert len(cands) == 48
            assert 0 < _all_triples_agree(query, prior, cands) < math.comb(48, 3)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(1, 7),
        n_q=st.integers(1, 5),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        tau=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed, n_p, n_q, density, tau):
        # no edges, isolated nodes, ids with gaps, and priors that serve several query nodes
        r = np.random.default_rng(seed)

        def random_graph(ids, node):
            nodes = [node(i, (float(k), 0.0, 5.0)) for k, i in enumerate(ids)]
            edges = [e for e in itertools.combinations(ids, 2) if r.random() < density]
            return graph(nodes, edges)

        prior = random_graph(
            r.permutation(20)[:n_p].tolist(), lambda i, x: prior_node(i, x, {"a": 1})
        )
        query = random_graph(
            (100 + r.permutation(20)[:n_q]).tolist(), lambda i, x: query_node(i, x, {"a": 1.0})
        )
        sim = r.integers(0, 3, (n_p, n_q)) / 3.0
        table = SimilarityTable(prior.ids, query.ids, sim)
        _all_triples_agree(query, prior, extract_candidates(table, tau))


    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        density=st.sampled_from([0.0, 0.5, 1.0]),
        reach=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_correct_pairs_within_their_radii_are_compatible(self, seed, n, density, reach):
        # each query node is its landmark's camera-frame position moved by at
        # most the landmark's largest semi-axis plus _DIST_TOL / 2 (less a
        # rounding margin), so by the triangle inequality two correct pairs'
        # distances differ by at most their radii plus _DIST_TOL
        r = np.random.default_rng(seed)
        pos = r.uniform([-6.0, -6.0, 0.0], [6.0, 6.0, 2.5], (n, 3))
        scales = r.uniform(0.05, 0.8, (n, 3))
        pose = Pose.from_rt(random_rotation(r), r.normal(scale=3.0, size=3))
        moves = r.normal(size=(n, 3))
        moves /= np.linalg.norm(moves, axis=1, keepdims=True)
        moves *= (reach * (scales.max(axis=1) + 0.5 * _DIST_TOL) * (1.0 - 1e-9))[:, None]
        edges = [e for e in itertools.combinations(range(n), 2) if r.random() < density]
        pg = graph(
            [replace(prior_node(i, pos[i], {"a": 1}), scale=scales[i]) for i in range(n)], edges
        )
        qg = graph(
            [query_node(100 + i, pose.transform(pos[i]) + moves[i], {"a": 1.0}) for i in range(n)],
            [(100 + a, 100 + b) for a, b in edges],
        )
        cands = candidate_set([(i, 100 + i) for i in range(n)], pg, qg)
        compatible = _compatibility(cands, pg, qg)
        np.testing.assert_array_equal(compatible, ~np.eye(n, dtype=bool))

    @given(
        seed=st.integers(0, 2**32 - 1),
        wired=st.booleans(),
        excess=st.floats(1e-6, 5.0),
        longer=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_whose_distances_differ_past_the_tolerance_are_incompatible(
        self, seed, wired, excess, longer
    ):
        # distinct priors, distinct query nodes and the same wiring on both
        # sides, but query nodes the priors' radii plus _DIST_TOL + excess
        # nearer or farther apart
        r = np.random.default_rng(seed)
        scales = r.uniform(0.05, 0.8, (2, 3))
        a = r.uniform(-6.0, 6.0, 3)
        d = r.uniform(0.05, 10.0)
        b = a + d * random_rotation(r)[0]
        gap = scales.max(axis=1).sum() + _DIST_TOL + excess
        d_query = d + gap * (1.0 if longer or d <= gap else -1.0)
        qa = r.uniform(-3.0, 3.0, 3) + [0.0, 0.0, 6.0]
        qb = qa + d_query * random_rotation(r)[0]
        pg = graph(
            [replace(prior_node(i + 1, x, {"a": 1}), scale=scales[i]) for i, x in enumerate((a, b))],
            [(1, 2)][:wired],
        )
        qg = graph([query_node(10, qa, {"a": 1.0}), query_node(11, qb, {"a": 1.0})], [(10, 11)][:wired])
        cands = candidate_set([(1, 10), (2, 11)], pg, qg)
        assert not _compatibility(cands, pg, qg).any()

    def test_depth_map_positions_of_large_objects_keep_every_correct_pair(self):
        # a depth-map position sits on the visible surface, up to 0.7 m
        # nearer than a large object's centre, so some correct pairs'
        # distances differ by more than _DIST_TOL; the priors' radii cover it
        nodes, detections, depth, _ = large_object_frame(INTR)
        pg = knn_graph(nodes, 3)
        qg = build_query_graph(detections, k=1, k_edge=3, depth=depth, intrinsics=INTR)
        np.testing.assert_array_equal(pg.edges, qg.edges)
        gaps = scipy.spatial.distance.pdist(pg.positions) - scipy.spatial.distance.pdist(qg.positions)
        assert np.abs(gaps).max() > _DIST_TOL
        cands = candidate_set([(node.id, i) for i, node in enumerate(nodes)], pg, qg)
        compatible = _compatibility(cands, pg, qg)
        np.testing.assert_array_equal(compatible, ~np.eye(len(nodes), dtype=bool))

    @given(seed=st.integers(0, 2**16 - 1))
    @settings(max_examples=6, deadline=None)
    def test_noise_free_criterion_4_frames_keep_every_ground_truth_triangle(self, seed):
        # the distance term passes every two ground-truth pairs, so a triple
        # of them is valid exactly when the wiring alone makes it valid
        spec = SceneSpec(
            n_landmarks=30,
            bounds=((-2.0, -2.0, 0.0), (2.0, 2.0, 1.5)),
            vocabulary=[f"obj{i:02d}" for i in range(30)],
            unique_labels=True,
            min_separation=0.3,
            seed=seed,
        )
        frame_ids = range(0, 120, 8)
        prior, queries, truths = _mapped_frames(
            spec, [(2.0, 1.0), (2.6, 1.8)], (2.0, 1.4), NoiseSpec(), None, frame_ids
        )
        n_triangles = 0
        for query, truth in zip(queries, truths):
            cands = extract_candidates(score_all_pairs(prior, query), tau=3)
            gt = np.flatnonzero(
                [truth.get(q) == p for p, q in id_pairs(cands, prior, query)]
            )
            p, q = cands.prior[gt], cands.query[gt]
            wiring = (
                (p[:, None] != p)
                & (q[:, None] != q)
                & (prior.adjacency[np.ix_(p, p)] == query.adjacency[np.ix_(q, q)])
            )
            compatible = _compatibility(cands, prior, query)
            np.testing.assert_array_equal(compatible[np.ix_(gt, gt)], wiring)
            n_triangles += sum(
                is_valid_sample(t, wiring) for t in itertools.combinations(range(len(gt)), 3)
            )
        assert n_triangles > 0


def _scorer_of(cands, pg, qg):
    """The alignment scorer of a candidate set against the query graph's boxes."""
    return _AlignmentScorer(cands, pg, qg.ids, [node.bbox for node in qg.nodes], INTR, C=100.0)


def _was(pose, cands, pg, qg):
    """calculate_was, checked against the scalar oracle."""
    score, pairs = calculate_was(pose, _scorer_of(cands, pg, qg))
    candidates = id_pairs(cands, pg, qg)
    ref_score, ref_pairs = scalar_calculate_was(pose, candidates, pg, qg, INTR, C=100.0)
    assert score == pytest.approx(ref_score, abs=1e-9)
    assert pairs == ref_pairs
    return score, pairs


class TestCalculateWas:
    def test_perfect_alignment_scores_one(self):
        pg, qg, gt = _perfect_scene()
        cands = extract_candidates(score_all_pairs(pg, qg), tau=2)
        score, pairs = _was(gt, cands, pg, qg)
        assert score == 1.0
        assert pairs == [(i + 1, 100 + i) for i in range(8)]

    def test_perturbed_pose_scores_lower(self):
        pg, qg, gt = _perfect_scene()
        cands = extract_candidates(score_all_pairs(pg, qg), tau=2)
        off = Pose.from_rt(np.eye(3), gt.translation + [0.2, 0.0, 0.0])
        score, _ = _was(off, cands, pg, qg)
        assert 0.0 < score < 1.0

    def test_nothing_visible(self):
        pg, qg, gt = _perfect_scene()
        cands = extract_candidates(score_all_pairs(pg, qg), tau=2)
        behind = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, -10.0]))
        score, pairs = _was(behind, cands, pg, qg)
        assert score == 0.0 and pairs == []

    def test_tie_selects_lower_prior_id(self):
        gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
        pos = np.array([0.3, -0.2, 0.0])
        twin_a = prior_node(7, pos, {"a": 1})
        twin_b = prior_node(3, pos, {"a": 1})
        box = project_quadric_to_bbox(quadric_of(twin_a), gt, INTR)
        pg = graph([twin_b, twin_a], [])
        qg = graph([query_node(10, gt.transform(pos), {"a": 1.0}, bbox=box)], [])
        cands = candidate_set([(7, 10), (3, 10)], pg, qg)
        _, pairs = _was(gt, cands, pg, qg)
        assert pairs == [(3, 10)]

    def test_prior_may_serve_several_query_nodes(self):
        gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
        pos_a = np.array([0.3, -0.2, 0.0])
        pos_b = np.array([-0.5, 0.1, 0.2])
        pa, pb = prior_node(3, pos_a, {"a": 1}), prior_node(7, pos_b, {"a": 1})
        box_a = project_quadric_to_bbox(quadric_of(pa), gt, INTR)
        pg = graph([pa, pb], [])
        qg = graph(
            [
                query_node(10, gt.transform(pos_a), {"a": 1.0}, bbox=box_a),
                query_node(11, gt.transform(pos_a), {"a": 1.0}, bbox=box_a),
            ],
            [],
        )
        cands = candidate_set([(3, 10), (7, 10), (3, 11), (7, 11)], pg, qg)
        score, pairs = _was(gt, cands, pg, qg)
        assert score == 1.0
        assert pairs == [(3, 10), (3, 11)]


class TestAlignmentScorer:
    @pytest.mark.parametrize("off_image", [True, False])
    def test_matches_reference_loop(self, off_image, rng):
        pg, qg, gt = _perfect_scene()
        cands = extract_candidates(score_all_pairs(pg, qg), tau=3)
        poses = [gt]
        for _ in range(15):
            dr = random_rotation(rng) if rng.random() < 0.5 else np.eye(3)
            dt = rng.normal(0.0, 0.3, 3)
            poses.append(Pose.from_rt(dr @ gt.rotation_matrix(), gt.translation + dt))
        if off_image:
            # shifted views that push some landmarks (partly) out of the image
            for shift in ([2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 1.6, 0.0], [1.8, -1.4, 0.5]):
                poses.append(Pose.from_rt(np.eye(3), gt.translation + shift))
        poses.append(Pose.from_rt(np.eye(3), np.array([0.0, 0.0, -10.0])))
        pairs = id_pairs(cands, pg, qg)
        scorer = _scorer_of(cands, pg, qg)
        batch = scorer.score(*pose_arrays(poses))
        n_partly_visible = 0
        for i, pose in enumerate(poses):
            ref, ref_pairs = scalar_calculate_was(pose, pairs, pg, qg, INTR, C=100.0)
            was, selected = calculate_was(pose, scorer)
            assert batch[i] == pytest.approx(ref, abs=1e-9)
            assert was == pytest.approx(ref, abs=1e-9)
            assert selected == ref_pairs
            n_partly_visible += 0 < len(selected) < len(qg)
        if off_image:
            assert n_partly_visible > 0  # some poses lose landmarks out of the image


    def test_rendered_frames_score_exactly_one(self):
        # the simulator and the scorer project through one kernel, so a
        # noise-free conic box is its landmark's projection to the bit; two
        # projections that square differently (libm pow against x * x) leave
        # some frames at 1 - 1e-14 on this scene
        bounds = ((-2.0, -2.0, 0.0), (2.0, 2.0, 1.5))
        spec = SceneSpec(
            n_landmarks=30, bounds=bounds, vocabulary=VOCAB[:30], unique_labels=True, seed=3
        )
        scene = generate_scene(spec)
        nodes = [
            PriorObjectNode(lm.id, lm.position, lm.rotation, lm.scale, make_table({lm.label: 1}))
            for lm in scene.landmarks
        ]
        pg = graph(nodes, [])
        index = {node.id: i for i, node in enumerate(pg.nodes)}
        for pose in generate_trajectory("orbit", 100, bounds, seed=3):
            dets, assoc = render_frame(
                scene, pose, INTR, NoiseSpec(), np.random.default_rng(0), center_boxes=False
            )
            assert len(dets) >= 20
            det_ids = list(assoc)
            cands = CandidateSet(np.array([index[assoc[d]] for d in det_ids]), np.arange(len(det_ids)))
            boxes = [dets[d].bbox for d in det_ids]
            scorer = _AlignmentScorer(cands, pg, det_ids, boxes, INTR, C=100.0)
            assert scorer.score(*pose_arrays([pose]))[0] == 1.0

    @staticmethod
    def _matches_oracle(cands, pg, qg, poses):
        """A scorer's score and calculate_was over a candidate set, checked against the scalar oracle."""
        scorer = _scorer_of(cands, pg, qg)
        pairs = id_pairs(cands, pg, qg)
        batch = scorer.score(*pose_arrays(poses))
        for i, pose in enumerate(poses):
            ref, ref_pairs = scalar_calculate_was(pose, pairs, pg, qg, INTR, C=100.0)
            was, selected = calculate_was(pose, scorer)
            assert batch[i] == pytest.approx(ref, abs=1e-9)
            assert was == pytest.approx(ref, abs=1e-9)
            assert selected == ref_pairs

    @staticmethod
    def _poses(gt, rng, n=8):
        return [gt] + [
            Pose.from_rt(gt.rotation_matrix(), gt.translation + rng.normal(0.0, 0.2, 3))
            for _ in range(n)
        ]

    @staticmethod
    def _shuffled_query(qg):
        """The query graph rebuilt, through the sorting helper, from its nodes out of id order."""
        nodes = [qg.nodes[i] for i in [5, 1, 3, 0, 7, 2, 6, 4]]
        assert [node.id for node in nodes][:3] == [105, 101, 103]
        with pytest.raises(ValueError, match="node ids not strictly increasing"):
            SemanticGraph(nodes, [])
        rebuilt = graph(nodes, edge_ids(qg))
        assert rebuilt.ids == qg.ids and rebuilt.edges.tolist() == qg.edges.tolist()
        return rebuilt

    def test_query_nodes_out_of_id_order(self, rng):
        pg, qg, gt = _perfect_scene()
        qg = self._shuffled_query(qg)
        cands = extract_candidates(score_all_pairs(pg, qg), tau=3)
        pairs = id_pairs(cands, pg, qg)
        scorer = _scorer_of(cands, pg, qg)
        for pose in self._poses(gt, rng):
            was, selected = calculate_was(pose, scorer)
            ref, ref_pairs = scalar_calculate_was(pose, pairs, pg, qg, INTR, C=100.0)
            assert abs(was - ref) <= 1e-12
            assert selected == ref_pairs
            assert [q for _, q in selected] == sorted(q for _, q in selected)
        self._matches_oracle(cands, pg, qg, self._poses(gt, rng))

    def test_estimate_pose_on_query_nodes_out_of_id_order(self):
        pg, qg, gt = _perfect_scene(center_boxes=True)
        qg = self._shuffled_query(qg)
        for seed in range(4):
            got = _matches_serial(qg, pg, MatcherConfig(tau=2, n_iter=200, rng_seed=seed))
            assert got.status == LocalizationStatus.SUCCESS
            assert got.correspondences == [(i + 1, 100 + i) for i in range(8)]

    def test_query_node_with_a_single_candidate(self, rng):
        pg, qg, gt = _perfect_scene()
        pairs = id_pairs(extract_candidates(score_all_pairs(pg, qg), tau=3), pg, qg)
        # node 103 keeps only its own landmark, node 105 only a wrong one
        pairs = [(p, q) for p, q in pairs if q not in (103, 105)] + [(4, 103), (1, 105)]
        cands = candidate_set(sorted(pairs, key=lambda pair: pair[1]), pg, qg)
        self._matches_oracle(cands, pg, qg, self._poses(gt, rng))

    def test_query_node_without_a_visible_prior(self, rng):
        pg, qg, gt = _perfect_scene()
        # landmarks 98 and 99 lie behind the camera of every pose tried
        behind = [
            prior_node(98, [0.5, 0.0, -8.0], {VOCAB[0]: 1}),
            prior_node(99, [0.0, 0.0, -9.0], {VOCAB[2]: 1}),
        ]
        pg = graph(list(pg.nodes) + behind, edge_ids(pg))
        pairs = id_pairs(extract_candidates(score_all_pairs(pg, qg), tau=2), pg, qg)
        pairs = [(p, q) for p, q in pairs if q != 102] + [(98, 102), (99, 102)]
        cands = candidate_set(sorted(pairs, key=lambda pair: pair[1]), pg, qg)
        poses = self._poses(gt, rng)
        self._matches_oracle(cands, pg, qg, poses)
        scorer = _scorer_of(cands, pg, qg)
        for pose in poses:
            assert 102 not in [q for _, q in calculate_was(pose, scorer)[1]]

    def test_infinite_extents_are_not_visible(self):
        # a dual quadric whose conic (0, 2) entry squares past the float range:
        # the kernel returns x extents -inf and inf and calls the box not visible
        q = np.zeros((4, 4))
        q[0, 2] = q[2, 0] = 1e200
        q[1, 1] = 0.01
        q[2, 2] = -1.0
        q[:3, 3] = q[3, :3] = [0.0, 0.0, 2.0]
        q[3, 3] = 1.0
        pose = Pose.from_rt(np.eye(3), np.zeros(3))
        ext, ok = _project_quadrics(q[None], *pose_arrays([pose]), INTR)  # no overflow warning escapes
        assert not ok[0, 0] and ext[0, 0, 0] == -np.inf and ext[0, 0, 2] == np.inf
        pg = graph([prior_node(1, [0.0, 0.0, 2.0], {"a": 1})], [])
        wide = BoundingBox(0.0, float(ext[0, 0, 1]), 640.0, float(ext[0, 0, 3]))
        one = CandidateSet(np.array([0]), np.array([0]))
        scorer = _AlignmentScorer(one, pg, [10], [wide], INTR, C=100.0)
        scorer.quads = q[None]
        # clipped to the image, the box would match `wide` exactly and score 1
        assert scorer.score(*pose_arrays([pose]))[0] == 0.0
        assert calculate_was(pose, scorer) == (0.0, [])


class TestEstimatePose:
    def test_recovers_exact_pose(self):
        pg, qg, gt = _perfect_scene(center_boxes=True)
        cfg = MatcherConfig(tau=2, n_iter=200, rng_seed=5)
        res = estimate_pose(qg, pg, cfg, INTR)
        assert res.status == LocalizationStatus.SUCCESS
        assert res.was > 0.99
        assert np.linalg.norm(res.pose.camera_center() - gt.camera_center()) < 1e-6
        assert quat_distance(res.pose.rotation, gt.rotation) < 1e-6
        assert set(res.correspondences) == {(i + 1, 100 + i) for i in range(8)}

    def test_deterministic_for_fixed_seed(self):
        pg, qg, gt = _perfect_scene()
        cfg = MatcherConfig(tau=3, n_iter=60, rng_seed=11, early_exit_was=None)
        a = estimate_pose(qg, pg, cfg, INTR)
        b = estimate_pose(qg, pg, cfg, INTR)
        assert a.history == b.history
        assert a.n_valid_samples == b.n_valid_samples
        np.testing.assert_array_equal(a.pose.translation, b.pose.translation)
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)

    def test_history_is_strictly_improving(self):
        pg, qg, gt = _perfect_scene()
        cfg = MatcherConfig(tau=3, n_iter=80, rng_seed=2, early_exit_was=None)
        res = estimate_pose(qg, pg, cfg, INTR)
        its = [it for it, _ in res.history]
        scores = [w for _, w in res.history]
        assert its == sorted(its)
        assert all(b > a for a, b in zip(scores, scores[1:]))

    def test_early_exit_stops_search(self):
        pg, qg, gt = _perfect_scene()
        eager = estimate_pose(qg, pg, MatcherConfig(tau=2, n_iter=5000, rng_seed=5), INTR)
        assert eager.status == LocalizationStatus.SUCCESS
        # a perfect frame should be accepted long before the budget runs out
        assert eager.history[-1][0] < 100

    def test_all_nan_scores_are_insufficient_detections(self, caplog):
        pg, qg, _ = _perfect_scene(center_boxes=True)

        def frame(score):
            dets = [
                DetectionRecord(
                    node.bbox, [(l, score) for l, _ in node.confidences], node.position
                )
                for node in qg.nodes
            ]
            return FrameRecord(0, 0.0, dets)

        config = MatcherConfig(tau=2, rng_seed=5)
        assert _localize_frame(frame(1.0), pg, INTR, config, None).status == "success"
        with caplog.at_level("WARNING", logger="semloc.graph"):
            res = _localize_frame(frame(np.nan), pg, INTR, config, None)
        assert res.status == "insufficient-detections"
        assert res.pose is None and res.correspondences == [] and res.mean_entropy is None
        assert caplog.text.count("not finite and nonnegative") == len(qg)

    def test_insufficient_query_nodes(self):
        pg, qg, _ = _perfect_scene()
        tiny = graph(qg.nodes[:2], [])
        res = estimate_pose(tiny, pg, MatcherConfig(), INTR)
        assert res.status == LocalizationStatus.INSUFFICIENT_DETECTIONS
        assert "query nodes" in res.message

    def test_insufficient_candidate_pairs(self):
        _, qg, _ = _perfect_scene()
        # an empty map offers no candidate priors
        res = estimate_pose(qg, graph([], []), MatcherConfig(), INTR)
        assert res.status == LocalizationStatus.INSUFFICIENT_DETECTIONS
        assert res.message == "0 candidate pairs, need 3"

    def test_fewer_than_three_committed_pairs_is_degenerate(self):
        # three landmarks, one candidate each, seen from 4 m; the camera lies
        # inside the third (5 m across), so under the solved pose, the true
        # one, only two landmarks project to a box: too few correspondences
        # to call the frame localized
        gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
        pts = [[-0.6, 0.1, 0.0], [0.5, 0.3, 0.2], [0.1, -0.4, -0.1]]
        p_nodes = [prior_node(i + 1, pts[i], {VOCAB[i]: 1}) for i in range(3)]
        p_nodes[2] = replace(p_nodes[2], scale=np.full(3, 5.0))
        assert project_quadric_to_bbox(quadric_of(p_nodes[2]), gt, INTR) is None
        q_nodes = []
        for i, node in enumerate(p_nodes):
            cam = gt.transform(node.position)
            box = project_quadric_to_bbox(quadric_of(node), gt, INTR)
            if box is None:  # the third: an 80 px box about its center's image
                u, v = INTR.fx * cam[0] / cam[2] + INTR.cx, INTR.fy * cam[1] / cam[2] + INTR.cy
                box = BoundingBox(u - 40.0, v - 40.0, u + 40.0, v + 40.0)
            q_nodes.append(query_node(100 + i, cam, {VOCAB[i]: 1.0}, bbox=box))
        qg = graph(q_nodes, [(100, 101), (100, 102), (101, 102)])
        pg = graph(p_nodes, [(1, 2), (1, 3), (2, 3)])
        res = _matches_serial(qg, pg, MatcherConfig(tau=1))
        assert res.status == LocalizationStatus.DEGENERATE
        assert res.message == "best pose commits 2 correspondences, need 3"
        assert res.pose is None and res.correspondences == []
        assert res.history[-1][1] == pytest.approx(0.9995, abs=1e-4)

    def test_no_valid_sample_on_structural_mismatch(self):
        qg, pg = _edge_mismatch_frame()
        res = estimate_pose(qg, pg, MatcherConfig(tau=3, n_iter=500), INTR)
        assert res.status == LocalizationStatus.NO_VALID_SAMPLE
        assert res.n_valid_samples == 0

    def test_degenerate_when_p3p_never_solves(self):
        qg, pg = _collinear_frame()
        res = estimate_pose(qg, pg, MatcherConfig(tau=3, n_iter=500), INTR)
        assert res.status == LocalizationStatus.DEGENERATE
        assert res.n_valid_samples > 0


def _same_label_frame(seed: int, n: int):
    """n landmarks that all carry one label, seen noise-free from 4 m."""
    r = np.random.default_rng(seed)
    gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
    pos = np.column_stack(
        [r.uniform(-1.2, 1.2, n), r.uniform(-1.0, 1.0, n), r.uniform(-0.3, 0.3, n)]
    )
    p_nodes = [prior_node(i + 1, pos[i], {"a": 3, "b": 1}, total=4) for i in range(n)]
    q_nodes = [
        query_node(
            100 + i,
            gt.transform(pos[i]),
            {"a": 0.7, "b": 0.3},
            bbox=project_quadric_to_bbox(quadric_of(p), gt, INTR).clamped(INTR.width, INTR.height),
        )
        for i, p in enumerate(p_nodes)
    ]
    return knn_graph(q_nodes, 3), knn_graph(p_nodes, 3)


class TestDegenerateStructure:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_p=st.integers(3, 9),
        n_q=st.integers(3, 6),
        complete_prior=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_matching_triangle_is_no_valid_sample(self, seed, n_p, n_q, complete_prior):
        # one side is bipartite, so triangle-free; every triple of the other
        # side is a triangle: no prior triple has a query triple's edge pattern
        r = np.random.default_rng(seed)
        p_nodes = [
            prior_node(i, r.uniform(-1, 1, 3), {VOCAB[int(r.integers(0, 4))]: 1})
            for i in range(n_p)
        ]
        q_nodes = [
            query_node(100 + j, r.uniform(-1, 1, 3) + [0, 0, 4], {VOCAB[int(r.integers(0, 4))]: 1.0})
            for j in range(n_q)
        ]

        def wire(ids, complete):
            if complete:
                return [(a, b) for k, a in enumerate(ids) for b in ids[k + 1 :]]
            side = r.random(len(ids)) < 0.5
            return [
                (a, b)
                for k, a in enumerate(ids)
                for m, b in enumerate(ids[k + 1 :], start=k + 1)
                if side[k] != side[m] and r.random() < 0.7
            ]

        pg = graph(p_nodes, wire([p.id for p in p_nodes], complete_prior))
        qg = graph(q_nodes, wire([q.id for q in q_nodes], not complete_prior))
        res = estimate_pose(qg, pg, MatcherConfig(rng_seed=seed), INTR)
        assert res.status == LocalizationStatus.NO_VALID_SAMPLE
        assert res.n_valid_samples == 0 and res.pose is None

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 9),
        tau=st.integers(1, 4),
        early_exit_was=st.sampled_from([None, 0.99]),
    )
    @settings(max_examples=20, deadline=None)
    def test_identical_labels_deterministic_and_honest(self, seed, n, tau, early_exit_was):
        qg, pg = _same_label_frame(seed, n)
        config = MatcherConfig(tau=tau, n_iter=60, rng_seed=seed, early_exit_was=early_exit_was)
        a = estimate_pose(qg, pg, config, INTR)
        _assert_same_result(a, estimate_pose(qg, pg, config, INTR))
        if a.status == LocalizationStatus.SUCCESS:
            assert np.isfinite(a.pose.rotation).all() and np.isfinite(a.pose.translation).all()
            assert len(a.correspondences) >= 3
            assert 0.0 < a.was <= 1.0


def _assert_same_result(a, b):
    """Two localization results agree to the bit."""
    assert (a.status, a.message, a.history) == (b.status, b.message, b.history)
    assert (a.n_valid_samples, a.correspondences, a.was) == (b.n_valid_samples, b.correspondences, b.was)
    assert (a.pose is None) == (b.pose is None)
    if a.pose is not None:
        assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
        assert a.pose.translation.tobytes() == b.pose.translation.tobytes()


class TestReusedPriorGraph:
    """A prior graph builds its tables once and serves every frame with them:
    each frame localized against one graph gets the result a freshly built
    graph gives. score_all_pairs adds into its likelihood matrix in place, so
    a cached table handed out instead of a new array would leak into the
    next frame."""

    @pytest.mark.parametrize(
        "frames",
        [
            lambda: _latency_scene_frames(seed=0, frame_ids=[0, 23, 42, 77]),
            lambda: _wide_scene_frames(seed=0, frame_ids=[5, 33, 60, 90], n_dets=64),
        ],
        ids=["criterion-8", "wide"],
    )
    def test_each_frame_matches_a_fresh_graph(self, frames):
        prior, queries, _ = frames()
        for i, query in enumerate(queries):
            config = MatcherConfig(rng_seed=_localize_seed(i))
            want = estimate_pose(query, SemanticGraph(prior.nodes, prior.edges), config, INTR)
            _assert_same_result(estimate_pose(query, prior, config, INTR), want)
        assert {"quadrics", "radii", "label_table"} <= vars(prior).keys()


def _seen_frame(pos, labels, clutter):
    """Query and prior graphs of one-label landmarks seen noise-free from 4 m.

    Each landmark whose box is left in the image becomes a query node with
    its own label; each clutter entry (camera-frame position, label, box) adds
    a detection that no landmark explains. Both sides are wired to their 3
    nearest neighbors.
    """
    gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
    p_nodes = [prior_node(i + 1, p, {label: 1}) for i, (p, label) in enumerate(zip(pos, labels))]
    q_nodes = []
    for node, label in zip(p_nodes, labels):
        box = project_quadric_to_bbox(quadric_of(node), gt, INTR)
        box = box and box.clamped(INTR.width, INTR.height)
        if box is not None:
            position = gt.transform(node.position)
            q_nodes.append(query_node(99 + node.id, position, {label: 1.0}, bbox=box))
    for j, (position, label, box) in enumerate(clutter):
        q_nodes.append(query_node(200 + j, position, {label: 1.0}, bbox=box))
    return knn_graph(q_nodes, 3), knn_graph(p_nodes, 3)


def _assert_honest(res):
    """A success has a finite pose and at least 3 correspondences."""
    if res.status == LocalizationStatus.SUCCESS:
        assert np.isfinite(res.pose.rotation).all() and np.isfinite(res.pose.translation).all()
        assert len(res.correspondences) >= 3
        assert 0.0 < res.was <= 1.0


class TestDegenerateGeometry:
    """Scenes P3P cannot (fully) solve: the chunked loop stays honest and
    agrees with the serial oracle."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        n_off_line=st.integers(0, 2),
        tau=st.integers(1, 3),
        early_exit_was=st.sampled_from([None, 0.99]),
    )
    @settings(max_examples=25, deadline=None)
    def test_collinear_landmarks(self, seed, n, n_off_line, tau, early_exit_was):
        r = np.random.default_rng(seed)
        direction = r.normal(size=3)
        direction /= np.linalg.norm(direction)
        on_line = r.uniform(-0.3, 0.3, 3) + r.uniform(-1.5, 1.5, (n, 1)) * direction
        off_line = r.uniform([-1.2, -1.0, -0.3], [1.2, 1.0, 0.3], (n_off_line, 3))
        pos = np.concatenate([on_line, off_line])
        labels = [VOCAB[int(k)] for k in r.integers(0, 3, len(pos))]
        qg, pg = _seen_frame(pos, labels, clutter=[])
        config = MatcherConfig(tau=tau, n_iter=60, rng_seed=seed, early_exit_was=early_exit_was)
        res = _matches_serial(qg, pg, config)
        _assert_honest(res)
        if n_off_line == 0:  # every triple is collinear: P3P never solves
            assert res.status != LocalizationStatus.SUCCESS and res.pose is None

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_visible=st.integers(0, 2),
        n_hidden=st.integers(3, 6),
        n_extra_clutter=st.integers(0, 2),
        tau=st.integers(1, 3),
        early_exit_was=st.sampled_from([None, 0.99]),
    )
    @settings(max_examples=25, deadline=None)
    def test_fewer_than_three_visible_landmarks(
        self, seed, n_visible, n_hidden, n_extra_clutter, tau, early_exit_was
    ):
        # hidden landmarks lie behind the camera; clutter detections make up
        # the query's three or more nodes
        r = np.random.default_rng(seed)
        visible = r.uniform([-1.2, -1.0, -0.3], [1.2, 1.0, 0.3], (n_visible, 3))
        hidden = r.uniform([-2.0, -2.0, -9.0], [2.0, 2.0, -6.0], (n_hidden, 3))
        pos = np.concatenate([visible, hidden])
        labels = [VOCAB[int(k)] for k in r.integers(0, 3, len(pos))]
        clutter = []
        for _ in range(3 - n_visible + n_extra_clutter):
            x0, y0 = r.uniform(0.0, 560.0), r.uniform(0.0, 400.0)
            w, h = r.uniform(10.0, 80.0, 2)
            position = r.uniform([-1.0, -1.0, 3.0], [1.0, 1.0, 5.0])
            box = BoundingBox(x0, y0, x0 + w, y0 + h)
            clutter.append((position, VOCAB[int(r.integers(0, 3))], box))
        qg, pg = _seen_frame(pos, labels, clutter)
        config = MatcherConfig(tau=tau, n_iter=60, rng_seed=seed, early_exit_was=early_exit_was)
        _assert_honest(_matches_serial(qg, pg, config))


def _matches_serial(query, prior, config):
    """estimate_pose, checked against the loop solving one draw at a time."""
    got = estimate_pose(query, prior, config, INTR)
    want = serial_estimate_pose(query, prior, config, INTR)
    assert got.status == want.status
    assert got.message == want.message
    assert got.n_valid_samples == want.n_valid_samples
    assert got.correspondences == want.correspondences
    assert [it for it, _ in got.history] == [it for it, _ in want.history]
    np.testing.assert_allclose(
        [w for _, w in got.history], [w for _, w in want.history], rtol=0.0, atol=1e-12
    )
    assert got.was == pytest.approx(want.was, abs=1e-12)
    if got.status == LocalizationStatus.SUCCESS:
        # the winner scores the same bits in the loop and in calculate_was
        assert got.was == got.history[-1][1]
    assert (got.pose is None) == (want.pose is None)
    if want.pose is not None:
        np.testing.assert_allclose(got.pose.rotation, want.pose.rotation, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(
            got.pose.translation, want.pose.translation, rtol=0.0, atol=1e-9
        )
    return got


def _n_pairs(query, prior, tau):
    return len(extract_candidates(score_all_pairs(prior, query), tau))


def _chunk_ends(n_valid: int) -> list[int]:
    """Valid-sample counts at which the sampling loop's chunks end, through n_valid."""
    return list(range(_CHUNK, n_valid + _CHUNK, _CHUNK))


def _record_stacks(monkeypatch) -> list[int]:
    """Samples per p3p_solve call that estimate_pose makes from now on."""
    sizes: list[int] = []
    solve = semloc.pose.p3p_solve

    def recording(world_points, bearings):
        sizes.append(len(world_points))
        return solve(world_points, bearings)

    monkeypatch.setattr(semloc.pose, "p3p_solve", recording)
    return sizes


class TestBenchmarkHooks:
    """perfbench traces `p3p_solve`, `_AlignmentScorer.score`, `calculate_was`
    and `is_valid_sample` by name on semloc.pose; a refactor that inlines
    one of them must fail here, not only in the benchmark's smoke test."""

    def test_each_hook_is_called_per_chunk_draw_and_frame(self, monkeypatch):
        prior, queries, _ = _latency_scene_frames(seed=0, frame_ids=[5])
        config = MatcherConfig(rng_seed=_localize_seed(5), early_exit_was=None)
        calls = dict.fromkeys(["p3p_solve", "score", "calculate_was", "is_valid_sample"], 0)
        for owner, name in (
            (semloc.pose, "p3p_solve"),
            (_AlignmentScorer, "score"),
            (semloc.pose, "calculate_was"),
            (semloc.pose, "is_valid_sample"),
        ):

            def counting(*args, _name=name, _wrapped=getattr(owner, name)):
                calls[_name] += 1
                return _wrapped(*args)

            monkeypatch.setattr(owner, name, counting)
        res = estimate_pose(queries[0], prior, config, INTR)
        assert res.status == LocalizationStatus.SUCCESS
        chunks = len(_chunk_ends(res.n_valid_samples))
        assert chunks == 2
        assert calls["p3p_solve"] == calls["score"] == chunks
        assert calls["calculate_was"] == 1
        # without an early exit every draw is checked
        n_pairs = _n_pairs(queries[0], prior, config.tau)
        assert calls["is_valid_sample"] == min(config.n_iter, math.comb(n_pairs, 3))


class TestChunkedLoopMatchesSerial:
    """estimate_pose solves and scores valid samples _CHUNK at a time; it
    must return what the loop solving one draw at a time returns."""

    def test_criterion_8_frames(self):
        frame_ids = [0, 23, 42, 77, 101]
        prior, queries, _ = _latency_scene_frames(seed=0, frame_ids=frame_ids)
        for frame_id, query in zip(frame_ids, queries):
            config = MatcherConfig(rng_seed=_localize_seed(frame_id))
            _matches_serial(query, prior, config)
            _matches_serial(query, prior, replace(config, early_exit_was=None))
            # an exit threshold these frames reach within the budget
            _matches_serial(query, prior, replace(config, early_exit_was=0.9))

    def test_early_exit_inside_a_chunk(self):
        pg, qg, _ = _perfect_scene(center_boxes=True)
        cut_inside = 0
        for seed in range(12):
            res = _matches_serial(qg, pg, MatcherConfig(tau=3, rng_seed=seed))
            assert res.history[-1][1] > 0.99  # the loop stopped on early exit
            cut_inside += res.n_valid_samples not in _chunk_ends(res.n_valid_samples)
        assert cut_inside > 0

    def test_early_exit_inside_grown_chunks(self):
        # ten landmarks and four candidates each: some seeds exit after 24
        # valid samples, inside the second (48) or the third (72) chunk
        pg, qg, _ = _perfect_scene(n=10, center_boxes=True, spread=_COMPACT)
        assert scipy.spatial.distance.pdist(pg.positions).max() <= _DIST_TOL
        cut_in = set()
        for seed in range(60):
            res = _matches_serial(qg, pg, MatcherConfig(tau=4, n_iter=1000, rng_seed=seed))
            assert res.history[-1][1] > 0.99
            ends = _chunk_ends(res.n_valid_samples)
            if res.n_valid_samples not in ends:
                cut_in.add(len(ends) - 1)  # index of the chunk the cut falls in
        assert {1, 2} <= cut_in

    def test_without_early_exit(self):
        pg, qg, _ = _perfect_scene()
        for seed in range(3):
            _matches_serial(
                qg, pg, MatcherConfig(tau=3, n_iter=120, rng_seed=seed, early_exit_was=None)
            )

    def test_full_budget_spans_four_chunks(self, monkeypatch):
        pg, qg, _ = _perfect_scene(spread=_COMPACT)
        assert scipy.spatial.distance.pdist(pg.positions).max() <= _DIST_TOL
        stacks = _record_stacks(monkeypatch)
        config = MatcherConfig(tau=3, n_iter=600, rng_seed=2, early_exit_was=None)
        res = _matches_serial(qg, pg, config)
        assert res.n_valid_samples == 84
        assert stacks == [24, 24, 24, 12]

    def test_stack_sizes_follow_the_schedule(self, monkeypatch):
        pg, qg, _ = _perfect_scene(n=10, center_boxes=True)
        stacks = _record_stacks(monkeypatch)
        for seed in range(10):
            stacks.clear()
            res = estimate_pose(qg, pg, MatcherConfig(tau=4, n_iter=1000, rng_seed=seed), INTR)
            ends = _chunk_ends(res.n_valid_samples)
            # the chunk the early exit cuts is drawn and solved in full, too
            assert stacks == np.diff([0] + ends).tolist()

    def test_large_budget_stacks_stay_within_a_chunk(self, monkeypatch):
        pg, qg, _ = _perfect_scene()
        stacks = _record_stacks(monkeypatch)
        config = MatcherConfig(tau=3, n_iter=3000, rng_seed=0, early_exit_was=None)
        res = _matches_serial(qg, pg, config)
        assert sum(stacks) == res.n_valid_samples > 150
        assert max(stacks) == _CHUNK

    def test_triple_space_runs_out_before_n_iter(self, monkeypatch):
        pg, qg, _ = _perfect_scene(n=5)
        config = MatcherConfig(tau=1, n_iter=200, rng_seed=3, early_exit_was=None)
        assert _n_pairs(qg, pg, config.tau) == 5
        draws = []
        check = semloc.pose.is_valid_sample
        monkeypatch.setattr(
            semloc.pose, "is_valid_sample", lambda *args: draws.append(args[0]) or check(*args)
        )
        res = _matches_serial(qg, pg, config)
        assert sorted(map(tuple, draws)) == list(itertools.combinations(range(5), 3))
        assert 0 < res.n_valid_samples <= 10

    def test_no_valid_sample_and_degenerate(self):
        qg, pg = _edge_mismatch_frame()
        assert _matches_serial(qg, pg, MatcherConfig(tau=3, n_iter=500)).status == (
            LocalizationStatus.NO_VALID_SAMPLE
        )
        qg, pg = _collinear_frame()
        assert _matches_serial(qg, pg, MatcherConfig(tau=3, n_iter=500)).status == (
            LocalizationStatus.DEGENERATE
        )
