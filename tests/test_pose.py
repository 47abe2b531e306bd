from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc import (
    BoundingBox,
    CameraIntrinsics,
    CandidateSet,
    DetectionRecord,
    LocalizationStatus,
    MatcherConfig,
    NoiseSpec,
    Pose,
    PriorObjectNode,
    SceneSpec,
    build_knn_edges,
    build_query_graph,
    calculate_was,
    estimate_pose,
    extract_candidates,
    generate_scene,
    generate_trajectory,
    is_valid_sample,
    prior_graph_from_nodes,
    project_quadric_to_bbox,
    render_frame,
    render_sequence,
    score_all_pairs,
)
import semloc.pose
from semloc.cli import _accumulate_map, _localize_frame, _seed_children
from semloc.dataio import FrameRecord
from semloc.geometry import _project_quadrics, quat_distance
from semloc.pose import _CHUNK, _AlignmentScorer, _chunk_cap

from conftest import (
    VOCAB,
    graph,
    make_table,
    prior_node,
    quadric_of,
    query_node,
    random_rotation,
)
from oracles import scalar_calculate_was, serial_estimate_pose


INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)


def _perfect_scene(n=8, seed=3, center_boxes=False):
    """Landmarks with unique labels rendered noise-free from a known pose.

    center_boxes shifts each box onto the projected landmark center so the
    center bearing is exact; raw conic boxes carry a subpixel ellipse bias.
    """
    r = np.random.default_rng(seed)
    gt = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
    pos = np.column_stack(
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
    pg = graph(p_nodes, build_knn_edges(pos, 3, ids=[p.id for p in p_nodes]))
    q_pos = np.stack([q.position for q in q_nodes])
    qg = graph(q_nodes, build_knn_edges(q_pos, 3, ids=[q.id for q in q_nodes]))
    # rigid map preserves distances, so the wiring must agree
    assert {(a - 1, b - 1) for a, b in pg.edges} == {(a - 100, b - 100) for a, b in qg.edges}
    return pg, qg, gt


def _latency_scene_frames(seed: int, frame_ids):
    """Prior graph and query graphs of frames of the criterion-8 latency
    scene (50 unique labels, 10 detections a frame), built with every seed
    of its recipe set to `seed`."""
    spec = SceneSpec(
        n_landmarks=50,
        bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
        vocabulary=[f"obj{i:02d}" for i in range(50)],
        unique_labels=True,
        min_separation=0.25,
        seed=seed,
    )
    scene = generate_scene(spec)
    s1, s2, s3, s4, s5 = _seed_children(seed, 5)
    kf_poses = generate_trajectory(
        "orbit", 40, spec.bounds, seed=s1, radius=2.0, height=1.0
    ) + generate_trajectory("orbit", 40, spec.bounds, seed=s2, radius=2.6, height=1.8)
    kf_frames = render_sequence(scene, kf_poses, INTR, NoiseSpec(), seed=s3)
    q_poses = generate_trajectory("orbit", 120, spec.bounds, seed=s4, radius=2.0, height=1.4)
    noise = NoiseSpec(bbox_jitter=1.0, depth_sigma=0.03, temperature=0.3)
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
        build_query_graph(rendered[i][0][:10], k=config.K, k_edge=config.k_edge, intrinsics=INTR)
        for i in frame_ids
    ]
    return prior, queries


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

    @pytest.mark.parametrize("name", ["K", "tau", "n_iter", "k_edge", "rng_seed"])
    def test_rejects_non_integer_counts(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MatcherConfig(**{name: 2.5})

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
    def _graphs(self):
        pg = graph(
            [prior_node(i, (float(i), 0, 0), {"a": 1}) for i in range(1, 5)],
            [(1, 2), (2, 3)],
        )
        qg = graph(
            [query_node(i, (float(i), 0, 5), {"a": 1.0}) for i in range(10, 14)],
            [(10, 11), (11, 12)],
        )
        return pg, qg

    def test_accepts_matching_pattern(self):
        pg, qg = self._graphs()
        assert is_valid_sample([(1, 10), (2, 11), (3, 12)], pg, qg, set())

    def test_rejects_duplicate_prior(self):
        pg, qg = self._graphs()
        assert not is_valid_sample([(1, 10), (1, 11), (3, 12)], pg, qg, set())

    def test_rejects_duplicate_query(self):
        pg, qg = self._graphs()
        assert not is_valid_sample([(1, 10), (2, 10), (3, 12)], pg, qg, set())

    def test_rejects_edge_pattern_mismatch(self):
        pg, qg = self._graphs()
        # prior 4 is isolated but query 11-12 are connected
        assert not is_valid_sample([(1, 10), (2, 11), (4, 12)], pg, qg, set())

    def test_used_set_is_order_insensitive(self):
        pg, qg = self._graphs()
        used = {frozenset({(2, 11), (1, 10), (3, 12)})}
        assert not is_valid_sample([(3, 12), (1, 10), (2, 11)], pg, qg, used)

    def test_rejects_wrong_size(self):
        pg, qg = self._graphs()
        assert not is_valid_sample([(1, 10), (2, 11)], pg, qg, set())


def _was(pose, cands, pg, qg):
    """calculate_was, checked against the scalar oracle."""
    score, pairs = calculate_was(pose, cands, pg, qg, INTR, C=100.0)
    ref_score, ref_pairs = scalar_calculate_was(pose, cands, pg, qg, INTR, C=100.0)
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
        cands = CandidateSet([(7, 10), (3, 10)], tau=2)
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
        cands = CandidateSet([(3, 10), (7, 10), (3, 11), (7, 11)], tau=2)
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
        boxes = {q: qg.node(q).bbox for q in cands.query_ids()}
        scorer = _AlignmentScorer(cands.pairs, pg, boxes, INTR, C=100.0)
        batch = scorer.score(poses)
        n_partly_visible = 0
        for i, pose in enumerate(poses):
            ref, ref_pairs = scalar_calculate_was(pose, cands, pg, qg, INTR, C=100.0)
            was, pairs = scorer.select(pose)
            assert batch[i] == pytest.approx(ref, abs=1e-9)
            assert was == pytest.approx(ref, abs=1e-9)
            assert pairs == ref_pairs
            n_partly_visible += 0 < len(pairs) < len(cands.query_ids())
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
        for pose in generate_trajectory("orbit", 100, bounds, seed=3):
            dets, assoc = render_frame(
                scene, pose, INTR, NoiseSpec(), np.random.default_rng(0), center_boxes=False
            )
            assert len(dets) >= 20
            pairs = [(lm_id, d) for d, lm_id in assoc.items()]
            scorer = _AlignmentScorer(pairs, pg, {d: dets[d].bbox for d in assoc}, INTR, C=100.0)
            assert scorer.score([pose])[0] == 1.0

    @staticmethod
    def _matches_oracle(pairs, pg, qg, poses):
        """score and select of a scorer over pairs, checked against the scalar oracle."""
        cands = CandidateSet(list(pairs), tau=len(pairs))
        scorer = _AlignmentScorer(pairs, pg, {q: qg.node(q).bbox for _, q in pairs}, INTR, C=100.0)
        batch = scorer.score(poses)
        for i, pose in enumerate(poses):
            ref, ref_pairs = scalar_calculate_was(pose, cands, pg, qg, INTR, C=100.0)
            was, selected = scorer.select(pose)
            assert batch[i] == pytest.approx(ref, abs=1e-9)
            assert was == pytest.approx(ref, abs=1e-9)
            assert selected == ref_pairs
        return batch

    @staticmethod
    def _poses(gt, rng, n=8):
        return [gt] + [
            Pose.from_rt(gt.rotation_matrix(), gt.translation + rng.normal(0.0, 0.2, 3))
            for _ in range(n)
        ]

    def test_pairs_out_of_query_order(self, rng):
        pg, qg, gt = _perfect_scene()
        pairs = extract_candidates(score_all_pairs(pg, qg), tau=3).pairs
        poses = self._poses(gt, rng)
        in_order = self._matches_oracle(pairs, pg, qg, poses)
        for _ in range(3):
            shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
            assert shuffled != sorted(shuffled, key=lambda pair: pair[1])
            assert np.array_equal(self._matches_oracle(shuffled, pg, qg, poses), in_order)

    def test_query_node_with_a_single_candidate(self, rng):
        pg, qg, gt = _perfect_scene()
        pairs = extract_candidates(score_all_pairs(pg, qg), tau=3).pairs
        # node 103 keeps only its own landmark, node 105 only a wrong one
        pairs = [(p, q) for p, q in pairs if q not in (103, 105)] + [(4, 103), (1, 105)]
        self._matches_oracle(pairs, pg, qg, self._poses(gt, rng))

    def test_query_node_without_a_visible_prior(self, rng):
        pg, qg, gt = _perfect_scene()
        # landmarks 98 and 99 lie behind the camera of every pose tried
        behind = [
            prior_node(98, [0.5, 0.0, -8.0], {VOCAB[0]: 1}),
            prior_node(99, [0.0, 0.0, -9.0], {VOCAB[2]: 1}),
        ]
        pg = graph(list(pg.nodes) + behind, pg.edges)
        pairs = extract_candidates(score_all_pairs(pg, qg), tau=2).pairs
        pairs = [(p, q) for p, q in pairs if q != 102] + [(98, 102), (99, 102)]
        poses = self._poses(gt, rng)
        self._matches_oracle(pairs, pg, qg, poses)
        scorer = _AlignmentScorer(pairs, pg, {q: qg.node(q).bbox for _, q in pairs}, INTR, C=100.0)
        for pose in poses:
            assert 102 not in [q for _, q in scorer.select(pose)[1]]

    def test_infinite_extents_are_not_visible(self):
        # a dual quadric whose conic (0, 2) entry squares past the float range:
        # the kernel returns x extents -inf and inf and calls the box visible
        q = np.zeros((4, 4))
        q[0, 2] = q[2, 0] = 1e200
        q[1, 1] = 0.01
        q[2, 2] = -1.0
        q[:3, 3] = q[3, :3] = [0.0, 0.0, 2.0]
        q[3, 3] = 1.0
        pose = Pose.from_rt(np.eye(3), np.zeros(3))
        ext, ok = _project_quadrics(q[None], [pose], INTR)  # no overflow warning escapes
        assert ok[0, 0] and ext[0, 0, 0] == -np.inf and ext[0, 0, 2] == np.inf
        pg = graph([prior_node(1, [0.0, 0.0, 2.0], {"a": 1})], [])
        wide = BoundingBox(0.0, float(ext[0, 0, 1]), 640.0, float(ext[0, 0, 3]))
        scorer = _AlignmentScorer([(1, 10)], pg, {10: wide}, INTR, C=100.0)
        scorer.quads = q[None]
        # clipped to the image, the box would match `wide` exactly and score 1
        assert scorer.score([pose])[0] == 0.0
        assert scorer.select(pose) == (0.0, [])


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
                    node.bbox, [(l, score) for l, _ in node.confidences.entries], node.position
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
        tiny = graph([qg.node(100), qg.node(101)], [])
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
        # the best pose of this frame aligns 2 of 10 detections (WAS 0.92):
        # too few correspondences to call the frame localized
        prior, [query] = _latency_scene_frames(seed=4, frame_ids=[42])
        res = estimate_pose(query, prior, MatcherConfig(rng_seed=_localize_seed(42)), INTR)
        assert res.status == LocalizationStatus.DEGENERATE
        assert res.message == "best pose commits 2 correspondences, need 3"
        assert res.pose is None and res.correspondences == []
        assert res.history[-1][1] == pytest.approx(0.9216, abs=1e-4)

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
    pg = graph(p_nodes, build_knn_edges(pos, 3, ids=[p.id for p in p_nodes]))
    q_pos = np.stack([q.position for q in q_nodes])
    return graph(q_nodes, build_knn_edges(q_pos, 3, ids=[q.id for q in q_nodes])), pg


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
        b = estimate_pose(qg, pg, config, INTR)
        assert (a.status, a.message, a.history) == (b.status, b.message, b.history)
        assert (a.n_valid_samples, a.correspondences, a.was) == (
            b.n_valid_samples,
            b.correspondences,
            b.was,
        )
        assert (a.pose is None) == (b.pose is None)
        if a.pose is not None:
            assert a.pose.rotation.tobytes() == b.pose.rotation.tobytes()
            assert a.pose.translation.tobytes() == b.pose.translation.tobytes()
        if a.status == LocalizationStatus.SUCCESS:
            assert np.isfinite(a.pose.rotation).all() and np.isfinite(a.pose.translation).all()
            assert len(a.correspondences) >= 3
            assert 0.0 < a.was <= 1.0


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

    def wired(nodes):
        if not nodes:
            return graph([], [])
        positions = np.stack([node.position for node in nodes])
        return graph(nodes, build_knn_edges(positions, 3, ids=[node.id for node in nodes]))

    return wired(q_nodes), wired(p_nodes)


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
    assert (got.pose is None) == (want.pose is None)
    if want.pose is not None:
        np.testing.assert_allclose(got.pose.rotation, want.pose.rotation, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(
            got.pose.translation, want.pose.translation, rtol=0.0, atol=1e-9
        )
    return got


def _n_pairs(query, prior, tau):
    return len(extract_candidates(score_all_pairs(prior, query), tau).pairs)


def _chunk_ends(n_pairs: int, n_valid: int) -> list[int]:
    """Valid-sample counts at which the sampling loop's chunks end, through n_valid."""
    ends, size = [_CHUNK], _CHUNK
    while ends[-1] < n_valid:
        size = min(2 * size, _chunk_cap(n_pairs))
        ends.append(ends[-1] + size)
    return ends


def _record_stacks(monkeypatch) -> list[int]:
    """Samples per p3p_solve call that estimate_pose makes from now on."""
    sizes: list[int] = []
    solve = semloc.pose.p3p_solve

    def recording(world_points, bearings):
        sizes.append(len(world_points))
        return solve(world_points, bearings)

    monkeypatch.setattr(semloc.pose, "p3p_solve", recording)
    return sizes


class TestChunkedLoopMatchesSerial:
    """estimate_pose solves and scores valid samples a chunk at a time, the
    chunks doubling from _CHUNK up to a cap; it must return what the loop
    solving one draw at a time returns."""

    def test_criterion_8_frames(self):
        frame_ids = [0, 23, 42, 77, 101]
        prior, queries = _latency_scene_frames(seed=0, frame_ids=frame_ids)
        for frame_id, query in zip(frame_ids, queries):
            config = MatcherConfig(rng_seed=_localize_seed(frame_id))
            _matches_serial(query, prior, config)
            _matches_serial(query, prior, replace(config, early_exit_was=None))
            # an exit threshold these frames reach within the budget
            _matches_serial(query, prior, replace(config, early_exit_was=0.9))

    def test_early_exit_inside_a_chunk(self):
        pg, qg, _ = _perfect_scene(center_boxes=True)
        n_pairs = _n_pairs(qg, pg, tau=3)
        cut_inside = 0
        for seed in range(12):
            res = _matches_serial(qg, pg, MatcherConfig(tau=3, rng_seed=seed))
            assert res.history[-1][1] > 0.99  # the loop stopped on early exit
            cut_inside += res.n_valid_samples not in _chunk_ends(n_pairs, res.n_valid_samples)
        assert cut_inside > 0

    def test_early_exit_inside_grown_chunks(self):
        # ten landmarks and four candidates each: some seeds exit after 16
        # valid samples, inside the second (32) or the third (64) chunk
        pg, qg, _ = _perfect_scene(n=10, center_boxes=True)
        n_pairs = _n_pairs(qg, pg, tau=4)
        cut_in = set()
        for seed in range(30):
            res = _matches_serial(qg, pg, MatcherConfig(tau=4, n_iter=1000, rng_seed=seed))
            assert res.history[-1][1] > 0.99
            ends = _chunk_ends(n_pairs, res.n_valid_samples)
            if res.n_valid_samples not in ends:
                cut_in.add(len(ends) - 1)  # index of the chunk the cut falls in
        assert {1, 2} <= cut_in

    def test_without_early_exit(self):
        pg, qg, _ = _perfect_scene()
        for seed in range(3):
            _matches_serial(
                qg, pg, MatcherConfig(tau=3, n_iter=120, rng_seed=seed, early_exit_was=None)
            )

    def test_full_budget_spans_three_chunks(self, monkeypatch):
        pg, qg, _ = _perfect_scene()
        stacks = _record_stacks(monkeypatch)
        config = MatcherConfig(tau=3, n_iter=310, rng_seed=2, early_exit_was=None)
        res = _matches_serial(qg, pg, config)
        assert res.n_valid_samples == 50
        assert stacks == [16, 32, 2]

    def test_stack_sizes_follow_the_schedule(self, monkeypatch):
        pg, qg, _ = _perfect_scene(n=10, center_boxes=True)
        n_pairs = _n_pairs(qg, pg, tau=4)
        stacks = _record_stacks(monkeypatch)
        for seed in range(10):
            stacks.clear()
            res = estimate_pose(qg, pg, MatcherConfig(tau=4, n_iter=1000, rng_seed=seed), INTR)
            ends = _chunk_ends(n_pairs, res.n_valid_samples)
            # the chunk the early exit cuts is drawn and solved in full, too
            assert stacks == np.diff([0] + ends).tolist()

    def test_large_budget_never_exceeds_the_cap(self, monkeypatch):
        pg, qg, _ = _perfect_scene()
        n_pairs = _n_pairs(qg, pg, tau=3)
        # a budget that caps this frame's chunks at 40 samples
        monkeypatch.setattr(semloc.pose, "_HYPOTHESIS_ELEMS", 40 * 4 * n_pairs + 3)
        assert _chunk_cap(n_pairs) == 40
        stacks = _record_stacks(monkeypatch)
        config = MatcherConfig(tau=3, n_iter=3000, rng_seed=0, early_exit_was=None)
        res = _matches_serial(qg, pg, config)
        assert sum(stacks) == res.n_valid_samples > 150
        assert stacks[:3] == [16, 32, 40] and max(stacks) == 40

    def test_chunk_cap_bounds_the_scoring_block(self):
        for n_pairs in (3, 30, 192, 1000, 10_000):
            cap = _chunk_cap(n_pairs)
            assert cap >= _CHUNK
            assert cap == _CHUNK or cap * 4 * n_pairs <= semloc.pose._HYPOTHESIS_ELEMS

    def test_triple_space_runs_out_before_n_iter(self):
        pg, qg, _ = _perfect_scene(n=5)
        config = MatcherConfig(tau=1, n_iter=200, rng_seed=3, early_exit_was=None)
        assert _n_pairs(qg, pg, config.tau) <= 5
        res = _matches_serial(qg, pg, config)
        assert 0 < res.n_valid_samples <= 10  # C(5, 3) triples

    def test_no_valid_sample_and_degenerate(self):
        qg, pg = _edge_mismatch_frame()
        assert _matches_serial(qg, pg, MatcherConfig(tau=3, n_iter=500)).status == (
            LocalizationStatus.NO_VALID_SAMPLE
        )
        qg, pg = _collinear_frame()
        assert _matches_serial(qg, pg, MatcherConfig(tau=3, n_iter=500)).status == (
            LocalizationStatus.DEGENERATE
        )
