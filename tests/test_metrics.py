import math

import numpy as np
import pytest

from semloc import (
    CameraIntrinsics,
    NoiseSpec,
    Pose,
    PriorObjectNode,
    SceneSpec,
    evaluate_associations,
    generate_scene,
    generate_trajectory,
    mota,
    render_frame,
    shannon_entropy,
    success_rate,
    translation_error,
)
from semloc.metrics import AssociationCounts, FrameCounts, mean_translation_error, rematch_predictions

from conftest import VOCAB, graph, make_table, prior_node, quadric_of, query_node
from oracles import project_quadric_to_bbox, scalar_calculate_was


INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)


class TestEvaluateAssociations:
    def test_id_mode_hand_counts(self):
        gt = {0: {0: 10, 1: 11, 2: 12}}
        pred = {0: [(10, 0), (11, 1), (99, 2)]}
        counts = evaluate_associations(pred, gt_associations=gt)
        assert (counts.tp, counts.fp, counts.fn) == (2, 1, 1)
        assert counts.precision == pytest.approx(2.0 / 3.0)
        assert counts.recall == pytest.approx(2.0 / 3.0)
        assert counts.f1 == pytest.approx(2.0 / 3.0)

    def test_empty_predictions(self):
        counts = evaluate_associations({0: []}, gt_associations={0: {0: 10, 1: 11}})
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 2)
        assert counts.precision == 0.0 and counts.recall == 0.0 and counts.f1 == 0.0

    def test_none_predictions_treated_as_empty(self):
        counts = evaluate_associations({0: None}, gt_associations={0: {0: 10}})
        assert (counts.tp, counts.fp, counts.fn) == (0, 0, 1)

    def test_missing_gt_frame_skipped(self, caplog):
        with caplog.at_level("WARNING", logger="semloc.metrics"):
            counts = evaluate_associations(
                {0: [(10, 0)], 1: [(10, 0)]}, gt_associations={0: {0: 10}}
            )
        assert len(counts.per_frame) == 1
        assert "missing ground-truth" in caplog.text


class TestMota:
    def test_formula(self):
        counts = AssociationCounts(per_frame=[FrameCounts(0, fp=3, fn=5, n_gt=100, ids=2)])
        assert mota(counts) == pytest.approx(0.9)

    def test_zero_gt_raises(self):
        with pytest.raises(ValueError):
            mota(AssociationCounts())

    def test_counts_with_switch_and_gap(self):
        gt = {0: {0: 10, 1: 11}, 1: {0: 10, 1: 11}, 2: {0: 10}, 3: {0: 10}}
        pred = {
            0: [(10, 0), (11, 1)],  # clean
            1: [(12, 0), (11, 1)],  # landmark 10 switches to prior 12
            2: [],  # miss, but the track is not reset
            3: [(10, 0)],  # switches back: second IDS
        }
        counts = evaluate_associations(pred, gt)
        assert counts.n_gt == 6
        assert counts.fn == 2
        assert counts.fp == 1
        assert counts.ids == 2
        assert mota(counts) == pytest.approx(1.0 - 5.0 / 6.0)

    def test_switches_are_charged_per_frame_in_frame_order(self):
        gt = {0: {0: 10}, 1: {0: 10}, 3: {0: 10}}
        pred = {3: [(10, 0)], 0: [(10, 0)], 1: [(12, 0)]}
        counts = evaluate_associations(pred, gt)
        assert [(f.frame_id, f.n_gt, f.ids) for f in counts.per_frame] == [(0, 1, 0), (1, 1, 1), (3, 1, 1)]

    def test_spurious_detection_is_fp_only(self):
        counts = evaluate_associations({0: [(10, 0), (13, 5)]}, {0: {0: 10}})
        assert (counts.fn, counts.fp, counts.ids) == (0, 1, 0)


class TestRematchPredictions:
    def test_exact_boxes_recover_landmarks(self):
        pose = Pose.from_rt(np.eye(3), np.array([0.0, 0.0, 4.0]))
        a = prior_node(4, (0.3, -0.2, 0.0), {"x": 1})
        b = prior_node(9, (-0.8, 0.4, 0.3), {"x": 1})
        pg = graph([a, b], [])
        boxes = {
            0: project_quadric_to_bbox(quadric_of(a), pose, INTR),
            1: project_quadric_to_bbox(quadric_of(b), pose, INTR),
        }
        out = rematch_predictions({3: pose}, pg, INTR, {3: boxes})
        assert out == {3: [(4, 0), (9, 1)]}

    def test_rendered_frame_keyed_out_of_order_matches_oracle(self):
        bounds = ((-2.0, -2.0, 0.0), (2.0, 2.0, 1.5))
        spec = SceneSpec(n_landmarks=25, bounds=bounds, vocabulary=VOCAB[:5], seed=4)
        scene = generate_scene(spec)
        pg = graph(
            [
                PriorObjectNode(lm.id, lm.position, lm.rotation, lm.scale, make_table({lm.label: 1}))
                for lm in scene.landmarks
            ],
            [],
        )
        pose = generate_trajectory("orbit", 10, bounds, seed=4)[3]
        noise = NoiseSpec(bbox_jitter=3.0)
        dets, _ = render_frame(scene, pose, INTR, noise, np.random.default_rng(0), center_boxes=False)
        order = np.random.default_rng(1).permutation(len(dets)).tolist()
        boxes = {d: dets[d].bbox for d in order}
        assert len(boxes) >= 10 and list(boxes) != sorted(boxes)
        # the oracle reads each detection's box from a query graph with the same ids
        qg = graph([query_node(d, (0.0, 0.0, 1.0), {"a": 1.0}, bbox=box) for d, box in boxes.items()], [])
        pairs = [(p, d) for d in boxes for p in pg.ids]
        _, want = scalar_calculate_was(pose, pairs, pg, qg, INTR, C=100.0)
        assert rematch_predictions({7: pose}, pg, INTR, {7: boxes}) == {7: want}

    def test_missing_pose_skipped(self, caplog):
        pg = graph([prior_node(4, (0.0, 0.0, 0.0), {"x": 1})], [])
        with caplog.at_level("WARNING", logger="semloc.metrics"):
            out = rematch_predictions({}, pg, INTR, {3: {}})
        assert out == {}


class TestPoseErrors:
    def test_translation_error(self):
        a = Pose.from_rt(np.eye(3), np.zeros(3))
        b = Pose.from_rt(np.eye(3), np.array([1.0, 2.0, 2.0]))
        assert translation_error(a, b) == pytest.approx(3.0)

    def test_mean_translation_error(self):
        assert mean_translation_error([(0, 1.0), (1, None), (2, 2.0)]) == pytest.approx(1.5)
        assert mean_translation_error([(0, None)]) is None


class TestSuccessRate:
    ERRORS = [(0, 0.5), (1, 0.2), (2, None), (3, 0.7)]

    def test_succ_mode_inclusive_boundary(self):
        assert success_rate(self.ERRORS, 0.5) == pytest.approx(100.0 * 2 / 3)

    def test_all_mode_counts_failures(self):
        assert success_rate(self.ERRORS, 0.5, mode="all") == pytest.approx(50.0)

    def test_all_failed_frames(self):
        assert success_rate([(0, None)], 0.5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            success_rate([], 0.5)
        with pytest.raises(ValueError):
            success_rate(self.ERRORS, 0.5, mode="avg")


class TestShannonEntropy:
    def test_known_values(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2.0), abs=1e-12)
        assert shannon_entropy([1.0]) == 0.0
        assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_zero_probability_ignored(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_negative_probability_raises(self):
        with pytest.raises(ValueError):
            shannon_entropy([-0.1, 1.1])
