import math

import numpy as np
import pytest

from semloc import (
    CameraIntrinsics,
    Landmark,
    NoiseSpec,
    Pose,
    Scene,
    SceneSpec,
    generate_scene,
    generate_trajectory,
    look_at_pose,
    render_frame,
    render_sequence,
)
from semloc.simulate import MIN_BBOX_AREA, _confidence_vector

from conftest import quadric_of
from oracles import project_quadric_to_bbox


INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
BOUNDS = ((-2.0, -2.0, 0.0), (2.0, 2.0, 1.5))


def _spec(**kw):
    defaults = dict(n_landmarks=4, bounds=BOUNDS, vocabulary=["a", "b", "c", "d"], seed=0)
    defaults.update(kw)
    return SceneSpec(**defaults)


def _single_scene(scale=0.12, label="a", clusters=None):
    spec = _spec(n_landmarks=1, vocabulary=["a", "b", "c"], clusters=clusters or [])
    lm = Landmark(0, np.array([0.0, 0.0, 0.5]), np.array([1.0, 0.0, 0.0, 0.0]),
                  np.full(3, scale), label)
    return Scene(spec, [lm])


def _camera(dist=4.0):
    return look_at_pose((0.0, -dist, 0.5), (0.0, 0.0, 0.5))


class TestSceneSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_landmarks": 0},
            {"confusion_rate": 1.5},
            {"scale_range": (0.0, 0.1)},
            {"scale_range": (0.2, 0.1)},
            {"vocabulary": []},
            {"clusters": [["a", "zzz"]]},
            {"clusters": [["a", "b"], ["b", "c"]]},
            {"n_landmarks": 10, "unique_labels": True},
            {"bounds": ((-1e200, -2.0, 0.0), (2.0, 2.0, 1.5))},
        ],
    )
    def test_rejects_bad_spec(self, kw):
        with pytest.raises(ValueError):
            _spec(**kw)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(_spec(n_landmarks=8, seed=7))
        b = generate_scene(_spec(n_landmarks=8, seed=7))
        for la, lb in zip(a.landmarks, b.landmarks):
            assert np.array_equal(la.position, lb.position)
            assert np.array_equal(la.rotation, lb.rotation)
            assert np.array_equal(la.scale, lb.scale)
            assert la.label == lb.label
        c = generate_scene(_spec(n_landmarks=8, seed=8))
        assert not np.array_equal(a.landmarks[0].position, c.landmarks[0].position)

    def test_respects_bounds_and_separation(self):
        scene = generate_scene(_spec(n_landmarks=12, min_separation=0.4, seed=3))
        pos = np.stack([lm.position for lm in scene.landmarks])
        assert np.all(pos >= np.array(BOUNDS[0])) and np.all(pos <= np.array(BOUNDS[1]))
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                assert np.linalg.norm(pos[i] - pos[j]) >= 0.4
        assert [lm.id for lm in scene.landmarks] == list(range(12))

    def test_unique_labels(self):
        vocab = [f"l{i}" for i in range(15)]
        scene = generate_scene(_spec(n_landmarks=10, vocabulary=vocab, unique_labels=True))
        labels = [lm.label for lm in scene.landmarks]
        assert len(set(labels)) == 10

    def test_impossible_packing_raises(self):
        spec = _spec(
            n_landmarks=50,
            bounds=((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)),
            min_separation=0.4,
        )
        with pytest.raises(ValueError, match="separation"):
            generate_scene(spec)

    def test_cluster_members(self):
        scene = generate_scene(_spec(clusters=[["a", "b"]]))
        assert scene.cluster_members("a") == ["a", "b"]
        assert scene.cluster_members("c") == ["c"]


class TestNoiseSpec:
    @pytest.mark.parametrize(
        "kw",
        [{"bbox_jitter": -1.0}, {"depth_sigma": -0.1}, {"temperature": -2.0}, {"dropout": 1.0}],
    )
    def test_rejects_bad_noise(self, kw):
        with pytest.raises(ValueError):
            NoiseSpec(**kw)


class TestLookAt:
    def test_target_lands_on_optical_axis(self):
        pose = look_at_pose((1.0, -3.0, 2.0), (0.2, 0.1, 0.5))
        cam = pose.transform(np.array([0.2, 0.1, 0.5]))
        dist = np.linalg.norm(np.array([1.0, -3.0, 2.0]) - np.array([0.2, 0.1, 0.5]))
        assert cam[0] == pytest.approx(0.0, abs=1e-12)
        assert cam[1] == pytest.approx(0.0, abs=1e-12)
        assert cam[2] == pytest.approx(dist, abs=1e-12)

    def test_image_y_points_down(self):
        # with +z world up, a point above the target must project above center
        pose = look_at_pose((0.0, -4.0, 0.5), (0.0, 0.0, 0.5))
        above = pose.transform(np.array([0.0, 0.0, 1.0]))
        assert above[1] < 0.0

    def test_camera_at_target_raises(self):
        with pytest.raises(ValueError):
            look_at_pose((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "camera, target", [((1e200, 0.0, 0.0), (0.0, 0.0, 0.0)), ((0.0, 0.0, 1.0), (0.0, -1e300, 0.0))]
    )
    def test_camera_whose_distance_overflows_raises(self, camera, target):
        with pytest.raises(ValueError, match="so far out that their distance overflows"):
            look_at_pose(camera, target)


class TestGenerateTrajectory:
    def test_orbit_spacing_and_gaze(self):
        poses = generate_trajectory("orbit", 4, BOUNDS, seed=5, radius=3.0, height=1.9)
        center = np.array([0.0, 0.0, 0.75])
        centers = [p.camera_center() for p in poses]
        angles = []
        for c in centers:
            assert np.hypot(c[0], c[1]) == pytest.approx(3.0, abs=1e-9)
            assert c[2] == pytest.approx(1.9, abs=1e-12)
            angles.append(math.atan2(c[1], c[0]))
            cam = poses[centers.index(c) if False else len(angles) - 1].transform(center)
            assert abs(cam[0]) < 1e-9 and abs(cam[1]) < 1e-9 and cam[2] > 0.0
        gaps = np.diff(np.unwrap(angles))
        assert np.allclose(gaps, math.pi / 2.0, atol=1e-9)

    def test_orbit_phase_is_seeded(self):
        a = generate_trajectory("orbit", 3, BOUNDS, seed=1)
        b = generate_trajectory("orbit", 3, BOUNDS, seed=1)
        c = generate_trajectory("orbit", 3, BOUNDS, seed=2)
        assert np.array_equal(a[0].camera_center(), b[0].camera_center())
        assert not np.array_equal(a[0].camera_center(), c[0].camera_center())

    def test_line_is_collinear(self):
        poses = generate_trajectory("line", 5, BOUNDS, seed=2)
        centers = np.stack([p.camera_center() for p in poses])
        d = centers[-1] - centers[0]
        for k in range(5):
            expect = centers[0] + d * (k / 4.0)
            assert np.allclose(centers[k], expect, atol=1e-9)

    def test_random_walk_keeps_scene_in_view(self):
        poses = generate_trajectory("random-walk", 30, BOUNDS, seed=9)
        center = np.array([0.0, 0.0, 0.75])
        assert len(poses) == 30
        for p in poses:
            cam = p.transform(center)
            assert abs(cam[0]) < 1e-9 and abs(cam[1]) < 1e-9 and cam[2] > 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_trajectory("spiral", 5, BOUNDS)
        with pytest.raises(ValueError):
            generate_trajectory("orbit", 0, BOUNDS)
        with pytest.raises(ValueError, match="radius nan"):
            generate_trajectory("orbit", 5, BOUNDS, radius=math.nan)
        with pytest.raises(ValueError, match="height inf"):
            generate_trajectory("line", 5, BOUNDS, height=math.inf)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"radius": 1e200}, r"radius 1e\+200 is not finite or so large that camera distances overflow"),
            ({"height": -1e200}, r"height -1e\+200 is not finite or so large"),
            ({"bounds": ((-2.0, -2.0, 0.0), (2.0, 1e200, 1.5))}, "bounds are not finite or so far out"),
        ],
        ids=["radius", "height", "bounds"],
    )
    def test_rejects_settings_whose_camera_distances_overflow(self, kw, message):
        # finite, but the camera-to-target distance would overflow to inf
        for kind in ("orbit", "line", "random-walk"):
            with pytest.raises(ValueError, match=message):
                generate_trajectory(kind, 3, **{"bounds": BOUNDS, **kw})

    def test_largest_accepted_settings_give_finite_poses(self):
        # just inside the limit of 64 v^2, look_at_pose's distance check still passes
        edge = 0.999 * math.sqrt(np.finfo(float).max / 64.0)
        corner = edge / math.sqrt(2.0)
        for kw in ({"radius": edge, "height": -edge}, {"bounds": ((-corner, 0.0, -1.0), (1.0, 1.0, corner))}):
            for kind in ("orbit", "line", "random-walk"):
                poses = generate_trajectory(kind, 4, **{"bounds": BOUNDS, **kw})
                assert all(np.isfinite(p.translation).all() for p in poses)


class TestConfidenceModel:
    def test_zero_temperature_is_one_hot(self):
        scene = _single_scene(clusters=[["a", "b", "c"]])
        out = _confidence_vector(scene, "a", NoiseSpec(), 0.0, np.random.default_rng(0))
        assert out[0] == ("a", 1.0)
        assert all(s == 0.0 for _, s in out[1:])

    def test_forced_confusion(self):
        scene = _single_scene(clusters=[["a", "b", "c"]])
        for seed in range(30):
            out = _confidence_vector(scene, "a", NoiseSpec(), 1.0, np.random.default_rng(seed))
            assert out[0][0] != "a"

    def test_no_confusion_keeps_true_top(self):
        scene = _single_scene(clusters=[["a", "b", "c"]])
        for seed in range(30):
            out = _confidence_vector(
                scene, "a", NoiseSpec(temperature=0.4), 0.0, np.random.default_rng(seed)
            )
            assert out[0][0] == "a"

    def test_softmax_normalized_and_sorted(self):
        scene = _single_scene(clusters=[["a", "b", "c"]])
        out = _confidence_vector(
            scene, "a", NoiseSpec(temperature=0.7), 0.0, np.random.default_rng(4)
        )
        scores = [s for _, s in out]
        assert sum(scores) == pytest.approx(1.0, abs=1e-12)
        assert scores == sorted(scores, reverse=True)

    def test_entropy_grows_with_temperature(self):
        scene = _single_scene(clusters=[["a", "b", "c"]])

        def entropy(t, seed=11):
            out = _confidence_vector(
                scene, "a", NoiseSpec(temperature=t), 0.0, np.random.default_rng(seed)
            )
            return -sum(s * math.log(s) for _, s in out if s > 0.0)

        assert entropy(0.05) < 0.2
        assert entropy(5.0) > 1.0
        assert entropy(0.05) < entropy(0.5) < entropy(5.0)

    def test_unclustered_label_stays_alone(self):
        scene = _single_scene()
        out = _confidence_vector(
            scene, "a", NoiseSpec(temperature=2.0), 1.0, np.random.default_rng(0)
        )
        assert out == [("a", 1.0)]


class TestRenderFrame:
    def test_noise_free_raw_boxes_match_projection(self):
        scene = _single_scene()
        pose = _camera()
        dets, assoc = render_frame(
            scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(0), center_boxes=False
        )
        assert assoc == {0: 0}
        expect = project_quadric_to_bbox(quadric_of(scene.landmarks[0]), pose, INTR)
        assert dets[0].bbox.as_list() == pytest.approx(expect.as_list(), abs=1e-12)

    def test_centered_boxes_are_geometrically_exact(self):
        scene = _single_scene()
        pose = _camera()
        dets, _ = render_frame(
            scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(0), center_boxes=True
        )
        cam = pose.transform(scene.landmarks[0].position)
        u = INTR.fx * cam[0] / cam[2] + INTR.cx
        v = INTR.fy * cam[1] / cam[2] + INTR.cy
        assert dets[0].bbox.center == pytest.approx((u, v), abs=1e-9)
        assert dets[0].position == pytest.approx(cam, abs=1e-9)
        assert dets[0].labels == [("a", 1.0)]

    def test_landmark_behind_camera_invisible(self):
        scene = _single_scene()
        away = look_at_pose((0.0, -4.0, 0.5), (0.0, -8.0, 0.5))
        dets, assoc = render_frame(scene, away, INTR, NoiseSpec(), rng=np.random.default_rng(0))
        assert dets == [] and assoc == {}

    def test_tiny_projection_dropped(self):
        scene = _single_scene(scale=0.01)
        pose = _camera()
        box = project_quadric_to_bbox(quadric_of(scene.landmarks[0]), pose, INTR)
        assert box.area < MIN_BBOX_AREA
        dets, _ = render_frame(scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(0))
        assert dets == []

    def test_infinite_projection_dropped(self, monkeypatch):
        import semloc.simulate

        # a dual quadric, 2 m ahead, whose conic (0, 2) entry squares past the float range
        q = np.zeros((4, 4))
        q[0, 2] = q[2, 0] = 1e200
        q[1, 1] = 0.01
        q[2, 2] = -1.0
        q[:3, 3] = q[3, :3] = [0.0, 0.0, 2.0]
        q[3, 3] = 1.0
        pose = Pose.identity()
        extents, visible = semloc.simulate._project_quadrics(
            q[None], pose.rotation_matrix()[None], pose.translation[None], INTR
        )
        assert np.isinf(extents).any() and not visible.any()
        lm = Landmark(0, np.array([0.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0, 0.0]), np.full(3, 0.12), "a")
        scene = Scene(_spec(n_landmarks=1), [lm])
        monkeypatch.setattr(semloc.simulate, "quadric_from_params", lambda *a: q[None])
        dets, assoc = render_frame(scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(0))
        assert dets == [] and assoc == {}

    def test_jitter_perturbs_and_keeps_valid_boxes(self):
        scene = _single_scene()
        pose = _camera()
        clean, _ = render_frame(scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(5))
        noisy, _ = render_frame(
            scene, pose, INTR, NoiseSpec(bbox_jitter=2.0), rng=np.random.default_rng(5)
        )
        assert noisy[0].bbox.as_list() != clean[0].bbox.as_list()
        assert noisy[0].bbox.width > 0.0 and noisy[0].bbox.height > 0.0

    def test_depth_noise_moves_position(self):
        scene = _single_scene()
        pose = _camera()
        clean, _ = render_frame(scene, pose, INTR, NoiseSpec(), rng=np.random.default_rng(5))
        noisy, _ = render_frame(
            scene, pose, INTR, NoiseSpec(depth_sigma=0.1), rng=np.random.default_rng(5)
        )
        assert abs(noisy[0].position[2] - clean[0].position[2]) > 1e-6


class TestRenderSequence:
    def test_deterministic(self):
        scene = generate_scene(_spec(n_landmarks=6, seed=2))
        poses = generate_trajectory("orbit", 5, BOUNDS, seed=3)
        noise = NoiseSpec(bbox_jitter=1.0, temperature=0.5, dropout=0.2)
        a = render_sequence(scene, poses, INTR, noise, seed=7)
        b = render_sequence(scene, poses, INTR, noise, seed=7)
        assert len(a) == len(b) == 5
        for (da, aa), (db, ab) in zip(a, b):
            assert aa == ab
            assert len(da) == len(db)
            for x, y in zip(da, db):
                assert x.bbox.as_list() == y.bbox.as_list()
                assert x.labels == y.labels
                assert np.array_equal(x.position, y.position)

    def test_seed_changes_noise(self):
        scene = generate_scene(_spec(n_landmarks=6, seed=2))
        poses = generate_trajectory("orbit", 5, BOUNDS, seed=3)
        noise = NoiseSpec(bbox_jitter=1.0)
        a = render_sequence(scene, poses, INTR, noise, seed=7)
        b = render_sequence(scene, poses, INTR, noise, seed=8)
        flat_a = [v for dets, _ in a for d in dets for v in d.bbox.as_list()]
        flat_b = [v for dets, _ in b for d in dets for v in d.bbox.as_list()]
        assert flat_a != flat_b

    def test_dropout_thins_detections(self):
        scene = _single_scene()
        pose = _camera()
        n = 200
        kept = render_sequence(scene, [pose] * n, INTR, NoiseSpec(dropout=0.5), seed=1)
        total = sum(len(dets) for dets, _ in kept)
        assert 60 < total < 140
        clean = render_sequence(scene, [pose] * n, INTR, NoiseSpec(), seed=1)
        assert sum(len(dets) for dets, _ in clean) == n

