import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm
from scipy.spatial.transform import Rotation

from semloc import (
    BoundingBox,
    CameraIntrinsics,
    Pose,
    p3p_solve,
    pixel_to_bearing,
    quadric_from_params,
)
from semloc.geometry import (
    _P3P_REPROJ_TOL,
    _project_quadrics,
    quat_distance,
    quat_normalize,
    quat_to_rotmat,
    rotmat_to_quat,
)

from conftest import pose_arrays, random_pose, random_rotation, solution_poses
from oracles import (
    GaussianBox,
    absolute_orientation,
    bbox_to_gaussian,
    bearing_angle,
    normalized_wasserstein,
    project_quadric_to_bbox,
    scalar_p3p_solve,
    scalar_project_quadric_to_bbox,
    scalar_quat_normalize,
    scalar_quat_to_rotmat,
    scalar_rotmat_to_quat,
    wasserstein2_squared,
)

INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
INTR100 = CameraIntrinsics(100.0, 100.0, 320.0, 240.0, 640, 480)


def rotx(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotz(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# quaternions

# rotations whose trace is near -1, where Shepperd leaves the w branch
_BRANCH_POINTS = np.array([rotx(math.pi), rotz(math.pi), rotx(math.pi) @ rotz(math.pi)])


def _bits(x) -> bytes:
    """The bytes of a float64 array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).tobytes()


class TestQuaternions:
    def test_normalize_canonical_sign(self):
        q = quat_normalize([-2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(q, [1.0, 0.0, 0.0, 0.0])
        # first nonzero component decides the sign
        q = quat_normalize([0.0, -1.0, 0.0, 1.0])
        assert q[1] > 0.0

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            quat_normalize([0.0, 0.0, 0.0, 0.0])

    def test_identity(self):
        np.testing.assert_allclose(quat_to_rotmat([1.0, 0.0, 0.0, 0.0]), np.eye(3))

    def test_matches_scipy(self, rng):
        # scipy stores quaternions as (x, y, z, w)
        for _ in range(100):
            r = random_rotation(rng)
            q = rotmat_to_quat(r)
            r_scipy = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
            np.testing.assert_allclose(quat_to_rotmat(q), r_scipy, atol=1e-12)
            np.testing.assert_allclose(r_scipy, r, atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(200):
            r = random_rotation(rng)
            np.testing.assert_allclose(quat_to_rotmat(rotmat_to_quat(r)), r, atol=1e-12)

    def test_round_trip_near_branch_points(self):
        # trace near -1 exercises the non-principal Shepperd branches
        for r in _BRANCH_POINTS:
            np.testing.assert_allclose(quat_to_rotmat(rotmat_to_quat(r)), r, atol=1e-12)

    @pytest.mark.parametrize(
        "helper, bad",
        [
            (quat_normalize, [math.nan, 0.0, 0.0, 0.0]),
            (quat_normalize, [[1.0, 0.0, 0.0, 0.0], [0.5, math.nan, 0.5, 0.5]]),
            (quat_to_rotmat, [math.nan, 0.0, 0.0, 0.0]),
            (quat_to_rotmat, [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, math.nan, 1.0]]),
            (rotmat_to_quat, np.full((3, 3), math.nan)),
            (rotmat_to_quat, np.where(np.eye(3) > 0.0, 1.0, [[0.0, math.nan, 0.0]] * 3)),
        ],
    )
    def test_nan_raises(self, helper, bad):
        with pytest.raises(ValueError):
            helper(bad)

    def test_helpers_match_scalar_oracles_to_the_bit(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(10_000, 4)) * 10.0 ** rng.uniform(-3, 3, size=(10_000, 1))
        # zeros ahead of the first nonzero entry, whose sign decides the result's
        rows = np.arange(0, len(raw), 7)
        raw[rows, rng.integers(0, 3, size=len(rows))] = 0.0
        raw[rows[::2], 0] = 0.0
        q = quat_normalize(raw)
        r = quat_to_rotmat(q)
        # near rotations too: Shepperd reads any finite matrix
        mats = np.concatenate([r, r + rng.normal(scale=1e-3, size=r.shape), _BRANCH_POINTS])
        back = rotmat_to_quat(mats)
        assert _bits(q) == _bits([scalar_quat_normalize(v) for v in raw])
        assert _bits(r) == _bits([scalar_quat_to_rotmat(v) for v in q])
        assert _bits(back) == _bits([scalar_rotmat_to_quat(m) for m in mats])
        # every Shepperd branch is taken
        trace = np.trace(mats, axis1=1, axis2=2)
        axes = np.diagonal(mats, axis1=1, axis2=2)[trace <= 0.0].argmax(axis=1)
        assert (trace > 0.0).any() and set(axes.tolist()) == {0, 1, 2}

    def test_distance_sign_invariant(self, rng):
        q = rotmat_to_quat(random_rotation(rng))
        assert quat_distance(q, -q) == 0.0
        assert quat_distance(q, q) == 0.0


# ---------------------------------------------------------------------------
# poses


class TestPose:
    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Pose(np.array([1.0, 1.0, 0.0, 0.0]), np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-unit"):
            Pose(np.array([bad, 0.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite translation"):
            Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, bad, 1.0]))

    def test_transform_inverse(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            pts = rng.normal(size=(7, 3))
            back = pose.inverse().transform(pose.transform(pts))
            np.testing.assert_allclose(back, pts, atol=1e-12)

    def test_camera_center_maps_to_origin(self, rng):
        pose = random_pose(rng)
        np.testing.assert_allclose(pose.transform(pose.camera_center()), np.zeros(3), atol=1e-12)

    def test_matrix_agrees_with_transform(self, rng):
        pose = random_pose(rng)
        p = rng.normal(size=3)
        m = np.eye(4)
        m[:3, :3], m[:3, 3] = pose.rotation_matrix(), pose.translation
        hom = m @ np.append(p, 1.0)
        np.testing.assert_allclose(hom[:3], pose.transform(p), atol=1e-12)

    def test_single_and_batch_transform_agree(self, rng):
        # a stack gives each point the bits it gets alone
        for _ in range(5):
            pose = random_pose(rng)
            pts = rng.normal(scale=3.0, size=(200, 3))
            batch = pose.transform(pts)
            np.testing.assert_array_equal([pose.transform(p) for p in pts], batch)


class TestCameraIntrinsics:
    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, bad):
        values = dict(fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480)
        values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**values)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("bad", [1e300, -2e154])
    def test_rejects_values_whose_squares_overflow(self, field, bad):
        values = dict(fx=525.0, fy=525.0, cx=319.5, cy=239.5, width=640, height=480)
        values[field] = abs(bad) if field in ("fx", "fy") else bad
        with pytest.raises(ValueError, match="squares overflow"):
            CameraIntrinsics(**values)

    def test_largest_accepted_values_project_without_a_warning(self):
        # the conic's products overflow here, inside the kernel's errstate
        intr = CameraIntrinsics(1e154, 1e154, 1e154, 1e154, 640, 480)
        q = quadric_from_params([0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        _, ok = _project_quadrics(q[None], *pose_arrays([Pose.identity()]), intr)
        assert not ok.any()


# ---------------------------------------------------------------------------
# bounding boxes


class TestBoundingBox:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(0.0, 0.0, 0.0, 10.0)

    def test_properties(self):
        box = BoundingBox(2.0, 4.0, 10.0, 10.0)
        assert box.width == 8.0
        assert box.height == 6.0
        assert box.area == 48.0
        np.testing.assert_allclose(box.center, [6.0, 7.0])

    def test_clamped(self):
        box = BoundingBox(-5.0, -5.0, 10.0, 10.0)
        clamped = box.clamped(640, 480)
        assert clamped.as_list() == [0.0, 0.0, 10.0, 10.0]
        assert BoundingBox(-10.0, 0.0, -1.0, 5.0).clamped(640, 480) is None

    @pytest.mark.parametrize(
        "coords",
        [
            (0.0, 0.0, math.inf, 10.0),
            (-math.inf, 0.0, 5.0, 10.0),
            (0.0, -math.inf, 5.0, math.inf),
            (0.0, 0.0, 5.0, math.nan),
        ],
    )
    def test_rejects_non_finite(self, coords):
        with pytest.raises(ValueError, match="must be finite"):
            BoundingBox(*coords)

    def test_clamped_never_raises_on_extreme_bounds(self):
        box = BoundingBox(-1e308, 1.0, 1e308, 5.0)
        assert box.clamped(640, 480).as_list() == [0.0, 1.0, 640.0, 5.0]
        assert box.clamped(math.inf, math.inf).as_list() == [0.0, 1.0, 1e308, 5.0]


# ---------------------------------------------------------------------------
# quadric projection


class TestQuadricProjection:
    def test_quadric_center(self, rng):
        pos = rng.normal(size=3)
        q = quadric_from_params(pos, rotmat_to_quat(random_rotation(rng)), [0.3, 0.2, 0.1])
        np.testing.assert_array_equal(q[:3, 3] / q[3, 3], pos)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            quadric_from_params([0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.1, -0.1, 0.1])

    def test_stacked_build_matches_single_builds(self, rng):
        pos = rng.normal(size=(50, 3))
        rot = quat_normalize(rng.normal(size=(50, 4)))
        scale = rng.uniform(0.01, 2.0, size=(50, 3))
        stacked = quadric_from_params(pos, rot, scale)
        single = [quadric_from_params(pos[i], rot[i], scale[i]) for i in range(50)]
        np.testing.assert_array_equal(stacked, single)

    @staticmethod
    def _scattered(rng, n):
        """n ellipsoids and n poses: cameras inside the landmark volume see
        centers behind them, ellipsoids around the camera (degenerate conics)
        and boxes that run off the image."""
        pos = rng.uniform(-3.0, 3.0, size=(n, 3))
        rot = quat_normalize(rng.normal(size=(n, 4)))
        scale = rng.uniform(0.05, 1.5, size=(n, 3))
        poses = [
            Pose.from_rt(r, -r @ rng.uniform(-4.0, 4.0, size=3))
            for r in (random_rotation(rng) for _ in range(n))
        ]
        return pos, quadric_from_params(pos, rot, scale), poses

    def test_kernel_matches_scalar_oracle(self, rng):
        n = 100
        pos, quads, poses = self._scattered(rng, n)
        ext, ok = _project_quadrics(quads, *pose_arrays(poses), INTR)
        image_max = [INTR.width, INTR.height] * 2
        kinds = {"behind": 0, "degenerate": 0, "off_image": 0}
        for i, pose in enumerate(poses):
            for j in range(n):
                ref = scalar_project_quadric_to_bbox(quads[j], pose, INTR)
                assert ok[i, j] == (ref is not None)
                if ref is not None:
                    # the kernel sums the conic in another order than the
                    # oracle's matrix products: clamped extents, which the
                    # scorer and the simulator read, agree to 1e-9 px, and
                    # extents far off the image to 1e-10 of their size
                    np.testing.assert_allclose(
                        np.clip(ext[i, j], 0.0, image_max),
                        np.clip(ref.as_list(), 0.0, image_max),
                        rtol=0.0,
                        atol=1e-9,
                    )
                    np.testing.assert_allclose(ext[i, j], ref.as_list(), rtol=1e-10, atol=1e-9)
                    clamped = ref.clamped(INTR.width, INTR.height)
                    kinds["off_image"] += clamped is not None and clamped.as_list() != ref.as_list()
                elif pose.transform(pos[j])[2] <= 0.0:
                    kinds["behind"] += 1
                else:
                    kinds["degenerate"] += 1
        assert min(kinds.values()) > 0, kinds

    def test_kernel_is_stack_independent(self, rng):
        # each (pose, quadric) result of a stacked call has the bits of that
        # pair projected alone, and of any sub-stack holding it
        n = 40
        pos, quads, poses = self._scattered(rng, n)
        rotation, translation = pose_arrays(poses)
        ext, ok = _project_quadrics(quads, rotation, translation, INTR)

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        image = [0.0, 0.0, INTR.width, INTR.height]
        kinds = {"behind": 0, "degenerate": 0, "off_image": 0}
        for i in range(n):
            for j in range(n):
                one, seen = _project_quadrics(
                    quads[j : j + 1], rotation[i : i + 1], translation[i : i + 1], INTR
                )
                assert seen[0, 0] == ok[i, j]
                np.testing.assert_array_equal(bits(one[0, 0]), bits(ext[i, j]))
                if ok[i, j]:
                    off = (ext[i, j, :2] < image[:2]).any() or (ext[i, j, 2:] > image[2:]).any()
                    kinds["off_image"] += bool(off)
                elif poses[i].transform(pos[j])[2] <= 0.0:
                    kinds["behind"] += 1
                else:
                    kinds["degenerate"] += 1
        assert min(kinds.values()) > 0, kinds
        part, seen = _project_quadrics(quads[5:17], rotation[3:30], translation[3:30], INTR)
        np.testing.assert_array_equal(seen, ok[3:30, 5:17])
        np.testing.assert_array_equal(bits(part), bits(ext[3:30, 5:17]))

    def test_on_axis_sphere_extent(self):
        # [DERIVED] tangent cone of a sphere at distance d: half extent
        # f*r/sqrt(d^2-r^2) = 100/sqrt(24) for f=100, r=1, d=5
        half = 100.0 / math.sqrt(24.0)
        q = quadric_from_params([0.0, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        box = project_quadric_to_bbox(q, Pose.identity(), INTR100)
        assert box.x_min == pytest.approx(320.0 - half, abs=1e-9)
        assert box.x_max == pytest.approx(320.0 + half, abs=1e-9)
        assert box.y_min == pytest.approx(240.0 - half, abs=1e-9)
        assert box.y_max == pytest.approx(240.0 + half, abs=1e-9)
        assert half == pytest.approx(20.412414523193153, abs=1e-12)

    def test_infinite_extents_are_not_visible(self):
        # the conic's (0, 2) entry squares to inf: the unclamped x extents
        # are -inf and +inf, which no box can hold, so the kernel calls it not visible
        q = np.eye(4)
        q[0, 2] = q[2, 0] = 1e200
        q[2, 2] = -1.0
        q[2, 3] = q[3, 2] = 2.0
        with np.errstate(over="ignore"):
            ext, ok = _project_quadrics(q[None], *pose_arrays([Pose.identity()]), INTR100)
            assert not ok[0, 0] and np.isinf(ext[0, 0]).any()
            assert project_quadric_to_bbox(q, Pose.identity(), INTR100) is None

    def test_off_axis_sphere_frozen(self):
        # [DERIVED] tangent-line quadratic oracle, sphere center (0.4,-0.2,5.0),
        # r=1, f=100, c=(320,240)
        q = quadric_from_params([0.4, -0.2, 5.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        box = project_quadric_to_bbox(q, Pose.identity(), INTR100)
        expected = [307.85299045425916, 215.4039155464479, 348.81367621240753, 256.26275112021875]
        np.testing.assert_allclose(box.as_list(), expected, atol=1e-9)

    def test_general_ellipsoid_frozen(self):
        # [DERIVED] Nelder-Mead maximization of the projected silhouette over
        # the ellipsoid surface (no conics involved)
        rell = rotz(0.7) @ rotx(-0.3)
        q = quadric_from_params([0.3, -0.1, 0.2], rotmat_to_quat(rell), [0.5, 0.3, 0.2])
        pose = Pose.from_rt(rotx(0.1) @ rotz(0.2), np.array([0.05, -0.1, 4.0]))
        box = project_quadric_to_bbox(q, pose, INTR)
        expected = [316.675308227069, 165.262415998368, 412.493761712438, 273.717507365500]
        np.testing.assert_allclose(box.as_list(), expected, atol=1e-6)

    def test_behind_camera_is_none(self):
        q = quadric_from_params([0.0, 0.0, -5.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert project_quadric_to_bbox(q, Pose.identity(), INTR100) is None

    def test_clamp_behaviour(self):
        # sphere near the left edge: clamped box stops at x=0
        q = quadric_from_params([-15.5, 0.0, 5.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        full = project_quadric_to_bbox(q, Pose.identity(), INTR100)
        clamped = full.clamped(INTR100.width, INTR100.height)
        assert full.x_min < 0.0
        assert clamped.x_min == 0.0
        assert clamped.x_max == full.x_max

    def test_projection_rotation_invariance_for_spheres(self, rng):
        # a sphere's silhouette cannot depend on its orientation
        pos = np.array([0.3, -0.2, 4.0])
        q1 = quadric_from_params(pos, [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        q2 = quadric_from_params(pos, rotmat_to_quat(random_rotation(rng)), [0.5, 0.5, 0.5])
        b1 = project_quadric_to_bbox(q1, Pose.identity(), INTR)
        b2 = project_quadric_to_bbox(q2, Pose.identity(), INTR)
        np.testing.assert_allclose(b1.as_list(), b2.as_list(), atol=1e-9)


# ---------------------------------------------------------------------------
# Gaussian boxes and Wasserstein


class TestWasserstein:
    def test_bbox_to_gaussian(self):
        g = bbox_to_gaussian(BoundingBox(0.0, 0.0, 10.0, 10.0))
        np.testing.assert_allclose(g.mean, [5.0, 5.0])
        np.testing.assert_allclose(g.cov, np.diag([25.0, 25.0]))

    def test_hand_value(self):
        # mu (5,5) vs (4,6), sigma (5,5) vs (2,4): 2 + 9 + 1 = 12
        a = bbox_to_gaussian(BoundingBox(0.0, 0.0, 10.0, 10.0))
        b = bbox_to_gaussian(BoundingBox(2.0, 2.0, 6.0, 10.0))
        assert wasserstein2_squared(a, b) == pytest.approx(12.0, abs=1e-12)
        assert normalized_wasserstein(a, b, 100.0) == pytest.approx(0.9659521152320881, abs=1e-12)

    def test_identity(self):
        a = bbox_to_gaussian(BoundingBox(3.0, 4.0, 9.0, 11.0))
        assert wasserstein2_squared(a, a) == 0.0
        assert normalized_wasserstein(a, a, 50.0) == 1.0

    def test_scale_must_be_positive(self):
        a = bbox_to_gaussian(BoundingBox(0.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            normalized_wasserstein(a, a, 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_trace_formula(self, seed):
        # W2^2 = |mu1-mu2|^2 + tr(S1 + S2 - 2 (S2^1/2 S1 S2^1/2)^1/2)
        r = np.random.default_rng(seed)
        a = GaussianBox(r.normal(size=2) * 50.0, np.diag(r.uniform(0.5, 400.0, 2)))
        b = GaussianBox(r.normal(size=2) * 50.0, np.diag(r.uniform(0.5, 400.0, 2)))
        rt = sqrtm(sqrtm(b.cov) @ a.cov @ sqrtm(b.cov))
        ref = float(np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov + b.cov - 2.0 * rt))
        assert wasserstein2_squared(a, b) == pytest.approx(ref, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, seed):
        r = np.random.default_rng(seed)
        boxes = [
            bbox_to_gaussian(BoundingBox(x, y, x + w, y + h))
            for x, y, w, h in r.uniform(1.0, 100.0, size=(3, 4))
        ]
        d = [math.sqrt(wasserstein2_squared(boxes[i], boxes[j])) for i, j in ((0, 1), (1, 2), (0, 2))]
        assert all(v >= 0.0 for v in d)
        assert wasserstein2_squared(boxes[0], boxes[1]) == pytest.approx(
            wasserstein2_squared(boxes[1], boxes[0]), abs=1e-12
        )
        assert d[2] <= d[0] + d[1] + 1e-9


# ---------------------------------------------------------------------------
# bearings


class TestBearings:
    def test_principal_point(self):
        np.testing.assert_allclose(pixel_to_bearing([319.5, 239.5], INTR), [0.0, 0.0, 1.0])

    def test_unit_norm(self, rng):
        for _ in range(20):
            px = rng.uniform([0, 0], [640, 480])
            assert np.linalg.norm(pixel_to_bearing(px, INTR)) == pytest.approx(1.0, abs=1e-12)

    def test_projection_round_trip(self, rng):
        for _ in range(20):
            cam = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1.0, 5.0)])
            u = INTR.fx * cam[0] / cam[2] + INTR.cx
            v = INTR.fy * cam[1] / cam[2] + INTR.cy
            bearing = pixel_to_bearing([u, v], INTR)
            np.testing.assert_allclose(bearing, cam / np.linalg.norm(cam), atol=1e-12)

    def test_stack_matches_single_pixels(self, rng):
        px = rng.uniform([-50.0, -50.0], [700.0, 500.0], size=(200, 2))
        stacked = pixel_to_bearing(px, INTR)
        assert stacked.shape == (200, 3)
        single = [pixel_to_bearing(p, INTR) for p in px.tolist()]
        np.testing.assert_array_equal(stacked, single)
        # each ray is the pixel's normalized ray, as np.linalg.norm takes it
        for p, ray in zip(px.tolist(), single):
            ref = np.array([(p[0] - INTR.cx) / INTR.fx, (p[1] - INTR.cy) / INTR.fy, 1.0])
            np.testing.assert_array_equal(ray, ref / np.linalg.norm(ref))

    def test_bearing_angle(self):
        assert bearing_angle([0.0, 0.0, 1.0], [0.0, 0.0, 2.0]) == 0.0
        assert bearing_angle([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(math.pi / 2.0)
        # numerically stable for tiny angles where acos would round to 0
        tiny = bearing_angle([0.0, 0.0, 1.0], [1e-9, 0.0, 1.0])
        assert tiny == pytest.approx(1e-9, rel=1e-6)


# ---------------------------------------------------------------------------
# absolute orientation


class TestAbsoluteOrientation:
    def test_recovers_transform(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            src = rng.normal(size=(5, 3))
            dst = pose.transform(src)
            r, t = absolute_orientation(src, dst)
            np.testing.assert_allclose(r, pose.rotation_matrix(), atol=1e-9)
            np.testing.assert_allclose(t, pose.translation, atol=1e-9)

    def test_proper_rotation_on_planar_points(self, rng):
        # coplanar source points can flip the SVD into a reflection without
        # the determinant guard
        pose = random_pose(rng)
        src = rng.normal(size=(4, 3))
        src[:, 2] = 0.0
        r, t = absolute_orientation(src, pose.transform(src))
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(r @ src.T + t.reshape(3, 1), pose.transform(src).T, atol=1e-9)


# ---------------------------------------------------------------------------
# P3P


def _non_degenerate_triple(rng):
    while True:
        pose = random_pose(rng)
        pts = rng.uniform(-3.0, 3.0, size=(3, 3))
        cams = pose.transform(pts)
        if np.any(cams[:, 2] < 0.2):
            continue
        if np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) < 1e-2:
            continue
        return pose, pts, cams


class TestP3P:
    def test_recovers_generating_pose(self, rng):
        for _ in range(300):
            pose, pts, cams = _non_degenerate_triple(rng)
            bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
            sols = solution_poses(p3p_solve(pts, bearings))
            assert sols, "no solution for a valid configuration"
            best = min(np.linalg.norm(s.camera_center() - pose.camera_center()) for s in sols)
            assert best < 1e-6

    def test_at_most_four_solutions(self, rng):
        for _ in range(100):
            _, pts, cams = _non_degenerate_triple(rng)
            bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
            assert len(p3p_solve(pts, bearings)) <= 4

    def test_solutions_satisfy_cheirality_and_reprojection(self, rng):
        for _ in range(100):
            _, pts, cams = _non_degenerate_triple(rng)
            bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
            for sol in solution_poses(p3p_solve(pts, bearings)):
                reproj = sol.transform(pts)
                assert np.all(reproj[:, 2] > 0.0)
                for i in range(3):
                    assert bearing_angle(bearings[i], reproj[i]) <= 1e-6

    def test_collinear_points_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        cams = pts + np.array([0.0, 0.0, 5.0])
        bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
        assert len(p3p_solve(pts, bearings)) == 0

    def test_zero_bearing_rejected(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        bearings = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert len(p3p_solve(pts, bearings)) == 0

    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-100.0, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_any_finite_stack_gives_valid_poses(self, seed, log_scale):
        # far, tiny, nearly collinear, repeated-bearing and behind-the-camera
        # samples: no exception, no warning, and every pose a valid Pose
        r = np.random.default_rng(seed)
        pts = r.normal(size=(12, 3, 3)) * 10.0**log_scale
        pts[:4, 2] = pts[:4, 0] + 1e-12 * 10.0**log_scale * r.normal(size=(4, 3))
        bearings = r.normal(size=(12, 3, 3)) * 10.0 ** r.uniform(-50.0, 50.0)
        bearings[4:6, 1] = bearings[4:6, 0]
        sols = p3p_solve(pts, bearings)
        assert np.all(np.diff(sols.sample) >= 0) and np.all(np.bincount(sols.sample) <= 4)
        for pose in solution_poses(sols):
            assert np.isfinite(pose.translation).all()

    def test_deterministic(self, rng):
        _, pts, cams = _non_degenerate_triple(rng)
        bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
        sols1 = p3p_solve(pts, bearings)
        sols2 = p3p_solve(pts, bearings)
        assert len(sols1) == len(sols2) > 0
        np.testing.assert_array_equal(sols1.rotation, sols2.rotation)
        np.testing.assert_array_equal(sols1.translation, sols2.translation)


def _unit(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _crafted_p3p_samples():
    """Samples that reach the solvers' edge paths, as (world points, bearings)."""
    samples = []
    # collinear world points
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    samples.append((pts, _unit(pts + [0.0, 0.0, 5.0])))
    # a zero bearing
    samples.append(
        (
            np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [0.0, 1.0, 3.0]]),
            np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
        )
    )
    # the second point behind the camera
    pts = np.array([[0.0, 0.0, 4.0], [1.0, 0.0, -2.0], [0.0, 1.0, 3.0]])
    samples.append((pts, _unit(pts)))
    # sides a, b, c = 5, 4, 3 (so A - B = 1) and f1 . f2 = 0: the oracle's
    # quartic has a zero leading coefficient
    samples.append(
        (
            np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 4.0, 0.0]]),
            np.array([_unit([0.3, 0.2, 1.0]), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        )
    )
    # orthonormal bearings: the oracle takes u from its quadratic fallback.
    # The one exact solution, R = I and t = 0, puts two points on the camera
    # plane (z = 0), so whether a solver keeps it is rounding
    samples.append((np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), np.eye(3)[[2, 0, 1]]))
    # an equilateral triangle seen from next to its axis: the two mirror
    # solutions nearly coincide, and both ends of Lambda Twist's cubic
    # nearly vanish
    rng = np.random.default_rng(0)
    tri = np.array([[1.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.0], [-0.5, -math.sqrt(3) / 2, 0.0]])
    for _ in range(200):
        scaled = tri * rng.uniform(0.5, 2.0)
        cams = scaled + [10.0 ** rng.uniform(-17, -9), 0.0, rng.uniform(0.5, 4.0)]
        samples.append((scaled, _unit(cams)))
    return np.array([p for p, _ in samples]), np.array([b for _, b in samples])


def _random_p3p_samples(rng, n):
    """n random samples: bearings of a random camera, with a quarter of them
    replaced by random unit rays (mostly unsolvable)."""
    pts = rng.uniform(-3.0, 3.0, size=(n, 3, 3))
    rot = Rotation.random(n, random_state=rng).as_matrix()
    trans = rng.uniform(-1.0, 1.0, size=(n, 3)) + [0.0, 0.0, 6.0]
    bearings = _unit(np.einsum("nij,nkj->nki", rot, pts) + trans[:, None, :])
    noise = rng.random(n) < 0.25
    bearings[noise] = _unit(rng.normal(size=(int(noise.sum()), 3, 3)))
    return pts, bearings


def _solve_in_stacks(pts, bearings, rng):
    """p3p_solve over stacks of 1 to 40 consecutive samples; per sample, its
    quaternions and translations."""
    bounds = np.cumsum(rng.integers(1, 41, size=len(pts)))
    per_sample = []
    for chunk in np.split(np.arange(len(pts)), bounds[bounds < len(pts)]):
        sols = p3p_solve(pts[chunk], bearings[chunk])
        assert np.all(np.diff(sols.sample) >= 0)
        for i in range(len(chunk)):
            at = sols.sample == i
            per_sample.append((sols.rotation[at], sols.translation[at]))
    return per_sample


def _check_against_oracle(pts, bearings, quat, trans) -> tuple[int, int]:
    """Every oracle pose is among the found ones within 1e-9, and every other
    found pose passes cheirality and the reprojection filter; returns the
    oracle's pose count and the extra count."""
    want = scalar_p3p_solve(pts, bearings)
    matched = set()
    for pose in want:
        gap = np.maximum(
            quat_distance(quat, pose.rotation), np.abs(trans - pose.translation).max(axis=1)
        )
        assert gap.size and gap.min() <= 1e-9, (pts, bearings)
        matched.add(int(gap.argmin()))
    for k in set(range(len(quat))) - matched:
        reproj = Pose(quat[k], trans[k]).transform(pts)
        assert (reproj[:, 2] > 0.0).all()
        assert bearing_angle(_unit(bearings), reproj).max() <= _P3P_REPROJ_TOL
    return len(want), len(quat) - len(matched)


class TestP3PStack:
    """The stacked Lambda Twist solver against the quartic oracle: the same
    poses within 1e-9, extra poses only where they pass the same filters, and
    each sample to the bit however it is stacked."""

    def test_random_samples_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        pts, bearings = _random_p3p_samples(rng, 10_000)
        n_want = n_extra = 0
        for i, (quat, trans) in enumerate(_solve_in_stacks(pts, bearings, rng)):
            assert len(quat) <= 4
            assert all(np.isfinite(Pose(q, t).translation).all() for q, t in zip(quat, trans))
            want, extra = _check_against_oracle(pts[i], bearings[i], quat, trans)
            n_want += want
            n_extra += extra
        assert n_want > len(pts)  # most camera samples have two or more poses
        assert n_extra < 0.001 * n_want

    def test_crafted_samples_match_scalar_oracle(self):
        pts, bearings = _crafted_p3p_samples()
        stacked = _solve_in_stacks(pts, bearings, np.random.default_rng(3))
        for i, (quat, trans) in enumerate(stacked):
            _check_against_oracle(pts[i], bearings[i], quat, trans)
        assert [len(q) for q, _ in stacked[:4]] == [0, 0, 0, 0]
        assert sum(len(q) for q, _ in stacked[5:]) > 0

    def test_stacks_and_single_samples_agree_to_the_bit(self):
        rng = np.random.default_rng(12)
        random_pts, random_bearings = _random_p3p_samples(rng, 2_000)
        crafted_pts, crafted_bearings = _crafted_p3p_samples()
        pts = np.concatenate([random_pts, crafted_pts])
        bearings = np.concatenate([random_bearings, crafted_bearings])
        order = rng.permutation(len(pts))
        pts, bearings = pts[order], bearings[order]
        first = _solve_in_stacks(pts, bearings, rng)
        second = _solve_in_stacks(pts, bearings, rng)
        for i, ((q1, t1), (q2, t2)) in enumerate(zip(first, second)):
            assert np.array_equal(q1, q2) and np.array_equal(t1, t2)
            if i % 5 == 0:
                single = p3p_solve(pts[i], bearings[i])
                assert np.array_equal(single.rotation, q1)
                assert np.array_equal(single.translation, t1)
        # the matrices are the quaternions' own, to the bit, over the whole stack
        whole = p3p_solve(pts, bearings)
        assert len(whole) == sum(len(q) for q, _ in first)
        assert _bits(whole.rotation_matrix) == _bits(quat_to_rotmat(whole.rotation))

    def test_result_layout(self, rng):
        _, pts, cams = _non_degenerate_triple(rng)
        bearings = cams / np.linalg.norm(cams, axis=1, keepdims=True)
        single = p3p_solve(pts, bearings)
        assert len(single) > 0 and not np.any(single.sample)
        assert single.rotation.shape == (len(single), 4)
        assert single.translation.shape == (len(single), 3)
        # the matrices are the quaternions' own, to the bit
        np.testing.assert_array_equal(single.rotation_matrix, quat_to_rotmat(single.rotation))
        assert all(isinstance(pose, Pose) for pose in solution_poses(single))
        empty = p3p_solve(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))
        assert len(empty) == 0 and not empty
        assert empty.rotation.shape == (0, 4) and empty.translation.shape == (0, 3)
        assert empty.rotation_matrix.shape == (0, 3, 3)
