"""Projective geometry kernel.

Dual-quadric landmarks, their projection to image-plane bounding boxes,
pixel bearings, and a minimal three-point pose solver (Lambda Twist, stacked
over many samples, poses as quaternion and translation arrays). Everything
is metric (meters) on the world side and pixels on the image side. Camera
poses map world points into the camera frame (x right, y down, z forward).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_UNIT_QUAT_TOL = 1e-9


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z ordering throughout)


def _dot(a, b) -> np.ndarray:
    """Dot products over the last axis, (..., k) x (..., k) -> (...).

    Each is the BLAS dot that `a @ b` runs on two 1-D arrays, so a stack of
    vectors gives the bits of the vectors taken one at a time; an
    elementwise sum of products can round differently.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _norm(x) -> np.ndarray:
    """Euclidean norm over the last axis; equal to np.linalg.norm of each vector."""
    return np.sqrt(_dot(x, x))


def quat_normalize(q) -> np.ndarray:
    """Normalize quaternions (..., 4) and fix each sign so the first nonzero entry is positive."""
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    with np.errstate(over="ignore"):  # a norm that overflows is rejected like a zero one
        n = _norm(flat)
    if ((n == 0.0) | np.isinf(n)).any():
        raise ValueError("zero quaternion or norm overflow")
    flat = flat / n[:, None]
    first = flat[np.arange(len(flat)), (flat != 0.0).argmax(axis=1)]
    return np.where(first[:, None] < 0.0, -flat, flat).reshape(q.shape)


def quat_to_rotmat(q) -> np.ndarray:
    """Unit quaternions (..., 4) to rotation matrices (..., 3, 3)."""
    q = np.asarray(q, dtype=float)
    q = q.reshape(4) if q.ndim < 2 else q
    if np.any(np.abs(_norm(q) - 1.0) > 1e-6):
        raise ValueError("non-unit quaternion")
    w, x, y, z = np.moveaxis(q, -1, 0)
    r = np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )
    return r if q.ndim == 1 else np.moveaxis(r, (0, 1), (-2, -1))


# Shepperd's branches: row b holds, per quaternion component, the two matrix
# entries (flat index a, b, sign) whose a + sign * b is its numerator; the
# branch's own component (the diagonal) is s / 4 instead
_SHEPPERD_A = np.array([[0, 7, 2, 3], [7, 0, 1, 2], [2, 1, 0, 5], [3, 2, 5, 0]])
_SHEPPERD_B = np.array([[0, 5, 6, 1], [5, 0, 3, 6], [6, 3, 0, 7], [1, 6, 7, 0]])
_SHEPPERD_SIGN = np.array(
    [[-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]]
)


def rotmat_to_quat(r) -> np.ndarray:
    """Rotation matrices (..., 3, 3) to unit quaternions (..., 4), Shepperd's branching.

    The branch is w's when the trace is positive, else the axis of the
    first largest diagonal entry.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1, 9)
    rows = np.arange(len(flat))
    diag = flat[:, [0, 4, 8]]
    tr = diag[:, 0] + diag[:, 1] + diag[:, 2]
    axis = diag.argmax(axis=1)
    # 1 + r_aa - r_bb - r_cc for each axis a
    radicand = (1.0 + diag - diag[:, [1, 0, 0]] - diag[:, [2, 2, 1]])[rows, axis]
    positive = tr > 0.0
    s = np.sqrt(np.where(positive, tr + 1.0, radicand)) * 2.0
    branch = np.where(positive, 0, axis + 1)
    a = flat[rows[:, None], _SHEPPERD_A[branch]]
    b = flat[rows[:, None], _SHEPPERD_B[branch]]
    q = (a + _SHEPPERD_SIGN[branch] * b) / s[:, None]
    q[rows, branch] = 0.25 * s
    return quat_normalize(q).reshape(r.shape[:-2] + (4,))


def quat_distance(q1, q2):
    """Sign-invariant Euclidean distance between unit quaternions (..., 4)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    d = np.minimum(_norm(q1 - q2), _norm(q1 + q2))
    return float(d) if d.ndim == 0 else d


# ---------------------------------------------------------------------------
# core types


@dataclass
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("focal lengths and principal point must be finite")
        # Python floats square to inf where projecting a landmark would overflow
        if not all(math.isfinite(float(v) * float(v)) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise ValueError("focal lengths and principal point so large that their squares overflow")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")


@dataclass
class Pose:
    """Rigid world-to-camera transform, x_cam = R x_world + t.

    rotation is a unit quaternion (w, x, y, z). Construction rejects
    quaternions off the unit sphere beyond 1e-9 rather than silently
    renormalizing, so upstream conventions stay honest, and translations
    that are not finite.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(4)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        # written so that a NaN fails both checks
        if not abs(math.sqrt(self.rotation @ self.rotation) - 1.0) <= _UNIT_QUAT_TOL:
            raise ValueError("non-unit quaternion beyond tolerance")
        if not math.isfinite(self.translation.sum()):
            raise ValueError("non-finite translation")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_rt(cls, r: np.ndarray, t: np.ndarray) -> "Pose":
        return cls(rotmat_to_quat(r), np.asarray(t, dtype=float).reshape(3))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotmat(self.rotation)

    def transform(self, points) -> np.ndarray:
        """Map world points (3,) or (n, 3) into the camera frame.

        One stacked matrix-vector product, so each point of a stack gets
        the bits it gets alone.
        """
        pts = np.asarray(points, dtype=float)
        return np.matmul(self.rotation_matrix(), pts[..., None])[..., 0] + self.translation

    def camera_center(self) -> np.ndarray:
        r = self.rotation_matrix()
        return -r.T @ self.translation

    def inverse(self) -> "Pose":
        r = self.rotation_matrix().T
        return Pose.from_rt(r, -r @ self.translation)


@dataclass
class BoundingBox:
    """Axis-aligned pixel box; finite, min strictly below max on both axes."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_list()):
            raise ValueError("bounding box coordinates must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate bounding box")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max)])

    @property
    def area(self) -> float:
        return self.width * self.height

    def clamped(self, width: float, height: float) -> "BoundingBox | None":
        """Clip to [0, width] x [0, height]; None when nothing is left."""
        x0 = min(max(self.x_min, 0.0), float(width))
        x1 = min(max(self.x_max, 0.0), float(width))
        y0 = min(max(self.y_min, 0.0), float(height))
        y1 = min(max(self.y_max, 0.0), float(height))
        if x1 - x0 <= 0.0 or y1 - y0 <= 0.0:
            return None
        return BoundingBox(x0, y0, x1, y1)

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def quadric_from_params(position, rotation, scale) -> np.ndarray:
    """Dual ellipsoids (..., 4, 4) from centers (..., 3), quaternions (..., 4), semi-axes (..., 3).

    The semi-axis lengths are in meters and must all be positive. The
    center q[:3, 3] / q[3, 3] of each result is its position to the bit.
    """
    p = np.asarray(position, dtype=float)
    s = np.asarray(scale, dtype=float)
    q = np.asarray(rotation, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError("semi-axes must be positive")
    if not np.all(np.abs(_norm(q) - 1.0) <= _UNIT_QUAT_TOL):
        raise ValueError("non-unit quaternion beyond tolerance")
    lead = np.broadcast_shapes(p.shape[:-1], q.shape[:-1], s.shape[:-1])
    z = np.broadcast_to(np.eye(4), lead + (4, 4)).copy()
    z[..., :3, :3] = quat_to_rotmat(q)
    z[..., :3, 3] = p
    d = np.broadcast_to(np.diag([0.0, 0.0, 0.0, -1.0]), lead + (4, 4)).copy()
    # libm pow, as Python floats square: numpy's array square (x * x) rounds
    # differently on a few values, and the quadrics must not depend on the stack
    d[..., [0, 1, 2], [0, 1, 2]] = np.reshape([v**2 for v in np.ravel(s).tolist()], s.shape)
    full = z @ d @ z.swapaxes(-1, -2)
    return 0.5 * (full + full.swapaxes(-1, -2))


# the unique entries (00, 01, 02, 03, 11, 12, 13, 22, 23, 33) of a symmetric 4x4 matrix
_QUAD_ROW = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_QUAD_COL = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
# the dual conic entries (00, 11, 22, 02, 12) that a box's tangent lines read
_CONIC_ROW = np.array([0, 1, 2, 0, 1])
_CONIC_COL = np.array([0, 1, 2, 2, 2])


def _project_quadrics(
    quads: np.ndarray, rotation: np.ndarray, translation: np.ndarray, intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Image boxes of symmetric dual quadrics (u, 4, 4) under n poses, unclamped.

    The poses are rotation matrices (n, 3, 3) and translations (n, 3).

    Returns the extents (n, u, 4) as (x_min, y_min, x_max, y_max) and the
    visibility (n, u): the center q[:3, 3] / q[3, 3] lies in front of the
    camera and the projected dual conic is a nondegenerate ellipse with
    finite extents. Extents where a quadric is not visible are meaningless.

    Of the dual conic C = P Q P' (P = K [R | t]) only the five entries the
    extents read are formed, each as a sum over the quadric's ten unique
    entries with per-pose coefficients, added in one fixed order with
    elementwise products and no matrix product: every (pose, quadric) result
    is the same to the bit in any stack.
    """
    rot = np.asarray(rotation, dtype=float)
    trans = np.asarray(translation, dtype=float)
    rt = np.concatenate([rot, trans[:, :, None]], axis=2)  # (n, 3, 4)
    q = quads[:, _QUAD_ROW, _QUAD_COL].T  # (10, u)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # K [R | t] row by row; K's zeros add nothing
        proj = np.stack(
            [
                intrinsics.fx * rt[:, 0] + intrinsics.cx * rt[:, 2],
                intrinsics.fy * rt[:, 1] + intrinsics.cy * rt[:, 2],
                rt[:, 2],
            ],
            axis=1,
        )
        # C_ab = sum over unique (i, j) of (P_ai P_bj + P_aj P_bi) Q_ij, P_ai P_bi Q_ii on the diagonal
        pa, pb = proj[:, _CONIC_ROW], proj[:, _CONIC_COL]  # (n, 5, 4)
        ai, bj = pa[:, :, _QUAD_ROW], pb[:, :, _QUAD_COL]  # (n, 5, 10)
        aj, bi = pa[:, :, _QUAD_COL], pb[:, :, _QUAD_ROW]
        coef = np.where(_QUAD_ROW == _QUAD_COL, ai * bj, ai * bj + aj * bi).transpose(2, 1, 0)
        conic = coef[0, :, :, None] * q[0]  # (5, n, u)
        term = np.empty_like(conic)
        for k in range(1, len(q)):
            conic += np.multiply(coef[k, :, :, None], q[k], out=term)
        c00, c11, c22, c02, c12 = conic
        centers = quads[:, :3, 3] / quads[:, 3, 3:]
        z = rt[:, 2, :, None]  # the camera's z row, [R_2 | t_z]
        cam_z = z[:, 0] * centers[:, 0] + z[:, 1] * centers[:, 1] + z[:, 2] * centers[:, 2]
        cam_z += z[:, 3]
        disc_x = c02**2 - c00 * c22
        disc_y = c12**2 - c11 * c22
        ok = (cam_z > 0.0) & (np.abs(c22) > 1e-12) & (disc_x > 0.0) & (disc_y > 0.0)
        # square roots signed like c22 give (c - s) / c22 <= (c + s) / c22 for a
        # conic of either sign (negating one changes no bit of its extents); a
        # negative discriminant leaves NaN extents on a box that is not visible
        sx = np.copysign(np.sqrt(disc_x), c22)
        sy = np.copysign(np.sqrt(disc_y), c22)
        ext = np.stack([c02 - sx, c12 - sy, c02 + sx, c12 + sy])
        ext /= c22
        ok &= (ext[2] - ext[0] > 0.0) & (ext[3] - ext[1] > 0.0) & np.isfinite(ext).all(axis=0)
    return ext.transpose(1, 2, 0), ok


def pixel_to_bearing(pixel, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit rays (..., 3) in the camera frame through pixels (..., 2).

    A stack gives each pixel's ray to the bit as if alone.
    """
    px = np.asarray(pixel, dtype=float)
    ray = np.stack(
        [
            (px[..., 0] - intrinsics.cx) / intrinsics.fx,
            (px[..., 1] - intrinsics.cy) / intrinsics.fy,
            np.ones(px.shape[:-1]),
        ],
        axis=-1,
    )
    return ray / _norm(ray)[..., None]


# ---------------------------------------------------------------------------
# three-point pose

_P3P_REPROJ_TOL = 1e-6  # rad, largest bearing-to-reprojection angle of a kept pose
_P3P_STEPS = 2  # most Gauss-Newton steps on one depth triple

# point pairs (0, 1), (0, 2), (1, 2)
_FIRST, _SECOND = np.array([0, 0, 1]), np.array([1, 2, 2])
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])
_ROWS = np.arange(3)
# entries (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix, as its full index
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


@dataclass(frozen=True, eq=False)
class P3PSolutions:
    """The poses of a p3p_solve call, as arrays.

    Per pose: `sample`, the index of the sample it solves (0 for a single
    sample); `rotation`, its unit quaternion (w, x, y, z); `translation`;
    `rotation_matrix`, the quaternion's `quat_to_rotmat` (3, 3). Poses are
    grouped by sample in sample order, the smallest reprojection error first
    within a sample. len() is the number of poses.
    """

    sample: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray
    rotation_matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.sample)

    def pose(self, k: int) -> Pose:
        return Pose(self.rotation[k], self.translation[k])


def _cross(a, b) -> np.ndarray:
    """Cross products over the last axis, one elementwise product per term."""
    return a.take(_NEXT, -1) * b.take(_LAST, -1) - a.take(_LAST, -1) * b.take(_NEXT, -1)


def _sum3(x) -> np.ndarray:
    """x[..., 0] + x[..., 1] + x[..., 2], added in that order for any stack."""
    return x[..., 0] + x[..., 1] + x[..., 2]


def p3p_solve(world_points, bearings) -> P3PSolutions:
    """Solve perspective-three-point for world-to-camera poses (Lambda Twist).

    Args:
        world_points: (3, 3) array, one 3D point per row, or a stack
            (n, 3, 3) of such samples.
        bearings: rays in the camera frame, one per row, corresponding to
            the world points; same shape as world_points.

    Returns:
        The poses of all samples as one P3PSolutions, up to four per sample.
        Collinear world points, zero bearings, complex depths, and solutions
        placing a point behind the camera yield fewer (possibly zero) poses.
        A pose is kept only when every bearing is within _P3P_REPROJ_TOL
        radians of its reprojected point; a sample's poses are ordered by
        that angle, and near-duplicates are dropped.

    Lambda Twist (Persson & Nordberg, ECCV 2018): the depths l satisfy
    |l_i y_i - l_j y_j|^2 = |x_i - x_j|^2 for the three point pairs.
    Eliminating the right-hand sides leaves two homogeneous quadrics D1, D2.
    A real root g of the cubic det(D1 + g D2) makes D0 = D1 + g D2 singular;
    its closed-form eigendecomposition, with the known zero eigenvalue,
    splits l' D0 l = 0 into two planes through the origin. Each plane meets
    a second quadric of the pencil in up to two depth directions, which are
    scaled to the side lengths. Every depth triple then takes Gauss-Newton
    steps on the three constraints, and R = Y X^-1 maps the world
    triangle's edges and normal onto the camera's, with no SVD. Rotations
    leave as quaternions and as the matrices the alignment scoring reads.

    A stack is solved in one numpy pass, each sample to the bit as if alone.
    A pass costs about the same for one sample as for dozens, so solve many
    samples per call where possible.
    """
    pts = np.asarray(world_points, dtype=float).reshape(-1, 3, 3)
    f = np.asarray(bearings, dtype=float).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):  # rejected samples and depths run along as NaN and inf
        return _lambda_twist(pts, f)


def _cubic_root(b, c, d) -> np.ndarray:
    """A real root of x^3 + b x^2 + c x + d per element, the only one or the
    largest of three, in closed form; then one Newton step where it shrinks
    the residual.

    The cube roots (libm pow) and cosines are taken one element at a time:
    numpy's vectorized ones may round an element differently by its place
    in the array.
    """
    p = c - b * b / 3.0
    q = b * (2.0 * b * b - 9.0 * c) / 27.0 + d
    disc = 0.25 * q * q + p * p * p / 27.0
    x = np.empty_like(p)
    # one real root: Cardano's, the cube root taken away from cancellation
    one = disc >= 0.0
    p1, q1 = p[one], q[one]
    w = (-0.5 * q1 - np.copysign(np.sqrt(disc[one]), q1)).tolist()
    u = np.array([math.copysign(abs(v) ** (1.0 / 3.0), v) for v in w])
    x[one] = np.where(u == 0.0, 0.0, u - p1 / (3.0 * u))
    # three (p < 0): the largest, in trigonometric form
    p3, q3 = p[~one], q[~one]
    cos = np.clip(1.5 * q3 / p3 * np.sqrt(-3.0 / p3), -1.0, 1.0).tolist()
    x[~one] = 2.0 * np.sqrt(-p3 / 3.0) * np.array([math.cos(math.acos(v) / 3.0) for v in cos])
    x -= b / 3.0
    fx = ((x + b) * x + c) * x + d
    x1 = x - fx / ((3.0 * x + 2.0 * b) * x + c)
    return np.where(np.abs(((x1 + b) * x1 + c) * x1 + d) < np.abs(fx), x1, x)


def _null_vector(m: np.ndarray) -> np.ndarray:
    """A unit vector spanning the null space of each rank-2 matrix (..., 3, 3):
    the longest cross product of two of its rows (the first of equals)."""
    cand = _cross(m.take(_FIRST, -2), m.take(_SECOND, -2))
    sq = _sum3(cand * cand)
    s0, s1, s2 = sq[..., 0], sq[..., 1], sq[..., 2]
    first = (s0 >= s1) & (s0 >= s2)
    rest = np.where((s1 >= s2)[..., None], cand[..., 1, :], cand[..., 2, :])
    best = np.where(first[..., None], cand[..., 0, :], rest)
    return best / np.sqrt(np.where(first, s0, np.maximum(s1, s2)))[..., None]


def _refine_depths(lam, a, c) -> np.ndarray:
    """Gauss-Newton on the constraints l_i^2 + l_j^2 - 2 c_ij l_i l_j = a_ij.

    lam (m, 3) depths, a (m, 3) squared sides and c (m, 3) bearing cosines,
    per pair (0, 1), (0, 2), (1, 2). A triple takes a step only while it
    shrinks its summed absolute residual, at most _P3P_STEPS times.
    """
    c2 = 2.0 * c

    def residual(l):
        li, lj = l.take(_FIRST, 1), l.take(_SECOND, 1)
        r = li * (li - c2 * lj) + lj * lj - a
        return r, _sum3(np.abs(r))

    r, size = residual(lam)
    active = size > 0.0
    jac = np.zeros((len(lam), 3, 3))
    for _ in range(_P3P_STEPS):
        if not active.any():
            break
        li, lj = lam.take(_FIRST, 1), lam.take(_SECOND, 1)
        jac[:, _ROWS, _FIRST] = 2.0 * li - c2 * lj
        jac[:, _ROWS, _SECOND] = 2.0 * lj - c2 * li
        # Cramer: the inverse's columns are the rows' cross products over det
        cof = _cross(jac.take(_NEXT, 1), jac.take(_LAST, 1))
        step = cof[:, 0] * r[:, :1] + cof[:, 1] * r[:, 1:2] + cof[:, 2] * r[:, 2:]
        nxt = lam - step / _sum3(jac[:, 0] * cof[:, 0])[:, None]
        r_nxt, size_nxt = residual(nxt)
        active &= size_nxt < size
        lam = np.where(active[:, None], nxt, lam)
        r = np.where(active[:, None], r_nxt, r)
        size = np.where(active, size_nxt, size)
    return lam


def _lambda_twist(pts: np.ndarray, f: np.ndarray) -> P3PSolutions:
    """p3p_solve of (n, 3, 3) world points and bearings."""
    n = len(pts)
    norms = np.sqrt(np.add.reduce(f * f, axis=2))  # np.linalg.norm(f, axis=2)
    ok = ~(norms == 0.0).any(axis=1)
    f = f / norms[:, :, None]

    # sides x0 - x1, x0 - x2, x1 - x2, their squared lengths a, and the
    # cosines c between the same bearing pairs
    side = pts.take(_FIRST, 1) - pts.take(_SECOND, 1)
    normal = _cross(side[:, 0], side[:, 1])
    area2 = _sum3(normal * normal)
    a = _sum3(side * side)
    c = _sum3(f.take(_FIRST, 1) * f.take(_SECOND, 1))
    # collinear: twice the triangle's area at most 1e-9 of |x1 - x0| |x2 - x0|, or of 1
    ok &= ~(area2 <= 1e-18 * np.maximum(a[:, 0] * a[:, 1], 1.0))
    a01, a02, a12 = a.T
    c01, c02, c12 = c.T
    s01, s02, s12 = (1.0 - c * c).T

    # D1 = a12 M01 - a01 M12 and D2 = a02 M12 - a12 M02, where l' Mij l =
    # |l_i y_i - l_j y_j|^2, as entries (00, 01, 02, 11, 12, 22) by sample
    zero = np.zeros(n)
    d1 = np.array([a12, -a12 * c01, zero, a12 - a01, a01 * c12, -a01])
    d2 = np.array([-a12, zero, a12 * c02, a02, -a02 * c12, a02 - a12])
    # det(D1 + g D2) / a12, highest power first
    blob = c01 * c12 * c02 - 1.0
    poly = np.array(
        [
            a02 * (a12 * s02 - a02 * s12),
            2.0 * blob * a12 * a02 + a02 * (2.0 * a01 + a02) * s12 + a12 * (a12 - a01) * s02,
            a12 * (a02 - a12) * s01 - a01 * a01 * s12 - 2.0 * a01 * (blob * a12 + a02 * s12),
            a01 * (a01 * s12 - a12 * s01),
        ]
    )
    # root the cubic in g, or in 1/g where that leads with the larger
    # coefficient: D0 = al D1 + be D2. With both ends zero D1 is singular.
    flip = np.abs(poly[3]) > np.abs(poly[0])
    poly = np.where(flip, poly[::-1], poly)
    g = _cubic_root(*(poly[1:] / poly[0]))
    g = np.where(poly[0] == 0.0, 0.0, g)
    al = np.where(flip, g, 1.0)
    be = np.where(flip, 1.0, g)
    d0 = np.moveaxis((al * d1 + be * d2)[_SYM], -1, 0)  # (n, 3, 3)
    dq = np.moveaxis((al * d2 - be * d1)[_SYM], -1, 0)  # a second quadric, not D0's multiple

    # D0's eigenvalues besides the zero one, the larger in magnitude first,
    # and eigenvectors e1, e2 (orthonormalized), e3 = e1 x e2 spanning the
    # null space. l' D0 l = 0 on the planes (e1 -+ v e2) . l = 0, v =
    # sqrt(-s2 / s1), spanned by e3 and e2 +- v e1.
    m00, m11, m22 = d0[:, 0, 0], d0[:, 1, 1], d0[:, 2, 2]
    off = d0[:, _FIRST, _SECOND]
    tr = m00 + m11 + m22
    minors = m00 * m11 + m00 * m22 + m11 * m22 - _sum3(off * off)
    big = 0.5 * (tr + np.copysign(np.sqrt(np.maximum(tr * tr - 4.0 * minors, 0.0)), tr))
    sig = np.stack([big, minors / big], axis=1)
    e1, e2 = _null_vector(d0[:, None] - sig[:, :, None, None] * np.eye(3)).swapaxes(0, 1)
    e2 = e2 - _sum3(e1 * e2)[:, None] * e1
    e2 = e2 / np.sqrt(_sum3(e2 * e2))[:, None]
    e3 = _cross(e1, e2)
    v = np.sqrt(np.maximum(-sig[:, 1] / sig[:, 0], 0.0))[:, None, None]
    w = e2[:, None] + np.array([[1.0], [-1.0]]) * v * e1[:, None]  # (n, 2, 3)

    # per plane, l = p e3 + q w with (p, q) a root of the second quadric
    # there: qbb (q/p)^2 + 2 qab (q/p) + qaa = 0; both roots as directions,
    # with no division
    qe3 = _sum3(dq * e3[:, None, :])
    qaa = _sum3(e3 * qe3)[:, None]
    qab = _sum3(w * qe3[:, None])
    qbb = _sum3(w * _sum3(dq[:, None] * w[:, :, None, :]))
    disc = qab * qab - qaa * qbb
    h = -(qab + np.copysign(np.sqrt(disc), qab))
    qaa, qbb, h, e3 = qaa[..., None], qbb[..., None], h[..., None], e3[:, None]
    lam = np.stack([qbb * e3 + h * w, h * e3 + qaa * w], axis=2).reshape(n, 4, 3)
    # scaled so the three squared sides sum to a's, the depths' sum positive
    li, lj = lam.take(_FIRST, 2), lam.take(_SECOND, 2)
    spread = _sum3(li * (li - 2.0 * c[:, None] * lj) + lj * lj)
    scale = np.sqrt(_sum3(a)[:, None] / spread)
    lam *= np.copysign(scale, _sum3(lam))[..., None]
    use = (lam > 0.0).all(axis=2) & ok[:, None]
    use &= (disc >= 0.0).repeat(2, axis=1)

    sample = np.nonzero(use)[0]
    lam = _refine_depths(lam[use], a[sample], c[sample])
    # R = Y X^-1: X's columns x0 - x1, x0 - x2 and the normal, Y's the same
    # in the camera; X^-1's rows are cross products of X's columns over det X
    cam = lam[:, :, None] * f[sample]
    y = cam[:, :1] - cam[:, 1:]
    y = np.concatenate([y, _cross(y[:, :1], y[:, 1:])], axis=1)
    x = np.concatenate([side[:, :2], normal[:, None]], axis=1)
    x_inv = (_cross(x.take(_NEXT, 1), x.take(_LAST, 1)) / area2[:, None, None])[sample]
    prod = y[:, :, :, None] * x_inv[:, :, None, :]
    r = prod[:, 0] + prod[:, 1] + prod[:, 2]
    # a rotation's entries lie in [-1, 1]: larger ones, inf or NaN come from
    # depths that solve nothing, and are kept away from rotmat_to_quat
    fine = (np.abs(r) <= 2.0).all(axis=(1, 2)) & (lam > 0.0).all(axis=1)
    r[~fine] = np.eye(3)
    quat = rotmat_to_quat(r)
    rot = quat_to_rotmat(quat)

    # cheirality and the reprojection filter, on the pose as it leaves; the
    # largest tangent orders poses as the largest angle would
    world = pts[sample]
    rx = _sum3(rot[:, None] * world[:, :, None, :])
    t = cam[:, 0] - rx[:, 0]
    proj = rx + t[:, None]
    ray = f[sample]
    dot = _sum3(ray * proj)
    cross = _cross(ray, proj)
    err = (np.sqrt(_sum3(cross * cross)) / dot).max(axis=1)
    fine &= (dot > 0.0).all(axis=1) & (proj[:, :, 2] > 0.0).all(axis=1)
    fine &= (err <= math.tan(_P3P_REPROJ_TOL)) & np.isfinite(t).all(axis=1)
    sample, err, quat, rot, t = sample[fine], err[fine], quat[fine], rot[fine], t[fine]

    # per sample, smallest error first (stable); a pose that repeats one
    # kept before it in its sample is dropped
    order = np.lexsort((err, sample))
    sample, quat, rot, t = sample[order], quat[order], rot[order], t[order]
    k = np.arange(len(sample))
    i = np.concatenate([k[:-d] for d in (1, 2, 3)])
    j = np.concatenate([k[d:] for d in (1, 2, 3)])
    same = sample[i] == sample[j]
    i, j = i[same], j[same]
    near = _norm(t[j] - t[i]) <= 1e-7 * (1.0 + _norm(t[j]))
    kept = np.ones(len(sample), dtype=bool)
    if near.any():
        i, j = i[near], j[near]
        near = quat_distance(quat[j], quat[i]) <= 1e-7
        for later, earlier in sorted(zip(j[near].tolist(), i[near].tolist())):
            kept[later] &= not kept[earlier]
    return P3PSolutions(sample[kept], quat[kept], t[kept], rot[kept])
