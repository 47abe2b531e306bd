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
    """Normalize quaternions (..., 4) and fix each sign so the first nonzero entry is positive.

    Each is divided by its norm, then multiplied by the sign of its first
    nonzero entry. A zero or non-finite quaternion, or one whose norm
    overflows, raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    with np.errstate(over="ignore"):  # a norm that overflows is rejected like a zero one
        n = _norm(flat)
    if not ((n > 0.0) & (n < math.inf)).all():  # written so that a NaN fails it
        raise ValueError("zero quaternion, NaN or norm overflow")
    flat = flat / n[:, None]
    first = flat[np.arange(len(flat)), (flat != 0.0).argmax(axis=1)]
    return (flat * np.copysign(1.0, first)[:, None]).reshape(q.shape)


# quat_to_rotmat's nine entries, row by row, each 2 (q_a q_b + sign q_c q_d)
# with 1 - that on the diagonal: rows a, b, c, d of quaternion indices, and the signs
_ROTMAT_INDEX = np.array(
    [
        [2, 1, 1, 1, 1, 2, 1, 2, 1],
        [2, 2, 3, 2, 1, 3, 3, 3, 1],
        [3, 0, 0, 0, 3, 0, 0, 0, 2],
        [3, 3, 2, 3, 3, 1, 2, 1, 2],
    ]
)
_ROTMAT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])[:, None]


def quat_to_rotmat(q) -> np.ndarray:
    """Unit quaternions (..., 4) to rotation matrices (..., 3, 3).

    With q = (w, x, y, z), entry 01 is 2 (x y - w z) and entry 00 is
    1 - 2 (y y + z z), and so on; each entry takes the same operations in
    that order. A quaternion off the unit sphere by more than 1e-6, or not
    finite, raises ValueError.
    """
    q = np.asarray(q, dtype=float)
    flat = q.reshape(-1, 4)
    if not (np.abs(_norm(flat) - 1.0) <= 1e-6).all():  # written so that a NaN fails it
        raise ValueError("non-unit quaternion")
    return _rotmat(flat).reshape(q.shape[:-1] + (3, 3))


def _rotmat(q: np.ndarray) -> np.ndarray:
    """quat_to_rotmat of quaternions (n, 4) known to be unit, (n, 3, 3)."""
    a, b, c, d = q.T.take(_ROTMAT_INDEX, axis=0)  # (9, n) each
    r = a * b + _ROTMAT_SIGN * (c * d)
    r *= 2.0
    diag = r[::4]
    np.subtract(1.0, diag, out=diag)
    return np.ascontiguousarray(r.T).reshape(-1, 3, 3)


# Shepperd's branches (w, x, y, z): per quaternion component, the two matrix
# entries (flat indices a, b, then its sign) whose a + sign * b is its
# numerator, the branch's own component being s / 4 instead; then the
# diagonal entries (a, b, c) of the radicand 1 + r_a - r_b - r_c, which
# the w branch does not read
_SHEPPERD = np.array(
    [
        [0, 7, 2, 3, 0, 5, 6, 1, 0, 4, 8],
        [7, 0, 1, 2, 5, 0, 3, 6, 0, 4, 8],
        [2, 1, 0, 5, 6, 3, 0, 7, 4, 0, 8],
        [3, 2, 5, 0, 1, 6, 7, 0, 8, 0, 4],
    ]
)
_SHEPPERD_SIGN = np.array(
    [[-1.0, -1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, -1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]]
)


def rotmat_to_quat(r) -> np.ndarray:
    """Rotation matrices (..., 3, 3) to unit quaternions (..., 4), Shepperd's branching.

    The branch is w's when the trace is positive, else the axis of the
    first largest diagonal entry. Its component is s / 4, with s twice the
    square root of 1 + trace (w) or of 1 + r_aa - r_bb - r_cc (axis a), and
    the others (r_ij +- r_ji) / s; the result then goes through
    quat_normalize, so a matrix with a NaN raises ValueError.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1, 9)
    rows = np.arange(len(flat))
    diag = flat.T[::4]
    tr = diag[0] + diag[1] + diag[2]
    positive = tr > 0.0
    branch = np.where(positive, 0, diag.argmax(axis=0) + 1)
    e = flat.take(_SHEPPERD.take(branch, 0).T + 9 * rows)  # (11, n)
    s = np.sqrt(np.where(positive, tr + 1.0, 1.0 + e[8] - e[9] - e[10])) * 2.0
    q = (e[:4] + _SHEPPERD_SIGN.take(branch, 0).T * e[4:8]) / s
    q[branch, rows] = 0.25 * s
    return quat_normalize(q.T).reshape(r.shape[:-2] + (4,))


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


# the unique entries (00, 01, 02, 03, 11, 12, 13, 22, 23, 33) of a symmetric
# 4x4 matrix, and which of them lie on the diagonal
_QUAD_ROW = np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3])
_QUAD_COL = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
_QUAD_DIAG = (_QUAD_ROW == _QUAD_COL)[:, None, None]
# the dual conic entries (00, 11, 22, 02, 12) that a box's tangent lines read
_CONIC_ROW = np.array([0, 1, 2, 0, 1])
_CONIC_COL = np.array([0, 1, 2, 2, 2])
# the projection entries P_ai, P_bj, P_aj, P_bi (flat in P's 3 x 4) per
# unique quadric entry (i, j) and conic entry (a, b), (4, 10, 5)
_CONIC_TERMS = 4 * np.array([_CONIC_ROW, _CONIC_COL, _CONIC_ROW, _CONIC_COL])[:, None, :] + np.array(
    [_QUAD_ROW, _QUAD_COL, _QUAD_COL, _QUAD_ROW]
)[:, :, None]


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
    q = quads[:, _QUAD_ROW, _QUAD_COL].T[:, :, None, None]  # (10, u, 1, 1)
    focal = np.array([[intrinsics.fx], [intrinsics.fy]])
    center = np.array([[intrinsics.cx], [intrinsics.cy]])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # K [R | t] row by row; K's zeros add nothing
        proj = np.concatenate([focal * rt[:, :2] + center * rt[:, 2:], rt[:, 2:]], axis=1)
        # C_ab = sum over unique (i, j) of (P_ai P_bj + P_aj P_bi) Q_ij, P_ai P_bi Q_ii on the diagonal
        p = proj.reshape(-1, 12).T.take(_CONIC_TERMS, axis=0)  # (4, 10, 5, n)
        ab = p[0] * p[1]
        coef = np.where(_QUAD_DIAG, ab, ab + p[2] * p[3])
        # (u, 5, n): each product runs over a whole (5, n) block per quadric
        conic = coef[0] * q[0]
        term = np.empty_like(conic)
        for k in range(1, len(q)):
            conic += np.multiply(coef[k], q[k], out=term)
        c00, c11, c22, c02, c12 = conic.transpose(1, 0, 2)  # (u, n) each
        centers = quads[:, :3, 3] / quads[:, 3, 3:]
        z = rt[:, 2]  # the camera's z row, [R_2 | t_z]
        cam_z = z[:, 0] * centers[:, :1] + z[:, 1] * centers[:, 1:2] + z[:, 2] * centers[:, 2:]
        cam_z += z[:, 3]
        disc_x = c02**2 - c00 * c22
        disc_y = c12**2 - c11 * c22
        ok = (cam_z > 0.0) & (np.abs(c22) > 1e-12) & (disc_x > 0.0) & (disc_y > 0.0)
        # square roots signed like c22 give (c - s) / c22 <= (c + s) / c22 for a
        # conic of either sign (negating one changes no bit of its extents); a
        # negative discriminant leaves NaN extents on a box that is not visible
        sx = np.copysign(np.sqrt(disc_x), c22)
        sy = np.copysign(np.sqrt(disc_y), c22)
        ext = np.concatenate([c02 - sx, c12 - sy, c02 + sx, c12 + sy]).reshape((4,) + c22.shape)
        ext /= c22
        ok &= (ext[2] - ext[0] > 0.0) & (ext[3] - ext[1] > 0.0) & np.isfinite(ext).all(axis=0)
    return ext.transpose(2, 1, 0), ok.T


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
# entries (00, 01, 02, 11, 12, 22) of a symmetric 3x3 matrix, as its full index
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_SYM_EYE = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0])


def _cross_index(a, b) -> np.ndarray:
    """Index rows (A, B, C, D), each (3,), such that x[A] * x[B] - x[C] * x[D]
    is the cross product of x[a] and x[b], formed as `_cross` forms it."""
    return np.array([a[_NEXT], b[_LAST], a[_LAST], b[_NEXT]])


# the cross products of a symmetric matrix's rows (0, 1), (0, 2), (1, 2), in
# its entries (see _SYM), component by component: (4, component, row pair)
_SYM_ROW_CROSS = np.stack([_cross_index(_SYM[i], _SYM[j]) for i, j in zip(_FIRST, _SECOND)], 2)
# a depth triple's per-pair (l_i, then l_j) and (l_j, then l_i)
_PAIR_IJ = np.concatenate([_FIRST, _SECOND])
_PAIR_JI = np.concatenate([_SECOND, _FIRST])
# the constraints' Jacobian [[p, q, 0], [r, 0, s], [0, t, u]] as indices into
# (p, r, t, q, s, u, 0), and the cross products of its rows (1, 2), (2, 0),
# (0, 1): (4, row, component)
_JAC = np.array([[0, 3, 6], [1, 6, 4], [6, 2, 5]])
_JAC_COF = np.stack([_cross_index(_JAC[i], _JAC[j]) for i, j in zip(_NEXT, _LAST)], 1)
# the pencil's quadric on a plane: the products (e3, q e3), (w_p, q e3) and (w_p, q w_p)
_QUAD_LEFT = np.array([0, 1, 2, 1, 2])
_QUAD_RIGHT = np.array([0, 0, 0, 1, 2])
# per plane, the two depth directions (qbb, h) . e3 + (h, qaa) . w, as
# indices into (qaa, qab0, qab1, qbb0, qbb1, h0, h1)
_ROOT_E3 = np.array([[3, 5], [4, 6]])
_ROOT_W = np.array([[5, 0], [6, 0]])
_PLUS_MINUS = np.array([[1.0], [-1.0]])
_EYE3 = np.eye(3)[:, :, None]


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
    """Cross products over the first axis, one elementwise product per term."""
    return a.take(_NEXT, 0) * b.take(_LAST, 0) - a.take(_LAST, 0) * b.take(_NEXT, 0)


def _sum3(x) -> np.ndarray:
    """x[0] + x[1] + x[2], added in that order for any stack."""
    return x[0] + x[1] + x[2]


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
    A pass is mostly fixed cost: on a 2-core Xeon host one sample takes
    about 0.4 ms, 24 about 0.5 ms and 96 about 0.7 ms, so solve many samples
    per call where possible.
    """
    pts = np.asarray(world_points, dtype=float).reshape(-1, 3, 3)
    f = np.asarray(bearings, dtype=float).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):  # rejected samples and depths run along as NaN and inf
        return _lambda_twist(pts, f)


def _cubic_root(b, c, d) -> np.ndarray:
    """A real root of x^3 + b x^2 + c x + d per element, the only one or the
    largest of three, in closed form; then one Newton step where it shrinks
    the residual.

    Both closed forms are evaluated on every element and the one that
    applies is kept; but the cube roots (libm pow) and cosines are taken one
    element at a time, and only where they apply: numpy's vectorized ones
    may round an element differently by its place in the array.
    """
    p = c - b * b / 3.0
    q = b * (2.0 * b * b - 9.0 * c) / 27.0 + d
    disc = 0.25 * q * q + p * p * p / 27.0
    one = disc >= 0.0
    # one real root: Cardano's, the cube root taken away from cancellation;
    # three (p < 0): the largest, in trigonometric form
    w = -0.5 * q - np.copysign(np.sqrt(disc), q)
    cos = np.minimum(np.maximum(1.5 * q / p * np.sqrt(-3.0 / p), -1.0), 1.0)  # np.clip, unwrapped
    root = np.array(
        [
            math.copysign(abs(v) ** (1.0 / 3.0), v) if single else math.cos(math.acos(k) / 3.0)
            for single, v, k in zip(one.tolist(), w.tolist(), cos.tolist())
        ]
    )
    cardano = np.where(root == 0.0, 0.0, root - p / (3.0 * root))
    x = np.where(one, cardano, 2.0 * np.sqrt(-p / 3.0) * root)
    x -= b / 3.0
    fx = ((x + b) * x + c) * x + d
    x1 = x - fx / ((3.0 * x + 2.0 * b) * x + c)
    return np.where(np.abs(((x1 + b) * x1 + c) * x1 + d) < np.abs(fx), x1, x)


def _null_vector(m: np.ndarray) -> np.ndarray:
    """A unit vector (3, ...) spanning the null space of each rank-2
    symmetric matrix, given by its entries (6, ...) (see _SYM): the longest
    cross product of two of its rows (the first of equals)."""
    g = m.take(_SYM_ROW_CROSS, 0)
    cand = g[0] * g[1] - g[2] * g[3]  # (component, row pair, ...)
    sq = _sum3(cand * cand)
    s0, s1, s2 = sq
    first = (s0 >= s1) & (s0 >= s2)
    rest = np.where(s1 >= s2, cand[:, 1], cand[:, 2])
    best = np.where(first, cand[:, 0], rest)
    return best / np.sqrt(np.where(first, s0, np.maximum(s1, s2)))


def _refine_depths(lam, a, c2) -> np.ndarray:
    """Gauss-Newton on the constraints l_i^2 + l_j^2 - c2_ij l_i l_j = a_ij.

    lam (3, m) depths, a (3, m) squared sides and c2 (3, m) twice the
    bearing cosines, per pair (0, 1), (0, 2), (1, 2). A triple takes a step
    only while it shrinks its summed absolute residual, at most _P3P_STEPS
    times.
    """
    c2c2 = np.concatenate([c2, c2])

    def residual(l):
        li, lj = l.take(_FIRST, 0), l.take(_SECOND, 0)
        r = li * (li - c2 * lj) + lj * lj - a
        return r, _sum3(np.abs(r))

    r, size = residual(lam)
    active = size > 0.0
    jac = np.zeros((7, lam.shape[1]))  # see _JAC
    for _ in range(_P3P_STEPS):
        if not active.any():
            break
        np.subtract(2.0 * lam.take(_PAIR_IJ, 0), c2c2 * lam.take(_PAIR_JI, 0), out=jac[:6])
        # Cramer: the inverse's columns are the rows' cross products over det
        g = jac.take(_JAC_COF, 0)
        cof = g[0] * g[1] - g[2] * g[3]  # (row, component, m)
        det = _sum3(jac.take(_JAC[0], 0) * cof[0])
        nxt = lam - _sum3(cof * r[:, None]) / det
        r_nxt, size_nxt = residual(nxt)
        active &= size_nxt < size
        lam = np.where(active, nxt, lam)
        r = np.where(active, r_nxt, r)
        size = np.where(active, size_nxt, size)
    return lam


def _lambda_twist(pts: np.ndarray, f: np.ndarray) -> P3PSolutions:
    """p3p_solve of (n, 3, 3) world points and bearings.

    Vectors are laid out component first and sample last, (3, ..., n), so
    that every elementwise operation runs over whole contiguous blocks.
    """
    n = len(pts)
    pts = pts.transpose(2, 1, 0)  # (coordinate, point, sample)
    f = np.ascontiguousarray(f.transpose(2, 1, 0))
    norms = np.sqrt(_sum3(f * f))  # np.linalg.norm of each bearing, (point, sample)
    ok = norms.all(axis=0)
    f = f / norms

    # sides x0 - x1, x0 - x2, x1 - x2 and the normal; the squared lengths a
    # of the sides, twice the triangle's area squared, and the cosines c
    # between the same bearing pairs
    side = pts.take(_FIRST, 1) - pts.take(_SECOND, 1)
    normal = _cross(side[:, 0], side[:, 1])
    dots = _sum3(
        np.concatenate([side, normal[:, None], f.take(_FIRST, 1)], axis=1)
        * np.concatenate([side, normal[:, None], f.take(_SECOND, 1)], axis=1)
    )
    a, area2, c = dots[:3], dots[3], dots[4:]
    # collinear: twice the triangle's area at most 1e-9 of |x1 - x0| |x2 - x0|, or of 1
    ok &= ~(area2 <= 1e-18 * np.maximum(a[0] * a[1], 1.0))
    a01, a02, a12 = a
    c01, c02, c12 = c
    s01, s02, s12 = 1.0 - c * c

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
    d0 = al * d1 + be * d2
    dq = (al * d2 - be * d1).take(_SYM, 0)  # a second quadric, not D0's multiple, (3, 3, n)

    # D0's eigenvalues besides the zero one, the larger in magnitude first,
    # and eigenvectors e1, e2 (orthonormalized), e3 = e1 x e2 spanning the
    # null space. l' D0 l = 0 on the planes (e1 -+ v e2) . l = 0, v =
    # sqrt(-s2 / s1), spanned by e3 and e2 +- v e1.
    m00, m11, m22 = d0[0], d0[3], d0[5]
    off2 = d0[[1, 2, 4]] ** 2
    tr = m00 + m11 + m22
    minors = m00 * m11 + m00 * m22 + m11 * m22 - _sum3(off2)
    big = 0.5 * (tr + np.copysign(np.sqrt(np.maximum(tr * tr - 4.0 * minors, 0.0)), tr))
    sig = np.array([big, minors / big])
    e = _null_vector(d0[:, None] - sig * _SYM_EYE[:, None, None])  # (3, 2, n)
    e1, e2 = e[:, 0], e[:, 1]
    e2 = e2 - _sum3(e1 * e2) * e1
    e2 = e2 / np.sqrt(_sum3(e2 * e2))
    e3 = _cross(e1, e2)
    v = np.sqrt(np.maximum(-sig[1] / sig[0], 0.0))
    w = e2[:, None] + _PLUS_MINUS * v * e1[:, None]  # (3, 2, n)

    # per plane, l = p e3 + q w with (p, q) a root of the second quadric
    # there: qbb (q/p)^2 + 2 qab (q/p) + qaa = 0; both roots as directions,
    # with no division
    vecs = np.concatenate([e3[:, None], w], axis=1)  # e3, w0, w1
    dq_vecs = _sum3(dq[:, :, None] * vecs[:, None])  # dq is symmetric
    quad = _sum3(vecs.take(_QUAD_LEFT, 1) * dq_vecs.take(_QUAD_RIGHT, 1))
    qaa, qab, qbb = quad[:1], quad[1:3], quad[3:]
    disc = qab * qab - qaa * qbb
    h = -(qab + np.copysign(np.sqrt(disc), qab))
    coef = np.concatenate([quad, h])
    lam = coef.take(_ROOT_E3, 0) * e3[:, None, None] + coef.take(_ROOT_W, 0) * w[:, :, None]
    lam = lam.reshape(3, 4, n)  # (depth, plane and root, sample)
    # scaled so the three squared sides sum to a's, the depths' sum positive
    c2 = 2.0 * c
    li, lj = lam.take(_FIRST, 0), lam.take(_SECOND, 0)
    spread = _sum3(li * (li - c2[:, None] * lj) + lj * lj)
    scale = np.sqrt(_sum3(a) / spread)
    lam *= np.copysign(scale, _sum3(lam))
    use = (lam > 0.0).all(axis=0) & (ok & (disc >= 0.0)).repeat(2, axis=0)

    # the depth triples that go on, sample by sample
    sample, root = np.nonzero(use.T)
    lam = lam.reshape(3, -1).take(root * n + sample, 1)
    lam = _refine_depths(lam, a.take(sample, 1), c2.take(sample, 1))
    # R = Y X^-1: X's columns x0 - x1, x0 - x2 and the normal, Y's the same
    # in the camera; X^-1's rows are cross products of X's columns over det X
    ray = f.take(sample, 2)
    cam = lam * ray
    y = cam[:, :1] - cam[:, 1:]
    y = np.concatenate([y, _cross(y[:, :1], y[:, 1:])], axis=1)
    x = np.concatenate([side[:, :2], normal[:, None]], axis=1)
    x_inv = (_cross(x.take(_NEXT, 1), x.take(_LAST, 1)) / area2).take(sample, 2)
    prod = y[:, None] * x_inv[None]
    r = prod[:, :, 0] + prod[:, :, 1] + prod[:, :, 2]  # (row, column, m)
    # a rotation's entries lie in [-1, 1]: larger ones, inf or NaN come from
    # depths that solve nothing, and are kept away from rotmat_to_quat
    fine = (np.abs(r) <= 2.0).reshape(9, -1).all(axis=0) & (lam > 0.0).all(axis=0)
    quat = rotmat_to_quat(np.where(fine, r, _EYE3).transpose(2, 0, 1))
    rot = _rotmat(quat)  # quat_normalize's output passes quat_to_rotmat's unit check

    # cheirality and the reprojection filter, on the pose as it leaves; the
    # largest tangent orders poses as the largest angle would
    rx = _sum3(rot.transpose(2, 1, 0)[:, :, None] * pts.take(sample, 2)[:, None])
    t = cam[:, 0] - rx[:, 0]
    proj = rx + t[:, None]
    dot = _sum3(ray * proj)
    cross = _cross(ray, proj)
    err = (np.sqrt(_sum3(cross * cross)) / dot).max(axis=0)
    fine &= (np.minimum(dot, proj[2]) > 0.0).all(axis=0)
    fine &= (err <= math.tan(_P3P_REPROJ_TOL)) & np.isfinite(t).all(axis=0)

    # the kept poses, per sample, smallest error first (stable); a pose that
    # repeats one kept before it in its sample is dropped
    order = np.lexsort((err, sample, ~fine))[: np.count_nonzero(fine)]
    sample, t = sample.take(order), t.T.take(order, 0)
    k = np.arange(len(sample))
    i = np.concatenate((k[:-1], k[:-2], k[:-3]))
    j = np.concatenate((k[1:], k[2:], k[3:]))
    same = sample.take(i) == sample.take(j)
    i, j = i[same], j[same]
    tj = t.take(j, 0)
    near = _norm(tj - t.take(i, 0)) <= 1e-7 * (1.0 + _norm(tj))
    if near.any():
        i, j = i[near], j[near]
        near = quat_distance(quat[order[j]], quat[order[i]]) <= 1e-7
        kept = np.ones(len(sample), dtype=bool)
        for later, earlier in sorted(zip(j[near].tolist(), i[near].tolist())):
            kept[later] &= not kept[earlier]
        sample, t, order = sample[kept], t[kept], order[kept]
    return P3PSolutions(sample, quat.take(order, 0), t, rot.take(order, 0))
