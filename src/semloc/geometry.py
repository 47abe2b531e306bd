"""Projective geometry kernel.

Dual-quadric landmarks, their projection to image-plane bounding boxes,
pixel bearings, and a minimal three-point pose solver. Everything is metric
(meters) on the world side and pixels on the image side. Camera poses map
world points into the camera frame (x right, y down, z forward).
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


def quat_normalize(q) -> np.ndarray:
    """Normalize a quaternion and fix its sign so the first nonzero entry is positive."""
    q = np.asarray(q, dtype=float).reshape(4)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    for v in q:
        if v != 0.0:
            if v < 0.0:
                q = -q
            break
    return q


def quat_to_rotmat(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(4)
    if abs(np.linalg.norm(q) - 1.0) > 1e-6:
        raise ValueError("non-unit quaternion")
    w, x, y, z = q
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def rotmat_to_quat(r) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), Shepperd's branching."""
    r = np.asarray(r, dtype=float).reshape(3, 3)
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s]
        )
    elif r[0, 0] >= r[1, 1] and r[0, 0] >= r[2, 2]:
        s = math.sqrt(1.0 + r[0, 0] - r[1, 1] - r[2, 2]) * 2.0
        q = np.array(
            [(r[2, 1] - r[1, 2]) / s, 0.25 * s, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s]
        )
    elif r[1, 1] >= r[2, 2]:
        s = math.sqrt(1.0 + r[1, 1] - r[0, 0] - r[2, 2]) * 2.0
        q = np.array(
            [(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s, 0.25 * s, (r[1, 2] + r[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + r[2, 2] - r[0, 0] - r[1, 1]) * 2.0
        q = np.array(
            [(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def quat_distance(q1, q2) -> float:
    """Sign-invariant Euclidean distance between two unit quaternions."""
    q1 = np.asarray(q1, dtype=float).reshape(4)
    q2 = np.asarray(q2, dtype=float).reshape(4)
    return float(min(np.linalg.norm(q1 - q2), np.linalg.norm(q1 + q2)))


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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass
class Pose:
    """Rigid world-to-camera transform, x_cam = R x_world + t.

    rotation is a unit quaternion (w, x, y, z). Construction rejects
    quaternions off the unit sphere beyond 1e-9 rather than silently
    renormalizing, so upstream conventions stay honest.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(4)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        if abs(np.linalg.norm(self.rotation) - 1.0) > _UNIT_QUAT_TOL:
            raise ValueError("non-unit quaternion beyond tolerance")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    @classmethod
    def from_rt(cls, r: np.ndarray, t: np.ndarray) -> "Pose":
        return cls(rotmat_to_quat(r), np.asarray(t, dtype=float).reshape(3))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotmat(self.rotation)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation_matrix()
        m[:3, 3] = self.translation
        return m

    def transform(self, points) -> np.ndarray:
        """Map world points (3,) or (n, 3) into the camera frame."""
        pts = np.asarray(points, dtype=float)
        r = self.rotation_matrix()
        if pts.ndim == 1:
            return r @ pts + self.translation
        return pts @ r.T + self.translation

    def camera_center(self) -> np.ndarray:
        r = self.rotation_matrix()
        return -r.T @ self.translation

    def inverse(self) -> "Pose":
        r = self.rotation_matrix().T
        return Pose.from_rt(r, -r @ self.translation)


@dataclass
class BoundingBox:
    """Axis-aligned pixel box; min strictly below max on both axes."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
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


@dataclass
class DualQuadric:
    """Dual ellipsoid as a symmetric 4x4 matrix in world coordinates."""

    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float).reshape(4, 4)
        if not np.allclose(self.q, self.q.T, atol=1e-9):
            raise ValueError("dual quadric must be symmetric")

    @property
    def center(self) -> np.ndarray:
        if abs(self.q[3, 3]) < 1e-12:
            raise ValueError("quadric has no finite center")
        return self.q[:3, 3] / self.q[3, 3]


def quadric_from_params(position, rotation, scale) -> DualQuadric:
    """Build a dual ellipsoid from center, orientation quaternion, and semi-axes.

    scale holds the three semi-axis lengths in meters; all must be positive.
    """
    p = np.asarray(position, dtype=float).reshape(3)
    s = np.asarray(scale, dtype=float).reshape(3)
    if np.any(s <= 0.0):
        raise ValueError("semi-axes must be positive")
    q = np.asarray(rotation, dtype=float).reshape(4)
    if abs(np.linalg.norm(q) - 1.0) > _UNIT_QUAT_TOL:
        raise ValueError("non-unit quaternion beyond tolerance")
    z = np.eye(4)
    z[:3, :3] = quat_to_rotmat(q)
    z[:3, 3] = p
    d = np.diag([s[0] ** 2, s[1] ** 2, s[2] ** 2, -1.0])
    full = z @ d @ z.T
    return DualQuadric(0.5 * (full + full.T))


def project_quadric_to_bbox(
    quadric: DualQuadric, pose: Pose, intrinsics: CameraIntrinsics
) -> BoundingBox | None:
    """Project a dual quadric and return its axis-aligned image box, unclamped.

    Returns None when the quadric is not visible: center behind the camera or
    a degenerate projected conic. The dual conic is sign-normalized so its
    (3,3) entry is negative before the tangent-line extents are read off.
    """
    center_cam = pose.transform(quadric.center)
    if center_cam[2] <= 0.0:
        return None
    r = pose.rotation_matrix()
    p = intrinsics.matrix() @ np.hstack([r, pose.translation.reshape(3, 1)])
    c = p @ quadric.q @ p.T
    c = 0.5 * (c + c.T)
    if abs(c[2, 2]) < 1e-12:
        return None
    if c[2, 2] > 0.0:
        c = -c
    disc_x = c[0, 2] ** 2 - c[0, 0] * c[2, 2]
    disc_y = c[1, 2] ** 2 - c[1, 1] * c[2, 2]
    if disc_x <= 0.0 or disc_y <= 0.0:
        return None
    sx = math.sqrt(disc_x)
    sy = math.sqrt(disc_y)
    xa = (c[0, 2] + sx) / c[2, 2]
    xb = (c[0, 2] - sx) / c[2, 2]
    ya = (c[1, 2] + sy) / c[2, 2]
    yb = (c[1, 2] - sy) / c[2, 2]
    x0, x1 = min(xa, xb), max(xa, xb)
    y0, y1 = min(ya, yb), max(ya, yb)
    if x1 - x0 <= 0.0 or y1 - y0 <= 0.0:
        return None
    return BoundingBox(x0, y0, x1, y1)


def pixel_to_bearing(pixel, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit ray through a pixel in the camera frame."""
    u, v = float(pixel[0]), float(pixel[1])
    ray = np.array([(u - intrinsics.cx) / intrinsics.fx, (v - intrinsics.cy) / intrinsics.fy, 1.0])
    return ray / np.linalg.norm(ray)


def bearing_angle(u, v) -> float:
    """Angle in radians between two direction vectors, stable near zero."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    # scalar cross product: np.cross pays generic-dispatch overhead on every
    # call and this sits inside the P3P inner loop
    cx = u[1] * v[2] - u[2] * v[1]
    cy = u[2] * v[0] - u[0] * v[2]
    cz = u[0] * v[1] - u[1] * v[0]
    s = math.sqrt(cx * cx + cy * cy + cz * cz)
    return float(math.atan2(s, float(u @ v)))


def absolute_orientation(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform with dst ~= R src + t (Kabsch)."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs = src.mean(axis=0)
    cd = dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0.0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return r, cd - r @ cs


# ---------------------------------------------------------------------------
# three-point pose

_P3P_IMAG_TOL = 1e-9
_P3P_REPROJ_TOL = 1e-6  # rad, largest bearing-to-reprojection angle of a kept pose


def _polyval(coeffs: np.ndarray, x: float) -> float:
    # lowest-order-first Horner
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * x + c
    return acc


def _newton_polish(coeffs: np.ndarray, x: float, iters: int = 3) -> float:
    # Clustered roots make the derivative vanish, so only accept steps that
    # actually shrink the residual and never wander far from the seed.
    deriv = coeffs[1:] * np.arange(1, len(coeffs))
    best = x
    best_f = abs(_polyval(coeffs, x))
    for _ in range(iters):
        f = _polyval(coeffs, x)
        fp = _polyval(deriv, x)
        if fp == 0.0:
            break
        step = f / fp
        if abs(step) > 0.1 * max(1.0, abs(x)):
            break
        x -= step
        fx = abs(_polyval(coeffs, x))
        if fx < best_f:
            best, best_f = x, fx
        else:
            break
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return best


def p3p_solve(world_points, bearings) -> list[Pose]:
    """Solve perspective-three-point for world-to-camera poses.

    Args:
        world_points: (3, 3) array, one 3D point per row.
        bearings: (3, 3) array of unit rays in the camera frame, one per row,
            corresponding to the world points.

    Returns:
        Up to four poses. Collinear world points, complex depth roots, and
        solutions placing a point behind the camera yield fewer (possibly
        zero) poses. A pose is kept only when every bearing is within
        _P3P_REPROJ_TOL radians of its reprojected point.

    The depth ratios follow from the triangle cosine constraints: with
    u = s1/s0 and v = s2/s0 the two independent ratio equations reduce to a
    quartic in v, assembled by polynomial convolution and rooted via the
    companion matrix, with a Newton polish on every accepted real root.
    """
    pts = np.asarray(world_points, dtype=float).reshape(3, 3)
    f = np.asarray(bearings, dtype=float).reshape(3, 3)
    norms = np.linalg.norm(f, axis=1)
    if np.any(norms == 0.0):
        return []
    f = f / norms[:, None]

    e01 = pts[1] - pts[0]
    e02 = pts[2] - pts[0]
    tx = e01[1] * e02[2] - e01[2] * e02[1]
    ty = e01[2] * e02[0] - e01[0] * e02[2]
    tz = e01[0] * e02[1] - e01[1] * e02[0]
    tri = math.sqrt(tx * tx + ty * ty + tz * tz)
    if tri <= 1e-9 * max(1.0, np.linalg.norm(e01) * np.linalg.norm(e02)):
        return []

    a = np.linalg.norm(pts[1] - pts[2])
    b = np.linalg.norm(pts[0] - pts[2])
    c = np.linalg.norm(pts[0] - pts[1])
    if min(a, b, c) <= 0.0:
        return []
    ca = float(f[1] @ f[2])
    cb = float(f[0] @ f[2])
    cg = float(f[0] @ f[1])

    big_a = (a / b) ** 2
    big_b = (c / b) ** 2
    kb = np.array([1.0, -2.0 * cb, 1.0])  # 1 - 2 cb v + v^2
    n_poly = (big_a - big_b) * kb + np.array([1.0, 0.0, -1.0])
    d_poly = np.array([2.0 * cg, -2.0 * ca])
    tail = np.array([1.0, 0.0, 0.0]) - big_b * kb  # 1 - B Kb(v)

    quartic = np.zeros(5)

    def _acc(poly: np.ndarray):
        quartic[: len(poly)] += poly

    _acc(np.convolve(n_poly, n_poly))
    _acc(-2.0 * cg * np.convolve(n_poly, d_poly))
    _acc(np.convolve(np.convolve(d_poly, d_poly), tail))

    peak = np.max(np.abs(quartic))
    if peak == 0.0:
        return []
    quartic = quartic / peak

    try:
        roots = np.polynomial.polynomial.polyroots(quartic)
    except np.linalg.LinAlgError:
        return []

    def _refine_uv(u: float, v: float) -> tuple[float, float]:
        # Joint Newton on the two ratio equations. A clustered quartic can
        # only pin v down to ~1e-8 in doubles and u amplifies that error, so
        # the pair is re-converged on the original constraints instead.
        for _ in range(20):
            kb_v = 1.0 + v * v - 2.0 * v * cb
            g1 = u * u + v * v - 2.0 * u * v * ca - big_a * kb_v
            g2 = u * u - 2.0 * u * cg + 1.0 - big_b * kb_v
            j11 = 2.0 * u - 2.0 * v * ca
            j12 = 2.0 * v - 2.0 * u * ca - big_a * (2.0 * v - 2.0 * cb)
            j21 = 2.0 * u - 2.0 * cg
            j22 = -big_b * (2.0 * v - 2.0 * cb)
            det = j11 * j22 - j12 * j21
            if det == 0.0:
                break
            du = (g1 * j22 - g2 * j12) / det
            dv = (g2 * j11 - g1 * j21) / det
            u -= du
            v -= dv
            if abs(du) < 1e-15 * max(1.0, abs(u)) and abs(dv) < 1e-15 * max(1.0, abs(v)):
                break
        return u, v

    candidates: list[tuple[float, Pose]] = []
    seen_v: list[float] = []
    for root in roots:
        if abs(root.imag) > _P3P_IMAG_TOL:
            continue
        v_seed = _newton_polish(quartic, float(root.real))
        if v_seed <= 0.0:
            continue
        if any(abs(v_seed - w) <= 1e-8 * max(1.0, abs(v_seed)) for w in seen_v):
            continue
        seen_v.append(v_seed)
        kb_v = 1.0 + v_seed * v_seed - 2.0 * v_seed * cb
        if kb_v <= 0.0:
            continue
        dv = _polyval(d_poly, v_seed)
        if abs(dv) > 1e-9:
            us = [_polyval(n_poly, v_seed) / dv]
        else:
            # fall back to the quadratic in u and keep roots consistent
            # with the remaining ratio equation
            disc = cg * cg - (1.0 - big_b * kb_v)
            if disc < 0.0:
                continue
            sq = math.sqrt(disc)
            us = [cg + sq, cg - sq]
        for u in us:
            u, v = _refine_uv(u, v_seed)
            if u <= 0.0 or v <= 0.0:
                continue
            kb_v = 1.0 + v * v - 2.0 * v * cb
            if kb_v <= 0.0:
                continue
            s0 = b / math.sqrt(kb_v)
            resid = u * u + v * v - 2.0 * u * v * ca - big_a * kb_v
            if abs(resid) > 1e-6 * max(1.0, big_a * kb_v):
                continue
            depths = np.array([s0, u * s0, v * s0])
            if np.any(depths <= 0.0):
                continue
            cam_pts = depths[:, None] * f
            r, t = absolute_orientation(pts, cam_pts)
            reproj = pts @ r.T + t
            if np.any(reproj[:, 2] <= 0.0):
                continue
            err = max(bearing_angle(f[i], reproj[i]) for i in range(3))
            if err > _P3P_REPROJ_TOL:
                continue
            candidates.append((err, Pose.from_rt(r, t)))

    candidates.sort(key=lambda it: it[0])
    kept: list[Pose] = []
    for _, pose in candidates:
        dup = False
        for other in kept:
            if (
                np.linalg.norm(pose.translation - other.translation)
                <= 1e-7 * (1.0 + np.linalg.norm(pose.translation))
                and quat_distance(pose.rotation, other.rotation) <= 1e-7
            ):
                dup = True
                break
        if not dup:
            kept.append(pose)
        if len(kept) == 4:
            break
    return kept
