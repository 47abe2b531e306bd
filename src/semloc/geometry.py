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


def _project_quadrics(
    quads: np.ndarray, poses: list[Pose], intrinsics: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Image boxes of dual quadrics (u, 4, 4) under n poses, unclamped.

    Returns the extents (n, u, 4) as (x_min, y_min, x_max, y_max) and the
    visibility (n, u): the center q[:3, 3] / q[3, 3] lies in front of the
    camera and the projected dual conic is a nondegenerate ellipse. The
    conic is sign-normalized so its (3, 3) entry is negative before the
    tangent-line extents are read off. Extents where a quadric is not
    visible are meaningless.
    """
    rot = quat_to_rotmat(np.stack([p.rotation for p in poses]))
    trans = np.stack([p.translation for p in poses])
    proj = (intrinsics.matrix()[None] @ np.concatenate([rot, trans[:, :, None]], axis=2))[:, None]
    conic = proj @ quads[None] @ proj.swapaxes(-1, -2)  # (n, u, 3, 3)
    conic = 0.5 * (conic + conic.swapaxes(-1, -2))
    flip = np.where(conic[:, :, 2, 2] > 0.0, -1.0, 1.0)
    conic = conic * flip[:, :, None, None]
    c22 = conic[:, :, 2, 2]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        centers = quads[:, :3, 3] / quads[:, 3, 3:]
        cam_z = np.einsum("nj,uj->nu", rot[:, 2, :], centers) + trans[:, 2][:, None]
        disc_x = conic[:, :, 0, 2] ** 2 - conic[:, :, 0, 0] * c22
        disc_y = conic[:, :, 1, 2] ** 2 - conic[:, :, 1, 1] * c22
        ok = (cam_z > 0.0) & (np.abs(c22) > 1e-12) & (disc_x > 0.0) & (disc_y > 0.0)
        sx = np.sqrt(np.where(ok, disc_x, 1.0))
        sy = np.sqrt(np.where(ok, disc_y, 1.0))
        x0 = (conic[:, :, 0, 2] + sx) / c22
        x1 = (conic[:, :, 0, 2] - sx) / c22
        y0 = (conic[:, :, 1, 2] + sy) / c22
        y1 = (conic[:, :, 1, 2] - sy) / c22
    xa, xb = np.minimum(x0, x1), np.maximum(x0, x1)
    ya, yb = np.minimum(y0, y1), np.maximum(y0, y1)
    ok &= (xb - xa > 0.0) & (yb - ya > 0.0)
    return np.stack([xa, ya, xb, yb], axis=-1), ok


def project_quadric_to_bbox(
    quadric: np.ndarray, pose: Pose, intrinsics: CameraIntrinsics
) -> BoundingBox | None:
    """Image box of one dual quadric (4, 4), unclamped; None when it is not
    visible or its extents are not finite."""
    ext, ok = _project_quadrics(np.reshape(quadric, (1, 4, 4)), [pose], intrinsics)
    if not (ok[0, 0] and np.isfinite(ext[0, 0]).all()):
        return None
    return BoundingBox(*ext[0, 0].tolist())


def pixel_to_bearing(pixel, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Unit ray through a pixel in the camera frame."""
    u, v = float(pixel[0]), float(pixel[1])
    ray = np.array([(u - intrinsics.cx) / intrinsics.fx, (v - intrinsics.cy) / intrinsics.fy, 1.0])
    return ray / np.linalg.norm(ray)


def bearing_angle(u, v):
    """Angle in radians between direction vectors (..., 3), stable near zero.

    A float for two vectors, an array for stacks.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    cx = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    cy = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    cz = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    s = np.sqrt(cx * cx + cy * cy + cz * cz)
    # libm's atan2: numpy's vectorized arctan2 can differ in the last bit,
    # and these angles order the P3P solutions
    angles = list(map(math.atan2, np.ravel(s).tolist(), np.ravel(_dot(u, v)).tolist()))
    return angles[0] if s.ndim == 0 else np.reshape(angles, s.shape)


def absolute_orientation(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform with dst ~= R src + t (Kabsch).

    src and dst are (n, 3) point sets, or stacks (..., n, 3) that get one
    transform each.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    # np.mean's arithmetic (sum, then divide by the count) without its overhead
    cs = np.add.reduce(src, axis=-2) / src.shape[-2]
    cd = np.add.reduce(dst, axis=-2) / dst.shape[-2]
    h = (src - cs[..., None, :]).swapaxes(-1, -2) @ (dst - cd[..., None, :])
    u, _, vt = np.linalg.svd(h)
    ut = u.swapaxes(-1, -2)
    v = vt.swapaxes(-1, -2)
    d = np.sign(np.linalg.det(v @ ut))
    flip = np.zeros(d.shape + (3, 3))
    flip[..., 0, 0] = 1.0
    flip[..., 1, 1] = 1.0
    flip[..., 2, 2] = np.where(d == 0.0, 1.0, d)
    r = v @ flip @ ut
    return r, cd - (r @ cs[..., None])[..., 0]


# ---------------------------------------------------------------------------
# three-point pose

_P3P_IMAG_TOL = 1e-9
_P3P_REPROJ_TOL = 1e-6  # rad, largest bearing-to-reprojection angle of a kept pose


def _max1(x: np.ndarray) -> np.ndarray:
    """max(1.0, x) per element, as Python's max picks it (1.0 unless x > 1)."""
    return np.where(x > 1.0, x, 1.0)


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # lowest-order-first Horner; coeffs (..., m) broadcast against x
    acc = 0.0
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        acc = acc * x + coeffs[..., k]
    return acc


def _convolve(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.convolve of each row of a with the same row of v, to the bit.

    Only for a shorter input of at most 3 entries: np.convolve then sums
    the partial overlaps at both ends with BLAS dots and the full overlaps
    with a plain multiply-add loop, and the two round differently, so both
    are kept. For a longer kernel numpy takes a BLAS dot for every output,
    which this loop does not reproduce.
    """
    if v.shape[-1] > a.shape[-1]:
        a, v = v, a
    assert v.shape[-1] <= 3, "np.convolve rounds longer kernels differently"
    vr = v[..., ::-1]
    la, lv = a.shape[-1], v.shape[-1]
    out = [_dot(a[..., :k], vr[..., lv - k :]) for k in range(1, lv)]
    for i in range(la - lv + 1):
        acc = 0.0
        for j in range(lv):
            acc = acc + a[..., i + j] * vr[..., j]
        out.append(acc)
    out += [_dot(a[..., la - k :], vr[..., :k]) for k in range(lv - 1, 0, -1)]
    return np.stack(out, axis=-1)


def _quartic_roots(quartic: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of the selected rows' polynomials (lowest order first), as polyroots gives them.

    Returns (n, 4) complex roots and a mask of the roots present. Quartics
    share one stacked eigvals call on their companion matrices; a row with
    a zero leading coefficient drops to lower degree and, like a stack
    that fails to converge, is rooted alone. A row polyroots rejects
    (non-finite entries) has no roots.
    """
    n = len(quartic)
    roots = np.zeros((n, 4), dtype=complex)
    have = np.zeros((n, 4), dtype=bool)
    lead = quartic[:, 4] != 0.0
    comp = np.zeros((n, 4, 4))
    comp[:, [1, 2, 3], [0, 1, 2]] = 1.0
    comp[:, :, 3] -= quartic[:, :4] / quartic[:, 4:]
    stacked = rows & lead & np.isfinite(comp).all(axis=(1, 2))
    alone = list(np.flatnonzero(rows & ~lead))
    if stacked.any():
        try:
            found = np.linalg.eigvals(comp[stacked])
            found.sort(axis=-1)
            roots[stacked] = found
            have[stacked] = True
        except np.linalg.LinAlgError:
            alone = sorted(alone + list(np.flatnonzero(stacked)))
    for i in alone:
        try:
            found = np.polynomial.polynomial.polyroots(quartic[i])
        except np.linalg.LinAlgError:
            continue
        roots[i, : len(found)] = found
        have[i, : len(found)] = True
    return roots, have


def _newton_polish(coeffs: np.ndarray, x: np.ndarray, iters: int = 3) -> np.ndarray:
    # Clustered roots make the derivative vanish, so only accept steps that
    # actually shrink the residual and never wander far from the seed.
    deriv = coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])
    best = x
    f = _polyval(coeffs, x)
    best_f = np.abs(f)
    active = np.ones(x.shape, dtype=bool)
    for _ in range(iters):
        fp = _polyval(deriv, x)
        step = f / fp
        active &= (fp != 0.0) & ~(np.abs(step) > 0.1 * _max1(np.abs(x)))
        x = np.where(active, x - step, x)
        f = _polyval(coeffs, x)
        fx = np.abs(f)
        active &= fx < best_f
        best = np.where(active, x, best)
        best_f = np.where(active, fx, best_f)
        active &= ~(np.abs(step) < 1e-15 * _max1(np.abs(x)))
        if not active.any():
            break
    return best


def _refine_uv(u: np.ndarray, v: np.ndarray, params: list[np.ndarray]):
    """Re-converge (u, v) pairs, 1-D arrays, on the original ratio equations.

    A clustered quartic can only pin v down to ~1e-8 in doubles and u
    amplifies that error, so each pair takes up to 20 joint Newton steps,
    stopping at a zero Jacobian or once both steps fall below 1e-15
    relative. params holds (ca, cb, cg, big_a, big_b) per pair. The pairs
    are stepped one by one on Python floats: most settle in two or three
    steps, so a numpy call per operation would cost more than the loop.
    """
    out_u, out_v = [], []
    rows = zip(u.tolist(), v.tolist(), *(x.tolist() for x in params))
    for u, v, ca, cb, cg, big_a, big_b in rows:
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
        out_u.append(u)
        out_v.append(v)
    return np.array(out_u), np.array(out_v)


def p3p_solve(world_points, bearings):
    """Solve perspective-three-point for world-to-camera poses.

    Args:
        world_points: (3, 3) array, one 3D point per row, or a stack
            (n, 3, 3) of such samples.
        bearings: unit rays in the camera frame, one per row, corresponding
            to the world points; same shape as world_points.

    Returns:
        For one sample, a list of up to four poses; for a stack, one such
        list per sample. Collinear world points, complex depth roots, and
        solutions placing a point behind the camera yield fewer (possibly
        zero) poses. A pose is kept only when every bearing is within
        _P3P_REPROJ_TOL radians of its reprojected point; poses are ordered
        by that angle, and near-duplicates are dropped.

    The depth ratios follow from the triangle cosine constraints: with
    u = s1/s0 and v = s2/s0 the two independent ratio equations reduce to a
    quartic in v, assembled by polynomial convolution and rooted via the
    companion matrix, with a Newton polish on every accepted real root.
    A stack is solved in one pass, each sample to the bit as if alone.
    Stacks are the fast path: the numpy calls of a pass cost about the same
    for one sample as for dozens, so solve many samples per call where
    possible. A single sample takes about twice as long as a plain scalar
    solver (tests/oracles.py) would; a stack of 16 about a quarter as long
    per sample.
    """
    pts = np.asarray(world_points, dtype=float)
    single = pts.ndim < 3
    pts = pts.reshape(-1, 3, 3)
    f = np.asarray(bearings, dtype=float).reshape(-1, 3, 3)
    with np.errstate(all="ignore"):  # rejected samples run along as NaN and inf
        solutions = _p3p_stack(pts, f)
    return solutions[0] if single else solutions


def _p3p_stack(pts: np.ndarray, f: np.ndarray) -> list[list[Pose]]:
    """p3p_solve of (n, 3, 3) world points and bearings: one pose list per sample."""
    n = len(pts)
    norms = np.sqrt(np.add.reduce(f * f, axis=2))  # np.linalg.norm(f, axis=2)
    ok = ~(norms == 0.0).any(axis=1)
    f = f / norms[:, :, None]

    e01 = pts[:, 1] - pts[:, 0]
    e02 = pts[:, 2] - pts[:, 0]
    tx = e01[:, 1] * e02[:, 2] - e01[:, 2] * e02[:, 1]
    ty = e01[:, 2] * e02[:, 0] - e01[:, 0] * e02[:, 2]
    tz = e01[:, 0] * e02[:, 1] - e01[:, 1] * e02[:, 0]
    tri = np.sqrt(tx * tx + ty * ty + tz * tz)
    n01, n02 = _norm(np.stack([e01, e02], axis=1)).T
    ok &= ~(tri <= 1e-9 * _max1(n01 * n02))

    # side lengths opposite each point and the cosines between bearing pairs
    a, b, c = _norm(pts[:, [1, 0, 0]] - pts[:, [2, 2, 1]]).T
    ok &= (a > 0.0) & (b > 0.0) & (c > 0.0)
    ca, cb, cg = _dot(f[:, [1, 0, 0]], f[:, [2, 2, 1]]).T

    # scalar ** is libm pow, which can differ from x * x in the last bit
    big_a = np.array([x**2 for x in a / b])
    big_b = np.array([x**2 for x in c / b])
    one = np.ones(n)
    kb = np.stack([one, -2.0 * cb, one], axis=1)  # 1 - 2 cb v + v^2
    n_poly = (big_a - big_b)[:, None] * kb + np.array([1.0, 0.0, -1.0])
    d_poly = np.stack([2.0 * cg, -2.0 * ca], axis=1)
    tail = np.array([1.0, 0.0, 0.0]) - big_b[:, None] * kb  # 1 - B Kb(v)

    quartic = np.zeros((n, 5))
    quartic += _convolve(n_poly, n_poly)
    quartic[:, :4] += (-2.0 * cg)[:, None] * _convolve(n_poly, d_poly)
    quartic += _convolve(_convolve(d_poly, d_poly), tail)
    peak = np.max(np.abs(quartic), axis=1)
    ok &= ~(peak == 0.0)
    quartic = quartic / peak[:, None]

    # per sample and root (n, 4): real, positive, distinct depth ratios v
    roots, keep = _quartic_roots(quartic, ok)
    keep &= ~(np.abs(roots.imag) > _P3P_IMAG_TOL)
    v = _newton_polish(quartic[:, None, :], roots.real)
    keep &= ~(v <= 0.0)
    for j in range(1, 4):
        for i in range(j):
            same = np.abs(v[:, j] - v[:, i]) <= 1e-8 * _max1(np.abs(v[:, j]))
            keep[:, j] &= ~(keep[:, i] & same)
    cb2, cg2, big_b2 = cb[:, None], cg[:, None], big_b[:, None]
    kb_v = 1.0 + v * v - 2.0 * v * cb2
    keep &= ~(kb_v <= 0.0)

    # per sample, root and u (n, 4, 2): u from the linear equation, or both
    # roots of the quadratic in u where its leading term vanishes
    dv = _polyval(d_poly[:, None, :], v)
    linear = np.abs(dv) > 1e-9
    disc = cg2 * cg2 - (1.0 - big_b2 * kb_v)
    sq = np.sqrt(disc)
    u = np.stack([np.where(linear, _polyval(n_poly[:, None, :], v) / dv, cg2 + sq), cg2 - sq], -1)
    real_u = ~linear & ~(disc < 0.0)
    use = np.stack([keep & (linear | real_u), keep & real_u], axis=-1)
    v = np.broadcast_to(v[:, :, None], u.shape).copy()
    ca3, cb3, cg3 = ca[:, None, None], cb[:, None, None], cg[:, None, None]
    big_a3, big_b3 = big_a[:, None, None], big_b[:, None, None]
    params = [np.broadcast_to(x, u.shape)[use] for x in (ca3, cb3, cg3, big_a3, big_b3)]
    u[use], v[use] = _refine_uv(u[use], v[use], params)

    use &= ~((u <= 0.0) | (v <= 0.0))
    kb_v = 1.0 + v * v - 2.0 * v * cb3
    use &= ~(kb_v <= 0.0)
    s0 = b[:, None, None] / np.sqrt(kb_v)
    resid = u * u + v * v - 2.0 * u * v * ca3 - big_a3 * kb_v
    use &= ~(np.abs(resid) > 1e-6 * _max1(big_a3 * kb_v))
    depths = np.stack([s0, u * s0, v * s0], axis=-1)
    use &= ~(depths <= 0.0).any(axis=-1)

    # one candidate per surviving (sample, root, u), in the order a loop
    # over them would meet it
    sample = np.nonzero(use)[0]
    cam = depths[use][:, :, None] * f[sample]
    r, t = absolute_orientation(pts[sample], cam)
    reproj = pts[sample] @ r.swapaxes(-1, -2) + t[:, None, :]
    err = bearing_angle(f[sample], reproj).max(axis=1)
    good = ~(reproj[:, :, 2] <= 0.0).any(axis=1) & ~(err > _P3P_REPROJ_TOL)
    sample, err, r, t = sample[good], err[good], r[good], t[good]
    quat = rotmat_to_quat(r)

    # per sample, smallest error first (stable); keep up to four poses, each
    # distinct from every pose kept before it
    order = np.lexsort((err, sample))
    sample, quat, t = sample[order], quat[order], t[order]
    rank = np.arange(len(sample)) - np.searchsorted(sample, sample)
    i, j = np.nonzero(np.triu(sample[:, None] == sample[None, :], 1))
    near_t = _norm(t[j] - t[i]) <= 1e-7 * (1.0 + _norm(t[j]))
    near_q = quat_distance(quat[j], quat[i]) <= 1e-7
    dup = np.zeros((len(sample), len(sample)), dtype=bool)  # [i, j]: j duplicates i
    dup[i, j] = near_t & near_q
    kept = np.zeros(len(sample), dtype=bool)
    n_kept = np.zeros(n, dtype=int)
    for k in range(rank.max(initial=-1) + 1):
        at = np.flatnonzero(rank == k)
        new = ~(dup[:, at] & kept[:, None]).any(axis=0) & (n_kept[sample[at]] < 4)
        kept[at] = new
        n_kept[sample[at[new]]] += 1

    solutions: list[list[Pose]] = [[] for _ in range(n)]
    for k in np.flatnonzero(kept):
        solutions[sample[k]].append(Pose(quat[k], t[k]))
    return solutions
