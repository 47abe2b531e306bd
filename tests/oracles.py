"""Scalar reference implementations that the vectorized production code is
checked against.

Id lookups: `node_of` and `neighbors_of` find a node and its neighbors'
ids by node id, for the oracles below that work on ids.
Matching: `multilabel_likelihood`, `neighbor_weight`, `best_neighbor_set` and
`similarity_score` compute one entry of `score_all_pairs`' likelihood and
similarity tables at a time, and `padded_score_all_pairs` computes the whole
similarity table over padded neighbor tensors, the bit-exact reference of
the edge-list context propagation. `per_column_extract_candidates` ranks
one column of the similarity table at a time by a full sort, the reference
of `extract_candidates`' selection.
k-NN wiring: `knn_oracle` sorts each node's distances to the others, the
reference of the selection that `build_knn_edges` and the keyframe stacks
of `prior_graph_from_nodes` make. Projection: `scalar_project_quadric_to_bbox`
projects one dual quadric under one pose, as the stacked
`geometry._project_quadrics` does for each of its (quadric, pose) pairs;
`project_quadric_to_bbox` reads one box off that kernel.
Quaternions: `scalar_quat_normalize`, `scalar_quat_to_rotmat` and
`scalar_rotmat_to_quat` (Shepperd's branches written out) take one
quaternion or matrix at a time in Python floats, in the operation order the
stacked helpers' docstrings state, so the two agree to the bit.
Alignment: `bbox_to_gaussian`, `wasserstein2_squared` and
`normalized_wasserstein` score one box pair, and `scalar_calculate_was`
scores one pose and selects its pairs the way `_AlignmentScorer.score` and
`calculate_was` do.
Pose search: `scalar_is_valid_sample` checks one sample of (prior id,
query id) pairs against the graphs' neighbor ids and node positions, the
reference of the compatibility table `estimate_pose` checks draws against.
`scalar_p3p_solve` solves one P3P sample by another method than the stacked
Lambda Twist `p3p_solve` (a quartic in a depth ratio, then the Kabsch fit
`absolute_orientation`), so the two are checked to find the same poses
within a tolerance; `serial_estimate_pose` walks the same draw list as
`estimate_pose` one draw at a time, solving and scoring each valid sample
before checking the next.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from semloc.geometry import (
    _P3P_REPROJ_TOL,
    BoundingBox,
    CameraIntrinsics,
    Pose,
    _project_quadrics,
    p3p_solve,
    pixel_to_bearing,
    quadric_from_params,
    quat_distance,
)
from semloc.graph import LabelFrequencyTable, SemanticGraph
from semloc.matching import SimilarityTable, extract_candidates, score_all_pairs
from semloc.pose import (
    LocalizationResult,
    LocalizationStatus,
    _DIST_TOL,
    MatcherConfig,
    _AlignmentScorer,
    _draw_triples,
    calculate_was,
)


# ---------------------------------------------------------------------------
# id lookups


def node_of(graph: SemanticGraph, node_id: int):
    """The graph's node with this id."""
    return graph.nodes[graph.ids.index(node_id)]


def neighbors_of(graph: SemanticGraph, node_id: int) -> list[int]:
    """The ids of a node's neighbors, ascending, read off the adjacency matrix."""
    ids = graph.ids
    return sorted(ids[j] for j in np.flatnonzero(graph.adjacency[ids.index(node_id)]))


# ---------------------------------------------------------------------------
# likelihood and context propagation


def multilabel_likelihood(
    frequencies: LabelFrequencyTable, confidences: list[tuple[str, float]]
) -> float:
    """Label match likelihood: sum of frequency * confidence over shared labels.

    confidences are (label, confidence) pairs with distinct labels, as
    `normalize_confidences` returns them. Bounded in [0, 1] because
    frequencies and confidences each lie in [0, 1] and the confidences sum
    to one.
    """
    counts = frequencies.per_label_counts
    total = frequencies.total_detections
    acc = 0.0
    for label, conf in confidences:
        count = counts.get(label)
        if count is not None:
            acc += (count / total) * conf
    return acc


def neighbor_weight(dist_prior: float, dist_query: float) -> float:
    """Distance-consistency weight 1 / (1 + |dp - dq|), in (0, 1]."""
    if dist_prior < 0.0 or dist_query < 0.0:
        raise ValueError("distances must be nonnegative")
    return 1.0 / (1.0 + abs(dist_prior - dist_query))


@dataclass
class NeighborSelection:
    """One selected neighbor pair supporting a root pair."""

    prior_neighbor: int
    query_neighbor: int
    weight: float
    weighted_likelihood: float


@dataclass
class NeighborPairSelection:
    """Best-support neighbor assignment for one root (prior, query) pair."""

    root: tuple[int, int]
    selections: list[NeighborSelection]


def best_neighbor_set(
    root: tuple[int, int],
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    likelihood: Callable[[int, int], float],
) -> NeighborPairSelection:
    """Pick, per query neighbor, the prior neighbor maximizing weight * likelihood.

    Weights compare root-to-neighbor Euclidean distances on both sides. Ties
    on the product are broken by the lower prior-neighbor id. With no prior
    neighbors the selection is empty.
    """
    prior_id, query_id = root
    p_root = node_of(prior_graph, prior_id)
    q_root = node_of(query_graph, query_id)
    prior_nbrs = neighbors_of(prior_graph, prior_id)
    query_nbrs = neighbors_of(query_graph, query_id)
    selections: list[NeighborSelection] = []
    if prior_nbrs:
        p_dists = {
            n: float(np.linalg.norm(node_of(prior_graph, n).position - p_root.position))
            for n in prior_nbrs
        }
        for m in query_nbrs:
            dq = float(np.linalg.norm(node_of(query_graph, m).position - q_root.position))
            best: NeighborSelection | None = None
            for n in prior_nbrs:  # ascending id order; strict > keeps the lower id on ties
                w = neighbor_weight(p_dists[n], dq)
                prod = w * likelihood(n, m)
                if best is None or prod > best.weighted_likelihood:
                    best = NeighborSelection(n, m, w, prod)
            selections.append(best)
    return NeighborPairSelection(root, selections)


def similarity_score(root_likelihood: float, selection: NeighborPairSelection) -> float:
    """Root likelihood plus the mean weighted likelihood of selected neighbors.

    An empty selection contributes nothing, so the score falls back to the
    root likelihood alone. Always >= root_likelihood.
    """
    if not selection.selections:
        return root_likelihood
    return root_likelihood + sum(s.weighted_likelihood for s in selection.selections) / len(
        selection.selections
    )


def _padded_neighbors(graph: SemanticGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Neighbor indices padded to max degree, with validity mask and distances."""
    index = {node.id: i for i, node in enumerate(graph.nodes)}
    lists = [[index[n] for n in neighbors_of(graph, node.id)] for node in graph.nodes]
    width = max((len(l) for l in lists), default=0)
    n = len(graph)
    nbr = np.zeros((n, max(width, 1)), dtype=int)
    mask = np.zeros((n, max(width, 1)), dtype=bool)
    for i, l in enumerate(lists):
        nbr[i, : len(l)] = l
        mask[i, : len(l)] = True
    pos = graph.positions
    dist = np.linalg.norm(pos[nbr] - pos[:, None, :], axis=2)
    return nbr, mask, dist


def padded_score_all_pairs(prior_graph: SemanticGraph, query_graph: SemanticGraph) -> np.ndarray:
    """Similarity table of `score_all_pairs` over padded neighbor tensors.

    Builds the full (n_p, n_q, deg_p, deg_q) tensor of w * likelihood(n, m),
    masks the padding, maxes over prior neighbors and sums over the query
    neighbor slots. The edge-list production path must match it bit for bit.
    """
    like = score_all_pairs(prior_graph, query_graph, use_calp=False).similarity
    if len(prior_graph) == 0 or len(query_graph) == 0:
        return like
    nbr_p, mask_p, dist_p = _padded_neighbors(prior_graph)
    nbr_q, mask_q, dist_q = _padded_neighbors(query_graph)
    q_counts = mask_q.sum(axis=1)
    p_has = mask_p.any(axis=1)
    w = 1.0 / (1.0 + np.abs(dist_p[:, None, :, None] - dist_q[None, :, None, :]))
    lnm = np.transpose(like[nbr_p][:, :, nbr_q], (0, 2, 1, 3))  # (n_p, n_q, kp, kq)
    prod = np.where(mask_p[:, None, :, None], w * lnm, -np.inf)
    best = prod.max(axis=2)  # (n_p, n_q, kq), max over prior neighbors
    best[:, ~mask_q] = 0.0
    best[~p_has, :, :] = 0.0
    totals = best.sum(axis=2)
    with np.errstate(invalid="ignore"):
        term = np.where(q_counts[None, :] > 0, totals / np.maximum(q_counts[None, :], 1), 0.0)
    term[~p_has, :] = 0.0
    return like + term


def per_column_extract_candidates(table: SimilarityTable, tau: int) -> tuple[np.ndarray, ...]:
    """Prior and query node indices of the tau best priors per query node.

    Each column is sorted on its own, by similarity descending and then
    prior id; pairs come column by column, best first.
    """
    prior_ids = np.asarray(table.prior_ids, dtype=int)
    prior, query = [], []
    for j in range(len(table.query_ids)):
        order = np.lexsort((prior_ids, -table.similarity[:, j]))[:tau]
        prior += order.tolist()
        query += [j] * len(order)
    return np.array(prior, dtype=int), np.array(query, dtype=int)


# ---------------------------------------------------------------------------
# k-NN wiring


def knn_oracle(positions, k):
    """Plain O(n^2) loop: per node, sort the others by (distance, index) and take k."""
    pairs = []
    for i in range(len(positions)):
        others = sorted((math.dist(positions[i], positions[j]), j) for j in range(len(positions)) if j != i)
        pairs += [[i, j] for _, j in others[:k]]
    return pairs


# ---------------------------------------------------------------------------
# quadric projection


def scalar_project_quadric_to_bbox(
    quadric: np.ndarray, pose: Pose, intrinsics: CameraIntrinsics
) -> BoundingBox | None:
    """Project a dual quadric (4, 4) and return its axis-aligned image box, unclamped.

    Returns None when the quadric is not visible: center behind the camera or
    a degenerate projected conic. The dual conic is sign-normalized so its
    (3,3) entry is negative before the tangent-line extents are read off.
    """
    center_cam = pose.transform(quadric[:3, 3] / quadric[3, 3])
    if center_cam[2] <= 0.0:
        return None
    r = pose.rotation_matrix()
    k = np.array([[intrinsics.fx, 0.0, intrinsics.cx], [0.0, intrinsics.fy, intrinsics.cy], [0.0, 0.0, 1.0]])
    p = k @ np.hstack([r, pose.translation.reshape(3, 1)])
    c = p @ quadric @ p.T
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


def project_quadric_to_bbox(
    quadric: np.ndarray, pose: Pose, intrinsics: CameraIntrinsics
) -> BoundingBox | None:
    """Image box of one dual quadric (4, 4) from `_project_quadrics`, unclamped;
    None when it is not visible."""
    ext, ok = _project_quadrics(
        np.reshape(quadric, (1, 4, 4)), pose.rotation_matrix()[None], pose.translation[None], intrinsics
    )
    return BoundingBox(*ext[0, 0].tolist()) if ok[0, 0] else None


# ---------------------------------------------------------------------------
# Gaussian boxes and alignment


@dataclass
class GaussianBox:
    """2D Gaussian embedding of a box: mean pixel and diagonal covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        if self.cov[0, 0] <= 0.0 or self.cov[1, 1] <= 0.0:
            raise ValueError("covariance diagonal must be positive")


def bbox_to_gaussian(bbox: BoundingBox) -> GaussianBox:
    """Embed a box as N(center, diag((w/2)^2, (h/2)^2))."""
    return GaussianBox(
        bbox.center,
        np.diag([(bbox.width / 2.0) ** 2, (bbox.height / 2.0) ** 2]),
    )


def wasserstein2_squared(a: GaussianBox, b: GaussianBox) -> float:
    """Squared 2-Wasserstein distance between diagonal 2D Gaussians."""
    dm = a.mean - b.mean
    da = math.sqrt(a.cov[0, 0]) - math.sqrt(b.cov[0, 0])
    db = math.sqrt(a.cov[1, 1]) - math.sqrt(b.cov[1, 1])
    return float(dm @ dm + da * da + db * db)


def normalized_wasserstein(a: GaussianBox, b: GaussianBox, scale: float) -> float:
    """exp(-W2/scale) similarity in (0, 1]; scale is in pixels and positive."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return math.exp(-math.sqrt(wasserstein2_squared(a, b)) / scale)


def scalar_calculate_was(pose, pairs, prior_graph, query_graph, intrinsics, C):
    """Alignment score of a pose against (prior id, query id) pairs, one pair at a time.

    Projects each candidate prior to a clamped box, embeds boxes as
    Gaussians, and scores each pair with exp(-W2/C). Per query node the best
    visible prior is selected (ties to the lower prior id); the score is the
    mean over the selected pairs, which are ordered by query id. Returns 0
    and no pairs when nothing is visible.
    """
    projected = {}
    for prior_id, _ in pairs:
        if prior_id not in projected:
            node = node_of(prior_graph, prior_id)
            quadric = quadric_from_params(node.position, node.rotation, node.scale)
            box = scalar_project_quadric_to_bbox(quadric, pose, intrinsics)
            if box is not None:
                box = box.clamped(intrinsics.width, intrinsics.height)
            projected[prior_id] = None if box is None else bbox_to_gaussian(box)

    best: dict[int, tuple[int, float]] = {}
    for prior_id, query_id in pairs:
        p_gauss = projected[prior_id]
        if p_gauss is None:
            continue
        w = normalized_wasserstein(p_gauss, bbox_to_gaussian(node_of(query_graph, query_id).bbox), C)
        cur = best.get(query_id)
        if cur is None or w > cur[1] or (w == cur[1] and prior_id < cur[0]):
            best[query_id] = (prior_id, w)

    if not best:
        return 0.0, []
    score = sum(best[q][1] for q in sorted(best)) / len(best)
    return score, [(best[q][0], q) for q in sorted(best)]


# ---------------------------------------------------------------------------
# quaternions


def scalar_quat_normalize(q) -> np.ndarray:
    """quat_normalize of one quaternion (4,), entry by entry in Python floats.

    The norm is the square root of the 1-D dot `q @ q` (the BLAS dot the
    stacked helper's `_dot` runs per vector); each entry is divided by it,
    then multiplied by the sign of the first nonzero quotient.
    """
    q = np.asarray(q, dtype=float)
    norm = math.sqrt(float(q @ q))
    if not 0.0 < norm < math.inf:
        raise ValueError("zero quaternion, NaN or norm overflow")
    unit = [v / norm for v in q.tolist()]
    sign = math.copysign(1.0, next(v for v in unit if v != 0.0))
    return np.array([v * sign for v in unit])


def scalar_quat_to_rotmat(q) -> np.ndarray:
    """quat_to_rotmat of one unit quaternion (w, x, y, z), entry by entry:
    2 (x y - w z) off the diagonal, 1 - 2 (y y + z z) on it, and so on."""
    w, x, y, z = (float(v) for v in q)
    return np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )


def scalar_rotmat_to_quat(r) -> np.ndarray:
    """rotmat_to_quat of one matrix (3, 3), Shepperd's branches written out.

    The w branch when the trace is positive, else the axis of the first
    largest diagonal entry: that component is s / 4, with s twice the
    square root of 1 + trace or of 1 + r_aa - r_bb - r_cc, and the others
    (r_ij +- r_ji) / s. Then scalar_quat_normalize.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=float).tolist()
    trace = r00 + r11 + r22
    diag = [r00, r11, r22]
    axis = max(range(3), key=diag.__getitem__)  # the first of equals
    if trace > 0.0:
        s = math.sqrt(trace + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif axis == 0:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif axis == 1:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    return scalar_quat_normalize(q)


# ---------------------------------------------------------------------------
# three-point pose

_P3P_IMAG_TOL = 1e-9  # largest imaginary part of a quartic root taken as real


def bearing_angle(u, v):
    """Angle in radians between direction vectors (..., 3), stable near zero.

    A float for two vectors, an array for stacks.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    s = np.linalg.norm(np.cross(u, v), axis=-1)
    angles = np.arctan2(s, np.sum(u * v, axis=-1))
    return float(angles) if angles.ndim == 0 else angles


def absolute_orientation(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rigid transform with dst ~= R src + t (Kabsch) of (n, 3) point sets."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (dst - cd))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, 1.0 if d == 0.0 else d]) @ u.T
    return r, cd - r @ cs


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


def scalar_p3p_solve(world_points, bearings) -> list[Pose]:
    """Solve perspective-three-point for world-to-camera poses, one sample at a time.

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


def id_pairs(candidates, prior_graph: SemanticGraph, query_graph: SemanticGraph) -> list:
    """A candidate set's (prior id, query id) pairs, in its order."""
    prior_ids, query_ids = prior_graph.ids, query_graph.ids
    return [(prior_ids[p], query_ids[q]) for p, q in zip(candidates.prior, candidates.query)]


def scalar_is_valid_sample(sample, prior_graph, query_graph) -> bool:
    """Structural validity of a sample of (prior id, query id) pairs.

    Requires three pairs, distinct prior ids, distinct query ids, an
    identical pattern of edges and non-edges between the induced prior and
    query triples, and, for every two pairs, a prior-to-prior distance
    within the two priors' largest semi-axes plus _DIST_TOL of the
    query-to-query distance.
    """

    def has_edge(graph, a, b):
        return b in neighbors_of(graph, a)

    def distance(graph, a, b):
        dx, dy, dz = (node_of(graph, a).position - node_of(graph, b).position).tolist()
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    pairs = list(sample)
    if len(pairs) != 3:
        return False
    prior_ids = [p for p, _ in pairs]
    query_ids = [q for _, q in pairs]
    if len(set(prior_ids)) != 3 or len(set(query_ids)) != 3:
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            if has_edge(prior_graph, prior_ids[i], prior_ids[j]) != has_edge(
                query_graph, query_ids[i], query_ids[j]
            ):
                return False
            gap = distance(prior_graph, prior_ids[i], prior_ids[j]) - distance(
                query_graph, query_ids[i], query_ids[j]
            )
            reach = [max(node_of(prior_graph, prior_ids[m]).scale.tolist()) for m in (i, j)]
            if abs(gap) > reach[0] + reach[1] + _DIST_TOL:
                return False
    return True


def serial_estimate_pose(
    query_graph: SemanticGraph,
    prior_graph: SemanticGraph,
    config: MatcherConfig,
    intrinsics: CameraIntrinsics,
) -> LocalizationResult:
    """Estimate the camera pose of a query frame against the prior map, one draw at a time.

    Scores all pairs, extracts per-query candidates, then walks the frame's
    draw list (`_draw_triples`, the one `estimate_pose` draws), solving and
    scoring each valid sample before checking the next. Samples are
    (prior id, query id) pairs checked by `scalar_is_valid_sample`; the loop
    stops early on a high enough alignment. The best pose is then projected
    once more on its own, and its WAS and correspondences are read from that
    projection, where `estimate_pose` keeps its row from the loop.
    """
    if len(query_graph) < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{len(query_graph)} query nodes, need 3",
        )
    table = score_all_pairs(prior_graph, query_graph, use_calp=config.use_calp)
    candidates = extract_candidates(table, config.tau)
    pairs = id_pairs(candidates, prior_graph, query_graph)
    if len(pairs) < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{len(pairs)} candidate pairs, need 3",
        )

    boxes = [node.bbox for node in query_graph.nodes]
    scorer = _AlignmentScorer(candidates, prior_graph, query_graph.ids, boxes, intrinsics, config.C)
    bearings = {
        q: pixel_to_bearing(node_of(query_graph, q).bbox.center, intrinsics)
        for q in {q for _, q in pairs}
    }

    rng = np.random.default_rng(config.rng_seed)
    best_w = 0.0
    best_pose: Pose | None = None
    history: list[tuple[int, float]] = []
    n_valid = 0

    for it, idx in enumerate(_draw_triples(rng, len(pairs), config.n_iter)):
        sample = [pairs[i] for i in idx]
        if not scalar_is_valid_sample(sample, prior_graph, query_graph):
            continue
        n_valid += 1
        world = np.stack([node_of(prior_graph, p).position for p, _ in sample])
        rays = np.stack([bearings[q] for _, q in sample])
        poses = p3p_solve(world, rays)
        if not len(poses):
            continue
        scores = scorer.score(poses.rotation_matrix, poses.translation)[0]
        k = int(np.argmax(scores))
        if scores[k] > best_w:
            best_w = float(scores[k])
            best_pose = poses.pose(k)
            history.append((it, best_w))
        if config.early_exit_was is not None and best_w > config.early_exit_was:
            break

    if n_valid == 0:
        return LocalizationResult(LocalizationStatus.NO_VALID_SAMPLE, history=history)
    if best_pose is None or best_w <= 0.0:
        return LocalizationResult(
            LocalizationStatus.DEGENERATE, history=history, n_valid_samples=n_valid
        )

    # the best pose projected once more, on its own
    was, pair_scores, visible = scorer.score(best_pose.rotation_matrix()[None], best_pose.translation[None])
    correspondences = calculate_was(pair_scores[0], visible[0], scorer)
    if len(correspondences) < 3:
        return LocalizationResult(
            LocalizationStatus.DEGENERATE,
            history=history,
            n_valid_samples=n_valid,
            message=f"best pose commits {len(correspondences)} correspondences, need 3",
        )
    return LocalizationResult(
        LocalizationStatus.SUCCESS,
        pose=best_pose,
        correspondences=correspondences,
        was=float(was[0]),
        history=history,
        n_valid_samples=n_valid,
    )
