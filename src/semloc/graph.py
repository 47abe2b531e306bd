"""Semantic graph model.

Two graphs share one container type: a prior graph of mapped landmarks with
accumulated multi-label detection frequencies, and a per-frame query graph of
detections with normalized top-K confidences. Nodes are held in id order,
so every tie broken to the lower node index goes to the lower id. Edges are
node-index pairs from k-nearest neighbors over 3D positions.
"""

from __future__ import annotations

import logging
import math
import numbers
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, quadric_from_params

logger = logging.getLogger(__name__)

# neighbours of each landmark, nearest first, that prior_graph_from_nodes walks
# before the (keyframe, member) pairs still short walk their landmark's full
# order; also the distance-table rows copied at a time. On a 2-core Xeon at
# k_edge 5, 16 left 50 to 1,423 pairs short on the criterion-8, wide-room and
# 2 m grid maps (whose distance ties cut it to 12), and their full orders took
# a 3,000-landmark build from 0.25 to 0.38 s; 24 left at most 13 short and
# built every map within noise of 32 and 48.
_PREFIX = 24


# ---------------------------------------------------------------------------
# label statistics


@dataclass
class LabelFrequencyTable:
    """Per-landmark label counts accumulated over map detections.

    A label's frequency is its count / total_detections; counts rather than
    frequencies are kept so the table stays exact under serialization.
    """

    total_detections: int
    per_label_counts: dict[str, int]

    def __post_init__(self):
        if self.total_detections <= 0:
            raise ValueError("total_detections must be positive")
        for label, count in self.per_label_counts.items():
            if not (0 < count <= self.total_detections):
                raise ValueError(f"count for {label!r} outside (0, total]")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], total: int) -> "LabelFrequencyTable":
        return cls(total, {label: int(counts[label]) for label in sorted(counts)})


def accumulate_label_frequencies(observations: Sequence[Iterable[str]]) -> LabelFrequencyTable:
    """Fold per-detection label sets into a frequency table.

    Each observation is the set of labels attached to one detection of the
    landmark; a label appearing there counts once toward that label's tally
    regardless of multiplicity.
    """
    if len(observations) == 0:
        raise ValueError("no detections for landmark")
    counts: Counter[str] = Counter()
    for obs in observations:
        for label in set(obs):
            counts[label] += 1
    return LabelFrequencyTable.from_counts(counts, len(observations))


def top_k_labels(raw: Sequence[tuple[str, float]], k: int) -> list[tuple[str, float]]:
    """Deduplicate raw (label, score) pairs and keep the top-k.

    Duplicate labels keep their maximum score. Score ties are broken by
    lexicographic label order so the cut at k is deterministic.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if len(raw) == 1:  # nothing to merge or order
        ((label, score),) = raw
        return [(label, float(score))]
    best: dict[str, float] = {}
    for label, score in raw:
        score = float(score)
        if label not in best or score > best[label]:
            best[label] = score
    ordered = sorted(best.items(), key=lambda it: (-it[1], it[0]))
    return ordered[:k]


def normalize_confidences(raw: Sequence[tuple[str, float]], k: int) -> list[tuple[str, float]]:
    """Keep the top-k raw scores and renormalize them to a unit sum.

    Returns (label, confidence) pairs in `top_k_labels` order: distinct
    labels, confidences in [0, 1] summing to one. Fewer than k labels are
    retained as-is. A raw score that is not a real number (a bool is not
    one), is non-finite or negative, or retained scores that sum to zero or
    overflow to infinity, make the normalization undefined and raise
    ValueError.
    """
    for label, score in raw:
        # a float passes at once: the abstract-class check costs some 0.5 us a score (2-core Xeon)
        if type(score) is not float and (isinstance(score, bool) or not isinstance(score, numbers.Real)):
            raise ValueError(f"score {score!r} for label {label!r} is not a real number")
        if not (math.isfinite(score) and score >= 0.0):
            raise ValueError(f"score {score} for label {label!r} is not finite and nonnegative")
    kept = top_k_labels(raw, k)
    total = sum(score for _, score in kept)
    if not 0.0 < total < math.inf:
        raise ValueError(f"degenerate confidence (scores sum to {total})")
    return [(label, score / total) for label, score in kept]


# ---------------------------------------------------------------------------
# nodes and graphs


@dataclass
class PriorObjectNode:
    """Mapped landmark: dual-quadric geometry plus label statistics."""

    id: int
    position: np.ndarray
    rotation: np.ndarray  # quaternion (w, x, y, z), object to world
    scale: np.ndarray
    frequencies: LabelFrequencyTable

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.rotation = np.asarray(self.rotation, dtype=float).reshape(4)
        self.scale = np.asarray(self.scale, dtype=float).reshape(3)
        if not all(np.isfinite(v).all() for v in (self.position, self.rotation, self.scale)):
            raise ValueError("position, rotation and scale must be finite")
        if np.any(self.scale <= 0.0):
            raise ValueError("scale must be positive")
        # Python floats square to inf where the quadric builder would overflow
        if not all(math.isfinite(s * s) for s in self.scale.tolist()):
            raise ValueError("scale squared must be finite")
        # 4 |p|^2 bounds the squared distance to any other such landmark, as in build_query_graph
        if not math.isfinite(4.0 * sum(v * v for v in self.position.tolist())):
            raise ValueError("position so far out that distances to it overflow")
        if abs(np.linalg.norm(self.rotation) - 1.0) > 1e-9:
            raise ValueError("non-unit rotation quaternion")


@dataclass
class QueryDetectionNode:
    """One detection in the query frame: box, back-projected point, confidences.

    `build_query_graph` makes these: position is a finite (3,) float array
    in front of the camera, and confidences is the `normalize_confidences`
    list of the detection's labels.
    """

    id: int
    bbox: BoundingBox
    position: np.ndarray  # camera frame, meters
    confidences: list[tuple[str, float]]


@dataclass
class SemanticGraph:
    """Nodes in strictly increasing id order, and undirected edges as (index, index) pairs.

    `adjacency` is the boolean (nodes, nodes) matrix of the edges; repeated
    and reversed pairs collapse into one edge. `edges` lists each edge once,
    as (lower index, higher index) rows in row-major order. The directed
    edges are index arrays ordered by root and then by neighbor (so by id):
    `edge_root` and `edge_nbr` are node indices, `edge_length`
    the root-to-neighbor distance and `edge_slot` the edge's place among its
    root's edges. `degree` counts each node's edges and `max_degree` is its
    maximum (0 without edges). `edge_reverse` maps each directed edge to the
    one the other way, so `edge_reverse` over a node's own run of edges
    lists the edges into it, by root. `ids`, `positions` (nodes, 3) and their
    `pairwise_distances` table `distances` (nodes, nodes) are built with the
    graph, unless a builder passes in the table it wired the edges from; a
    prior graph's `quadrics`, `radii` and `label_table` on first use.
    """

    nodes: list
    edges: np.ndarray
    distances: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.ids = [node.id for node in self.nodes]
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValueError("node ids not strictly increasing")
        n = len(self.ids)
        pairs = np.asarray(self.edges, dtype=int).reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self edge")
        if pairs.size and not (pairs.min() >= 0 and pairs.max() < n):
            raise ValueError("edge references unknown node")
        self.adjacency = np.zeros((n, n), dtype=bool)
        self.adjacency[pairs[:, 0], pairs[:, 1]] = True
        self.adjacency |= self.adjacency.T
        self.edge_root, self.edge_nbr = np.nonzero(self.adjacency)
        upper = self.edge_root < self.edge_nbr
        self.edges = np.stack((self.edge_root[upper], self.edge_nbr[upper]), axis=1)
        self.degree = np.bincount(self.edge_root, minlength=n)
        self.max_degree = int(self.degree.max(initial=0))
        offsets = np.cumsum(self.degree) - self.degree
        self.edge_slot = np.arange(self.edge_root.size) - offsets[self.edge_root]
        # the (root, neighbor) keys ascend, and each edge's (neighbor, root) key is its reverse's
        keys = self.edge_root * n + self.edge_nbr
        self.edge_reverse = np.searchsorted(keys, self.edge_nbr * n + self.edge_root)
        self.positions = np.reshape([node.position for node in self.nodes], (-1, 3))
        if self.distances is None:
            self.distances = pairwise_distances(self.positions)
        self.edge_length = self.distances[self.edge_root, self.edge_nbr]

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def quadrics(self) -> np.ndarray:
        """Dual quadrics (nodes, 4, 4) of a prior graph's landmarks, in node order.

        Built once, on first use, and kept with the graph (pickles carry it).
        Each row has the bits of `quadric_from_params` on that node alone.
        """
        return quadric_from_params(
            self.positions,
            np.reshape([node.rotation for node in self.nodes], (-1, 4)),
            np.reshape([node.scale for node in self.nodes], (-1, 3)),
        )

    @cached_property
    def radii(self) -> np.ndarray:
        """Largest semi-axis (nodes,) of each prior landmark, in node order.

        No point of the landmark's surface lies farther than this from its
        centre. Built once, on first use, like `quadrics`.
        """
        return np.reshape([node.scale for node in self.nodes], (-1, 3)).max(axis=1)

    @cached_property
    def label_table(self) -> tuple[dict[str, int], np.ndarray]:
        """A prior graph's label vocabulary (label to column, in first-seen node
        order) and its landmarks' label frequencies (nodes, labels): entry
        (i, c) is count / total_detections of node i's label c, 0 if node i
        was never detected as c. Built once, on first use, like `quadrics`.
        """
        vocab: dict[str, int] = {}
        for node in self.nodes:
            for label in node.frequencies.per_label_counts:
                vocab.setdefault(label, len(vocab))
        freq = np.zeros((len(self.nodes), len(vocab)))
        for i, node in enumerate(self.nodes):
            for label, count in node.frequencies.per_label_counts.items():
                freq[i, vocab[label]] = count / node.frequencies.total_detections
        return vocab, freq


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance between every two of the points (n, 3), (n, n).

    Summed x, y, z in turn, so each entry has the bits of the scalar
    sqrt(dx * dx + dy * dy + dz * dz).
    """
    # two (n, n) tables at a time: the sum and one axis's squared differences
    squared = np.zeros((len(points), len(points)))
    diff = np.empty_like(squared)
    for axis in points.T:
        np.subtract(axis[:, None], axis, out=diff)
        diff *= diff
        squared += diff
    return np.sqrt(squared, out=squared)


def build_knn_edges(positions: np.ndarray, k_edge: int) -> np.ndarray:
    """Each node's k nearest neighbors as (root, neighbor) index pairs, shape (n * k, 2).

    k is k_edge, or n - 1 when fewer nodes exist. Rows run by root, then by
    distance; a distance tie goes to the lower index. The neighbors are
    selected by `_k_smallest`, not sorted.
    """
    return _knn_edges(pairwise_distances(np.asarray(positions, dtype=float).reshape(-1, 3)), k_edge)


def _knn_edges(distances: np.ndarray, k_edge: int) -> np.ndarray:
    """`build_knn_edges` over the points' `pairwise_distances` table (n, n), left unchanged.

    One copy of the table with its diagonal blanked to inf goes through `_k_smallest`.
    """
    if k_edge <= 0:
        raise ValueError("k_edge must be positive")
    n = len(distances)
    k = min(k_edge, n - 1)
    if k <= 0:
        return np.zeros((0, 2), dtype=int)
    dists = distances.copy()
    np.fill_diagonal(dists, np.inf)
    nbr = _k_smallest(dists, k)
    return np.stack((np.repeat(np.arange(n), k), nbr.ravel()), axis=1)


def _k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices (rows, k) of each row's k smallest values, smallest first.

    k rounds of row-wise `argmin`, each of which blanks its picks to inf in
    `values`, which is overwritten. `argmin` returns the first minimum, so a
    tie goes to the lower column, as in a stable sort. Values must not be
    NaN; a row's picks past its count of values below inf are arbitrary.
    This selection serves the k-NN wiring and the top-tau candidates.
    """
    picks = np.empty((k, len(values)), dtype=int)
    rows = np.arange(len(values))
    for pick in picks:
        values.argmin(axis=1, out=pick)
        values[rows, pick] = np.inf
    return picks.T


# ---------------------------------------------------------------------------
# graph builders


def prior_graph_from_nodes(
    nodes: Sequence[PriorObjectNode],
    keyframes: Sequence[Collection[int]],
    k_edge: int = 5,
) -> SemanticGraph:
    """Assemble the prior graph from prebuilt nodes and keyframe memberships.

    The nodes may come in any order; the graph holds them sorted by id.
    Edges are the union over keyframes of per-keyframe k-NN among the
    landmarks visible in that keyframe. A map without keyframes counts as
    one keyframe that sees every landmark. One distance table serves every
    keyframe's k-NN and the graph. A (keyframes, landmarks) membership table
    drives one walk over each landmark's neighbours, nearest first: each
    (keyframe, member) pair keeps its first min(k_edge, members - 1)
    co-members. The walk reads the first _PREFIX neighbours of each
    landmark; the few pairs still short after them walk their landmark's
    full order (`_walk`).
    """
    if k_edge <= 0:
        raise ValueError("k_edge must be positive")
    nodes = sorted(nodes, key=lambda node: node.id)
    ids = np.array([node.id for node in nodes])
    n = len(nodes)
    if not keyframes:
        keyframes = [ids]
    flat = np.array(list(chain.from_iterable(keyframes)))
    at = np.searchsorted(ids, flat)
    unknown = at == n
    unknown[~unknown] = ids[at[~unknown]] != flat[~unknown]
    if unknown.any():
        raise ValueError(f"keyframe references unknown landmark {flat[unknown.argmax()]}")
    # column n, in no keyframe, stands for the neighbours past a truncated prefix
    member = np.zeros((len(keyframes), n + 1), dtype=bool)
    f = np.repeat(np.arange(len(keyframes)), [len(m) for m in keyframes])
    member[f, at] = True
    need = np.minimum(k_edge, np.count_nonzero(member, axis=1) - 1)  # per keyframe
    wired = need[f] > 0  # a repeated member walks twice and finds the same edges
    dist = pairwise_distances(np.reshape([node.position for node in nodes], (-1, 3)))
    edges = [np.zeros((2, 0), dtype=int)]  # (roots, neighbours) found at each rank
    short = _walk(dist, member, need, (f[wired], at[wired]), _PREFIX, edges)
    _walk(dist, member, need, short, n - 1, edges)
    return SemanticGraph(nodes, np.concatenate(edges, axis=1).T, dist)


def _walk(
    dist: np.ndarray,
    member: np.ndarray,
    need: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray],
    length: int,
    edges: list,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk each (keyframe, landmark) pair's first `length` neighbours, nearest first.

    A rank at a time, every pair still short takes its landmark's neighbour
    at that rank if the keyframe holds it, appending the (2, found) roots
    and neighbours to `edges`, and drops out once it has its keyframe's
    `need` of them. Returns the pairs still short: their landmark's order
    (`_nearest`) was cut before its last co-member. At length
    landmarks - 1 no pair is left short.
    """
    f, i = pairs
    if not f.size:
        return pairs
    n = len(dist)
    used = np.bincount(i, minlength=n) > 0
    order = _nearest(dist, np.flatnonzero(used), length)
    width = order.shape[1]
    in_keyframe, order = member.ravel(), order.ravel()
    base, pos, left = f * (n + 1), (np.cumsum(used) - 1)[i] * width, need[f]
    for rank in range(width):
        nbr = order[pos + rank]
        hit = in_keyframe[base + nbr]
        edges.append(np.stack((i[hit], nbr[hit])))
        left = left - hit
        go = left > 0
        i, base, pos, left = i[go], base[go], pos[go], left[go]
        if not i.size:
            break
    return base // (n + 1), i


def _nearest(dist: np.ndarray, rows: np.ndarray, length: int) -> np.ndarray:
    """Each row's first min(length, n - 1) other landmarks of the (n, n) table
    `dist`, in (distance, index) order, (rows, min(length, n - 1)).

    Below n - 1, `argpartition` finds the length + 1 nearest. Only those
    nearer than the (length + 1)-th are certain to precede every landmark
    left out, so the rest of the prefix is cut to index n, a landmark in no
    keyframe; a distance tie at the cut thus never goes to a higher index.
    At n - 1 whole rows are sorted stably. Rows are read _PREFIX at a time,
    so no copy of the whole table is made.
    """
    n = len(dist)
    full = length >= n - 1
    idx = np.empty((len(rows), n - 1 if full else length + 1), dtype=int)
    for start in range(0, len(rows), _PREFIX):
        part = rows[start : start + _PREFIX]
        near = dist[part]
        near[np.arange(len(part)), part] = np.inf
        if full:
            idx[start : start + _PREFIX] = np.argsort(near, axis=1, kind="stable")[:, : n - 1]
        else:
            idx[start : start + _PREFIX] = np.argpartition(near, length, axis=1)[:, : length + 1]
    if full:
        return idx
    idx.sort(axis=1)  # so the stable sort by distance breaks ties to the lower index
    vals = dist[rows[:, None], idx]  # a row's own inf is past its length + 1 nearest
    rank = np.argsort(vals, axis=1, kind="stable")
    idx, vals = np.take_along_axis(idx, rank, axis=1), np.take_along_axis(vals, rank, axis=1)
    return np.where(vals[:, :length] < vals[:, length:], idx[:, :length], n)


@dataclass
class DetectionRecord:
    """Detector output for one object: box, raw multi-label scores, optional point."""

    bbox: BoundingBox
    labels: list[tuple[str, float]]
    position: np.ndarray | None = None


def robust_bbox_depth(depth: np.ndarray, bbox: BoundingBox) -> float | None:
    """Median depth over the central half-area sub-box; None without valid pixels.

    The sub-box keeps 50% of the box area (sides scaled by sqrt(0.5)) around
    the center, which discards most boundary pixels that straddle occlusions.
    Valid pixels are finite and strictly positive.
    """
    depth = np.asarray(depth)
    h, w = depth.shape
    half = math.sqrt(0.5) / 2.0
    cx, cy = bbox.center
    x0 = int(np.clip(math.floor(cx - bbox.width * half), 0, w - 1))
    x1 = int(np.clip(math.ceil(cx + bbox.width * half), x0 + 1, w))
    y0 = int(np.clip(math.floor(cy - bbox.height * half), 0, h - 1))
    y1 = int(np.clip(math.ceil(cy + bbox.height * half), y0 + 1, h))
    patch = depth[y0:y1, x0:x1].astype(float).ravel()
    valid = patch[np.isfinite(patch) & (patch > 0.0)]
    if valid.size == 0:
        return None
    return float(np.median(valid))


def backproject_pixel(pixel, z: float, intrinsics: CameraIntrinsics) -> np.ndarray:
    u, v = float(pixel[0]), float(pixel[1])
    return np.array(
        [(u - intrinsics.cx) / intrinsics.fx * z, (v - intrinsics.cy) / intrinsics.fy * z, z]
    )


def build_query_graph(
    detections: Sequence[DetectionRecord],
    k: int,
    k_edge: int = 5,
    depth: np.ndarray | None = None,
    *,
    intrinsics: CameraIntrinsics,
) -> SemanticGraph:
    """Build the per-frame query graph from detector output.

    Node ids are the original detection indices, so dropped detections leave
    gaps instead of shifting ground-truth alignment. Detections are dropped
    (with a logged warning) when the box degenerates after clamping to the
    image of intrinsics, a label score is not a real number or is
    non-finite or negative, the confidence vector is all-zero, no
    positive-depth source exists, or the position is not finite or so far
    away that distances between positions overflow. A detection is checked
    in that order and dropped for the first reason that applies, and the
    warnings come in detection order.

    The frame is checked as arrays: one pass clamps every box (as
    `BoundingBox.clamped` does; a box the clamp leaves unchanged is reused)
    and finds the degenerate ones, and one pass checks every position,
    given or back-projected from `depth` at the box's `robust_bbox_depth`.
    Only the label lists (`normalize_confidences`), the depth look-ups and
    the nodes are made one detection at a time. A position that is not 3
    numbers raises ValueError.
    """
    given = np.array([det.bbox.as_list() for det in detections], dtype=float).reshape(-1, 4)
    limit = np.array([intrinsics.width, intrinsics.height] * 2, dtype=float)
    # min(max(v, 0.0), limit) per coordinate, the Python floats' clamp, signed zeros included
    floor = np.where(given < 0.0, 0.0, given)
    boxes = np.where(floor > limit, limit, floor)
    inside = (boxes[:, 2:] - boxes[:, :2] > 0.0).all(axis=1)
    unchanged = (boxes == given).all(axis=1).tolist()
    dropped = dict.fromkeys(np.flatnonzero(~inside).tolist(), "box outside image")
    placed = []  # (index, box, confidences) of each detection given a position
    points = []
    for i in np.flatnonzero(inside).tolist():
        det = detections[i]
        try:
            conf = normalize_confidences(det.labels, k)
        except ValueError as exc:
            dropped[i] = str(exc)
            continue
        box = det.bbox if unchanged[i] else BoundingBox(*boxes[i].tolist())
        position = det.position
        if position is None:
            z = None if depth is None else robust_bbox_depth(depth, box)
            if z is None:
                dropped[i] = "no depth source" if depth is None else "no valid depth"
                continue
            position = backproject_pixel(box.center, z, intrinsics)
        placed.append((i, box, conf))
        points.append(position)
    points = np.array(points, dtype=float).reshape(len(points), 3)
    # 4 |p|^2 bounds the squared distance between two kept positions
    with np.errstate(over="ignore"):
        square = points * points
        finite = np.isfinite(4.0 * (square[:, 0] + square[:, 1] + square[:, 2]))
    keep = finite & (points[:, 2] > 0.0)
    for j in np.flatnonzero(~keep).tolist():
        dropped[placed[j][0]] = "nonpositive depth" if finite[j] else "non-finite position or distance"
    for i in sorted(dropped):
        logger.warning("detection %d dropped: %s", i, dropped[i])
    kept = points[keep]
    nodes = [
        QueryDetectionNode(i, box, position, conf)
        for (i, box, conf), position in zip(compress(placed, keep.tolist()), kept)
    ]
    dist = pairwise_distances(kept)
    return SemanticGraph(nodes, _knn_edges(dist, k_edge), dist)
