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
from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, quadric_from_params

logger = logging.getLogger(__name__)


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
    retained as-is. A non-finite or negative raw score, or retained scores
    that sum to zero or overflow to infinity, make the normalization
    undefined and raise.
    """
    for label, score in raw:
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
        self.edges = np.argwhere(np.triu(self.adjacency))
        self.edge_root, self.edge_nbr = np.nonzero(self.adjacency)
        self.degree = np.bincount(self.edge_root, minlength=n)
        self.max_degree = int(self.degree.max(initial=0))
        offsets = np.cumsum(self.degree) - self.degree
        self.edge_slot = np.arange(self.edge_root.size) - offsets[self.edge_root]
        # (neighbor, root) keys are the (root, neighbor) keys of the reversed edges
        self.edge_reverse = np.argsort(self.edge_nbr * n + self.edge_root)
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
    squared = 0.0
    for axis in points.T:
        diff = axis[:, None] - axis
        squared = squared + diff * diff
    return np.sqrt(squared)


def build_knn_edges(positions: np.ndarray, k_edge: int) -> np.ndarray:
    """Each node's k nearest neighbors as (root, neighbor) index pairs, shape (n * k, 2).

    k is k_edge, or n - 1 when fewer nodes exist. Rows run by root, then by
    distance; a distance tie goes to the lower index.
    """
    return _knn_edges(pairwise_distances(np.asarray(positions, dtype=float).reshape(-1, 3)), k_edge)


def _knn_edges(distances: np.ndarray, k_edge: int) -> np.ndarray:
    """`build_knn_edges` over the points' `pairwise_distances` table (n, n), left unchanged."""
    if k_edge <= 0:
        raise ValueError("k_edge must be positive")
    n = len(distances)
    if n < 2:
        return np.zeros((0, 2), dtype=int)
    dists = distances.copy()
    np.fill_diagonal(dists, np.inf)
    nbr = np.argsort(dists, axis=1, kind="stable")[:, : min(k_edge, n - 1)]
    return np.stack((np.repeat(np.arange(n), nbr.shape[1]), nbr.ravel()), axis=1)


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
    keyframe's k-NN and the graph.
    """
    nodes = sorted(nodes, key=lambda node: node.id)
    row = {node.id: i for i, node in enumerate(nodes)}
    for members in keyframes:
        for lm_id in members:
            if lm_id not in row:
                raise ValueError(f"keyframe references unknown landmark {lm_id}")
    if not keyframes:
        keyframes = [list(row)]
    dist = pairwise_distances(np.reshape([node.position for node in nodes], (-1, 3)))
    rows = [np.array(sorted({row[i] for i in members}), dtype=int) for members in keyframes]
    # a keyframe's sub-table has the bits of the table over its landmarks alone
    edges = np.concatenate([r[_knn_edges(dist[np.ix_(r, r)], k_edge)] for r in rows])
    return SemanticGraph(nodes, edges, dist)


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
    image of intrinsics, a label score is non-finite or negative, the
    confidence vector is all-zero, no positive-depth source exists, or the
    position is not finite or so far away that distances between positions
    overflow.
    """
    nodes: list[QueryDetectionNode] = []
    for idx, det in enumerate(detections):
        bbox = det.bbox.clamped(intrinsics.width, intrinsics.height)
        if bbox is None:
            logger.warning("detection %d dropped: box outside image", idx)
            continue
        try:
            conf = normalize_confidences(det.labels, k)
        except ValueError as exc:
            logger.warning("detection %d dropped: %s", idx, exc)
            continue
        position = det.position
        if position is None:
            if depth is None:
                logger.warning("detection %d dropped: no depth source", idx)
                continue
            z = robust_bbox_depth(depth, bbox)
            if z is None:
                logger.warning("detection %d dropped: no valid depth", idx)
                continue
            position = backproject_pixel(bbox.center, z, intrinsics)
        position = np.asarray(position, dtype=float).reshape(3)
        # 4 |p|^2 bounds the squared distance between two kept positions
        if not math.isfinite(4.0 * sum(v * v for v in position.tolist())):
            logger.warning("detection %d dropped: non-finite position or distance", idx)
            continue
        if position[2] <= 0.0:
            logger.warning("detection %d dropped: nonpositive depth", idx)
            continue
        nodes.append(QueryDetectionNode(idx, bbox, position, conf))
    dist = pairwise_distances(np.reshape([node.position for node in nodes], (-1, 3)))
    return SemanticGraph(nodes, _knn_edges(dist, k_edge), dist)
