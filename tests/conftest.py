import itertools

import numpy as np
import pytest

from semloc import (
    BoundingBox,
    CandidateSet,
    DetectionRecord,
    LabelFrequencyTable,
    Pose,
    PriorObjectNode,
    QueryDetectionNode,
    SemanticGraph,
    build_knn_edges,
    quadric_from_params,
)
from semloc.geometry import _project_quadrics, quat_to_rotmat

VOCAB = [f"class{i:02d}" for i in range(40)]

# verdict lines collected by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_table(counts: dict, total: int | None = None) -> LabelFrequencyTable:
    total = total if total is not None else sum(counts.values())
    return LabelFrequencyTable.from_counts(counts, total)


def make_conf(entries) -> list[tuple[str, float]]:
    """(label, confidence) pairs, from a dict or pair list, in `top_k_labels` order."""
    if isinstance(entries, dict):
        entries = list(entries.items())
    entries = sorted(entries, key=lambda e: (-e[1], e[0]))
    return [(str(l), float(s)) for l, s in entries]


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_pose(rng: np.random.Generator, t_scale: float = 2.0) -> Pose:
    return Pose.from_rt(random_rotation(rng), rng.normal(scale=t_scale, size=3))


def pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    """Rotation matrices (n, 3, 3) and translations (n, 3) of a list of poses."""
    return (
        np.reshape([p.rotation_matrix() for p in poses], (-1, 3, 3)),
        np.reshape([p.translation for p in poses], (-1, 3)),
    )


def solution_poses(solutions) -> list[Pose]:
    """The poses of a p3p_solve result as Pose objects."""
    return [solutions.pose(k) for k in range(len(solutions))]


def random_table(rng: np.random.Generator, vocab=VOCAB) -> LabelFrequencyTable:
    n = int(rng.integers(1, 6))
    labels = rng.choice(len(vocab), size=n, replace=False)
    counts = {vocab[i]: int(rng.integers(1, 10)) for i in labels}
    total = sum(counts.values()) + int(rng.integers(0, 10))
    return make_table(counts, total)


def random_conf(rng: np.random.Generator, vocab=VOCAB) -> list[tuple[str, float]]:
    n = int(rng.integers(1, 6))
    labels = rng.choice(len(vocab), size=n, replace=False)
    w = rng.random(n) + 1e-3
    w = w / w.sum()
    return make_conf([(vocab[i], float(s)) for i, s in zip(labels, w)])


# four clusters of three confusable labels
CLUSTERS = [[f"group{c}_{x}" for x in "abc"] for c in range(4)]


def clustered_nodes(rng, n_p, n_q, weights=(1, 1, 1, 1), bridges=0, unmapped=0, zero_conf=0):
    """Prior and query nodes whose labels each come from one of CLUSTERS.

    weights are the clusters' shares of the nodes. Of the query nodes, the
    first `bridges` also carry a label of the next cluster, the next
    `unmapped` a label the map never saw (the first of them no other
    label), and the next `zero_conf` a label of the next cluster at
    confidence 0.
    """
    share = np.asarray(weights, dtype=float) / sum(weights)

    def labels_of(c):
        return [CLUSTERS[c][i] for i in sorted(rng.choice(3, size=int(rng.integers(1, 4)), replace=False))]

    p_nodes = []
    for i in range(n_p):
        counts = {label: int(rng.integers(1, 10)) for label in labels_of(rng.choice(4, p=share))}
        total = sum(counts.values()) + int(rng.integers(0, 5))
        p_nodes.append(prior_node(i * 3 + 1, rng.uniform(-3, 3, 3), counts, total))
    q_nodes = []
    for j in range(n_q):
        c = int(rng.choice(4, p=share))
        scores = {label: float(rng.random()) + 1e-3 for label in labels_of(c)}
        other = CLUSTERS[(c + 1) % 4]
        if j < bridges:
            scores[other[0]] = float(rng.random()) + 1e-3
        elif j < bridges + unmapped:
            if j == bridges:
                scores = {}
            scores["unmapped"] = float(rng.random()) + 1e-3
        elif j < bridges + unmapped + zero_conf:
            scores[other[1]] = 0.0
        total = sum(scores.values())
        conf = {label: score / total for label, score in scores.items()}
        q_nodes.append(query_node(j * 2, rng.uniform(-3, 3, 3) + [0, 0, 6], conf))
    return p_nodes, q_nodes


def prior_node(node_id: int, position, counts: dict, total: int | None = None) -> PriorObjectNode:
    return PriorObjectNode(
        id=node_id,
        position=np.asarray(position, dtype=float),
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        scale=np.array([0.1, 0.1, 0.1]),
        frequencies=make_table(counts, total),
    )


def quadric_of(obj) -> np.ndarray:
    """Dual quadric of anything with position, rotation and scale (map node, landmark)."""
    return quadric_from_params(obj.position, obj.rotation, obj.scale)


def query_node(node_id: int, position, conf, bbox: BoundingBox | None = None) -> QueryDetectionNode:
    """A query node; conf is a dict or a (label, confidence) list, as `make_conf` takes."""
    return QueryDetectionNode(
        id=node_id,
        bbox=bbox if bbox is not None else BoundingBox(0.0, 0.0, 10.0, 10.0),
        position=np.asarray(position, dtype=float).reshape(3),
        confidences=make_conf(conf),
    )


def graph(nodes, id_pairs) -> SemanticGraph:
    """The graph over `nodes`, taken in id order, with edges given as (node id, node id) pairs."""
    nodes = sorted(nodes, key=lambda node: node.id)
    index = {node.id: i for i, node in enumerate(nodes)}
    return SemanticGraph(nodes, [(index[a], index[b]) for a, b in id_pairs])


def knn_graph(nodes, k_edge: int) -> SemanticGraph:
    """The graph over `nodes`, taken in id order, each wired to its k_edge nearest neighbors."""
    nodes = sorted(nodes, key=lambda node: node.id)
    return SemanticGraph(nodes, build_knn_edges([node.position for node in nodes], k_edge))


def edge_ids(g: SemanticGraph) -> set:
    """The graph's undirected edges as (lower id, higher id) pairs."""
    ids = g.ids
    return {tuple(sorted((ids[a], ids[b]))) for a, b in g.edges.tolist()}


def depth_map(nodes, pose: Pose, intrinsics) -> np.ndarray:
    """Ray-cast depth image of the nodes' ellipsoids under pose.

    Each pixel holds the depth of the nearest surface its ray meets, or 0
    (no depth) where it meets none.
    """
    v, u = np.mgrid[0 : intrinsics.height, 0 : intrinsics.width].astype(float)
    rays = np.stack(
        [(u - intrinsics.cx) / intrinsics.fx, (v - intrinsics.cy) / intrinsics.fy, np.ones_like(u)],
        axis=-1,
    )
    depth = np.full(u.shape, np.inf)
    for node in nodes:
        # |A^(1/2) (t ray - centre)| = 1, a quadratic in the depth t
        centre = pose.transform(node.position)
        axes = pose.rotation_matrix() @ quat_to_rotmat(node.rotation)
        a_mat = axes @ np.diag(node.scale**-2.0) @ axes.T
        a = np.einsum("hwi,ij,hwj->hw", rays, a_mat, rays)
        b = rays @ (a_mat @ centre)
        disc = b * b - a * (centre @ a_mat @ centre - 1.0)
        t = (b - np.sqrt(np.maximum(disc, 0.0))) / a
        depth = np.minimum(depth, np.where((disc >= 0.0) & (t > 0.0), t, np.inf))
    depth[np.isinf(depth)] = 0.0
    return depth


# (centre, semi-axes) of furniture-sized and small objects, seen from the
# world origin along +z with no two boxes overlapping: a large object's
# visible surface lies up to 0.7 m nearer the camera than its centre
LARGE_OBJECT_LAYOUT = [
    ((-1.6, 0.3, 4.0), (0.6, 0.4, 0.6)),
    ((-0.7, -0.6, 5.0), (0.1, 0.12, 0.1)),
    ((0.3, 0.5, 3.5), (0.1, 0.1, 0.1)),
    ((1.3, -0.3, 4.5), (0.7, 0.5, 0.6)),
    ((-0.2, 0.0, 7.5), (0.6, 0.6, 0.7)),
    ((2.4, 0.8, 6.0), (0.12, 0.1, 0.1)),
    ((-2.8, -0.8, 7.0), (0.15, 0.2, 0.15)),
]


def large_object_frame(intrinsics):
    """LARGE_OBJECT_LAYOUT as map nodes and one frame whose positions come from depth.

    Returns the prior nodes (ids 1.., label VOCAB[id - 1]), the frame's
    detections (one-hot labels, boxes centred on the projected centres,
    no positions), its ray-cast depth map and its pose, the identity.
    """
    pose = Pose.identity()
    nodes = [
        PriorObjectNode(
            i + 1, np.array(centre), np.array([1.0, 0.0, 0.0, 0.0]), np.array(axes),
            make_table({VOCAB[i]: 5}),
        )
        for i, (centre, axes) in enumerate(LARGE_OBJECT_LAYOUT)
    ]
    extents, visible = _project_quadrics(
        np.stack([quadric_of(node) for node in nodes]),
        pose.rotation_matrix()[None],
        pose.translation[None],
        intrinsics,
    )
    assert visible.all()
    detections = []
    for i, (node, (x0, y0, x1, y1)) in enumerate(zip(nodes, extents[0].tolist())):
        x, y, z = node.position.tolist()
        u, v = intrinsics.fx * x / z + intrinsics.cx, intrinsics.fy * y / z + intrinsics.cy
        hw, hh = (x1 - x0) / 2.0, (y1 - y0) / 2.0
        detections.append(DetectionRecord(BoundingBox(u - hw, v - hh, u + hw, v + hh), [(VOCAB[i], 1.0)]))
    # no box overlaps another, so each box's depth is its own object's surface
    for a, b in itertools.combinations([det.bbox for det in detections], 2):
        assert a.x_max <= b.x_min or b.x_max <= a.x_min or a.y_max <= b.y_min or b.y_max <= a.y_min
    return nodes, detections, depth_map(nodes, pose, intrinsics), pose


def candidate_set(pairs, prior_graph: SemanticGraph, query_graph: SemanticGraph) -> CandidateSet:
    """The candidate set of (prior id, query id) pairs, as node indices in pair order."""
    prior_ids, query_ids = prior_graph.ids, query_graph.ids
    return CandidateSet(
        np.array([prior_ids.index(p) for p, _ in pairs], dtype=int),
        np.array([query_ids.index(q) for _, q in pairs], dtype=int),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
