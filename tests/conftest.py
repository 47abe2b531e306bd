import numpy as np
import pytest

from semloc import (
    BoundingBox,
    CandidateSet,
    LabelFrequencyTable,
    Pose,
    PriorObjectNode,
    QueryDetectionNode,
    SemanticGraph,
    build_knn_edges,
    quadric_from_params,
)

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
    ids = g.ids()
    return {tuple(sorted((ids[a], ids[b]))) for a, b in g.edges.tolist()}


def candidate_set(pairs, prior_graph: SemanticGraph, query_graph: SemanticGraph) -> CandidateSet:
    """The candidate set of (prior id, query id) pairs, as node indices in pair order."""
    prior_ids, query_ids = prior_graph.ids(), query_graph.ids()
    return CandidateSet(
        np.array([prior_ids.index(p) for p, _ in pairs], dtype=int),
        np.array([query_ids.index(q) for _, q in pairs], dtype=int),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
