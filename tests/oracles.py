"""Scalar reference implementations that the vectorized production code is
checked against.

Matching: `multilabel_likelihood`, `neighbor_weight`, `best_neighbor_set` and
`similarity_score` compute one entry of `score_all_pairs`' likelihood and
similarity tables at a time. Alignment: `bbox_to_gaussian`,
`wasserstein2_squared` and `normalized_wasserstein` score one box pair, and
`scalar_calculate_was` scores one pose the way `_AlignmentScorer` does.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from semloc.geometry import BoundingBox, project_quadric_to_bbox
from semloc.graph import LabelFrequencyTable, NormalizedConfidence, SemanticGraph


# ---------------------------------------------------------------------------
# likelihood and context propagation


def multilabel_likelihood(
    frequencies: LabelFrequencyTable, confidences: NormalizedConfidence
) -> float:
    """Label match likelihood: sum of frequency * confidence over shared labels.

    Bounded in [0, 1] because frequencies and confidences each lie in [0, 1]
    and the confidences sum to one.
    """
    counts = frequencies.per_label_counts
    total = frequencies.total_detections
    acc = 0.0
    for label, conf in confidences.entries:
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
    p_root = prior_graph.node(prior_id)
    q_root = query_graph.node(query_id)
    prior_nbrs = prior_graph.neighbors(prior_id)
    query_nbrs = query_graph.neighbors(query_id)
    selections: list[NeighborSelection] = []
    if prior_nbrs:
        p_dists = {
            n: float(np.linalg.norm(prior_graph.node(n).position - p_root.position))
            for n in prior_nbrs
        }
        for m in query_nbrs:
            dq = float(np.linalg.norm(query_graph.node(m).position - q_root.position))
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


def scalar_calculate_was(pose, candidates, prior_graph, query_graph, intrinsics, C):
    """Alignment score of a pose against the candidate set, one pair at a time.

    Projects each candidate prior to a clamped box, embeds boxes as
    Gaussians, and scores each pair with exp(-W2/C). Per query node the best
    visible prior is selected (ties to the lower prior id); the score is the
    mean over the selected pairs, which are ordered by query id. Returns 0
    and no pairs when nothing is visible.
    """
    projected = {}
    for prior_id, _ in candidates.pairs:
        if prior_id not in projected:
            box = project_quadric_to_bbox(prior_graph.node(prior_id).quadric(), pose, intrinsics)
            if box is not None:
                box = box.clamped(intrinsics.width, intrinsics.height)
            projected[prior_id] = None if box is None else bbox_to_gaussian(box)

    best: dict[int, tuple[int, float]] = {}
    for query_id in candidates.query_ids():
        q_gauss = bbox_to_gaussian(query_graph.node(query_id).bbox)
        for prior_id in candidates.candidates_for(query_id):
            p_gauss = projected[prior_id]
            if p_gauss is None:
                continue
            w = normalized_wasserstein(p_gauss, q_gauss, C)
            cur = best.get(query_id)
            if cur is None or w > cur[1] or (w == cur[1] and prior_id < cur[0]):
                best[query_id] = (prior_id, w)

    if not best:
        return 0.0, []
    score = sum(w for _, w in best.values()) / len(best)
    return score, [(best[q][0], q) for q in sorted(best)]
