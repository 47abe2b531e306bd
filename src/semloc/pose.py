"""Global pose estimation from candidate correspondences.

Samples distinct triples of candidate pairs, checks structural validity,
solves perspective-three-point, and keeps the pose with the best
normalized-Wasserstein alignment between projected landmarks and detected
boxes. Structural validity is read from one boolean (pairs, pairs)
compatibility table per frame, filled only at the entries the frame's draws
read: two pairs are compatible when the graphs' adjacency agrees on them
and the distance between their priors matches the distance between their
query nodes, within a tolerance that grows with the
two landmarks' sizes; the distance is a pairwise invariant of the unknown
rigid pose (TEASER++, Yang et al., T-RO 2020). Valid samples are the
triangles of this consistency graph, as in CLIPPER (Lusk et al., ICRA
2021), so P3P never sees a triple whose shape contradicts the map. One lazy
filter over the frame's draws yields the valid samples, which are solved
and scored in fixed chunks (see estimate_pose).
Deterministic for a fixed seed.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Pose,
    _project_quadrics,
    p3p_solve,
    pixel_to_bearing,
)
from .graph import SemanticGraph
from .matching import CandidateSet, extract_candidates, score_all_pairs


# valid samples per chunk of P3P solves and alignment scores. A stacked call
# has a fixed cost far above its cost per sample (on a 2-core Xeon host,
# p3p_solve about 0.4 ms a call and 4 us a sample, a criterion-8 scoring
# call about 0.1 ms and 3 us a pose), so a frame's time steps up with each
# further call; a size that about a tenth or half of the frames
# outgrow puts that step at a latency percentile. Under the distance term, 24
# is outgrown by at most 5% of early-exit frames (noise-free criterion-4
# orbits) and about 30% of full-budget criterion-8 frames
_CHUNK = 24
# m: the most by which two compatible pairs' prior-to-prior and
# query-to-query distances may differ, beyond the two priors' radii (see
# _compatibility). A query position is its box centre back-projected at a
# depth: the simulator's is the landmark-centre depth plus N(0, sigma), so a
# correct pair's distance errs by the difference of two such position errors,
# whose standard deviation is about sqrt(2) sigma: 0.07 m at sigma = 0.05 m,
# the largest of the acceptance and benchmark scenes. 0.3 m is over 4 of them.
_DIST_TOL = 0.3


class LocalizationStatus(str, Enum):
    SUCCESS = "success"
    INSUFFICIENT_DETECTIONS = "insufficient-detections"
    NO_VALID_SAMPLE = "no-valid-sample"
    DEGENERATE = "degenerate"


@dataclass
class MatcherConfig:
    """Knobs for matching and pose search.

    K: labels retained per confidence vector.
    tau: candidate priors kept per query node.
    C: pixel scale of the exp(-W2/C) box similarity.
    n_iter: distinct candidate triples drawn per frame, at most all
        C(pairs, 3) of them; early_exit_was stops sooner once the best
        alignment exceeds it (None disables).
    k_edge: neighbors per node when wiring graphs.
    rng_seed: seed of the sampling loop, a nonnegative integer.
    use_calp: add the neighbor-context term to the pair scores; False keeps
        the likelihood alone (the ablation baseline).
    """

    K: int = 5
    tau: int = 3
    C: float = 100.0
    n_iter: int = 200
    k_edge: int = 5
    rng_seed: int = 0
    early_exit_was: float | None = 0.99
    use_calp: bool = True

    def __post_init__(self):
        for name in ("K", "tau", "n_iter", "k_edge", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.K <= 0 or self.tau <= 0 or self.k_edge <= 0:
            raise ValueError("K, tau, k_edge must be positive")
        if not _finite_real(self.C) or self.C <= 0.0:
            raise ValueError("C must be a finite positive number")
        if self.early_exit_was is not None and not _finite_real(self.early_exit_was):
            raise ValueError("early_exit_was must be a finite number or none")
        if self.n_iter <= 0:
            raise ValueError("n_iter must be positive")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")
        if not isinstance(self.use_calp, bool):  # a config `use_calp=none` is no switch
            raise ValueError("use_calp must be true or false")


def _finite_real(value) -> bool:
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    )


@dataclass
class LocalizationResult:
    status: LocalizationStatus
    pose: Pose | None = None
    correspondences: list[tuple[int, int]] = field(default_factory=list)
    was: float = 0.0
    history: list[tuple[int, float]] = field(default_factory=list)
    n_valid_samples: int = 0
    message: str = ""


def is_valid_sample(sample, compatible: np.ndarray) -> bool:
    """Structural validity of a sample of three candidate indices.

    Requires every two of its pairs to be compatible (see _compatibility).
    """
    i, j, k = sample
    return bool(compatible[i, j] and compatible[i, k] and compatible[j, k])


def _draw_triples(rng: np.random.Generator, n_pairs: int, n: int) -> np.ndarray:
    """min(n, C(n_pairs, 3)) distinct index triples i < j < k, drawn uniformly, (draws, 3).

    One `rng.choice` picks distinct ranks of the C(n_pairs, 3) triples; the
    combinatorial number system turns rank r into the triple with
    r = C(k, 3) + C(j, 2) + i.
    """
    m = np.arange(n_pairs, dtype=np.int64)
    comb2 = m * (m - 1) // 2
    comb3 = comb2 * (m - 2) // 3
    total = math.comb(n_pairs, 3)
    ranks = rng.choice(total, min(n, total), replace=False)
    k = np.searchsorted(comb3, ranks, side="right") - 1
    ranks = ranks - comb3[k]
    j = np.searchsorted(comb2, ranks, side="right") - 1
    return np.column_stack([ranks - comb2[j], j, k])


def _compatibility(
    candidates: CandidateSet,
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    triples: np.ndarray,
) -> np.ndarray:
    """(pairs, pairs) table of which two candidate pairs may share a sample,
    filled where the frame's draws read it.

    triples are the drawn (draws, 3) candidate indices i < j < k; only their
    (i, j), (i, k) and (j, k) entries, the ones `is_valid_sample` reads, are
    evaluated, and every other entry is False. Two pairs are compatible when
    their priors differ, their query nodes differ, the priors share an edge
    exactly when the query nodes do, and the priors' world distance and the
    query nodes' camera-frame distance differ by at most _DIST_TOL plus the
    two priors' radii. The radii cover a depth-map query position: the
    median depth of the visible surface lies nearer the camera than the
    landmark's centre, by up to half the object's depth. Adjacency and
    distances are read per entry from the two graphs' own (nodes, nodes)
    tables.
    """
    m = len(candidates)
    # row 0 holds each draw's i, i, j and row 1 its j, k, k
    ab = triples.T.take((0, 0, 1, 1, 2, 2), axis=0).reshape(2, -1)
    p, q = candidates.prior.take(ab), candidates.query.take(ab)
    at_p, at_q = p[0] * len(prior_graph) + p[1], q[0] * len(query_graph) + q[1]
    gap = np.abs(prior_graph.distances.take(at_p) - query_graph.distances.take(at_q))
    reach = prior_graph.radii.take(p)
    table = np.zeros(m * m, dtype=bool)
    table[ab[0] * m + ab[1]] = (
        (p[0] != p[1])
        & (q[0] != q[1])
        & (prior_graph.adjacency.take(at_p) == query_graph.adjacency.take(at_q))
        & (gap <= reach[0] + reach[1] + _DIST_TOL)
    )
    return table.reshape(m, m)


class _AlignmentScorer:
    """Alignment of projected landmarks with detected boxes, for a fixed candidate set.

    The one implementation of the normalized-Wasserstein box alignment: each
    prior of a (prior, query) pair is projected under a pose to its clamped
    image box, both boxes are embedded as Gaussians, and the pair scores
    exp(-W2/C). A prior is visible when `_project_quadrics` finds it so and
    its box clamped to the image is nondegenerate. Pairs are node indices;
    ids enter only in `calculate_was`'s output.
    """

    def __init__(self, candidates, prior_graph, query_ids, boxes, intrinsics, C):
        """candidates: a CandidateSet grouped by query index; query_ids and boxes:
        the id and BoundingBox of each query index."""
        self.C = C
        self.intrinsics = intrinsics
        self.image_max = np.array([intrinsics.width, intrinsics.height] * 2, dtype=float)
        self.prior_ids = np.asarray(prior_graph.ids, dtype=int)
        self.query_ids = np.asarray(query_ids, dtype=int)
        self.pair_prior, self.pair_q = candidates.prior, candidates.query
        first = np.ones(len(self.pair_q), dtype=bool)
        first[1:] = self.pair_q[1:] != self.pair_q[:-1]
        self.q_starts = np.flatnonzero(first)  # first pair per node
        # the candidate priors, ascending, and each pair's index among them
        seen = np.zeros(len(prior_graph), dtype=bool)
        seen[self.pair_prior] = True
        self.pair_p = np.cumsum(seen).take(self.pair_prior) - 1
        self.quads = prior_graph.quadrics[np.flatnonzero(seen)]
        box = np.array([b.as_list() for b in boxes], dtype=float).reshape(-1, 4)
        self.q_means = 0.5 * (box[:, :2] + box[:, 2:])
        # per pair, its query box's centre and half-extents, (4, 1, pairs)
        query_box = np.concatenate([self.q_means, (box[:, 2:] - box[:, :2]) / 2.0], axis=1)
        self.pair_box = np.ascontiguousarray(query_box[self.pair_q].T[:, None, :])

    def _pair_scores(self, rotation, translation) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair similarity (0 where the prior is not visible) and visibility, (n, pairs)."""
        ext, ok = _project_quadrics(self.quads, rotation, translation, self.intrinsics)
        # (x_min, y_min, x_max, y_max) first, clamped to the image (np.clip, unwrapped)
        box = np.minimum(np.maximum(ext.transpose(2, 0, 1), 0.0), self.image_max[:, None, None])
        size = box[2:] - box[:2]
        ok &= (size > 0.0).all(axis=0)
        # each projected box's centre and half-extents, per pair; W2 between
        # the two boxes' Gaussians is the distance between these
        d = np.concatenate([0.5 * (box[:2] + box[2:]), 0.5 * size]).take(self.pair_p, axis=2)
        d -= self.pair_box
        d *= d
        d2 = d[0] + d[1] + d[2] + d[3]
        visible = ok.take(self.pair_p, axis=1)
        return np.where(visible, np.exp(-np.sqrt(d2) / self.C), 0.0), visible

    def _was(self, wn: np.ndarray, visible: np.ndarray) -> np.ndarray:
        """Mean over query nodes with a visible prior of their best pair score; 0 if none.

        A query node with no visible prior has only zero scores, so its best is 0.
        """
        best = np.maximum.reduceat(wn, self.q_starts, axis=1)  # (n, query nodes)
        have = np.logical_or.reduceat(visible, self.q_starts, axis=1)
        return best.sum(axis=1) / np.maximum(have.sum(axis=1), 1)

    def score(
        self, rotation: np.ndarray, translation: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """WAS of each pose, given as rotation matrices (n, 3, 3) and translations (n, 3),
        and the per-pair scores and visibility it is taken from, (n, pairs) each."""
        wn, visible = self._pair_scores(rotation, translation)
        return self._was(wn, visible), wn, visible


def calculate_was(
    pair_scores: np.ndarray, visible: np.ndarray, scorer: _AlignmentScorer
) -> list[tuple[int, int]]:
    """The (prior id, query id) pairs whose scores make up one pose's WAS.

    pair_scores and visible are the pose's row of `_AlignmentScorer.score`,
    (pairs,) each; its WAS is the mean, over query nodes with a visible
    candidate prior, of the best exp(-W2/C) box similarity. Per query node
    the best visible prior is selected, ties to the lower prior index (so
    id); pairs are ordered by query index (so id). Nothing visible selects
    no pairs.
    """
    idx = np.flatnonzero(visible)
    prior, query = scorer.pair_prior[idx], scorer.pair_q[idx]
    order = np.lexsort((prior, -pair_scores[idx], query))  # best first within each query node
    prior, query = prior[order], query[order]
    first = np.ones(query.size, dtype=bool)
    first[1:] = query[1:] != query[:-1]
    return list(zip(scorer.prior_ids[prior[first]].tolist(), scorer.query_ids[query[first]].tolist()))


def estimate_pose(
    query_graph: SemanticGraph,
    prior_graph: SemanticGraph,
    config: MatcherConfig,
    intrinsics: CameraIntrinsics,
) -> LocalizationResult:
    """Estimate the camera pose of a query frame against the prior map.

    Scores all pairs, extracts per-query candidates, then draws the frame's
    whole budget up front: min(n_iter, C(pairs, 3)) distinct triples of
    candidate indices, in seeded random order (`_draw_triples`). The
    frame's compatibility table is then filled at the entries these draws
    read (`_compatibility`). One lazy filter walks the draws in order and
    yields the valid ones, checked against that table; each chunk takes the
    next valid samples from it, so a draw is checked only when a chunk needs
    it, and none past an early exit is. History entries are indices into
    this draw list.

    Valid samples are solved a chunk at a time by one stacked Lambda Twist
    `p3p_solve` call, whose poses stay rotation and translation arrays,
    and scored by one call on all of them. The chunk is then walked in draw
    order with array operations and cut where the early exit fires: the
    result is the one of solving and scoring each valid sample as it is
    drawn. Only the best hypothesis becomes a Pose, and its row of per-pair
    scores and visibility is kept from its chunk: the result's WAS is its
    score in the loop, and `calculate_was` selects the correspondences from
    that row, so no pose is projected twice. Every chunk holds _CHUNK valid
    samples, the last one whatever is left, so each call's arrays stay
    within _CHUNK x 4 poses x pairs.
    """
    if len(query_graph) < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{len(query_graph)} query nodes, need 3",
        )
    table = score_all_pairs(prior_graph, query_graph, use_calp=config.use_calp)
    candidates = extract_candidates(table, config.tau)
    n_pairs = len(candidates)
    if n_pairs < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{n_pairs} candidate pairs, need 3",
        )

    boxes = [node.bbox for node in query_graph.nodes]
    scorer = _AlignmentScorer(candidates, prior_graph, query_graph.ids, boxes, intrinsics, config.C)
    # per candidate pair: the prior's world point and the query's bearing
    pair_world = prior_graph.positions[candidates.prior]
    pair_rays = pixel_to_bearing(scorer.q_means, intrinsics)[candidates.query]

    rng = np.random.default_rng(config.rng_seed)
    triples = _draw_triples(rng, n_pairs, config.n_iter)
    compatible = _compatibility(candidates, prior_graph, query_graph, triples)
    valid = ((i, t) for i, t in enumerate(triples.tolist()) if is_valid_sample(t, compatible))
    exit_was = math.inf if config.early_exit_was is None else config.early_exit_was
    best_w = 0.0
    best_pose: Pose | None = None
    history: list[tuple[int, float]] = []
    n_valid = 0

    # walk the draws until a chunk of valid samples is full or they run out
    while chunk := list(itertools.islice(valid, _CHUNK)):
        draws, picks = zip(*chunk)
        picked = np.array(picks)
        solved = p3p_solve(pair_world[picked], pair_rays[picked])
        scores, pair_scores, visible = scorer.score(solved.rotation_matrix, solved.translation)
        # walk the chunk in draw order, as a loop solving one sample per draw
        # would, and cut it where that loop would have stopped: per sample
        # its best score (-1 without a pose), the running best before and
        # after it
        top = np.full(len(draws), -1.0)
        np.maximum.at(top, solved.sample, scores)
        after = np.maximum.accumulate(np.maximum(top, best_w))
        before = np.concatenate([[best_w], after[:-1]])
        exits = np.flatnonzero(after > exit_was)
        walked = int(exits[0]) + 1 if exits.size else len(draws)
        n_valid += walked
        improved = np.flatnonzero(top[:walked] > before[:walked]).tolist()
        history += [(draws[i], float(top[i])) for i in improved]
        if improved:
            i = improved[-1]
            best_w = float(top[i])
            # the sample's first pose of that score, and its row of pair scores
            k = int(np.argmax((solved.sample == i) & (scores == top[i])))
            best_pose, best_row = solved.pose(k), (pair_scores[k], visible[k])
        if exits.size:
            break

    if n_valid == 0:
        return LocalizationResult(LocalizationStatus.NO_VALID_SAMPLE, history=history)
    if best_pose is None or best_w <= 0.0:
        return LocalizationResult(
            LocalizationStatus.DEGENERATE, history=history, n_valid_samples=n_valid
        )

    correspondences = calculate_was(*best_row, scorer)
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
        was=best_w,
        history=history,
        n_valid_samples=n_valid,
    )
