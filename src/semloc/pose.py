"""Global pose estimation from candidate correspondences.

Repeatedly samples three candidate pairs, checks structural validity,
solves perspective-three-point, and keeps the pose with the best
normalized-Wasserstein alignment between projected landmarks and detected
boxes. Valid samples are solved and scored in chunks that double in size
(see estimate_pose). Deterministic for a fixed seed.
"""

from __future__ import annotations

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
    quadric_from_params,
)
from .graph import SemanticGraph
from .matching import CandidateSet, extract_candidates, score_all_pairs


# valid samples in the first chunk of P3P solves and alignment scores; each
# further chunk doubles, up to _chunk_cap
_CHUNK = 16
# (poses x candidate pairs) elements a chunk's scoring may allocate, at up to
# four poses per sample
_HYPOTHESIS_ELEMS = 1 << 16


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
    n_iter: sampling iterations; early_exit_was stops sooner once the best
        alignment exceeds it (None disables).
    k_edge: neighbors per node when wiring graphs.
    rng_seed: seed of the sampling loop.
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
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.K <= 0 or self.tau <= 0 or self.k_edge <= 0:
            raise ValueError("K, tau, k_edge must be positive")
        if not _finite_real(self.C) or self.C <= 0.0:
            raise ValueError("C must be a finite positive number")
        if self.early_exit_was is not None and not _finite_real(self.early_exit_was):
            raise ValueError("early_exit_was must be a finite number or none")
        if self.n_iter <= 0:
            raise ValueError("n_iter must be positive")
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


def is_valid_sample(
    sample,
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    used_samples,
) -> bool:
    """Structural validity of a 3-pair sample.

    Requires distinct prior ids, distinct query ids, an identical pattern of
    edges and non-edges between the induced prior and query triples, and
    that this (order-insensitive) pair set was not sampled before.
    """
    pairs = list(sample)
    if len(pairs) != 3:
        return False
    prior_ids = [p for p, _ in pairs]
    query_ids = [q for _, q in pairs]
    if len(set(prior_ids)) != 3 or len(set(query_ids)) != 3:
        return False
    if frozenset((p, q) for p, q in pairs) in used_samples:
        return False
    for i in range(3):
        for j in range(i + 1, 3):
            if prior_graph.has_edge(prior_ids[i], prior_ids[j]) != query_graph.has_edge(
                query_ids[i], query_ids[j]
            ):
                return False
    return True


class _AlignmentScorer:
    """Alignment of projected landmarks with detected boxes, for fixed pairs.

    The one implementation of the normalized-Wasserstein box alignment: each
    prior of a (prior, query) pair is projected under a pose to its clamped
    image box, both boxes are embedded as Gaussians, and the pair scores
    exp(-W2/C). A prior is visible when its center is in front of the camera
    and its projected box has finite extents and is a nondegenerate box
    inside the image.
    """

    def __init__(self, pairs, prior_graph, boxes, intrinsics, C):
        """pairs: (prior_id, query_id) tuples; boxes: query_id -> BoundingBox."""
        self.C = C
        self.intrinsics = intrinsics
        self.image_max = np.array([intrinsics.width, intrinsics.height] * 2, dtype=float)
        # grouped by query node, so the per-node reductions of _was are reduceats
        pairs = sorted(pairs, key=lambda pair: pair[1])
        unique_p = sorted({p for p, _ in pairs})
        unique_q = sorted({q for _, q in pairs})
        p_index = {p: i for i, p in enumerate(unique_p)}
        q_index = {q: j for j, q in enumerate(unique_q)}
        self.prior_ids = np.array([p for p, _ in pairs], dtype=int)
        self.query_ids = np.array([q for _, q in pairs], dtype=int)
        self.pair_p = np.array([p_index[p] for p, _ in pairs], dtype=int)
        self.pair_q = np.array([q_index[q] for _, q in pairs], dtype=int)
        self.q_starts = np.flatnonzero(np.diff(self.pair_q, prepend=-1))  # first pair per node
        nodes = [prior_graph.node(p) for p in unique_p]
        self.quads = quadric_from_params(
            np.reshape([node.position for node in nodes], (-1, 3)),
            np.reshape([node.rotation for node in nodes], (-1, 4)),
            np.reshape([node.scale for node in nodes], (-1, 3)),
        )
        q_boxes = [boxes[q] for q in unique_q]
        self.q_means = np.array([box.center for box in q_boxes]).reshape(-1, 2)
        self.q_halves = np.array([[b.width / 2.0, b.height / 2.0] for b in q_boxes]).reshape(-1, 2)

    def _pair_scores(self, poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
        """Per-pair similarity (0 where the prior is not visible) and visibility, (n, pairs)."""
        ext, ok = _project_quadrics(self.quads, poses, self.intrinsics)
        ok &= np.isfinite(ext).all(axis=-1)
        xa, ya, xb, yb = np.moveaxis(np.clip(ext, 0.0, self.image_max), -1, 0)
        ok &= (xb - xa > 0.0) & (yb - ya > 0.0)

        mean_x = 0.5 * (xa + xb)
        mean_y = 0.5 * (ya + yb)
        half_x = 0.5 * (xb - xa)
        half_y = 0.5 * (yb - ya)

        pp = self.pair_p
        pq = self.pair_q
        d2 = (
            (mean_x[:, pp] - self.q_means[pq, 0]) ** 2
            + (mean_y[:, pp] - self.q_means[pq, 1]) ** 2
            + (half_x[:, pp] - self.q_halves[pq, 0]) ** 2
            + (half_y[:, pp] - self.q_halves[pq, 1]) ** 2
        )
        visible = ok[:, pp]
        return np.where(visible, np.exp(-np.sqrt(d2) / self.C), 0.0), visible

    def _was(self, wn: np.ndarray, visible: np.ndarray) -> np.ndarray:
        """Mean over query nodes with a visible prior of their best pair score; 0 if none."""
        best = np.maximum.reduceat(wn, self.q_starts, axis=1)  # (n, query nodes)
        have = np.logical_or.reduceat(visible, self.q_starts, axis=1)
        sums = np.where(have, best, 0.0).sum(axis=1)
        denom = have.sum(axis=1)
        return np.where(denom > 0, sums / np.maximum(denom, 1), 0.0)

    def score(self, poses: list[Pose]) -> np.ndarray:
        """WAS of each pose."""
        return self._was(*self._pair_scores(poses))

    def select(self, pose: Pose) -> tuple[float, list[tuple[int, int]]]:
        """WAS of one pose and the pairs it selects.

        Per query node the best visible prior is selected, ties to the lower
        prior id; pairs are ordered by query id. Nothing visible gives 0 and
        no pairs.
        """
        wn, visible = self._pair_scores([pose])
        was = float(self._was(wn, visible)[0])
        idx = np.flatnonzero(visible[0])
        # best first within each query node: score descending, then prior id
        idx = idx[np.lexsort((self.prior_ids[idx], -wn[0, idx], self.pair_q[idx]))]
        first = np.ones(idx.size, dtype=bool)
        first[1:] = self.pair_q[idx[1:]] != self.pair_q[idx[:-1]]
        return was, [(int(self.prior_ids[i]), int(self.query_ids[i])) for i in idx[first]]


def calculate_was(
    pose: Pose,
    candidates: CandidateSet,
    prior_graph: SemanticGraph,
    query_graph: SemanticGraph,
    intrinsics: CameraIntrinsics,
    C: float,
    scorer: _AlignmentScorer | None = None,
) -> tuple[float, list[tuple[int, int]]]:
    """Alignment score of a pose against the candidate set, and its pairs.

    See `_AlignmentScorer.select`: the score is the mean, over query nodes
    with a visible candidate prior, of the best exp(-W2/C) box similarity.
    scorer, when given, is one already built from these arguments.
    """
    if scorer is None:
        scorer = _scorer(candidates, prior_graph, query_graph, intrinsics, C)
    return scorer.select(pose)


def _scorer(candidates, prior_graph, query_graph, intrinsics, C) -> _AlignmentScorer:
    """The scorer of a candidate set against the query graph's boxes."""
    boxes = {q: query_graph.node(q).bbox for q in candidates.query_ids()}
    return _AlignmentScorer(candidates.pairs, prior_graph, boxes, intrinsics, C)


def _chunk_cap(n_pairs: int) -> int:
    """Most valid samples in one chunk of a frame with n_pairs candidate pairs.

    Up to four poses per sample, each scored against every pair, stay within
    _HYPOTHESIS_ELEMS; the first chunk, of _CHUNK samples, is never cut.
    """
    return max(_CHUNK, _HYPOTHESIS_ELEMS // (4 * n_pairs))


def estimate_pose(
    query_graph: SemanticGraph,
    prior_graph: SemanticGraph,
    config: MatcherConfig,
    intrinsics: CameraIntrinsics,
) -> LocalizationResult:
    """Estimate the camera pose of a query frame against the prior map.

    Scores all pairs, extracts per-query candidates, then runs the seeded
    sampling loop. Every drawn 3-pair set counts as used whether or not it
    passes validity, so the loop never re-evaluates a set; it stops early on
    a high enough alignment or when the triple space is exhausted.

    Valid samples are solved and scored a chunk at a time, then walked in
    draw order and cut where the early exit fires: the result is the one of
    solving and scoring each valid sample as it is drawn. The first chunk
    holds _CHUNK valid samples and each further one twice as many, up to
    _chunk_cap. A stacked P3P or scoring call has a fixed cost far above its
    cost per sample, so a frame that spends its whole budget makes a few
    large calls; small first chunks keep the work wasted past an early exit
    small, since a frame never solves more than the rest of the chunk it
    exits in.
    """
    if len(query_graph) < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{len(query_graph)} query nodes, need 3",
        )
    table = score_all_pairs(prior_graph, query_graph, use_calp=config.use_calp)
    candidates = extract_candidates(table, config.tau)
    pairs = candidates.pairs
    if len(pairs) < 3:
        return LocalizationResult(
            LocalizationStatus.INSUFFICIENT_DETECTIONS,
            message=f"{len(pairs)} candidate pairs, need 3",
        )

    scorer = _scorer(candidates, prior_graph, query_graph, intrinsics, config.C)
    bearings = {
        q: pixel_to_bearing(query_graph.node(q).bbox.center, intrinsics)
        for q in {q for _, q in pairs}
    }
    # per candidate pair: the prior's world point and the query's bearing
    pair_world = np.array([prior_graph.node(p).position for p, _ in pairs])
    pair_rays = np.array([bearings[q] for _, q in pairs])

    rng = np.random.default_rng(config.rng_seed)
    used: set[frozenset] = set()
    n_pairs = len(pairs)
    total_triples = math.comb(n_pairs, 3)
    cap = _chunk_cap(n_pairs)
    size = _CHUNK
    best_w = 0.0
    best_pose: Pose | None = None
    history: list[tuple[int, float]] = []
    n_valid = 0

    it = 0
    stop = False
    while not stop:
        # draw until a chunk of valid samples is full or the draws run out
        draws: list[int] = []
        picks: list[np.ndarray] = []
        while len(draws) < size and it < config.n_iter and len(used) < total_triples:
            idx = rng.choice(n_pairs, size=3, replace=False)
            sample = [pairs[i] for i in idx]
            if is_valid_sample(sample, prior_graph, query_graph, used):
                draws.append(it)
                picks.append(idx)
            used.add(frozenset(sample))
            it += 1
        if not draws:
            break
        picked = np.array(picks)
        solved = p3p_solve(pair_world[picked], pair_rays[picked])
        flat = [pose for poses in solved for pose in poses]
        scores = scorer.score(flat) if flat else np.zeros(0)
        # walk the chunk in draw order, as a loop solving one sample per draw
        # would, and cut it where that loop would have stopped
        start = 0
        for draw, poses in zip(draws, solved):
            n_valid += 1
            if not poses:
                continue
            sample_scores = scores[start : start + len(poses)]
            start += len(poses)
            k = int(np.argmax(sample_scores))
            if sample_scores[k] > best_w:
                best_w = float(sample_scores[k])
                best_pose = poses[k]
                history.append((draw, best_w))
            if config.early_exit_was is not None and best_w > config.early_exit_was:
                stop = True
                break
        size = min(2 * size, cap)

    if n_valid == 0:
        return LocalizationResult(LocalizationStatus.NO_VALID_SAMPLE, history=history)
    if best_pose is None or best_w <= 0.0:
        return LocalizationResult(
            LocalizationStatus.DEGENERATE, history=history, n_valid_samples=n_valid
        )

    was, correspondences = calculate_was(
        best_pose, candidates, prior_graph, query_graph, intrinsics, config.C, scorer=scorer
    )
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
        was=was,
        history=history,
        n_valid_samples=n_valid,
    )
