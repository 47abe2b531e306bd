"""Evaluation metrics: association P/R/F1, MOTA, translation error, success
rate, and confidence entropy."""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, Pose
from .graph import SemanticGraph
from .matching import CandidateSet
from .pose import MatcherConfig, _AlignmentScorer, calculate_was

logger = logging.getLogger(__name__)


@dataclass
class FrameCounts:
    """One frame's counts; `n_gt` is its ground-truth detections, `ids` its identity switches."""

    frame_id: int
    tp: int = 0
    fp: int = 0
    fn: int = 0
    n_gt: int = 0
    ids: int = 0


@dataclass
class AssociationCounts:
    """Aggregated correspondence counts with the usual P/R/F1 accessors.

    An incorrect prediction is charged as both a false positive (the pair is
    wrong) and a false negative (the detection's true landmark went
    unmatched). With no predictions at all, precision is defined as 0.
    """

    per_frame: list[FrameCounts] = field(default_factory=list)

    @property
    def tp(self) -> int:
        return sum(f.tp for f in self.per_frame)

    @property
    def fp(self) -> int:
        return sum(f.fp for f in self.per_frame)

    @property
    def fn(self) -> int:
        return sum(f.fn for f in self.per_frame)

    @property
    def n_gt(self) -> int:
        return sum(f.n_gt for f in self.per_frame)

    @property
    def ids(self) -> int:
        return sum(f.ids for f in self.per_frame)

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0


def evaluate_associations(
    predicted: Mapping[int, Sequence[tuple[int, int]] | None],
    gt_associations: Mapping[int, Mapping[int, int]],
) -> AssociationCounts:
    """Score predicted (prior_id, detection_index) pairs per frame, in frame order.

    A prediction is correct when its prior id equals the detection's true
    landmark id. An identity switch is charged at frame t when a ground-truth
    landmark that was assigned prior A at its previous matched frame is
    assigned prior B != A at t; missed frames in between do not reset the
    track. Frames missing ground truth are skipped with a warning.
    """
    counts = AssociationCounts()
    last_assigned: dict[int, int] = {}
    for frame_id in sorted(predicted):
        if frame_id not in gt_associations:
            logger.warning("frame %s missing ground-truth associations, skipped", frame_id)
            continue
        gt = gt_associations[frame_id]
        fc = FrameCounts(frame_id, n_gt=len(gt))
        matched: set[int] = set()
        assigned: dict[int, int] = {}
        for prior_id, det_idx in predicted[frame_id] or []:
            if det_idx in gt:
                assigned[gt[det_idx]] = prior_id
                if gt[det_idx] == prior_id:
                    fc.tp += 1
                    matched.add(det_idx)
                    continue
            fc.fp += 1
        fc.fn = sum(1 for det_idx in gt if det_idx not in matched)
        fc.ids = sum(
            last_assigned.get(lm_id, prior_id) != prior_id for lm_id, prior_id in assigned.items()
        )
        last_assigned.update(assigned)
        counts.per_frame.append(fc)
    return counts


def mota(counts: AssociationCounts) -> float:
    """1 - (FN + FP + IDS) / GT; undefined (and raising) for zero GT."""
    if counts.n_gt == 0:
        raise ValueError("MOTA undefined with zero ground-truth detections")
    return 1.0 - (counts.fn + counts.fp + counts.ids) / counts.n_gt


def rematch_predictions(
    gt_poses: Mapping[int, Pose],
    prior_graph: SemanticGraph,
    intrinsics: CameraIntrinsics,
    detection_boxes: Mapping[int, Mapping[int, BoundingBox]],
) -> dict[int, list[tuple[int, int]]]:
    """Re-associate detections per frame by the best normalized-Wasserstein
    score between each detection box and every landmark projected under the
    ground-truth pose (ties to the lower landmark id; detections with no
    visible landmark stay unmatched). Used by the rematch MOTA mode."""
    out: dict[int, list[tuple[int, int]]] = {}
    n_priors = len(prior_graph)
    for frame_id in sorted(detection_boxes):
        if frame_id not in gt_poses:
            logger.warning("frame %s missing ground-truth pose, skipped", frame_id)
            continue
        det_ids = sorted(detection_boxes[frame_id])
        boxes = [detection_boxes[frame_id][d] for d in det_ids]
        # every prior against every detection, grouped by detection
        pairs = CandidateSet(
            np.tile(np.arange(n_priors), len(det_ids)), np.repeat(np.arange(len(det_ids)), n_priors)
        )
        scorer = _AlignmentScorer(pairs, prior_graph, det_ids, boxes, intrinsics, MatcherConfig.C)
        pose = gt_poses[frame_id]
        _, pair_scores, visible = scorer.score(pose.rotation_matrix()[None], pose.translation[None])
        out[frame_id] = calculate_was(pair_scores[0], visible[0], scorer)
    return out


def translation_error(estimated: Pose, ground_truth: Pose) -> float:
    """Euclidean distance between the two camera centers, meters."""
    return float(np.linalg.norm(estimated.camera_center() - ground_truth.camera_center()))


def mean_translation_error(errors: Sequence[tuple[int, float | None]]) -> float | None:
    vals = [te for _, te in errors if te is not None]
    if not vals:
        return None
    return float(np.mean(vals))


def success_rate(
    errors: Sequence[tuple[int, float | None]],
    threshold: float,
    mode: str = "succ",
) -> float:
    """Fraction (percent) of frames whose translation error is at most threshold.

    mode 'succ' divides by frames that produced a pose; mode 'all' divides by
    every frame, counting failures (None) as misses. Empty input raises.
    """
    if not errors:
        raise ValueError("no frames to evaluate")
    if mode not in ("succ", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    within = [te <= threshold for _, te in errors if te is not None]
    denom = len(errors) if mode == "all" else len(within)
    return 100.0 * sum(within) / denom if denom else 0.0


def shannon_entropy(probs: Iterable[float]) -> float:
    """Entropy in nats of a probability vector, such as the confidences of
    one `normalize_confidences` list; a negative entry raises."""
    acc = 0.0
    for p in probs:
        if p < 0.0:
            raise ValueError("negative probability")
        if p > 0.0:
            acc -= p * math.log(p)
    return acc
