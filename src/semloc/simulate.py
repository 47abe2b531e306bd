"""Synthetic scenes, trajectories, and frame rendering.

Generates ellipsoid landmark scenes with a label vocabulary organized into
confusion clusters, camera trajectories that look at the scene centroid, and
per-frame detections with controllable box jitter, depth noise, dropout, and
a temperature-shaped multi-label confidence model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Pose,
    _project_quadrics,
    quadric_from_params,
    quat_normalize,
    quat_to_rotmat,
)
from .graph import DetectionRecord, backproject_pixel

logger = logging.getLogger(__name__)

MIN_BBOX_AREA = 25.0  # px^2, smaller projections are treated as undetected
_CONF_NOISE = 0.3  # uniform perturbation on the confidence logits


@dataclass
class SceneSpec:
    """Scene recipe: how many landmarks, where, and what they are called."""

    n_landmarks: int
    bounds: tuple[tuple[float, float, float], tuple[float, float, float]]
    vocabulary: list[str]
    clusters: list[list[str]] = field(default_factory=list)
    confusion_rate: float = 0.0
    scale_range: tuple[float, float] = (0.05, 0.15)
    min_separation: float = 0.3
    unique_labels: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_landmarks <= 0:
            raise ValueError("n_landmarks must be positive")
        if not (0.0 <= self.confusion_rate <= 1.0):
            raise ValueError("confusion_rate outside [0, 1]")
        # 4 (|lo|^2 + |hi|^2) bounds the squared distance between two workspace points
        if not math.isfinite(4.0 * sum(float(v) * float(v) for corner in self.bounds for v in corner)):
            raise ValueError("bounds are not finite or so far out that workspace distances overflow")
        if not all(math.isfinite(float(s) * float(s)) for s in self.scale_range):
            raise ValueError("scale_range and its square must be finite")
        if not math.isfinite(self.min_separation):
            raise ValueError("min_separation must be finite")
        if self.scale_range[0] <= 0.0 or self.scale_range[1] < self.scale_range[0]:
            raise ValueError("bad scale_range")
        if not self.vocabulary:
            raise ValueError("empty vocabulary")
        seen: set[str] = set()
        for cluster in self.clusters:
            for label in cluster:
                if label not in self.vocabulary:
                    raise ValueError(f"cluster label {label!r} not in vocabulary")
                if label in seen:
                    raise ValueError(f"label {label!r} in more than one cluster")
                seen.add(label)
        if self.unique_labels and len(self.vocabulary) < self.n_landmarks:
            raise ValueError("unique_labels needs vocabulary >= n_landmarks")


@dataclass
class NoiseSpec:
    """Observation noise; zeros everywhere reproduce geometry exactly."""

    bbox_jitter: float = 0.0  # px, std of corner noise
    depth_sigma: float = 0.0  # m
    dropout: float = 0.0
    temperature: float = 0.0  # confidence spread; 0 collapses to one-hot

    def __post_init__(self):
        if not all(
            math.isfinite(v) for v in (self.bbox_jitter, self.depth_sigma, self.dropout, self.temperature)
        ):
            raise ValueError("noise parameters must be finite")
        if self.bbox_jitter < 0.0 or self.depth_sigma < 0.0 or self.temperature < 0.0:
            raise ValueError("noise sigmas must be nonnegative")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout outside [0, 1)")


@dataclass
class Landmark:
    id: int
    position: np.ndarray
    rotation: np.ndarray
    scale: np.ndarray
    label: str


@dataclass
class Scene:
    spec: SceneSpec
    landmarks: list[Landmark]

    def __post_init__(self):
        self._cluster_of: dict[str, list[str]] = {}
        for cluster in self.spec.clusters:
            for label in cluster:
                self._cluster_of[label] = list(cluster)

    def cluster_members(self, label: str) -> list[str]:
        return self._cluster_of.get(label, [label])

    @cached_property
    def quadrics(self) -> np.ndarray:
        """Dual quadrics (landmarks, 4, 4) of the landmarks, in list order, built on first use."""
        return quadric_from_params(
            [lm.position for lm in self.landmarks],
            [lm.rotation for lm in self.landmarks],
            [lm.scale for lm in self.landmarks],
        )


def generate_scene(spec: SceneSpec) -> Scene:
    """Rejection-sample landmark positions and assign labels, seeded."""
    rng = np.random.default_rng(spec.seed)
    lo = np.asarray(spec.bounds[0], dtype=float)
    hi = np.asarray(spec.bounds[1], dtype=float)
    if np.any(hi <= lo):
        raise ValueError("bad workspace bounds")
    positions: list[np.ndarray] = []
    attempts = 0
    max_attempts = 500 * spec.n_landmarks
    while len(positions) < spec.n_landmarks:
        if attempts >= max_attempts:
            raise ValueError("could not place landmarks with requested separation")
        attempts += 1
        cand = rng.uniform(lo, hi)
        if all(np.linalg.norm(cand - p) >= spec.min_separation for p in positions):
            positions.append(cand)
    if spec.unique_labels:
        labels = [spec.vocabulary[i] for i in rng.permutation(len(spec.vocabulary))[: spec.n_landmarks]]
    else:
        labels = [spec.vocabulary[int(i)] for i in rng.integers(0, len(spec.vocabulary), spec.n_landmarks)]
    landmarks = []
    for i in range(spec.n_landmarks):
        quat = quat_normalize(rng.normal(size=4))
        scale = rng.uniform(spec.scale_range[0], spec.scale_range[1], size=3)
        landmarks.append(Landmark(i, positions[i], quat, scale, labels[i]))
    return Scene(spec, landmarks)


def look_at_pose(camera_pos, target, up=(0.0, 0.0, 1.0)) -> Pose:
    """World-to-camera pose with +z toward target and image y pointing down."""
    camera_pos = np.asarray(camera_pos, dtype=float)
    target = np.asarray(target, dtype=float)
    # 4 (|camera|^2 + |target|^2) bounds the squared distance between them, as in PriorObjectNode
    if not math.isfinite(4.0 * sum(v * v for v in camera_pos.tolist() + target.tolist())):
        raise ValueError("camera or target so far out that their distance overflows")
    z = target - camera_pos
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise ValueError("camera at target")
    z = z / nz
    up = np.asarray(up, dtype=float)
    x = np.cross(z, up)
    if np.linalg.norm(x) < 1e-9:  # looking straight along up, pick another hint
        x = np.cross(z, np.array([0.0, 1.0, 0.0]))
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r_wc = np.column_stack([x, y, z])
    r = r_wc.T
    return Pose.from_rt(r, -r @ camera_pos)


def generate_trajectory(
    kind: str,
    n_frames: int,
    bounds,
    seed: int = 0,
    radius: float | None = None,
    height: float | None = None,
) -> list[Pose]:
    """Seeded camera trajectory looking at the workspace centroid.

    kinds: 'orbit' (evenly spaced circle, seeded phase), 'line' (straight
    segment between two seeded points on the orbit circle), 'random-walk'
    (seeded steps clipped to a shell around the workspace). Bounds, a radius
    or a height that is not finite, or so large that camera-to-target
    distances would overflow, raise.
    """
    if n_frames <= 0:
        raise ValueError("n_frames must be positive")
    # squares 64 v^2 that stay finite keep look_at_pose's distance bound finite for every camera placed here
    if not math.isfinite(64.0 * sum(float(v) * float(v) for corner in bounds for v in corner)):
        raise ValueError("bounds are not finite or so far out that camera distances overflow")
    for name, value in (("radius", radius), ("height", height)):
        if value is not None and not math.isfinite(64.0 * float(value) * float(value)):
            raise ValueError(f"{name} {value} is not finite or so large that camera distances overflow")
    rng = np.random.default_rng(seed)
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    center = 0.5 * (lo + hi)
    half_xy = 0.5 * float(np.linalg.norm((hi - lo)[:2]))
    r = radius if radius is not None else 1.3 * half_xy + 0.5
    h = height if height is not None else float(hi[2]) + 0.4

    def on_circle(angle: float) -> np.ndarray:
        return np.array([center[0] + r * math.cos(angle), center[1] + r * math.sin(angle), h])

    poses: list[Pose] = []
    if kind == "orbit":
        phase = rng.uniform(0.0, 2.0 * math.pi)
        for k in range(n_frames):
            poses.append(look_at_pose(on_circle(phase + 2.0 * math.pi * k / n_frames), center))
    elif kind == "line":
        a0 = rng.uniform(0.0, 2.0 * math.pi)
        a1 = a0 + rng.uniform(0.5 * math.pi, 1.5 * math.pi)
        p0, p1 = on_circle(a0), on_circle(a1)
        for k in range(n_frames):
            t = k / max(n_frames - 1, 1)
            poses.append(look_at_pose(p0 + t * (p1 - p0), center))
    elif kind == "random-walk":
        pos = on_circle(rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(n_frames):
            poses.append(look_at_pose(pos, center))
            step = rng.normal(0.0, 0.15, size=3)
            pos = pos + step
            radial = pos[:2] - center[:2]
            dist = np.linalg.norm(radial)
            if dist > 0.0:  # keep the walk on a loose shell so the scene stays in view
                dist_clipped = float(np.clip(dist, 0.6 * r, 1.3 * r))
                pos[:2] = center[:2] + radial / dist * dist_clipped
            pos[2] = float(np.clip(pos[2], h - 0.5, h + 0.5))
    else:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    return poses


def _confidence_vector(scene, label, noise, confusion_rate, rng) -> list[tuple[str, float]]:
    members = scene.cluster_members(label)
    top = label
    if len(members) > 1 and confusion_rate > 0.0 and rng.random() < confusion_rate:
        others = [m for m in members if m != label]
        top = others[int(rng.integers(0, len(others)))]
    gains = np.array([1.0 if m == top else 0.0 for m in members])
    gains = gains + rng.uniform(0.0, _CONF_NOISE, size=len(members))
    t = noise.temperature
    if t <= 0.0:
        scores = np.zeros(len(members))
        scores[int(np.argmax(gains))] = 1.0
    else:
        z = (gains - gains.max()) / t
        e = np.exp(z)
        scores = e / e.sum()
    order = np.argsort(-scores, kind="stable")
    return [(members[int(i)], float(scores[int(i)])) for i in order]


def render_frame(
    scene: Scene,
    pose: Pose,
    intrinsics: CameraIntrinsics,
    noise: NoiseSpec,
    rng: np.random.Generator,
    center_boxes: bool = True,
) -> tuple[list[DetectionRecord], dict[int, int]]:
    """Render one frame: detections plus detection-index-to-landmark map.

    A landmark is detected when its center projects in front of the camera,
    its noise-free box lies entirely inside the image, and the box covers at
    least MIN_BBOX_AREA. Border-truncated objects are treated as undetected:
    a clipped box would shift the apparent center and silently bias every
    center-derived quantity (bearing, depth sample, back-projection).
    center_boxes re-centers each box on the projected landmark center
    (conic-derived width and height are kept), which makes the noise-free
    box center, depth, and back-projected position exactly consistent with
    the landmark geometry; with center_boxes=False boxes are the exact conic
    projections.
    """
    detections: list[DetectionRecord] = []
    associations: dict[int, int] = {}
    extents, visible = _project_quadrics(
        scene.quadrics, quat_to_rotmat(pose.rotation[None]), pose.translation[None], intrinsics
    )
    cams = pose.transform([lm.position for lm in scene.landmarks])
    for lm, ext, ok, cam in zip(scene.landmarks, extents[0].tolist(), visible[0].tolist(), cams):
        if not ok or cam[2] <= 0.0:
            continue
        u = intrinsics.fx * cam[0] / cam[2] + intrinsics.cx
        v = intrinsics.fy * cam[1] / cam[2] + intrinsics.cy
        if not (0.0 <= u < intrinsics.width and 0.0 <= v < intrinsics.height):
            continue
        box = BoundingBox(*ext)
        if center_boxes:
            hw, hh = box.width / 2.0, box.height / 2.0
            box = BoundingBox(u - hw, v - hh, u + hw, v + hh)
        if box.area < MIN_BBOX_AREA:
            continue
        if (
            box.x_min < 0.0
            or box.y_min < 0.0
            or box.x_max > intrinsics.width
            or box.y_max > intrinsics.height
        ):
            continue
        if noise.dropout > 0.0 and rng.random() < noise.dropout:
            continue
        coords = np.array(box.as_list())
        if noise.bbox_jitter > 0.0:
            coords = coords + rng.normal(0.0, noise.bbox_jitter, size=4)
        x0, x1 = sorted((coords[0], coords[2]))
        y0, y1 = sorted((coords[1], coords[3]))
        x0 = float(np.clip(x0, 0.0, intrinsics.width))
        x1 = float(np.clip(x1, 0.0, intrinsics.width))
        y0 = float(np.clip(y0, 0.0, intrinsics.height))
        y1 = float(np.clip(y1, 0.0, intrinsics.height))
        if x1 - x0 <= 1e-6 or y1 - y0 <= 1e-6:
            continue
        box = BoundingBox(x0, y0, x1, y1)
        depth = cam[2]
        if noise.depth_sigma > 0.0:
            depth = depth + rng.normal(0.0, noise.depth_sigma)
        if depth <= 0.0:
            continue
        position = backproject_pixel(box.center, float(depth), intrinsics)
        labels = _confidence_vector(scene, lm.label, noise, scene.spec.confusion_rate, rng)
        associations[len(detections)] = lm.id
        detections.append(DetectionRecord(box, labels, position))
    return detections, associations


def render_sequence(
    scene: Scene,
    poses: list[Pose],
    intrinsics: CameraIntrinsics,
    noise: NoiseSpec,
    seed: int = 0,
    center_boxes: bool = True,
) -> list[tuple[list[DetectionRecord], dict[int, int]]]:
    """Render a pose list with one derived RNG stream per frame."""
    children = np.random.SeedSequence(seed).spawn(len(poses))
    return [
        render_frame(scene, pose, intrinsics, noise, np.random.default_rng(child), center_boxes)
        for pose, child in zip(poses, children)
    ]
