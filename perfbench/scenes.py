"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed and size, built with the
package's own simulator. The program under test only ever sees the
generated detections, maps and intrinsics.

Every workload keeps one landmark layout and map (LAYOUT_SEED) and draws
its query frames from the workload seed: the in-process workloads their
query trajectory and sensor noise, the command line workload a subset of a
longer simulated query orbit. The
layout sets much of a frame's work (the largest neighbour degree pads the
context-propagation tensor; graph structure sets the valid-sample ratio),
so a layout per seed would move frame time by a fifth from seed to seed
and hide the changes the benchmark is there to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semloc import (
    CameraIntrinsics,
    MatcherConfig,
    NoiseSpec,
    Pose,
    SceneSpec,
    generate_scene,
    generate_trajectory,
    render_sequence,
)
from semloc.cli import _accumulate_map, _seed_children
from semloc.dataio import FrameRecord
from semloc.graph import PriorObjectNode

INTRINSICS = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
LAYOUT_SEED = 0

# label clusters of the ambiguity-stress scene (acceptance criterion 5)
STRESS_VOCAB = [
    "chair", "table", "sofa", "lamp", "plant", "monitor",
    "shelf", "bed", "door", "sink", "fridge", "tv",
]
STRESS_CLUSTERS = [
    ["chair", "sofa", "bed"],
    ["table", "shelf", "door"],
    ["lamp", "monitor", "tv"],
    ["plant", "sink", "fridge"],
]


@dataclass
class InProcessInputs:
    """Map-side nodes and query frames for one in-process workload."""

    nodes: list[PriorObjectNode]
    keyframes: list[list[int]]
    frames: list[FrameRecord]
    gt_poses: dict[int, Pose]
    gt_associations: dict[int, dict[int, int]]
    config: MatcherConfig


def _landmark_dicts(scene) -> list[dict]:
    return [
        {"id": lm.id, "position": lm.position, "rotation": lm.rotation, "scale": lm.scale}
        for lm in scene.landmarks
    ]


def _inputs(scene, kf_frames, q_poses, q_frames, n_dets, n_frames) -> InProcessInputs:
    """Accumulate the map; keep n_frames query frames and their first n_dets detections.

    The frames are spread evenly over the query frames that have n_dets
    detections, so the seed sets the orbit's phase and noise, not which part
    of the room the frames see.
    """
    config = MatcherConfig()
    kf_records = [FrameRecord(i, 0.1 * i, dets) for i, (dets, _) in enumerate(kf_frames)]
    kf_assoc = {i: assoc for i, (_, assoc) in enumerate(kf_frames)}
    nodes, keyframes = _accumulate_map(_landmark_dicts(scene), kf_records, kf_assoc, config.K)
    if len(nodes) != len(scene.landmarks):
        raise RuntimeError(f"keyframe pass mapped {len(nodes)} of {len(scene.landmarks)} landmarks")
    usable = [i for i, (dets, _) in enumerate(q_frames) if len(dets) >= n_dets]
    if len(usable) < n_frames:
        raise RuntimeError(f"only {len(usable)} query frames have {n_dets} detections, need {n_frames}")
    # evenly spaced over the whole orbit, so every seed's frames see the whole room
    frames, gt_poses, gt_assoc = [], {}, {}
    for k in range(n_frames):
        i = usable[k * len(usable) // n_frames]
        dets, assoc = q_frames[i]
        frames.append(FrameRecord(i, 1000.0 + 0.1 * i, dets[:n_dets]))
        gt_poses[i] = q_poses[i]
        gt_assoc[i] = {d: lm for d, lm in assoc.items() if d < n_dets}
    return InProcessInputs(nodes, keyframes, frames, gt_poses, gt_assoc, config)


def _streams(seed: int):
    """Layout, keyframe and query streams, split as the acceptance tests split them."""
    s1, s2, s3, _, _ = _seed_children(LAYOUT_SEED, 5)
    _, _, _, s4, s5 = _seed_children(seed, 5)
    return s1, s2, s3, s4, s5


def crit8_sampling(seed: int, n_frames: int) -> InProcessInputs:
    """The acceptance criterion-8 latency scene and map, queried from a seeded orbit.

    50 uniquely labelled landmarks mapped by two keyframe orbits; query
    frames keep their first 10 detections under 1 px box jitter, 3 cm depth
    noise and temperature 0.3.
    """
    spec = SceneSpec(
        n_landmarks=50,
        bounds=((-3.0, -3.0, 0.0), (3.0, 3.0, 2.0)),
        vocabulary=[f"obj{i:02d}" for i in range(50)],
        unique_labels=True,
        min_separation=0.25,
        seed=LAYOUT_SEED,
    )
    scene = generate_scene(spec)
    s1, s2, s3, s4, s5 = _streams(seed)
    kf_poses = generate_trajectory(
        "orbit", 40, spec.bounds, seed=s1, radius=2.0, height=1.0
    ) + generate_trajectory("orbit", 40, spec.bounds, seed=s2, radius=2.6, height=1.8)
    q_poses = generate_trajectory("orbit", 2 * n_frames, spec.bounds, seed=s4, radius=2.0, height=1.4)
    kf_frames = render_sequence(scene, kf_poses, INTRINSICS, NoiseSpec(), seed=s3)
    noise = NoiseSpec(bbox_jitter=1.0, depth_sigma=0.03, temperature=0.3)
    q_frames = render_sequence(scene, q_poses, INTRINSICS, noise, seed=s5)
    return _inputs(scene, kf_frames, q_poses, q_frames, 10, n_frames)


WIDE_DETECTIONS = 64


def wide_ambiguous(seed: int, n_frames: int) -> InProcessInputs:
    """A 12 x 12 m room of 200 landmarks drawn from 12 confusable labels.

    Labels come from the criterion-5 clusters with confusion rate 0.3 and
    the criterion-5 sensor noise. Three keyframe orbits (near, middle, far)
    map every landmark; query frames from an inner orbit keep their first
    WIDE_DETECTIONS detections, so each frame scores the same number of
    (prior, query) pairs.
    """
    spec = SceneSpec(
        n_landmarks=200,
        bounds=((-6.0, -6.0, 0.0), (6.0, 6.0, 2.5)),
        vocabulary=STRESS_VOCAB,
        clusters=STRESS_CLUSTERS,
        confusion_rate=0.3,
        scale_range=(0.1, 0.3),
        min_separation=0.4,
        seed=LAYOUT_SEED,
    )
    scene = generate_scene(spec)
    s1, s2, s3, s4, s5 = _streams(seed)
    kf_poses = []
    for ring, (radius, height) in enumerate(((2.5, 1.2), (5.0, 1.8), (8.0, 2.4))):
        kf_poses += generate_trajectory(
            "orbit", 40, spec.bounds, seed=s1 + ring, radius=radius, height=height
        )
    q_poses = generate_trajectory("orbit", 4 * n_frames, spec.bounds, seed=s4, radius=4.0, height=1.4)
    kf_frames = render_sequence(scene, kf_poses, INTRINSICS, NoiseSpec(), seed=s3)
    noise = NoiseSpec(bbox_jitter=2.0, depth_sigma=0.05, dropout=0.1, temperature=0.5)
    q_frames = render_sequence(scene, q_poses, INTRINSICS, noise, seed=s5)
    return _inputs(scene, kf_frames, q_poses, q_frames, WIDE_DETECTIONS, n_frames)


def cli_simulate_args(n_frames: int, out_dir: str) -> list[str]:
    """`semloc simulate` arguments for the noise-free criterion-4 scene at LAYOUT_SEED."""
    return [
        "simulate", "--output", out_dir,
        "--n-landmarks", "30",
        "--vocabulary", ",".join(f"obj{i:02d}" for i in range(30)),
        "--unique-labels",
        "--n-keyframes", "60",
        "--n-frames", str(n_frames),
        "--seed", str(LAYOUT_SEED),
    ]


def keep_query_frames(path: Path, seed: int, n_frames: int):
    """Rewrite a detection log with n_frames of its frames, chosen by the seed.

    The log is cut into n_frames runs of consecutive frames and the seed
    picks one frame from each run (stratified sampling). Neighbouring frames
    of the orbit see much the same landmarks, so every seed gets a like mix
    of easy and hard frames, and the latency tail does not hang on which
    frames a seed happened to draw.
    """
    lines = path.read_text().splitlines(keepends=True)
    rng = np.random.default_rng(seed)
    keep = [int(rng.choice(block)) for block in np.array_split(np.arange(len(lines)), n_frames)]
    path.write_text("".join(lines[i] for i in keep))
