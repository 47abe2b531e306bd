"""Command line pipeline: simulate, build-map, localize, evaluate.

Exit codes: 0 on success, 1 on bad input (missing files, malformed records,
bad flags), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio
from .dataio import FrameRecord, FrameResult, InputError
from .geometry import CameraIntrinsics, Pose
from .graph import (
    SemanticGraph,
    accumulate_label_frequencies,
    build_query_graph,
    prior_graph_from_nodes,
    top_k_labels,
    PriorObjectNode,
)
from .metrics import (
    evaluate_associations,
    mean_translation_error,
    mota,
    rematch_predictions,
    shannon_entropy,
    success_rate,
    translation_error,
)
from .pose import MatcherConfig, estimate_pose
from .simulate import NoiseSpec, SceneSpec, generate_scene, generate_trajectory, render_sequence

logger = logging.getLogger(__name__)

_SR_THRESHOLDS = (0.5, 1.0, 2.0)
_ALIGN_TOL = 0.01  # s, timestamp matching window between results and ground truth


class _Parser(argparse.ArgumentParser):
    # usage mistakes are input errors (exit 1), not internal ones
    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# simulate

_SIM_DEFAULTS: dict = {
    "n_landmarks": 30,
    "n_keyframes": 60,
    "n_frames": 100,
    "trajectory": "orbit",
    "vocabulary": "chair,table,sofa,lamp,plant,monitor,shelf,bed,door,sink,fridge,tv",
    "clusters": "",
    "confusion_rate": 0.0,
    "bbox_jitter": 0.0,
    "depth_sigma": 0.0,
    "dropout": 0.0,
    "temperature": 0.0,
    "unique_labels": False,
    "scale_min": 0.05,
    "scale_max": 0.15,
    "min_separation": 0.3,
    "bounds": "-2,-2,0;2,2,1.5",
    "radius": None,
    "traj_height": None,
    "center_boxes": True,
    "fx": 525.0,
    "fy": 525.0,
    "cx": 319.5,
    "cy": 239.5,
    "image_width": 640,
    "image_height": 480,
    "seed": 0,
}


def _parse_clusters(text: str) -> list[list[str]]:
    if not text.strip():
        return []
    return [[label.strip() for label in group.split(",") if label.strip()] for group in text.split(";")]


def _seed_children(seed: int, n: int) -> list[int]:
    root = np.random.SeedSequence(seed)
    return [int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(n)]


def _cmd_simulate(args) -> int:
    file_values = dataio.load_config_file(args.config) if args.config else {}
    cli_values = {
        key: getattr(args, key)
        for key in _SIM_DEFAULTS
        if hasattr(args, key)
    }
    values = dataio.resolve_values(_SIM_DEFAULTS, file_values, cli_values)

    vocabulary = [v.strip() for v in str(values["vocabulary"]).split(",") if v.strip()]
    # every cast and constructor that can reject a flag or config value
    source = f"flags and {args.config}" if args.config else "flags"

    def number(key: str) -> float:
        with dataio._malformed(f"bad simulate setting {key} ({source})"):
            return dataio._float(values[key])

    with dataio._malformed(f"bad simulate settings ({source})"):
        bounds = tuple(tuple(map(float, c.split(","))) for c in str(values["bounds"]).split(";"))
        if [len(corner) for corner in bounds] != [3, 3]:
            raise ValueError(f"bounds {values['bounds']!r} need two corners of 3 coordinates")
        for key in ("unique_labels", "center_boxes"):
            if not isinstance(values[key], bool):  # e.g. a config `none`
                raise ValueError(f"{key} must be true or false")
        seed = dataio._int(values["seed"])
        _, s_kf_traj, s_kf_render, s_q_traj, s_q_render = _seed_children(seed, 5)
        spec = SceneSpec(
            n_landmarks=dataio._int(values["n_landmarks"]),
            bounds=bounds,
            vocabulary=vocabulary,
            clusters=_parse_clusters(str(values["clusters"])),
            confusion_rate=number("confusion_rate"),
            scale_range=(number("scale_min"), number("scale_max")),
            min_separation=number("min_separation"),
            unique_labels=values["unique_labels"],
            seed=seed,
        )
        noise = NoiseSpec(
            bbox_jitter=number("bbox_jitter"),
            depth_sigma=number("depth_sigma"),
            dropout=number("dropout"),
            temperature=number("temperature"),
        )
        intrinsics = CameraIntrinsics(
            fx=number("fx"),
            fy=number("fy"),
            cx=number("cx"),
            cy=number("cy"),
            width=dataio._int(values["image_width"]),
            height=dataio._int(values["image_height"]),
        )
        radius = None if values["radius"] is None else number("radius")
        height = None if values["traj_height"] is None else number("traj_height")
        scene = generate_scene(spec)
        kf_poses = generate_trajectory(
            "orbit", dataio._int(values["n_keyframes"]), bounds, seed=s_kf_traj, radius=radius, height=height
        )
        q_poses = generate_trajectory(
            str(values["trajectory"]),
            dataio._int(values["n_frames"]),
            bounds,
            seed=s_q_traj,
            radius=radius,
            height=height,
        )
    # per pass: what it holds, its log, associations and trajectory files, first timestamp, poses, render seed
    passes = (
        ("keyframes", "keyframes.jsonl", "keyframe_associations.jsonl", "keyframe_trajectory.txt", 0.0,
         kf_poses, s_kf_render),
        ("query frames", "query.jsonl", "gt_associations.jsonl", "gt_trajectory.txt", 1000.0, q_poses, s_q_render),
    )
    rendered = [
        render_sequence(scene, poses, intrinsics, noise, seed=s, center_boxes=values["center_boxes"])
        for *_, poses, s in passes
    ]

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.save_intrinsics(out_dir / "intrinsics.json", intrinsics)
    dataio.save_scene(out_dir / "scene.json", scene)
    summary = []
    for (name, log, assoc, traj, t0, poses, _), frames in zip(passes, rendered):
        dataio.save_detection_log(
            out_dir / log, [FrameRecord(i, t0 + 0.1 * i, dets) for i, (dets, _) in enumerate(frames)]
        )
        dataio.save_associations(out_dir / assoc, {i: a for i, (_, a) in enumerate(frames)})
        dataio.save_trajectory(out_dir / traj, [(t0 + 0.1 * i, p) for i, p in enumerate(poses)])
        summary.append(f"{len(frames)} {name} ({sum(len(dets) for dets, _ in frames)} detections)")
    dataio.save_manifest(
        out_dir / "manifest.json",
        command="simulate",
        config={k: values[k] for k in sorted(values) if k != "seed"},
        seed=seed,
        inputs={"config": str(args.config) if args.config else None},
    )
    print(f"simulated {spec.n_landmarks} landmarks, {', '.join(summary)} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# build-map


def _accumulate_map(
    scene_landmarks: list[dict],
    kf_frames: list[FrameRecord],
    kf_associations: dict[int, dict[int, int]],
    k: int,
) -> tuple[list[PriorObjectNode], list[list[int]]]:
    """Fold keyframe detections into per-landmark frequency tables.

    Each detection contributes the set of its top-k labels to the landmark it
    is associated with; landmarks never observed are dropped with a warning
    since they cannot carry a frequency table. An association naming a
    keyframe the log does not have, or a detection the frame does not have,
    is an input error.
    """
    if unknown := sorted(kf_associations.keys() - {frame.frame_id for frame in kf_frames}):
        raise InputError(f"association names keyframe {unknown[0]}, which the keyframe log does not have")
    observations: dict[int, list[set[str]]] = {lm["id"]: [] for lm in scene_landmarks}
    keyframes: list[list[int]] = []
    for frame in kf_frames:
        assoc = kf_associations.get(frame.frame_id, {})
        if assoc and (last := max(assoc)) >= len(frame.detections):
            raise InputError(
                f"keyframe {frame.frame_id}: association names detection {last}, "
                f"but the frame has {len(frame.detections)} detections"
            )
        members: set[int] = set()
        for det_idx, det in enumerate(frame.detections):
            lm_id = assoc.get(det_idx)
            if lm_id is None:
                continue
            if lm_id not in observations:
                raise InputError(f"association references unknown landmark {lm_id}")
            labels = {label for label, _ in top_k_labels(det.labels, k)}
            if not labels:
                continue
            observations[lm_id].append(labels)
            members.add(lm_id)
        keyframes.append(sorted(members))
    nodes = []
    for lm in scene_landmarks:
        obs = observations[lm["id"]]
        if not obs:
            logger.warning("landmark %d has no observations, dropped from map", lm["id"])
            continue
        with dataio._malformed(f"landmark {lm['id']}"):
            node = PriorObjectNode(
                id=lm["id"],
                position=lm["position"],
                rotation=lm["rotation"],
                scale=lm["scale"],
                frequencies=accumulate_label_frequencies(obs),
            )
        nodes.append(node)
    kept = {node.id for node in nodes}
    keyframes = [[i for i in members if i in kept] for members in keyframes]
    return nodes, keyframes


def _cmd_build_map(args) -> int:
    k = dataio.resolve_matcher_config({}, {"K": args.K}).K
    scene_landmarks = dataio.load_scene_landmarks(args.scene)
    kf_frames = dataio.load_detection_log(args.keyframes)
    kf_assoc = dataio.load_associations(args.associations)
    nodes, keyframes = _accumulate_map(scene_landmarks, kf_frames, kf_assoc, k)
    dataio.save_map(args.output, nodes, keyframes, meta={"K": k})
    print(f"map with {len(nodes)} landmarks over {len(keyframes)} keyframes -> {args.output}")
    return 0


# ---------------------------------------------------------------------------
# localize

_WORKER: dict = {}


def _localize_frame(
    frame: FrameRecord,
    prior_graph: SemanticGraph,
    intrinsics: CameraIntrinsics,
    config: MatcherConfig,
    depth_dir: Path | None,
) -> FrameResult:
    depth = None
    if frame.depth_file is not None:
        path = Path(depth_dir) / frame.depth_file
        depth = dataio.load_depth(path)
        # robust_bbox_depth would clamp boxes into a smaller map and read the wrong pixels
        if depth.shape != (intrinsics.height, intrinsics.width):
            raise InputError(
                f"{path}: bad depth map: shape {depth.shape} is not the intrinsics' "
                f"(height, width) {(intrinsics.height, intrinsics.width)}"
            )
    query_graph = build_query_graph(
        frame.detections, k=config.K, k_edge=config.k_edge, depth=depth, intrinsics=intrinsics
    )
    entropies = [shannon_entropy(p for _, p in node.confidences) for node in query_graph.nodes]
    mean_entropy = float(np.mean(entropies)) if entropies else None
    # one independent stream per frame, stable under any execution order
    frame_seed = int(
        np.random.SeedSequence([config.rng_seed, frame.frame_id]).generate_state(1, np.uint64)[0]
    )
    result = estimate_pose(query_graph, prior_graph, replace(config, rng_seed=frame_seed), intrinsics)
    return FrameResult(
        frame_id=frame.frame_id,
        timestamp=frame.timestamp,
        status=result.status.value,
        pose=result.pose,
        was=result.was,
        correspondences=list(result.correspondences),
        mean_entropy=mean_entropy,
    )


def _worker_init(frames, prior_graph, intrinsics, config, depth_dir):
    _WORKER.update(
        frames=frames, prior=prior_graph, intrinsics=intrinsics, config=config, depth_dir=depth_dir
    )


def _worker_run(i: int) -> FrameResult:
    return _localize_frame(
        _WORKER["frames"][i],
        _WORKER["prior"],
        _WORKER["intrinsics"],
        _WORKER["config"],
        _WORKER["depth_dir"],
    )


def _run_localization(
    frames: list[FrameRecord],
    prior_graph: SemanticGraph,
    intrinsics: CameraIntrinsics,
    config: MatcherConfig,
    threads: int | None,
    depth_dir: Path | None,
) -> list[FrameResult]:
    """Localize every frame, in at most min(threads, frames, cores) worker
    processes; threads None means all cores.

    Each worker receives the frames and the map once, at start-up (inherited
    under fork, pickled once per worker otherwise), and is sent frame indices
    in chunks, about four per worker.
    """
    cores = os.cpu_count() or 1
    workers = min(threads or cores, cores, len(frames))
    if workers > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(frames, prior_graph, intrinsics, config, depth_dir),
            ) as pool:
                chunk = -(-len(frames) // (4 * workers))
                return list(pool.map(_worker_run, range(len(frames)), chunksize=chunk))
        except OSError as exc:
            logger.warning("process pool unavailable (%s), running serially", exc)
    return [
        _localize_frame(frame, prior_graph, intrinsics, config, depth_dir) for frame in frames
    ]


def _prior_graphs(args, configs: list[MatcherConfig]) -> list[SemanticGraph]:
    """The prior graph of each config, all built before any run starts.

    The map is read once and serves every K alike, or the keyframe pass is
    read once and folded once per K; each map is wired once per distinct
    k_edge.
    """
    ks = sorted({config.K for config in configs})
    if args.map is not None:
        nodes, keyframes, meta = dataio.load_map(args.map)
        for k in ks:
            if meta.get("K") not in (None, k):
                logger.warning(
                    "map was built at K=%s but localizing at K=%d; pass --scene/--keyframes to rebuild",
                    meta["K"],
                    k,
                )
        map_key = lambda config: None
        maps = {None: (nodes, keyframes)}
    else:
        if not (args.scene and args.keyframes and args.keyframe_associations):
            raise InputError("need --map, or --scene with --keyframes and --keyframe-associations")
        landmarks = dataio.load_scene_landmarks(args.scene)
        keyframe_log = dataio.load_detection_log(args.keyframes)
        associations = dataio.load_associations(args.keyframe_associations)
        map_key = lambda config: config.K
        maps = {k: _accumulate_map(landmarks, keyframe_log, associations, k) for k in ks}
    if not all(nodes for nodes, _ in maps.values()):
        raise InputError("prior map has no landmarks")
    graphs: dict[tuple, SemanticGraph] = {}
    for config in configs:
        key = (map_key(config), config.k_edge)
        if key not in graphs:
            graphs[key] = prior_graph_from_nodes(*maps[key[0]], k_edge=config.k_edge)
    return [graphs[map_key(config), config.k_edge] for config in configs]


def _parse_sweep(specs: list[str]) -> dict[str, list]:
    out: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise InputError(f"bad sweep spec {spec!r}, expected name=v1,v2,...")
        name, values = spec.split("=", 1)
        name = name.strip()
        if name not in dataio.MATCHER_DEFAULTS:
            raise InputError(f"unknown sweep parameter {name!r}")
        parsed = [dataio._parse_scalar(v.strip()) for v in values.split(",") if v.strip()]
        if not parsed:
            raise InputError(f"sweep spec {spec!r} has no values")
        out[name] = parsed
    return out


def _cli_matcher_values(args) -> dict:
    return {
        "K": args.K,
        "tau": args.tau,
        "C": args.C,
        "n_iter": args.n_iter,
        "k_edge": args.k_edge,
        "rng_seed": args.seed,
    }


def _cmd_localize(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    file_values = dataio.load_config_file(args.config) if args.config else {}
    cli_values = _cli_matcher_values(args)
    source = f"flags and {args.config}" if args.config else "flags"
    frames = dataio.load_detection_log(args.detections)
    intrinsics = dataio.load_intrinsics(args.intrinsics)
    depth_dir = Path(args.detections).parent
    out_dir = Path(args.output)
    inputs = {
        "detections": str(args.detections),
        "intrinsics": str(args.intrinsics),
        "map": str(args.map) if args.map else None,
        "scene": str(args.scene) if args.scene else None,
        "keyframes": str(args.keyframes) if args.keyframes else None,
    }

    sweep = _parse_sweep(args.sweep or [])
    names = sorted(sweep)
    # without a sweep, the one empty combination is one run straight into out_dir;
    # every combination is resolved before the first run, so a bad one fails fast
    runs = []
    for combo in itertools.product(*(sweep[name] for name in names)):
        overrides = dict(zip(names, combo))
        # a swept value, `none` included, replaces the file value and the flag
        flags = {k: v for k, v in cli_values.items() if k not in overrides}
        config = dataio.resolve_matcher_config({**file_values, **overrides}, flags, source)
        runs.append((out_dir / "_".join(f"{name}={overrides[name]}" for name in names), config))
    prior_graphs = _prior_graphs(args, [config for _, config in runs])
    for (run_dir, config), prior_graph in zip(runs, prior_graphs):
        run_dir.mkdir(parents=True, exist_ok=True)
        results = _run_localization(
            frames, prior_graph, intrinsics, config, args.threads, depth_dir
        )
        dataio.save_results(run_dir / "results.jsonl", results)
        dataio.save_manifest(
            run_dir / "manifest.json",
            command="localize",
            config={f: getattr(config, f) for f in dataio.MATCHER_DEFAULTS},
            seed=config.rng_seed,
            inputs=inputs,
        )
        n_success = sum(1 for r in results if r.status == "success")
        print(f"localized {n_success}/{len(results)} frames -> {run_dir / 'results.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _match_poses(
    timestamps: dict[int, float], trajectory: list[tuple[float, Pose]]
) -> dict[int, Pose]:
    """Nearest-timestamp alignment within _ALIGN_TOL seconds."""
    if not trajectory:
        return {}
    times = np.array([ts for ts, _ in trajectory])
    order = np.argsort(times)
    times = times[order]
    poses = [trajectory[i][1] for i in order]
    out: dict[int, Pose] = {}
    for frame_id, ts in timestamps.items():
        # the first row at or after ts, or the last row; a tie goes to the row before
        j = min(int(np.searchsorted(times, ts)), len(times) - 1)
        if j and ts - times[j - 1] <= times[j] - ts:
            j -= 1
        if abs(float(times[j]) - ts) <= _ALIGN_TOL:
            out[frame_id] = poses[j]
        else:
            logger.warning("frame %d: no ground-truth pose within %.0f ms", frame_id, _ALIGN_TOL * 1e3)
    return out


def _mota_or_none(counts, mode: str) -> float | None:
    try:
        return mota(counts)
    except ValueError as exc:
        logger.warning("%s MOTA unavailable: %s", mode, exc)
        return None


def _evaluate_run(results_path: Path, args) -> tuple[dict, list[dict]]:
    results = dataio.load_results(results_path)
    if not results:
        raise InputError(f"{results_path}: empty results")
    gt_traj = dataio.load_trajectory(args.gt_trajectory) if args.gt_trajectory else []
    gt_assoc = dataio.load_associations(args.gt_associations) if args.gt_associations else None

    gt_poses = _match_poses({r.frame_id: r.timestamp for r in results}, gt_traj)
    predicted = {r.frame_id: r.correspondences for r in results}

    report: dict = {"n_frames": len(results), "statuses": dict(Counter(r.status for r in results))}
    per_frame = {}
    if gt_assoc is None:
        logger.warning("no ground-truth associations given, skipping F1 and MOTA")
    else:
        counts = evaluate_associations(predicted, gt_associations=gt_assoc)
        per_frame = {fc.frame_id: fc for fc in counts.per_frame}
        report["association"] = {
            "precision": counts.precision,
            "recall": counts.recall,
            "f1": counts.f1,
            "tp": counts.tp,
            "fp": counts.fp,
            "fn": counts.fn,
        }
        report["mota_direct"] = _mota_or_none(counts, "direct")
        if args.map and args.intrinsics and args.detections:
            nodes, keyframes, _ = dataio.load_map(args.map)
            prior_graph = prior_graph_from_nodes(nodes, keyframes)
            intrinsics = dataio.load_intrinsics(args.intrinsics)
            boxes = {
                f.frame_id: {i: det.bbox for i, det in enumerate(f.detections)}
                for f in dataio.load_detection_log(args.detections)
                if f.frame_id in predicted
            }
            rematched = rematch_predictions(gt_poses, prior_graph, intrinsics, boxes)
            report["mota_rematch"] = _mota_or_none(evaluate_associations(rematched, gt_assoc), "rematch")

    errors = [
        (r.frame_id, None if r.pose is None or r.frame_id not in gt_poses
         else translation_error(r.pose, gt_poses[r.frame_id]))
        for r in results
    ]
    if gt_poses:
        report["mean_te"] = mean_translation_error(errors)
        report["success_rate"] = {
            f"{thr:g}": {
                "succ": success_rate(errors, thr, mode="succ"),
                "all": success_rate(errors, thr, mode="all"),
            }
            for thr in _SR_THRESHOLDS
        }
    entropies = [r.mean_entropy for r in results if r.mean_entropy is not None]
    report["entropy_mean"] = float(np.mean(entropies)) if entropies else None

    rows = [
        {
            "frame_id": r.frame_id,
            "timestamp": r.timestamp,
            "status": r.status,
            "te": "" if te is None else te,
            "was": r.was,
            "n_correspondences": len(r.correspondences),
            # a frame without ground truth leaves its counts blank
            **({} if (fc := per_frame.get(r.frame_id)) is None else {"tp": fc.tp, "fp": fc.fp, "fn": fc.fn}),
        }
        for r, (_, te) in zip(results, errors)
    ]
    return report, rows


def _find_runs(results_arg: str) -> list[tuple[str, Path]]:
    path = Path(results_arg)
    direct = path if path.is_file() else path / "results.jsonl"
    if direct.exists():
        return [("", direct)]
    if path.is_dir():
        runs = [
            (sub.name, sub / "results.jsonl")
            for sub in sorted(path.iterdir())
            if sub.is_dir() and (sub / "results.jsonl").exists()
        ]
        if runs:
            return runs
    raise InputError(f"{results_arg}: no results.jsonl found")


def _cmd_evaluate(args) -> int:
    runs = _find_runs(args.results)
    out_dir = Path(args.output) if args.output else Path(args.results)
    if out_dir.is_file():
        out_dir = out_dir.parent
    combined: dict = {"runs": {}}
    # one results file (or a run directory holding one) is an unnamed run written into out_dir
    for name, results_path in runs:
        report, rows = _evaluate_run(results_path, args)
        run_out = out_dir / name
        run_out.mkdir(parents=True, exist_ok=True)
        dataio.save_metrics_report(run_out / "report.json", report)
        dataio.save_per_frame_csv(run_out / "per_frame.csv", rows)
        combined["runs"][name] = report
        _print_report(name, report)
    if runs[0][0]:
        dataio.save_metrics_report(out_dir / "report.json", combined)
    return 0


def _print_report(name: str, report: dict):
    prefix = f"[{name}] " if name else ""
    parts = [f"frames={report['n_frames']}"]
    if "association" in report:
        parts.append(f"f1={report['association']['f1']:.4f}")
    if report.get("mota_direct") is not None:
        parts.append(f"mota={report['mota_direct']:.4f}")
    if report.get("mean_te") is not None:
        parts.append(f"te={report['mean_te']:.4f}m")
    if "success_rate" in report:
        sr = report["success_rate"].get("0.5")
        if sr:
            parts.append(f"sr@0.5={sr['succ']:.1f}%/{sr['all']:.1f}%")
    if report.get("entropy_mean") is not None:
        parts.append(f"entropy={report['entropy_mean']:.3f}")
    print(prefix + " ".join(parts))


# ---------------------------------------------------------------------------
# parser


def _add_matcher_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="base RNG seed, at least 0")
    sub.add_argument("--K", type=int, default=None, help="labels kept per detection")
    sub.add_argument("--tau", type=int, default=None, help="candidate priors per query node")
    sub.add_argument("--C", type=float, default=None, help="box similarity pixel scale")
    sub.add_argument("--n-iter", dest="n_iter", type=int, default=None, help="triples drawn per frame")
    sub.add_argument("--k-edge", dest="k_edge", type=int, default=None, help="graph neighbors per node")


def _build_parser() -> _Parser:
    parser = _Parser(prog="semloc", description="object-level semantic graph localization")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="generate a synthetic scene and detection logs")
    sim.add_argument("--output", required=True)
    sim.add_argument("--config", help="flat key=value config file")
    sim.add_argument("--seed", dest="seed", type=int, default=None)
    for key, default in _SIM_DEFAULTS.items():
        if key == "seed":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            sim.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction, default=None)
        elif isinstance(default, int):
            sim.add_argument(flag, dest=key, type=int, default=None)
        elif isinstance(default, float) or default is None:
            sim.add_argument(flag, dest=key, type=float, default=None)
        else:
            sim.add_argument(flag, dest=key, default=None)
    sim.set_defaults(func=_cmd_simulate)

    bm = subs.add_parser("build-map", help="accumulate keyframe detections into a prior map")
    bm.add_argument("--scene", required=True, help="scene file with landmark geometry")
    bm.add_argument("--keyframes", required=True, help="keyframe detection log")
    bm.add_argument("--associations", required=True, help="keyframe associations")
    bm.add_argument("--output", required=True, help="map JSON path")
    bm.add_argument("--K", type=int, default=None, help="labels kept per detection")
    bm.set_defaults(func=_cmd_build_map)

    loc = subs.add_parser("localize", help="estimate a pose for every query frame")
    loc.add_argument("--detections", required=True, help="query detection log")
    loc.add_argument("--intrinsics", required=True)
    loc.add_argument("--map", help="prior map JSON")
    loc.add_argument("--scene", help="scene file, to rebuild the map per run")
    loc.add_argument("--keyframes", help="keyframe detection log, to rebuild the map per run")
    loc.add_argument("--keyframe-associations", dest="keyframe_associations")
    loc.add_argument("--output", required=True, help="output directory")
    loc.add_argument(
        "--threads", type=int, default=None, help="most worker processes (default: all cores)"
    )
    loc.add_argument(
        "--sweep",
        action="append",
        metavar="NAME=V1,V2,...",
        help="repeatable; run once per value combination, e.g. --sweep K=1,3,5",
    )
    _add_matcher_flags(loc)
    loc.set_defaults(func=_cmd_localize)

    ev = subs.add_parser("evaluate", help="score localization results against ground truth")
    ev.add_argument("--results", required=True, help="results.jsonl, or a directory of runs")
    ev.add_argument("--gt-trajectory", dest="gt_trajectory", help="ground-truth trajectory")
    ev.add_argument("--gt-associations", dest="gt_associations", help="ground-truth associations")
    ev.add_argument("--map", help="prior map, enables rematch MOTA")
    ev.add_argument("--intrinsics", help="camera intrinsics, enables rematch MOTA")
    ev.add_argument("--detections", help="query detection log, enables rematch MOTA")
    ev.add_argument("--output", help="report directory (default: beside results)")
    ev.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code) if isinstance(exc.code, int) else 0
    except Exception:
        traceback.print_exc()
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
