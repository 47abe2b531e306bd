#!/usr/bin/env python3
"""semloc benchmark: one workload, end-to-end or traced, for a fixed time.

    python3 perfbench/run.py --workload crit8-sampling --seed 0 --seconds 30 --trace 0

The package is imported from the `src/` directory next to this one. Inputs
are generated from --seed; the same seed gives the same inputs. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-module metrics with --trace 1. Timings are in reference time, scaled
by the host's speed as hostspeed.py probes it. perfbench/README.md explains
the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

# One BLAS thread, set before numpy loads: on a 2-core host, BLAS threads of
# the frame loop, or of each pool worker, would compete for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
WORKLOADS = ("crit8-sampling", "wide-ambiguous", "cli-early-exit")
# query frames per pass over the inputs, for --size full and --size tiny
FRAMES = {"crit8-sampling": (120, 4), "wide-ambiguous": (40, 3), "cli-early-exit": (150, 6)}
CLI_ORBIT = 3  # the command line workload picks its frames from an orbit this many times longer
SETUP_INTERVAL = 3.0  # s of timed frames between two timed set-ups
API_SHARE = 0.5  # cli-early-exit: s of API frames after each localize call, per s of the call
# hooks every traced pass must see called; a refactor that bypasses one must update tracing.py
FRAME_HOOKS = (
    "graph.prior_build",
    "graph.build_query_graph",
    "pose.estimate_pose",
    "matching.score_all_pairs",
    "matching.extract_candidates",
    "pose.is_valid_sample",
    "geometry.p3p_solve",
    "pose.calculate_was",
    "pose.score_hypotheses",
)
CLI_HOOKS = FRAME_HOOKS + (
    "dataio.load_detection_log",
    "dataio.load_map",
    "dataio.load_intrinsics",
    "dataio.save_results",
    "dataio.save_manifest",
)


# ---------------------------------------------------------------------------
# host and outputs


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """Thread count reported by a loaded OpenBLAS, else the environment's setting."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var]
    return "unknown"


def host_info() -> dict:
    import numpy as np

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def _rounded(values) -> list[float]:
    return [round(float(v), 9) + 0.0 for v in values]


def digest(records: list) -> str:
    text = json.dumps(records, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def frame_seed(base: int, frame_id: int) -> int:
    """Per-frame sampling seed, derived the way `semloc localize` derives it."""
    import numpy as np

    return int(np.random.SeedSequence([base, frame_id]).generate_state(1, np.uint64)[0])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


class Checks:
    """Frames attempted and failed, and every failed output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def require(self, ok: bool, message: str):
        if not ok and message not in self.problems:
            self.problems.append(message)


def check_success(checks: Checks, frame_id, status: str, pose_values, correspondences):
    if status != "success":
        return
    finite = pose_values is not None and all(math.isfinite(v) for v in pose_values)
    checks.require(finite, f"frame {frame_id}: success with a non-finite pose")
    checks.require(
        len(correspondences) >= 3,
        f"frame {frame_id}: success with {len(correspondences)} correspondences",
    )
    if not finite or len(correspondences) < 3:
        checks.failed += 1


# ---------------------------------------------------------------------------
# quality


def quality(results: dict, gt_poses: dict, gt_associations: dict) -> dict:
    """F1, SR@0.5 m over all frames, localized share and mean translation error.

    results maps frame id to (status, world-to-camera pose or None,
    correspondences).
    """
    from semloc.metrics import evaluate_associations, success_rate, translation_error

    predicted = {fid: corr for fid, (_, _, corr) in results.items()}
    f1 = evaluate_associations(predicted, gt_associations=gt_associations).f1
    errors = [
        (fid, None if pose is None else translation_error(pose, gt_poses[fid]))
        for fid, (_, pose, _) in results.items()
    ]
    tes = [te for _, te in errors if te is not None]
    localized = sum(status == "success" for status, _, _ in results.values())
    return {
        "association_f1": f1,
        "success_rate_pct": success_rate(errors, 0.5, mode="all"),
        "frames_localized_pct": 100.0 * localized / len(results),
        "translation_error_mean_m": statistics.fmean(tes) if tes else math.nan,
    }


# ---------------------------------------------------------------------------
# in-process frames


class FrameLoop:
    """Localizes inputs.frames in passes, in time slices that resume where they stopped.

    Every pass must reproduce the first pass's per-frame results exactly.
    With a tracer, odd passes run traced and even passes untraced, so the two
    modes share the host's conditions; each whole traced pass leaves one
    snapshot of the tracer. `between` runs every SETUP_INTERVAL seconds,
    outside the frame timings. Each frame is followed by one probe of the
    host's speed, and its time is kept in reference seconds (hostspeed.py).
    """

    def __init__(self, inputs, prior, checks, between, speed, tracer=None):
        config = inputs.config
        self.inputs = inputs
        self.prior = prior
        self.checks = checks
        self.between = between
        self.speed = speed
        self.tracer = tracer
        self.configs = {
            f.frame_id: replace(config, rng_seed=frame_seed(config.rng_seed, f.frame_id))
            for f in inputs.frames
        }
        self.first: dict = {}  # frame id -> record of its first result
        self.results: dict = {}  # frame id -> (status, pose, correspondences)
        self.times: dict = {}  # frame id -> untraced times, reference s
        self.walls: dict = {}  # frame id -> untraced wall times, s
        self.busy = {False: [0, 0.0], True: [0, 0.0]}  # frames and reference seconds, by traced
        self.snapshots: list[dict] = []
        self.passes = 0
        self._next = 0
        self._pass_prior = prior
        self._pass_probes = 0  # probes taken before the current traced pass
        self._last_between = time.perf_counter()

    def per_frame(self, wall: bool = False) -> list[float]:
        """Each frame's median untraced repetition, reference s (wall s with `wall`)."""
        times = self.walls if wall else self.times
        return [statistics.median(t) for t in times.values()]

    def frames_per_s(self) -> float:
        """Untraced frames per reference second spent in frames, over every repetition."""
        n, seconds = self.busy[False]
        return n / seconds

    def records(self) -> list:
        return [self.first[f.frame_id] for f in self.inputs.frames if f.frame_id in self.first]

    def run(self, until: float, min_passes: int = 0):
        """Localize frames until perf_counter() reaches `until` and min_passes passes are whole."""
        import semloc.graph

        frames = self.inputs.frames
        while self.passes < min_passes or time.perf_counter() < until:
            traced = self.tracer is not None and self.passes % 2 == 1
            with self.tracer.active() if traced else contextlib.nullcontext():
                if traced and self._next == 0:
                    self.tracer.reset()
                    self._pass_probes = len(self.speed.kernel_times)
                    self._pass_prior = semloc.graph.prior_graph_from_nodes(
                        self.inputs.nodes, self.inputs.keyframes, k_edge=self.inputs.config.k_edge
                    )
                while self._next < len(frames):
                    if self.passes >= min_passes and time.perf_counter() >= until:
                        return
                    frame = frames[self._next]
                    self._next += 1
                    if traced:
                        self.tracer.frame = frame.frame_id
                    self._frame(frame, traced)
                    if time.perf_counter() - self._last_between >= SETUP_INTERVAL:
                        self.between()
                        self._last_between = time.perf_counter()
            if traced:
                snap = snapshot(self.tracer, len(frames), self.checks, FRAME_HOOKS)
                kernel = statistics.median(self.speed.kernel_times[self._pass_probes :])
                snap["scale"] = self.speed.reference(1.0, kernel)
                self.snapshots.append(snap)
            self._pass_prior = self.prior
            self._next = 0
            self.passes += 1

    def _frame(self, frame, traced: bool):
        import semloc.graph
        import semloc.pose
        from scenes import INTRINSICS

        config = self.inputs.config
        self.checks.attempted += 1
        start = time.perf_counter()
        try:
            query = semloc.graph.build_query_graph(
                frame.detections, k=config.K, k_edge=config.k_edge, intrinsics=INTRINSICS
            )
            result = semloc.pose.estimate_pose(
                query, self._pass_prior, self.configs[frame.frame_id], INTRINSICS
            )
        except Exception as exc:  # a raising frame fails the run, the loop goes on
            self.checks.failed += 1
            self.checks.require(False, f"frame {frame.frame_id} raised {exc!r}")
            return
        elapsed = time.perf_counter() - start
        reference = self.speed.reference(elapsed, self.speed.probe())
        self.busy[traced][0] += 1
        self.busy[traced][1] += reference
        if not traced:
            self.times.setdefault(frame.frame_id, []).append(reference)
            self.walls.setdefault(frame.frame_id, []).append(elapsed)
        pose_values = None
        if result.pose is not None:
            pose_values = [*result.pose.rotation, *result.pose.translation]
        status = result.status.value
        record = [
            frame.frame_id,
            status,
            [list(c) for c in result.correspondences],
            None if pose_values is None else _rounded(pose_values),
        ]
        if frame.frame_id not in self.first:
            self.first[frame.frame_id] = record
            self.results[frame.frame_id] = (status, result.pose, list(result.correspondences))
            check_success(self.checks, frame.frame_id, status, pose_values, result.correspondences)
        else:
            self.checks.require(
                record == self.first[frame.frame_id],
                f"frame {frame.frame_id}: result differs between passes",
            )


def snapshot(tracer, frames: int, checks, required) -> dict:
    """The tracer's record of one whole traced pass; every hook in `required` must have run."""
    import tracing

    checks.require(not tracer.missing, f"traced functions not found: {sorted(tracer.missing)}")
    uncalled = tracing.uncalled(tracer, required)
    checks.require(not uncalled, f"traced functions never called in a traced pass: {uncalled}")
    return {
        "frames": frames,
        "self": tracer.self_times(),
        "total": tracer.total_times(),
        "counts": dict(tracer.counts),
        "work": tracing.work_counters(tracer),
    }


class SetupTimer:
    """Runs and times the workload's set-up, in reference seconds.

    The set-up runs twice before the timed loop and again every
    SETUP_INTERVAL seconds of it, and the median is reported.
    """

    def __init__(self, build, speed):
        self.build = build
        self.speed = speed
        self.times: list[float] = []
        self.walls: list[float] = []

    def __call__(self):
        start = time.perf_counter()
        result = self.build()
        wall = time.perf_counter() - start
        self.times.append(self.speed.reference(wall, self.speed.probe()))
        self.walls.append(wall)
        return result


def end_to_end(latencies, frames_per_s, setup: SetupTimer, q) -> dict:
    """End-to-end metrics; latency percentiles are across frames of their median repetition."""
    import numpy as np

    ms = [1e3 * t for t in latencies]
    return {
        "frame_latency_p50_ms": (statistics.median(ms), "ms"),
        "frame_latency_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "frames_per_s": (frames_per_s, "1/s"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "frames_localized_pct": (q["frames_localized_pct"], "%"),
        "association_f1": (q["association_f1"], "ratio"),
        "success_rate_pct": (q["success_rate_pct"], "%"),
    }


def wall_summary(loop, setup: SetupTimer) -> dict:
    """Raw wall-clock counterparts of the timing metrics, printed for reference."""
    walls = loop.per_frame(wall=True)
    return {
        "frame_latency_p50_ms": 1e3 * statistics.median(walls),
        "setup_s": statistics.median(setup.walls),
    }


def run_in_process(name, seed, n_frames, seconds, speed, tracer, checks, report):
    import scenes
    import semloc.graph

    make = scenes.crit8_sampling if name == "crit8-sampling" else scenes.wide_ambiguous
    inputs = make(seed, n_frames)
    config = inputs.config

    def build():
        return semloc.graph.prior_graph_from_nodes(inputs.nodes, inputs.keyframes, k_edge=config.k_edge)

    setup = SetupTimer(build, speed)
    prior = setup()
    setup()
    loop = FrameLoop(inputs, prior, checks, setup, speed, tracer)
    loop.run(time.perf_counter() + seconds, min_passes=4 if tracer else 2)
    report["passes"] = loop.passes
    report["digest"] = digest(loop.records())
    q = quality(loop.results, inputs.gt_poses, inputs.gt_associations)
    report["quality"] = q
    if tracer is None:
        latencies = loop.per_frame()
        report["samples"] = f"{len(latencies)} frames x {loop.busy[False][0] / len(latencies):.1f} repetitions"
        report["wall"] = wall_summary(loop, setup)
        report["wall"]["frames_per_s"] = loop.busy[False][0] / sum(sum(w) for w in loop.walls.values())
        return end_to_end(latencies, loop.frames_per_s(), setup, q)
    untraced_n, untraced_s = loop.busy[False]
    traced_n, traced_s = loop.busy[True]
    overhead = 100.0 * ((traced_s / traced_n) / (untraced_s / untraced_n) - 1.0)
    return per_layer(loop.snapshots, checks, overhead, q)


# ---------------------------------------------------------------------------
# command line workload


def invoke(argv: list[str]):
    """Run one `semloc` command in this process, keeping its stdout quiet."""
    from semloc import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"semloc {argv[0]} exited with {code}")


def cli_records(path: Path) -> list:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [
        [row["frame_id"], row["status"], row["correspondences"], None if row["pose"] is None else _rounded(row["pose"])]
        for row in rows
    ]


def run_cli(seed, n_frames, seconds, speed, tracer, checks, report):
    import scenes
    import semloc.graph
    from semloc import dataio
    from scenes import InProcessInputs
    from semloc.pose import MatcherConfig

    work = WORK / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if tracer is not None:
        tracer.dump_dir = work
    try:
        scene = work / "scene"
        invoke(scenes.cli_simulate_args(CLI_ORBIT * n_frames, str(scene)))
        scenes.keep_query_frames(scene / "query.jsonl", seed, n_frames)
        map_path = scene / "map.json"
        build_map = [
            "build-map",
            "--scene", str(scene / "scene.json"),
            "--keyframes", str(scene / "keyframes.jsonl"),
            "--associations", str(scene / "keyframe_associations.jsonl"),
            "--output", str(map_path),
        ]
        setup = SetupTimer(lambda: invoke(build_map), speed)
        setup()
        setup()
        out_dir = work / "run"
        localize = [
            "localize",
            "--detections", str(scene / "query.jsonl"),
            "--intrinsics", str(scene / "intrinsics.json"),
            "--map", str(map_path),
            "--threads", str(nproc()),
            "--output", str(out_dir),
        ]

        # Untraced: each localize call is followed by a slice of API frames on the
        # same files, API_SHARE as long, so both metrics sample the whole run.
        # Traced: calls alternate untraced and traced.
        loop = None
        if tracer is None:
            nodes, keyframes, _ = dataio.load_map(map_path)
            inputs = InProcessInputs(
                nodes, keyframes, dataio.load_detection_log(scene / "query.jsonl"), {}, {}, MatcherConfig()
            )
            prior = semloc.graph.prior_graph_from_nodes(nodes, keyframes, k_edge=inputs.config.k_edge)
            loop = FrameLoop(inputs, prior, checks, setup, speed)
        first = None
        walls = {False: [], True: []}  # localize calls, reference s
        raw_walls = []  # untraced localize calls, s
        snapshots = []
        min_calls = 4 if tracer else 2
        deadline = time.perf_counter() + seconds
        n_call = 0
        while n_call < min_calls or time.perf_counter() < deadline:
            traced = tracer is not None and n_call % 2 == 1
            shutil.rmtree(out_dir, ignore_errors=True)
            if traced:
                tracer.reset()
            checks.attempted += n_frames
            # the pool runs on every core, so the host's speed is probed on every core
            before = speed.probe_parallel(nproc())
            with tracer.active() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                invoke(localize)
                wall = time.perf_counter() - start
            kernel = 0.5 * (before + speed.probe_parallel(nproc()))
            walls[traced].append(speed.reference(wall, kernel, parallel=True))
            if not traced:
                raw_walls.append(wall)
            records = cli_records(out_dir / "results.jsonl")
            if first is None:
                first = records
                for fid, status, corr, pose in records:
                    check_success(checks, fid, status, pose, corr)
                results = {r.frame_id: r for r in dataio.load_results(out_dir / "results.jsonl")}
            else:
                checks.require(records == first, "localize results differ between calls")
            if traced:
                parent_s = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
                tracer.collect()
                snap = snapshot(tracer, n_frames, checks, CLI_HOOKS)
                snap["workers_s"] = wall - parent_s
                snap["scale"] = speed.reference(1.0, kernel, parallel=True)
                snapshots.append(snap)
            setup()
            if loop is not None:
                loop.run(time.perf_counter() + API_SHARE * wall)
            n_call += 1
        report["passes"] = n_call
        report["digest"] = digest(first)
        checks.require(len(first) == n_frames, f"localize wrote {len(first)} of {n_frames} frames")

        trajectory = dataio.load_trajectory(scene / "gt_trajectory.txt")
        gt_poses = {fid: trajectory[fid][1] for fid in results}
        checks.require(
            all(trajectory[r.frame_id][0] == r.timestamp for r in results.values()),
            "results and ground-truth trajectory disagree on timestamps",
        )
        q = quality(
            {fid: (r.status, r.pose, r.correspondences) for fid, r in results.items()},
            gt_poses,
            dataio.load_associations(scene / "gt_associations.jsonl"),
        )
        report["quality"] = q
        rates = {mode: [n_frames / w for w in ws] for mode, ws in walls.items()}
        if tracer is not None:
            overhead = 100.0 * (statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0)
            return per_layer(snapshots, checks, overhead, q)

        loop.run(time.perf_counter(), min_passes=2)  # every frame at least twice
        for api, cli_row in zip(loop.records(), first):
            checks.require(
                api[:3] == cli_row[:3],
                f"frame {api[0]}: API and `semloc localize` results differ",
            )
        latencies = loop.per_frame()
        report["samples"] = f"{len(latencies)} frames x {loop.busy[False][0] / len(latencies):.1f} repetitions"
        report["wall"] = wall_summary(loop, setup)
        report["wall"]["frames_per_s"] = n_frames / statistics.median(raw_walls)
        return end_to_end(latencies, statistics.median(rates[False]), setup, q)
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# per-module metrics


def per_layer(snapshots, checks, overhead_pct, q) -> dict:
    """Per-module metrics from whole traced passes.

    Times are self times in reference ms per frame (dataio: per localize
    call), each pass's times scaled by the host speed probed during it, and
    averaged over the traced passes; counters are per pass and must repeat
    exactly from one traced pass to the next.
    """
    for snap in snapshots[1:]:
        checks.require(
            snap["work"] == snapshots[0]["work"],
            f"work counters differ between traced passes: {snapshots[0]['work']} vs {snap['work']}",
        )
    first = snapshots[0]
    counts = first["counts"]
    n_snap = len(snapshots)
    frames = first["frames"]

    def seconds(name, kind):
        return sum(s[kind].get(name, 0.0) * s["scale"] for s in snapshots)

    def per_frame_ms(name, kind="self"):
        return 1e3 * seconds(name, kind) / (n_snap * frames)

    def per_call_ms(name):
        return 1e3 * seconds(name, "total") / n_snap

    frame_ms = per_frame_ms("pose.estimate_pose", "total") + per_frame_ms("graph.build_query_graph", "total")
    builds = sum(s["counts"].get("prior_builds", 0) for s in snapshots)
    build_s = seconds("graph.prior_build", "total")
    draws = counts.get("draws", 0)
    p3p_calls = counts.get("p3p_calls", 0)
    metrics = {
        "geometry.p3p_solve_ms": (per_frame_ms("geometry.p3p_solve"), "ms"),
        "geometry.p3p_solve_calls": (p3p_calls, "count"),
        "geometry.p3p_solutions": (counts.get("p3p_solutions", 0), "count"),
        "geometry.p3p_empty_ratio": (counts.get("p3p_empty", 0) / max(1, p3p_calls), "ratio"),
        "pose.loop_self_ms": (per_frame_ms("pose.estimate_pose"), "ms"),
        "pose.calculate_was_ms": (per_frame_ms("pose.calculate_was"), "ms"),
        "pose.is_valid_sample_ms": (per_frame_ms("pose.is_valid_sample"), "ms"),
        "pose.draws": (draws, "count"),
        "pose.draws_per_frame": (draws / max(1, counts.get("frames", 0)), "count"),
        "pose.valid_samples": (counts.get("valid_samples", 0), "count"),
        "pose.valid_ratio": (counts.get("valid_samples", 0) / max(1, draws), "ratio"),
        "pose.hypotheses_scored": (counts.get("hypotheses_scored", 0), "count"),
        "pose.best_iteration_p50": (first["work"]["best_iteration_p50"], "count"),
        "pose.early_exit_frames": (counts.get("early_exit_frames", 0), "count"),
        "matching.score_all_pairs_ms": (per_frame_ms("matching.score_all_pairs"), "ms"),
        "matching.score_all_pairs_share": (
            per_frame_ms("matching.score_all_pairs", "total") / frame_ms if frame_ms else 0.0,
            "ratio",
        ),
        "matching.pairs_scored": (counts.get("pairs_scored", 0), "count"),
        "matching.extract_candidates_ms": (per_frame_ms("matching.extract_candidates"), "ms"),
        "matching.candidate_pairs": (counts.get("candidate_pairs", 0), "count"),
        "graph.build_query_graph_ms": (per_frame_ms("graph.build_query_graph"), "ms"),
        "graph.query_nodes": (counts.get("query_nodes", 0), "count"),
        "graph.detections_dropped": (counts.get("detections_dropped", 0), "count"),
        "graph.prior_edges": (counts.get("prior_edges", 0) / max(1, counts.get("prior_builds", 0)), "count"),
        "graph.prior_build_ms": (1e3 * build_s / max(1, builds), "ms"),
        "dataio.load_detection_log_ms": (per_call_ms("dataio.load_detection_log"), "ms"),
        "dataio.load_map_ms": (per_call_ms("dataio.load_map"), "ms"),
        "dataio.save_results_ms": (per_call_ms("dataio.save_results"), "ms"),
        "dataio.bytes_read": (counts.get("bytes_read", 0), "B"),
        "dataio.bytes_written": (counts.get("bytes_written", 0), "B"),
        "cli.workers_s": (statistics.median(s.get("workers_s", 0.0) * s["scale"] for s in snapshots), "s"),
        "quality.translation_error_mean_m": (q["translation_error_mean_m"], "m"),
        "trace_overhead_pct": (overhead_pct, "%"),
    }
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: a few frames, for smoke tests"
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "semloc" / "__init__.py").is_file():
        print(f"error: no semloc package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import semloc

    if Path(semloc.__file__).resolve().parent != (src / "semloc").resolve():
        print(f"error: imported semloc from {semloc.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing

    n_frames = FRAMES[args.workload][args.size == "tiny"]
    WORK.mkdir(exist_ok=True)
    import hostspeed

    tracer = tracing.Tracer(WORK) if args.trace else None
    speed = hostspeed.HostSpeed()
    checks = Checks()
    report: dict = {}
    print("host " + json.dumps(host_info(), sort_keys=True), flush=True)
    if args.workload == "cli-early-exit":
        metrics = run_cli(args.seed, n_frames, args.seconds, speed, tracer, checks, report)
    else:
        metrics = run_in_process(args.workload, args.seed, n_frames, args.seconds, speed, tracer, checks, report)

    print(
        f"workload {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
        f"frames_per_pass={n_frames} passes={report['passes']}"
    )
    print(f"digest {report['digest']} frames={n_frames}")
    kernel_ms = 1e3 * statistics.median(speed.kernel_times)
    print(f"host_speed kernel_ms_median={kernel_ms:.4g} reference_ms={1e3 * hostspeed.REFERENCE_S:.4g}")
    if "wall" in report:
        print("wall " + " ".join(f"{k}={v:.6g}" for k, v in report["wall"].items()))
    q = report["quality"]
    print("quality " + " ".join(f"{k}={v:.6g}" for k, v in sorted(q.items())))
    for name, (value, unit) in metrics.items():
        extra = f" (n={report['samples']})" if name.startswith("frame_latency") else ""
        print(f"metric {name} {value:.6g} {unit}{extra}")
    for problem in checks.problems:
        print(f"check FAILED: {problem}")
    result = {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
