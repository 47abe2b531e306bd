"""Spans and work counters around calls into semloc, recorded from outside.

The tracer replaces module attributes with timing wrappers, under the names
the callers look them up by (`semloc.pose.p3p_solve` is what
`estimate_pose` calls), and restores them when the traced block ends. Spans
(name, start, end, parent, frame) stay in memory. A forked worker process
inherits the wrappers; it writes its spans and counters to a file when it
exits, and the parent merges them with `collect`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing.util
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import semloc.cli
import semloc.dataio
import semloc.graph
import semloc.pose


def _count_estimate_pose(counts, best_iterations, args, result):
    config = args[2]
    counts["frames"] += 1
    if result.history:
        best_iterations.append(result.history[-1][0])
        if config.early_exit_was is not None and result.history[-1][1] > config.early_exit_was:
            counts["early_exit_frames"] += 1


def _count_score_all_pairs(counts, best_iterations, args, result):
    counts["pairs_scored"] += len(result.prior_ids) * len(result.query_ids)


def _count_extract_candidates(counts, best_iterations, args, result):
    counts["candidate_pairs"] += len(result)


def _count_is_valid_sample(counts, best_iterations, args, result):
    counts["draws"] += 1
    counts["valid_samples"] += bool(result)


def _count_p3p(counts, best_iterations, args, result):
    counts["p3p_calls"] += 1
    counts["p3p_solutions"] += len(result)
    counts["p3p_empty"] += not result


def _count_build_query_graph(counts, best_iterations, args, result):
    counts["query_nodes"] += len(result)
    counts["detections_dropped"] += len(args[0]) - len(result)


def _count_prior_build(counts, best_iterations, args, result):
    counts["prior_builds"] += 1
    counts["prior_edges"] += len(result.edges)


def _count_scored_poses(counts, best_iterations, args, result):
    counts["hypotheses_scored"] += len(args[1])


def _count_read(counts, best_iterations, args, result):
    counts["bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, best_iterations, args, result):
    counts["bytes_written"] += os.path.getsize(args[0])


# (owner, attribute, span name, counter); spans in UNTIMED only count calls
HOOKS = [
    (semloc.graph, "build_query_graph", "graph.build_query_graph", _count_build_query_graph),
    (semloc.cli, "build_query_graph", "graph.build_query_graph", _count_build_query_graph),
    (semloc.graph, "prior_graph_from_nodes", "graph.prior_build", _count_prior_build),
    (semloc.cli, "prior_graph_from_nodes", "graph.prior_build", _count_prior_build),
    (semloc.pose, "estimate_pose", "pose.estimate_pose", _count_estimate_pose),
    (semloc.cli, "estimate_pose", "pose.estimate_pose", _count_estimate_pose),
    (semloc.pose, "score_all_pairs", "matching.score_all_pairs", _count_score_all_pairs),
    (semloc.pose, "extract_candidates", "matching.extract_candidates", _count_extract_candidates),
    (semloc.pose, "is_valid_sample", "pose.is_valid_sample", _count_is_valid_sample),
    (semloc.pose, "p3p_solve", "geometry.p3p_solve", _count_p3p),
    (semloc.pose, "calculate_was", "pose.calculate_was", None),
    (getattr(semloc.pose, "_AlignmentScorer", None), "score", "pose.score_hypotheses", _count_scored_poses),
    (semloc.dataio, "load_detection_log", "dataio.load_detection_log", _count_read),
    (semloc.dataio, "load_map", "dataio.load_map", _count_read),
    (semloc.dataio, "load_intrinsics", "dataio.load_intrinsics", _count_read),
    (semloc.dataio, "save_results", "dataio.save_results", _count_written),
    (semloc.dataio, "save_manifest", "dataio.save_manifest", _count_written),
]
# scoring runs inside the sampling loop, whose self time pose.loop_self_ms includes it
UNTIMED = {"pose.score_hypotheses"}


class Tracer:
    """Collects spans and counters while `active()` has the hooks installed."""

    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.frame = None  # id shared by the spans of one query frame
        self.missing: set[str] = set()  # hooks whose function was not found
        self._pid = os.getpid()
        self.reset()

    def reset(self):
        self.spans: list[tuple[str, float, float, int | None, object]] = []
        self.counts: Counter = Counter()
        self.best_iterations: list[int] = []
        self._stack: list[int] = []

    def _adopt_worker(self):
        # first call in a forked worker: drop the parent's copy, write ours at exit
        self._pid = os.getpid()
        self.reset()
        multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self):
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "best_iterations": self.best_iterations,
        }
        (self.dump_dir / f"trace-{self._pid}.json").write_text(json.dumps(payload))

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:
                self._adopt_worker()
            self.counts["calls." + name] += 1
            if name in UNTIMED:
                result = fn(*args, **kwargs)
            else:
                parent = self._stack[-1] if self._stack else None
                index = len(self.spans)
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, self.frame)
            if count is not None:
                count(self.counts, self.best_iterations, args, result)
            return result

        return functools.wraps(fn)(traced)

    @contextlib.contextmanager
    def active(self):
        """Install the hooks; a hook whose function is gone is listed in `missing`."""
        saved = []
        try:
            for owner, attr, name, count in HOOKS:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.add(f"{name} ({getattr(owner, '__name__', owner)}.{attr})")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def collect(self):
        """Merge the files written by worker processes since the last call."""
        for path in sorted(self.dump_dir.glob("trace-*.json")):
            payload = json.loads(path.read_text())
            path.unlink()
            offset = len(self.spans)
            for name, start, end, parent, frame in payload["spans"]:
                parent = None if parent is None else parent + offset
                self.spans.append((name, start, end, parent, frame))
            self.counts.update(payload["counts"])
            self.best_iterations.extend(payload["best_iterations"])

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        totals: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)


def uncalled(tracer: Tracer, names) -> list[str]:
    """The hooks among `names` that recorded no call since the last reset."""
    return [name for name in names if not tracer.counts["calls." + name]]


def work_counters(tracer: Tracer) -> dict[str, float]:
    """The counters that must repeat exactly for the same inputs."""
    names = ("draws", "valid_samples", "p3p_calls", "p3p_solutions", "pairs_scored", "candidate_pairs")
    counts = {name: tracer.counts[name] for name in names}
    its = tracer.best_iterations
    counts["best_iteration_p50"] = statistics.median(its) if its else 0
    return counts
