"""File formats.

Map JSON, detection logs (JSONL, one frame per line), intrinsics JSON,
TUM-style trajectories, ground-truth association JSONL, localization results
JSONL, flat key=value config files, run manifests, and the metrics report.
All writers emit deterministic bytes for identical inputs (sorted keys, no
wall-clock anywhere).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import logging
import math
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .geometry import BoundingBox, CameraIntrinsics, Pose, quat_normalize, quat_to_rotmat, rotmat_to_quat
from .graph import DetectionRecord, LabelFrequencyTable, PriorObjectNode
from .pose import LocalizationStatus, MatcherConfig

logger = logging.getLogger(__name__)


class InputError(Exception):
    """Malformed or inconsistent input data; maps to CLI exit code 1."""


def _require(cond: bool, message: str):
    if not cond:
        raise InputError(message)


@contextlib.contextmanager
def _malformed(context):
    """Raise what bad input raises in the block (a bad path, cast, lookup or decode, a float
    overflow, a list for an object, deep JSON, a huge .npy) as InputError("context: reason").
    A callable `context` is called on error, so one block over a file's rows names the line."""
    try:
        yield
    except (OSError, LookupError, TypeError, ValueError, ArithmeticError, AttributeError,
            RecursionError, MemoryError) as exc:
        raise InputError(f"{context() if callable(context) else context}: {exc}") from exc


def _int(value) -> int:
    """An id, count or size: an integer, or a float with an integral value.
    Booleans, strings and fractions raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not an integer")
    if (out := int(value)) != value:
        raise ValueError(f"{value!r} is not an integer")
    return out


def _landmark_id(value) -> int:
    """A landmark id: an integer within int64, the range of numpy's integer arrays."""
    if not -(2**63) <= (out := _int(value)) < 2**63:
        raise ValueError(f"landmark id {out} is outside int64")
    return out


def _float(value) -> float:
    """A coordinate, score, time or length: an integer or a float; booleans and strings raise."""
    if isinstance(value, float) or type(value) is int:  # bool is an int subclass
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def _label(value) -> str:
    """A class label: a string; numbers and other values raise."""
    if not isinstance(value, str):
        raise TypeError(f"label {value!r} is not a string")
    return value


def _list(value) -> list:
    """A list field; a string, object or number in its place raises."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


def _read(path) -> bytes:
    """The contents of an input file; a missing or unreadable file is an InputError."""
    path = Path(path)
    _require(path.exists(), f"missing file: {path}")
    with _malformed(f"{path}: unreadable"):
        return path.read_bytes()


def _load_json(path) -> dict:
    with _malformed(f"{path}: invalid JSON"):
        data = json.loads(_read(path).decode("utf-8"))
    _require(isinstance(data, dict), f"{path}: expected a JSON object")
    return data


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _iter_jsonl(path):
    """(line number, parsed object) of each nonblank line."""
    with _malformed(lambda: f"{path}:{lineno}: invalid JSON"):
        for lineno, raw in enumerate(_read(path).splitlines(), start=1):
            if raw.strip():
                row = json.loads(raw.decode("utf-8"))
                if not isinstance(row, dict):
                    raise InputError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, row


# ---------------------------------------------------------------------------
# intrinsics


def save_intrinsics(path, intrinsics: CameraIntrinsics):
    Path(path).write_text(_dump_json(asdict(intrinsics)) + "\n")


def load_intrinsics(path) -> CameraIntrinsics:
    data = _load_json(path)
    with _malformed(f"{path}: bad intrinsics"):
        return CameraIntrinsics(
            fx=_float(data["fx"]),
            fy=_float(data["fy"]),
            cx=_float(data["cx"]),
            cy=_float(data["cy"]),
            width=_int(data["width"]),
            height=_int(data["height"]),
        )


# ---------------------------------------------------------------------------
# landmarks of map and scene files


def _landmark_row(lm) -> dict:
    """The id and geometry of a map node or scene landmark, as a file row holds them."""
    return {
        "id": lm.id,
        "position": [float(v) for v in lm.position],
        "rotation": [float(v) for v in lm.rotation],  # (qw, qx, qy, qz)
        "scale": [float(v) for v in lm.scale],
    }


def _landmark_geometry(row: dict) -> dict:
    """The id and geometry of a map or scene file row: an int64 id, unit quaternion, float arrays."""
    return {
        "id": _landmark_id(row["id"]),
        "position": np.array([_float(v) for v in _list(row["position"])]),
        "rotation": quat_normalize([_float(v) for v in _list(row["rotation"])]),
        "scale": np.array([_float(v) for v in _list(row["scale"])]),
    }


def _unique_ids(ids: list[int]) -> set[int]:
    if len(known := set(ids)) < len(ids):
        raise ValueError(f"duplicate landmark id {Counter(ids).most_common(1)[0][0]}")
    return known


# ---------------------------------------------------------------------------
# map file


def save_map(path, nodes: Sequence[PriorObjectNode], keyframes: Sequence[Sequence[int]], meta: dict | None = None):
    landmarks = [
        {
            **_landmark_row(node),
            "total_detections": node.frequencies.total_detections,
            "label_counts": {k: int(v) for k, v in node.frequencies.per_label_counts.items()},
        }
        for node in sorted(nodes, key=lambda n: n.id)
    ]
    payload: dict = {
        "landmarks": landmarks,
        "keyframes": [
            {"id": i, "landmark_ids": sorted(int(v) for v in members)}
            for i, members in enumerate(keyframes)
        ],
    }
    if meta:
        payload["meta"] = meta
    Path(path).write_text(_dump_json(payload) + "\n")


def load_map(path) -> tuple[list[PriorObjectNode], list[list[int]], dict]:
    data = _load_json(path)
    _require("landmarks" in data, f"{path}: not a map file")
    _require(isinstance(data.get("meta", {}), dict), f"{path}: bad map file: meta must be an object")
    nodes = []
    with _malformed(f"{path}: bad map file"):
        for lm in data["landmarks"]:
            counts = {str(k): _int(v) for k, v in lm["label_counts"].items()}
            freqs = LabelFrequencyTable.from_counts(counts, _int(lm["total_detections"]))
            nodes.append(PriorObjectNode(**_landmark_geometry(lm), frequencies=freqs))
        keyframes = [
            [_int(v) for v in _list(kf["landmark_ids"])] for kf in data.get("keyframes", [])
        ]
        unknown = set().union(*keyframes) - _unique_ids([node.id for node in nodes])
        if unknown:
            raise ValueError(f"keyframe references unknown landmark {min(unknown)}")
    return nodes, keyframes, dict(data.get("meta", {}))


# ---------------------------------------------------------------------------
# detection logs


@dataclass
class FrameRecord:
    frame_id: int
    timestamp: float
    detections: list[DetectionRecord] = field(default_factory=list)
    depth_file: str | None = None


def save_detection_log(path, frames: Sequence[FrameRecord]):
    with Path(path).open("w") as fh:
        for frame in frames:
            dets = []
            for det in frame.detections:
                rec: dict = {
                    "bbox": det.bbox.as_list(),
                    "labels": [{"label": l, "score": float(s)} for l, s in det.labels],
                }
                if det.position is not None:
                    rec["position"] = [float(v) for v in det.position]
                dets.append(rec)
            payload = {
                "frame_id": frame.frame_id,
                "timestamp": frame.timestamp,
                "detections": dets,
            }
            if frame.depth_file is not None:
                payload["depth_file"] = frame.depth_file
            fh.write(_dump_json(payload) + "\n")


def load_detection_log(path) -> list[FrameRecord]:
    frames: dict[int, FrameRecord] = {}
    with _malformed(lambda: f"{path}:{lineno}: bad detection record"):
        for lineno, row in _iter_jsonl(path):
            dets = []
            for rec in row.get("detections", []):
                bbox = BoundingBox(*[_float(v) for v in _list(rec["bbox"])])
                labels = [(_label(e["label"]), _float(e["score"])) for e in _list(rec["labels"])]
                pos = rec.get("position")
                position = None if pos is None else np.array([_float(v) for v in _list(pos)]).reshape(3)
                dets.append(DetectionRecord(bbox, labels, position))
            if not isinstance(row.get("depth_file"), (str, type(None))):
                raise TypeError("depth_file must be a file name")
            # a frame id seeds the frame's sampling loop, which takes no negative seed, and keys its results
            if (frame_id := _int(row["frame_id"])) < 0:
                raise ValueError(f"frame_id {frame_id} is negative")
            if frame_id in frames:
                raise ValueError(f"repeated frame_id {frame_id}")
            if not math.isfinite(timestamp := _float(row["timestamp"])):
                raise ValueError(f"non-finite timestamp {timestamp}")
            frames[frame_id] = FrameRecord(frame_id, timestamp, dets, row.get("depth_file"))
    return list(frames.values())


def load_depth(path) -> np.ndarray:
    """A depth map: a 2-D integer or float array in a .npy file; pickled data is refused."""
    with _malformed(f"{path}: bad depth map"):
        depth = np.lib.format.read_array(io.BytesIO(_read(path)), allow_pickle=False)
        if depth.ndim != 2 or depth.dtype.kind not in "iuf":
            raise ValueError(f"expected a 2-D numeric array, got {depth.dtype} of shape {depth.shape}")
    return depth


# ---------------------------------------------------------------------------
# associations


def save_associations(path, associations: Mapping[int, Mapping[int, int]]):
    with Path(path).open("w") as fh:
        for frame_id in sorted(associations):
            for det_idx in sorted(associations[frame_id]):
                fh.write(
                    _dump_json(
                        {
                            "frame_id": int(frame_id),
                            "detection_index": int(det_idx),
                            "landmark_id": int(associations[frame_id][det_idx]),
                        }
                    )
                    + "\n"
                )


def load_associations(path) -> dict[int, dict[int, int]]:
    out: dict[int, dict[int, int]] = {}
    with _malformed(lambda: f"{path}:{lineno}: bad association record"):
        for lineno, row in _iter_jsonl(path):
            if (det_idx := _int(row["detection_index"])) < 0:
                raise ValueError(f"detection_index {det_idx} is negative")
            frame = out.setdefault(frame_id := _int(row["frame_id"]), {})
            if det_idx in frame:
                raise ValueError(f"repeated row for frame {frame_id}, detection {det_idx}")
            frame[det_idx] = _int(row["landmark_id"])
    return out


# ---------------------------------------------------------------------------
# trajectories (TUM text format; file poses are camera-to-world)


def _tum_rows(poses: Sequence[Pose]) -> list[list[float]]:
    """World-to-camera poses as the TUM values tx ty tz qx qy qz qw of their inverses.

    One stacked pass with the bits of `Pose.inverse` on each pose: rotation
    R^T, through `rotmat_to_quat`, and translation -R^T t, one stacked
    matrix-vector product.
    """
    if not poses:
        return []
    r = quat_to_rotmat(np.reshape([pose.rotation for pose in poses], (-1, 4))).swapaxes(1, 2)
    t = np.matmul(-r, np.reshape([pose.translation for pose in poses], (-1, 3, 1)))[..., 0]
    q = rotmat_to_quat(r)
    return np.concatenate((t, q[:, 1:], q[:, :1]), axis=1).tolist()


def _pose_from_tum_row(values: Sequence[float]) -> Pose:
    """The world-to-camera pose whose camera-to-world TUM values these are."""
    tx, ty, tz, qx, qy, qz, qw = values
    r = quat_to_rotmat(quat_normalize([qw, qx, qy, qz])).T
    with np.errstate(over="raise"):  # a translation too large to rotate is malformed
        return Pose.from_rt(r, -r @ np.array([tx, ty, tz]))


def save_trajectory(path, trajectory: Sequence[tuple[float, Pose]]):
    rows = _tum_rows([pose for _, pose in trajectory])
    lines = [" ".join(f"{v:.9f}" for v in (ts, *row)) for (ts, _), row in zip(trajectory, rows)]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_trajectory(path) -> list[tuple[float, Pose]]:
    out = []
    # bytes: float() takes them, and a non-UTF-8 byte fails the row that holds it
    with _malformed(lambda: f"{path}:{lineno}: bad row"):
        for lineno, line in enumerate(_read(path).splitlines(), start=1):
            parts = line.split()
            if not parts or parts[0].startswith(b"#"):
                continue
            if len(parts) != 8:
                raise ValueError("expected 8 fields")
            vals = [float(v) for v in parts]
            if not all(map(math.isfinite, vals)):
                raise ValueError("non-finite value")
            out.append((vals[0], _pose_from_tum_row(vals[1:])))
    return out


# ---------------------------------------------------------------------------
# localization results


@dataclass
class FrameResult:
    frame_id: int
    timestamp: float
    status: str
    pose: Pose | None = None
    was: float = 0.0
    correspondences: list[tuple[int, int]] = field(default_factory=list)
    mean_entropy: float | None = None


def save_results(path, results: Sequence[FrameResult]):
    rows = iter(_tum_rows([res.pose for res in results if res.pose is not None]))
    with Path(path).open("w") as fh:
        for res in results:
            fh.write(
                _dump_json(
                    {
                        "frame_id": res.frame_id,
                        "timestamp": res.timestamp,
                        "status": res.status,
                        "pose": None if res.pose is None else next(rows),
                        "was": res.was,
                        "correspondences": [[int(p), int(q_)] for p, q_ in res.correspondences],
                        "mean_entropy": res.mean_entropy,
                    }
                )
                + "\n"
            )


def load_results(path) -> list[FrameResult]:
    out: dict[int, FrameResult] = {}
    with _malformed(lambda: f"{path}:{lineno}: bad result record"):
        for lineno, row in _iter_jsonl(path):
            pose = None
            if row.get("pose") is not None:
                pose = _pose_from_tum_row([_float(v) for v in _list(row["pose"])])
            timestamp, was = _float(row["timestamp"]), _float(row.get("was", 0.0))
            entropy = row.get("mean_entropy")
            if entropy is not None:
                entropy = _float(entropy)
            if not all(map(math.isfinite, (timestamp, was, entropy or 0.0))):
                raise ValueError("non-finite timestamp, was or mean_entropy")
            status = LocalizationStatus(row["status"]).value
            # a frame has a pose exactly when it is localized
            if (status == "success") != (pose is not None):
                raise ValueError(f"status {status} {'without' if pose is None else 'with'} a pose")
            if (frame_id := _int(row["frame_id"])) in out:
                raise ValueError(f"repeated frame_id {frame_id}")
            out[frame_id] = FrameResult(
                frame_id=frame_id,
                timestamp=timestamp,
                status=status,
                pose=pose,
                was=was,
                correspondences=[(_int(p), _int(q)) for p, q in _list(row.get("correspondences", []))],
                mean_entropy=entropy,
            )
    return list(out.values())


# ---------------------------------------------------------------------------
# scene files (simulator output; priors are ingested from here)


def save_scene(path, scene):
    payload = {
        "workspace": {
            "min": [float(v) for v in scene.spec.bounds[0]],
            "max": [float(v) for v in scene.spec.bounds[1]],
        },
        "vocabulary": list(scene.spec.vocabulary),
        "clusters": [list(c) for c in scene.spec.clusters],
        "confusion_rate": scene.spec.confusion_rate,
        "landmarks": [{**_landmark_row(lm), "label": lm.label} for lm in scene.landmarks],
    }
    Path(path).write_text(_dump_json(payload) + "\n")


def load_scene_landmarks(path) -> list[dict]:
    data = _load_json(path)
    _require("landmarks" in data, f"{path}: not a scene file")
    out = []
    with _malformed(f"{path}: bad scene file"):
        for lm in data["landmarks"]:
            out.append({**_landmark_geometry(lm), "label": _label(lm["label"])})
            if not all(np.isfinite(out[-1][k]).all() for k in ("position", "rotation", "scale")):
                raise ValueError(f"landmark {out[-1]['id']}: non-finite position, rotation or scale")
        _unique_ids([lm["id"] for lm in out])
    return out


# ---------------------------------------------------------------------------
# config files and manifests


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        _require("=" in line, f"{source}:{lineno}: expected key=value")
        key, value = [part.strip() for part in line.split("=", 1)]
        out[key] = _parse_scalar(value)
    return out


def _parse_scalar(value: str):
    low = value.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def load_config_file(path) -> dict:
    with _malformed(str(path)):
        return parse_config_text(_read(path).decode("utf-8"), source=str(path))


# the matcher's knobs and their defaults, in field order
MATCHER_DEFAULTS = {f.name: f.default for f in fields(MatcherConfig)}


def resolve_values(
    defaults: Mapping[str, object],
    file_values: Mapping[str, object] | None,
    cli_values: Mapping[str, object] | None,
) -> dict:
    """Defaults, overridden by config file, overridden by explicit CLI values.

    A None CLI value is a flag that was not given; a None file value (`none`
    in the file) sets the key to None. Keys without a default are logged and
    ignored.
    """
    flags = {key: value for key, value in (cli_values or {}).items() if value is not None}
    out = dict(defaults)
    for key, value in {**(file_values or {}), **flags}.items():
        if key in defaults:
            out[key] = value
        else:
            logger.warning("ignoring unknown config key %r", key)
    return out


def resolve_matcher_config(
    file_values: Mapping[str, object] | None,
    cli_values: Mapping[str, object] | None,
    source: str = "flags",
) -> MatcherConfig:
    """The matcher configuration from `resolve_values`; bad values raise InputError naming `source`."""
    with _malformed(f"bad configuration ({source})"):
        return MatcherConfig(**resolve_values(MATCHER_DEFAULTS, file_values, cli_values))


def save_manifest(path, command: str, config: Mapping[str, object], seed: int, inputs: Mapping[str, object]):
    save_metrics_report(path, {"command": command, "config": dict(config), "seed": seed, "inputs": dict(inputs)})


# ---------------------------------------------------------------------------
# metrics report


def save_metrics_report(path, report: Mapping[str, object]):
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def save_per_frame_csv(path, rows: Sequence[Mapping[str, object]]):
    fields = ["frame_id", "timestamp", "status", "te", "was", "n_correspondences", "tp", "fp", "fn"]
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
