import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semloc import (
    BoundingBox,
    CameraIntrinsics,
    DetectionRecord,
    LocalizationStatus,
    MatcherConfig,
    Pose,
    PriorObjectNode,
    generate_scene,
)
from semloc.dataio import (
    FrameRecord,
    FrameResult,
    InputError,
    load_associations,
    load_config_file,
    load_depth,
    load_detection_log,
    load_intrinsics,
    load_map,
    load_results,
    load_scene_landmarks,
    load_trajectory,
    parse_config_text,
    resolve_matcher_config,
    save_associations,
    save_detection_log,
    save_intrinsics,
    save_manifest,
    save_map,
    save_metrics_report,
    save_per_frame_csv,
    save_results,
    save_scene,
    save_trajectory,
)
from semloc.geometry import quat_normalize
from semloc.graph import LabelFrequencyTable

from conftest import random_pose
from test_simulate import _spec


INTR = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)


def _node(node_id, qw=0.9, total=4):
    return PriorObjectNode(
        id=node_id,
        position=np.array([0.1 * node_id, -0.2, 0.3]),
        rotation=quat_normalize([qw, 0.1, -0.3, 0.2]),
        scale=np.array([0.1, 0.2, 0.05]),
        frequencies=LabelFrequencyTable.from_counts({"chair": 3, "stool": 1}, total),
    )


class TestIntrinsics:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "intr.json"
        save_intrinsics(p, INTR)
        loaded = load_intrinsics(p)
        assert loaded == INTR

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="missing file"):
            load_intrinsics(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "intr.json"
        p.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            load_intrinsics(p)

    def test_wrong_shape(self, tmp_path):
        p = tmp_path / "intr.json"
        p.write_text("[1,2,3]")
        with pytest.raises(InputError):
            load_intrinsics(p)


class TestMapFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "map.json"
        nodes = [_node(7), _node(2)]
        save_map(p, nodes, keyframes=[[7, 2], [7]], meta={"K": 5})
        loaded, keyframes, meta = load_map(p)
        # file is sorted by landmark id
        assert [n.id for n in loaded] == [2, 7]
        by_id = {n.id: n for n in loaded}
        for orig in nodes:
            got = by_id[orig.id]
            np.testing.assert_allclose(got.position, orig.position, atol=1e-15)
            np.testing.assert_allclose(got.rotation, orig.rotation, atol=1e-15)
            np.testing.assert_allclose(got.scale, orig.scale, atol=1e-15)
            assert got.frequencies.per_label_counts == orig.frequencies.per_label_counts
            assert got.frequencies.total_detections == orig.frequencies.total_detections
        assert keyframes == [[2, 7], [7]]
        assert meta == {"K": 5}

    def test_no_meta(self, tmp_path):
        p = tmp_path / "map.json"
        save_map(p, [_node(1)], keyframes=[])
        _, keyframes, meta = load_map(p)
        assert keyframes == [] and meta == {}

    def test_rejects_non_map(self, tmp_path):
        p = tmp_path / "map.json"
        p.write_text("{}")
        with pytest.raises(InputError, match="not a map file"):
            load_map(p)

    def test_bad_landmark(self, tmp_path):
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"landmarks": [{"id": 1}]}))
        with pytest.raises(InputError, match="bad map file"):
            load_map(p)


class TestDetectionLog:
    def _frames(self):
        det_a = DetectionRecord(
            BoundingBox(10.0, 20.0, 30.0, 40.0),
            [("chair", 0.8), ("stool", 0.2)],
            np.array([0.1, 0.2, 3.0]),
        )
        det_b = DetectionRecord(BoundingBox(5.0, 5.0, 8.0, 9.0), [("tv", 1.0)], None)
        return [
            FrameRecord(frame_id=0, timestamp=0.5, detections=[det_a, det_b]),
            FrameRecord(frame_id=1, timestamp=0.6, detections=[], depth_file="depth/1.npy"),
        ]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        save_detection_log(p, self._frames())
        loaded = load_detection_log(p)
        assert len(loaded) == 2
        assert loaded[0].frame_id == 0 and loaded[0].timestamp == 0.5
        a, b = loaded[0].detections
        assert a.bbox.as_list() == [10.0, 20.0, 30.0, 40.0]
        assert a.labels == [("chair", 0.8), ("stool", 0.2)]
        np.testing.assert_allclose(a.position, [0.1, 0.2, 3.0])
        assert b.position is None
        assert loaded[0].depth_file is None
        assert loaded[1].depth_file == "depth/1.npy"

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        save_detection_log(p, self._frames()[:1])
        with p.open("a") as fh:
            fh.write("{broken\n")
        with pytest.raises(InputError, match=r":2: invalid JSON"):
            load_detection_log(p)

    def test_missing_field(self, tmp_path):
        p = tmp_path / "dets.jsonl"
        p.write_text('{"frame_id": 0}\n')
        with pytest.raises(InputError, match="bad detection record"):
            load_detection_log(p)


class TestAssociations:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "assoc.jsonl"
        assoc = {3: {0: 10, 1: 11}, 1: {2: 5}}
        save_associations(p, assoc)
        assert load_associations(p) == assoc

    def test_rows_sorted(self, tmp_path):
        p = tmp_path / "assoc.jsonl"
        save_associations(p, {3: {1: 11, 0: 10}, 1: {2: 5}})
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        keys = [(r["frame_id"], r["detection_index"]) for r in rows]
        assert keys == sorted(keys)


class TestTrajectory:
    def test_round_trip(self, tmp_path, rng):
        p = tmp_path / "traj.txt"
        traj = [(0.1 * i, random_pose(rng)) for i in range(5)]
        save_trajectory(p, traj)
        loaded = load_trajectory(p)
        assert len(loaded) == 5
        probe = np.array([0.4, -0.7, 2.0])
        for (ts0, pose0), (ts1, pose1) in zip(traj, loaded):
            assert ts1 == pytest.approx(ts0, abs=1e-9)
            # file stores 9 decimals, so expect quantization-level error
            np.testing.assert_allclose(pose1.transform(probe), pose0.transform(probe), atol=1e-6)
            np.testing.assert_allclose(pose1.camera_center(), pose0.camera_center(), atol=1e-6)

    def test_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("# header\n\n0.0 0 0 0 0 0 0 1\n")
        loaded = load_trajectory(p)
        assert len(loaded) == 1

    def test_field_count_checked(self, tmp_path):
        p = tmp_path / "traj.txt"
        p.write_text("0.0 1 2 3\n")
        with pytest.raises(InputError, match="expected 8 fields"):
            load_trajectory(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "traj.txt"
        save_trajectory(p, [])
        assert load_trajectory(p) == []

    @pytest.mark.parametrize(
        "row, reason",
        [("0.0 0 0 nan 0 0 0 1", "non-finite value"), ("0.0 0 0 0 0 0 0 0", "zero quaternion")],
    )
    def test_bad_row_reports_line(self, tmp_path, row, reason):
        p = tmp_path / "traj.txt"
        p.write_text("# header\n0.0 0 0 0 0 0 0 1\n" + row + "\n")
        with pytest.raises(InputError, match=f"traj.txt:3: bad row: {reason}"):
            load_trajectory(p)


class TestResults:
    def test_round_trip(self, tmp_path, rng):
        p = tmp_path / "results.jsonl"
        pose = random_pose(rng)
        rows = [
            FrameResult(0, 0.5, "success", pose, 0.93, [(1, 0), (4, 2)], 0.12),
            FrameResult(1, 0.6, "insufficient-detections"),
        ]
        save_results(p, rows)
        loaded = load_results(p)
        assert loaded[0].status == "success"
        assert loaded[0].was == pytest.approx(0.93)
        assert loaded[0].correspondences == [(1, 0), (4, 2)]
        assert loaded[0].mean_entropy == pytest.approx(0.12)
        np.testing.assert_allclose(loaded[0].pose.camera_center(), pose.camera_center(), atol=1e-6)
        assert loaded[1].pose is None
        assert loaded[1].correspondences == []
        assert loaded[1].mean_entropy is None

    def test_poses_written_with_the_bits_of_each_inverse(self, tmp_path, rng):
        # the stacked inversion writes what Pose.inverse gives pose by pose,
        # in results and trajectories alike
        poses = [random_pose(rng) for _ in range(40)]
        rows = [FrameResult(i, 0.1 * i, "success", pose, 0.5) for i, pose in enumerate(poses)]
        rows.insert(3, FrameResult(99, 0.35, "insufficient-detections"))
        save_results(tmp_path / "results.jsonl", rows)
        save_trajectory(tmp_path / "traj.txt", [(0.1 * i, pose) for i, pose in enumerate(poses)])
        expected = []
        for pose in poses:
            inv = pose.inverse()
            expected.append([*inv.translation.tolist(), *inv.rotation[1:].tolist(), float(inv.rotation[0])])
        written = [json.loads(line)["pose"] for line in (tmp_path / "results.jsonl").read_text().splitlines()]
        assert written.pop(3) is None
        assert written == expected
        lines = (tmp_path / "traj.txt").read_text().splitlines()
        assert lines == [" ".join(f"{v:.9f}" for v in (0.1 * i, *row)) for i, row in enumerate(expected)]

    def test_bad_record(self, tmp_path):
        p = tmp_path / "results.jsonl"
        p.write_text('{"frame_id": "x"}\n')
        with pytest.raises(InputError, match="bad result record"):
            load_results(p)

    @pytest.mark.parametrize(
        "field, value", [("pose", [0, 0, 0, "nan", 0, 0, 1]), ("timestamp", "inf"), ("was", "nan")]
    )
    def test_non_finite_record_reports_line(self, tmp_path, field, value):
        p = tmp_path / "results.jsonl"
        save_results(p, [FrameResult(i, 0.1 * i, "success", Pose.identity(), 0.9) for i in range(2)])
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        rows[1][field] = [float(v) for v in value] if isinstance(value, list) else float(value)
        p.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(InputError, match="results.jsonl:2: bad result record"):
            load_results(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mean_entropy", "0.5"),
            ("mean_entropy", float("nan")),
            ("mean_entropy", float("inf")),
            ("mean_entropy", True),
            ("mean_entropy", 10**400),
            ("status", "lost"),
            ("status", None),
        ],
        ids=["entropy-str", "entropy-nan", "entropy-inf", "entropy-bool", "entropy-huge-int",
             "status-unknown", "status-null"],
    )
    def test_bad_entropy_or_status_reports_line(self, tmp_path, field, value):
        p = tmp_path / "results.jsonl"
        save_results(p, [FrameResult(i, 0.1 * i, "success", Pose.identity(), 0.9, [], 0.2) for i in range(2)])
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        rows[1][field] = value
        p.write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(InputError, match="results.jsonl:2: bad result record"):
            load_results(p)

    def test_every_status_and_integer_entropy_load(self, tmp_path):
        p = tmp_path / "results.jsonl"
        rows = [{"frame_id": i, "timestamp": 0.1 * i, "status": s.value, "mean_entropy": 1,
                 "pose": [0, 0, 0, 0, 0, 0, 1] if s is LocalizationStatus.SUCCESS else None}
                for i, s in enumerate(LocalizationStatus)]
        p.write_text("".join(json.dumps(r) + "\n" for r in rows))
        loaded = load_results(p)
        assert [r.status for r in loaded] == [s.value for s in LocalizationStatus]
        assert all(r.mean_entropy == 1.0 and isinstance(r.mean_entropy, float) for r in loaded)


class TestScene:
    def test_round_trip(self, tmp_path):
        scene = generate_scene(_spec(n_landmarks=5, clusters=[["a", "b"]], seed=4))
        p = tmp_path / "scene.json"
        save_scene(p, scene)
        loaded = load_scene_landmarks(p)
        assert [lm["id"] for lm in loaded] == [lm.id for lm in scene.landmarks]
        for got, orig in zip(loaded, scene.landmarks):
            np.testing.assert_allclose(got["position"], orig.position, atol=1e-15)
            np.testing.assert_allclose(got["rotation"], orig.rotation, atol=1e-15)
            np.testing.assert_allclose(got["scale"], orig.scale, atol=1e-15)
            assert got["label"] == orig.label
        raw = json.loads(p.read_text())
        assert raw["clusters"] == [["a", "b"]]

    def test_rejects_non_scene(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text('{"foo": 1}')
        with pytest.raises(InputError, match="not a scene file"):
            load_scene_landmarks(p)


class TestConfigText:
    def test_scalar_types(self):
        text = "\n".join(
            [
                "K=5",
                "tau = 2  # trailing comment",
                "C=50.5",
                "use_calp=true",
                "center_boxes=FALSE",
                "early_exit_was=none",
                "name=abc",
                "# full comment",
                "",
            ]
        )
        out = parse_config_text(text)
        assert out == {
            "K": 5,
            "tau": 2,
            "C": 50.5,
            "use_calp": True,
            "center_boxes": False,
            "early_exit_was": None,
            "name": "abc",
        }

    def test_bad_line_reports_source(self):
        with pytest.raises(InputError, match=r"cfg.ini:2: expected key=value"):
            parse_config_text("K=5\nno equals here\n", source="cfg.ini")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="missing file"):
            load_config_file(tmp_path / "nope.ini")


class TestResolveMatcherConfig:
    def test_precedence(self):
        cfg = resolve_matcher_config({"K": 3, "tau": 7}, {"tau": 2})
        assert cfg.K == 3 and cfg.tau == 2
        assert cfg.C == MatcherConfig().C

    def test_none_cli_values_do_not_override(self):
        cfg = resolve_matcher_config({"K": 3}, {"K": None})
        assert cfg.K == 3

    def test_config_none_is_a_value(self):
        # `none` in a file disables early exit; only a None flag means "not given"
        cfg = resolve_matcher_config(parse_config_text("early_exit_was=none"), {})
        assert cfg.early_exit_was is None
        cfg = resolve_matcher_config(
            parse_config_text("early_exit_was=none"), {"early_exit_was": None}
        )
        assert cfg.early_exit_was is None
        with pytest.raises(InputError, match="use_calp must be true or false"):
            resolve_matcher_config(parse_config_text("use_calp=none"), {})

    def test_unknown_key_warned_and_ignored(self, caplog):
        with caplog.at_level("WARNING", logger="semloc.dataio"):
            cfg = resolve_matcher_config({"bogus": 1}, None)
        assert cfg == MatcherConfig()
        assert "unknown config key" in caplog.text

    def test_bad_value_maps_to_input_error(self):
        with pytest.raises(InputError, match="bad configuration"):
            resolve_matcher_config({"K": 0}, None)
        with pytest.raises(InputError, match="bad configuration"):
            resolve_matcher_config({"K": "lots"}, None)


class TestManifestAndReports:
    def test_manifest_is_deterministic(self, tmp_path):
        a = tmp_path / "m1.json"
        b = tmp_path / "m2.json"
        kwargs = dict(
            command="localize",
            config={"K": 5, "tau": 3},
            seed=11,
            inputs={"detections": "q.jsonl", "map": "map.json"},
        )
        save_manifest(a, **kwargs)
        save_manifest(b, **kwargs)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["command"] == "localize" and data["seed"] == 11
        assert "timestamp" not in data

    def test_metrics_report(self, tmp_path):
        p = tmp_path / "report.json"
        save_metrics_report(p, {"f1": 1.0, "mota": {"direct": 0.9}})
        assert json.loads(p.read_text()) == {"f1": 1.0, "mota": {"direct": 0.9}}

    def test_per_frame_csv(self, tmp_path):
        p = tmp_path / "per_frame.csv"
        save_per_frame_csv(
            p,
            [
                {"frame_id": 0, "timestamp": 0.5, "status": "success", "te": 0.01, "was": 0.9},
                {"frame_id": 1, "status": "degenerate"},
            ],
        )
        with p.open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["frame_id"] == "0" and rows[0]["te"] == "0.01"
        assert rows[1]["te"] == "" and rows[1]["status"] == "degenerate"


class TestDepth:
    def test_round_trip(self, tmp_path):
        depth = np.arange(12, dtype=np.float32).reshape(3, 4)
        np.save(tmp_path / "d.npy", depth)
        loaded = load_depth(tmp_path / "d.npy")
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, depth)

    def test_header_asking_for_more_memory_than_exists(self, tmp_path):
        # an 8 TiB shape in a header of unchanged length, followed by 48 bytes of data
        buf = io.BytesIO()
        np.save(buf, np.zeros((2, 3)))
        huge = b"(1048576, 1048576), }"
        raw = buf.getvalue().replace(b"(2, 3), }" + b" " * (len(huge) - 9), huge)
        assert huge in raw
        (tmp_path / "d.npy").write_bytes(raw)
        with pytest.raises(InputError, match="d.npy: bad depth map"):
            load_depth(tmp_path / "d.npy")


# ---------------------------------------------------------------------------
# fuzzing: every loader either loads a file or raises InputError

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 2**64, 1e300, -1.7976931348623157e308, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=6,
)


@st.composite
def mutated(draw, doc):
    """doc with one node replaced by random JSON, dropped from its list or object, or wrapped in a list."""
    action = draw(st.sampled_from(["descend", "descend", "descend", "replace", "wrap"]))
    if action == "replace" or not isinstance(doc, (dict, list)) or not doc:
        return draw(JSON_VALUES)
    if action == "wrap":
        return [doc]
    out = doc.copy()
    key = draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
    if draw(st.integers(0, 4)) == 0:
        del out[key]
    else:
        out[key] = draw(mutated(doc[key]))
    return out


def _json_doc(doc):
    return mutated(doc).map(lambda d: json.dumps(d).encode())


def _jsonl(row):
    # a good row, then the mutated one
    return mutated(row).map(lambda r: (json.dumps(row) + "\n" + json.dumps(r) + "\n").encode())


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


_LANDMARK = {"id": 1, "position": [0.1, 0.2, 1.0], "rotation": [1.0, 0.0, 0.0, 0.0], "scale": [0.1, 0.2, 0.1]}
_NPY = st.builds(
    lambda shape, dtype: _npy(np.ones(shape, dtype)),
    st.lists(st.integers(0, 3), max_size=3),
    st.sampled_from(["<f8", "<f4", "<i2", "|u1", "|b1", "<c16", "O", "<U2"]),
)
FUZZ = {
    "intrinsics": (load_intrinsics, _json_doc(
        {"fx": 525.0, "fy": 525.0, "cx": 319.5, "cy": 239.5, "width": 640, "height": 480})),
    "map": (load_map, _json_doc({
        "landmarks": [
            {**_LANDMARK, "total_detections": 3, "label_counts": {"chair": 2, "stool": 1}},
            {**_LANDMARK, "id": 2, "total_detections": 1, "label_counts": {"tv": 1}},
        ],
        "keyframes": [{"id": 0, "landmark_ids": [1, 2]}],
        "meta": {"K": 5},
    })),
    "scene": (load_scene_landmarks, _json_doc({"landmarks": [{**_LANDMARK, "label": "chair"}]})),
    "detection_log": (load_detection_log, _jsonl({
        "frame_id": 0,
        "timestamp": 0.5,
        "detections": [{"bbox": [1, 2, 30, 40], "labels": [{"label": "cup", "score": 0.9}], "position": [0, 0, 2]}],
        "depth_file": "d.npy",
    })),
    "associations": (load_associations, _jsonl({"frame_id": 0, "detection_index": 1, "landmark_id": 3})),
    "results": (load_results, _jsonl({
        "frame_id": 0, "timestamp": 0.5, "status": "success", "pose": [0, 0, 0, 0, 0, 0, 1],
        "was": 0.9, "correspondences": [[1, 0]], "mean_entropy": 0.2,
    })),
    "trajectory": (load_trajectory, mutated([0.0, 0, 0, 0, 0, 0, 0, 1]).map(
        lambda r: ("# ts tx ty tz qx qy qz qw\n" + (" ".join(map(str, r)) if isinstance(r, list) else str(r))).encode()
    )),
    "config": (load_config_file, st.lists(
        st.tuples(st.text(max_size=4), JSON_LEAVES).map(lambda kv: f"{kv[0]}={kv[1]}"), max_size=3
    ).map(lambda lines: "\n".join(lines).encode())),
    "depth": (load_depth, _NPY | st.tuples(_NPY, st.integers(0, 140)).map(lambda t: t[0][: t[1]])),
}


@pytest.mark.parametrize("name", sorted(FUZZ))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_loader_loads_or_raises_input_error(name, data, tmp_path):
    loader, contents = FUZZ[name]
    path = tmp_path / "input"
    path.write_bytes(data.draw(contents | st.binary(max_size=48)))
    try:
        loader(path)
    except InputError as exc:
        assert str(path) in str(exc)
