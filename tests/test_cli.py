import io
import json
import pickle

import numpy as np
import pytest

from semloc import CameraIntrinsics, Pose, cli
from semloc.cli import main
from semloc.dataio import (
    FrameRecord,
    FrameResult,
    load_map,
    load_results,
    save_detection_log,
    save_intrinsics,
    save_map,
    save_results,
)

from conftest import large_object_frame


SIM_FLAGS = [
    "--n-landmarks", "12",
    "--n-keyframes", "12",
    "--n-frames", "5",
    "--unique-labels",
    "--seed", "3",
]

SIM_FILES = [
    "intrinsics.json",
    "scene.json",
    "keyframes.jsonl",
    "query.jsonl",
    "keyframe_associations.jsonl",
    "gt_associations.jsonl",
    "keyframe_trajectory.txt",
    "gt_trajectory.txt",
    "manifest.json",
]


def _simulate_and_map(root, flags):
    sim = root / "sim"
    assert main(["simulate", "--output", str(sim)] + flags) == 0
    assert (
        main(
            [
                "build-map",
                "--scene", str(sim / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(root / "map.json"),
            ]
        )
        == 0
    )
    return root


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return _simulate_and_map(tmp_path_factory.mktemp("pipeline"), SIM_FLAGS)


@pytest.fixture(scope="module")
def long_dataset(tmp_path_factory):
    """11 query frames: over 2 workers they go in chunks of 2, the last chunk of 1."""
    return _simulate_and_map(tmp_path_factory.mktemp("long"), SIM_FLAGS + ["--n-frames", "11"])


def _localize(dataset, out_name, *extra, threads="1", seed="7"):
    """localize on the dataset's query log; threads or seed None leaves its flag out."""
    sim = dataset / "sim"
    argv = [
        "localize",
        "--detections", str(sim / "query.jsonl"),
        "--intrinsics", str(sim / "intrinsics.json"),
        "--map", str(dataset / "map.json"),
        "--output", str(dataset / out_name),
        *(["--threads", threads] if threads else []),
        *(["--seed", seed] if seed else []),
        *extra,
    ]
    return main(argv)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and what map is
    sent, and runs in process."""

    sizes: list = []
    sent: list = []  # (items, chunksize) per map call

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        items = list(items)
        self.sent.append((items, chunksize))
        return map(fn, items)


class TestSimulate:
    def test_writes_expected_files(self, dataset):
        for name in SIM_FILES:
            assert (dataset / "sim" / name).exists(), name

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        again = tmp_path / "sim2"
        assert main(["simulate", "--output", str(again)] + SIM_FLAGS) == 0
        for name in SIM_FILES:
            assert (again / name).read_bytes() == (dataset / "sim" / name).read_bytes(), name

    def test_bad_bounds_is_input_error(self, tmp_path):
        code = main(
            ["simulate", "--output", str(tmp_path / "x"), "--bounds", "1,2;3,4,5"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--fx", "-1"], None),
            (["--n-frames", "-1"], None),
            ([], "fx=abc\n"),
            ([], "fx=none\n"),
            ([], "center_boxes=none\n"),
            (["--temperature", "nan"], None),
            (["--bbox-jitter", "nan"], None),
            (["--depth-sigma", "nan"], None),
            (["--bbox-jitter", "inf"], None),
            (["--scale-min", "nan", "--scale-max", "nan"], None),
            (["--scale-max", "1e200"], None),
            (["--min-separation", "nan"], None),
            (["--bounds=-2,-2,0;2,2,inf"], None),
        ],
        ids=[
            "negative-fx",
            "negative-n-frames",
            "config-fx-abc",
            "config-fx-none",
            "config-center-boxes-none",
            "temperature-nan",
            "bbox-jitter-nan",
            "depth-sigma-nan",
            "bbox-jitter-inf",
            "scale-range-nan",
            "scale-max-squares-to-inf",
            "min-separation-nan",
            "bounds-inf",
        ],
    )
    def test_bad_values_are_input_errors(self, tmp_path, capsys, flags, config):
        argv = ["simulate", "--output", str(tmp_path / "x")] + SIM_FLAGS + flags
        if config is not None:
            (tmp_path / "sim.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "sim.cfg")]
        assert main(argv) == 1
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_config_key_is_ignored(self, dataset, tmp_path, caplog):
        (tmp_path / "sim.cfg").write_text("one_to_one=true\n")
        argv = ["simulate", "--output", str(tmp_path / "sim"), "--config", str(tmp_path / "sim.cfg")]
        with caplog.at_level("WARNING"):
            assert main(argv + SIM_FLAGS) == 0
        assert "ignoring unknown config key 'one_to_one'" in caplog.text
        for name in SIM_FILES[:-1]:  # the manifest names the config file
            assert (tmp_path / "sim" / name).read_bytes() == (dataset / "sim" / name).read_bytes()


class TestBuildMap:
    def test_map_contents(self, dataset):
        nodes, keyframes, meta = load_map(dataset / "map.json")
        assert len(nodes) == 12
        assert len(keyframes) == 12
        assert meta == {"K": 5}

    def test_missing_scene_is_input_error(self, dataset, tmp_path):
        sim = dataset / "sim"
        code = main(
            [
                "build-map",
                "--scene", str(tmp_path / "nope.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "map.json"),
            ]
        )
        assert code == 1

    def test_non_finite_scene_is_input_error(self, dataset, tmp_path, capsys):
        sim = dataset / "sim"
        data = json.loads((sim / "scene.json").read_text())
        data["landmarks"][2]["scale"][0] = float("inf")
        (tmp_path / "scene.json").write_text(json.dumps(data))
        code = main(
            [
                "build-map",
                "--scene", str(tmp_path / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "map.json"),
            ]
        )
        assert code == 1
        assert "scene.json: bad scene file" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [0.0, 1e200], ids=["zero", "squares-to-inf"])
    def test_bad_scene_scale_is_input_error(self, dataset, tmp_path, capsys, scale):
        sim = dataset / "sim"
        data = json.loads((sim / "scene.json").read_text())
        data["landmarks"][2]["scale"][0] = scale
        (tmp_path / "scene.json").write_text(json.dumps(data))
        lm_id = data["landmarks"][2]["id"]
        code = main(
            [
                "build-map",
                "--scene", str(tmp_path / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "map.json"),
            ]
        )
        assert code == 1
        assert f"landmark {lm_id}: scale" in capsys.readouterr().err
        assert not (tmp_path / "map.json").exists()
        code = main(
            [
                "localize",
                "--detections", str(sim / "query.jsonl"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--scene", str(tmp_path / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--keyframe-associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "run"),
                "--threads", "1",
            ]
        )
        assert code == 1
        assert f"landmark {lm_id}: scale" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index, fragment",
        [
            (-1, "keyframe_associations.jsonl:2: bad association record: detection_index -1 is negative"),
            (999, "keyframe 0: association names detection 999, but the frame has 12 detections"),
        ],
        ids=["negative", "past-the-frame"],
    )
    def test_association_to_a_missing_detection_is_input_error(self, dataset, tmp_path, capsys, index, fragment):
        sim = dataset / "sim"
        assoc = tmp_path / "keyframe_associations.jsonl"
        assoc.write_bytes(_row(sim / "keyframe_associations.jsonl", 2, lambda r: _set(r, ("detection_index",), index)))
        argv = ["build-map", "--scene", str(sim / "scene.json"), "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(assoc), "--output", str(tmp_path / "map.json")]
        _assert_input_error(capsys, argv, fragment)
        assert not (tmp_path / "map.json").exists()

    def test_zero_k_is_input_error(self, dataset, tmp_path, capsys):
        sim = dataset / "sim"
        code = main(
            [
                "build-map",
                "--scene", str(sim / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "map.json"),
                "--K", "0",
            ]
        )
        assert code == 1
        assert "Traceback" not in capsys.readouterr().err


class TestLocalize:
    def test_noise_free_run_succeeds(self, dataset):
        assert _localize(dataset, "run_map") == 0
        results = load_results(dataset / "run_map" / "results.jsonl")
        assert len(results) == 5
        assert all(r.status == "success" for r in results)
        assert (dataset / "run_map" / "manifest.json").exists()

    def test_depth_file_frame_of_large_objects_succeeds(self, tmp_path):
        # positions read off a depth map sit on the objects' visible surfaces,
        # up to 0.7 m nearer the camera than the centres the map holds
        intrinsics = CameraIntrinsics(525.0, 525.0, 319.5, 239.5, 640, 480)
        nodes, detections, depth, pose = large_object_frame(intrinsics)
        save_map(tmp_path / "map.json", nodes, [])
        save_intrinsics(tmp_path / "intrinsics.json", intrinsics)
        np.save(tmp_path / "d.npy", depth)
        save_detection_log(tmp_path / "query.jsonl", [FrameRecord(0, 0.0, detections, depth_file="d.npy")])
        argv = ["localize", "--detections", str(tmp_path / "query.jsonl")]
        argv += ["--intrinsics", str(tmp_path / "intrinsics.json"), "--map", str(tmp_path / "map.json")]
        argv += ["--output", str(tmp_path / "run"), "--threads", "1", "--k-edge", "3"]
        assert main(argv) == 0
        [result] = load_results(tmp_path / "run" / "results.jsonl")
        assert result.status == "success"
        assert sorted(result.correspondences) == [(node.id, i) for i, node in enumerate(nodes)]
        assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-6

    def test_rerun_is_byte_identical(self, dataset):
        assert _localize(dataset, "run_again") == 0
        a = (dataset / "run_map" / "results.jsonl").read_bytes()
        b = (dataset / "run_again" / "results.jsonl").read_bytes()
        assert a == b

    def test_rebuilding_map_from_scene_matches(self, dataset):
        sim = dataset / "sim"
        code = main(
            [
                "localize",
                "--detections", str(sim / "query.jsonl"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--scene", str(sim / "scene.json"),
                "--keyframes", str(sim / "keyframes.jsonl"),
                "--keyframe-associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(dataset / "run_rebuild"),
                "--threads", "1",
                "--seed", "7",
            ]
        )
        assert code == 0
        a = (dataset / "run_map" / "results.jsonl").read_bytes()
        b = (dataset / "run_rebuild" / "results.jsonl").read_bytes()
        assert a == b

    def test_map_with_landmarks_in_reverse_order_matches(self, dataset, tmp_path):
        # the prior graph holds its landmarks in id order, whatever the map file's order
        flipped = tmp_path / "map.json"
        flipped.write_bytes(_doc(dataset / "map.json", lambda m: _set(m, ("landmarks",), m["landmarks"][::-1])))
        ids = [lm["id"] for lm in json.loads(flipped.read_text())["landmarks"]]
        assert ids == sorted(ids, reverse=True)
        sim = dataset / "sim"
        code = main(
            [
                "localize",
                "--detections", str(sim / "query.jsonl"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--map", str(flipped),
                "--output", str(dataset / "run_flipped_map"),
                "--threads", "1",
                "--seed", "7",
            ]
        )
        assert code == 0
        a = (dataset / "run_map" / "results.jsonl").read_bytes()
        assert (dataset / "run_flipped_map" / "results.jsonl").read_bytes() == a

    def test_k_mismatch_warns(self, dataset, caplog):
        with caplog.at_level("WARNING", logger="semloc.cli"):
            assert _localize(dataset, "run_k3", "--K", "3") == 0
        assert "map was built at K=5" in caplog.text

    def test_missing_detections_is_input_error(self, dataset, tmp_path):
        sim = dataset / "sim"
        code = main(
            [
                "localize",
                "--detections", str(tmp_path / "nope.jsonl"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--map", str(dataset / "map.json"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_map_or_scene_required(self, dataset, tmp_path):
        sim = dataset / "sim"
        code = main(
            [
                "localize",
                "--detections", str(sim / "query.jsonl"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 1

    def test_bad_sweep_spec_is_input_error(self, dataset, tmp_path):
        assert _localize(dataset, "unused", "--sweep", "bogus=1,2") == 1
        assert _localize(dataset, "unused", "--sweep", "K") == 1

    def test_bad_sweep_value_fails_before_any_run(self, dataset, capsys):
        # K=1 is fine and comes first; K=0 is not, and nothing may run before it fails
        assert _localize(dataset, "sweep_bad", "--sweep", "K=1,0") == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (dataset / "sweep_bad").exists()

    @pytest.mark.parametrize("out_name, sweep", [("badrun", []), ("badsweep", ["--sweep", "K=1,3"])])
    def test_bad_map_makes_no_run_directory(self, dataset, tmp_path, capsys, out_name, sweep):
        bad = tmp_path / "badmap.json"
        bad.write_text(json.dumps({"landmarks": [{"id": 1}]}))
        sim = dataset / "sim"
        argv = ["localize", "--detections", str(sim / "query.jsonl"), "--intrinsics", str(sim / "intrinsics.json"),
                "--map", str(bad), "--output", str(tmp_path / out_name), "--threads", "1", *sweep]
        _assert_input_error(capsys, argv, "bad map file")
        assert not (tmp_path / out_name).exists()

    def test_sweep_builds_one_prior_graph_per_key(self, dataset, monkeypatch):
        calls = []
        for owner, name in ((cli.dataio, "load_map"), (cli, "_accumulate_map"), (cli, "prior_graph_from_nodes")):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
        assert _localize(dataset, "sweep_tau", "--sweep", "tau=1,2,3") == 0
        assert calls == ["load_map", "prior_graph_from_nodes"]
        # with --map, a graph per k_edge; rebuilt from the scene, a graph per (K, k_edge)
        calls.clear()
        assert _localize(dataset, "sweep_k_edge", "--sweep", "k_edge=3,5", "--sweep", "K=1,3") == 0
        assert calls == ["load_map"] + ["prior_graph_from_nodes"] * 2
        calls.clear()
        sim = dataset / "sim"
        argv = ["localize", "--detections", str(sim / "query.jsonl"), "--intrinsics", str(sim / "intrinsics.json"),
                "--scene", str(sim / "scene.json"), "--keyframes", str(sim / "keyframes.jsonl"),
                "--keyframe-associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(dataset / "sweep_rebuild"), "--threads", "1", "--sweep", "K=1,3", "--sweep", "tau=1,2"]
        assert main(argv) == 0
        assert calls == ["_accumulate_map"] * 2 + ["prior_graph_from_nodes"] * 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_is_input_error(self, dataset, capsys, threads):
        assert _localize(dataset, "threads_bad", threads=threads) == 1
        assert capsys.readouterr().err.startswith("error: --threads must be at least 1")
        assert not (dataset / "threads_bad").exists()

    @pytest.mark.parametrize("how", ["flag", "config", "sweep"])
    def test_negative_seed_fails_before_any_run(self, dataset, tmp_path, capsys, how):
        (tmp_path / "loc.cfg").write_text("rng_seed=-1\n")
        if how == "flag":
            code = _localize(dataset, "seed_bad", seed="-1")
        elif how == "config":
            code = _localize(dataset, "seed_bad", "--config", str(tmp_path / "loc.cfg"), seed=None)
        else:
            code = _localize(dataset, "seed_bad", "--sweep", "rng_seed=0,-1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rng_seed must be nonnegative" in err
        assert not (dataset / "seed_bad").exists()

    # the dataset has 5 query frames; no worker process is ever started here
    @pytest.mark.parametrize(
        "threads, cores, workers",
        [("5000", 2, [2]), ("3", 8, [3]), ("5000", 64, [5]), (None, 4, [4]), ("1", 8, [])],
    )
    def test_workers_are_bounded(self, dataset, monkeypatch, threads, cores, workers):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert _localize(dataset, "run_pool", threads=threads) == 0
        assert _RecordingPool.sizes == workers
        a = (dataset / "run_map" / "results.jsonl").read_bytes()
        assert (dataset / "run_pool" / "results.jsonl").read_bytes() == a

    def test_pool_is_sent_each_frame_index_once_in_chunks(self, long_dataset, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(_RecordingPool, "sent", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert _localize(long_dataset, "run_pool", threads="2") == 0
        [(items, chunksize)] = _RecordingPool.sent
        n = len((long_dataset / "sim" / "query.jsonl").read_text().splitlines())
        assert items == list(range(n))  # every frame index once, in order
        # chunks of several frames, at most four per worker, the last one short
        assert chunksize > 1 and -(-n // chunksize) <= 4 * _RecordingPool.sizes[0] and n % chunksize

    def test_process_pool_writes_the_serial_bytes(self, long_dataset, monkeypatch):
        # two real workers on a frame count that is not a multiple of the chunk size
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert _localize(long_dataset, "real_pool", threads="2") == 0
        assert _localize(long_dataset, "real_serial", threads="1") == 0
        results = load_results(long_dataset / "real_serial" / "results.jsonl")
        assert [r.frame_id for r in results] == list(range(11))
        a = (long_dataset / "real_serial" / "results.jsonl").read_bytes()
        assert (long_dataset / "real_pool" / "results.jsonl").read_bytes() == a

    def test_non_integer_count_is_input_error(self, dataset, tmp_path):
        (tmp_path / "loc.cfg").write_text("tau=2.5\n")
        assert _localize(dataset, "unused", "--config", str(tmp_path / "loc.cfg")) == 1
        assert _localize(dataset, "unused", "--sweep", "tau=2.5") == 1

    @pytest.mark.parametrize(
        "line", ["C=nan", "C=inf", "early_exit_was=abc", "early_exit_was=nan"]
    )
    def test_non_finite_config_value_is_input_error(self, dataset, tmp_path, line):
        (tmp_path / "loc.cfg").write_text(line + "\n")
        assert _localize(dataset, "unused", "--config", str(tmp_path / "loc.cfg")) == 1

    def test_non_finite_map_is_input_error(self, dataset, tmp_path, capsys):
        data = json.loads((dataset / "map.json").read_text())
        data["landmarks"][0]["position"][1] = float("nan")
        (tmp_path / "map.json").write_text(json.dumps(data))
        assert _localize(dataset, "unused", "--map", str(tmp_path / "map.json")) == 1
        assert "map.json: bad map file" in capsys.readouterr().err

    def test_map_scale_squaring_to_inf_is_input_error(self, dataset, tmp_path, capsys):
        data = json.loads((dataset / "map.json").read_text())
        data["landmarks"][0]["scale"][0] = 1e200
        (tmp_path / "map.json").write_text(json.dumps(data))
        assert _localize(dataset, "unused", "--map", str(tmp_path / "map.json")) == 1
        assert "map.json: bad map file: scale squared must be finite" in capsys.readouterr().err

    def test_infinite_bbox_is_input_error(self, dataset, tmp_path, capsys):
        lines = (dataset / "sim" / "query.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        row["detections"][0]["bbox"][2] = float("inf")
        lines[1] = json.dumps(row)
        (tmp_path / "query.jsonl").write_text("\n".join(lines) + "\n")
        assert "Infinity" in lines[1]
        assert _localize(dataset, "unused", "--detections", str(tmp_path / "query.jsonl")) == 1
        err = capsys.readouterr().err
        assert "query.jsonl:2: bad detection record" in err and "must be finite" in err

    def test_non_finite_intrinsics_is_input_error(self, dataset, tmp_path, capsys):
        data = json.loads((dataset / "sim" / "intrinsics.json").read_text())
        data["fx"] = float("nan")
        (tmp_path / "intrinsics.json").write_text(json.dumps(data))
        assert '"fx": NaN' in (tmp_path / "intrinsics.json").read_text()
        assert _localize(dataset, "unused", "--intrinsics", str(tmp_path / "intrinsics.json")) == 1
        assert "intrinsics.json: bad intrinsics" in capsys.readouterr().err

    def test_unknown_config_key_is_ignored(self, dataset, tmp_path, caplog):
        (tmp_path / "loc.cfg").write_text("one_to_one=true\n")
        with caplog.at_level("WARNING"):
            assert _localize(dataset, "run_unknown_key", "--config", str(tmp_path / "loc.cfg")) == 0
        assert "ignoring unknown config key 'one_to_one'" in caplog.text
        a = (dataset / "run_map" / "results.jsonl").read_bytes()
        assert (dataset / "run_unknown_key" / "results.jsonl").read_bytes() == a

    def test_internal_error_exits_two(self, dataset, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(cli, "estimate_pose", boom)
        assert _localize(dataset, "run_boom") == 2

    def test_sweep_creates_run_dirs(self, dataset):
        assert _localize(dataset, "sweep", "--sweep", "K=1,3") == 0
        for name in ("K=1", "K=3"):
            run = dataset / "sweep" / name
            assert (run / "results.jsonl").exists()
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["config"]["K"] == int(name.split("=")[1])

    def test_none_disables_early_exit(self, dataset, tmp_path):
        assert _localize(dataset, "sweep_exit", "--sweep", "early_exit_was=none,0.99") == 0
        for name, want in (("early_exit_was=None", None), ("early_exit_was=0.99", 0.99)):
            manifest = json.loads((dataset / "sweep_exit" / name / "manifest.json").read_text())
            assert manifest["config"]["early_exit_was"] == want
        (tmp_path / "loc.cfg").write_text("early_exit_was=none\n")
        assert _localize(dataset, "run_no_exit", "--config", str(tmp_path / "loc.cfg")) == 0
        manifest = json.loads((dataset / "run_no_exit" / "manifest.json").read_text())
        assert manifest["config"]["early_exit_was"] is None
        a = (dataset / "sweep_exit" / "early_exit_was=None" / "results.jsonl").read_bytes()
        assert (dataset / "run_no_exit" / "results.jsonl").read_bytes() == a


def _evaluate(dataset, results, output):
    sim = dataset / "sim"
    return main(["evaluate", "--results", str(results), "--gt-trajectory", str(sim / "gt_trajectory.txt"),
                 "--gt-associations", str(sim / "gt_associations.jsonl"), "--output", str(output)])


class TestEvaluate:
    def test_single_run_report(self, dataset, capsys):
        sim = dataset / "sim"
        code = main(
            [
                "evaluate",
                "--results", str(dataset / "run_map"),
                "--gt-trajectory", str(sim / "gt_trajectory.txt"),
                "--gt-associations", str(sim / "gt_associations.jsonl"),
                "--map", str(dataset / "map.json"),
                "--intrinsics", str(sim / "intrinsics.json"),
                "--detections", str(sim / "query.jsonl"),
                "--output", str(dataset / "eval_map"),
            ]
        )
        assert code == 0
        report = json.loads((dataset / "eval_map" / "report.json").read_text())
        assert report["n_frames"] == 5
        assert report["statuses"] == {"success": 5}
        assert report["association"]["f1"] == 1.0
        assert report["mota_direct"] == 1.0
        assert report["mota_rematch"] == 1.0
        assert report["mean_te"] < 1e-3
        assert report["success_rate"]["0.5"]["succ"] == 100.0
        assert report["success_rate"]["0.5"]["all"] == 100.0
        assert report["entropy_mean"] == 0.0
        csv_text = (dataset / "eval_map" / "per_frame.csv").read_text().splitlines()
        assert len(csv_text) == 6  # header + 5 frames
        out = capsys.readouterr().out
        assert "f1=1.0000" in out

    def test_sweep_combined_report(self, dataset):
        code = main(
            [
                "evaluate",
                "--results", str(dataset / "sweep"),
                "--gt-trajectory", str(dataset / "sim" / "gt_trajectory.txt"),
                "--gt-associations", str(dataset / "sim" / "gt_associations.jsonl"),
                "--output", str(dataset / "eval_sweep"),
            ]
        )
        assert code == 0
        combined = json.loads((dataset / "eval_sweep" / "report.json").read_text())
        assert set(combined["runs"]) == {"K=1", "K=3"}
        for name in ("K=1", "K=3"):
            assert (dataset / "eval_sweep" / name / "report.json").exists()

    def test_non_finite_trajectory_is_input_error(self, dataset, tmp_path, capsys):
        rows = (dataset / "sim" / "gt_trajectory.txt").read_text().splitlines()
        rows[1] = " ".join(["nan"] * 8)
        (tmp_path / "gt.txt").write_text("\n".join(rows) + "\n")
        assert _localize(dataset, "run_nan_gt") == 0
        code = main(
            [
                "evaluate",
                "--results", str(dataset / "run_nan_gt"),
                "--gt-trajectory", str(tmp_path / "gt.txt"),
                "--output", str(tmp_path / "eval"),
            ]
        )
        assert code == 1
        assert "gt.txt:2: bad row: non-finite value" in capsys.readouterr().err

    def test_missing_results_is_input_error(self, tmp_path):
        assert main(["evaluate", "--results", str(tmp_path / "nothing")]) == 1

    def test_results_file_and_run_dir_give_the_same_report(self, dataset, tmp_path):
        assert _localize(dataset, "run_eval") == 0
        assert _evaluate(dataset, dataset / "run_eval" / "results.jsonl", tmp_path / "file") == 0
        assert _evaluate(dataset, dataset / "run_eval", tmp_path / "dir") == 0
        for out in ("report.json", "per_frame.csv"):
            assert (tmp_path / "file" / out).read_bytes() == (tmp_path / "dir" / out).read_bytes()
        assert "runs" not in json.loads((tmp_path / "dir" / "report.json").read_text())

    def test_each_sweep_run_reports_as_if_alone(self, dataset, tmp_path):
        assert _localize(dataset, "sweep_eval", "--sweep", "K=1,3") == 0
        sweep = dataset / "sweep_eval"
        assert _evaluate(dataset, sweep, tmp_path / "all") == 0
        combined = json.loads((tmp_path / "all" / "report.json").read_text())
        assert set(combined["runs"]) == {"K=1", "K=3"}
        for name in combined["runs"]:
            assert _evaluate(dataset, sweep / name, tmp_path / name) == 0
            for out in ("report.json", "per_frame.csv"):
                assert (tmp_path / name / out).read_bytes() == (tmp_path / "all" / name / out).read_bytes()
            assert combined["runs"][name] == json.loads((tmp_path / name / "report.json").read_text())

    def test_frame_without_ground_truth_warns_once_per_prediction_set(self, dataset, tmp_path, caplog):
        sim = dataset / "sim"
        rows = (sim / "gt_associations.jsonl").read_text().splitlines()
        (tmp_path / "gt.jsonl").write_text("".join(r + "\n" for r in rows if json.loads(r)["frame_id"] != 2))
        assert _localize(dataset, "run_gt_gap") == 0
        argv = ["evaluate", "--results", str(dataset / "run_gt_gap"), "--gt-trajectory", str(sim / "gt_trajectory.txt"),
                "--gt-associations", str(tmp_path / "gt.jsonl"), "--output", str(tmp_path / "eval")]
        rematch = ["--map", str(dataset / "map.json"), "--intrinsics", str(sim / "intrinsics.json"),
                   "--detections", str(sim / "query.jsonl")]
        for extra, want in (([], 1), (rematch, 2)):
            caplog.clear()
            with caplog.at_level("WARNING", logger="semloc.metrics"):
                assert main(argv + extra) == 0
            assert caplog.text.count("frame 2 missing ground-truth associations") == want
        report = json.loads((tmp_path / "eval" / "report.json").read_text())
        assert report["mota_direct"] == report["mota_rematch"] == 1.0
        per_frame = (tmp_path / "eval" / "per_frame.csv").read_text().splitlines()
        assert per_frame[3].endswith(",,,")  # frame 2 has no counts


class TestMatchPoses:
    """Nearest-timestamp pairing of result frames with trajectory rows, as in the TUM RGB-D tools."""

    @staticmethod
    def _pose(x):
        return Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.array([x, 0.0, 0.0]))

    def test_nearest_row_within_the_window(self, caplog):
        # listed out of time order: the pairing sorts the trajectory first
        trajectory = [(2.0, self._pose(2)), (1.0, self._pose(1)), (1.5, self._pose(1.5))]
        with caplog.at_level("WARNING", logger="semloc.cli"):
            matched = cli._match_poses({0: 1.004, 1: 1.497, 2: 2.009, 3: 0.9921875}, trajectory)
        assert {i: pose.translation[0] for i, pose in matched.items()} == {0: 1.0, 1: 1.5, 2: 2.0, 3: 1.0}
        assert caplog.text == ""

    def test_a_tie_goes_to_the_earlier_row(self):
        # binary fractions, so both rows are exactly 1/256 s away
        trajectory = [(1.0078125, self._pose(2)), (1.0, self._pose(1))]
        matched = cli._match_poses({5: 1.00390625}, trajectory)
        assert matched[5].translation[0] == 1.0

    def test_a_frame_outside_the_window_is_unmatched_with_one_warning(self, caplog):
        trajectory = [(1.0, self._pose(1)), (1.1, self._pose(2))]
        with caplog.at_level("WARNING", logger="semloc.cli"):
            matched = cli._match_poses({0: 1.0, 7: 1.05, 8: 0.98, 9: 1.2}, trajectory)
        assert sorted(matched) == [0]
        warnings = [r.getMessage() for r in caplog.records]
        assert warnings == [f"frame {i}: no ground-truth pose within 10 ms" for i in (7, 8, 9)]

    def test_an_empty_trajectory_matches_nothing_without_warnings(self, caplog):
        with caplog.at_level("WARNING", logger="semloc.cli"):
            assert cli._match_poses({0: 1.0, 1: 2.0}, []) == {}
        assert caplog.records == []


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_input_error(self, capsys):
        assert main(["simulate", "--output", "x", "--warp-speed", "9"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_subcommand_is_input_error(self):
        assert main([]) == 1


def _raw(obj) -> bytes:
    """JSON in which each string "1e400" is the bare number 1e400, which parses as inf."""
    return json.dumps(obj).replace('"1e400"', "1e400").encode()


def _row(path, lineno, edit) -> bytes:
    """The JSONL file with row `lineno` replaced by edit(row)."""
    lines = path.read_bytes().splitlines()
    lines[lineno - 1] = _raw(edit(json.loads(lines[lineno - 1])))
    return b"\n".join(lines) + b"\n"


def _repeat(path, lineno, edit) -> bytes:
    """The JSONL file with edit(row `lineno`) inserted after row `lineno`."""
    lines = path.read_bytes().splitlines()
    lines.insert(lineno, _raw(edit(json.loads(lines[lineno - 1]))))
    return b"\n".join(lines) + b"\n"


def _doc(path, edit) -> bytes:
    return _raw(edit(json.loads(path.read_text())))


def _set(obj, keys, value):
    """obj, with the item that `keys` lead to set to value."""
    target = obj
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return obj


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


NOT_UTF8 = b"\xff\xfe\x00garbage\n"
HUGE = 10**400  # json.dumps writes all its digits; float() of it overflows


RESULT_ROW = {"frame_id": 0, "timestamp": 1000.0, "status": "success", "pose": [0, 0, 0, 0, 0, 0, 1],
              "was": 0.9, "correspondences": [[0, 0]], "mean_entropy": 0.0}


def _first_label(m):
    return next(iter(m["landmarks"][0]["label_counts"]))


# (id, input replaced, its contents made from the dataset root, what the error line names)
BAD_INPUTS = [
    ("detections-list-row", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: [r]), "query.jsonl:2: expected a JSON object"),
    ("detections-huge-bbox", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("detections", 0, "bbox", 2), HUGE)),
     "query.jsonl:2: bad detection record"),
    ("detections-not-utf8", "query.jsonl",
     lambda d: (d / "sim" / "query.jsonl").read_bytes() + NOT_UTF8, "query.jsonl:6: invalid JSON"),
    ("results-list-row", "results.jsonl", lambda d: b"[1, 2]\n", "results.jsonl:1: expected a JSON object"),
    ("associations-not-utf8", "gt_associations.jsonl",
     lambda d: NOT_UTF8, "gt_associations.jsonl:1: invalid JSON"),
    ("associations-landmark-1e400", "gt_associations.jsonl",
     lambda d: _row(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("landmark_id",), "1e400")),
     "gt_associations.jsonl:2: bad association record"),
    ("trajectory-not-utf8", "gt_trajectory.txt",
     lambda d: b"1000.0 0 0 0 0 0 0 1\n1000.1 0 0 0\xff 0 0 0 1\n", "gt_trajectory.txt:2: bad row"),
    ("config-not-utf8", "loc.cfg", lambda d: b"K=5\n" + NOT_UTF8, "loc.cfg: 'utf-8' codec"),
    ("simulate-config-n-frames-1e400", "sim.cfg", lambda d: b"n_frames=1e400\n",
     "sim.cfg): cannot convert float infinity to integer"),
    ("scene-huge-position", "scene.json",
     lambda d: _doc(d / "sim" / "scene.json", lambda s: _set(s, ("landmarks", 1, "position", 0), HUGE)),
     "scene.json: bad scene file"),
    ("map-label-counts-list", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "label_counts"), [["chair", 1]])),
     "map.json: bad map file"),
    ("map-meta-list", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("meta",), [["K", 5]])), "map.json: bad map file"),
    ("map-label-count-1e400", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "label_counts", _first_label(m)), "1e400")),
     "map.json: bad map file"),
    ("map-huge-position", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "position", 2), HUGE)),
     "map.json: bad map file"),
    ("map-keyframe-names-missing-landmark", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("keyframes", 0, "landmark_ids", 0), 999)),
     "map.json: bad map file: keyframe references unknown landmark 999"),
    ("map-duplicate-landmark-id", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 1, "id"), m["landmarks"][0]["id"])),
     "map.json: bad map file: duplicate landmark id"),
    ("intrinsics-huge-fx", "intrinsics.json",
     lambda d: _doc(d / "sim" / "intrinsics.json", lambda i: _set(i, ("fx",), HUGE)),
     "intrinsics.json: bad intrinsics"),
    ("intrinsics-directory", "intrinsics.json", None, "intrinsics.json: unreadable"),
    # ids, counts and sizes must be integers, and list fields lists: none of these is cast
    ("associations-landmark-fraction", "gt_associations.jsonl",
     lambda d: _row(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("landmark_id",), 2.7)),
     "gt_associations.jsonl:2: bad association record: 2.7 is not an integer"),
    ("associations-frame-string", "gt_associations.jsonl",
     lambda d: _row(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("frame_id",), "3")),
     "gt_associations.jsonl:2: bad association record: '3' is not an integer"),
    ("associations-detection-index-bool", "gt_associations.jsonl",
     lambda d: _row(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("detection_index",), True)),
     "gt_associations.jsonl:2: bad association record: True is not an integer"),
    ("associations-detection-index-negative", "gt_associations.jsonl",
     lambda d: _row(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("detection_index",), -1)),
     "gt_associations.jsonl:2: bad association record: detection_index -1 is negative"),
    # one row per detection of a frame, and keyframe associations name keyframes of the log
    ("associations-repeated-row", "gt_associations.jsonl",
     lambda d: _repeat(d / "sim" / "gt_associations.jsonl", 2, lambda r: _set(r, ("landmark_id",), 5)),
     "gt_associations.jsonl:3: bad association record: repeated row for frame 0, detection 1"),
    ("keyframe-associations-repeated-row", "keyframe_associations.jsonl",
     lambda d: _repeat(d / "sim" / "keyframe_associations.jsonl", 2, lambda r: _set(r, ("landmark_id",), 5)),
     "keyframe_associations.jsonl:3: bad association record: repeated row for frame 0, detection 1"),
    ("keyframe-associations-frame-999", "keyframe_associations.jsonl",
     lambda d: _row(d / "sim" / "keyframe_associations.jsonl", 2, lambda r: _set(r, ("frame_id",), 999)),
     "association names keyframe 999, which the keyframe log does not have"),
    ("detections-frame-fraction", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("frame_id",), 1.9)),
     "query.jsonl:2: bad detection record: 1.9 is not an integer"),
    ("detections-bbox-string", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("detections", 0, "bbox"), "1234")),
     "query.jsonl:2: bad detection record: '1234' is not a list"),
    ("intrinsics-width-fraction", "intrinsics.json",
     lambda d: _doc(d / "sim" / "intrinsics.json", lambda i: _set(i, ("width",), 640.9)),
     "intrinsics.json: bad intrinsics: 640.9 is not an integer"),
    ("intrinsics-height-bool", "intrinsics.json",
     lambda d: _doc(d / "sim" / "intrinsics.json", lambda i: _set(i, ("height",), True)),
     "intrinsics.json: bad intrinsics: True is not an integer"),
    ("results-pose-string", "results.jsonl", lambda d: _raw(dict(RESULT_ROW, pose="0001001")) + b"\n",
     "results.jsonl:1: bad result record: '0001001' is not a list"),
    ("results-correspondence-strings", "results.jsonl",
     lambda d: _raw(dict(RESULT_ROW, correspondences=["12", "34"])) + b"\n",
     "results.jsonl:1: bad result record: '1' is not an integer"),
    ("map-keyframe-ids-string", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("keyframes", 0, "landmark_ids"), "012")),
     "map.json: bad map file: '012' is not a list"),
    ("simulate-config-n-frames-fraction", "sim.cfg", lambda d: b"n_frames=2.5\n", "sim.cfg): 2.5 is not an integer"),
    # a float setting holds a number, and the trajectory's radius and height are finite
    ("simulate-config-fx-true", "sim.cfg", lambda d: b"fx = true\n",
     "bad simulate setting fx (flags and"),
    ("simulate-config-bbox-jitter-true", "sim.cfg", lambda d: b"bbox_jitter = true\n",
     "bad simulate setting bbox_jitter (flags and"),
    ("simulate-config-radius-nan", "sim.cfg", lambda d: b"radius = nan\n", "radius nan is not finite"),
    ("simulate-config-traj-height-1e400", "sim.cfg", lambda d: b"traj_height = 1e400\n",
     "height inf is not finite"),
    # finite settings so large that camera-to-target distances would overflow
    ("simulate-config-radius-1e200", "sim.cfg", lambda d: b"radius = 1e200\n",
     "radius 1e+200 is not finite or so large that camera distances overflow"),
    ("simulate-config-traj-height-1e200", "sim.cfg", lambda d: b"traj_height = 1e200\n",
     "height 1e+200 is not finite or so large that camera distances overflow"),
    ("simulate-config-bounds-1e200", "sim.cfg", lambda d: b"bounds = -2,-2,0;1e200,2,1.5\n",
     "bounds are not finite or so far out that workspace distances overflow"),
    ("config-k-true", "loc.cfg", lambda d: b"K=true\n", "loc.cfg): K must be an integer"),
    # a float field holds a number, never a boolean; a label is a string, never a number
    ("detections-timestamp-bool", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("timestamp",), True)),
     "query.jsonl:2: bad detection record: True is not a number"),
    ("detections-bbox-bool", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("detections", 0, "bbox", 0), True)),
     "query.jsonl:2: bad detection record: True is not a number"),
    ("detections-score-bool", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2,
                    lambda r: _set(r, ("detections", 0, "labels", 0, "score"), True)),
     "query.jsonl:2: bad detection record: True is not a number"),
    ("detections-label-number", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2,
                    lambda r: _set(r, ("detections", 0, "labels", 0, "label"), 5)),
     "query.jsonl:2: bad detection record: label 5 is not a string"),
    ("results-was-bool", "results.jsonl", lambda d: _raw(dict(RESULT_ROW, was=True)) + b"\n",
     "results.jsonl:1: bad result record: True is not a number"),
    ("results-pose-bool", "results.jsonl",
     lambda d: _raw(dict(RESULT_ROW, pose=[True, 0, 0, 0, 0, 0, 1])) + b"\n",
     "results.jsonl:1: bad result record: True is not a number"),
    ("intrinsics-fx-bool", "intrinsics.json",
     lambda d: _doc(d / "sim" / "intrinsics.json", lambda i: _set(i, ("fx",), True)),
     "intrinsics.json: bad intrinsics: True is not a number"),
    ("map-position-bool", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "position", 0), True)),
     "map.json: bad map file: True is not a number"),
    ("scene-label-number", "scene.json",
     lambda d: _doc(d / "sim" / "scene.json", lambda s: _set(s, ("landmarks", 1, "label"), 5)),
     "bad scene file: label 5 is not a string"),
    # a landmark so far out that distances to it overflow
    ("map-far-position", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "position"), [1e200, 0.0, 1.0])),
     "map.json: bad map file: position so far out that distances to it overflow"),
    ("scene-far-position", "scene.json",
     lambda d: _doc(d / "sim" / "scene.json", lambda s: _set(s, ("landmarks", 1, "position"), [1e200, 0.0, 1.0])),
     "landmark 1: position so far out that distances to it overflow"),
    # landmark ids fit numpy's int64 arrays, and frame ids seed a sampling loop, which takes no negative seed
    ("map-landmark-id-2**63", "map.json",
     lambda d: _doc(d / "map.json", lambda m: _set(m, ("landmarks", 0, "id"), 2**63)),
     "map.json: bad map file: landmark id 9223372036854775808 is outside int64"),
    ("scene-landmark-id-2**63", "scene.json",
     lambda d: _doc(d / "sim" / "scene.json", lambda s: _set(s, ("landmarks", 1, "id"), 2**63)),
     "scene.json: bad scene file: landmark id 9223372036854775808 is outside int64"),
    ("detections-frame-negative", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("frame_id",), -1)),
     "query.jsonl:2: bad detection record: frame_id -1 is negative"),
    # a frame id keys the frame's results and ground truth, so it appears once per log and results file
    ("detections-repeated-frame-id", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("frame_id",), 0)),
     "query.jsonl:2: bad detection record: repeated frame_id 0"),
    ("keyframes-repeated-frame-id", "keyframes.jsonl",
     lambda d: _row(d / "sim" / "keyframes.jsonl", 3, lambda r: _set(r, ("frame_id",), 1)),
     "keyframes.jsonl:3: bad detection record: repeated frame_id 1"),
    ("results-repeated-frame-id", "results.jsonl", lambda d: 2 * (_raw(RESULT_ROW) + b"\n"),
     "results.jsonl:2: bad result record: repeated frame_id 0"),
    # timestamps pair frames with ground truth, and a frame has a pose exactly when it is localized
    ("detections-timestamp-nan", "query.jsonl",
     lambda d: _row(d / "sim" / "query.jsonl", 2, lambda r: _set(r, ("timestamp",), float("nan"))),
     "query.jsonl:2: bad detection record: non-finite timestamp nan"),
    ("results-success-without-pose", "results.jsonl", lambda d: _raw(dict(RESULT_ROW, pose=None)) + b"\n",
     "results.jsonl:1: bad result record: status success without a pose"),
    ("results-degenerate-with-pose", "results.jsonl", lambda d: _raw(dict(RESULT_ROW, status="degenerate")) + b"\n",
     "results.jsonl:1: bad result record: status degenerate with a pose"),
    # intrinsics so large that projecting a landmark would overflow
    ("intrinsics-fx-1e300", "intrinsics.json",
     lambda d: _doc(d / "sim" / "intrinsics.json", lambda i: _set(i, ("fx",), 1e300)),
     "intrinsics.json: bad intrinsics: focal lengths and principal point so large that their squares overflow"),
    ("simulate-config-fx-fy-1e300", "sim.cfg", lambda d: b"fx = 1e300\nfy = 1e300\n",
     "focal lengths and principal point so large that their squares overflow"),
    ("simulate-config-cx-1e308", "sim.cfg", lambda d: b"cx = 1e308\n",
     "focal lengths and principal point so large that their squares overflow"),
]

# (id, depth_file named by row 2 of the detection log, contents of d.npy, what stderr must name)
BAD_DEPTH = [
    ("missing-npy", "missing.npy", None, "missing.npy"),
    ("depth-file-number", 5, None, "query.jsonl:2: bad detection record: depth_file"),
    ("garbage-npy", "d.npy", b"not an array at all", "d.npy: bad depth map"),
    ("pickled-npy", "d.npy", _npy(np.array([{"depth": 1.0}], dtype=object)), "d.npy: bad depth map"),
    ("pickle-not-npy", "d.npy", pickle.dumps(np.ones((4, 4))), "d.npy: bad depth map"),
    ("one-d-npy", "d.npy", _npy(np.ones(5)), "d.npy: bad depth map: expected a 2-D"),
    # a map smaller than the 640 x 480 image would lend every box its last column's depth
    ("wrong-shape-npy", "d.npy", _npy(np.full((12, 16), 9.0)), "d.npy: bad depth map: shape (12, 16)"),
]


def _argv_for(dataset, tmp_path, name, bad):
    """A command that reads `bad` as its input `name` and every other input from the dataset."""
    sim = dataset / "sim"
    if name == "sim.cfg":
        return ["simulate", "--output", str(tmp_path / "x"), "--n-landmarks", "12", "--config", str(bad)]
    if name in ("scene.json", "keyframes.jsonl", "keyframe_associations.jsonl"):
        inputs = {"scene.json": sim / "scene.json", "keyframes.jsonl": sim / "keyframes.jsonl",
                  "keyframe_associations.jsonl": sim / "keyframe_associations.jsonl", name: bad}
        return ["build-map", "--scene", str(inputs["scene.json"]), "--keyframes", str(inputs["keyframes.jsonl"]),
                "--associations", str(inputs["keyframe_associations.jsonl"]),
                "--output", str(tmp_path / "map.json")]
    if name in ("results.jsonl", "gt_associations.jsonl", "gt_trajectory.txt"):
        results = tmp_path / "results.jsonl"
        if name != "results.jsonl":
            save_results(results, [FrameResult(0, 1000.0, "success", Pose.identity(), 0.9, [(0, 0)])])
        inputs = {"results.jsonl": results, "gt_associations.jsonl": sim / "gt_associations.jsonl",
                  "gt_trajectory.txt": sim / "gt_trajectory.txt", name: bad}
        return ["evaluate", "--results", str(inputs["results.jsonl"]),
                "--gt-associations", str(inputs["gt_associations.jsonl"]),
                "--gt-trajectory", str(inputs["gt_trajectory.txt"]), "--output", str(tmp_path / "eval")]
    inputs = {"query.jsonl": sim / "query.jsonl", "intrinsics.json": sim / "intrinsics.json",
              "map.json": dataset / "map.json", name: bad}
    argv = ["localize", "--detections", str(inputs["query.jsonl"]),
            "--intrinsics", str(inputs["intrinsics.json"]), "--map", str(inputs["map.json"]),
            "--output", str(tmp_path / "run"), "--threads", "1"]
    return argv + (["--config", str(bad)] if name == "loc.cfg" else [])


def _assert_input_error(capsys, argv, fragment):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and fragment in errors[0], err


class TestMalformedInputs:
    @pytest.mark.parametrize("name, make, fragment", [c[1:] for c in BAD_INPUTS], ids=[c[0] for c in BAD_INPUTS])
    def test_exits_one_naming_the_file(self, dataset, tmp_path, capsys, name, make, fragment):
        bad = tmp_path / name
        if make is None:
            bad.mkdir()
        else:
            bad.write_bytes(make(dataset))
        _assert_input_error(capsys, _argv_for(dataset, tmp_path, name, bad), fragment)
        if name != "map.json":  # a refused build-map writes no map
            assert not (tmp_path / "map.json").exists()
        assert not (tmp_path / "run" / "results.jsonl").exists()  # nor a refused localize results

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("depth_file, contents, fragment", [c[1:] for c in BAD_DEPTH], ids=[c[0] for c in BAD_DEPTH])
    def test_bad_depth_exits_one(self, dataset, tmp_path, capsys, threads, depth_file, contents, fragment):
        query = tmp_path / "query.jsonl"
        query.write_bytes(_row(dataset / "sim" / "query.jsonl", 2, lambda r: {**r, "depth_file": depth_file}))
        if contents is not None:
            (tmp_path / "d.npy").write_bytes(contents)
        argv = _argv_for(dataset, tmp_path, "query.jsonl", query)
        argv[argv.index("--threads") + 1] = threads
        _assert_input_error(capsys, argv, fragment)
        assert not (tmp_path / "run" / "results.jsonl").exists()

    def test_bad_depth_in_a_later_chunk_exits_one(self, long_dataset, tmp_path, capsys, monkeypatch):
        # the last frame goes to the pool in the last chunk, after the other workers' results
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        source = long_dataset / "sim" / "query.jsonl"
        last = len(source.read_text().splitlines())
        query = tmp_path / "query.jsonl"
        query.write_bytes(_row(source, last, lambda r: {**r, "depth_file": "missing.npy"}))
        argv = _argv_for(long_dataset, tmp_path, "query.jsonl", query)
        argv[argv.index("--threads") + 1] = "2"
        _assert_input_error(capsys, argv, "missing.npy")
        assert not (tmp_path / "run" / "results.jsonl").exists()

    def test_far_scene_landmark_exits_one_when_localize_builds_the_map(self, dataset, tmp_path, capsys):
        sim = dataset / "sim"
        scene = tmp_path / "scene.json"
        scene.write_bytes(_doc(sim / "scene.json", lambda s: _set(s, ("landmarks", 1, "position"), [1e200, 0.0, 1.0])))
        argv = ["localize", "--detections", str(sim / "query.jsonl"), "--intrinsics", str(sim / "intrinsics.json"),
                "--scene", str(scene), "--keyframes", str(sim / "keyframes.jsonl"),
                "--keyframe-associations", str(sim / "keyframe_associations.jsonl"),
                "--output", str(tmp_path / "run"), "--threads", "1"]
        _assert_input_error(capsys, argv, "landmark 1: position so far out that distances to it overflow")
