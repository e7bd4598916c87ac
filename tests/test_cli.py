import json
import logging
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import semloc.model_ingest as ingest
from semloc.cli import main
from semloc.model_ingest import load_descriptors, load_keypoints, validate_dataset
from semloc.synth import write_descriptors, write_keypoints


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "small.json"
    spec_path.write_text(
        json.dumps(
            {
                "scene": {
                    "n_points": 120,
                    "n_db_images": 8,
                    "n_queries": 3,
                    "pixel_sigma": 0.4,
                    "seed": 31,
                }
            }
        )
    )
    data_dir = root / "ds"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return root, data_dir


@pytest.fixture(scope="module")
def decoy_cli_dataset(tmp_path_factory):
    """Half of each top-k are decoys and half the query keypoints outliers,
    so the temporary RANSAC loops run about 35 samples and the final ones
    about 290: the adaptive stop falls inside a block of samples."""
    root = tmp_path_factory.mktemp("cli_decoy")
    spec_path = root / "decoy.json"
    spec_path.write_text(
        json.dumps(
            {
                "scene": {
                    "n_points": 150,
                    "n_db_images": 8,
                    "n_queries": 3,
                    "pixel_sigma": 0.5,
                    "seed": 31,
                },
                "corruption": {"wrong_retrieval_rate": 0.5, "outlier_match_rate": 0.5},
            }
        )
    )
    data_dir = root / "ds"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    return data_dir


GOLDEN = Path(__file__).parent / "golden"


def _copy(data, dst):
    """A copy of the dataset without its map cache."""
    shutil.copytree(data, dst, ignore=shutil.ignore_patterns("semantic_map.npz"))
    return dst


def _first_query(data):
    return (data / "queries.txt").read_text().split()[0]


def _set_images_txt_field(data, line, field, value):
    """Set one field of the first image in images.txt: of its header
    (line 0) or of its keypoint line (line 1)."""
    path = data / "model" / "images.txt"
    lines = path.read_text().splitlines()
    i = line + next(i for i, text in enumerate(lines) if text and not text.startswith("#"))
    parts = lines[i].split()
    parts[field] = value
    lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


class TestPipelineCommands:
    def test_full_chain(self, cli_dataset, capsys):
        root, data = cli_dataset
        assert main(["build-map", "--data", str(data)]) == 0
        assert (data / "semantic_map.npz").exists()

        run = root / "run"
        assert main(["localize", "--data", str(data), "--out", str(run), "--seed", "2"]) == 0
        assert (run / "poses.txt").exists()
        report = json.loads((run / "report.json").read_text())
        assert report["schema"] == 1
        assert len(report["queries"]) == 3
        assert all(q["pose"] is not None for q in report["queries"])

        assert main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")]) == 0
        captured = capsys.readouterr()
        assert "100.0" in captured.out
        eval_report = json.loads((run / "eval_report.json").read_text())
        assert eval_report["overall"] == [100.0, 100.0, 100.0]

    def test_deterministic_outputs(self, cli_dataset):
        root, data = cli_dataset
        run_a, run_b, run_c = root / "det_a", root / "det_b", root / "det_c"
        for run, jobs in ((run_a, "3"), (run_b, "3"), (run_c, "1")):
            assert main(
                ["localize", "--data", str(data), "--out", str(run), "--seed", "9", "--jobs", jobs]
            ) == 0
        for other in (run_b, run_c):
            assert (run_a / "poses.txt").read_bytes() == (other / "poses.txt").read_bytes()
            assert (run_a / "report.json").read_bytes() == (other / "report.json").read_bytes()

    @pytest.mark.parametrize(
        "flags, golden",
        [([], "cli_poses.txt"), (["--uniform-weights"], "cli_poses_uniform.txt")],
    )
    def test_poses_equal_golden_bytes(self, cli_dataset, tmp_path, flags, golden):
        # the golden files hold the poses this scene gave before the array
        # matcher and the batched Jacobian, written with numpy 2.4 on x86-64;
        # a hot-path rewrite must keep every bit of them
        _, data = cli_dataset
        run = tmp_path / "run"
        assert main(["localize", "--data", str(data), "--out", str(run), "--seed", "2", *flags]) == 0
        assert (run / "poses.txt").read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize(
        "flags, golden",
        [([], "decoy_poses.txt"), (["--uniform-weights"], "decoy_poses_uniform.txt")],
    )
    def test_decoy_poses_equal_golden_bytes(self, decoy_cli_dataset, tmp_path, flags, golden):
        # written by the one-sample-at-a-time RANSAC loop, with numpy 2.4 on
        # x86-64; the batched loop must stop, rewind its rng and pick the
        # same hypotheses to keep every bit
        run = tmp_path / "run"
        argv = ["localize", "--data", str(decoy_cli_dataset), "--out", str(run), "--seed", "2"]
        assert main([*argv, "--k-day", "6", *flags]) == 0
        assert (run / "poses.txt").read_bytes() == (GOLDEN / golden).read_bytes()

    def test_uniform_weights_flag(self, cli_dataset):
        root, data = cli_dataset
        run = root / "uniform"
        assert main(
            [
                "localize",
                "--data",
                str(data),
                "--out",
                str(run),
                "--seed",
                "2",
                "--uniform-weights",
            ]
        ) == 0
        report = json.loads((run / "report.json").read_text())
        assert report["config"]["uniform_weights"] is True

    def test_clamped_k_warned_once_per_run(self, cli_dataset, tmp_path, caplog):
        _, data = cli_dataset  # 3 day queries, 8 database images
        for k, warnings in (("9", 1), ("8", 0)):
            caplog.clear()
            run = tmp_path / f"k{k}"
            with caplog.at_level(logging.WARNING):
                assert main(["localize", "--data", str(data), "--out", str(run), "--k-day", k]) == 0
            clamps = [r for r in caplog.records if "exceeds database size" in r.getMessage()]
            assert len(clamps) == warnings
            report = json.loads((run / "report.json").read_text())
            assert len(report["queries"]) == 3
            assert all(len(q["candidates"]) == 8 for q in report["queries"])

    def test_missing_raster_exits_2_and_names_file(self, cli_dataset, tmp_path, capsys):
        _, data = cli_dataset
        broken = tmp_path / "broken"
        shutil.copytree(data, broken)
        (broken / "db" / "db_002.labels.pgm").unlink()
        code = main(["localize", "--data", str(broken), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "db_002" in capsys.readouterr().err

    def test_each_input_file_parsed_once(self, cli_dataset, tmp_path, monkeypatch):
        _, data = cli_dataset
        calls = Counter()
        for name in ("load_sfm_model", "load_label_raster", "load_descriptors",
                     "load_keypoints", "load_global_descriptor"):
            def counted(*args, _fn=getattr(ingest, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ingest, name, counted)
        files = [*(data / "db").iterdir(), *(data / "queries").iterdir()]
        expected = {
            "load_sfm_model": 1,
            "load_label_raster": sum(f.name.endswith(".labels.pgm") for f in files),
            "load_descriptors": sum(f.suffix == ".ldsc" for f in files),
            "load_keypoints": sum(f.suffix == ".kpts" for f in files),
            "load_global_descriptor": sum(f.suffix == ".gdsc" for f in files),
        }
        data = _copy(data, tmp_path / "ds")
        for argv in (["build-map"], ["localize", "--out", str(tmp_path / "run")]):
            calls.clear()
            assert main([*argv, "--data", str(data)]) == 0
            assert calls == expected

    def test_stale_map_cache_is_rebuilt(self, cli_dataset, tmp_path):
        root, data = cli_dataset
        stale, fresh = _copy(data, tmp_path / "stale"), tmp_path / "fresh"
        assert main(["build-map", "--data", str(stale)]) == 0
        for ds in (stale, fresh):
            spec = str(root / "small.json")
            assert main(["synth", "--spec", spec, "--out", str(ds), "--seed", "4"]) == 0
        assert (stale / "semantic_map.npz").exists() and not (fresh / "semantic_map.npz").exists()
        for ds in (stale, fresh):
            assert main(["localize", "--data", str(ds), "--out", str(ds / "run"), "--seed", "2"]) == 0
        assert (stale / "run" / "poses.txt").read_bytes() == (fresh / "run" / "poses.txt").read_bytes()

    def test_unreadable_map_cache_is_rebuilt(self, cli_dataset, tmp_path):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        cache = data / "semantic_map.npz"
        assert main(["localize", "--data", str(data), "--out", str(tmp_path / "want")]) == 0
        for argv in (["build-map"], ["localize", "--out", str(tmp_path / "run")]):
            cache.write_bytes(cache.read_bytes()[:100])  # as an interrupted write leaves it
            assert main([*argv, "--data", str(data)]) == 0
        assert (tmp_path / "run" / "poses.txt").read_bytes() == (tmp_path / "want" / "poses.txt").read_bytes()

    def test_keypoint_in_last_half_pixel_builds_map(self, cli_dataset, tmp_path):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        _set_images_txt_field(data, 1, 0, "639.7")  # nearest pixel rounds to column 640 of 640
        assert validate_dataset(data).ok
        assert main(["build-map", "--data", str(data)]) == 0

    @pytest.mark.parametrize("victim", ["images.txt", "db_003.ldsc", "query.kpts"])
    def test_non_finite_input_exits_2_and_names_file(self, cli_dataset, tmp_path, capsys, victim):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        if victim == "images.txt":
            _set_images_txt_field(data, 0, 5, "nan")  # tx of the first image
        elif victim == "db_003.ldsc":
            bad = load_descriptors(data / "db" / victim).data.copy()
            bad[1, 2] = np.nan
            write_descriptors(data / "db" / victim, bad)
        else:
            victim = f"{_first_query(data)}.kpts"
            kps = load_keypoints(data / "queries" / victim)
            kps[0, 1] = np.nan
            write_keypoints(data / "queries" / victim, kps)
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert victim in err and "non-finite" in err

    @pytest.mark.parametrize("fault", ["query_outside_frame", "missing_condition", "mixed_dims"])
    def test_finding_reported_by_validate_and_localize(self, cli_dataset, tmp_path, capsys, fault):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        query = _first_query(data)
        if fault == "query_outside_frame":
            kps = load_keypoints(data / "queries" / f"{query}.kpts")
            kps[0, 0] = 700.0
            write_keypoints(data / "queries" / f"{query}.kpts", kps)
            expected = f"{query}: keypoints outside the frame"
        elif fault == "missing_condition":
            path = data / "conditions.txt"
            lines = path.read_text().splitlines()
            path.write_text("".join(f"{line}\n" for line in lines if line.split()[0] != query))
            expected = f"{query}: missing condition tag"
        else:
            rows = load_descriptors(data / "db" / "db_001.ldsc").rows
            write_descriptors(data / "db" / "db_001.ldsc", np.ones((rows, 7), dtype=np.float32))
            expected = "db_001: local descriptor dim 7 != majority"
        assert any(f.startswith(expected) for f in validate_dataset(data).findings)
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"validation: {expected}" in capsys.readouterr().err

    def test_evaluate_empty_pose_file(self, cli_dataset, tmp_path, capsys):
        _, data = cli_dataset
        run = tmp_path / "empty_run"
        run.mkdir()
        (run / "poses.txt").write_text("")
        code = main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")])
        assert code == 0
        captured = capsys.readouterr()
        assert "empty" in captured.err
        eval_report = json.loads((run / "eval_report.json").read_text())
        assert eval_report["overall"] == [0.0, 0.0, 0.0]


    def test_evaluate_malformed_report_exits_2(self, cli_dataset, tmp_path, capsys):
        _, data = cli_dataset
        run = tmp_path / "bad_report"
        run.mkdir()
        shutil.copy(data / "ground_truth.txt", run / "poses.txt")
        (run / "report.json").write_text("{")
        code = main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")])
        assert code == 2
        assert "validation: cannot read report" in capsys.readouterr().err
        assert not (run / "eval_report.json").exists()


class TestErrorPaths:
    def test_bad_config_json_exits_3(self, cli_dataset, tmp_path, capsys):
        _, data = cli_dataset
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = main(
            ["localize", "--data", str(data), "--out", str(tmp_path / "r"), "--config", str(cfg)]
        )
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key_exits_3(self, cli_dataset, tmp_path, capsys):
        _, data = cli_dataset
        cfg = tmp_path / "extra.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus_key": 2}))
        code = main(
            ["localize", "--data", str(data), "--out", str(tmp_path / "r"), "--config", str(cfg)]
        )
        assert code == 3
        assert "bogus_key" in capsys.readouterr().err

    def test_bad_scene_spec_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "bad_scene.json"
        spec.write_text(json.dumps({"scene": {"n_points": 10, "ring_radius": 1.0}}))
        code = main(["synth", "--spec", spec.as_posix(), "--out", str(tmp_path / "ds")])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    def test_config_file_values_used(self, cli_dataset, tmp_path):
        root, data = cli_dataset
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "k_day": 4, "theta_min_deg": 7.5}))
        run = tmp_path / "cfg_run"
        assert main(
            ["localize", "--data", str(data), "--out", str(run), "--config", str(cfg)]
        ) == 0
        report = json.loads((run / "report.json").read_text())
        assert report["config"]["seed"] == 5
        assert report["config"]["k_day"] == 4
        assert report["config"]["theta_min_deg"] == 7.5
        assert all(len(q["candidates"]) == 4 for q in report["queries"])
