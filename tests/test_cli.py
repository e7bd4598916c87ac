import builtins
import io
import json
import logging
import math
import random
import re
import shutil
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import semloc.cli as cli
import semloc.localizer as localizer
import semloc.model_ingest as ingest
from semloc.cli import load_pipeline_config, main
from semloc.evaluation import BUCKETS
from semloc.geometry import pose_error
from semloc.localizer import LocalizerConfig
from semloc.model_ingest import load_descriptors, load_keypoints, validate_dataset
from semloc.synth import CorruptionSpec, SceneSpec, write_pgm, write_sidecar


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


def _voting_pixels(data):
    """(name, (width, height), pixels) of the first database image: the
    (row, col) pixels that its track entries vote with, by
    build_semantic_map's rule."""
    model = ingest.load_sfm_model(data / "model")
    image_id = min(model.images)
    image = model.images[image_id]
    camera = model.cameras[image.camera_id]
    dims = (camera.width, camera.height)
    kps = image.keypoints[model.tracks[model.tracks[:, 1] == image_id, 2]]
    x, y = np.minimum(kps + 0.5, (dims[0] - 1, dims[1] - 1)).astype(int).T
    return image.name, dims, set(zip(y.tolist(), x.tolist()))


def _edit_map_input(data, edit):
    """Change one thing in a dataset, keeping it valid (see
    test_map_cache_key_follows_map_inputs)."""
    def edit_line(path, index, field, change):
        """Apply `change` to one field of the index-th data line."""
        lines = path.read_text().splitlines(keepends=True)
        rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
        parts = lines[rows[index]].split()
        parts[field] = change(parts[field])
        lines[rows[index]] = " ".join(parts) + "\n"
        path.write_text("".join(lines))

    def edit_pixel(voted):
        name, dims, pixels = _voting_pixels(data)
        path = data / "db" / f"{name}.labels.pgm"
        raster = ingest.load_label_raster(path, dims, ingest.load_class_table(data / "classes.txt")).copy()
        free = [(r, c) for r in range(dims[1]) for c in range(3) if (r, c) not in pixels]
        row, col = min(pixels) if voted else free[0]
        raster[row, col] = 1 if raster[row, col] != 1 else 2
        write_pgm(path, raster)

    model = data / "model"
    if edit == "point position":
        edit_line(model / "points3D.txt", 0, 1, lambda x: repr(float(x) + 0.25))
    elif edit == "image pose":  # the first header line's tx
        edit_line(model / "images.txt", 0, 5, lambda tx: repr(float(tx) + 0.1))
    elif edit in ("voted raster pixel", "unvoted raster pixel"):
        edit_pixel(edit == "voted raster pixel")
    elif edit == "dynamic flag":
        edit_line(data / "classes.txt", 0, 2, lambda flag: "1" if flag == "0" else "0")
    elif edit == "points3D comment":
        path = model / "points3D.txt"
        path.write_text("# an added comment\n" + path.read_text())


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

    def test_deterministic_outputs(self, cli_dataset, decoy_cli_dataset, tmp_path):
        """Each query and each of its candidates draws from its own stream,
        so one worker or several write the same bytes."""
        for data, extra in ((cli_dataset[1], []), (decoy_cli_dataset, ["--k-day", "6"])):
            argv = ["localize", "--data", str(data), "--seed", "9", *extra]
            runs = [tmp_path / f"{data.parent.name}_{jobs}" for jobs in ("1", "2", "3")]
            for run, jobs in zip(runs, ("1", "2", "3")):
                assert main([*argv, "--jobs", jobs, "--out", str(run)]) == 0
            for other in runs[1:]:
                for name in ("poses.txt", "report.json"):
                    assert (other / name).read_bytes() == (runs[0] / name).read_bytes()

    @pytest.mark.parametrize(
        "flags, golden",
        [([], "cli_poses.txt"), (["--uniform-weights"], "cli_poses_uniform.txt")],
    )
    def test_poses_equal_golden_bytes(self, cli_dataset, tmp_path, flags, golden):
        # the golden files hold the poses this scene gives with one generator
        # per candidate's temporary loop, written with numpy 2.4 on x86-64;
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
        # written by `localize` with one generator per candidate's temporary
        # loop and each temporary pose its unrefined RANSAC hypothesis, with
        # numpy 2.4 on x86-64; the blocked loop must stop, rewind each rng
        # and pick the same hypotheses as one sample at a time to keep every bit
        run = tmp_path / "run"
        argv = ["localize", "--data", str(decoy_cli_dataset), "--out", str(run), "--seed", "2"]
        assert main([*argv, "--k-day", "6", *flags]) == 0
        assert (run / "poses.txt").read_bytes() == (GOLDEN / golden).read_bytes()

    @pytest.mark.parametrize("flags", [[], ["--uniform-weights"]], ids=["semantic", "uniform"])
    def test_model_line_order_does_not_reach_the_outputs(self, decoy_cli_dataset, tmp_path, flags):
        """The decoy scene with its points3D.txt lines and its images.txt
        records (a header line and its keypoint line) shuffled: localize
        writes the same poses.txt and report.json bytes."""
        shuffled = tmp_path / "shuffled"
        shutil.copytree(
            decoy_cli_dataset, shuffled, ignore=shutil.ignore_patterns(cli.MAP_CACHE_NAME)
        )
        rng = random.Random(5)
        points = (shuffled / "model" / "points3D.txt").read_text().splitlines(keepends=True)
        lines = (shuffled / "model" / "images.txt").read_text().splitlines(keepends=True)
        records = [lines[i : i + 2] for i in range(0, len(lines), 2)]
        for rows in (points, records):
            original = list(rows)
            rng.shuffle(rows)
            assert rows != original
        (shuffled / "model" / "points3D.txt").write_text("".join(points))
        (shuffled / "model" / "images.txt").write_text("".join(sum(records, [])))
        runs = [tmp_path / "run", tmp_path / "shuffled_run"]
        for data, run in zip((decoy_cli_dataset, shuffled), runs):
            argv = ["localize", "--data", str(data), "--out", str(run), "--seed", "2"]
            assert main([*argv, "--k-day", "6", *flags]) == 0
        for name in ("poses.txt", "report.json"):
            assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes()

    def test_one_sample_blocks_write_the_same_bytes(self, decoy_cli_dataset, tmp_path, monkeypatch):
        """The RANSAC block schedule never reaches the outputs: with blocks
        of one sample, localize writes the default's poses and report, with
        one worker and with three."""
        argv = ["localize", "--data", str(decoy_cli_dataset), "--seed", "2", "--k-day", "6"]
        for jobs in ("1", "3"):
            assert main([*argv, "--jobs", jobs, "--out", str(tmp_path / f"default{jobs}")]) == 0
        blocks = []
        sampler = localizer.weighted_samples

        def counted(u, weights):
            blocks.append(len(u))
            return sampler(u, weights)

        monkeypatch.setattr(localizer, "RANSAC_BLOCK_MAX", 1)
        monkeypatch.setattr(localizer, "weighted_samples", counted)
        for jobs in ("1", "3"):
            assert main([*argv, "--jobs", jobs, "--out", str(tmp_path / f"one{jobs}")]) == 0
            for name in ("poses.txt", "report.json"):
                one, default = tmp_path / f"one{jobs}" / name, tmp_path / f"default{jobs}" / name
                assert one.read_bytes() == default.read_bytes()
        assert set(blocks) == {1} and len(blocks) > 100

    def test_decoy_block_schedule_is_pinned(self, decoy_cli_dataset, tmp_path, monkeypatch):
        """Blocks drawn by each RANSAC loop and samples used by each of its
        problems, in run order: per query one lock-step loop over the six
        temporary problems, then the final loop. A block holds each
        problem's first sample alone, then up to its cap the samples left to
        the median of the loops' known stops (localizer._wants), at least an
        equal share of its cap and never past its own stop. A change to
        the schedule shows here; the test above checks that it moves no
        output."""
        blocks, used = [], []
        sampler, ransac_loop = localizer.weighted_samples, localizer._ransac_loop

        def counted_block(u, weights):
            blocks[-1].append(len(u))
            return sampler(u, weights)

        def counted_loop(*args, **kwargs):
            blocks.append([])
            result = ransac_loop(*args, **kwargs)
            used.append([samples for _, _, _, samples in result])
            return result

        monkeypatch.setattr(localizer, "weighted_samples", counted_block)
        monkeypatch.setattr(localizer, "_ransac_loop", counted_loop)
        argv = ["localize", "--data", str(decoy_cli_dataset), "--seed", "2", "--k-day", "6"]
        assert main([*argv, "--jobs", "1", "--out", str(tmp_path / "run")]) == 0
        # the final loops stop on their inliers' share of the sampling weight
        assert list(zip(blocks, used)) == [
            ([6, 108, 96], [35, 35, 35, 35, 35, 35]), ([1, 54], [35]),
            ([6, 204], [35, 35, 34, 34, 35, 35]), ([1, 34], [35]),
            ([6, 474], [34, 34, 35, 35, 34, 34]), ([1, 54], [34]),
        ]

    def test_refinement_runs_once_per_final_pose(self, decoy_cli_dataset, tmp_path, monkeypatch):
        """Temporary poses are RANSAC hypotheses as they are: LM
        refinement runs only on the final pose of each query that has one."""
        calls = []
        refine = localizer.refine_pnp

        def counted(*args, **kwargs):
            calls.append(1)
            return refine(*args, **kwargs)

        monkeypatch.setattr(localizer, "refine_pnp", counted)
        run = tmp_path / "run"
        argv = ["localize", "--data", str(decoy_cli_dataset), "--out", str(run), "--seed", "2"]
        assert main([*argv, "--k-day", "6", "--jobs", "1"]) == 0
        assert len(calls) == len((run / "poses.txt").read_text().splitlines()) == 3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_semantic_weights_beat_uniform_weights(self, decoy_cli_dataset, tmp_path, seed):
        """The paper's claim on the decoy fixture, at more than one seed:
        semantic weights give more fine queries than uniform ones."""
        gt = ingest.load_ground_truth(decoy_cli_dataset / "ground_truth.txt")
        fine = []
        for flags in ([], ["--uniform-weights"]):
            run = tmp_path / f"run{len(flags)}"
            argv = ["localize", "--data", str(decoy_cli_dataset), "--out", str(run), "--k-day", "6"]
            assert main([*argv, "--seed", str(seed), *flags]) == 0
            estimated = ingest.load_ground_truth(run / "poses.txt")
            errors = [pose_error(estimated[name], gt[name]) for name in gt if name in estimated]
            fine.append(sum(t <= BUCKETS["fine"][0] and r <= BUCKETS["fine"][1] for t, r in errors))
        assert fine[0] > fine[1], fine

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
        """Each loader runs once per file, and each input file is opened for
        reading once: the map cache's key comes from the parsed arrays."""
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
        # every file of the dataset but the ground truth, which localize does not read
        inputs = {f for f in data.rglob("*") if f.is_file() and f.name != "ground_truth.txt"}
        reads = Counter()
        real_open = io.open

        def counted_open(file, mode="r", *args, **kwargs):
            if "r" in mode and "+" not in mode and not isinstance(file, int):
                reads[Path(file)] += 1
            return real_open(file, mode, *args, **kwargs)

        # pathlib opens through io.open, everything else through the builtin
        monkeypatch.setattr(io, "open", counted_open)
        monkeypatch.setattr(builtins, "open", counted_open)
        for argv in (["build-map"], ["localize", "--out", str(tmp_path / "run")]):
            calls.clear()
            reads.clear()
            assert main([*argv, "--data", str(data)]) == 0
            assert calls == expected
            assert {f: reads[f] for f in inputs} == {f: 1 for f in inputs}

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

    @pytest.mark.parametrize(
        "edit, rebuilt",
        [
            ("point position", True),
            ("image pose", True),
            ("voted raster pixel", True),
            ("dynamic flag", True),
            ("unvoted raster pixel", False),
            ("points3D comment", False),
        ],
    )
    def test_map_cache_key_follows_map_inputs(self, cli_dataset, tmp_path, capsys, edit, rebuilt):
        """A cache built before an edit of a map input is rebuilt, and the
        poses equal those of a run without a cache; an edit that the map
        build does not read keeps the cache."""
        _, data = cli_dataset
        stale = _copy(data, tmp_path / "stale")
        assert main(["build-map", "--data", str(stale)]) == 0
        _edit_map_input(stale, edit)
        fresh = _copy(stale, tmp_path / "fresh")
        capsys.readouterr()
        assert main(["localize", "--data", str(stale), "--out", str(stale / "run")]) == 0
        out = capsys.readouterr().out
        assert ("built semantic map" in out, "loaded semantic map cache" in out) == (rebuilt, not rebuilt)
        assert main(["localize", "--data", str(fresh), "--out", str(fresh / "run")]) == 0
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
            write_sidecar(data / "db" / victim, b"LDSC", 2, bad)
        else:
            victim = f"{_first_query(data)}.kpts"
            kps = load_keypoints(data / "queries" / victim)
            kps[0, 1] = np.nan
            write_sidecar(data / "queries" / victim, b"KPTS", 1, kps)
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert victim in err and "non-finite" in err

    @pytest.mark.parametrize(
        "fault", ["query_outside_frame", "missing_condition", "stray_condition", "mixed_dims"]
    )
    def test_finding_reported_by_validate_and_localize(self, cli_dataset, tmp_path, capsys, fault):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        query = _first_query(data)
        if fault == "query_outside_frame":
            kps = load_keypoints(data / "queries" / f"{query}.kpts")
            kps[0, 0] = 700.0
            write_sidecar(data / "queries" / f"{query}.kpts", b"KPTS", 1, kps)
            expected = f"{query}: keypoints outside the frame"
        elif fault == "missing_condition":
            path = data / "conditions.txt"
            lines = path.read_text().splitlines()
            path.write_text("".join(f"{line}\n" for line in lines if line.split()[0] != query))
            expected = f"{query}: missing condition tag"
        elif fault == "stray_condition":
            path = data / "conditions.txt"
            path.write_text(path.read_text() + "ghost_image day\n")
            expected = "ghost_image: condition tag names no database image or query"
        else:
            rows = load_descriptors(data / "db" / "db_001.ldsc").rows
            write_sidecar(data / "db" / "db_001.ldsc", b"LDSC", 2, np.ones((rows, 7), dtype=np.float32))
            expected = "db_001: local descriptor dim 7 != majority"
        assert any(f.startswith(expected) for f in validate_dataset(data).findings)
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"validation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["images.txt", "points3D.txt"])
    def test_id_beyond_int64_is_a_finding_with_its_line(self, cli_dataset, tmp_path, capsys, file):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        path = data / "model" / file
        lines = path.read_text().splitlines()
        i = next(i for i, text in enumerate(lines) if text and not text.startswith("#"))
        if file == "images.txt":
            i += 1  # the first image's keypoint line: its first point id
            message = "expected '(<x> <y> <point3d-id>)...': Python int too large to convert to C long"
        else:
            message = (
                "expected '<point-id> <x> <y> <z> <r> <g> <b> <error> (<image-id> <point2d-idx>)...': "
                "id out of the int64 range"
            )
        parts = lines[i].split()
        parts[2 if file == "images.txt" else 0] = "99999999999999999999"
        lines[i] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        expected = f"model: {path}:{i + 1}: {message}"
        assert validate_dataset(data).findings == [expected]
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"validation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "file, line, message",
        [
            # a second camera for the query, with another fx: loaded last, it won
            ("queries.txt", "{query} PINHOLE 640 480 600 600 320 240", "duplicate query name"),
            ("conditions.txt", "{query} night", "duplicate image name"),
        ],
        ids=["queries.txt", "conditions.txt"],
    )
    def test_duplicate_name_reported_by_validate_and_localize(
        self, cli_dataset, tmp_path, capsys, file, line, message
    ):
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        query = _first_query(data)
        path = data / file
        lines = path.read_text().splitlines()
        path.write_text("".join(f"{text}\n" for text in [*lines, line.format(query=query)]))
        expected = f"{file}: {path}:{len(lines) + 1}: {message} {query}"
        # one finding: not also a stray or missing condition tag per image
        assert validate_dataset(data).findings == [expected]
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"validation: {expected}" in capsys.readouterr().err

    @pytest.mark.parametrize("renamed", ["images.txt", "queries.txt"])
    def test_name_given_to_two_images_reported_by_validate_and_localize(
        self, cli_dataset, tmp_path, capsys, renamed
    ):
        """Files, findings and condition tags are keyed by name, so a
        database image or a query renamed db_000 would read db_000's; the
        renamed query's own tag is left naming no image."""
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        if renamed == "images.txt":
            path = data / "model" / "images.txt"
            lines = path.read_text().splitlines()
            i = next(i for i, text in enumerate(lines) if text.endswith(" db_001"))
            lines[i] = lines[i].replace(" db_001", " db_000")
            path.write_text("".join(f"{text}\n" for text in lines))
            expected = f"model: {path}:{i + 1}: duplicate image name db_000"
            stale = []
        else:
            query = _first_query(data)
            path = data / "queries.txt"
            path.write_text(path.read_text().replace(f"{query} ", "db_000 ", 1))
            for suffix in (".kpts", ".ldsc", ".gdsc", ".labels.pgm"):
                (data / "queries" / f"{query}{suffix}").rename(data / "queries" / f"db_000{suffix}")
            expected = "db_000: names both a query and a database image"
            stale = [f"{query}: condition tag names no database image or query"]
        assert validate_dataset(data).findings == [expected, *stale]
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"validation: {expected}" in capsys.readouterr().err

    def test_unparsable_conditions_is_one_finding(self, cli_dataset, tmp_path, capsys):
        # not also a "missing condition tag" for every image
        _, data = cli_dataset
        data = _copy(data, tmp_path / "ds")
        path = data / "conditions.txt"
        lines = path.read_text().splitlines()
        first = next(text for text in lines if text.strip() and not text.startswith("#"))
        path.write_text("".join(f"{text}\n" for text in [*lines, first]))
        name = first.split()[0]
        expected = f"conditions.txt: {path}:{len(lines) + 1}: duplicate image name {name}"
        assert validate_dataset(data).findings == [expected]
        code = main(["localize", "--data", str(data), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.count("validation: ") == 1

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


    @pytest.mark.parametrize(
        "line, message",
        [
            ("{name} 1 0 0 0 0 0 0", "duplicate query name {name}"),
            ("extra 1 0 0 0 nan 0 0", "non-finite pose"),
            ("extra 0 0 0 0 1 2 3", "non-finite pose"),  # zero quaternion
        ],
        ids=["duplicate", "nan", "zero_quaternion"],
    )
    def test_evaluate_bad_ground_truth_exits_2(self, cli_dataset, tmp_path, capsys, line, message):
        _, data = cli_dataset
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(data / "ground_truth.txt", run / "poses.txt")
        gt = tmp_path / "ground_truth.txt"
        lines = (data / "ground_truth.txt").read_text().splitlines()
        name = lines[-1].split()[0]
        gt.write_text("".join(f"{text}\n" for text in [*lines, line.format(name=name)]))
        code = main(["evaluate", "--run", str(run), "--gt", str(gt)])
        assert code == 2
        where = f"{gt}:{len(lines) + 1}: {message.format(name=name)}"
        assert f"validation: cannot read ground truth: {where}" in capsys.readouterr().err
        assert not (run / "eval_report.json").exists()

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("inliers", "many", 'inliers "many" is not an integer'),
            ("inliers", True, "inliers true is not an integer"),
            ("used_fallback", "yes", 'used_fallback "yes" is not true or false'),
            ("condition", 3, 'condition 3 is not "day" or "night"'),
            ("condition", "dusk", 'condition "dusk" is not "day" or "night"'),
        ],
        ids=["inliers_text", "inliers_bool", "fallback_text", "condition_int", "condition_dusk"],
    )
    def test_evaluate_mistyped_report_field_exits_2(
        self, cli_dataset, tmp_path, capsys, field, value, message
    ):
        """One mistyped field of one query's report entry: one finding that
        names the query, and no eval_report.json."""
        _, data = cli_dataset
        run = tmp_path / "run"
        assert main(["localize", "--data", str(data), "--out", str(run), "--seed", "2"]) == 0
        report = json.loads((run / "report.json").read_text())
        entry = report["queries"][1]
        entry[field] = value
        (run / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")])
        assert code == 2
        err = capsys.readouterr().err
        where = f"{run / 'report.json'}: query {entry['name']}: {message}"
        assert err == f"validation: cannot read report: {where}\n"
        assert not (run / "eval_report.json").exists()


    def test_evaluate_report_naming_a_query_twice_exits_2(self, cli_dataset, tmp_path, capsys):
        """A report.json with two entries for one query, as a
        ground_truth.txt naming a query twice: one finding, and no
        eval_report.json."""
        _, data = cli_dataset
        run = tmp_path / "run"
        assert main(["localize", "--data", str(data), "--out", str(run), "--seed", "2"]) == 0
        report = json.loads((run / "report.json").read_text())
        twice = report["queries"][1]
        report["queries"].append(dict(twice, inliers=0))
        (run / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")])
        assert code == 2
        where = f"{run / 'report.json'}: query {twice['name']}"
        assert capsys.readouterr().err == f"validation: cannot read report: {where} listed twice\n"
        assert not (run / "eval_report.json").exists()

    @pytest.mark.parametrize("file", ["poses.txt", "report.json"])
    def test_evaluate_query_not_in_ground_truth_exits_2(self, cli_dataset, tmp_path, capsys, file):
        """A pose line or report entry for a query the ground truth does not
        name: one finding, and no eval_report.json."""
        _, data = cli_dataset
        run = tmp_path / "run"
        assert main(["localize", "--data", str(data), "--out", str(run), "--seed", "2"]) == 0
        if file == "poses.txt":
            poses = (run / "poses.txt").read_text().splitlines(keepends=True)
            ghost = "q_ghost" + poses[0][poses[0].index(" "):]
            (run / "poses.txt").write_text("".join([*poses, ghost]))
        else:
            report = json.loads((run / "report.json").read_text())
            report["queries"].append(dict(report["queries"][0], name="q_ghost"))
            (run / "report.json").write_text(json.dumps(report))
        capsys.readouterr()
        code = main(["evaluate", "--run", str(run), "--gt", str(data / "ground_truth.txt")])
        assert code == 2
        where = f"{run / file}: query q_ghost"
        assert capsys.readouterr().err == f"validation: cannot evaluate: {where} is not in the ground truth\n"
        assert not (run / "eval_report.json").exists()


SMALL_SCENE = {"n_points": 120, "n_db_images": 8, "n_queries": 3, "pixel_sigma": 0.4, "seed": 31}


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["localize", "--data", "x", "--out", "y", "--inlier-px", "-inf"],
             "semloc localize: argument --inlier-px: expected one argument"),
            (["localize", "--data", "x"],
             "semloc localize: the following arguments are required: --out"),
            (["localize", "--data", "x", "--out", "y", "--jobs", "two"],
             "semloc localize: argument --jobs: invalid int value: 'two'"),
            (["locate"], "semloc: argument command: invalid choice: 'locate'"),
        ],
        ids=["negative_infinity", "missing_out", "mistyped_jobs", "unknown_command"],
    )
    def test_usage_error_exits_3(self, capsys, monkeypatch, argv, message):
        """A command line argparse rejects is a configuration error: exit 3,
        the usage, then one config error line, before any set-up."""
        monkeypatch.setattr(cli, "_set_up", lambda data_dir: pytest.fail("set-up ran"))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: semloc")
        assert err.splitlines()[-1].startswith(f"config error: {message}")

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

    @pytest.mark.parametrize(
        "values",
        [{"ratio": "0.9"}, {"inlier_px": None}, {"k_day": "5"}, {"k_day": 2.5},
         {"uniform_weights": "no"}, {"seed": "abc"}, {"k_day": True}],
        ids=["str_float", "null_float", "str_int", "float_int", "str_bool", "str_seed", "bool_int"],
    )
    def test_config_value_of_wrong_type_exits_3(self, tmp_path, capsys, monkeypatch, values):
        """Each value takes its default's type: one config error that names
        the key, before any set-up and with no run directory."""
        monkeypatch.setattr(cli, "_set_up", lambda data_dir: pytest.fail("set-up ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        run = tmp_path / "run"
        code = main(["localize", "--data", str(tmp_path), "--out", str(run), "--config", str(cfg)])
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        (key,) = values
        assert line.startswith(f"config error: {key} ")
        assert not run.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    def test_run_directory_that_cannot_be_made_exits_3(self, tmp_path, capsys, monkeypatch, below):
        """--out naming a file, or a path under one: one config error,
        before any set-up, and the file left as it was."""
        monkeypatch.setattr(cli, "_set_up", lambda data_dir: pytest.fail("set-up ran"))
        taken = tmp_path / "taken"
        taken.write_text("not a run\n")
        out = taken / "run" if below else taken
        assert main(["localize", "--data", str(tmp_path), "--out", str(out)]) == 3
        why = f"{taken} is not a writable directory"
        assert capsys.readouterr().err == f"config error: cannot write run directory {out}: {why}\n"
        assert taken.read_text() == "not a run\n"

    def test_int_config_value_passes_for_a_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inlier_px": 8, "theta_min_deg": 0}))
        loaded = load_pipeline_config(cfg, {})
        assert (loaded.inlier_px, loaded.theta_min_deg) == (8.0, 0.0)
        assert type(loaded.inlier_px) is float and type(loaded.theta_min_deg) is float

    def test_int_and_float_config_values_write_the_same_report(self, cli_dataset, tmp_path):
        """A float key given as 10 runs as 10.0: the report's bytes do not
        show how the number was written."""
        _, data = cli_dataset
        reports = []
        for inlier_px in (10, 10.0):
            cfg = tmp_path / f"{inlier_px!r}.json"
            cfg.write_text(json.dumps({"inlier_px": inlier_px, "k_day": 4}))
            run = tmp_path / f"run{inlier_px!r}"
            assert main(["localize", "--data", str(data), "--out", str(run), "--config", str(cfg)]) == 0
            reports.append((run / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_bad_scene_spec_exits_3(self, tmp_path, capsys):
        spec = tmp_path / "bad_scene.json"
        spec.write_text(json.dumps({"scene": {"n_points": 10, "ring_radius": 1.0}}))
        code = main(["synth", "--spec", spec.as_posix(), "--out", str(tmp_path / "ds")])
        assert code == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, flags",
        [
            ({"scene": SMALL_SCENE, "corruption": "x"}, []),
            ({"scene": {**SMALL_SCENE, "octant_labels": 5}}, []),
            (SMALL_SCENE, []),
            ({"scene": {**SMALL_SCENE, "corruption": {"outlier_match_rate": 0.5}}}, []),
            ({"scene": SMALL_SCENE, "corruption": {"outlier_match_rate": 0.5, "seed": 3}}, []),
            ({"scene": SMALL_SCENE}, ["--seed", "-1"]),
            ({"scene": {**SMALL_SCENE, "seed": -4}}, []),
            ({"scene": {**SMALL_SCENE, "global_dim": 2}}, []),
            ({"scene": {**SMALL_SCENE, "descriptor_dim": 0}}, []),
            ({"scene": SMALL_SCENE, "corruption": {"wrong_retrieval_rate": 1.0}}, []),
            ({"scene": SMALL_SCENE, "corruption": {"wrong_retrieval_rate": 0.4}}, []),
        ],
        ids=["corruption_not_an_object", "octant_labels_not_a_list", "flat_scene",
             "corruption_inside_scene", "corruption_seed", "negative_seed_flag",
             "negative_seed", "global_dim_2", "descriptor_dim_0", "all_retrieval_wrong",
             "retrieval_rate_not_d_over_d_plus_1"],
    )
    def test_malformed_scene_spec_exits_3(self, tmp_path, capsys, spec, flags):
        """Only {"scene": {...}, "corruption": {...}} is a spec, and only one
        that generate_scene and corrupt can build; anything else is a
        configuration error before a file is written."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "ds"), *flags]) == 3
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("scene", "dynamic_fraction", True),  # a bool is not a number
            ("scene", "n_points", 50.5),
            ("scene", "seed", "7"),
            ("scene", "octant_labels", [0, 1.5]),
            ("corruption", "outlier_match_rate", "0.5"),
        ],
    )
    def test_mistyped_spec_value_exits_3_naming_the_key(self, tmp_path, capsys, section, key, value):
        """A synth spec value takes its default's type, as a --config value
        does; the message names the key."""
        spec = {"scene": SMALL_SCENE, "corruption": {}}
        spec[section] = {**spec[section], key: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "ds")]) == 3
        assert f"config error: {key} must be " in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

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


# (flag and its value, the config key it overrides, a different value in the file)
FLAG_OVERRIDES = [
    (["--seed", "7"], "seed", 7, 3),
    (["--k-day", "6"], "k_day", 6, 4),
    (["--k-night", "9"], "k_night", 9, 5),
    (["--theta-min-deg", "2.5"], "theta_min_deg", 2.5, 7.5),
    (["--inlier-px", "4"], "inlier_px", 4.0, 8.0),
    (["--jobs", "1"], "jobs", 1, 2),
    (["--uniform-weights"], "uniform_weights", True, False),
]


def _localize_config(monkeypatch, tmp_path, argv) -> LocalizerConfig:
    """The config `localize` runs with, stopped before its set-up."""
    seen = []
    monkeypatch.setattr(
        cli, "load_pipeline_config", lambda *a: seen.append(load_pipeline_config(*a)) or seen[0]
    )
    monkeypatch.setattr(cli, "_set_up", lambda data_dir: None)
    assert main(["localize", "--data", str(tmp_path), "--out", str(tmp_path / "run"), *argv]) == 2
    return seen[0]


def test_every_localize_flag_overrides_a_config_key():
    (localize,) = [a.choices["localize"] for a in cli.build_parser()._actions if a.dest == "command"]
    dests = {a.dest for a in localize._actions} & {f.name for f in fields(LocalizerConfig)}
    assert dests == {key for _, key, _, _ in FLAG_OVERRIDES}


@pytest.mark.parametrize("flag, key, flag_value, file_value", FLAG_OVERRIDES,
                         ids=[key for _, key, _, _ in FLAG_OVERRIDES])
def test_flag_overrides_config_file_and_absent_flag_keeps_it(
    monkeypatch, tmp_path, flag, key, flag_value, file_value
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: file_value}))
    config = ["--config", str(cfg)]
    assert getattr(_localize_config(monkeypatch, tmp_path, config + flag), key) == flag_value
    assert getattr(_localize_config(monkeypatch, tmp_path, config), key) == file_value


@pytest.mark.parametrize("flag", [[], ["--uniform-weights"]], ids=["absent", "given"])
def test_uniform_weights_in_config_file_holds_with_or_without_flag(monkeypatch, tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"uniform_weights": True}))
    argv = ["--config", str(cfg), *flag]
    assert _localize_config(monkeypatch, tmp_path, argv).uniform_weights is True


# every float key of the localize config and of the synth spec's two sections
FLOAT_KEYS = [
    (section, f.name)
    for section, spec_type in (
        ("config", LocalizerConfig), ("scene", SceneSpec), ("corruption", CorruptionSpec)
    )
    for f in fields(spec_type)
    if type(f.default) is float
]
FLOAT_FLAGS = {key: flag[0] for flag, key, _, _ in FLAG_OVERRIDES if ("config", key) in FLOAT_KEYS}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[key for _, key in FLOAT_KEYS])
def test_non_finite_value_exits_3_naming_the_key(tmp_path, capsys, monkeypatch, section, key, value):
    """NaN and infinity pass a sign check and JSON reads them, yet no float
    key takes them: through --config, a flag where one exists and a synth
    spec alike, one config error names the key before any set-up or output."""
    monkeypatch.setattr(cli, "_set_up", lambda data_dir: pytest.fail("set-up ran"))
    out = tmp_path / "out"
    if section == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argvs = [["--config", str(cfg)]]
        if key in FLOAT_FLAGS:
            argvs.append([FLOAT_FLAGS[key], str(value)])
        commands = [["localize", "--data", str(tmp_path), "--out", str(out), *a] for a in argvs]
    else:
        spec = {"scene": SMALL_SCENE, "corruption": {}}
        spec[section] = {**spec[section], key: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        commands = [["synth", "--spec", str(path), "--out", str(out)]]
    for argv in commands:
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {key} must be finite, got {json.dumps(value)}"
        ]
        assert not out.exists()


def test_int_beyond_float_range_exits_3(tmp_path, capsys):
    """An integer too large for a float is no finite value either."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"inlier_px": 1' + "0" * 400 + "}")
    argv = ["localize", "--data", str(tmp_path), "--out", str(tmp_path / "r"), "--config", str(cfg)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("config error: inlier_px must be finite, got 1000")


def _mutated(data: bytes, kind: str, rng: random.Random) -> bytes:
    """`data` with one fault of the given kind at a place rng picks."""
    at = rng.randrange(len(data))
    if kind == "truncate":
        return data[:at]
    if kind == "bit_flip":
        return data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
    if kind == "zero_bytes":
        end = min(len(data), at + rng.randint(1, 16))
        return data[:at] + bytes(end - at) + data[end:]
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    copies = 0 if kind == "drop_line" else 2
    return b"".join(lines[:i] + [lines[i]] * copies + lines[i + 1:])


MUTATIONS = ("truncate", "bit_flip", "zero_bytes", "drop_line", "repeat_line")


@pytest.mark.parametrize("case", range(20))
def test_single_file_mutation_exits_0_or_2(decoy_cli_dataset, tmp_path, case):
    """A damaged dataset either localizes or fails validation: each of
    these seeded single faults in one file `localize` reads gives exit 0
    or 2, never an uncaught exception."""
    data = _copy(decoy_cli_dataset, tmp_path / "ds")
    rng = random.Random(case)
    unread = {"ground_truth.txt", "corruption_manifest.json"}
    files = sorted(f for f in data.rglob("*") if f.is_file() and f.name not in unread)
    # a kind of file first, so that the few text files are hit as often as the many binary ones
    suffix = rng.choice(sorted({f.suffix for f in files}))
    victim = rng.choice([f for f in files if f.suffix == suffix])
    victim.write_bytes(_mutated(victim.read_bytes(), MUTATIONS[case % len(MUTATIONS)], rng))
    argv = ["localize", "--data", str(data), "--out", str(tmp_path / "run"), "--seed", "2"]
    assert main([*argv, "--k-day", "6", "--jobs", "1"]) in (0, 2), victim.relative_to(data)


def test_readme_lists_every_config_key_with_its_default():
    """README's --config table names the fields of LocalizerConfig in
    order, each with its default as JSON, and counts them."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    count = re.search(r"any of these (\d+) keys", readme)
    table = readme[count.end():].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", table, re.M)
    want = [(f.name, json.dumps(f.default)) for f in fields(LocalizerConfig)]
    assert rows == want
    assert int(count.group(1)) == len(want)
