import struct

import numpy as np
import pytest

from semloc.errors import (
    BadMagic,
    ConsistencyError,
    DimMismatch,
    InvalidDataset,
    ParseError,
    TruncatedFile,
    UnknownLabel,
)
from semloc.model_ingest import (
    ClassTable,
    id_rows,
    load_class_table,
    load_dataset,
    load_descriptors,
    load_global_descriptor,
    load_keypoints,
    load_label_raster,
    load_sfm_model,
    validate_dataset,
)
from semloc.semantic_map import build_semantic_map
from semloc.synth import (
    write_descriptors,
    write_global_descriptor,
    write_keypoints,
    write_model,
    write_pgm,
)
from sfm_models import views_model

TABLE = ClassTable(names=("road", "sidewalk", "building"), dynamic_ids=frozenset())


def write_minimal_model(model_dir, point_line="1 0.0 0.0 0.0 128 128 128 0.0 1 0 2 0"):
    model_dir.mkdir(parents=True, exist_ok=True)
    (model_dir / "cameras.txt").write_text("1 PINHOLE 640 480 500.0 500.0 320.0 240.0\n")
    (model_dir / "images.txt").write_text(
        "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
        "320.0 240.0 1\n"
        "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
        "320.0 240.0 1\n"
    )
    (model_dir / "points3D.txt").write_text(point_line + "\n")


def voted_label(raster, keypoint):
    """The map label of a point seen at `keypoint` from two views that
    share `raster`; None when the map drops the point."""
    model, rasters = views_model(np.zeros(3), [(0, 0, 5), (1, 0, 5)], [raster, raster], [keypoint] * 2)
    smap = build_semantic_map(model, rasters, TABLE)
    return int(smap.labels[0]) if len(smap) else None


def images_txt(kps_a="320.0 240.0 1", kps_b="320.0 240.0 1", camera_a=1):
    return (
        f"1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 {camera_a} img_a\n{kps_a}\n"
        f"2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n{kps_b}\n"
    )


POINT = "1 0.0 0.0 0.0 128 128 128 0.0 "
SINGLE_FAULTS = {
    "missing camera": (images_txt(camera_a=2), POINT + "1 0 2 0",
                       "image 1 references missing camera 2"),
    "keypoint outside the frame": (images_txt(kps_a="650.0 240.0 1"), POINT + "1 0 2 0",
                                   "image 1 has keypoints outside the frame"),
    "keypoint links to a missing point": (
        images_txt(kps_a="320.0 240.0 7 330.0 240.0 1"), POINT + "1 1 2 0",
        "image 1 keypoint 0 references missing point 7"),
    "track omits a linked keypoint": (
        images_txt(kps_b="320.0 240.0 1 330.0 240.0 1"), POINT + "1 0 2 0",
        "asymmetric track: image 2 keypoint 1 links to point 1, whose track omits it"),
    "track names a missing image": (images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 99 0",
                                    "point 1 track references missing image 99"),
    "track keypoint out of range": (
        images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 2 5",
        "point 1 track references keypoint 5 out of range for image 2"),
    "track claims an untracked keypoint": (
        images_txt(kps_b="320.0 240.0 -1"), POINT + "1 0 2 0",
        "asymmetric track: point 1 claims image 2 keypoint 0, which links to -1"),
    "track claims another point's keypoint": (
        images_txt(kps_b="320.0 240.0 2"),
        POINT + "1 0 2 0\n2 1.0 0.0 0.0 128 128 128 0.0 1 0 2 0",
        "asymmetric track: point 1 claims image 2 keypoint 0, which links to 2"),
    "track lists a keypoint twice": (images_txt(), POINT + "1 0 1 0 2 0",
                                     "point 1 track lists image 1 keypoint 0 twice"),
}


class TestSfmModel:
    @pytest.mark.parametrize("fault", list(SINGLE_FAULTS))
    def test_single_fault_message(self, tmp_path, fault):
        images, points, message = SINGLE_FAULTS[fault]
        write_minimal_model(tmp_path / "model", point_line=points)
        (tmp_path / "model" / "images.txt").write_text(images)
        with pytest.raises(ConsistencyError) as info:
            load_sfm_model(tmp_path / "model")
        assert str(info.value) == message

    def test_duplicate_track_entry_rejected(self, tmp_path):
        """Image 1 would vote twice for the point: with image 1 voting 1
        and image 2 voting 0, label 1 would win a vote that is a 1:1 tie."""
        write_minimal_model(
            tmp_path / "model", point_line="1 0 0 0 255 255 255 0 1 0 1 0 2 0"
        )
        with pytest.raises(ConsistencyError, match="track lists image 1 keypoint 0 twice"):
            load_sfm_model(tmp_path / "model")
        write_minimal_model(
            tmp_path / "model", point_line="1 0 0 0 255 255 255 0 1 0 2 0 1 0"
        )
        with pytest.raises(ConsistencyError, match="track lists image 1 keypoint 0 twice"):
            load_sfm_model(tmp_path / "model")

    def test_points_sorted_by_id_with_tracks_in_file_order(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(
            model_dir,
            point_line="9 1.0 2.0 3.0 128 128 128 0.0 2 1 1 1\n"
            "4 4.0 5.0 6.0 128 128 128 0.0 2 0 1 0",
        )
        (model_dir / "images.txt").write_text(
            images_txt(kps_a="320.0 240.0 4 330.0 240.0 9", kps_b="320.0 240.0 4 330.0 240.0 9")
        )
        model = load_sfm_model(model_dir)
        assert model.point_ids.tolist() == [4, 9]
        assert model.positions.tolist() == [[4.0, 5.0, 6.0], [1.0, 2.0, 3.0]]
        assert model.tracks.tolist() == [[0, 2, 0], [0, 1, 0], [1, 2, 1], [1, 1, 1]]

    def test_minimal_model_loads(self, tmp_path):
        write_minimal_model(tmp_path / "model")
        model = load_sfm_model(tmp_path / "model")
        assert set(model.cameras) == {1}
        assert set(model.images) == {1, 2}
        assert model.point_ids.tolist() == [1]
        assert model.positions.tolist() == [[0.0, 0.0, 0.0]]
        assert model.tracks.tolist() == [[0, 1, 0], [0, 2, 0]]
        assert model.point_ids.dtype == model.tracks.dtype == np.int64
        assert model.images[1].point3d_ids[0] == 1

    def test_dangling_image_in_track(self, tmp_path):
        write_minimal_model(
            tmp_path / "model", point_line="1 0.0 0.0 0.0 128 128 128 0.0 1 0 99 0"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(tmp_path / "model")

    def test_asymmetric_track(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        # image keypoint claims point 1 but the point's track omits image 2
        (model_dir / "points3D.txt").write_text(
            "1 0.0 0.0 0.0 128 128 128 0.0 1 0 1 0\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_keypoint_pointing_at_missing_point(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 7\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_unsupported_camera_model(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("1 SIMPLE_RADIAL 640 480 500.0 320.0 240.0 0.01\n")
        with pytest.raises(ParseError):
            load_sfm_model(model_dir)

    def test_parse_error_carries_line_number(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("# comment\n1 PINHOLE 640 480 bogus\n")
        with pytest.raises(ParseError, match=":2"):
            load_sfm_model(model_dir)

    def test_image_without_keypoints_parses(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
            "3 1.0 0.0 0.0 0.0 0.0 0.0 14.0 1 img_c\n"
            "\n"
        )
        model = load_sfm_model(model_dir)
        assert len(model.images[3].keypoints) == 0

    def test_keypoints_outside_frame(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "650.0 240.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "320.0 240.0 1\n"
        )
        with pytest.raises(ConsistencyError):
            load_sfm_model(model_dir)

    def test_non_finite_pose_and_point_rejected(self, tmp_path):
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir, point_line="1 0.0 inf 0.0 128 128 128 0.0 1 0 2 0")
        with pytest.raises(ParseError, match="points3D.txt:1: non-finite point position"):
            load_sfm_model(model_dir)
        write_minimal_model(model_dir)
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "320.0 240.0 1\n"
            "2 0.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"  # zero quaternion
            "320.0 240.0 1\n"
        )
        with pytest.raises(ParseError, match="images.txt:3: non-finite pose"):
            load_sfm_model(model_dir)

    def test_round_trip_of_synth_scene(self, clean_scene, tmp_path):
        model_dir = clean_scene.root / "model"
        model = load_sfm_model(model_dir)
        assert len(model.point_ids) == clean_scene.spec.n_points
        # re-writing the loaded model reproduces cameras and points bytewise;
        # image headers re-derive quaternions from R, stable to the last ulp
        # only numerically
        rewrite = tmp_path / "model_rewrite"
        write_model(rewrite, model)
        for name in ("cameras.txt", "points3D.txt"):
            assert (rewrite / name).read_bytes() == (model_dir / name).read_bytes()
        reloaded = load_sfm_model(rewrite)
        assert set(reloaded.images) == set(model.images)
        for image_id, image in model.images.items():
            other = reloaded.images[image_id]
            assert other.name == image.name
            assert other.camera_id == image.camera_id
            assert np.array_equal(other.keypoints, image.keypoints)
            assert np.array_equal(other.point3d_ids, image.point3d_ids)
            assert np.allclose(other.pose.rotation, image.pose.rotation, atol=1e-14)
            assert np.allclose(other.pose.translation, image.pose.translation, atol=1e-14)
        # positions and poses match the generator's ground truth
        for pid, pos in clean_scene.point_positions.items():
            assert np.array_equal(model.positions[id_rows(model.point_ids, [pid])[0]], pos)
        for image_id, pose in clean_scene.db_poses.items():
            assert np.allclose(model.images[image_id].pose.rotation, pose.rotation, atol=1e-14)
            assert np.allclose(
                model.images[image_id].pose.translation, pose.translation, atol=1e-14
            )


class TestLabelRaster:
    def test_uniform_raster_histogram(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.full((4, 4), 2, dtype=np.uint8))
        raster = load_label_raster(path, (4, 4), TABLE)
        values, counts = np.unique(raster, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {2: 16}

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.zeros((480, 640), dtype=np.uint8))
        with pytest.raises(DimMismatch):
            load_label_raster(path, (1024, 1024), TABLE)

    def test_unknown_label(self, tmp_path):
        path = tmp_path / "r.pgm"
        raster = np.zeros((4, 4), dtype=np.uint8)
        raster[1, 1] = 200
        write_pgm(path, raster)
        with pytest.raises(UnknownLabel):
            load_label_raster(path, (4, 4), TABLE)

    def test_void_is_allowed(self, tmp_path):
        path = tmp_path / "r.pgm"
        write_pgm(path, np.full((2, 2), 255, dtype=np.uint8))
        raster = load_label_raster(path, (2, 2), TABLE)
        assert raster.tolist() == [[255, 255], [255, 255]]
        assert voted_label(raster, (0.4, 0.4)) is None  # void votes are discarded

    def test_nearest_pixel_lookup(self, tmp_path):
        path = tmp_path / "r.pgm"
        data = np.arange(4, dtype=np.uint8).reshape(2, 2) % 3
        write_pgm(path, data)
        raster = load_label_raster(path, (2, 2), TABLE)
        assert voted_label(raster, (0.6, 0.0)) == data[0, 1]
        assert voted_label(raster, (0.4, 0.0)) == data[0, 0]
        assert voted_label(raster, (0.0, 0.5)) == data[1, 0]

    def test_last_half_pixel_clamps_to_the_edge(self, tmp_path):
        path = tmp_path / "r.pgm"
        data = np.arange(4, dtype=np.uint8).reshape(2, 2) % 3
        write_pgm(path, data)
        raster = load_label_raster(path, (2, 2), TABLE)
        assert voted_label(raster, (1.7, 0.0)) == data[0, 1]
        assert voted_label(raster, (0.0, 1.99)) == data[1, 0]
        assert voted_label(raster, (1.5, 1.5)) == data[1, 1]
        # the frame ends at 2.0: such a keypoint never reaches the map build
        model_dir = tmp_path / "model"
        write_minimal_model(model_dir)
        (model_dir / "cameras.txt").write_text("1 PINHOLE 2 2 1.0 1.0 1.0 1.0\n")
        (model_dir / "images.txt").write_text(
            "1 1.0 0.0 0.0 0.0 0.0 0.0 10.0 1 img_a\n"
            "2.0 0.0 1\n"
            "2 1.0 0.0 0.0 0.0 0.0 0.0 12.0 1 img_b\n"
            "0.0 1.99 1\n"
        )
        with pytest.raises(ConsistencyError, match="image 1 has keypoints outside the frame"):
            load_sfm_model(model_dir)

    def test_truncated_pgm(self, tmp_path):
        path = tmp_path / "r.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(TruncatedFile):
            load_label_raster(path, (4, 4), TABLE)


class TestBinarySidecars:
    def test_descriptor_round_trip(self, tmp_path):
        path = tmp_path / "d.ldsc"
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        write_descriptors(path, data)
        loaded = load_descriptors(path)
        assert loaded.rows == 3 and loaded.dim == 4
        assert np.array_equal(loaded.data, data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.ldsc"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            load_descriptors(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.ldsc"
        path.write_bytes(b"LDSC" + struct.pack("<II", 3, 4) + b"\x00" * 44)  # 11 floats, not 12
        with pytest.raises(TruncatedFile):
            load_descriptors(path)

    def test_keypoints_round_trip(self, tmp_path):
        path = tmp_path / "k.kpts"
        kps = np.array([[1.5, 2.5], [3.0, 4.0]], dtype=np.float32)
        write_keypoints(path, kps)
        assert np.array_equal(load_keypoints(path), kps.astype(np.float64))

    def test_global_descriptor_renormalized(self, tmp_path):
        path = tmp_path / "g.gdsc"
        values = np.zeros(8, dtype=np.float32)
        values[0], values[1] = 3.0, 4.0
        write_global_descriptor(path, values)
        loaded = load_global_descriptor(path)
        assert loaded.dtype == np.float32 and loaded.shape == (8,)
        assert np.allclose(loaded[:2], [0.6, 0.8], atol=1e-7)
        assert np.allclose(np.linalg.norm(loaded), 1.0, atol=1e-6)

    def test_global_descriptor_truncated(self, tmp_path):
        path = tmp_path / "g.gdsc"
        path.write_bytes(b"GDSC" + struct.pack("<I", 4) + b"\x00" * 12)
        with pytest.raises(TruncatedFile):
            load_global_descriptor(path)

    def test_non_finite_values_rejected(self, tmp_path):
        descs = np.ones((3, 4), dtype=np.float32)
        descs[2, 1] = np.nan
        write_descriptors(tmp_path / "d.ldsc", descs)
        write_keypoints(tmp_path / "k.kpts", np.array([[1.0, np.inf]], dtype=np.float32))
        write_global_descriptor(tmp_path / "g.gdsc", np.array([1.0, np.nan], dtype=np.float32))
        for path, loader in (("d.ldsc", load_descriptors), ("k.kpts", load_keypoints),
                             ("g.gdsc", load_global_descriptor)):
            with pytest.raises(ParseError, match=f"{path}: non-finite value"):
                loader(tmp_path / path)


class TestClassTable:
    def test_loads_cityscapes_table(self, clean_scene):
        table = load_class_table(clean_scene.root / "classes.txt")
        assert len(table.names) == 19
        assert table.names[13] == "car"
        assert table.is_dynamic(11) and table.is_dynamic(13)
        assert not table.is_dynamic(2)
        assert table.void_id == 255
        assert table.void_id not in table.dynamic_ids

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_text("0 road 0\n2 building 0\n")
        with pytest.raises(ParseError):
            load_class_table(path)


class TestValidateDataset:
    def test_complete_bundle_is_ok(self, clean_scene):
        report = validate_dataset(clean_scene.root)
        assert report.ok
        assert report.findings == []

    def test_missing_raster_named(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        victim = root / "db" / "db_003.labels.pgm"
        victim.unlink()
        report = validate_dataset(root)
        assert not report.ok
        assert any("db_003" in f and "raster" in f for f in report.findings)

    def test_descriptor_dim_mismatch_flagged_per_image(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        for name in ("db_001", "db_004"):
            from semloc.model_ingest import load_sfm_model

            model = load_sfm_model(root / "model")
            record = next(im for im in model.images.values() if im.name == name)
            bad = np.zeros((len(record.keypoints), 7), dtype=np.float32)
            write_descriptors(root / "db" / f"{name}.ldsc", bad)
        report = validate_dataset(root)
        assert not report.ok
        flagged = {f.split(":")[0] for f in report.findings if "dim" in f}
        assert flagged == {"db_001", "db_004"}

    def test_report_carries_the_loaded_dataset(self, clean_scene, clean_dataset):
        dataset = validate_dataset(clean_scene.root).dataset
        assert dataset is not None
        assert [q.name for q in dataset.queries] == [q.name for q in clean_dataset.queries]
        assert list(dataset.db_rasters) == list(clean_dataset.db_rasters)
        for image_id, descs in dataset.db_descriptors.items():
            assert np.array_equal(descs.data, clean_dataset.db_descriptors[image_id].data)
        for query, other in zip(dataset.queries, clean_dataset.queries):
            assert np.array_equal(query.keypoints, other.keypoints)
            assert query.condition == other.condition

    def test_load_dataset_lists_every_finding(self, clean_scene, tmp_path):
        import shutil

        root = tmp_path / "ds"
        shutil.copytree(clean_scene.root, root)
        (root / "db" / "db_003.labels.pgm").unlink()
        (root / "db" / "db_005.gdsc").unlink()
        report = validate_dataset(root)
        assert report.dataset is None
        assert report.findings == ["db_003: missing label raster", "db_005: missing global descriptor"]
        with pytest.raises(InvalidDataset) as info:
            load_dataset(root)
        assert all(finding in str(info.value) for finding in report.findings)
