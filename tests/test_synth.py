import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semloc.synth as synth
from semloc.cli import main
from semloc.errors import InfeasibleSpec, InvalidDataset
from semloc.localizer import LocalizerConfig, semantic_score
from semloc.matching import knn_ratio_match, lift_matches
from semloc.model_ingest import (
    NO_POINT,
    SfmModel,
    id_rows,
    load_dataset,
    load_ground_truth,
    validate_dataset,
)
from semloc.retrieval import rank_database
from semloc.semantic_map import build_semantic_map
from semloc.synth import CorruptionSpec, SceneSpec, corrupt, generate_scene, write_dataset
from oracles import project, render_raster_loop

GOLDEN_BUNDLES = Path(__file__).parent / "golden" / "bundles.json"
# a small scene with every generator and corruption channel switched on
ALL_CHANNELS_SCENE = SceneSpec(
    n_points=150, n_db_images=8, n_queries=4, pixel_sigma=0.4,
    dynamic_fraction=0.1, night_fraction=0.5, seed=5,
)
ALL_CHANNELS = CorruptionSpec(
    wrong_retrieval_rate=2 / 3, descriptor_noise=0.05, label_flip_rate=0.2, outlier_match_rate=0.3
)


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class TestGenerateScene:
    def test_same_spec_same_bytes(self, tmp_path):
        spec = SceneSpec(n_points=80, n_db_images=6, n_queries=2, pixel_sigma=0.3, seed=5)
        generate_scene(spec, tmp_path / "a")
        generate_scene(spec, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_different_seed_different_bytes(self, tmp_path):
        base = SceneSpec(n_points=80, n_db_images=6, n_queries=2, seed=5)
        generate_scene(base, tmp_path / "a")
        generate_scene(SceneSpec(**{**base.__dict__, "seed": 6}), tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "b")

    def test_noiseless_reprojection_is_exact(self, clean_scene, clean_dataset):
        ds = clean_dataset
        gt_poses = load_ground_truth(clean_scene.root / "ground_truth.txt")
        # database observations: written as float64 text, exact projections
        for image_id, image in ds.model.images.items():
            positions = ds.model.positions[id_rows(ds.model.point_ids, image.point3d_ids)]
            for kp_idx, X in enumerate(positions):
                pred = project(image.pose, ds.model.cameras[image.camera_id], X)
                assert pred is not None
                assert np.max(np.abs(pred - image.keypoints[kp_idx])) < 1e-9
        # query keypoints: stored as float32, exact up to storage rounding
        for query in ds.queries:
            pose = gt_poses[query.name]
            kp_points = clean_scene.query_kp_points[query.name]
            for kp_idx, X in enumerate(ds.model.positions[id_rows(ds.model.point_ids, kp_points)]):
                pred = project(pose, query.camera, X)
                assert pred is not None
                assert np.max(np.abs(pred - query.keypoints[kp_idx])) < 1e-3

    def test_generated_bundle_validates(self, noisy_scene):
        report = validate_dataset(noisy_scene.root)
        assert report.ok, report.findings

    def test_every_point_tracked_twice(self, clean_dataset):
        model = clean_dataset.model
        assert np.bincount(model.tracks[:, 0], minlength=len(model.point_ids)).min() >= 2

    def test_night_fraction_tags_queries(self, tmp_path):
        spec = SceneSpec(
            n_points=60, n_db_images=5, n_queries=4, night_fraction=0.5, seed=8
        )
        gt = generate_scene(spec, tmp_path / "ds")
        ds = load_dataset(tmp_path / "ds")
        tags = [q.condition for q in ds.queries]
        assert tags.count("night") == 2
        assert tags.count("day") == 2

    def test_infeasible_specs_rejected(self, tmp_path):
        with pytest.raises(InfeasibleSpec):
            generate_scene(SceneSpec(ring_radius=2.0, extent=8.0), tmp_path / "x")
        with pytest.raises(InfeasibleSpec):
            generate_scene(SceneSpec(octant_labels=(0, 1, 2, 3, 4, 5, 8, 13)), tmp_path / "y")
        with pytest.raises(InfeasibleSpec):
            generate_scene(SceneSpec(n_db_images=1), tmp_path / "z")
        for bad in ({"seed": -4}, {"global_dim": 2}, {"descriptor_dim": 0}):
            with pytest.raises(InfeasibleSpec):
                generate_scene(SceneSpec(**bad), tmp_path / "w")
        # checked before the input bundle is read, which does not exist
        for rate in (1.0, 0.4):
            cspec = CorruptionSpec(wrong_retrieval_rate=rate)
            with pytest.raises(InfeasibleSpec, match="not of the form d/\\(d\\+1\\)"):
                corrupt(tmp_path / "in", tmp_path / "out", cspec, 1)
        assert not any(tmp_path.iterdir())


class TestCorrupt:
    def test_label_flip_total_kills_score(self, clean_scene, tmp_path):
        out = tmp_path / "flipped"
        manifest = corrupt(
            clean_scene.root, out, CorruptionSpec(label_flip_rate=1.0), seed=1
        )
        clean_ds = load_dataset(clean_scene.root)
        ds = load_dataset(out)
        smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
        gt_poses = load_ground_truth(out / "ground_truth.txt")
        cfg = LocalizerConfig()
        for query, clean_query in zip(ds.queries, clean_ds.queries):
            pose = gt_poses[query.name]
            corrupted = semantic_score(smap, query.labels, pose, query.camera, cfg)
            clean = semantic_score(smap, clean_query.labels, pose, query.camera, cfg)
            assert clean > 50
            assert corrupted < 0.1 * clean  # only coincidental hits remain
            # every non-void pixel was flipped
            nonvoid = int((clean_query.labels != ds.class_table.void_id).sum())
            assert manifest["label_flips"][query.name] == nonvoid

    def test_wrong_retrieval_fills_half_of_topk(self, decoy_bundle):
        gt, corrupted_dir, manifest = decoy_bundle
        ds = load_dataset(corrupted_dir)
        decoy_names = set(manifest["wrong_retrieval"]["decoy_images"])
        assert manifest["wrong_retrieval"]["replicas"] == 1
        for query in ds.queries:
            ranked = rank_database(query.global_desc, ds.db_global, 10)
            names = [ds.model.images[i].name for i, _ in ranked]
            assert sum(name in decoy_names for name in names) == 5
            # each source immediately precedes its clone (exact distance tie)
            for a, b in zip(names[::2], names[1::2]):
                assert b == f"{a}_decoy1"

    def test_decoy_geometry_is_self_consistent(self, decoy_bundle):
        gt, corrupted_dir, manifest = decoy_bundle
        ds = load_dataset(corrupted_dir)
        offset = np.array([manifest["wrong_retrieval"]["offset_m"], 0.0, 0.0])
        by_name = {im.name: im for im in ds.model.images.values()}
        for decoy_name, src_name in list(manifest["wrong_retrieval"]["decoy_images"].items())[:3]:
            decoy, src = by_name[decoy_name], by_name[src_name]
            assert np.array_equal(decoy.keypoints, src.keypoints)
            Xd = ds.model.positions[id_rows(ds.model.point_ids, decoy.point3d_ids)]
            Xs = ds.model.positions[id_rows(ds.model.point_ids, src.point3d_ids)]
            assert np.allclose(Xd, Xs + offset, atol=1e-9)

    def test_outlier_rate_among_lifted_matches(self, noisy_scene, tmp_path):
        out = tmp_path / "outliers"
        manifest = corrupt(
            noisy_scene.root, out, CorruptionSpec(outlier_match_rate=0.3), seed=2
        )
        ds = load_dataset(out)
        smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
        gt_poses = load_ground_truth(out / "ground_truth.txt")
        lifted_total, lifted_bad = 0, 0
        for query in ds.queries:
            pose = gt_poses[query.name]
            corrupted_idx = set(manifest["outlier_keypoints"][query.name])
            ranked = rank_database(query.global_desc, ds.db_global, 5)
            for image_id, _ in ranked:
                matches = knn_ratio_match(query.descriptors, ds.db_descriptors[image_id], 0.9)
                lifted = lift_matches(matches, ds.model.images[image_id], smap)
                for query_kp, row in lifted.tolist():
                    pred = project(pose, query.camera, smap.positions[row])
                    fails = pred is None or np.linalg.norm(pred - query.keypoints[query_kp]) > 5.0
                    lifted_total += 1
                    lifted_bad += fails
                    # failures are exactly the scrambled keypoints
                    if fails:
                        assert query_kp in corrupted_idx
        rate = lifted_bad / lifted_total
        assert abs(rate - 0.3) < 0.01

    def test_unachievable_decoy_rate_rejected(self, clean_scene, tmp_path):
        with pytest.raises(InfeasibleSpec):
            corrupt(
                clean_scene.root, tmp_path / "x", CorruptionSpec(wrong_retrieval_rate=0.3), seed=0
            )

    def test_custom_class_table_is_kept(self, clean_scene, tmp_path):
        """The corrupted bundle keeps its source's classes.txt, renamed
        classes and dynamic flags included."""
        source = tmp_path / "source"
        shutil.copytree(clean_scene.root, source)
        classes = "".join(f"{cid} class_{cid} {int(cid == 10)}\n" for cid in range(19))
        (source / "classes.txt").write_text(classes)
        corrupt(source, tmp_path / "out", CorruptionSpec(wrong_retrieval_rate=0.5), seed=4)
        assert (tmp_path / "out" / "classes.txt").read_text() == classes
        assert load_dataset(tmp_path / "out").class_table == load_dataset(source).class_table

    def test_corrupted_bundle_validates(self, decoy_bundle):
        _, corrupted_dir, _ = decoy_bundle
        report = validate_dataset(corrupted_dir)
        assert report.ok, report.findings

    def test_ids_from_zero_stay_apart(self, tmp_path):
        """Decoy replicas of a bundle whose point and image ids start at 0
        get ids of their own."""
        generate_scene(SceneSpec(n_points=60, n_db_images=6, n_queries=2, seed=8), tmp_path / "gen")
        dataset = load_dataset(tmp_path / "gen")
        model = dataset.model
        images = {
            image_id - 1: replace(
                image, point3d_ids=np.where(image.point3d_ids >= 0, image.point3d_ids - 1, NO_POINT)
            )
            for image_id, image in model.images.items()
        }
        from_zero = SfmModel(
            model.cameras, images, model.point_ids - 1, model.positions, model.tracks - (0, 1, 0)
        )
        shifted = {
            field: {image_id - 1: value for image_id, value in getattr(dataset, field).items()}
            for field in ("db_rasters", "db_descriptors", "db_global")
        }
        source = tmp_path / "source"
        write_dataset(replace(dataset, model=from_zero, **shifted), source)
        renumbered = load_dataset(source).model
        assert renumbered.point_ids[0] == 0 and min(renumbered.images) == 0
        corrupt(source, tmp_path / "out", CorruptionSpec(wrong_retrieval_rate=2 / 3), seed=4)
        out = load_dataset(tmp_path / "out").model
        assert len(out.point_ids) == 3 * 60 and len(out.images) == 3 * 6

    def test_bundle_that_does_not_load_exits_2(self, clean_scene, tmp_path, monkeypatch, capsys):
        """corrupt checks the bundle it wrote: one that does not load fails
        with the finding instead of reporting success."""
        def losing_queries(after):
            """A write_dataset that drops queries.txt from every write past the first `after`."""
            writes = []

            def write(dataset, out_dir, ground_truth=None):
                write_dataset(dataset, out_dir, ground_truth)
                writes.append(out_dir)
                if len(writes) > after:
                    (Path(out_dir) / "queries.txt").unlink()

            return write

        monkeypatch.setattr(synth, "write_dataset", losing_queries(0))
        with pytest.raises(InvalidDataset, match="queries.txt"):
            corrupt(clean_scene.root, tmp_path / "out", CorruptionSpec(wrong_retrieval_rate=0.5), seed=4)
        # `semloc synth` writes the scene first and then corrupts it in place
        monkeypatch.setattr(synth, "write_dataset", losing_queries(1))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "scene": {"n_points": 60, "n_db_images": 6, "n_queries": 2, "seed": 8},
            "corruption": {"wrong_retrieval_rate": 0.5},
        }))
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "cli")]) == 2
        assert "queries.txt" in capsys.readouterr().err


class TestWriteDataset:
    def test_inverts_validate_dataset(self, noisy_scene, tmp_path):
        """Every file comes back byte for byte but those holding quaternions,
        which re-derive from rotation matrices, and the global descriptors,
        which load renormalized."""
        root = noisy_scene.root
        dataset = load_dataset(root)
        write_dataset(dataset, tmp_path, load_ground_truth(root / "ground_truth.txt"))
        want, got = tree_digest(root), tree_digest(tmp_path)
        changed = {name for name in want if want[name] != got.get(name)}
        assert set(got) == set(want)
        assert changed - {"model/images.txt", "ground_truth.txt"} <= {
            name for name in want if name.endswith(".gdsc")
        }
        again = load_dataset(tmp_path)
        for image_id, image in dataset.model.images.items():
            pose = again.model.images[image_id].pose
            assert np.allclose(pose.rotation, image.pose.rotation, atol=1e-14)
            assert np.allclose(again.db_global[image_id], dataset.db_global[image_id], atol=1e-6)


class TestGoldenBundles:
    """perfbench builds its workloads with `semloc synth`, so a change to the
    generator must leave every byte of its bundles alone."""

    @pytest.mark.parametrize("bundle", ["clean", "noisy", "decoy_source", "decoy", "all_channels"])
    def test_bundle_equals_golden(self, bundle, request, tmp_path):
        if bundle == "all_channels":
            # in place, as `semloc synth` runs a spec with a corruption section
            generate_scene(ALL_CHANNELS_SCENE, tmp_path)
            corrupt(tmp_path, tmp_path, ALL_CHANNELS, seed=7)
            root = tmp_path
        elif bundle.startswith("decoy"):
            gt, corrupted_dir, _ = request.getfixturevalue("decoy_bundle")
            root = gt.root if bundle == "decoy_source" else corrupted_dir
        else:
            root = request.getfixturevalue(f"{bundle}_scene").root
        assert tree_digest(root) == json.loads(GOLDEN_BUNDLES.read_text())[bundle]


@st.composite
def splats(draw):
    """A small frame, points that overlap, repeat, or sit on or past each
    border (half pixels included), and distinct in-frame center pixels."""
    width, height = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    coord = lambda size: st.one_of(  # noqa: E731
        st.floats(-5.0, size + 5.0),
        st.sampled_from([-3.5, -0.5, 0.0, size - 0.5, float(size), size + 3.5]),
    )
    spots = draw(st.lists(st.tuples(coord(width), coord(height)), min_size=1, max_size=6))
    picks = draw(st.lists(st.sampled_from(spots), max_size=12))
    labels = draw(st.lists(st.integers(0, 254), min_size=len(picks), max_size=len(picks)))
    cells = draw(st.sets(st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))))
    centers = [(x, y, draw(st.integers(0, 254))) for x, y in sorted(cells)]
    return width, height, np.array(picks).reshape(-1, 2), np.array(labels, dtype=np.int64), centers


@given(splats())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_render_raster_equals_loop_oracle(case):
    width, height, pixels, labels, centers = case
    got = synth._render_raster(width, height, pixels, labels, centers)
    assert got.dtype == np.uint8
    assert np.array_equal(got, render_raster_loop(width, height, pixels, labels, centers))


def test_render_raster_center_past_the_edge_raises():
    """The center pixels are not clamped: one that rounds onto row `height`
    raises, as `semloc synth` does on the scene seeds the benchmark skips."""
    with pytest.raises(IndexError):
        synth._render_raster(4, 4, np.array([[1.0, 3.6]]), np.array([2]), [(1, 4, 2)])
