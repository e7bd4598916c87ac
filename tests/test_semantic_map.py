import math

import numpy as np
import pytest

from semloc.errors import DegenerateGeometry
from semloc.geometry import PoseEstimate, camera_center
from semloc.model_ingest import (
    ClassTable,
    DbImageRecord,
    LabelRaster,
    RawPoint3D,
    SfmModel,
)
from semloc.semantic_map import (
    SemanticMap,
    build_semantic_map,
    compute_visibility_stats,
    MAP_CACHE_VERSION,
    load_map_cache,
    save_map_cache,
    vote_point_label,
)
from semloc.synth import SceneSpec, generate_scene
import oracles

TABLE = ClassTable(
    names=("road", "sidewalk", "building", "sky", "car"),
    dynamic_ids=frozenset({4}),
)


def model_with_votes(labels_per_view):
    """One point observed once per view; raster pixel (0,0) holds the vote."""
    cam_pose = PoseEstimate(np.eye(3), np.zeros(3))
    images = {}
    rasters = {}
    track = []
    for i, label in enumerate(labels_per_view):
        image_id = i + 1
        images[image_id] = DbImageRecord(
            name=f"v{i}",
            camera_id=1,
            pose=cam_pose,
            keypoints=np.array([[0.0, 0.0]]),
            point3d_ids=np.array([1]),
        )
        rasters[image_id] = LabelRaster(4, 4, np.full((4, 4), label, dtype=np.uint8))
        track.append((image_id, 0))
    point = RawPoint3D(np.zeros(3), track)
    model = SfmModel(cameras={}, images=images, points={1: point})
    return point, model, rasters


class TestVotePointLabel:
    def test_majority_wins(self):
        point, model, rasters = model_with_votes([2, 2, 2, 3])
        assert vote_point_label(point, model, rasters, TABLE) == 2

    def test_tie_breaks_to_smaller_id(self):
        point, model, rasters = model_with_votes([0, 1, 1, 0])
        assert vote_point_label(point, model, rasters, TABLE) == 0

    def test_dynamic_majority_removed(self):
        point, model, rasters = model_with_votes([4, 4, 4, 4, 0])
        assert vote_point_label(point, model, rasters, TABLE) is None

    def test_void_votes_discarded(self):
        point, model, rasters = model_with_votes([255, 255, 3])
        assert vote_point_label(point, model, rasters, TABLE) == 3

    def test_all_void_removed(self):
        point, model, rasters = model_with_votes([255, 255])
        assert vote_point_label(point, model, rasters, TABLE) is None

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            labels = rng.integers(0, 4, size=7).tolist()
            point, model, rasters = model_with_votes(labels)
            base = vote_point_label(point, model, rasters, TABLE)
            point.track = [point.track[i] for i in rng.permutation(len(labels))]
            assert vote_point_label(point, model, rasters, TABLE) == base

    def test_matches_oracle_on_synth_scene(self, clean_scene, clean_dataset):
        ds = clean_dataset
        for pid in sorted(ds.model.points)[:100]:
            point = ds.model.points[pid]
            got = vote_point_label(point, ds.model, ds.db_rasters, ds.class_table)
            want = oracles.vote_label_from_model(
                point, ds.model, ds.db_rasters, ds.class_table.void_id, ds.class_table.dynamic_ids
            )
            assert got == want


def pose_at(center):
    return PoseEstimate(np.eye(3), -np.asarray(center, dtype=float))


class TestVisibilityStats:
    def test_collinear_cameras(self):
        point = RawPoint3D(np.zeros(3), [(1, 0), (2, 0)])
        d_lower, d_upper, v_mid, theta = compute_visibility_stats(
            point, [pose_at([0, 0, 2]), pose_at([0, 0, 6])]
        )
        assert d_lower == 2.0 and d_upper == 6.0
        assert np.allclose(v_mid, [0, 0, 1])
        assert theta == 0.0

    def test_perpendicular_cameras(self):
        point = RawPoint3D(np.zeros(3), [(1, 0), (2, 0)])
        d_lower, d_upper, v_mid, theta = compute_visibility_stats(
            point, [pose_at([1, 0, 0]), pose_at([0, 1, 0])]
        )
        assert np.isclose(theta, math.pi / 2)
        assert np.allclose(v_mid, [1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            X = rng.uniform(-2, 2, size=3)
            centers = X + rng.uniform(-1, 1, size=(5, 3)) + np.array([0, 0, 5.0])
            point = RawPoint3D(X, [(i, 0) for i in range(5)])
            got = compute_visibility_stats(point, [pose_at(c) for c in centers])
            want = oracles.visibility_stats([c.tolist() for c in centers], X.tolist())
            assert np.isclose(got[0], want[0], atol=1e-12)
            assert np.isclose(got[1], want[1], atol=1e-12)
            assert np.allclose(got[2], want[2], atol=1e-9)
            assert np.isclose(got[3], want[3], atol=1e-12)

    def test_camera_at_point_is_degenerate(self):
        point = RawPoint3D(np.zeros(3), [(1, 0), (2, 0)])
        with pytest.raises(DegenerateGeometry):
            compute_visibility_stats(point, [pose_at([0, 0, 0]), pose_at([0, 0, 5])])

    def test_antiparallel_extremes_degenerate(self):
        point = RawPoint3D(np.zeros(3), [(1, 0), (2, 0)])
        with pytest.raises(DegenerateGeometry):
            compute_visibility_stats(point, [pose_at([0, 0, 2]), pose_at([0, 0, -2])])

    def test_single_camera_rejected(self):
        point = RawPoint3D(np.zeros(3), [(1, 0)])
        with pytest.raises(DegenerateGeometry):
            compute_visibility_stats(point, [pose_at([0, 0, 2])])


class TestBuildSemanticMap:
    def test_labels_match_ground_truth(self, clean_scene, clean_dataset, clean_map):
        assert len(clean_map) > 0
        for pid, label in zip(clean_map.ids.tolist(), clean_map.labels.tolist()):
            assert label == clean_scene.point_labels[pid]

    def test_dynamic_fraction_removed(self, tmp_path):
        spec = SceneSpec(
            n_points=200,
            n_db_images=12,
            n_queries=1,
            pixel_sigma=0.0,
            dynamic_fraction=0.10,
            seed=21,
        )
        gt = generate_scene(spec, tmp_path / "ds")
        from semloc.model_ingest import load_dataset

        ds = load_dataset(tmp_path / "ds")
        smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
        assert len(gt.dynamic_point_ids) == 20
        assert len(smap) == 180  # exactly the static points survive
        assert (smap.rows_of(sorted(gt.dynamic_point_ids)) == -1).all()

    def test_empty_model_gives_empty_map(self):
        model = SfmModel(cameras={}, images={}, points={})
        smap = build_semantic_map(model, {}, TABLE)
        assert len(smap) == 0

    def test_deterministic(self, clean_dataset):
        a = build_semantic_map(
            clean_dataset.model, clean_dataset.db_rasters, clean_dataset.class_table
        )
        b = build_semantic_map(
            clean_dataset.model, clean_dataset.db_rasters, clean_dataset.class_table
        )
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.v_mid, b.v_mid)

    def test_point_invariants_and_bisector_property(self, clean_dataset, clean_map):
        model = clean_dataset.model
        m = clean_map
        for pid, position, label, d_lower, d_upper, v_mid, theta in zip(
            m.ids.tolist(), m.positions, m.labels.tolist(), m.d_lower, m.d_upper, m.v_mid, m.theta
        ):
            assert 0 < d_lower <= d_upper
            assert np.isclose(np.linalg.norm(v_mid), 1.0, atol=1e-9)
            assert 0 <= theta <= math.pi
            assert not m.class_table.is_dynamic(label)
            assert label != m.class_table.void_id
            dirs = []
            for image_id, _kp in model.points[pid].track:
                c = camera_center(model.images[image_id].pose)
                d = np.linalg.norm(c - position)
                assert d_lower - 1e-12 <= d <= d_upper + 1e-12
                dirs.append((c - position) / d)
            # the two extreme directions sit within theta/2 of the bisector
            best = min(
                (float(dirs[i] @ dirs[j]), i, j)
                for i in range(len(dirs))
                for j in range(i + 1, len(dirs))
            )
            for idx in (best[1], best[2]):
                angle = math.acos(np.clip(dirs[idx] @ v_mid, -1, 1))
                assert angle <= theta / 2 + 1e-9


class TestMapCache:
    def test_round_trip_exact(self, clean_map, tmp_path):
        path = tmp_path / "map.npz"
        save_map_cache(clean_map, path, "a" * 64)
        loaded = load_map_cache(path, clean_map.class_table, "a" * 64)
        assert len(loaded) == len(clean_map)
        assert np.array_equal(loaded.ids, clean_map.ids)
        assert np.array_equal(loaded.positions, clean_map.positions)
        assert np.array_equal(loaded.labels, clean_map.labels)
        assert np.array_equal(loaded.d_lower, clean_map.d_lower)
        assert np.array_equal(loaded.d_upper, clean_map.d_upper)
        assert np.array_equal(loaded.v_mid, clean_map.v_mid)
        assert np.array_equal(loaded.theta, clean_map.theta)

    def test_cache_reused_only_for_its_inputs(self, clean_map, tmp_path):
        path = tmp_path / "map.npz"
        save_map_cache(clean_map, path, "a" * 64)
        assert np.array_equal(load_map_cache(path, clean_map.class_table, "a" * 64).ids, clean_map.ids)
        assert load_map_cache(path, clean_map.class_table, "b" * 64) is None
        assert load_map_cache(tmp_path / "missing.npz", clean_map.class_table, "a" * 64) is None
        # a cache written without a key, as before keys existed
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k not in ("version", "inputs_sha256")}
        np.savez(path, **arrays)
        assert load_map_cache(path, clean_map.class_table, "a" * 64) is None
        # a cache of the previous format version: same layout plus track_len
        np.savez(
            path, version=2, inputs_sha256="a" * 64, track_len=np.full(len(arrays["ids"]), 2), **arrays
        )
        assert load_map_cache(path, clean_map.class_table, "a" * 64) is None
        # ids that are unsorted or duplicated
        for ids in (arrays["ids"][::-1], np.concatenate((arrays["ids"][:1], arrays["ids"][:-1]))):
            np.savez(
                path, version=MAP_CACHE_VERSION, inputs_sha256="a" * 64, **{**arrays, "ids": ids}
            )
            assert load_map_cache(path, clean_map.class_table, "a" * 64) is None


class TestSemanticMapArrays:
    def _map(self, ids):
        n = len(ids)
        return SemanticMap(
            ids=np.array(ids, dtype=np.int64),
            positions=np.zeros((n, 3)),
            labels=np.zeros(n, dtype=np.int64),
            d_lower=np.ones(n),
            d_upper=np.ones(n),
            v_mid=np.tile([0.0, 0.0, 1.0], (n, 1)),
            theta=np.zeros(n),
            class_table=TABLE,
        )

    @pytest.mark.parametrize("ids", [[1, 4, 4, 9], [1, 9, 4]], ids=["duplicate", "unsorted"])
    def test_ids_not_strictly_increasing_rejected(self, ids):
        with pytest.raises(ValueError):
            self._map(ids)

    def test_rows_of(self):
        smap = self._map([2, 5, 11])
        assert smap.rows_of([11, 2, 5, 3, 0, 12, -1]).tolist() == [2, 0, 1, -1, -1, -1, -1]
        assert self._map([]).rows_of([1]).tolist() == [-1]
