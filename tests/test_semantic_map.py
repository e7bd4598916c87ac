import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semloc.semantic_map as semantic_map
from semloc.geometry import camera_center
from semloc.model_ingest import VOID_ID, ClassTable, DbImageRecord, id_rows, load_dataset
from semloc.semantic_map import (
    MAP_ARRAYS,
    SemanticMap,
    build_semantic_map,
    MAP_CACHE_VERSION,
    load_map_cache,
    save_map_cache,
)
from semloc.synth import SceneSpec, generate_scene
from sfm_models import pose_at, sfm_model, uniform_raster, views_model
import oracles

TABLE = ClassTable(
    names=("road", "sidewalk", "building", "sky", "car"),
    dynamic_ids=frozenset({4}),
)
GOLDEN = Path(__file__).parent / "golden" / "semantic_maps.json"


def vote(labels_per_view, order=None):
    """The map label of one point seen once per view, where view i's raster
    holds labels_per_view[i] everywhere; None when the point is dropped.
    `order` permutes the point's track entries."""
    centers = [(0.5 * i, 0.0, 5.0) for i in range(len(labels_per_view))]
    rasters = [uniform_raster(label) for label in labels_per_view]
    model, rasters = views_model(np.zeros(3), centers, rasters)
    if order is not None:
        model.tracks = model.tracks[order]
    smap = build_semantic_map(model, rasters, TABLE)
    return int(smap.labels[0]) if len(smap) else None


class TestVotePointLabel:
    def test_majority_wins(self):
        assert vote([2, 2, 2, 3]) == 2

    def test_tie_breaks_to_smaller_id(self):
        assert vote([0, 1, 1, 0]) == 0

    def test_dynamic_majority_removed(self):
        assert vote([4, 4, 4, 4, 0]) is None

    def test_void_votes_discarded(self):
        assert vote([255, 255, 3]) == 3

    def test_all_void_removed(self):
        assert vote([255, 255]) is None

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            labels = rng.integers(0, 4, size=7).tolist()
            assert vote(labels, rng.permutation(len(labels))) == vote(labels)

    def test_matches_oracle_on_synth_scene(self, clean_scene, clean_dataset, clean_map):
        ds = clean_dataset
        rows = clean_map.rows_of(ds.model.point_ids)
        for row in range(100):
            got = int(clean_map.labels[rows[row]]) if rows[row] >= 0 else None
            want = oracles.vote_label_from_model(
                row, ds.model, ds.db_rasters, ds.class_table.void_id, ds.class_table.dynamic_ids
            )
            assert got == want


def stats(X, centers):
    """(d_lower, d_upper, v_mid, theta) of one point at X with a static
    label seen from `centers`; None when the point is dropped."""
    model, rasters = views_model(X, centers, [uniform_raster(1) for _ in centers])
    smap = build_semantic_map(model, rasters, TABLE)
    if not len(smap):
        return None
    return smap.d_lower[0], smap.d_upper[0], smap.v_mid[0], smap.theta[0]


class TestVisibilityStats:
    def test_collinear_cameras(self):
        d_lower, d_upper, v_mid, theta = stats(np.zeros(3), [[0, 0, 2], [0, 0, 6]])
        assert d_lower == 2.0 and d_upper == 6.0
        assert np.allclose(v_mid, [0, 0, 1])
        assert theta == 0.0

    def test_perpendicular_cameras(self):
        d_lower, d_upper, v_mid, theta = stats(np.zeros(3), [[1, 0, 0], [0, 1, 0]])
        assert np.isclose(theta, math.pi / 2)
        assert np.allclose(v_mid, [1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            X = rng.uniform(-2, 2, size=3)
            centers = X + rng.uniform(-1, 1, size=(5, 3)) + np.array([0, 0, 5.0])
            got = stats(X, centers)
            want = oracles.visibility_stats([c.tolist() for c in centers], X.tolist())
            assert np.isclose(got[0], want[0], atol=1e-12)
            assert np.isclose(got[1], want[1], atol=1e-12)
            assert np.allclose(got[2], want[2], atol=1e-9)
            assert np.isclose(got[3], want[3], atol=1e-12)

    def test_tied_extremes_keep_the_first_pair(self):
        """Three orthogonal views tie every pair at cosine 0: the first pair
        of the track, in track order, is the extreme one."""
        x, y, z = [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]
        for views, first in (([x, y, z], [1, 1, 0]), ([z, x, y], [1, 0, 1]), ([y, z, x], [0, 1, 1])):
            _, _, v_mid, theta = stats(np.zeros(3), views)
            assert theta == math.pi / 2
            assert np.allclose(v_mid, np.array(first) / math.sqrt(2), rtol=0, atol=1e-15)

    def test_camera_at_point_is_degenerate(self):
        assert stats(np.zeros(3), [[0, 0, 0], [0, 0, 5]]) is None
        assert stats(np.zeros(3), [[0, 0, 5], [0, 0, 9e-10]]) is None  # within 1e-9
        assert stats(np.zeros(3), [[0, 0, 5], [0, 0, 2e-9]]) is not None

    def test_antiparallel_extremes_degenerate(self):
        assert stats(np.zeros(3), [[0, 0, 2], [0, 0, -2]]) is None

    def test_single_camera_rejected(self):
        assert stats(np.zeros(3), [[0, 0, 2]]) is None


def long_track_model(n_points, n_views, seed):
    """(model, rasters) of n_points points near the origin, each seen by
    all n_views views from random directions 10 units out."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_views, 3))
    centers *= 10.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    images = {
        i + 1: DbImageRecord(f"v{i}", 1, pose_at(c), np.zeros((n_points, 2)), np.arange(1, n_points + 1))
        for i, c in enumerate(centers)
    }
    tracks = [[(i + 1, p) for i in range(n_views)] for p in range(n_points)]
    model = sfm_model(rng.uniform(-1.0, 1.0, size=(n_points, 3)), tracks, images)
    return model, {image_id: uniform_raster(1, size=1) for image_id in images}


DYNAMIC = 3
PROPERTY_TABLE = ClassTable(names=("a", "b", "c", "car"), dynamic_ids=frozenset({DYNAMIC}))
HALF_GRID = st.tuples(*[st.integers(-6, 6).map(lambda v: v / 2.0)] * 3)


@st.composite
def small_models(draw):
    """(model, rasters, centers by image id) of 1-4 points on a half-unit
    grid, seen from 1-6 images of 1-3 x 1-3 pixels, with 1-7 observations
    per track. Rasters mix static, dynamic and void labels, so votes tie
    and come out void or dynamic; keypoints fall anywhere in the frame,
    the last half pixel of each axis included; a camera may sit on a point
    or mirror another camera through one, which makes antiparallel
    extremes."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    positions = draw(st.lists(HALF_GRID, min_size=1, max_size=4))
    centers = {}
    for image_id in range(1, draw(st.integers(1, 6)) + 1):
        X = np.array(draw(st.sampled_from(positions)))
        kind = draw(st.sampled_from(["grid", "on a point", "mirror"]))
        if kind == "on a point":
            centers[image_id] = X
        elif kind == "mirror" and image_id > 1:
            centers[image_id] = 2.0 * X - centers[draw(st.integers(1, image_id - 1))]
        else:
            centers[image_id] = np.array(draw(HALF_GRID))
    labels = st.sampled_from([0, 1, 2, DYNAMIC, VOID_ID])
    rasters = {
        image_id: np.array(
            draw(st.lists(labels, min_size=width * height, max_size=width * height)),
            dtype=np.uint8).reshape(height, width)
        for image_id in centers
    }
    fraction = st.sampled_from([0.0, 0.25, 0.49, 0.5, 0.75, 0.999])
    keypoints = {image_id: [] for image_id in centers}
    tracks = []
    for _ in positions:
        track = []
        for _ in range(draw(st.integers(1, 7))):
            image_id = draw(st.sampled_from(sorted(centers)))
            track.append((image_id, len(keypoints[image_id])))
            keypoints[image_id].append((
                draw(st.integers(0, width - 1)) + draw(fraction),
                draw(st.integers(0, height - 1)) + draw(fraction),
            ))
        tracks.append(track)
    images = {
        image_id: DbImageRecord(
            f"v{image_id}", 1, pose_at(centers[image_id]),
            np.array(keypoints[image_id], dtype=float).reshape(-1, 2),
            np.full(len(keypoints[image_id]), -1),
        )
        for image_id in centers
    }
    return sfm_model(positions, tracks, images), rasters, centers


def allowed_rows(votes, centers, X):
    """Every (label, d_lower, d_upper, v_mid, theta) row the oracles allow
    for one point, None for a dropped point. A pair whose angle ties the
    widest within rounding may be the extreme pair as well."""
    label = oracles.vote_label(votes, VOID_ID, PROPERTY_TABLE.dynamic_ids)
    dists = [oracles.dist(c, X) for c in centers]
    if label is None or len(centers) < 2 or min(dists) < 1e-9:
        return [None]
    pairs = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            try:
                _, _, v_mid, theta = oracles.visibility_stats([centers[i], centers[j]], X)
            except ZeroDivisionError:  # exactly antiparallel
                v_mid, theta = None, math.pi
            pairs.append((theta, v_mid))
    widest = max(theta for theta, _ in pairs)
    return [
        None if theta > math.pi - 1e-7 else (label, min(dists), max(dists), v_mid, theta)
        for theta, v_mid in pairs
        if theta >= widest - 1e-7
    ]


def row_matches(got, want):
    if got is None or want is None:
        return got is want
    return (
        got[0] == want[0]
        and math.isclose(got[1], want[1], rel_tol=1e-12)
        and math.isclose(got[2], want[2], rel_tol=1e-12)
        and np.allclose(got[3], want[3], rtol=0.0, atol=1e-9)
        and math.isclose(got[4], want[4], abs_tol=1e-7)
    )


@given(small_models())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_build_matches_vote_and_visibility_oracles(case):
    check_build_against_oracles(*case)


@given(small_models())
@settings(derandomize=True, deadline=None, max_examples=100)
def test_tracks_in_chunks_of_one_row_match_the_oracles(case):
    """A budget of one byte sends every track to the chunked search, one
    row of its pair matrix at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantic_map, "MAP_BLOCK_BYTES", 1)
        check_build_against_oracles(*case)


def check_build_against_oracles(model, rasters, centers):
    smap = build_semantic_map(model, rasters, PROPERTY_TABLE)
    rows = smap.rows_of(model.point_ids)
    for row, X in enumerate(model.positions.tolist()):
        votes, views = [], []
        for _, image_id, kp in model.tracks[model.tracks[:, 0] == row].tolist():
            x, y = model.images[image_id].keypoints[kp]
            raster = rasters[image_id]
            # nearest pixel, the last half pixel clamped onto the last column or row
            height, width = raster.shape
            votes.append(int(raster[min(math.floor(y + 0.5), height - 1), min(math.floor(x + 0.5), width - 1)]))
            views.append(centers[image_id].tolist())
        r = rows[row]
        got = None if r < 0 else (
            smap.labels[r], smap.d_lower[r], smap.d_upper[r], smap.v_mid[r], smap.theta[r]
        )
        assert any(row_matches(got, want) for want in allowed_rows(votes, views, X))


class TestBuildSemanticMap:
    def test_labels_match_ground_truth(self, clean_scene, clean_dataset, clean_map):
        assert len(clean_map) > 0
        rows = id_rows(clean_scene.dataset.model.point_ids, clean_map.ids)
        assert clean_map.labels.tolist() == clean_scene.point_classes[rows].tolist()

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
        dynamic_ids = gt.dataset.model.point_ids[gt.point_classes == spec.dynamic_class_id]
        assert len(dynamic_ids) == 20
        assert len(smap) == 180  # exactly the static points survive
        assert (smap.rows_of(dynamic_ids) == -1).all()

    def test_empty_model_gives_empty_map(self):
        smap = build_semantic_map(sfm_model([], [], {}), {}, TABLE)
        assert len(smap) == 0
        for name in MAP_ARRAYS:
            assert getattr(smap, name).dtype == (np.int64 if name in ("ids", "labels") else np.float64)
        assert smap.positions.shape == smap.v_mid.shape == (0, 3)

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
            row = np.searchsorted(model.point_ids, pid)
            for image_id in model.tracks[model.tracks[:, 0] == row, 1].tolist():
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


    @pytest.mark.parametrize("scene", ["clean", "noisy", "decoy"])
    def test_map_equals_golden(self, scene, request):
        """Every array of the conftest scenes' maps, value and dtype, as the
        per-point build wrote them before the batched one replaced it."""
        if scene == "decoy":
            ds = load_dataset(request.getfixturevalue("decoy_bundle")[1])
            smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
        else:
            smap = request.getfixturevalue(f"{scene}_map")
        want = json.loads(GOLDEN.read_text())[scene]
        for name in MAP_ARRAYS:
            array = getattr(smap, name)
            assert str(array.dtype) == want[name]["dtype"], name
            assert hashlib.sha256(array.tobytes()).hexdigest() == want[name]["sha256"], name

    @pytest.mark.parametrize("budget", [1, 3000, 20000])
    def test_blocks_do_not_change_the_map(self, noisy_dataset, noisy_map, monkeypatch, budget):
        """Chunks of one row of one track, blocks of a few points and of a
        few dozen give the map of the default budget bit for bit."""
        monkeypatch.setattr(semantic_map, "MAP_BLOCK_BYTES", budget)
        smap = build_semantic_map(
            noisy_dataset.model, noisy_dataset.db_rasters, noisy_dataset.class_table
        )
        for name in MAP_ARRAYS:
            assert getattr(smap, name).tobytes() == getattr(noisy_map, name).tobytes(), name

    def test_long_tracks_stay_near_the_block_budget(self):
        """Twenty tracks of 3000 observations: the extreme-pair search keeps
        its temporaries near MAP_BLOCK_BYTES, where padding one such track
        to a block took 90 MB, and the whole build stays a few times the
        size of its per-observation arrays."""
        model, rasters = long_track_model(n_points=20, n_views=3000, seed=5)
        tracemalloc.start()
        try:
            smap = build_semantic_map(model, rasters, TABLE)
            build_peak = tracemalloc.get_traced_memory()[1]
            dirs = np.random.default_rng(0).normal(size=(20 * 3000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            semantic_map._extreme_pairs(dirs, np.full(20, 3000))
            search_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(smap) == 20
        assert search_peak < 1.25 * semantic_map.MAP_BLOCK_BYTES
        assert build_peak < 16 * 2**20

    def test_tied_extremes_across_chunks_keep_the_first_pair(self, monkeypatch):
        """Two tracks whose smallest cosine, -1, occurs at two pairs in
        different rows: whether the rows go in one chunk, in chunks of one
        row or in chunks of several, each track keeps its first pair in
        row-major order, bit for bit."""
        x, y, z = np.eye(3)
        w = np.array([0.6, 0.0, 0.8])
        tracks = [
            [w, x, -x, z, w, y, -y, z],  # ties at (1, 2) and (5, 6)
            [z, y, x, -z, -x],  # ties at (0, 3) and (2, 4)
        ]
        dirs, lengths = np.concatenate(tracks), np.array([8, 5])
        want = np.stack([tracks[0][1], tracks[1][0]]), np.stack([tracks[0][2], tracks[1][3]])
        for budget in (semantic_map.MAP_BLOCK_BYTES, 1, 250, 300, 400, 500, 600, 700, 800, 1000):
            monkeypatch.setattr(semantic_map, "MAP_BLOCK_BYTES", budget)
            a, b = semantic_map._extreme_pairs(dirs, lengths)
            assert (a.tobytes(), b.tobytes()) == (want[0].tobytes(), want[1].tobytes()), budget

    def test_long_track_matches_pairwise_oracle(self):
        """Tracks too long for one block, searched in chunks of rows, give
        the exhaustive search's extremes."""
        model, rasters = long_track_model(n_points=3, n_views=250, seed=6)
        assert 250 * (10 * 250 + 24) > semantic_map.MAP_BLOCK_BYTES
        smap = build_semantic_map(model, rasters, TABLE)
        views = [camera_center(image.pose).tolist() for _, image in sorted(model.images.items())]
        for row, X in enumerate(model.positions.tolist()):
            want = oracles.visibility_stats(views, X)
            assert np.isclose(smap.d_lower[row], want[0], atol=1e-12)
            assert np.isclose(smap.d_upper[row], want[1], atol=1e-12)
            assert np.allclose(smap.v_mid[row], want[2], atol=1e-9)
            assert np.isclose(smap.theta[row], want[3], atol=1e-12)

    def test_degenerate_points_leave_the_others_alone(self):
        """Points dropped by their votes, a camera on the point or
        antiparallel extremes, between kept ones, drop alone."""
        centers = {1: [0.0, 0.0, 5.0], 2: [1.0, 0.0, 5.0], 3: [0.0, 0.0, -5.0], 4: [0.0, 0.0, 0.0]}
        images = {
            i: DbImageRecord(f"v{i}", 1, pose_at(c), np.zeros((5, 2)), np.arange(1, 6))
            for i, c in centers.items()
        }
        tracks = [
            [(1, 0), (2, 0)],  # kept
            [(1, 1), (4, 1)],  # camera 4 sits on the point
            [(1, 2), (2, 2), (3, 2)],  # kept: cameras 1 and 3 are not antiparallel from X
            [(1, 3), (3, 3)],  # antiparallel extremes
            [(1, 4), (2, 4)],  # kept
        ]
        positions = [[0, 0, 1], [0, 0, 0], [0.5, 0, 1], [0, 0, 0], [0, 1, 0]]
        rasters = {i: uniform_raster(1, size=1) for i in centers}
        smap = build_semantic_map(sfm_model(positions, tracks, images), rasters, TABLE)
        assert smap.ids.tolist() == [1, 3, 5]
        for row, pid in enumerate(smap.ids.tolist()):
            views = [centers[i] for i, _ in tracks[pid - 1]]
            want = oracles.visibility_stats(views, positions[pid - 1])
            assert np.isclose(smap.d_lower[row], want[0]) and np.isclose(smap.d_upper[row], want[1])
            assert np.allclose(smap.v_mid[row], want[2]) and np.isclose(smap.theta[row], want[3])


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
