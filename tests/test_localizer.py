import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semloc.geometry import (
    CameraIntrinsics,
    PoseEstimate,
    camera_center,
    pose_error,
    quat_to_rot,
)
import semloc.localizer as localizer
from semloc.localizer import (
    LocalizerConfig,
    ScoredCandidate,
    assign_weights,
    localize_query,
    semantic_score,
    temporary_poses,
    visible_mask,
    weighted_ransac_pnp,
    weighted_sample_without_replacement,
    weighted_samples,
)
from semloc.model_ingest import ClassTable, DescriptorSet, VOID_ID, load_ground_truth
from semloc.semantic_map import SemanticMap, build_semantic_map
from sfm_models import uniform_raster, views_model
import oracles
from oracles import project

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
TABLE = ClassTable(names=tuple(f"c{i}" for i in range(10)), dynamic_ids=frozenset())
THETA_MIN = math.radians(5.0)


def make_point(pid, position, label=1, d_lower=1.0, d_upper=100.0,
               v_mid=(0.0, 0.0, -1.0), theta=math.pi / 2):
    """One map point's fields, as the oracles read them."""
    return SimpleNamespace(
        id=pid,
        position=np.asarray(position, dtype=float),
        label=label,
        d_lower=d_lower,
        d_upper=d_upper,
        v_mid=np.asarray(v_mid, dtype=float),
        theta=theta,
    )


def map_of(points, table=TABLE):
    """The SemanticMap whose rows are `points`, which are in ascending id order."""
    return SemanticMap(
        ids=np.array([p.id for p in points], dtype=np.int64),
        positions=np.array([p.position for p in points], dtype=float).reshape(-1, 3),
        labels=np.array([p.label for p in points], dtype=np.int64),
        d_lower=np.array([p.d_lower for p in points], dtype=float),
        d_upper=np.array([p.d_upper for p in points], dtype=float),
        v_mid=np.array([p.v_mid for p in points], dtype=float).reshape(-1, 3),
        theta=np.array([p.theta for p in points], dtype=float),
        class_table=table,
    )


def visible_one(p, c_q, theta_min):
    """visible_mask on the one-point map of p."""
    return bool(visible_mask(map_of([p]), np.asarray(c_q, dtype=float), theta_min)[0])


def stats_point(pid, X, centers, label=1):
    """The map point at X that cameras at `centers` see, labeled `label`."""
    model, rasters = views_model(X, centers, [uniform_raster(label) for _ in centers])
    smap = build_semantic_map(model, rasters, TABLE)
    return make_point(pid, X, label=label, d_lower=smap.d_lower[0], d_upper=smap.d_upper[0],
                      v_mid=smap.v_mid[0], theta=smap.theta[0])


class TestVisible:
    def test_collinear_band(self):
        p = stats_point(1, [0, 0, 0], [[0, 0, 2], [0, 0, 6]])
        assert p.theta == 0.0
        assert visible_one(p, np.array([0.0, 0.0, 4.0]), THETA_MIN)

    def test_beyond_upper_distance(self):
        p = stats_point(1, [0, 0, 0], [[0, 0, 2], [0, 0, 6]])
        assert not visible_one(p, np.array([0.0, 0.0, 8.0]), THETA_MIN)

    def test_inclusive_at_database_camera(self):
        p = stats_point(1, [0, 0, 0], [[0, 0, 2], [0, 0, 6]])
        assert visible_one(p, np.array([0.0, 0.0, 2.0]), THETA_MIN)
        assert visible_one(p, np.array([0.0, 0.0, 6.0]), THETA_MIN)

    def test_outside_cone(self):
        p = stats_point(1, [0, 0, 0], [[0, 0, 2], [0, 0, 6]])
        assert not visible_one(p, np.array([4.0, 0.0, 0.1]), THETA_MIN)

    def test_at_point_is_invisible(self):
        p = stats_point(1, [0, 0, 0], [[0, 0, 2], [0, 0, 6]])
        assert not visible_one(p, np.zeros(3), THETA_MIN)

    def test_matches_rederivation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            X = rng.uniform(-3, 3, size=3)
            centers = X + rng.normal(0, 1, size=(6, 3)) * [2, 2, 0.5] + [0, 0, 8]
            p = stats_point(1, X, centers)
            for _ in range(10):
                c_q = X + rng.normal(0, 4, size=3) + [0, 0, 6]
                got = visible_one(p, c_q, THETA_MIN)
                want = oracles.visible_from_cameras(
                    [c.tolist() for c in centers], X.tolist(), c_q.tolist(), THETA_MIN
                )
                assert got == want

    def test_mask_agrees_with_scalar(self):
        rng = np.random.default_rng(1)
        points = [
            stats_point(i, rng.uniform(-3, 3, 3), rng.uniform(-3, 3, (4, 3)) + [0, 0, 9])
            for i in range(40)
        ]
        smap = map_of(points)
        for _ in range(10):
            c_q = rng.uniform(-5, 5, size=3) + [0, 0, 7]
            mask = visible_mask(smap, c_q, THETA_MIN)
            for i, p in enumerate(points):
                assert mask[i] == visible_one(p, c_q, THETA_MIN)
                assert mask[i] == oracles.visible_from_stats(p, c_q.tolist(), THETA_MIN)


def synthetic_matches(rng, pose, n, smap_points, outlier_fraction=0.0):
    """(matches, query keypoints) consistent with pose, optionally with
    gross pixel outliers; smap_points[i] is map row i and keypoint i."""
    pixels = []
    n_out = int(round(outlier_fraction * n))
    for i, p in enumerate(smap_points[:n]):
        px = project(pose, K, p.position)
        assert px is not None
        if i < n_out:
            px = rng.uniform([0, 0], [K.width, K.height])
        pixels.append(px)
    return np.column_stack((np.arange(n), np.arange(n))), np.array(pixels)


def grid_map_points(rng, pose, n, label=1, start_id=1):
    """Points in front of the pose, inside the frame, with generous stats."""
    pts = []
    for i in range(n):
        px = rng.uniform([40, 40], [K.width - 40, K.height - 40])
        depth = rng.uniform(6, 14)
        ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
        X = pose.rotation.T @ (ray - pose.translation)
        pts.append(make_point(start_id + i, X, label=label))
    return pts


class TestTemporaryPose:
    def test_below_min_matches_fails(self):
        rng = np.random.default_rng(2)
        pose = PoseEstimate.identity()
        points = grid_map_points(rng, pose, 11)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, pose, 11, points)
        cfg = LocalizerConfig(temp_pose_min_matches=12)
        assert temporary_poses([matches], [1], smap, keypoints, K, cfg, np.random.default_rng(0)) == [None]

    def test_recovers_noiseless_pose(self):
        rng = np.random.default_rng(3)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 50)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 50, points)
        [got] = temporary_poses([matches], [1], smap, keypoints, K, LocalizerConfig(), np.random.default_rng(4))
        assert got is not None
        t_err, r_err = pose_error(got, gt)
        assert t_err < 1e-4 and r_err < 1e-4

    def test_survives_sixty_percent_outliers(self):
        rng = np.random.default_rng(5)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 50)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 50, points, outlier_fraction=0.6)
        [got] = temporary_poses([matches], [1], smap, keypoints, K, LocalizerConfig(), np.random.default_rng(6))
        assert got is not None
        t_err, _ = pose_error(got, gt)
        assert t_err < 0.01

    def test_pose_is_the_ransac_hypothesis_unrefined(self):
        """A candidate's temporary pose is, bit for bit, the best hypothesis
        of its RANSAC loop run alone, and None when that hypothesis has
        fewer than 4 inliers."""
        rng = np.random.default_rng(9)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 60)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 60, points, outlier_fraction=0.5)
        keypoints = keypoints + rng.normal(0.0, 0.1, keypoints.shape)
        cfg = LocalizerConfig(inlier_px=0.5)
        candidates, ids = [matches, matches[:12]], [3, 4]  # the second holds only outliers
        got = temporary_poses(candidates, ids, smap, keypoints, K, cfg, np.random.default_rng(10))
        counts = []
        for m, image_id, pose in zip(candidates, ids, got):
            problem = (
                smap.positions[m[:, 1]],
                keypoints[m[:, 0]],
                np.ones(len(m)),
                localizer.candidate_rng(np.random.default_rng(10), image_id),
            )
            [(best, _, count, _)] = localizer._ransac_loop(
                [problem], K, cfg.inlier_px, cfg.ransac_confidence, cfg.temp_pose_iters
            )
            counts.append(count)
            if count < 4:
                assert pose is None
            else:
                assert pose.rotation.tobytes() == best.rotation.tobytes()
                assert pose.translation.tobytes() == best.translation.tobytes()
        assert counts[0] >= 4 > counts[1]

    def test_pose_depends_on_the_image_not_the_rank_or_the_others(self):
        """A candidate's loop draws from a stream keyed on (query seed, db
        image): dropping, adding or reordering other candidates leaves its
        pose bit for bit, and another image or query seed moves it."""
        rng = np.random.default_rng(7)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 60)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 60, points, outlier_fraction=0.5)
        cfg = LocalizerConfig()
        halves = [matches[:40], matches[20:], matches]

        def pose_of_image_9(candidates, ids, seed=8):
            poses = temporary_poses(candidates, ids, smap, keypoints, K, cfg, np.random.default_rng(seed))
            pose = poses[ids.index(9)]
            return pose.rotation.tobytes() + pose.translation.tobytes()

        alone = pose_of_image_9([matches], [9])
        assert pose_of_image_9([halves[0], matches, halves[1]], [3, 9, 4]) == alone
        assert pose_of_image_9([matches, halves[2]], [9, 2]) == alone
        assert pose_of_image_9([matches, matches], [5, 9]) == alone

        def first_draws(seed, image_id, consumed=0):
            query_rng = np.random.default_rng(seed)
            query_rng.random(consumed)  # the query generator's own draws do not matter
            return localizer.candidate_rng(query_rng, image_id).random(4).tolist()

        assert first_draws(8, 9) == first_draws(8, 9, consumed=5)
        assert first_draws(8, 9) not in (first_draws(8, 5), first_draws(10, 9), first_draws(8, -9))
        assert first_draws(8, 9) != np.random.default_rng(8).random(4).tolist()


def splat(raster, px, label, radius=3):
    ix, iy = int(np.floor(px[0] + 0.5)), int(np.floor(px[1] + 0.5))
    h, w = raster.shape
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx * dx + dy * dy <= radius * radius and 0 <= ix + dx < w and 0 <= iy + dy < h:
                raster[iy + dy, ix + dx] = label


class TestSemanticScore:
    def _grid_scene(self):
        """Widely spaced grid, every point visible from the identity pose."""
        pose = PoseEstimate.identity()
        points = []
        raster = np.full((K.height, K.width), VOID_ID, dtype=np.uint8)
        pid = 1
        for gx in range(8):
            for gy in range(6):
                px = np.array([60.0 + gx * 74.0, 40.0 + gy * 80.0])
                depth = 10.0
                ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
                label = (gx + gy) % 5
                points.append(
                    make_point(pid, ray, label=label, d_lower=5.0, d_upper=50.0,
                               v_mid=-ray / np.linalg.norm(ray), theta=math.radians(60))
                )
                splat(raster, px, label)
                pid += 1
        return pose, points, raster

    def test_ground_truth_pose_counts_all_visible(self):
        pose, points, raster = self._grid_scene()
        smap = map_of(points)
        cfg = LocalizerConfig()
        mask = visible_mask(smap, camera_center(pose), math.radians(cfg.theta_min_deg))
        assert mask.all()
        assert semantic_score(smap, raster, pose, K, cfg) == len(points)

    def test_off_image_projections_score_zero(self):
        pose, points, raster = self._grid_scene()
        smap = map_of(points)
        # shift sideways: band still passes (d_upper=50) but pixels leave the frame
        displaced = PoseEstimate(np.eye(3), np.array([-30.0, 0.0, 0.0]))
        assert semantic_score(smap, raster, displaced, K, LocalizerConfig()) == 0

    def test_matches_double_loop_oracle_under_corruption(self):
        rng = np.random.default_rng(7)
        pose, points, raster = self._grid_scene()
        smap = map_of(points)
        flip = rng.random(raster.shape) < 0.3
        scrambled = np.where(
            flip, rng.integers(0, len(TABLE.names), size=raster.shape).astype(np.uint8), raster
        )
        cfg = LocalizerConfig()
        for trial in range(20):
            jitter = PoseEstimate(
                quat_to_rot(np.array([1.0, *rng.normal(0, 0.01, 3)])),
                rng.normal(0, 0.3, 3),
            )
            got = semantic_score(smap, scrambled, jitter, K, cfg)
            want = oracles.semantic_score_loop(
                points,
                scrambled.tolist(),
                VOID_ID,
                jitter.rotation.tolist(),
                jitter.translation.tolist(),
                K.fx, K.fy, K.cx, K.cy,
                math.radians(cfg.theta_min_deg),
            )
            assert got == want

    def test_void_pixels_never_count(self):
        pose, points, raster = self._grid_scene()
        smap = map_of(points)
        all_void = np.full_like(raster, VOID_ID)
        assert semantic_score(smap, all_void, pose, K, LocalizerConfig()) == 0

    def test_ground_truth_beats_far_displaced_pose(self, clean_scene, clean_dataset, clean_map):
        gt_poses = load_ground_truth(clean_scene.root / "ground_truth.txt")
        cfg = LocalizerConfig()
        spec = clean_scene.spec
        radius = 2.0 * (spec.ring_radius + spec.extent)
        for query in clean_dataset.queries:
            gt_pose = gt_poses[query.name]
            displaced = PoseEstimate(
                gt_pose.rotation, gt_pose.translation - gt_pose.rotation @ np.array([radius, 0, 0])
            )
            gt_score = semantic_score(clean_map, query.labels, gt_pose, query.camera, cfg)
            far_score = semantic_score(clean_map, query.labels, displaced, query.camera, cfg)
            assert gt_score >= far_score
            assert gt_score > 0


def candidate(image_id, pairs, temp_pose, score):
    """ScoredCandidate whose matches are the (query keypoint, map row) pairs."""
    return ScoredCandidate(image_id, np.array(pairs, dtype=np.int64).reshape(-1, 2), temp_pose, score)


@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12),
            st.integers(0, 200),
        ),
        max_size=6,
    )
)
@settings(derandomize=True, deadline=None)
def test_assign_weights_equals_merge_loop_oracle(cands):
    pooled, weights, fallback = assign_weights(
        [candidate(i, pairs, None, score) for i, (pairs, score) in enumerate(cands)]
    )
    want_pairs, want_weights, want_fallback = oracles.merge_weights(cands)
    assert [tuple(m) for m in pooled.tolist()] == want_pairs
    assert weights.tolist() == want_weights  # same order, same bits
    assert fallback == want_fallback


pair_values = st.integers(0, 3) | st.integers(0, 10**6)  # repeats, and wide keys


@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(pair_values, pair_values), max_size=12),
            st.integers(0, 200) | st.just(0),
        ),
        min_size=1,
        max_size=6,
    )
)
@settings(derandomize=True, deadline=None)
def test_assign_weights_equals_pooling_by_rows(cands):
    """The 1-D key gives the bits of np.unique over the match rows: with
    repeated pairs, one candidate, empty candidates and all-zero scores."""
    cands = [candidate(i, pairs, None, score) for i, (pairs, score) in enumerate(cands)]
    pooled, weights, fallback = assign_weights(cands)
    if not any(len(c.matches) for c in cands):
        assert (pooled.shape, weights.shape, fallback) == ((0, 2), (0,), False)
        return
    pairs = np.concatenate([c.matches for c in cands])
    scores = np.concatenate([np.full(len(c.matches), float(c.score)) for c in cands])
    want_pooled, want_weights, want_fallback = oracles.pool_matches_by_rows(pairs, scores)
    assert np.array_equal(pooled, want_pooled) and pooled.dtype == want_pooled.dtype
    assert weights.tobytes() == want_weights.tobytes() and fallback == want_fallback


class TestAssignWeights:
    def test_worked_example(self):
        a = candidate(1, [(i, 100 + i) for i in range(10)], PoseEstimate.identity(), 100)
        b = candidate(2, [(20 + i, 200 + i) for i in range(5)], PoseEstimate.identity(), 50)
        pooled, weights, fallback = assign_weights([a, b])
        assert not fallback
        assert len(pooled) == 15
        for w in weights[:10]:
            assert w == 100.0 / 1250.0  # 0.08
        for w in weights[10:]:
            assert w == 50.0 / 1250.0  # 0.04
        assert np.isclose(weights.sum(), 1.0, atol=1e-9)

    def test_all_zero_scores_fall_back_to_uniform(self):
        a = candidate(1, [(i, i) for i in range(5)], None, 0)
        b = candidate(2, [(10 + i, 10 + i) for i in range(3)], None, 0)
        pooled, weights, fallback = assign_weights([a, b])
        assert fallback
        assert len(pooled) == 8
        assert all(w == 0.125 for w in weights)

    def test_shared_match_merges_raw_weights(self):
        a = candidate(1, [(3, 33), (0, 1)], PoseEstimate.identity(), 100)
        b = candidate(2, [(3, 33)], PoseEstimate.identity(), 50)
        pooled, weights, _ = assign_weights([a, b])
        assert len(pooled) == 2
        by_key = {tuple(m): w for m, w in zip(pooled.tolist(), weights)}
        total = 150.0 + 100.0
        assert by_key[(3, 33)] == 150.0 / total
        assert by_key[(0, 1)] == 100.0 / total

    def test_monotonic_in_candidate_score(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            cands = [
                candidate(
                    i,
                    [(int(k), int(k)) for k in rng.choice(30, size=8, replace=False)],
                    PoseEstimate.identity(),
                    int(rng.integers(0, 50)),
                )
                for i in range(4)
            ]
            base, base_weights, _ = assign_weights(cands)
            base_w = {tuple(m): w for m, w in zip(base.tolist(), base_weights)}
            boosted = [ScoredCandidate(c.image_id, c.matches, c.temp_pose, c.score) for c in cands]
            boosted[1] = ScoredCandidate(
                boosted[1].image_id, boosted[1].matches, boosted[1].temp_pose, boosted[1].score + 25
            )
            after, after_weights, _ = assign_weights(boosted)
            after_w = {tuple(m): w for m, w in zip(after.tolist(), after_weights)}
            for m in boosted[1].matches.tolist():
                assert after_w[tuple(m)] >= base_w[tuple(m)] - 1e-15

    def test_scale_invariance_is_bit_exact(self):
        rng = np.random.default_rng(9)
        cands = [
            candidate(
                i,
                [(int(k), int(k)) for k in rng.choice(40, size=10, replace=False)],
                PoseEstimate.identity(),
                int(rng.integers(1, 200)),
            )
            for i in range(5)
        ]
        base, base_weights, _ = assign_weights(cands)
        for c in (2, 7, 0.5, 256):
            scaled = [
                ScoredCandidate(x.image_id, x.matches, x.temp_pose, x.score * c) for x in cands
            ]
            got, got_weights, _ = assign_weights(scaled)
            assert np.array_equal(got, base)
            assert got_weights.tolist() == base_weights.tolist()  # bitwise


class TestWeightedSampler:
    def test_first_draw_follows_weights(self):
        rng = np.random.default_rng(10)
        weights = np.array([0.5, 0.25, 0.25])
        counts = np.zeros(3)
        n = 20000
        for _ in range(n):
            counts[weighted_sample_without_replacement(rng, weights, 3)[0]] += 1
        freq = counts / n
        assert np.max(np.abs(freq - weights)) < 0.01

    def test_zero_weight_never_drawn(self):
        rng = np.random.default_rng(11)
        weights = np.array([0.5, 0.0, 0.3, 0.2, 0.0])
        for _ in range(500):
            idx = weighted_sample_without_replacement(rng, weights, 3)
            assert 1 not in idx and 4 not in idx
            assert len(set(idx)) == 3

    def test_too_few_positive_weights(self):
        with pytest.raises(ValueError):
            weighted_sample_without_replacement(
                np.random.default_rng(0), np.array([1.0, 1.0, 0.0]), 3
            )


class TopOfRange:
    """Stand-in generator whose every draw is the largest double below 1."""

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)


SPECIAL_WEIGHTS = [
    [0.0, 0.0, 1.0, 0.0, 2.0, 3.0, 0.0],  # zero weights
    [1e-3, 1e12, 2e-3, 1e-3, 5e-4],  # one dominant weight
    [1e308, 0.0, 1e308, 5.0, 0.0],  # the running sum overflows: every draw is past the top
    [3e-320, 0.0, 5e-320, 2e-320, 0.0],  # subnormal total
]


@given(
    st.one_of(
        st.sampled_from(SPECIAL_WEIGHTS),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=3, max_size=40),
    ),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
@settings(derandomize=True, deadline=None)
def test_weighted_samples_equal_per_draw_loop(weights, rows, seed):
    weights = np.array(weights)
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if np.sum(weights > 0) < 3:
        with pytest.raises(ValueError):
            weighted_samples(block_rng.random((rows, 3)), weights)
        return
    with np.errstate(over="ignore"):
        want = [oracles.weighted_sample_loop(loop_rng, weights, 3) for _ in range(rows)]
        assert weighted_samples(block_rng.random((rows, 3)), weights).tolist() == want
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


@given(
    st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(SPECIAL_WEIGHTS),
                st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=3, max_size=30),
            ).filter(lambda w: sum(v > 0 for v in w) >= 3),
            st.integers(1, 4),  # rows drawn on these weights
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 3),
)
@settings(derandomize=True, deadline=None)
def test_padded_rows_equal_per_draw_loop_on_unpadded_weights(problems, pad):
    """One draw over per-row, zero-padded weights, as a lock-step RANSAC
    block makes it: each row picks what the per-draw loop picks on its own
    unpadded weights and generator."""
    width = max(len(w) for w, _, _ in problems) + pad
    padded = np.zeros((len(problems), width))
    u, owner, want = [], [], []
    with np.errstate(over="ignore"):
        for c, (w, rows, seed) in enumerate(problems):
            padded[c, : len(w)] = w
            u.append(np.random.default_rng(seed).random((rows, 3)))
            loop_rng = np.random.default_rng(seed)
            want += [oracles.weighted_sample_loop(loop_rng, np.array(w), 3) for _ in range(rows)]
            owner += [c] * rows
        assert weighted_samples(np.concatenate(u), padded[owner]).tolist() == want


@pytest.mark.parametrize("weights, picks", [(SPECIAL_WEIGHTS[3], [3, 2, 0]), (SPECIAL_WEIGHTS[2], [3, 2, 0])])
def test_top_of_range_draw_falls_back_to_last_positive_weight(weights, picks):
    # a draw at the top of the range passes every running sum (the subnormal
    # total does not round below itself, the overflowed one is inf), so each
    # pick is the last positive weight left
    weights = np.array(weights)
    with np.errstate(over="ignore"):
        assert [oracles.weighted_sample_loop(TopOfRange(), weights, 3) for _ in range(2)] == [picks] * 2
        assert weighted_samples(TopOfRange().random((2, 3)), weights).tolist() == [picks] * 2


def ransac_instance(seed, n, outlier_rate, noise_px):
    """Points in front of a random pose, their pixels with Gaussian noise,
    and a share of the pixels replaced by uniform outliers."""
    rng = np.random.default_rng(seed)
    pose = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
    points = np.array([p.position for p in grid_map_points(rng, pose, n)])
    pixels = np.array([project(pose, K, p) for p in points]) + rng.normal(0.0, noise_px, size=(n, 2))
    bad = rng.random(n) < outlier_rate
    pixels[bad] = rng.uniform([0, 0], [K.width, K.height], size=(int(bad.sum()), 2))
    weights = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.8)
    return points, pixels, weights


def reference_loop(points, pixels, weights, max_iters, rng, confidence=0.99, inlier_px=10.0):
    """oracles.ransac_loop_loop on rng, with the samples it drew and the
    rng state it leaves: (R, t, inlier mask, count, samples, state)."""
    used, loop_sampler = [0], oracles.weighted_sample_loop

    def counted_sample(rng, w, count):
        used[0] += 1
        return loop_sampler(rng, w, count)

    oracles.weighted_sample_loop = counted_sample
    try:
        got = oracles.ransac_loop_loop(
            points, pixels, K, weights, inlier_px, confidence, max_iters, rng
        )
    finally:
        oracles.weighted_sample_loop = loop_sampler
    return (*got, used[0], rng.bit_generator.state)


def assert_loop_equals(outcome, rng, reference):
    """One problem's outcome of the lock-step loop, and its rng after it,
    bit for bit those of the reference loop on that problem alone."""
    pose, inliers, count, samples = outcome
    R, t, want_inliers, want_count, want_samples, state = reference
    assert (pose.rotation.tobytes(), pose.translation.tobytes()) == (R.tobytes(), t.tobytes())
    assert np.array_equal(inliers, want_inliers) and count == want_count
    assert samples == want_samples and rng.bit_generator.state == state


@pytest.mark.parametrize(
    "seed, outlier_rate, noise_px, confidence, temp_iters, block_max, stop",
    [
        (29, 0.1, 0.3, 0.5, 500, 64, "one sample"),
        (23, 0.5, 0.5, 0.99, 500, 64, "mid-block"),
        (23, 0.5, 0.5, 0.99, 500, 3, "mid-block"),  # many blocks at the cap
        (21, 0.3, 0.5, 0.99, 500, 64, "first full block"),
        (24, 0.9, 0.5, 0.99, 20, 64, "max_iters"),
        (25, 0.0, 0.0, 0.99, 500, 64, "all inliers"),
    ],
)
def test_ransac_loop_equals_one_sample_at_a_time(
    monkeypatch, seed, outlier_rate, noise_px, confidence, temp_iters, block_max, stop
):
    # one problem: a uniform loop, then a weighted loop on the same rng, as
    # the final loop follows the temporary ones; `stop` names how the
    # uniform loop ends, or for "mid-block" either loop. The first block is
    # one sample, each later one the cap, or the samples left to the stop
    # when fewer. Every block schedule must give the reference's bits.
    monkeypatch.setattr(localizer, "RANSAC_BLOCK_MAX", block_max)
    drawn = []  # per loop: block sizes drawn
    block_sampler = localizer.weighted_samples

    def counted_block(u, w):
        drawn[-1].append(len(u))
        return block_sampler(u, w)

    monkeypatch.setattr(localizer, "weighted_samples", counted_block)
    points, pixels, weights = ransac_instance(seed, 60, outlier_rate, noise_px)
    loops = ((np.ones(len(points)), temp_iters), (weights, 300))
    loop_rng, block_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    used, counts = [], []
    for loop_weights, max_iters in loops:
        want = reference_loop(points, pixels, loop_weights, max_iters, loop_rng, confidence)
        drawn.append([])
        [outcome] = localizer._ransac_loop(
            [(points, pixels, loop_weights, block_rng)], K, 10.0, confidence, max_iters
        )
        assert_loop_equals(outcome, block_rng, want)
        u, blocks = want[4], drawn[-1]
        assert blocks[0] == 1 and all(b == block_max for b in blocks[1:-1])
        assert blocks[-1] <= block_max and sum(blocks[:-1]) < u <= sum(blocks)
        used.append(u)
        counts.append(want[3])
    if stop == "one sample":
        assert used[0] == 1 and counts[0] < len(points)
    elif stop == "mid-block":
        assert any(sum(d) > u for d, u in zip(drawn, used))
    elif stop == "first full block":
        assert drawn[0] == [1, block_max] and 1 < used[0] < 1 + block_max
    elif stop == "max_iters":
        assert used[0] == temp_iters == sum(drawn[0])
    else:
        assert used[0] == 1 and counts[0] == len(points)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2**16),  # instance seed
            st.integers(12, 60),  # points
            st.sampled_from([0.0, 0.3, 0.6, 0.9]),  # outlier rate
            st.booleans(),  # weighted sampling
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1, 3, 64]),
    st.sampled_from([20, 300]),
    st.randoms(use_true_random=False),
)
@settings(derandomize=True, deadline=None, max_examples=25)
def test_lock_step_loops_equal_each_loop_alone(specs, block_max, max_iters, shuffler):
    """Each of C problems run in lock-step ends as the reference loop ends
    on that problem alone with its own rng; dropping or reordering the
    other problems changes none of it. No block draws more than
    RANSAC_BLOCK_MAX samples, however many problems want them."""
    problems = []
    for seed, n, outlier_rate, weighted in specs:
        points, pixels, weights = ransac_instance(seed, n, outlier_rate, 0.5)
        if not weighted or np.sum(weights > 0) < 3:
            weights = np.ones(n)
        problems.append((points, pixels, weights, seed))
    want = [
        reference_loop(points, pixels, weights, max_iters, np.random.default_rng(seed))
        for points, pixels, weights, seed in problems
    ]
    order = list(range(len(problems)))
    shuffler.shuffle(order)
    kept = order[: shuffler.randint(1, len(order))]
    blocks, sampler = [], localizer.weighted_samples

    def counted(u, w):
        blocks.append(len(u))
        return sampler(u, w)

    with patch.multiple(localizer, RANSAC_BLOCK_MAX=block_max, weighted_samples=counted):
        for subset in (range(len(problems)), kept):
            rngs = [np.random.default_rng(problems[c][3]) for c in subset]
            outcomes = localizer._ransac_loop(
                [(*problems[c][:3], rng) for c, rng in zip(subset, rngs)], K, 10.0, 0.99, max_iters
            )
            for c, outcome, rng in zip(subset, outcomes, rngs):
                if want[c][0] is None:
                    assert outcome[0] is None and outcome[2:] == (0, want[c][4])
                else:
                    assert_loop_equals(outcome, rng, want[c])
    assert max(blocks) <= block_max


@pytest.mark.parametrize("past_stop", [True, False])
def test_solver_fault_raises_only_at_or_before_the_stop(monkeypatch, past_stop):
    """A LinAlgError planted in the sample after the stop, inside the same
    block, is never replayed; one planted in the stop's own sample raises.
    A second problem in the same blocks keeps its own outcome."""
    points, pixels, _ = ransac_instance(21, 60, 0.3, 0.5)
    other = ransac_instance(22, 40, 0.3, 0.5)[:2]
    R, t, _, _, used, _ = reference_loop(points, pixels, np.ones(60), 500, np.random.default_rng(21))
    want_other = reference_loop(*other, np.ones(40), 500, np.random.default_rng(22))
    planted = used if past_stop else used - 1  # 0-based sample index of the first problem
    seen, drawn = [0], []
    solve, sampler = localizer.solve_p3p_many, localizer.weighted_samples
    owners = []

    def recorded_sampler(u, w):
        owners.append(w[:, 59] > 0)  # the rows of the 60-point problem
        return sampler(u, w)

    def planted_solve(pixels, points, K):
        R, t, sample, failures = solve(pixels, points, K)
        mine = np.flatnonzero(owners[-1])
        if seen[0] <= planted < seen[0] + len(mine):
            failures[mine[planted - seen[0]]] = np.linalg.LinAlgError("planted")
        seen[0] += len(mine)
        drawn.append(len(mine))
        return R, t, sample, failures

    monkeypatch.setattr(localizer, "weighted_samples", recorded_sampler)
    monkeypatch.setattr(localizer, "solve_p3p_many", planted_solve)
    rngs = [np.random.default_rng(21), np.random.default_rng(22)]
    problems = [(points, pixels, np.ones(60), rngs[0]), (*other, np.ones(40), rngs[1])]
    if past_stop:
        [(pose, _, _, _), outcome] = localizer._ransac_loop(problems, K, 10.0, 0.99, 500)
        assert sum(drawn) > planted  # the planted sample was drawn and solved
        assert pose.rotation.tobytes() == R.tobytes() and pose.translation.tobytes() == t.tobytes()
        assert_loop_equals(outcome, rngs[1], want_other)
    else:
        with pytest.raises(np.linalg.LinAlgError, match="planted"):
            localizer._ransac_loop(problems, K, 10.0, 0.99, 500)


@given(
    st.integers(2, 8),  # loops that share an outlier rate
    st.sampled_from([0.2, 0.3]),  # their outlier rate
    st.integers(0, 2**16),  # instance seed
    st.integers(0, 40),  # the sample of the last loop whose solve raises
    st.sampled_from([3, 64, 1024]),
)
@settings(derandomize=True, deadline=None, max_examples=12)
def test_borrowed_stops_keep_each_loop_alone(shared, rate, seed, planted, block_max):
    """Lock-step loops whose blocks ask for the samples left to the median
    of their known stops: `shared` loops of one outlier rate, so that one
    with no stop yet guesses the others'; one at 60% outliers, which needs
    more samples than that median; and a last one whose solver raises at
    sample `planted`. Each loop ends as the reference loop ends on it
    alone, with its rng where that loop leaves it; the fault raises when
    the reference would reach it. No block draws more than
    RANSAC_BLOCK_MAX samples."""
    specs = [(seed + c, 30 + c, rate) for c in range(shared)]
    specs += [(seed + 50, 50, 0.6), (seed + 60, 61, rate)]
    problems = [(*ransac_instance(s, n, r, 0.5)[:2], np.ones(n)) for s, n, r in specs]
    want = [
        reference_loop(*problem, 300, np.random.default_rng(s))
        for problem, (s, _, _) in zip(problems, specs)
    ]
    assert want[shared][4] > max(w[4] for w in want[:shared])  # more than any median it guesses
    seen, owners, blocks = [0], [], []
    sampler, solve = localizer.weighted_samples, localizer.solve_p3p_many

    def recorded_sampler(u, w):
        # the rows of the 61-point loop; a block without it is padded to fewer points
        owners.append(np.flatnonzero(w[:, 60] > 0) if w.shape[1] > 60 else np.zeros(0, int))
        blocks.append(len(u))
        return sampler(u, w)

    def planted_solve(pixels, points, K):
        R, t, sample, failures = solve(pixels, points, K)
        if seen[0] <= planted < seen[0] + len(owners[-1]):
            failures[owners[-1][planted - seen[0]]] = np.linalg.LinAlgError("planted")
        seen[0] += len(owners[-1])
        return R, t, sample, failures

    rngs = [np.random.default_rng(s) for s, _, _ in specs]
    loops = [(*p, rng) for p, rng in zip(problems, rngs)]
    with patch.multiple(
        localizer, RANSAC_BLOCK_MAX=block_max, weighted_samples=recorded_sampler,
        solve_p3p_many=planted_solve,
    ):
        if planted < want[-1][4]:
            with pytest.raises(np.linalg.LinAlgError, match="planted"):
                localizer._ransac_loop(loops, K, 10.0, 0.99, 300)
            # the other loops ran to their stops before the fault was raised
            assert [rng.bit_generator.state for rng in rngs[:-1]] == [w[5] for w in want[:-1]]
            assert max(blocks) <= block_max
            return
        outcomes = localizer._ransac_loop(loops, K, 10.0, 0.99, 300)
    for outcome, rng, reference in zip(outcomes, rngs, want):
        assert_loop_equals(outcome, rng, reference)
    assert max(blocks) <= block_max


def test_decoy_size_call_stays_within_the_block_bytes(monkeypatch):
    """One lock-step call of a decoy_outliers query's size: ten loops of
    300 points at 50% outliers, whose second block holds the full 54
    samples of every loop. The call's peak traced memory stays within
    RANSAC_BLOCK_BYTES."""
    problems = [
        (*ransac_instance(120 + c, 300, 0.5, 0.5)[:2], np.ones(300), np.random.default_rng(c))
        for c in range(10)
    ]
    blocks, sampler = [], localizer.weighted_samples

    def counted(u, w):
        blocks.append(len(u))
        return sampler(u, w)

    monkeypatch.setattr(localizer, "weighted_samples", counted)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        localizer._ransac_loop(problems, K, 10.0, 0.99, 500)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert blocks == [10, 540]
    assert peak <= localizer.RANSAC_BLOCK_BYTES, peak


def noise_free_instance(seed, n_in, n_out):
    """n_in points with their exact pixels, then n_out whose pixels are
    uniform in the frame: (points, pixels, inlier mask)."""
    rng = np.random.default_rng(seed)
    pose = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
    points = np.array([p.position for p in grid_map_points(rng, pose, n_in + n_out)])
    pixels = np.array([project(pose, K, p) for p in points])
    pixels[n_in:] = rng.uniform([0, 0], [K.width, K.height], size=(n_out, 2))
    return points, pixels, np.arange(n_in + n_out) < n_in


@pytest.mark.parametrize(
    "seed, inlier_weights, share",
    [
        (31, [3.0] * 20, 0.75),  # 60 of 80
        (32, [3.0, 0.0] * 10, 0.6),  # zero-weight inliers add nothing: 30 of 50
        (33, [1.0] * 20, 0.5),  # uniform: the inlier ratio 20 / 40
    ],
    ids=["known_weights", "zero_weight_inliers", "uniform"],
)
def test_stop_follows_the_inliers_share_of_the_weight(seed, inlier_weights, share):
    """20 exact inliers and 20 outliers of weight 1. The first sample of
    three inliers finds every inlier, at sample j; the loop then uses
    max(j + 1, needed) samples, with needed from the inliers' weight share."""
    points, pixels, inlier = noise_free_instance(seed, 20, 20)
    weights = np.concatenate((inlier_weights, np.ones(20)))
    [(_, inliers, count, samples)] = localizer._ransac_loop(
        [(points, pixels, weights, np.random.default_rng(seed))], K, 10.0, 0.99, 500
    )
    assert np.array_equal(inliers, inlier) and count == 20  # counting stays unweighted
    replay = np.random.default_rng(seed)
    j = next(j for j in range(500) if inlier[weighted_samples(replay.random((1, 3)), weights)].all())
    needed = math.ceil(math.log(0.01) / math.log(1.0 - share**3))
    assert needed == {0.75: 9, 0.6: 19, 0.5: 35}[share]  # the count / n stop is 35 for all three
    assert samples == max(j + 1, needed) < 500


def count_ratio_loop(points, pixels, rng, max_iters, confidence=0.99):
    """(count, samples) of a uniform loop run one sample at a time with the
    stop on the best inlier ratio count / n."""
    n, best, needed, it = len(points), 0, max_iters, 0
    while it < min(max_iters, needed):
        it += 1
        idx = weighted_samples(rng.random((1, 3)), np.ones(n))
        R, t, _, _ = localizer.solve_p3p_many(pixels[idx], points[idx], K)
        for count in localizer.inlier_masks(R, t, K, points, pixels, 10.0).sum(axis=1).tolist():
            if count > best:
                best = count
                if best == n:
                    needed = it
                else:
                    needed = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - (best / n) ** 3))
    return best, it


@pytest.mark.parametrize("seed, outlier_rate", [(41, 0.0), (42, 0.3), (43, 0.6), (44, 0.9)])
def test_uniform_weights_keep_the_count_ratio_stop(seed, outlier_rate):
    """Under uniform weights the share of the weight is count / n to the
    bit: each loop, alone or in lock-step, ends where the count / n stop
    ends it, with the same rng state after it."""
    problems = [ransac_instance(seed + 10 * c, 30 + 10 * c, outlier_rate, 0.5)[:2] for c in range(3)]
    want = []
    for c, (points, pixels) in enumerate(problems):
        rng = np.random.default_rng(seed + c)
        want.append((*count_ratio_loop(points, pixels, rng, 300), rng.bit_generator.state))
    rngs = [np.random.default_rng(seed + c) for c in range(3)]
    outcomes = localizer._ransac_loop(
        [(points, pixels, np.ones(len(points)), rng) for (points, pixels), rng in zip(problems, rngs)],
        K, 10.0, 0.99, 300,
    )
    got = [(count, samples, rng.bit_generator.state) for (_, _, count, samples), rng in zip(outcomes, rngs)]
    assert got == want


@pytest.mark.parametrize(
    "inlier_weight, inlier_px", [(1e-9, 10.0), (0.0, 10.0), (0.0, 0.0)],
    ids=["tiny_mass", "zero_mass", "zero_px"],
)
def test_vanishing_inlier_weight_runs_to_max_iters(monkeypatch, inlier_weight, inlier_px):
    """Every sample proposes the identity pose, under which 10 points
    project exactly onto their pixels and 15 land 50 px off. When those
    inliers carry too little weight for 1 - m**3 to differ from 1, both
    the loop and the oracle run max_iters samples, with no division by 0."""
    grid = np.array([(a / 4, b / 4, 1.0) for a in range(-2, 3) for b in range(-2, 3)])
    pixels = grid[:, :2] * [K.fx, K.fy] + [K.cx, K.cy]  # exact at (I, 0)
    pixels[10:] += 50.0
    weights = np.where(np.arange(25) < 10, inlier_weight, 1.0)

    def identity_poses(pixels, points, K):
        b = len(pixels)
        return np.repeat(np.eye(3)[None], b, axis=0), np.zeros((b, 3)), np.arange(b), [None] * b

    monkeypatch.setattr(localizer, "solve_p3p_many", identity_poses)
    monkeypatch.setattr(oracles, "lambda_twist_loop", lambda *args: [(np.eye(3), np.zeros(3))])
    [(_, inliers, count, samples)] = localizer._ransac_loop(
        [(grid, pixels, weights, np.random.default_rng(5))], K, inlier_px, 0.99, 20
    )
    assert (count, samples) == (10, 20) and inliers[:10].all()
    want = reference_loop(grid, pixels, weights, 20, np.random.default_rng(5), inlier_px=inlier_px)
    assert (want[3], want[4]) == (10, 20)


class TestWeightedRansacPnp:
    def _cluster(self, rng, pose, n, weight_total, start_id):
        """Map points in front of pose, their exact pixels, and weights
        summing to weight_total."""
        points = grid_map_points(rng, pose, n, start_id=start_id)
        pixels = np.array([project(pose, K, p.position) for p in points])
        return points, pixels, np.full(n, weight_total / n)

    def test_outlier_free_any_weights(self):
        rng = np.random.default_rng(12)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points, keypoints, _ = self._cluster(rng, gt, 30, 1.0, 1)
        # arbitrary positive weights, renormalized
        raw = rng.uniform(0.1, 5.0, size=30)
        raw /= raw.sum()
        matches = np.column_stack((np.arange(30), np.arange(30)))
        smap = map_of(points)
        pose, inliers = weighted_ransac_pnp(
            matches, raw, smap, keypoints, K, LocalizerConfig(), np.random.default_rng(13)
        )
        assert pose is not None and inliers == 30
        assert pose_error(pose, gt)[0] < 1e-4

    def test_two_cluster_weights_beat_majority(self):
        rng = np.random.default_rng(14)
        gt = PoseEstimate.identity()
        decoy = PoseEstimate(np.eye(3), np.array([-8.0, 0.0, 0.0]))
        gt_points, gt_pixels, gt_weights = self._cluster(rng, gt, 40, 0.9, 1)
        decoy_points, decoy_pixels, decoy_weights = self._cluster(rng, decoy, 60, 0.1, 1000)
        smap = map_of(gt_points + decoy_points)
        keypoints = np.vstack((gt_pixels, decoy_pixels))
        matches = np.column_stack((np.arange(100), np.arange(100)))
        weights = np.concatenate((gt_weights, decoy_weights))
        cfg = LocalizerConfig()

        pose, _ = weighted_ransac_pnp(matches, weights, smap, keypoints, K, cfg, np.random.default_rng(15))
        assert pose is not None
        assert pose_error(pose, gt)[0] < 0.05  # semantic weights pick the GT cluster

        uniform = np.full(100, 1.0 / 100)
        pose_u, _ = weighted_ransac_pnp(matches, uniform, smap, keypoints, K, cfg, np.random.default_rng(15))
        assert pose_u is not None
        assert pose_error(pose_u, decoy)[0] < 0.05  # majority cluster wins uniformly
        assert pose_error(pose_u, gt)[0] > 1.0

    def test_too_few_matches(self):
        got = weighted_ransac_pnp(
            np.empty((0, 2), dtype=np.int64), np.empty(0), map_of([]), np.empty((0, 2)), K,
            LocalizerConfig(), np.random.default_rng(0),
        )
        assert got == (None, 0)


class TestLocalizeQuery:
    def test_end_to_end_on_clean_scene(self, clean_scene, clean_dataset, clean_map):
        gt_poses = load_ground_truth(clean_scene.root / "ground_truth.txt")
        cfg = LocalizerConfig()
        for query in clean_dataset.queries[:2]:
            result = localize_query(query, clean_map, clean_dataset, cfg, np.random.default_rng(16))
            assert result.pose is not None
            assert result.inliers >= 4
            t_err, r_err = pose_error(result.pose, gt_poses[query.name])
            assert t_err < 1e-3 and r_err < 0.01
            assert not result.used_fallback
            assert all(c.score > 0 for c in result.candidates)

    def test_uniform_baseline_matches_sanity_floor_on_clean_scene(
        self, clean_scene, clean_dataset, clean_map
    ):
        # zero corruption, zero pixel noise: both weighting modes localize
        # every query to the millimeter floor
        gt_poses = load_ground_truth(clean_scene.root / "ground_truth.txt")
        for uniform in (False, True):
            for query in clean_dataset.queries:
                result = localize_query(
                    query, clean_map, clean_dataset, LocalizerConfig(uniform_weights=uniform),
                    np.random.default_rng(21),
                )
                assert result.pose is not None
                assert pose_error(result.pose, gt_poses[query.name])[0] <= 1e-3

    def test_all_candidates_below_min_matches_uses_fallback(self, clean_scene, clean_dataset, clean_map):
        cfg = LocalizerConfig(temp_pose_min_matches=10**6)
        query = clean_dataset.queries[0]
        result = localize_query(query, clean_map, clean_dataset, cfg, np.random.default_rng(17))
        assert result.used_fallback
        assert all(c.temp_pose is None and c.score == 0 for c in result.candidates)
        assert result.pose is not None  # uniform RANSAC still solves the clean scene

    def test_db_image_with_one_descriptor_gives_empty_candidate(
        self, clean_scene, clean_dataset, clean_map
    ):
        # the ratio test needs two db descriptors; that candidate contributes
        # nothing and the query localizes from the others
        query = clean_dataset.queries[0]
        cfg = LocalizerConfig()
        top = localizer.rank_database(
            query.global_desc, clean_dataset.db_global, cfg.k_for(query.condition)
        )[0][0]
        descriptors = dict(clean_dataset.db_descriptors)
        descriptors[top] = DescriptorSet(descriptors[top].dim, descriptors[top].data[:1])
        dataset = replace(clean_dataset, db_descriptors=descriptors)
        result = localize_query(query, clean_map, dataset, cfg, np.random.default_rng(22))
        emptied = [c for c in result.candidates if c.image_id == top]
        assert len(emptied) == 1
        assert emptied[0].matches.shape == (0, 2)
        assert emptied[0].temp_pose is None and emptied[0].score == 0
        assert all(c.temp_pose is not None for c in result.candidates if c.image_id != top)
        gt = load_ground_truth(clean_scene.root / "ground_truth.txt")[query.name]
        assert result.pose is not None
        assert pose_error(result.pose, gt)[0] <= 1e-3

    def test_zero_lifted_matches_fails(self, clean_dataset):
        empty_map = map_of([], clean_dataset.class_table)
        query = clean_dataset.queries[0]
        result = localize_query(
            query, empty_map, clean_dataset, LocalizerConfig(), np.random.default_rng(18)
        )
        assert result.pose is None
        assert result.inliers == 0

    def test_seeded_determinism(self, clean_dataset, clean_map):
        query = clean_dataset.queries[1]
        runs = []
        for _ in range(2):
            result = localize_query(
                query, clean_map, clean_dataset, LocalizerConfig(), np.random.default_rng(19)
            )
            runs.append(result)
        assert np.array_equal(runs[0].pose.rotation, runs[1].pose.rotation)
        assert np.array_equal(runs[0].pose.translation, runs[1].pose.translation)
        assert runs[0].inliers == runs[1].inliers
        assert [c.score for c in runs[0].candidates] == [c.score for c in runs[1].candidates]

    def test_uniform_weights_keeps_diagnostic_scores(self, clean_dataset, clean_map):
        query = clean_dataset.queries[0]
        result = localize_query(
            query, clean_map, clean_dataset, LocalizerConfig(uniform_weights=True),
            np.random.default_rng(20),
        )
        assert result.pose is not None
        assert not result.used_fallback
        assert any(c.score > 0 for c in result.candidates)  # real scores, weights uniform
