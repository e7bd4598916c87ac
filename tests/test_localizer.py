import math
from dataclasses import replace
from types import SimpleNamespace

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
    temporary_pose,
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
        assert temporary_pose(matches, smap, keypoints, K, cfg, np.random.default_rng(0)) is None

    def test_recovers_noiseless_pose(self):
        rng = np.random.default_rng(3)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 50)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 50, points)
        got = temporary_pose(matches, smap, keypoints, K, LocalizerConfig(), np.random.default_rng(4))
        assert got is not None
        t_err, r_err = pose_error(got, gt)
        assert t_err < 1e-4 and r_err < 1e-4

    def test_survives_sixty_percent_outliers(self):
        rng = np.random.default_rng(5)
        gt = PoseEstimate(quat_to_rot(rng.normal(size=4)), rng.normal(size=3))
        points = grid_map_points(rng, gt, 50)
        smap = map_of(points)
        matches, keypoints = synthetic_matches(rng, gt, 50, points, outlier_fraction=0.6)
        got = temporary_pose(matches, smap, keypoints, K, LocalizerConfig(), np.random.default_rng(6))
        assert got is not None
        t_err, _ = pose_error(got, gt)
        assert t_err < 0.01


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
            weighted_samples(block_rng, weights, rows, 3)
        return
    with np.errstate(over="ignore"):
        want = [oracles.weighted_sample_loop(loop_rng, weights, 3) for _ in range(rows)]
        assert weighted_samples(block_rng, weights, rows, 3).tolist() == want
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("weights, picks", [(SPECIAL_WEIGHTS[3], [3, 2, 0]), (SPECIAL_WEIGHTS[2], [3, 2, 0])])
def test_top_of_range_draw_falls_back_to_last_positive_weight(weights, picks):
    # a draw at the top of the range passes every running sum (the subnormal
    # total does not round below itself, the overflowed one is inf), so each
    # pick is the last positive weight left
    weights = np.array(weights)
    with np.errstate(over="ignore"):
        assert [oracles.weighted_sample_loop(TopOfRange(), weights, 3) for _ in range(2)] == [picks] * 2
        assert weighted_samples(TopOfRange(), weights, 2, 3).tolist() == [picks] * 2


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


@pytest.mark.parametrize(
    "seed, outlier_rate, noise_px, confidence, temp_iters, block_max, stop",
    [
        (29, 0.1, 0.3, 0.5, 500, 64, "one sample"),
        (23, 0.5, 0.5, 0.99, 500, 64, "mid-block"),
        (23, 0.5, 0.5, 0.99, 500, 3, "mid-block"),  # many blocks at the cap
        (24, 0.9, 0.5, 0.99, 20, 64, "max_iters"),
        (25, 0.0, 0.0, 0.99, 500, 64, "all inliers"),
    ],
)
def test_ransac_loop_equals_one_sample_at_a_time(
    monkeypatch, seed, outlier_rate, noise_px, confidence, temp_iters, block_max, stop
):
    # the temporary loop, then the final loop on the same rng, as a query
    # runs them; `stop` names how the temporary loop ends, or for
    # "mid-block" either loop
    monkeypatch.setattr(localizer, "RANSAC_BLOCK_MAX", block_max)
    drawn, used = [], []  # per loop: block sizes drawn, samples the reference drew
    block_sampler, loop_sampler = localizer.weighted_samples, oracles.weighted_sample_loop

    def counted_block(rng, w, rows, count):
        drawn[-1].append(rows)
        return block_sampler(rng, w, rows, count)

    def counted_sample(rng, w, count):
        used[-1] += 1
        return loop_sampler(rng, w, count)

    monkeypatch.setattr(localizer, "weighted_samples", counted_block)
    monkeypatch.setattr(oracles, "weighted_sample_loop", counted_sample)
    points, pixels, weights = ransac_instance(seed, 60, outlier_rate, noise_px)
    block_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = []
    for loop_weights, max_iters in ((np.ones(len(points)), temp_iters), (weights, 300)):
        drawn.append([]), used.append(0)
        pose, inliers, count = localizer._ransac_loop(
            points, pixels, K, loop_weights, 10.0, confidence, max_iters, block_rng
        )
        R, t, want_inliers, want_count = oracles.ransac_loop_loop(
            points, pixels, K, loop_weights, 10.0, confidence, max_iters, loop_rng
        )
        assert (pose.rotation.tobytes(), pose.translation.tobytes()) == (R.tobytes(), t.tobytes())
        assert np.array_equal(inliers, want_inliers) and count == want_count
        assert block_rng.bit_generator.state == loop_rng.bit_generator.state
        assert drawn[-1][0] == 1 and max(drawn[-1]) <= block_max
        counts.append(count)
    if stop == "one sample":
        assert used[0] == 1 and counts[0] < len(points)
    elif stop == "mid-block":
        assert any(sum(d) > u for d, u in zip(drawn, used))
    elif stop == "max_iters":
        assert used[0] == temp_iters == sum(drawn[0])
    else:
        assert used[0] == 1 and counts[0] == len(points)


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
