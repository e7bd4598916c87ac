"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion;
a pytest failure on any test is that criterion's FAIL line.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from semloc.cli import main, query_rng
from semloc.evaluation import ThresholdBuckets, bucket_errors
from semloc.geometry import (
    CameraIntrinsics,
    PoseEstimate,
    camera_center,
    pose_error,
    quat_to_rot,
    refine_pnp,
    reprojection_jacobian,
    reprojection_residuals,
    so3_exp,
    solve_p3p,
)
from semloc.localizer import (
    LocalizerConfig,
    ScoredCandidate,
    assign_weights,
    localize_query,
    semantic_score,
    visible_mask,
    weighted_ransac_pnp,
    weighted_sample_without_replacement,
)
from semloc.matching import knn_ratio_match
from semloc.model_ingest import (
    ClassTable,
    DescriptorSet,
    VOID_ID,
    load_dataset,
    load_ground_truth,
)
from semloc.retrieval import rank_database
from semloc.semantic_map import build_semantic_map
from semloc.synth import SceneSpec, generate_scene
import oracles
from oracles import project
from test_localizer import grid_map_points, make_point, map_of, stats_point

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
TABLE = ClassTable(names=tuple(f"c{i}" for i in range(10)), dynamic_ids=frozenset())


def report(criterion: int, message: str) -> None:
    print(f"[ACCEPTANCE] criterion {criterion}: PASS - {message}")


def random_pose(rng, spread=5.0):
    R = quat_to_rot(rng.normal(size=4))
    center = rng.uniform(-spread, spread, size=3)
    return PoseEstimate(R, -R @ center)


def well_conditioned_instance(rng):
    """Pose plus three in-frame points with a decently sized triangle."""
    while True:
        pose = random_pose(rng)
        pts = []
        for _ in range(3):
            px = rng.uniform([50, 50], [K.width - 50, K.height - 50])
            depth = rng.uniform(3.0, 15.0)
            ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
            pts.append(pose.rotation.T @ (ray - pose.translation))
        pts = np.array(pts)
        if 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) > 0.5:
            pixels = np.array([project(pose, K, p) for p in pts])
            return pose, pts, pixels


def test_criterion_1_solver_exactness():
    rng = np.random.default_rng(1001)
    instances = [well_conditioned_instance(rng) for _ in range(1000)]
    hits = 0
    start = time.perf_counter()
    solutions = [solve_p3p(pixels, pts, K) for _, pts, pixels in instances]
    elapsed = time.perf_counter() - start
    for (pose, _, _), sols in zip(instances, solutions):
        t_best = min(np.linalg.norm(camera_center(s) - camera_center(pose)) for s in sols)
        # the arcsin-based angle resolves below the arccos-of-trace float
        # floor (~1e-6 deg), which the tested tolerance sits under
        r_best = min(
            oracles.rotation_angle_deg(s.rotation.tolist(), pose.rotation.tolist())
            for s in sols
        )
        if t_best < 1e-8 and r_best < 1e-6:
            hits += 1
    assert hits >= 999, f"ground truth recovered in only {hits}/1000"
    assert elapsed < 5.0, f"1000 solves took {elapsed:.2f}s"
    report(1, f"{hits}/1000 instances recovered, {elapsed:.2f}s")


def test_criterion_2_refinement_correctness():
    rng = np.random.default_rng(1002)
    worst_rel = 0.0
    for _ in range(100):
        pose = random_pose(rng)
        pts = []
        for _ in range(30):
            px = rng.uniform([40, 40], [K.width - 40, K.height - 40])
            depth = rng.uniform(4.0, 14.0)
            ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
            pts.append(pose.rotation.T @ (ray - pose.translation))
        pts = np.array(pts)
        pixels = np.array([project(pose, K, p) for p in pts]) + rng.normal(0, 1.0, (30, 2))
        res = reprojection_residuals(pose, K, pts, pixels)
        grad = 2.0 * reprojection_jacobian(pose, K, pts).T @ res

        eps = 1e-6
        fd = np.zeros(6)
        for i in range(6):
            delta = np.zeros(6)
            delta[i] = eps

            def cost(d):
                p = PoseEstimate(so3_exp(d[:3]) @ pose.rotation, pose.translation + d[3:])
                r = reprojection_residuals(p, K, pts, pixels)
                return float(r @ r)

            fd[i] = (cost(delta) - cost(-delta)) / (2 * eps)
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        worst_rel = max(worst_rel, rel)
    assert worst_rel <= 1e-5, f"worst gradient mismatch {worst_rel:.2e}"

    # RMS non-increasing across accepted steps on noisy perturbed problems
    for _ in range(20):
        pose = random_pose(rng)
        pts = []
        for _ in range(100):
            px = rng.uniform([40, 40], [K.width - 40, K.height - 40])
            depth = rng.uniform(4.0, 14.0)
            ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
            pts.append(pose.rotation.T @ (ray - pose.translation))
        pts = np.array(pts)
        pixels = np.array([project(pose, K, p) for p in pts]) + rng.normal(0, 0.5, (100, 2))
        w = rng.normal(size=3)
        w *= math.radians(2.0) / np.linalg.norm(w)
        init = PoseEstimate(so3_exp(w) @ pose.rotation, pose.translation + rng.normal(0, 0.1, 3))
        trace: list = []
        refine_pnp(pts, pixels, K, init, cost_trace=trace)
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]
    report(2, f"gradient worst rel err {worst_rel:.2e}; accepted-step RMS monotone")


def test_criterion_3_oracle_equivalence(clean_dataset):
    rng = np.random.default_rng(1003)

    # visible_mask(): 10 one-point maps x 10 query centers
    checked = 0
    for _ in range(10):
        X = rng.uniform(-3, 3, size=3)
        centers = X + rng.normal(0, 1, size=(6, 3)) * [2, 2, 0.5] + [0, 0, 8]
        p = stats_point(1, X, centers)
        for _ in range(10):
            c_q = X + rng.normal(0, 4, size=3) + [0, 0, 6]
            got = bool(visible_mask(map_of([p]), c_q, math.radians(5))[0])
            want = oracles.visible_from_cameras(
                [c.tolist() for c in centers], X.tolist(), c_q.tolist(), math.radians(5)
            )
            assert got == want
            checked += 1
    assert checked >= 100

    # semantic_score(): grid scene x 100 jittered poses
    pose = PoseEstimate.identity()
    points, raster = [], np.full((K.height, K.width), VOID_ID, dtype=np.uint8)
    pid = 1
    for gx in range(8):
        for gy in range(6):
            px = np.array([60.0 + gx * 74.0, 40.0 + gy * 80.0])
            ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * 10.0
            label = (gx + gy) % 5
            points.append(
                make_point(pid, ray, label=label, d_lower=5.0, d_upper=50.0,
                           v_mid=-ray / np.linalg.norm(ray), theta=math.radians(60))
            )
            iy, ix = int(px[1] + 0.5), int(px[0] + 0.5)
            raster[max(0, iy - 2) : iy + 3, max(0, ix - 2) : ix + 3] = label
            pid += 1
    flip = rng.random(raster.shape) < 0.3
    scrambled = np.where(
        flip, rng.integers(0, len(TABLE.names), size=raster.shape).astype(np.uint8), raster
    )
    smap = map_of(points, TABLE)
    cfg = LocalizerConfig()
    for _ in range(100):
        jitter = PoseEstimate(
            quat_to_rot(np.array([1.0, *rng.normal(0, 0.01, 3)])), rng.normal(0, 0.3, 3)
        )
        got = semantic_score(smap, scrambled, jitter, K, cfg)
        want = oracles.semantic_score_loop(
            points, scrambled.tolist(), VOID_ID,
            jitter.rotation.tolist(), jitter.translation.tolist(),
            K.fx, K.fy, K.cx, K.cy, math.radians(cfg.theta_min_deg),
        )
        assert got == want

    # knn_ratio_match(): 100 random instances
    for _ in range(100):
        q = DescriptorSet(8, rng.normal(size=(20, 8)).astype(np.float32))
        db = DescriptorSet(8, rng.normal(size=(25, 8)).astype(np.float32))
        got = {(m.query_kp, m.db_kp) for m in knn_ratio_match(q, db, 0.9)}
        want = oracles.knn_ratio_matches(
            q.data.astype(float).tolist(), db.data.astype(float).tolist(), 0.9
        )
        assert got == want

    # rank_database(): 100 queries against one database
    db = {}
    for i in range(200):
        v = rng.normal(size=16)
        db[i] = (v / np.linalg.norm(v)).astype(np.float32)
    for _ in range(100):
        v = rng.normal(size=16)
        query = (v / np.linalg.norm(v)).astype(np.float32)
        got = rank_database(query, db, 30)
        want = oracles.rank_by_l2(query.tolist(), {i: db[i].tolist() for i in db}, 30)
        assert [i for i, _ in got] == [i for i, _ in want]
        for (gi, gd), (wi, wd) in zip(got, want):
            assert abs(gd - wd) < 1e-12

    # build_semantic_map() labels: every point of the synthetic scene (>= 100)
    ds = clean_dataset
    smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
    rows = smap.rows_of(ds.model.point_ids)
    voted = 0
    for row in range(len(ds.model.point_ids)):
        got = int(smap.labels[rows[row]]) if rows[row] >= 0 else None
        want = oracles.vote_label_from_model(
            row, ds.model, ds.db_rasters, ds.class_table.void_id, ds.class_table.dynamic_ids
        )
        assert got == want
        voted += 1
    assert voted >= 100
    report(3, "visible_mask/semantic_score/knn/rank/vote all equal their oracles")


def test_criterion_4_weighted_sampler_statistics():
    rng = np.random.default_rng(1004)
    weights = np.array([0.5, 0.25, 0.25])
    n = 100_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[weighted_sample_without_replacement(rng, weights, 3)[0]] += 1
    freq = counts / n
    assert np.max(np.abs(freq - weights)) < 0.01, freq
    chi = stats.chisquare(counts, f_exp=weights * n)
    assert chi.pvalue > 0.01, chi
    report(4, f"first-draw freq {freq.round(4).tolist()}, chi-square p={chi.pvalue:.3f}")


def _candidate(image_id, pairs, temp_pose, score):
    return ScoredCandidate(image_id, np.array(pairs, dtype=np.int64).reshape(-1, 2), temp_pose, score)


def test_criterion_5_normalization_and_scale_invariance():
    # the worked example: scores 100 x 10 matches + 50 x 5 matches
    a = _candidate(1, [(i, 100 + i) for i in range(10)], PoseEstimate.identity(), 100)
    b = _candidate(2, [(50 + i, 200 + i) for i in range(5)], PoseEstimate.identity(), 50)
    _, weights, fallback = assign_weights([a, b])
    assert not fallback
    assert weights[:10].tolist() == [0.08] * 10
    assert weights[10:].tolist() == [0.04] * 5

    # scale invariance: weights and the seeded solver trajectory are
    # bit-identical when every score is scaled by one positive constant
    rng = np.random.default_rng(1005)
    gt = PoseEstimate.identity()
    decoy = PoseEstimate(np.eye(3), np.array([-8.0, 0.0, 0.0]))
    gt_points = grid_map_points(rng, gt, 40, start_id=1)
    decoy_points = grid_map_points(rng, decoy, 40, start_id=1000)
    smap = map_of(gt_points + decoy_points, TABLE)
    # query keypoints 0-39 see the gt points (map rows 0-39), 100-139 the decoys (rows 40-79)
    keypoints = np.zeros((140, 2))
    keypoints[:40] = [project(gt, K, p.position) for p in gt_points]
    keypoints[100:] = [project(decoy, K, p.position) for p in decoy_points]

    def candidates(scale):
        cand_a = _candidate(1, [(i, i) for i in range(40)], gt, 90 * scale)
        cand_b = _candidate(2, [(100 + i, 40 + i) for i in range(40)], decoy, 10 * scale)
        return [cand_a, cand_b]

    base_pooled, base_weights, _ = assign_weights(candidates(1))
    base_pose, base_inliers = weighted_ransac_pnp(
        base_pooled, base_weights, smap, keypoints, K, LocalizerConfig(), np.random.default_rng(77)
    )
    for scale in (2, 7, 0.5, 256):
        pooled, weights, _ = assign_weights(candidates(scale))
        assert np.array_equal(pooled, base_pooled)
        assert weights.tolist() == base_weights.tolist()
        pose, inliers = weighted_ransac_pnp(
            pooled, weights, smap, keypoints, K, LocalizerConfig(), np.random.default_rng(77)
        )
        assert inliers == base_inliers
        assert np.array_equal(pose.rotation, base_pose.rotation)
        assert np.array_equal(pose.translation, base_pose.translation)
    report(5, "0.08/0.04 worked example exact; scaled runs bit-identical")


def test_criterion_6_end_to_end_clean(tmp_path):
    start = time.perf_counter()
    spec = SceneSpec(n_points=500, n_db_images=20, n_queries=10, pixel_sigma=0.5, seed=606)
    generate_scene(spec, tmp_path / "ds")
    ds = load_dataset(tmp_path / "ds")
    smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
    gt_poses = load_ground_truth(tmp_path / "ds" / "ground_truth.txt")
    cfg = LocalizerConfig()
    errors = []
    for query in ds.queries:
        result = localize_query(query, smap, ds, cfg, query_rng(606, query.name))
        if result.pose is None:
            errors.append(None)
        else:
            errors.append(pose_error(result.pose, gt_poses[query.name]))
    elapsed = time.perf_counter() - start
    fine, _, _ = bucket_errors(errors, ThresholdBuckets())
    assert fine >= 95.0, f"fine bucket {fine}%"
    assert elapsed < 60.0, f"end-to-end took {elapsed:.1f}s"
    report(6, f"fine bucket {fine:.0f}% of 10 queries, {elapsed:.1f}s")


def test_criterion_7_semantic_benefit(decoy_bundle):
    # part 1: corrupted retrieval scenario, semantic vs uniform on one seed
    _, corrupted_dir, _ = decoy_bundle
    ds = load_dataset(corrupted_dir)
    smap = build_semantic_map(ds.model, ds.db_rasters, ds.class_table)
    gt_poses = load_ground_truth(corrupted_dir / "ground_truth.txt")
    cfg = LocalizerConfig(k_day=10)
    rates = {}
    for label, uniform in (("semantic", False), ("uniform", True)):
        errors = []
        for query in ds.queries:
            result = localize_query(
                query, smap, ds, replace(cfg, uniform_weights=uniform), query_rng(5, query.name)
            )
            errors.append(
                None if result.pose is None else pose_error(result.pose, gt_poses[query.name])
            )
        rates[label], _, _ = bucket_errors(errors, ThresholdBuckets())
    assert rates["semantic"] > rates["uniform"], rates

    # part 2: deterministic decoy-majority unit scenario
    rng = np.random.default_rng(1007)
    gt = PoseEstimate.identity()
    decoy = PoseEstimate(np.eye(3), np.array([-8.0, 0.0, 0.0]))
    gt_points = grid_map_points(rng, gt, 40, start_id=1)
    decoy_points = grid_map_points(rng, decoy, 60, start_id=1000)
    smap2 = map_of(gt_points + decoy_points, TABLE)
    keypoints = np.array(
        [project(gt, K, p.position) for p in gt_points]
        + [project(decoy, K, p.position) for p in decoy_points]
    )
    matches = np.column_stack((np.arange(100), np.arange(100)))
    weights = np.array([0.9 / 40] * 40 + [0.1 / 60] * 60)
    pose_s, _ = weighted_ransac_pnp(matches, weights, smap2, keypoints, K, cfg, np.random.default_rng(15))
    assert pose_s is not None and pose_error(pose_s, gt)[0] < 0.05
    uniform = np.full(100, 1.0 / 100)
    pose_u, _ = weighted_ransac_pnp(matches, uniform, smap2, keypoints, K, cfg, np.random.default_rng(15))
    assert pose_u is not None and pose_error(pose_u, decoy)[0] < 0.05
    assert pose_error(pose_u, gt)[0] > 1.0
    report(
        7,
        f"semantic fine {rates['semantic']:.0f}% > uniform {rates['uniform']:.0f}%; "
        "decoy-majority scenario: weighted=GT, uniform=decoy",
    )


def test_criterion_8_evaluation_protocol():
    buckets = ThresholdBuckets()
    assert buckets.fine == (0.25, 2.0)
    assert buckets.medium == (0.5, 5.0)
    assert buckets.coarse == (5.0, 10.0)
    assert bucket_errors([(0.3, 1.5)], buckets) == (0.0, 100.0, 100.0)
    assert bucket_errors(
        [(0.1, 1.0), (0.3, 3.0), (4.0, 8.0), (10.0, 20.0)], buckets
    ) == (25.0, 50.0, 75.0)
    # both mixed rows fail fine on one component but pass medium on both
    assert bucket_errors([(0.2, 3.0), (0.3, 1.0)], buckets) == (0.0, 100.0, 100.0)
    assert bucket_errors([None, (0.1, 0.5)], buckets) == (50.0, 50.0, 50.0)
    report(8, "hand-computed bucket fixtures reproduced; thresholds match")


def test_criterion_9_run_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"scene": {"n_points": 150, "n_db_images": 8, "n_queries": 3,
                              "pixel_sigma": 0.4, "seed": 909}})
    )
    data = tmp_path / "ds"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data)]) == 0
    outputs = []
    for run_name in ("run_a", "run_b"):
        run = tmp_path / run_name
        assert main(
            ["localize", "--data", str(data), "--out", str(run), "--seed", "4", "--jobs", "2"]
        ) == 0
        outputs.append(
            ((run / "poses.txt").read_bytes(), (run / "report.json").read_bytes())
        )
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    report(9, "poses.txt and report.json byte-identical across seeded runs")
