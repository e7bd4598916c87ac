import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semloc.geometry as geometry
from semloc.errors import DegenerateConfiguration, NoRealSolution, NumericalFailure
from semloc.geometry import (
    CameraIntrinsics,
    PoseEstimate,
    camera_center,
    pose_error,
    project_many,
    project_poses,
    quat_to_rot,
    refine_pnp,
    reprojection_jacobian,
    reprojection_residuals,
    rot_to_quat,
    so3_exp,
    solve_p3p,
    solve_p3p_many,
)
import oracles
from oracles import project

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
K_UNIT = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)


def random_pose(rng, spread=5.0):
    R = quat_to_rot(rng.normal(size=4))
    center = rng.uniform(-spread, spread, size=3)
    return PoseEstimate(R, -R @ center)


def random_scene_points(rng, pose, n, depth_range=(3.0, 15.0)):
    """World points that project inside the frame with the given pose."""
    pts = []
    while len(pts) < n:
        px = rng.uniform([40, 40], [K.width - 40, K.height - 40])
        depth = rng.uniform(*depth_range)
        ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
        pts.append(pose.rotation.T @ (ray - pose.translation))
    return np.array(pts)


class TestQuaternions:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            R = quat_to_rot(q)
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
            assert np.isclose(np.linalg.det(R), 1.0, atol=1e-12)
            q2 = rot_to_quat(R)
            assert np.allclose(quat_to_rot(q2), R, atol=1e-12)

    def test_canonical_sign(self):
        q = np.array([-0.5, 0.5, 0.5, 0.5])
        assert rot_to_quat(quat_to_rot(q))[0] >= 0


class TestProject:
    def test_optical_axis(self):
        px, in_front = project_many(PoseEstimate.identity(), K_UNIT, np.array([0.0, 0.0, 1.0]))
        assert in_front[0] and np.allclose(px[0], [0.5, 0.5])

    def test_behind_camera(self):
        _, in_front = project_many(PoseEstimate.identity(), K, np.array([0.0, 0.0, -1.0]))
        assert not in_front[0]

    def test_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pose = random_pose(rng)
            X = rng.uniform(-10, 10, size=3)
            px, in_front = project_many(pose, K, X)
            want = oracles.project_homogeneous(
                pose.rotation.tolist(), pose.translation.tolist(), K.fx, K.fy, K.cx, K.cy, X.tolist()
            )
            assert in_front[0] == (want is not None)
            if want is not None:
                assert np.allclose(px[0], want, atol=1e-9)

    def test_project_many_agrees_with_scalar(self):
        rng = np.random.default_rng(2)
        pose = random_pose(rng)
        X = rng.uniform(-20, 20, size=(100, 3))
        px, in_front = project_many(pose, K, X)
        for i in range(100):
            single = project(pose, K, X[i])
            if single is None:
                assert not in_front[i]
            else:
                assert in_front[i]
                assert np.allclose(px[i], single, atol=1e-12)

    def test_project_poses_equals_per_pose_reference_bit_for_bit(self):
        # the stacked projection that verifies RANSAC hypotheses, and
        # project_many through it, keep the bits of one (n, 3) @ R.T per pose
        rng = np.random.default_rng(16)
        poses = [random_pose(rng) for _ in range(7)]
        X = rng.uniform(-20, 20, size=(60, 3))
        X[0] = camera_center(poses[0])  # depth exactly 0
        R = np.array([p.rotation for p in poses])
        t = np.array([p.translation for p in poses])
        px, in_front = project_poses(R, t, K, X)
        assert (~in_front).any() and in_front.any()
        for h, pose in enumerate(poses):
            want, want_front = oracles.project_many_loop(pose.rotation, pose.translation, K, X)
            assert px[h].tobytes() == want.tobytes()
            assert np.array_equal(in_front[h], want_front)
            single, single_front = project_many(pose, K, X)
            assert single.tobytes() == want.tobytes() and np.array_equal(single_front, want_front)

    def test_unproject_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pose = random_pose(rng)
            px = rng.uniform([0, 0], [K.width, K.height])
            depth = rng.uniform(0.1, 50.0)
            ray = np.array([(px[0] - K.cx) / K.fx, (px[1] - K.cy) / K.fy, 1.0]) * depth
            X = pose.rotation.T @ (ray - pose.translation)
            back, in_front = project_many(pose, K, X)
            assert in_front[0]
            assert np.allclose(back[0], px, atol=1e-9)


class TestCameraCenter:
    def test_identity(self):
        assert np.allclose(camera_center(PoseEstimate.identity()), 0.0)

    def test_pure_translation(self):
        pose = PoseEstimate(np.eye(3), np.array([0.0, 0.0, -5.0]))
        assert np.allclose(camera_center(pose), [0.0, 0.0, 5.0])

    def test_center_projects_to_origin(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pose = random_pose(rng)
            assert project(pose, K, camera_center(pose)) is None  # z == 0


class TestSolveP3P:
    def test_identity_self_consistency(self):
        pts = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [-1.0, -1.0, 5.0]])
        pose = PoseEstimate.identity()
        pixels = np.array([project(pose, K, p) for p in pts])
        solutions = solve_p3p(pixels, pts, K)
        errs = [pose_error(s, pose) for s in solutions]
        best = min(errs, key=lambda e: e[0] + e[1])
        assert best[0] < 1e-8 and best[1] < 1e-6

    def test_collinear_points_rejected(self):
        pts = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 6.0], [0.0, 0.0, 7.0]])
        pixels = np.array([[320.0, 240.0]] * 3)
        with pytest.raises(DegenerateConfiguration):
            solve_p3p(pixels, pts, K)

    def test_coincident_rays_rejected(self):
        pts = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [-1.0, -1.0, 5.0]])
        pixels = np.array([[100.0, 100.0], [100.0, 100.0], [300.0, 300.0]])
        with pytest.raises(DegenerateConfiguration):
            solve_p3p(pixels, pts, K)

    def test_reprojection_exactness_and_recovery(self):
        rng = np.random.default_rng(5)
        recovered = 0
        trials = 0
        while trials < 200:
            pose = random_pose(rng)
            pts = random_scene_points(rng, pose, 3)
            if 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0])) < 0.5:
                continue
            trials += 1
            pixels = np.array([project(pose, K, p) for p in pts])
            solutions = solve_p3p(pixels, pts, K)
            assert 1 <= len(solutions) <= 4
            for sol in solutions:
                for px, X in zip(pixels, pts):
                    pred = project(sol, K, X)
                    assert pred is not None
                    assert np.max(np.abs(pred - px)) < 1e-6
            t_best = min(np.linalg.norm(camera_center(s) - camera_center(pose)) for s in solutions)
            r_best = min(
                oracles.rotation_angle_deg(s.rotation.tolist(), pose.rotation.tolist())
                for s in solutions
            )
            if t_best < 1e-8 and r_best < 1e-6:
                recovered += 1
        assert recovered >= 199  # allow one ill-conditioned draw

    def test_deterministic_order(self):
        rng = np.random.default_rng(6)
        pose = random_pose(rng)
        pts = random_scene_points(rng, pose, 3)
        pixels = np.array([project(pose, K, p) for p in pts])
        a = solve_p3p(pixels, pts, K)
        b = solve_p3p(pixels, pts, K)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.rotation, sb.rotation)
            assert np.array_equal(sa.translation, sb.translation)


def right_triangle(rng, corner):
    """Three points on the plane z = 5 + offset with integer coordinates
    and a right angle at point `corner`, so that q = (a2 - c2) / b2 is
    exactly 1 (corner 0) or -1 (corner 2)."""
    scale, offset = rng.integers(1, 4), rng.integers(-3, 4, size=3).astype(float)
    legs = {0: [(0, 0), (3, 0), (0, 4)], 2: [(3, 0), (0, 4), (0, 0)]}[corner]
    return np.array([[scale * x, scale * y, 5.0] for x, y in legs]) + offset


# pixels whose rays (1, 0, 1) and (-1, 0, 1) are orthogonal under K
ORTHOGONAL_PIXELS = [[K.cx + K.fx, K.cy], [K.cx - K.fx, K.cy]]


@st.composite
def p3p_sample(draw):
    """(pixels, points) of one P3P sample: an exact or noisy view of three
    points, random pixels, or a degenerate kind. The kinds "a4_zero" and
    "a0_zero" make the leading or trailing quartic coefficient exactly 0."""
    kind = draw(
        st.sampled_from(
            ["exact", "noisy", "noisy", "random", "collinear", "coincident_rays",
             "non_finite", "a4_small", "a0_small"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pose = random_pose(rng)
    points = random_scene_points(rng, pose, 3)
    pixels = np.array([project(pose, K, p) for p in points])
    free_pixel = rng.uniform([0, 0], [K.width, K.height])
    if kind == "noisy":
        pixels = pixels + rng.normal(0.0, 2.0, size=(3, 2))
    elif kind == "random":
        pixels = rng.uniform([0, 0], [K.width, K.height], size=(3, 2))
    elif kind == "collinear":
        points[2] = points[0] + rng.uniform(-2.0, 2.0) * (points[1] - points[0])
    elif kind == "coincident_rays":
        pixels[rng.integers(1, 3)] = pixels[0]
    elif kind == "non_finite":
        target = pixels if rng.random() < 0.5 else points
        target.flat[rng.integers(target.size)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "a4_small":  # cos(ray 2, ray 3) ~ 0 and q = 1
        pixels = np.array([free_pixel, *ORTHOGONAL_PIXELS])
        points = right_triangle(rng, 0)
    elif kind == "a0_small":  # cos(ray 1, ray 2) ~ 0 and q = -1
        pixels = np.array([*ORTHOGONAL_PIXELS, free_pixel])
        points = right_triangle(rng, 2)
    return pixels, points


def pose_bits(poses):
    return [(R.tobytes(), t.tobytes()) for R, t in poses]


@given(st.lists(p3p_sample(), min_size=1, max_size=6))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_batched_p3p_equals_scalar_solver_bit_for_bit(block):
    pixels = np.array([px for px, _ in block])
    points = np.array([pts for _, pts in block])
    R, t, sample, failures = solve_p3p_many(pixels, points, K)
    assert len(failures) == len(block)
    assert np.all(np.diff(sample) >= 0)
    for b, (px, pts) in enumerate(block):
        got = list(zip(R[sample == b], t[sample == b]))
        try:
            want = oracles.lambda_twist_loop(px, pts, K)
        except (DegenerateConfiguration, NoRealSolution) as exc:
            assert type(failures[b]) is type(exc) and str(failures[b]) == str(exc)
            assert got == []
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                solve_p3p(px, pts, K)
            continue
        assert failures[b] is None
        assert pose_bits(got) == pose_bits(want)
        assert pose_bits((p.rotation, p.translation) for p in solve_p3p(px, pts, K)) == pose_bits(want)


def test_large_block_equals_scalar_solver_bit_for_bit():
    # every step is elementwise, so one block of 2000 noisy views, whose
    # rows take from 3 to about 20 Newton steps on the cubic and up to 5 on
    # the depths, gives each view the bits it has alone
    rng = np.random.default_rng(2)
    pixels, points = [], []
    for _ in range(2000):
        pose = random_pose(rng)
        pts = random_scene_points(rng, pose, 3)
        pixels.append(np.array([project(pose, K, p) for p in pts]) + rng.normal(0.0, 1.0, size=(3, 2)))
        points.append(pts)
    R, t, sample, _ = solve_p3p_many(np.array(pixels), np.array(points), K)
    for b in range(len(pixels)):
        try:
            want = oracles.lambda_twist_loop(pixels[b], points[b], K)
        except (DegenerateConfiguration, NoRealSolution):
            want = []
        assert pose_bits(zip(R[sample == b], t[sample == b])) == pose_bits(want)


@given(p3p_sample())
@settings(derandomize=True, deadline=None, max_examples=500)
def test_every_quartic_pose_is_kept(sample):
    """Against the independent quartic solver (oracles.solve_p3p_loop):
    every pose it finds has a pose within 1e-6 in every entry of R and t,
    every other pose reprojects the three points to within 1e-6 px, and a
    degenerate sample fails with the same class and message."""
    px, pts = sample
    try:
        quartic = oracles.solve_p3p_loop(px, pts, K)
    except DegenerateConfiguration as exc:
        with pytest.raises(DegenerateConfiguration) as raised:
            solve_p3p(px, pts, K)
        assert str(raised.value) == str(exc)
        return
    except NoRealSolution:
        quartic = []
    try:
        poses = [np.concatenate([p.rotation.ravel(), p.translation]) for p in solve_p3p(px, pts, K)]
    except NoRealSolution:
        poses = []
    matched = set()
    for R, t in quartic:
        gaps = [np.abs(np.concatenate([R.ravel(), t]) - p).max() for p in poses]
        assert min(gaps, default=np.inf) <= 1e-6
        matched.add(int(np.argmin(gaps)))
    for i in set(range(len(poses))) - matched:
        pose = PoseEstimate(poses[i][:9].reshape(3, 3), poses[i][9:])
        for pixel, X in zip(px, pts):
            pred = project(pose, K, X)
            assert pred is not None and np.max(np.abs(pred - pixel)) <= 1e-6


class TestRefinePnp:
    def _instance(self, rng, n=60, noise=0.0):
        pose = random_pose(rng)
        pts = random_scene_points(rng, pose, n)
        pixels = np.array([project(pose, K, p) for p in pts])
        if noise:
            pixels = pixels + rng.normal(0.0, noise, size=pixels.shape)
        return pose, pts, pixels

    def test_fixed_point_at_ground_truth(self):
        rng = np.random.default_rng(7)
        pose, pts, pixels = self._instance(rng)
        refined = refine_pnp(pts, pixels, K, pose)
        assert np.allclose(refined.rotation, pose.rotation, atol=1e-12)
        assert np.allclose(refined.translation, pose.translation, atol=1e-12)

    def test_recovers_from_perturbed_init(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            pose, pts, pixels = self._instance(rng)
            w = rng.normal(size=3)
            w *= math.radians(1.0) / np.linalg.norm(w)
            init = PoseEstimate(so3_exp(w) @ pose.rotation, pose.translation + rng.normal(0, 0.05, 3))
            refined = refine_pnp(pts, pixels, K, init)
            assert np.linalg.norm(camera_center(refined) - camera_center(pose)) < 1e-6
            assert oracles.rotation_angle_deg(
                refined.rotation.tolist(), pose.rotation.tolist()
            ) < math.degrees(1e-6)

    def test_cost_strictly_decreasing_with_noise(self):
        rng = np.random.default_rng(9)
        pose, pts, pixels = self._instance(rng, n=100, noise=0.5)
        w = rng.normal(size=3)
        w *= math.radians(2.0) / np.linalg.norm(w)
        init = PoseEstimate(so3_exp(w) @ pose.rotation, pose.translation + rng.normal(0, 0.1, 3))
        trace: list = []
        refine_pnp(pts, pixels, K, init, cost_trace=trace)
        assert len(trace) >= 2
        assert all(b < a for a, b in zip(trace, trace[1:]))

    def test_no_two_jacobians_at_one_pose(self, monkeypatch):
        """A rejected step leaves the pose where it was, so the Jacobian
        taken there serves the next step too."""
        rng = np.random.default_rng(13)
        jacobian, step = geometry.reprojection_jacobian, geometry.so3_exp
        poses, trials = [], [0]

        def recorded_jacobian(pose, K, points):
            poses.append(pose.rotation.tobytes() + pose.translation.tobytes())
            return jacobian(pose, K, points)

        def counted_step(w):
            trials[0] += 1
            return step(w)

        monkeypatch.setattr(geometry, "reprojection_jacobian", recorded_jacobian)
        monkeypatch.setattr(geometry, "so3_exp", counted_step)
        rejected = 0
        for _ in range(5):
            pose, pts, pixels = self._instance(rng, n=80, noise=1.0)
            pixels[:20] = rng.uniform([0, 0], [K.width, K.height], size=(20, 2))  # outliers
            poses.clear()
            trials[0] = 0
            trace: list = []
            refine_pnp(pts, pixels, K, pose, cost_trace=trace)
            assert len(set(poses)) == len(poses) <= len(trace)
            rejected += trials[0] - (len(trace) - 1)
        assert rejected > 0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pose, pts, pixels = self._instance(rng, n=30, noise=1.0)
            res = reprojection_residuals(pose, K, pts, pixels)
            J = reprojection_jacobian(pose, K, pts)
            grad = 2.0 * J.T @ res
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
            assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_jacobian_equals_per_point_loop_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for n in (0, 1, 7, 40, 200):
            pose = random_pose(rng)
            # around the camera: some points in front, some behind
            center = camera_center(pose)
            pts = center + rng.normal(scale=6.0, size=(n, 3))
            if n:
                pts[0] = center  # depth exactly 0
            J = reprojection_jacobian(pose, K, pts)
            want = oracles.reprojection_jacobian_loop(
                pose.rotation, pose.translation, K.fx, K.fy, pts
            )
            assert J.shape == (2 * n, 6)
            assert J.tobytes() == want.tobytes()
            depth = (pts @ pose.rotation.T + pose.translation)[:, 2]
            if n >= 40:
                assert (depth <= 0).any() and (depth > 0).any()
                assert not J.reshape(n, 12)[depth <= 1e-9].any()

    def test_behind_camera_init_raises(self):
        pts = np.array([[0.0, 0.0, -5.0], [1.0, 0.0, -5.0], [0.0, 1.0, -5.0], [1.0, 1.0, -5.0]])
        pixels = np.full((4, 2), 100.0)
        with pytest.raises(NumericalFailure):
            refine_pnp(pts, pixels, K, PoseEstimate.identity())


class TestPoseError:
    def test_identical_poses(self):
        # identity is exact; a general R hits the arccos-of-trace floating
        # floor of ~1.2e-6 deg even for est == gt
        assert pose_error(PoseEstimate.identity(), PoseEstimate.identity()) == (0.0, 0.0)
        rng = np.random.default_rng(11)
        pose = random_pose(rng)
        t_err, r_err = pose_error(pose, pose)
        assert t_err == 0.0
        assert r_err < 5e-6

    def test_pure_rotation_about_z(self):
        angle = math.radians(10.0)
        Rz = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0.0],
                [math.sin(angle), math.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        gt = PoseEstimate.identity()
        est = PoseEstimate(Rz, np.zeros(3))
        t_err, r_err = pose_error(est, gt)
        assert t_err == 0.0
        assert np.isclose(r_err, 10.0, atol=1e-9)

    def test_three_four_five_translation(self):
        gt = PoseEstimate(np.eye(3), np.zeros(3))
        est = PoseEstimate(np.eye(3), -np.array([3.0, 4.0, 0.0]))
        t_err, r_err = pose_error(est, gt)
        assert np.isclose(t_err, 5.0)
        assert r_err == 0.0

    def test_rotation_error_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            assert np.isclose(pose_error(a, b)[1], pose_error(b, a)[1], atol=1e-9)

    def test_translation_error_is_a_metric(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b, c = (random_pose(rng) for _ in range(3))
            ab, bc, ac = (pose_error(x, y)[0] for x, y in ((a, b), (b, c), (a, c)))
            assert ac <= ab + bc + 1e-12
            assert ab >= 0
