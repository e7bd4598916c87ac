"""Pinhole camera math: projection, minimal P3P solver, nonlinear PnP
refinement and pose-error metrics.

Conventions used throughout the package:
  - poses are world-to-camera: x_cam = R @ x_world + t
  - the camera center in world coordinates is C = -R^T @ t
  - pixels are (x, y) with x along image width
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, NoRealSolution, NumericalFailure

# z below this is treated as "behind the camera" for projection purposes
_MIN_DEPTH = 1e-9


@dataclass(frozen=True, eq=False)
class CameraIntrinsics:
    """Calibrated pinhole camera (no distortion)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    """World-to-camera rigid transform (R orthonormal, det +1)."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    @staticmethod
    def identity() -> "PoseEstimate":
        return PoseEstimate(np.eye(3), np.zeros(3))

    @staticmethod
    def from_quaternion(q: np.ndarray, t: np.ndarray) -> "PoseEstimate":
        return PoseEstimate(quat_to_rot(np.asarray(q, dtype=float)), np.asarray(t, dtype=float))

    def quaternion(self) -> np.ndarray:
        return rot_to_quat(self.rotation)


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Hamilton quaternion (qw, qx, qy, qz) to rotation matrix; q is renormalized."""
    q = q / np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rot_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to Hamilton quaternion (qw, qx, qy, qz), qw >= 0."""
    m00, m01, m02 = R[0]
    m10, m11, m12 = R[1]
    m20, m21, m22 = R[2]
    trace = m00 + m11 + m22
    if trace > 0:
        s = np.sqrt(trace + 1.0) * 2
        q = np.array([0.25 * s, (m21 - m12) / s, (m02 - m20) / s, (m10 - m01) / s])
    elif m00 > m11 and m00 > m22:
        s = np.sqrt(1.0 + m00 - m11 - m22) * 2
        q = np.array([(m21 - m12) / s, 0.25 * s, (m01 + m10) / s, (m02 + m20) / s])
    elif m11 > m22:
        s = np.sqrt(1.0 + m11 - m00 - m22) * 2
        q = np.array([(m02 - m20) / s, (m01 + m10) / s, 0.25 * s, (m12 + m21) / s])
    else:
        s = np.sqrt(1.0 + m22 - m00 - m11) * 2
        q = np.array([(m10 - m01) / s, (m02 + m20) / s, (m12 + m21) / s, 0.25 * s])
    q /= np.linalg.norm(q)
    if q[0] < 0 or (q[0] == 0 and next((c for c in q[1:] if c != 0), 1.0) < 0):
        q = -q
    return q


def skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def so3_exp(w: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector to rotation matrix."""
    theta = np.linalg.norm(w)
    W = skew(w)
    if theta < 1e-8:
        # second-order Taylor keeps orthogonality to machine precision here
        return np.eye(3) + W + 0.5 * (W @ W)
    A = np.sin(theta) / theta
    B = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + A * W + B * (W @ W)


def camera_center(pose: PoseEstimate) -> np.ndarray:
    """World-frame camera center, -R^T t."""
    return -pose.rotation.T @ pose.translation


def project(pose: PoseEstimate, K: CameraIntrinsics, X: np.ndarray) -> np.ndarray | None:
    """Project a world point; returns the pixel, or None when at/behind the camera."""
    x_cam = pose.rotation @ np.asarray(X, dtype=float) + pose.translation
    if x_cam[2] <= _MIN_DEPTH:
        return None
    return np.array(
        [
            K.fx * x_cam[0] / x_cam[2] + K.cx,
            K.fy * x_cam[1] / x_cam[2] + K.cy,
        ]
    )


def project_many(
    pose: PoseEstimate, K: CameraIntrinsics, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (n, 3) array.

    Returns (pixels, in_front): pixels is (n, 2) and only valid where
    in_front is True; rows at or behind the camera hold NaN.
    """
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    x_cam = X @ pose.rotation.T + pose.translation
    z = x_cam[:, 2]
    in_front = z > _MIN_DEPTH
    px = np.full((X.shape[0], 2), np.nan)
    zs = np.where(in_front, z, 1.0)
    px[:, 0] = np.where(in_front, K.fx * x_cam[:, 0] / zs + K.cx, np.nan)
    px[:, 1] = np.where(in_front, K.fy * x_cam[:, 1] / zs + K.cy, np.nan)
    return px, in_front


def _bearings(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Unit viewing rays in camera frame for (n, 2) pixels."""
    rays = np.column_stack(
        [
            (pixels[:, 0] - K.cx) / K.fx,
            (pixels[:, 1] - K.cy) / K.fy,
            np.ones(len(pixels)),
        ]
    )
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transform with dst = R @ src + t (least squares over the rows)."""
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    H = (src - c_src).T @ (dst - c_dst)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    return R, c_dst - R @ c_src


def _p3p_distance_candidates(
    a2: float, b2: float, c2: float, ca: float, cb: float, cg: float
) -> list[np.ndarray]:
    """Candidate (s1, s2, s3) camera-to-point distances for the three-point
    resection problem, via the classic quartic in v = s3/s1.

    a2, b2, c2: squared distances |P2P3|, |P1P3|, |P1P2|;
    ca, cb, cg: ray-pair cosines opposite those sides.
    """
    q = (a2 - c2) / b2
    r = (a2 + c2) / b2
    A4 = (q - 1.0) ** 2 - 4.0 * (c2 / b2) * ca * ca
    A3 = 4.0 * (q * (1.0 - q) * cb - (1.0 - r) * ca * cg + 2.0 * (c2 / b2) * ca * ca * cb)
    A2 = 2.0 * (
        q * q
        - 1.0
        + 2.0 * q * q * cb * cb
        + 2.0 * ((b2 - c2) / b2) * ca * ca
        - 4.0 * r * ca * cb * cg
        + 2.0 * ((b2 - a2) / b2) * cg * cg
    )
    A1 = 4.0 * (-q * (1.0 + q) * cb + 2.0 * (a2 / b2) * cg * cg * cb - (1.0 - r) * ca * cg)
    A0 = (1.0 + q) ** 2 - 4.0 * (a2 / b2) * cg * cg

    coeffs = np.array([A4, A3, A2, A1, A0])
    if not np.all(np.isfinite(coeffs)) or np.max(np.abs(coeffs)) < 1e-18:
        raise NoRealSolution("degenerate resection polynomial")
    roots = np.roots(coeffs)

    candidates: list[np.ndarray] = []
    for root in roots:
        if abs(root.imag) > 1e-4 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        if v <= 0:
            continue
        denom_s1 = 1.0 + v * v - 2.0 * v * cb
        if denom_s1 <= 1e-15:
            continue
        s1sq = b2 / denom_s1
        s1 = np.sqrt(s1sq)
        denom = 2.0 * (cg - v * ca)
        us: list[float] = []
        if abs(denom) > 1e-9:
            us.append(((q - 1.0) * v * v - 2.0 * q * cb * v + 1.0 + q) / denom)
        else:
            # fall back to the quadratic in u from sides b and c
            disc = cg * cg - 1.0 + (c2 / b2) * (1.0 + v * v - 2.0 * v * cb)
            if disc >= 0:
                rt = np.sqrt(disc)
                us.extend([cg + rt, cg - rt])
        for u in us:
            if u <= 0 or not np.isfinite(u):
                continue
            candidates.append(np.array([s1, u * s1, v * s1]))
    return candidates


def _polish_distances(
    s: np.ndarray, a2: float, b2: float, c2: float, ca: float, cb: float, cg: float
) -> np.ndarray | None:
    """Newton iteration on the three law-of-cosines constraints."""
    scale = max(a2, b2, c2)
    for _ in range(12):
        s1, s2, s3 = s
        F = np.array(
            [
                s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2,
                s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2,
                s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2,
            ]
        )
        if np.max(np.abs(F)) < 1e-14 * scale:
            break
        J = np.array(
            [
                [0.0, 2.0 * s2 - 2.0 * s3 * ca, 2.0 * s3 - 2.0 * s2 * ca],
                [2.0 * s1 - 2.0 * s3 * cb, 0.0, 2.0 * s3 - 2.0 * s1 * cb],
                [2.0 * s1 - 2.0 * s2 * cg, 2.0 * s2 - 2.0 * s1 * cg, 0.0],
            ]
        )
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        s = s + step
        if not np.all(np.isfinite(s)):
            return None
    s1, s2, s3 = s
    resid = max(
        abs(s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * ca - a2),
        abs(s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cb - b2),
        abs(s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cg - c2),
    )
    if resid > 1e-9 * scale or np.any(s <= 0):
        return None
    return s


def solve_p3p(
    pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> list[PoseEstimate]:
    """Minimal three-point pose solver.

    pixels: (3, 2) observed pixels; points: (3, 3) world points.
    Returns up to four poses, each reprojecting all three points to within
    1e-6 px, ordered deterministically. Raises DegenerateConfiguration for
    collinear or coincident points, NoRealSolution when no pose exists.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(3, 2)
    points = np.asarray(points, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(pixels)) or not np.all(np.isfinite(points)):
        raise DegenerateConfiguration("non-finite solver input")
    area = 0.5 * np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
    if area <= 1e-9:
        raise DegenerateConfiguration(f"triangle area {area:.3e} below threshold")

    rays = _bearings(pixels, K)
    a2 = float(np.sum((points[1] - points[2]) ** 2))
    b2 = float(np.sum((points[0] - points[2]) ** 2))
    c2 = float(np.sum((points[0] - points[1]) ** 2))
    ca = float(rays[1] @ rays[2])
    cb = float(rays[0] @ rays[2])
    cg = float(rays[0] @ rays[1])
    if max(abs(ca), abs(cb), abs(cg)) >= 1.0 - 1e-12:
        raise DegenerateConfiguration("two viewing rays coincide")

    solutions: list[np.ndarray] = []
    for cand in _p3p_distance_candidates(a2, b2, c2, ca, cb, cg):
        s = _polish_distances(cand, a2, b2, c2, ca, cb, cg)
        if s is None:
            continue
        if any(np.max(np.abs(s - prev)) < 1e-6 * max(1.0, float(np.max(s))) for prev in solutions):
            continue
        solutions.append(s)

    poses = []
    for s in sorted(solutions, key=tuple):
        cam_pts = rays * s[:, None]
        R, t = _kabsch(points, cam_pts)
        pose = PoseEstimate(R, t)
        reproj_ok = True
        for px, X in zip(pixels, points):
            pred = project(pose, K, X)
            if pred is None or np.max(np.abs(pred - px)) > 1e-6:
                reproj_ok = False
                break
        if reproj_ok:
            poses.append(pose)
    if not poses:
        raise NoRealSolution("no pose reprojects the three points")
    return poses[:4]


def reprojection_residuals(
    pose: PoseEstimate, K: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Stacked (2n,) pixel residuals, predicted minus observed."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    x_cam = points @ pose.rotation.T + pose.translation
    z = x_cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = K.fx * x_cam[:, 0] / z + K.cx
        v = K.fy * x_cam[:, 1] / z + K.cy
    res = np.column_stack([u - pixels[:, 0], v - pixels[:, 1]])
    res[z <= _MIN_DEPTH] = np.inf
    return res.ravel()


def reprojection_jacobian(
    pose: PoseEstimate, K: CameraIntrinsics, points: np.ndarray
) -> np.ndarray:
    """(2n, 6) Jacobian of the residuals w.r.t. the local pose update
    (w, dt), where the updated pose is (exp([w]x) @ R, t + dt). The rows
    of points at depth <= _MIN_DEPTH are zero.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = points.shape[0]
    rotated = points @ pose.rotation.T  # R @ X per row
    x_cam = rotated + pose.translation
    x, y, z = x_cam.T
    # per point [-skew(R @ X) | I], with -skew's -0.0 diagonal kept
    d_cam = np.zeros((n, 3, 6))
    rx, ry, rz = rotated.T
    d_cam[:, [0, 1, 2], [0, 1, 2]] = -0.0
    d_cam[:, 0, 1], d_cam[:, 0, 2] = rz, -ry
    d_cam[:, 1, 0], d_cam[:, 1, 2] = -rz, rx
    d_cam[:, 2, 0], d_cam[:, 2, 1] = ry, -rx
    d_cam[:, [0, 1, 2], [3, 4, 5]] = 1.0
    d_proj = np.zeros((n, 2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        d_proj[:, 0, 0] = K.fx / z
        d_proj[:, 0, 2] = -K.fx * x / (z * z)
        d_proj[:, 1, 1] = K.fy / z
        d_proj[:, 1, 2] = -K.fy * y / (z * z)
        J = d_proj @ d_cam
    J[z <= _MIN_DEPTH] = 0.0
    return J.reshape(2 * n, 6)


def refine_pnp(
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    init: PoseEstimate,
    max_iters: int = 100,
    step_tol: float = 1e-10,
    damping_init: float = 1e-3,
    cost_trace: list | None = None,
) -> PoseEstimate:
    """Damped Gauss-Newton minimization of the summed squared reprojection
    error over a 6-dof local pose parameterization.

    Only cost-decreasing steps are accepted (damping x0.1 on accept, x10 on
    reject), so the RMS error never increases. Raises NumericalFailure when
    the initial residuals are non-finite. cost_trace, when given, collects
    the cost at the initial pose and after each accepted step.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if points.shape[0] < 4:
        raise ValueError("refinement needs at least 4 correspondences")

    pose = init
    res = reprojection_residuals(pose, K, points, pixels)
    if not np.all(np.isfinite(res)):
        raise NumericalFailure("non-finite residuals at the initial pose")
    cost = float(res @ res)
    if cost_trace is not None:
        cost_trace.append(cost)
    lam = damping_init

    for _ in range(max_iters):
        J = reprojection_jacobian(pose, K, points)
        g = J.T @ res
        H = J.T @ J
        try:
            step = np.linalg.solve(H + lam * np.eye(6), -g)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = PoseEstimate(
            so3_exp(step[:3]) @ pose.rotation, pose.translation + step[3:]
        )
        trial_res = reprojection_residuals(trial, K, points, pixels)
        trial_cost = float(trial_res @ trial_res) if np.all(np.isfinite(trial_res)) else np.inf
        if trial_cost < cost:
            pose, res, cost = trial, trial_res, trial_cost
            if cost_trace is not None:
                cost_trace.append(cost)
            lam *= 0.1
            if np.linalg.norm(step) < step_tol:
                break
        else:
            lam *= 10.0
            if np.linalg.norm(step) < step_tol or lam > 1e14:
                break
    return pose


def pose_error(est: PoseEstimate, gt: PoseEstimate) -> tuple[float, float]:
    """(translation error in meters between camera centers, rotation error
    in degrees)."""
    t_err = float(np.linalg.norm(camera_center(est) - camera_center(gt)))
    cos_angle = (np.trace(gt.rotation.T @ est.rotation) - 1.0) / 2.0
    r_err = float(np.degrees(np.arccos(np.clip(cos_angle, -1.0, 1.0))))
    return t_err, r_err
