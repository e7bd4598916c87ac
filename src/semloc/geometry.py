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
# refine_pnp: iteration cap, step norm that ends it, and initial damping
_LM_MAX_ITERS, _LM_STEP_TOL, _LM_DAMPING_INIT = 100, 1e-10, 1e-3


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


def project_poses(
    rotations: np.ndarray, translations: np.ndarray, K: CameraIntrinsics, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project points through a stack of H poses.

    rotations: (H, 3, 3); translations: (H, 3); X: (n, 3), shared by every
    pose, or (H, n, 3). Returns (pixels, in_front): pixels is (H, n, 2) and
    only valid where in_front is True; rows at or behind the camera hold NaN.
    """
    # camera coordinates as (H, 3, n): rows of n points keep the loops long
    x_cam = rotations @ np.swapaxes(X, -1, -2)
    x_cam += translations[:, :, None]
    z = x_cam[:, 2]
    in_front = z > _MIN_DEPTH
    px = x_cam[:, :2] * np.array([[K.fx], [K.fy]])
    np.copyto(z, np.nan, where=~in_front)  # NaN at or behind the camera
    px /= z[:, None]
    px += np.array([[K.cx], [K.cy]])
    return px.transpose(0, 2, 1), in_front


def project_many(
    pose: PoseEstimate, K: CameraIntrinsics, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (n, 3) array: project_poses for one pose."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    px, in_front = project_poses(pose.rotation[None], pose.translation[None], K, X)
    return px[0], in_front[0]


def _bearings(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    """Unit viewing rays in camera frame for (..., 2) pixels."""
    rays = np.ones(pixels.shape[:-1] + (3,))
    rays[..., :2] = (pixels - (K.cx, K.cy)) / (K.fx, K.fy)
    rays /= np.sqrt((rays * rays).sum(axis=-1, keepdims=True))  # as np.linalg.norm sums
    return rays


# Pair k of a P3P sample joins points _FIRST[k] and _SECOND[k]: the pairs
# 12, 13 and 23 of the sides d_ij = x_i - x_j, squared lengths a_ij and ray
# terms b_ij = -2 cos(ray i, ray j) of Persson and Nordberg's notation.
_FIRST, _SECOND = np.array([0, 0, 1]), np.array([1, 2, 2])
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # cross product component order
# A sample's four candidate slots: slopes +s, +s, -s, -s of the line pair,
# each with the first and then the second root of its quadratic.
_SIGN, _ROOT = np.array([1.0, 1.0, -1.0, -1.0]), np.array([0, 1, 0, 1])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., _NEXT] * v[..., _PREV] - u[..., _PREV] * v[..., _NEXT]


def _matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked 3 x 3 A @ B, each entry summed in term order with no fused multiply-add."""
    terms = A[..., :, :, None] * B[..., None, :, :]
    return terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]


def _quadratic_roots(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Roots of x**2 + b x + c on a new last axis, the larger in magnitude
    first; NaN where they are complex."""
    roots = np.empty(b.shape + (2,))
    roots[..., 0] = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * c), b))
    roots[..., 1] = c / roots[..., 0]
    return roots


def _cubic_root(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """A real root of each x**3 + b x**2 + c x + d: Newton's method from
    Persson and Nordberg's start, past the outer stationary point on a
    root's side, or at the inflection (moved by 1 where it is nearly flat)
    when there is none. A row stops once its step falls to 1e-12 of its
    root, or after 30 steps."""
    v = np.sqrt(b * b - 3.0 * c)
    t = (-b - v) / 3.0
    k = ((t + b) * t + c) * t + d
    t = np.where(k > 0, t, (-b + v) / 3.0)
    k = np.where(k > 0, k, ((t + b) * t + c) * t + d)
    x = t - np.copysign(np.sqrt(-k / (3.0 * t + b)), k)
    flat = -b / 3.0
    flat += np.abs((3.0 * flat + 2.0 * b) * flat + c) < 1e-4
    x = np.where(v >= 0, x, flat)
    moving = np.arange(len(x))
    for _ in range(30):
        r, bm, cm = x[moving], b[moving], c[moving]
        step = (((r + bm) * r + cm) * r + d[moving]) / ((3.0 * r + 2.0 * bm) * r + cm)
        x[moving] = new = r - step
        moving = moving[np.abs(step) > 1e-12 * np.abs(new)]  # NaN stops too
        if not len(moving):
            break
    return x


def _refine_depths(L: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Newton steps on the constraints l_i**2 + l_j**2 + b_ij l_i l_j = a_ij
    of each row of (h, 3) depths, each kept only if it lowers the sum of
    absolute residuals, at most 5, until that sum is at most 1e-14 of the
    longest squared side."""

    def residuals(L, a, b):
        li, lj = L[:, _FIRST], L[:, _SECOND]
        return li * li + lj * lj + b * li * lj - a

    r = residuals(L, a, b)
    err = np.abs(r).sum(axis=1)
    tol = 1e-14 * a.max(axis=1)
    moving = np.flatnonzero(err > tol)
    for _ in range(5):
        if not len(moving):
            break
        l, bm = L[moving], b[moving]
        li, lj = l[:, _FIRST], l[:, _SECOND]
        J = np.zeros((len(l), 3, 3))  # row k: the gradient of constraint k
        J[:, [0, 1, 2], _FIRST], J[:, [0, 1, 2], _SECOND] = 2.0 * li + bm * lj, 2.0 * lj + bm * li
        C = _cross(J[:, _NEXT], J[:, _PREV])  # cofactors: J^-1 = C^T / det J
        new = l - _matmul(r[moving][:, None], C)[:, 0] / (J[:, 0] * C[:, 0]).sum(axis=1)[:, None]
        new_r = residuals(new, a[moving], bm)
        new_err = np.abs(new_r).sum(axis=1)
        better = new_err < err[moving]
        moving = moving[better]
        L[moving], r[moving], err[moving] = new[better], new_r[better], new_err[better]
        moving = moving[err[moving] > tol[moving]]
    return L


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_p3p_many(
    pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """Lambda Twist P3P (Persson and Nordberg, ECCV 2018) over a stack of B samples.

    pixels: (B, 3, 2) observed pixels; points: (B, 3, 3) world points.
    Returns (rotations (H, 3, 3), translations (H, 3), sample (H,), failures).
    The poses of one sample are contiguous, in sample order: up to four,
    each reprojecting the sample's three points to within 1e-6 px, sorted
    by their camera-to-point distances. failures[b] is None when sample b
    has a pose, and otherwise the exception solve_p3p raises for it. Every
    step is elementwise, so a sample's poses do not depend on the others.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 3, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3, 3)
    n = len(points)
    sides = points[:, _FIRST] - points[:, _SECOND]  # d12, d13, d23
    X = np.concatenate([sides[:, :2], _cross(sides[:, :1], sides[:, 1:2])], axis=1)  # d12, d13, n
    nn = (X[:, 2] * X[:, 2]).sum(axis=1)
    area = 0.5 * np.sqrt(nn)
    rays = _bearings(pixels, K)
    cos = (rays[:, _FIRST] * rays[:, _SECOND]).sum(axis=2)

    non_finite = ~(np.isfinite(pixels).all(axis=(1, 2)) & np.isfinite(points).all(axis=(1, 2)))
    flat = area <= 1e-9
    coincident = np.abs(cos).max(axis=1) >= 1.0 - 1e-12
    failures: list[Exception | None] = [None] * n
    failed = non_finite | flat | coincident
    for i in np.flatnonzero(failed):  # the first check a sample fails names its fault
        failures[i] = DegenerateConfiguration(
            "non-finite solver input" if non_finite[i]
            else f"triangle area {area[i]:.3e} below threshold" if flat[i]
            else "two viewing rays coincide"
        )

    a, b = (sides * sides).sum(axis=2), -2.0 * cos
    (a12, a13, a23), (b12, b13, b23), (c12, c13, c23) = a.T, b.T, cos.T
    # g with D1 + g D2 singular: a root of p3 g**3 + p2 g**2 + p1 g + p0,
    # solved as the cubic in 1 / g when p0 outweighs p3
    s12, s13, s23 = (1.0 - cos * cos).T
    blob = c12 * c23 * c13 - 1.0
    p3 = a13 * (a23 * s13 - a13 * s23)
    p2 = 2.0 * blob * a23 * a13 + a13 * (2.0 * a12 + a13) * s23 + a23 * (a23 - a12) * s13
    p1 = a23 * (a13 - a23) * s12 - a12 * a12 * s23 - 2.0 * a12 * (blob * a23 + a13 * s23)
    p0 = a12 * (a12 * s23 - a23 * s12)
    big = np.abs(p3) >= np.abs(p0)
    p = np.where(big, [p3, p2, p1, p0], [p0, p1, p2, p3])
    g = _cubic_root(p[1] / p[0], p[2] / p[0], p[3] / p[0])
    g = np.where(big, g, 1.0 / g)
    # D0 = D1 + g D2, symmetric with eigenvalues e1, e2 and 0, |e1| >= |e2|
    A00 = a23 * (1.0 - g)
    A01 = a23 * b12 * 0.5
    A02 = a23 * b13 * g * -0.5
    A11 = a23 - a12 + a13 * g
    A12 = b23 * (a13 * g - a12) * 0.5
    A22 = g * (a13 - a23) - a12
    e = _quadratic_roots(
        -A00 - A11 - A22, A00 * (A11 + A22) + A11 * A22 - A01 * A01 - A02 * A02 - A12 * A12
    )
    # the unit eigenvectors (x, y, z) of e1 and e2, in columns 0 and 1
    inv = 1.0 / (e * (A00 + A11)[:, None] - (A00 * A11)[:, None] - e * e + (A01 * A01)[:, None])
    x = -(e * A02[:, None] + (A01 * A12 - A02 * A11)[:, None]) * inv
    y = -(e * A12[:, None] + (A01 * A02 - A00 * A12)[:, None]) * inv
    z = 1.0 / np.sqrt(x * x + y * y + 1.0)
    x, y = x * z, y * z
    # D0 is the line pair (v1 - s v2) . l = 0 with s = +-sqrt(-e2 / e1): so
    # l1 = w0 l2 + w1 l3, and tau = l3 / l2 solves a quadratic
    ratio = -e[:, 1] / e[:, 0]
    slope = np.sqrt(np.where(ratio > 0, ratio, 0.0))[:, None]
    s = slope * _SIGN
    w = 1.0 / (s * x[:, 1:] - x[:, :1])
    w0 = (y[:, :1] - s * y[:, 1:]) * w
    w1 = (z[:, :1] - s * z[:, 1:]) * w
    a12, a13, a23 = a[:, 0:1], a[:, 1:2], a[:, 2:3]  # as columns, against the four slots
    a12_b13, a13_b12 = a12 * b[:, 1:2], a13 * b[:, 0:1]
    qa = 1.0 / ((a13 - a12) * w1 * w1 - a12_b13 * w1 - a12)
    qb = (a13_b12 * w1 - a12_b13 * w0 - 2.0 * w0 * w1 * (a12 - a13)) * qa
    qc = ((a13 - a12) * w0 * w0 + a13_b12 * w0 + a13) * qa
    tau = _quadratic_roots(qb, qc)[:, np.arange(4), _ROOT]
    d = a23 / (tau * (b[:, 2:3] + tau) + 1.0)
    l2 = np.sqrt(d)
    l3 = tau * l2
    l1 = w0 * l2 + w1 * l3
    # a zero slope gives one line, whose candidates the slots of -s repeat
    valid = (tau > 0) & (d > 0) & (l1 >= 0) & ((slope > 0) | (_SIGN > 0)) & ~failed[:, None]
    sample, slot = valid.nonzero()
    L = _refine_depths(np.stack([l1, l2, l3], axis=2)[sample, slot], a[sample], b[sample])

    # R = Y X^-1, where X has columns d12, d13 and n = d12 x d13, and Y the
    # same of the camera-frame points ry_i = l_i y_i; the rows of X^-1 are
    # d13 x n, n x d12 and n, over |n|**2. Rounding in X^-1 leaves R up to
    # about 1e-12 off orthonormal; one Newton-Schulz step, R (3 I - R^T R) / 2,
    # takes it to rounding.
    ry = rays[sample] * L[:, :, None]
    Y = ry[:, :1] - ry[:, 1:]  # columns of Y, as rows
    Y = np.concatenate([Y, _cross(Y[:, :1], Y[:, 1:])], axis=1)
    X_inv = np.concatenate([_cross(X[:, [1, 2]], X[:, [2, 0]]), X[:, 2:]], axis=1)
    R = _matmul(Y.transpose(0, 2, 1), (X_inv / nn[:, None, None])[sample])
    R = _matmul(R, 1.5 * np.eye(3) - 0.5 * _matmul(R.transpose(0, 2, 1), R))
    t = ry[:, 0] - _matmul(R, points[sample, 0][:, :, None])[:, :, 0]
    reproj, in_front = project_poses(R, t, K, points[sample])
    ok = in_front.all(axis=1) & ~(np.abs(reproj - pixels[sample]) > 1e-6).any(axis=(1, 2))
    keep = np.flatnonzero(ok)
    keep = keep[np.lexsort((L[keep, 2], L[keep, 1], L[keep, 0], sample[keep]))]  # sorted(key=tuple)
    for i in np.flatnonzero(~failed & (np.bincount(sample[keep], minlength=n) == 0)):
        failures[i] = NoRealSolution("no pose reprojects the three points")
    return R[keep], t[keep], sample[keep], failures


def solve_p3p(
    pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> list[PoseEstimate]:
    """Minimal three-point pose solver: solve_p3p_many for one sample.

    pixels: (3, 2) observed pixels; points: (3, 3) world points.
    Returns up to four poses, each reprojecting all three points to within
    1e-6 px, ordered deterministically. Raises DegenerateConfiguration for
    non-finite input, collinear or coincident points or coincident rays,
    NoRealSolution when no pose exists.
    """
    R, t, _, failures = solve_p3p_many(pixels, points, K)
    if failures[0] is not None:
        raise failures[0]
    return [PoseEstimate(r, tt) for r, tt in zip(R, t)]


def reprojection_residuals(
    pose: PoseEstimate, K: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Stacked (2n,) pixel residuals, predicted minus observed; NaN for
    points at or behind the camera."""
    return (project_many(pose, K, points)[0] - np.reshape(pixels, (-1, 2))).ravel()


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
    lam = _LM_DAMPING_INIT
    stale = True  # the pose moved since J, g and H were taken

    for _ in range(_LM_MAX_ITERS):
        if stale:
            J = reprojection_jacobian(pose, K, points)
            g = J.T @ res
            H = J.T @ J
            stale = False
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
            pose, res, cost, stale = trial, trial_res, trial_cost, True
            if cost_trace is not None:
                cost_trace.append(cost)
            lam *= 0.1
            if np.linalg.norm(step) < _LM_STEP_TOL:
                break
        else:
            lam *= 10.0
            if np.linalg.norm(step) < _LM_STEP_TOL or lam > 1e14:
                break
    return pose


def pose_error(est: PoseEstimate, gt: PoseEstimate) -> tuple[float, float]:
    """(translation error in meters between camera centers, rotation error
    in degrees).

    The angle of M = R_gt^T R_est is atan2 of the norm of M's skew part and
    (trace M - 1) / 2, which resolves angles far below the ~1e-6 degrees
    where the arccos of the trace alone reads 0, and reads no scale error
    of M as rotation."""
    t_err = float(np.linalg.norm(camera_center(est) - camera_center(gt)))
    M = gt.rotation.T @ est.rotation
    sin_angle = np.linalg.norm([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]]) / 2.0
    r_err = float(np.degrees(np.arctan2(sin_angle, (np.trace(M) - 1.0) / 2.0)))
    return t_err, r_err
