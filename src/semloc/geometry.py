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


def project_poses(
    rotations: np.ndarray, translations: np.ndarray, K: CameraIntrinsics, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project points through a stack of H poses.

    rotations: (H, 3, 3); translations: (H, 3); X: (n, 3), shared by every
    pose, or (H, n, 3). Returns (pixels, in_front): pixels is (H, n, 2) and
    only valid where in_front is True; rows at or behind the camera hold NaN.
    """
    # camera coordinates as (H, 3, n): rows of n points keep the loops long
    x_cam = rotations @ np.swapaxes(X, -1, -2) + translations[:, :, None]
    z = x_cam[:, 2]
    in_front = z > _MIN_DEPTH
    px = x_cam[:, :2] * np.array([[K.fx], [K.fy]])
    px /= np.where(in_front, z, np.nan)[:, None]  # NaN at or behind the camera
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


# Side k of a P3P triangle joins points _SIDE_I[k] and _SIDE_J[k]: the sides
# a, b, c are P2P3, P1P3 and P1P2, the cosines ca, cb, cg are between the
# rays of the same pairs, and law-of-cosines constraint k ties s_i and s_j.
_SIDE_I = np.array([1, 0, 0])
_SIDE_J = np.array([2, 2, 1])
_PAIRS = np.stack([_SIDE_I, _SIDE_J], axis=1)
_NEXT = np.array([1, 2, 0])  # cross product component order
_PREV = np.array([2, 0, 1])
_ROW = np.arange(3)
_EARLIER = np.tri(8, 8, -1, dtype=bool)  # [k, j]: slot j comes before slot k


def _quartic_roots(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """np.roots of each row of (M, 5) quartic coefficients, highest first.

    Returns (roots (M, 4) complex, present (M, 4) bool, errors). Rows with a
    zero leading or trailing coefficient, or a companion matrix that is not
    finite, go through np.roots itself, which strips those zeros and may
    raise: errors maps such a row to its LinAlgError. The other rows share
    one stacked eigvals of the companion matrices np.roots builds.
    """
    m = len(coeffs)
    companion = np.zeros((m, 4, 4))
    companion[:, _ROW + 1, _ROW] = 1.0
    companion[:, 0] = -coeffs[:, 1:] / coeffs[:, :1]
    # a zero leading coefficient leaves the companion row infinite or NaN
    direct = np.isfinite(companion[:, 0]).all(axis=1) & (coeffs[:, 4] != 0)
    roots = np.zeros((m, 4), dtype=complex)
    if direct.any():
        try:
            roots[direct] = np.linalg.eigvals(companion[direct])
        except np.linalg.LinAlgError:  # one matrix did not converge: solve each row alone
            direct[:] = False
    present = np.repeat(direct[:, None], 4, axis=1)
    errors: dict[int, Exception] = {}
    for row in np.flatnonzero(~direct):
        try:
            found = np.roots(coeffs[row])
        except np.linalg.LinAlgError as exc:
            errors[int(row)] = exc
            continue
        roots[row, : len(found)] = found
        present[row, : len(found)] = True
    return roots, present, errors


def _p3p_candidates(roots, present, b2, c2_b2, ca, cb, cg, q) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (s1, s2, s3) camera-to-point distances from the roots
    v = s3/s1 of the resection quartic.

    b2, c2_b2 (c2 / b2), the cosines and q are (M, 1) columns. Returns
    (s (M, 8, 3), valid (M, 8)): two slots per root in root order, the
    second used only by the quadratic fallback in u.
    """
    v = roots.real
    keep = present & ~(np.abs(roots.imag) > 1e-4 * np.maximum(1.0, np.abs(v))) & (v > 0)
    denom_s1 = 1.0 + v * v - 2.0 * v * cb
    keep &= ~(denom_s1 <= 1e-15)
    denom = 2.0 * (cg - v * ca)
    linear = np.abs(denom) > 1e-9
    u = np.full(v.shape + (2,), np.nan)
    u[..., 0] = ((q - 1.0) * v * v - 2.0 * q * cb * v + 1.0 + q) / denom
    fallback = keep & ~linear
    if fallback.any():  # the quadratic in u from sides b and c; NaN when it has no root
        rt = np.sqrt(cg * cg - 1.0 + c2_b2 * denom_s1)
        u[..., 0] = np.where(linear, u[..., 0], cg + rt)
        u[..., 1] = np.where(fallback, cg - rt, np.nan)
    valid = keep[..., None] & (u > 0) & (u < np.inf)
    s1 = np.sqrt(b2 / denom_s1)[..., None]
    s = np.empty(u.shape + (3,))
    s[..., 0] = s1
    s[..., 1] = u * s1
    s[..., 2] = v[..., None] * s1
    return s.reshape(len(v), 8, 3), valid.reshape(len(v), 8)


def _law_of_cosines(pairs: np.ndarray, sq: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """(M, 3) residuals of the three law-of-cosines constraints, given the
    (M, 3, 2) distance pairs (s_i, s_j) of each side, the squared sides
    and the ray cosines."""
    si, sj = pairs[..., 0], pairs[..., 1]
    return si * si + sj * sj - 2.0 * si * sj * cos - sq


def _newton_polish(s: np.ndarray, sq: np.ndarray, cos: np.ndarray) -> np.ndarray:
    """Newton iteration on the law-of-cosines constraints for M candidate
    (M, 3) distances, with (M, 3) squared sides and ray cosines.

    A candidate stops moving once every residual is below 1e-14 of its
    longest squared side. Returns the polished distances, with NaN rows for
    the candidates that fail: a singular or non-finite step, a residual
    above 1e-9 of that side after 12 steps, or a distance that is not
    positive.
    """
    s = s.copy()
    scale = sq.max(axis=1)
    alive = np.ones(len(s), dtype=bool)
    for _ in range(12):
        F = _law_of_cosines(s[:, _PAIRS], sq, cos)
        moving = alive & ~(np.abs(F).max(axis=1) < 1e-14 * scale)
        if not moving.any():
            break
        pairs, c = s[moving][:, _PAIRS], cos[moving][..., None]
        J = np.zeros((len(pairs), 3, 3))
        # d F_k / d s_i = 2 s_i - 2 s_j cos_k, and the same with i, j swapped
        J[:, _ROW[:, None], _PAIRS] = 2.0 * pairs - 2.0 * pairs[..., ::-1] * c
        s[moving] += _solve_each(J, -F[moving])
        bad = ~np.isfinite(s).all(axis=1)
        s[bad] = np.nan
        alive &= ~bad
    else:  # still moving after 12 steps
        F = _law_of_cosines(s[:, _PAIRS], sq, cos)
    s[(np.abs(F).max(axis=1) > 1e-9 * scale) | (s <= 0).any(axis=1)] = np.nan
    return s


def _solve_each(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """np.linalg.solve of (M, 3, 3) systems with (M, 3) right-hand sides;
    the rows of a singular system come back NaN."""
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # a stacked solve fails as a whole
        out = np.full_like(rhs, np.nan)
        for i in range(len(J)):
            try:
                out[i] = np.linalg.solve(J[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms with dst = R @ src + t, least squares over the
    three rows of each of the (S, 3, 3) pairs."""
    c_src = src.sum(axis=1) / 3  # as mean() divides
    c_dst = dst.sum(axis=1) / 3
    H = (src - c_src[:, None]).transpose(0, 2, 1) @ (dst - c_dst[:, None])
    U, _, Vt = np.linalg.svd(H)
    V, Ut = Vt.transpose(0, 2, 1), U.transpose(0, 2, 1)
    D = np.zeros_like(H)
    D[:, _ROW, _ROW] = 1.0
    D[:, 2, 2] = np.sign(np.linalg.det(V @ Ut))
    R = V @ D @ Ut
    return R, c_dst - (R @ c_src[:, :, None])[:, :, 0]


def _first_unique(s: np.ndarray) -> np.ndarray:
    """Keeps each row's (M, k, 3) candidates, NaN rows absent, in slot
    order, dropping one within 1e-6 (times the larger of 1 and its largest
    distance) of an earlier kept one. Returns the kept mask."""
    kept = ~np.isnan(s[:, :, 0])
    k = s.shape[1]
    if k == 1:
        return kept
    tol = 1e-6 * np.maximum(1.0, s.max(axis=2))
    close = np.abs(s[:, :, None] - s[:, None]).max(axis=3) < tol[:, :, None]
    close &= _EARLIER[:k, :k]
    if close.any():
        for j in range(1, k):
            kept[:, j] &= ~(close[:, j, :j] & kept[:, :j]).any(axis=1)
    return kept


def solve_p3p_many(
    pixels: np.ndarray, points: np.ndarray, K: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[Exception | None]]:
    """Minimal three-point pose solver over a stack of B samples.

    pixels: (B, 3, 2) observed pixels; points: (B, 3, 3) world points.
    Returns (rotations (H, 3, 3), translations (H, 3), sample (H,), failures).
    The poses of one sample are contiguous, in sample order: up to four,
    each reprojecting the sample's three points to within 1e-6 px, sorted
    by their camera-to-point distances. failures[b] is None when sample b
    has a pose, and otherwise the exception solve_p3p raises for it.
    """
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 3, 2)
    points = np.asarray(points, dtype=float).reshape(-1, 3, 3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _solve_p3p_many(pixels, points, K)


def _solve_p3p_many(pixels, points, K):
    """solve_p3p_many on (B, 3, 2) and (B, 3, 3) float arrays."""
    n = len(points)
    e = points[:, 1:] - points[:, :1]
    e1, e2 = e[:, 0], e[:, 1]
    normal = e1[:, _NEXT] * e2[:, _PREV] - e1[:, _PREV] * e2[:, _NEXT]
    area = 0.5 * np.sqrt((normal[:, None, :] @ normal[:, :, None])[:, 0, 0])
    rays = _bearings(pixels, K)
    sides = points[:, _SIDE_I] - points[:, _SIDE_J]
    sq = (sides * sides).sum(axis=2)
    cos = (rays[:, _SIDE_I, None, :] @ rays[:, _SIDE_J, :, None])[:, :, 0, 0]
    a2, b2, c2 = sq.T
    ca, cb, cg = cos.T
    # the classic quartic in v = s3/s1; float_power squares as Python's ** does
    q = (a2 - c2) / b2
    r = (a2 + c2) / b2
    c2_b2, a2_b2, one_r = c2 / b2, a2 / b2, 1.0 - r
    coeffs = np.empty((n, 5))
    coeffs[:, 0] = np.float_power(q - 1.0, 2) - 4.0 * c2_b2 * ca * ca
    coeffs[:, 1] = 4.0 * (q * (1.0 - q) * cb - one_r * ca * cg + 2.0 * c2_b2 * ca * ca * cb)
    coeffs[:, 2] = 2.0 * (
        q * q
        - 1.0
        + 2.0 * q * q * cb * cb
        + 2.0 * ((b2 - c2) / b2) * ca * ca
        - 4.0 * r * ca * cb * cg
        + 2.0 * ((b2 - a2) / b2) * cg * cg
    )
    coeffs[:, 3] = 4.0 * (-q * (1.0 + q) * cb + 2.0 * a2_b2 * cg * cg * cb - one_r * ca * cg)
    coeffs[:, 4] = np.float_power(1.0 + q, 2) - 4.0 * a2_b2 * cg * cg

    non_finite = ~(np.isfinite(pixels).all(axis=(1, 2)) & np.isfinite(points).all(axis=(1, 2)))
    flat = area <= 1e-9
    coincident = np.abs(cos).max(axis=1) >= 1.0 - 1e-12
    largest = np.abs(coeffs).max(axis=1)  # NaN when a coefficient is
    no_quartic = ~((largest >= 1e-18) & (largest < np.inf))
    failures: list[Exception | None] = [None] * n
    failed = non_finite | flat | coincident | no_quartic
    for b in np.flatnonzero(failed):  # the first check a sample fails names its fault
        if non_finite[b]:
            failures[b] = DegenerateConfiguration("non-finite solver input")
        elif flat[b]:
            failures[b] = DegenerateConfiguration(f"triangle area {area[b]:.3e} below threshold")
        elif coincident[b]:
            failures[b] = DegenerateConfiguration("two viewing rays coincide")
        else:
            failures[b] = NoRealSolution("degenerate resection polynomial")
    live = np.flatnonzero(~failed)

    roots, present, root_errors = _quartic_roots(coeffs[live])
    for i, exc in root_errors.items():
        failures[live[i]] = exc
    columns = np.array([b2, c2_b2, ca, cb, cg, q])[:, live, None]  # (6, M, 1)
    s, valid = _p3p_candidates(roots, present, *columns)
    rows, slots = valid.nonzero()
    polished = _newton_polish(s[rows, slots], sq[live[rows]], cos[live[rows]])
    # each row's polished candidates, in slot order, from its first slot on
    ok = ~np.isnan(polished[:, 0])
    rows, polished = rows[ok], polished[ok]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    s = np.full((len(live), int(rank.max(initial=0)) + 1, 3), np.nan)
    s[rows, rank] = polished
    rows, slots = _first_unique(s).nonzero()
    dist = s[rows, slots]
    order = np.lexsort((dist[:, 2], dist[:, 1], dist[:, 0], rows))  # sorted(key=tuple)
    sample, dist = live[rows[order]], dist[order]

    corners = points[sample]
    R, t = _kabsch(corners, rays[sample] * dist[:, :, None])
    reproj, in_front = project_poses(R, t, K, corners)
    ok = in_front.all(axis=1) & ~(np.abs(reproj - pixels[sample]) > 1e-6).any(axis=(1, 2))
    keep = np.flatnonzero(ok)
    keep = keep[np.arange(len(keep)) - np.searchsorted(sample[keep], sample[keep]) < 4]
    posed = failed.copy()
    posed[sample[keep]] = True
    for b in np.flatnonzero(~posed):
        if failures[b] is None:
            failures[b] = NoRealSolution("no pose reprojects the three points")
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
