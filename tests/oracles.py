"""Independent brute-force oracles, written with plain Python loops and the
math module so they share no code path with the implementations they check.

The bit-exact references at the end are the exception: they repeat the
numpy expressions whose rounding the implementations must keep, once per
element, once per RANSAC sample or over the full matrix, so results
compare bit for bit. They raise the package's own exception types."""

import math

import numpy as np

from semloc.errors import DegenerateConfiguration, NoRealSolution


def dist(a, b):
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def rank_by_l2(query_values, db_values_by_id, k):
    """Full sort by (distance, id); returns [(image_id, distance)]."""
    entries = []
    for image_id in db_values_by_id:
        entries.append((dist(query_values, db_values_by_id[image_id]), image_id))
    entries.sort()
    return [(image_id, d) for d, image_id in entries[: min(k, len(entries))]]


def knn_ratio_matches(query_rows, db_rows, ratio):
    """All-pairs matching with the strict ratio test d1 < ratio * d2 and
    one-to-one db usage.

    Returns a set of (query_idx, db_idx) pairs.
    """
    accepted = []
    for qi, q in enumerate(query_rows):
        dists = [(dist(q, d), di) for di, d in enumerate(db_rows)]
        dists.sort()
        d1, best = dists[0]
        d2 = dists[1][0]
        if d1 < ratio * d2:
            accepted.append((d1, qi, best))
    accepted.sort()
    used = set()
    result = set()
    for d1, qi, di in accepted:
        if di in used:
            continue
        used.add(di)
        result.add((qi, di))
    return result


def project_homogeneous(R, t, fx, fy, cx, cy, X):
    """3x4 homogeneous matrix projection; None when z <= 1e-9."""
    K = [[fx, 0.0, cx], [0.0, fy, cy], [0.0, 0.0, 1.0]]
    P = [[sum(K[i][m] * R[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    col = [sum(K[i][m] * t[m] for m in range(3)) for i in range(3)]
    h = [sum(P[i][j] * X[j] for j in range(3)) + col[i] for i in range(3)]
    if h[2] <= 1e-9:
        return None
    return (h[0] / h[2], h[1] / h[2])


def visibility_stats(centers, X):
    """(d_lower, d_upper, v_mid, theta) by exhaustive pair search."""
    dists = [dist(c, X) for c in centers]
    dirs = []
    for c, d in zip(centers, dists):
        dirs.append(tuple((float(ci) - float(xi)) / d for ci, xi in zip(c, X)))
    best_pair, best_cos = (0, 1), 2.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            c = sum(a * b for a, b in zip(dirs[i], dirs[j]))
            if c < best_cos:
                best_cos = c
                best_pair = (i, j)
    a, b = dirs[best_pair[0]], dirs[best_pair[1]]
    theta = math.acos(max(-1.0, min(1.0, best_cos)))
    mid = [ai + bi for ai, bi in zip(a, b)]
    norm = math.sqrt(sum(m * m for m in mid))
    v_mid = tuple(m / norm for m in mid)
    return min(dists), max(dists), v_mid, theta


def visible_from_cameras(centers, X, c_q, theta_min):
    """Re-derivation of the visibility predicate from the raw camera list:
    recompute the band and cone, then test the query center."""
    d_lower, d_upper, v_mid, theta = visibility_stats(centers, X)
    v = [float(a) - float(b) for a, b in zip(c_q, X)]
    norm = math.sqrt(sum(x * x for x in v))
    if norm < 1e-9:
        return False
    if not (d_lower <= norm <= d_upper):
        return False
    cos_angle = sum(a * b for a, b in zip(v, v_mid)) / norm
    angle = math.acos(max(-1.0, min(1.0, cos_angle)))
    return angle <= max(theta, theta_min)


def visible_from_stats(point, c_q, theta_min):
    """Same predicate from precomputed stats (point has the fields of one
    map row: position, d_lower, d_upper, v_mid, theta)."""
    v = [float(a) - float(b) for a, b in zip(c_q, point.position)]
    norm = math.sqrt(sum(x * x for x in v))
    if norm < 1e-9:
        return False
    if not (point.d_lower <= norm <= point.d_upper):
        return False
    cos_angle = sum(a * b for a, b in zip(v, point.v_mid)) / norm
    angle = math.acos(max(-1.0, min(1.0, cos_angle)))
    return angle <= max(point.theta, theta_min)


def semantic_score_loop(points, raster_rows, void_id, R, t, fx, fy, cx, cy, theta_min):
    """Naive per-point loop: visibility from stats, projection, nearest
    pixel, label comparison. points have the fields of one map row plus
    label; raster_rows is a list of lists."""
    height = len(raster_rows)
    width = len(raster_rows[0])
    c_q = [-sum(R[m][i] * t[m] for m in range(3)) for i in range(3)]
    score = 0
    for p in points:
        if not visible_from_stats(p, c_q, theta_min):
            continue
        px = project_homogeneous(R, t, fx, fy, cx, cy, [float(v) for v in p.position])
        if px is None:
            continue
        ix = math.floor(px[0] + 0.5)
        iy = math.floor(px[1] + 0.5)
        if not (0 <= ix < width and 0 <= iy < height):
            continue
        label = raster_rows[iy][ix]
        if label != void_id and label == p.label:
            score += 1
    return score


def merge_weights(candidates):
    """Pool (query keypoint, map row) matches by dict: candidates is a list
    of (pairs, score). Each pair takes its candidate's score; duplicates
    keep their first-seen place and sum their scores; weights normalize to
    1, or are uniform when every score is 0.

    Returns (pairs, weights, used_fallback).
    """
    merged = {}
    for pairs, score in candidates:
        for key in pairs:
            merged[key] = merged.get(key, 0.0) + float(score)
    order = list(merged)
    if not order:
        return [], [], False
    total = 0.0
    for key in order:
        total += merged[key]
    if total <= 0.0:
        return order, [1.0 / len(order)] * len(order), True
    return order, [merged[key] / total for key in order], False


def vote_label(track_pixels_labels, void_id, dynamic_ids):
    """Majority vote over (label,) votes already looked up from rasters;
    returns the winning label or None for removed."""
    counts = {}
    for label in track_pixels_labels:
        if label == void_id:
            continue
        counts[label] = counts.get(label, 0) + 1
    if not counts:
        return None
    best = None
    for label in sorted(counts):
        if best is None or counts[label] > counts[best]:
            best = label
    if best in dynamic_ids:
        return None
    return best


def vote_label_from_model(row, model, rasters, void_id, dynamic_ids):
    """Full re-derivation for the point in row `row` of the model's track
    table: raster lookups (round-half-up) plus majority."""
    votes = []
    for _, image_id, kp_idx in model.tracks[model.tracks[:, 0] == row].tolist():
        kp = model.images[image_id].keypoints[kp_idx]
        ix = math.floor(float(kp[0]) + 0.5)
        iy = math.floor(float(kp[1]) + 0.5)
        votes.append(int(rasters[image_id][iy, ix]))
    return vote_label(votes, void_id, dynamic_ids)


def rotation_angle_deg(R_a, R_b):
    """Rotation angle between two rotation matrices, resolved for tiny
    angles: uses the skew part (arcsin) below 1 degree, arccos above.
    The trace-arccos form alone quantizes at ~1e-6 deg."""
    M = [[sum(R_a[m][i] * R_b[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    trace = M[0][0] + M[1][1] + M[2][2]
    skew = [
        (M[2][1] - M[1][2]) / 2.0,
        (M[0][2] - M[2][0]) / 2.0,
        (M[1][0] - M[0][1]) / 2.0,
    ]
    sin_angle = math.sqrt(sum(s * s for s in skew))
    if trace - 1.0 > 2.0 * math.cos(math.radians(1.0)) - 1.0:
        return math.degrees(math.asin(min(1.0, sin_angle)))
    return math.degrees(math.acos(max(-1.0, min(1.0, (trace - 1.0) / 2.0))))


def knn_ratio_matches_full_matrix(query_rows, db_rows, ratio):
    """The strict ratio test with one-to-one db usage over the full
    (query, db) distance matrix, each distance computed as
    np.linalg.norm(q - d) in float64.

    Returns [(query_idx, db_idx, distance)] in query order.
    """
    q = np.asarray(query_rows, dtype=np.float64)
    db = np.asarray(db_rows, dtype=np.float64)
    dists = np.linalg.norm(q[:, None, :] - db[None, :, :], axis=2)
    accepted = []
    for qi, row in enumerate(dists.tolist()):
        order = sorted(range(len(row)), key=lambda j: (row[j], j))
        d1, d2 = row[order[0]], row[order[1]]
        if d1 < ratio * d2:
            accepted.append((d1, qi, order[0]))
    accepted.sort()
    used = set()
    result = []
    for d1, qi, di in accepted:
        if di not in used:
            used.add(di)
            result.append((qi, di, d1))
    return sorted(result)


def reprojection_jacobian_loop(R, t, fx, fy, points):
    """(2n, 6) Jacobian of the pixel residuals w.r.t. the update
    (exp([w]x) @ R, t + dt), one point at a time: d(pixel)/d(camera point)
    times [-[R X]x | I], zero rows for points at depth <= 1e-9."""
    R = np.asarray(R, dtype=float)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    rotated = points @ R.T
    rows = []
    for r in rotated:
        x, y, z = r + np.asarray(t, dtype=float)
        if z <= 1e-9:
            rows.append(np.zeros((2, 6)))
            continue
        d_proj = np.array([[fx / z, 0.0, -fx * x / (z * z)], [0.0, fy / z, -fy * y / (z * z)]])
        neg_skew = np.array(
            [[-0.0, r[2], -r[1]], [-r[2], -0.0, r[0]], [r[1], -r[0], -0.0]]
        )
        rows.append(d_proj @ np.hstack([neg_skew, np.eye(3)]))
    return np.concatenate(rows) if rows else np.zeros((0, 6))


def _bearings_loop(pixels, K):
    rays = np.column_stack(
        [
            (pixels[:, 0] - K.cx) / K.fx,
            (pixels[:, 1] - K.cy) / K.fy,
            np.ones(len(pixels)),
        ]
    )
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _project_point_loop(R, t, K, X):
    x_cam = R @ np.asarray(X, dtype=float) + t
    if x_cam[2] <= 1e-9:
        return None
    return np.array(
        [
            K.fx * x_cam[0] / x_cam[2] + K.cx,
            K.fy * x_cam[1] / x_cam[2] + K.cy,
        ]
    )


def project_many_loop(R, t, K, X):
    """(pixels, in_front) of an (n, 3) array for one pose, NaN behind the
    camera, with the numpy expressions of the per-pose projection."""
    X = np.asarray(X, dtype=float).reshape(-1, 3)
    x_cam = X @ R.T + t
    z = x_cam[:, 2]
    in_front = z > 1e-9
    px = np.full((X.shape[0], 2), np.nan)
    zs = np.where(in_front, z, 1.0)
    px[:, 0] = np.where(in_front, K.fx * x_cam[:, 0] / zs + K.cx, np.nan)
    px[:, 1] = np.where(in_front, K.fy * x_cam[:, 1] / zs + K.cy, np.nan)
    return px, in_front


def project(pose, K, X):
    """Pixel of one world point, None at or behind the camera: one row of
    project_many_loop, so its bits are those of geometry.project_many."""
    px, in_front = project_many_loop(pose.rotation, pose.translation, K, X)
    return px[0] if in_front[0] else None


def _kabsch_loop(src, dst):
    c_src = src.mean(axis=0)
    c_dst = dst.mean(axis=0)
    H = (src - c_src).T @ (dst - c_dst)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    return R, c_dst - R @ c_src


def p3p_distance_candidates_loop(a2, b2, c2, ca, cb, cg):
    """Candidate (s1, s2, s3) camera-to-point distances from the classic
    quartic in v = s3/s1, one root at a time in Python floats."""
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
    return candidates_from_roots_loop(roots, a2, b2, c2, ca, cb, cg)


def candidates_from_roots_loop(roots, a2, b2, c2, ca, cb, cg):
    """The candidates of p3p_distance_candidates_loop for given roots
    v = s3/s1, in root order."""
    q = (a2 - c2) / b2
    candidates = []
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
        us = []
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


def polish_distances_loop(s, a2, b2, c2, ca, cb, cg):
    """Newton iteration on the three law-of-cosines constraints for one
    candidate; None when it fails."""
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


def solve_p3p_loop(pixels, points, K):
    """The minimal three-point solver one sample and one candidate at a
    time: quartic roots by np.roots, per-candidate Newton polishing and
    Kabsch, and a per-point 1e-6 px reprojection check. Returns up to four
    (R, t) in the order sorted by the (s1, s2, s3) distances; raises
    DegenerateConfiguration or NoRealSolution like the batched solver."""
    pixels = np.asarray(pixels, dtype=float).reshape(3, 2)
    points = np.asarray(points, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(pixels)) or not np.all(np.isfinite(points)):
        raise DegenerateConfiguration("non-finite solver input")
    area = 0.5 * np.linalg.norm(np.cross(points[1] - points[0], points[2] - points[0]))
    if area <= 1e-9:
        raise DegenerateConfiguration(f"triangle area {area:.3e} below threshold")

    rays = _bearings_loop(pixels, K)
    a2 = float(np.sum((points[1] - points[2]) ** 2))
    b2 = float(np.sum((points[0] - points[2]) ** 2))
    c2 = float(np.sum((points[0] - points[1]) ** 2))
    ca = float(rays[1] @ rays[2])
    cb = float(rays[0] @ rays[2])
    cg = float(rays[0] @ rays[1])
    if max(abs(ca), abs(cb), abs(cg)) >= 1.0 - 1e-12:
        raise DegenerateConfiguration("two viewing rays coincide")

    solutions = []
    for cand in p3p_distance_candidates_loop(a2, b2, c2, ca, cb, cg):
        s = polish_distances_loop(cand, a2, b2, c2, ca, cb, cg)
        if s is None:
            continue
        if any(np.max(np.abs(s - prev)) < 1e-6 * max(1.0, float(np.max(s))) for prev in solutions):
            continue
        solutions.append(s)

    poses = []
    for s in sorted(solutions, key=tuple):
        cam_pts = rays * s[:, None]
        R, t = _kabsch_loop(points, cam_pts)
        reproj_ok = True
        for px, X in zip(pixels, points):
            pred = _project_point_loop(R, t, K, X)
            if pred is None or np.max(np.abs(pred - px)) > 1e-6:
                reproj_ok = False
                break
        if reproj_ok:
            poses.append((R, t))
    if not poses:
        raise NoRealSolution("no pose reprojects the three points")
    return poses[:4]


def weighted_sample_loop(rng, weights, count):
    """`count` distinct indices drawn one rng.random() at a time, with
    probabilities proportional to the weights left after each draw."""
    w = np.asarray(weights, dtype=float).copy()
    if np.sum(w > 0) < count:
        raise ValueError(f"need {count} positive weights, have {int(np.sum(w > 0))}")
    picked = []
    for _ in range(count):
        cum = np.cumsum(w)
        r = rng.random() * cum[-1]
        idx = int(np.searchsorted(cum, r, side="right"))
        if idx >= len(w) or w[idx] <= 0:  # float edge at the top of the range
            idx = int(np.flatnonzero(w > 0)[-1])
        picked.append(idx)
        w[idx] = 0.0
    return picked


def ransac_loop_loop(points, pixels, K, weights, inlier_px, confidence, max_iters, rng):
    """Hypothesize-and-verify one sample at a time: weighted_sample_loop,
    solve_p3p_loop and one projection per hypothesis, with the adaptive stop
    after each sample. Returns (R, t, inlier mask, count), None for the
    first three when no hypothesis has an inlier."""
    n = len(points)
    best_pose, best_inliers, best_count = None, None, 0
    needed = max_iters
    it = 0
    while it < min(max_iters, needed):
        it += 1
        idx = weighted_sample_loop(rng, weights, 3)
        try:
            hypotheses = solve_p3p_loop(pixels[idx], points[idx], K)
        except (DegenerateConfiguration, NoRealSolution):
            continue
        for pose in hypotheses:
            pred, in_front = project_many_loop(*pose, K, points)
            with np.errstate(invalid="ignore"):
                err = np.linalg.norm(pred - pixels, axis=1)
            inliers = in_front & (err <= inlier_px)
            count = int(inliers.sum())
            if count > best_count:
                best_pose, best_inliers, best_count = pose, inliers, count
                ratio = count / n
                if ratio >= 1.0:
                    needed = it
                else:
                    needed = math.ceil(
                        math.log(1.0 - confidence) / math.log(1.0 - ratio**3)
                    )
    R, t = best_pose if best_pose is not None else (None, None)
    return R, t, best_inliers, best_count
