"""Independent brute-force oracles, written with plain Python loops and the
math module so they share no code path with the implementations they check.

The bit-exact references at the end are the exception: they repeat the
numpy expressions whose rounding the implementations must keep, once per
element or over the full matrix, so results compare bit for bit."""

import math

import numpy as np


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


def vote_label_from_model(point, model, rasters, void_id, dynamic_ids):
    """Full re-derivation: raster lookups (round-half-up) plus majority."""
    votes = []
    for image_id, kp_idx in point.track:
        kp = model.images[image_id].keypoints[kp_idx]
        ix = math.floor(float(kp[0]) + 0.5)
        iy = math.floor(float(kp[1]) + 0.5)
        votes.append(int(rasters[image_id].labels[iy, ix]))
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
