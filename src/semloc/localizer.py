"""Semantically weighted pose estimation.

Per retrieved candidate image the pipeline matches features, lifts them to
2D-3D matches, recovers a temporary pose, and counts label-consistent
visible map points as the candidate's semantic score. The scores become
sampling weights for a final weighted RANSAC over the pooled matches:
semantics bias which correspondences propose hypotheses, while inlier
counting stays unweighted (a soft constraint, not a filter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateConfiguration, NoRealSolution, NumericalFailure, TooFewDescriptors
from .geometry import (
    CameraIntrinsics,
    PoseEstimate,
    camera_center,
    project_many,  # perfbench swaps it by name; the RANSAC loop verifies through project_poses
    project_poses,
    refine_pnp,
    solve_p3p,  # noqa: F401  not called here; it stays bound because perfbench swaps it by name
    solve_p3p_many,
)
from .matching import MATCH_DTYPE, knn_ratio_match, lift_matches
from .model_ingest import Dataset, QueryRecord
from .retrieval import rank_database
from .semantic_map import SemanticMap


@dataclass(frozen=True)
class LocalizerConfig:
    """Every pipeline setting; these are the keys `localize --config` reads."""

    seed: int = 0
    k_day: int = 30  # retrieved candidates per day query
    k_night: int = 50  # retrieved candidates per night query
    theta_min_deg: float = 5.0  # floor on the viewing-cone angle
    inlier_px: float = 10.0
    ransac_confidence: float = 0.99
    ransac_max_iters: int = 10000
    temp_pose_min_matches: int = 12
    temp_pose_iters: int = 500
    ratio: float = 0.9  # descriptor ratio test
    uniform_weights: bool = False  # no-semantics baseline
    jobs: int = 4

    def k_for(self, condition: str | None) -> int:
        return self.k_night if condition == "night" else self.k_day


@dataclass(eq=False)
class ScoredCandidate:
    image_id: int
    matches: np.ndarray  # (n, 2) int: (query keypoint, map row)
    temp_pose: PoseEstimate | None
    score: int  # 0 whenever temp_pose is None


@dataclass(eq=False)
class LocalizationResult:
    pose: PoseEstimate | None
    inliers: int
    candidates: list[ScoredCandidate]
    used_fallback: bool


def visible_mask(smap: SemanticMap, c_q: np.ndarray, theta_min: float) -> np.ndarray:
    """Distance-band and viewing-cone test for every map point.

    A point passes when its distance from the camera center lies in
    [d_lower, d_upper] and the ray direction is within max(theta, theta_min)
    of the mid viewpoint. Comparisons are inclusive so a query standing at
    a database camera passes.
    """
    if len(smap) == 0:
        return np.zeros(0, dtype=bool)
    v = c_q[None, :] - smap.positions
    norms = np.linalg.norm(v, axis=1)
    ok = norms >= 1e-9
    safe = np.where(ok, norms, 1.0)
    cos_angle = np.clip(np.einsum("ij,ij->i", v, smap.v_mid) / safe, -1.0, 1.0)
    angles = np.arccos(cos_angle)
    return (
        ok
        & (smap.d_lower <= norms)
        & (norms <= smap.d_upper)
        & (angles <= np.maximum(smap.theta, theta_min))
    )


def weighted_samples(
    rng: np.random.Generator, weights: np.ndarray, rows: int, count: int
) -> np.ndarray:
    """Draw `rows` samples of `count` distinct indices each, with
    probabilities proportional to `weights`, sequentially renormalizing
    after each draw. The first draw of a sample follows the weights exactly.

    Takes one rng.random((rows, count)); row i picks the same indices as
    the i-th of `rows` successive one-row calls. Returns a (rows, count)
    int array.
    """
    w = np.asarray(weights, dtype=float)
    positive = int((w > 0).sum())
    if positive < count:
        raise ValueError(f"need {count} positive weights, have {positive}")
    n = len(w)
    left = np.empty((rows, n))
    left[:] = w
    u = rng.random((rows, count))
    picked = np.empty((rows, count), dtype=np.intp)
    row = np.arange(rows)
    for j in range(count):
        cum = left.cumsum(axis=1)
        # np.searchsorted(cum, r, side="right") of every row; like it, a NaN r
        # (a zero draw times an infinite sum) lands past the end
        idx = (~(cum > (u[:, j] * cum[:, -1])[:, None])).sum(axis=1)
        edge = (idx >= n) | (left[row, np.minimum(idx, n - 1)] <= 0)
        if edge.any():  # float edge at the top of the range: the last positive weight
            idx[edge] = n - 1 - np.argmax(left[edge, ::-1] > 0, axis=1)
        picked[:, j] = idx
        left[row, idx] = 0.0
    return picked


# not called here; it stays bound because perfbench swaps it by name
def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, count: int
) -> list[int]:
    """One sample of weighted_samples: `count` distinct indices."""
    return weighted_samples(rng, weights, 1, count)[0].tolist()


def inlier_masks(
    R: np.ndarray, t: np.ndarray, K: CameraIntrinsics, points: np.ndarray, pixels: np.ndarray,
    inlier_px: float,
) -> np.ndarray:
    """(H, n) inlier test of H poses (R, t): a point projects in front of
    the camera and within inlier_px of its pixel."""
    pred, in_front = project_poses(R, t, K, points)
    err = pred.transpose(0, 2, 1)  # (H, 2, n) in pred's buffer: x and y errors, squared
    err -= pixels.T
    err *= err
    dist = err[:, 0]
    dist += err[:, 1]  # as np.linalg.norm sums
    return in_front & (np.sqrt(dist, out=dist) <= inlier_px)


# A block of RANSAC samples holds at most RANSAC_BLOCK_MAX samples, and
# fewer when its verification temporaries would pass RANSAC_BLOCK_BYTES:
# a sample has up to four poses, and verifying one pose on one point peaks
# below VERIFY_BYTES_PER_POINT (about 43 bytes measured with tracemalloc).
# Most of a block's cost is fixed, so after a first block (one sample, or as
# many as the caller expects the loop to use) every block is as large as
# these caps and the iterations left allow.
RANSAC_BLOCK_MAX = 64
RANSAC_BLOCK_BYTES = 4 << 20
VERIFY_BYTES_PER_POINT = 64


# perfbench swaps it by name; temporary_pose and weighted_ransac_pnp look it up per call
def _ransac_loop(
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    weights: np.ndarray,
    inlier_px: float,
    confidence: float,
    max_iters: int,
    rng: np.random.Generator,
    first_block: int = 1,
) -> tuple[PoseEstimate | None, np.ndarray | None, int, int]:
    """Hypothesize-and-verify loop shared by the temporary and final solvers.

    Sampling follows `weights`; inlier counting is unweighted. Iterations
    adapt to the best inlier ratio under the requested confidence, capped
    at max_iters.

    Samples are drawn, solved and verified in blocks: the first block is
    `first_block` samples, a positive count (one often settles a clean
    scene), and each later one the block cap; every block is clamped to
    the cap and to the iterations left. The hypotheses that beat every
    count before them are then replayed in sample order with the adaptive
    stop after each sample, so the outcome is that of one sample at a
    time, whatever the blocks. When the stop falls inside a block, the rng
    is rewound to the block's start and advanced by the draws of the
    samples used, as if the rest had never been drawn. A solver error
    other than a degenerate sample raises when its sample comes at or
    before the stop.

    Returns (pose, inlier mask, inlier count, samples used).
    """
    n = len(points)
    best_pose, best_inliers, best_count = None, None, 0
    needed = max_iters
    it = 0
    per_sample = 4 * max(n, 1) * VERIFY_BYTES_PER_POINT
    cap = max(1, min(RANSAC_BLOCK_MAX, RANSAC_BLOCK_BYTES // per_sample))
    first = min(cap, first_block)
    while it < min(max_iters, needed):
        block = min(cap if it else first, min(max_iters, needed) - it)
        state = rng.bit_generator.state
        idx = weighted_samples(rng, weights, block, 3)
        R, t, sample, failures = solve_p3p_many(pixels[idx], points[idx], K)
        inliers = inlier_masks(R, t, K, points, pixels, inlier_px)
        counts = inliers.sum(axis=1)
        # the improvements: hypotheses whose count beats every count before them
        prior = np.maximum.accumulate(np.concatenate(([best_count], counts)))[:-1]
        used, best = block, None  # samples up to the stop; this block's best hypothesis
        for h in np.flatnonzero(counts > prior).tolist():
            j = int(sample[h])
            if j >= used:  # the stop came before this sample
                break
            best, best_count = h, int(counts[h])
            ratio = best_count / n
            if ratio >= 1.0:
                needed = it + j + 1
            else:
                needed = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - ratio**3))
            # the stop follows the first sample from j on at which the iterations reach `needed`
            used = min(block, max(j + 1, min(max_iters, needed) - it))
        for failure in failures[:used]:
            if failure is not None and not isinstance(
                failure, (DegenerateConfiguration, NoRealSolution)
            ):
                raise failure  # an np.roots error is a fault, not a degenerate sample
        if best is not None:
            best_pose = PoseEstimate(R[best], t[best])
            best_inliers = inliers[best].copy()
        it += used
        if used < block:
            rng.bit_generator.state = state
            rng.random(3 * used)
    return best_pose, best_inliers, best_count, it


def temporary_pose(
    matches: np.ndarray,
    smap: SemanticMap,
    keypoints: np.ndarray,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
    loop_samples: list[int],
) -> PoseEstimate | None:
    """Uniform-sampling RANSAC + refinement over one candidate's
    (query keypoint, map row) matches.

    `loop_samples` holds the samples used by each earlier temporary loop
    of the query: this loop's first block is as large as the last of them
    (one sample when it is empty), and its own count is appended. The
    block schedule never changes the result.

    Returns None when there are fewer than temp_pose_min_matches matches
    or the best hypothesis has fewer than 4 inliers.
    """
    if len(matches) < max(cfg.temp_pose_min_matches, 4):
        return None
    points = smap.positions[matches[:, 1]]
    pixels = keypoints[matches[:, 0]]
    pose, inliers, count, used = _ransac_loop(
        points,
        pixels,
        K,
        np.ones(len(matches)),
        cfg.inlier_px,
        cfg.ransac_confidence,
        cfg.temp_pose_iters,
        rng,
        loop_samples[-1] if loop_samples else 1,
    )
    loop_samples.append(used)
    if pose is None or count < 4:
        return None
    try:
        return refine_pnp(points[inliers], pixels[inliers], K, pose)
    except NumericalFailure:
        return pose


def semantic_score(
    smap: SemanticMap,
    query_labels: np.ndarray,
    pose: PoseEstimate,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
) -> int:
    """Number of visible map points whose label matches the query's
    (height, width) class-id raster at their projection (nearest pixel);
    void raster pixels never count."""
    mask = visible_mask(smap, camera_center(pose), math.radians(cfg.theta_min_deg))
    if not mask.any():
        return 0
    pred, in_front = project_many(pose, K, smap.positions[mask])
    labels = smap.labels[mask]
    with np.errstate(invalid="ignore"):
        ix = np.floor(pred[:, 0] + 0.5)
        iy = np.floor(pred[:, 1] + 0.5)
    height, width = query_labels.shape
    in_bounds = in_front & (ix >= 0) & (ix < width) & (iy >= 0) & (iy < height)
    if not in_bounds.any():
        return 0
    raster = query_labels[iy[in_bounds].astype(int), ix[in_bounds].astype(int)]
    hits = (raster != smap.class_table.void_id) & (raster == labels[in_bounds])
    return int(hits.sum())


def assign_weights(candidates: list[ScoredCandidate]) -> tuple[np.ndarray, np.ndarray, bool]:
    """Turn candidate scores into per-match sampling probabilities.

    Every match inherits its candidate's score as a raw weight; duplicates
    by (query keypoint, map row) merge, in first-seen order, with raw
    weights summed; weights normalize to sum 1. When every score is zero
    the merged matches get uniform probabilities and the fallback flag is
    set. Returns (pooled (m, 2) matches, weights (m,), fallback).
    """
    if not any(len(c.matches) for c in candidates):
        return np.empty((0, 2), dtype=np.int64), np.empty(0), False
    matches = np.concatenate([c.matches for c in candidates])
    scores = np.concatenate([np.full(len(c.matches), float(c.score)) for c in candidates])
    _, first, inverse = np.unique(matches, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)  # unique matches in first-seen order
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    raw = np.zeros(len(order))
    np.add.at(raw, slot[inverse], scores)  # in candidate order; integer scores sum exactly
    pooled = matches[first[order]]
    total = raw.sum()
    if total <= 0.0:
        return pooled, np.full(len(pooled), 1.0 / len(pooled)), True
    return pooled, raw / total, False


def weighted_ransac_pnp(
    matches: np.ndarray,
    weights: np.ndarray,
    smap: SemanticMap,
    keypoints: np.ndarray,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> tuple[PoseEstimate | None, int]:
    """Final pose from the pooled (query keypoint, map row) matches:
    minimal samples drawn with probability proportional to the weights,
    unweighted inlier counting, refinement on the best inlier set. Returns
    (pose, inlier count) or (None, 0)."""
    if len(matches) < 3 or np.sum(weights > 0) < 3:
        return None, 0
    points = smap.positions[matches[:, 1]]
    pixels = keypoints[matches[:, 0]]
    pose, inliers, count, _ = _ransac_loop(
        points,
        pixels,
        K,
        weights,
        cfg.inlier_px,
        cfg.ransac_confidence,
        cfg.ransac_max_iters,
        rng,
    )
    if pose is None or count < 4:
        return None, 0
    try:
        refined = refine_pnp(points[inliers], pixels[inliers], K, pose)
    except NumericalFailure:
        refined = pose
    R, t = refined.rotation[None], refined.translation[None]
    final_count = int(inlier_masks(R, t, K, points, pixels, cfg.inlier_px).sum())
    if final_count < 4:
        return None, 0
    return refined, final_count


def localize_query(
    query: QueryRecord,
    smap: SemanticMap,
    dataset: Dataset,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> LocalizationResult:
    """Full per-query pipeline: retrieve, match, lift, score, pool, solve.

    With cfg.uniform_weights every candidate contributes weight as if its
    score were 1 (the no-semantics baseline); semantic scores are still
    computed for diagnostics.
    """
    ranked = rank_database(query.global_desc, dataset.db_global, cfg.k_for(query.condition))
    candidates: list[ScoredCandidate] = []
    loop_samples: list[int] = []  # samples used per temporary loop; the last sizes the next
    for image_id, _dist in ranked:
        try:
            matches_2d = knn_ratio_match(
                query.descriptors, dataset.db_descriptors[image_id], cfg.ratio
            )
        except TooFewDescriptors:
            matches_2d = np.recarray(0, dtype=MATCH_DTYPE)
        matches = lift_matches(matches_2d, dataset.model.images[image_id], smap)
        temp = temporary_pose(matches, smap, query.keypoints, query.camera, cfg, rng, loop_samples)
        score = (
            semantic_score(smap, query.labels, temp, query.camera, cfg)
            if temp is not None
            else 0
        )
        candidates.append(ScoredCandidate(image_id, matches, temp, score))

    weight_source = (
        [replace(c, score=1) for c in candidates] if cfg.uniform_weights else candidates
    )
    pooled, weights, used_fallback = assign_weights(weight_source)
    if len(pooled) == 0:
        return LocalizationResult(None, 0, candidates, False)
    pose, inliers = weighted_ransac_pnp(
        pooled, weights, smap, query.keypoints, query.camera, cfg, rng
    )
    return LocalizationResult(pose, inliers, candidates, used_fallback)
