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
    project_many,
    refine_pnp,
    solve_p3p,
)
from .matching import knn_ratio_match, lift_matches
from .model_ingest import Dataset, LabelRaster, QueryRecord
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


def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, count: int
) -> list[int]:
    """Draw `count` distinct indices with probabilities proportional to
    `weights`, sequentially renormalizing after each draw. The first draw
    follows the weights exactly."""
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


def _ransac_loop(
    points: np.ndarray,
    pixels: np.ndarray,
    K: CameraIntrinsics,
    weights: np.ndarray,
    inlier_px: float,
    confidence: float,
    max_iters: int,
    rng: np.random.Generator,
) -> tuple[PoseEstimate | None, np.ndarray | None, int]:
    """Hypothesize-and-verify loop shared by the temporary and final solvers.

    Sampling follows `weights`; inlier counting is unweighted. Iterations
    adapt to the best inlier ratio under the requested confidence, capped
    at max_iters.
    """
    n = len(points)
    best_pose, best_inliers, best_count = None, None, 0
    needed = max_iters
    it = 0
    while it < min(max_iters, needed):
        it += 1
        idx = weighted_sample_without_replacement(rng, weights, 3)
        try:
            hypotheses = solve_p3p(pixels[idx], points[idx], K)
        except (DegenerateConfiguration, NoRealSolution):
            continue
        for pose in hypotheses:
            pred, in_front = project_many(pose, K, points)
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
    return best_pose, best_inliers, best_count


def temporary_pose(
    matches: np.ndarray,
    smap: SemanticMap,
    keypoints: np.ndarray,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> PoseEstimate | None:
    """Uniform-sampling RANSAC + refinement over one candidate's
    (query keypoint, map row) matches.

    Returns None when there are fewer than temp_pose_min_matches matches
    or the best hypothesis has fewer than 4 inliers.
    """
    if len(matches) < max(cfg.temp_pose_min_matches, 4):
        return None
    points = smap.positions[matches[:, 1]]
    pixels = keypoints[matches[:, 0]]
    pose, inliers, count = _ransac_loop(
        points,
        pixels,
        K,
        np.ones(len(matches)),
        cfg.inlier_px,
        cfg.ransac_confidence,
        cfg.temp_pose_iters,
        rng,
    )
    if pose is None or count < 4:
        return None
    try:
        return refine_pnp(points[inliers], pixels[inliers], K, pose)
    except NumericalFailure:
        return pose


def semantic_score(
    smap: SemanticMap,
    query_labels: LabelRaster,
    pose: PoseEstimate,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
) -> int:
    """Number of visible map points whose label matches the query raster at
    their projection (nearest pixel); void raster pixels never count."""
    mask = visible_mask(smap, camera_center(pose), math.radians(cfg.theta_min_deg))
    if not mask.any():
        return 0
    pred, in_front = project_many(pose, K, smap.positions[mask])
    labels = smap.labels[mask]
    with np.errstate(invalid="ignore"):
        ix = np.floor(pred[:, 0] + 0.5)
        iy = np.floor(pred[:, 1] + 0.5)
    in_bounds = (
        in_front
        & (ix >= 0)
        & (ix < query_labels.width)
        & (iy >= 0)
        & (iy < query_labels.height)
    )
    if not in_bounds.any():
        return 0
    raster = query_labels.labels[iy[in_bounds].astype(int), ix[in_bounds].astype(int)]
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
    pose, inliers, count = _ransac_loop(
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
    pred, in_front = project_many(refined, K, points)
    with np.errstate(invalid="ignore"):
        err = np.linalg.norm(pred - pixels, axis=1)
    final_count = int((in_front & (err <= cfg.inlier_px)).sum())
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
    for image_id, _dist in ranked:
        try:
            matches_2d = knn_ratio_match(
                query.descriptors, dataset.db_descriptors[image_id], cfg.ratio
            )
        except TooFewDescriptors:
            matches_2d = []
        matches = lift_matches(matches_2d, dataset.model.images[image_id], smap)
        temp = temporary_pose(matches, smap, query.keypoints, query.camera, cfg, rng)
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
