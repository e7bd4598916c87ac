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
from .matching import Match2D3D, knn_ratio_match, lift_matches
from .model_ingest import Dataset, LabelRaster, QueryRecord
from .retrieval import RetrievalConfig, rank_database
from .semantic_map import SemanticMap, SemanticPoint


@dataclass(frozen=True, eq=False)
class ViewingRay:
    """Ray from a 3D point to a camera center."""

    v: np.ndarray  # (3,) meters
    norm: float

    @staticmethod
    def between(c_q: np.ndarray, x: np.ndarray) -> "ViewingRay":
        v = np.asarray(c_q, dtype=float) - np.asarray(x, dtype=float)
        return ViewingRay(v=v, norm=float(np.linalg.norm(v)))


@dataclass(eq=False)
class ScoredCandidate:
    image_id: int
    matches: list[Match2D3D]
    temp_pose: PoseEstimate | None
    score: int  # 0 whenever temp_pose is None


@dataclass(frozen=True, eq=False)
class WeightedMatch:
    match: Match2D3D
    weight: float  # normalized sampling probability


@dataclass(frozen=True)
class LocalizerConfig:
    theta_min: float = math.radians(5.0)  # floor on the viewing-cone angle
    inlier_px: float = 10.0
    ransac_confidence: float = 0.99
    ransac_max_iters: int = 10000
    temp_pose_min_matches: int = 12
    temp_pose_iters: int = 500


@dataclass(eq=False)
class LocalizationResult:
    pose: PoseEstimate | None
    inliers: int
    candidates: list[ScoredCandidate]
    used_fallback: bool


def visible(point: SemanticPoint, c_q: np.ndarray, theta_min: float) -> bool:
    """Distance-band and viewing-cone test for one map point.

    The point passes when its distance from the camera center lies in
    [d_lower, d_upper] and the ray direction is within max(theta, theta_min)
    of the mid viewpoint. Comparisons are inclusive so a query standing at
    a database camera passes.
    """
    ray = ViewingRay.between(c_q, point.position)
    if ray.norm < 1e-9:
        return False
    if not (point.d_lower <= ray.norm <= point.d_upper):
        return False
    cos_angle = float(ray.v @ point.v_mid) / ray.norm
    angle = math.acos(min(1.0, max(-1.0, cos_angle)))
    return angle <= max(point.theta, theta_min)


def visible_mask(smap: SemanticMap, c_q: np.ndarray, theta_min: float) -> np.ndarray:
    """Vectorized visible() over the whole map."""
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
    matches: list[Match2D3D],
    smap: SemanticMap,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> PoseEstimate | None:
    """Uniform-sampling RANSAC + refinement over one candidate's matches.

    Returns None when there are fewer than temp_pose_min_matches matches
    or the best hypothesis has fewer than 4 inliers.
    """
    if len(matches) < max(cfg.temp_pose_min_matches, 4):
        return None
    points = np.array([smap.position_of(m.point3d) for m in matches])
    pixels = np.array([m.query_px for m in matches])
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
    mask = visible_mask(smap, camera_center(pose), cfg.theta_min)
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


def assign_weights(candidates: list[ScoredCandidate]) -> tuple[list[WeightedMatch], bool]:
    """Turn candidate scores into per-match sampling probabilities.

    Every match inherits its candidate's score as a raw weight; duplicates
    by (query keypoint, 3D point) merge with raw weights summed; weights
    normalize to sum 1. When every score is zero the merged matches get
    uniform probabilities and the fallback flag is set.
    """
    merged: dict[tuple[int, int], tuple[Match2D3D, float]] = {}
    order: list[tuple[int, int]] = []
    for cand in candidates:
        for m in cand.matches:
            key = m.key()
            if key in merged:
                merged[key] = (merged[key][0], merged[key][1] + float(cand.score))
            else:
                merged[key] = (m, float(cand.score))
                order.append(key)
    if not order:
        return [], False
    total = 0.0
    for key in order:
        total += merged[key][1]
    if total <= 0.0:
        uniform = 1.0 / len(order)
        return [WeightedMatch(merged[key][0], uniform) for key in order], True
    return [WeightedMatch(merged[key][0], merged[key][1] / total) for key in order], False


def weighted_ransac_pnp(
    weighted: list[WeightedMatch],
    smap: SemanticMap,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> tuple[PoseEstimate | None, int]:
    """Final pose from the pooled matches: minimal samples drawn with
    probability proportional to the weights, unweighted inlier counting,
    refinement on the best inlier set. Returns (pose, inlier count) or
    (None, 0)."""
    if len(weighted) < 3:
        return None, 0
    weights = np.array([wm.weight for wm in weighted])
    if np.sum(weights > 0) < 3:
        return None, 0
    points = np.array([smap.position_of(wm.match.point3d) for wm in weighted])
    pixels = np.array([wm.match.query_px for wm in weighted])
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
    ret_cfg: RetrievalConfig,
    loc_cfg: LocalizerConfig,
    rng: np.random.Generator,
    *,
    uniform_weights: bool = False,
    ratio: float = 0.9,
) -> LocalizationResult:
    """Full per-query pipeline: retrieve, match, lift, score, pool, solve.

    With uniform_weights=True every candidate contributes weight as if its
    score were 1 (the no-semantics baseline); semantic scores are still
    computed for diagnostics.
    """
    ranked = rank_database(query.global_desc, dataset.db_global, ret_cfg.k_for(query.condition))
    candidates: list[ScoredCandidate] = []
    for image_id, _dist in ranked.ranking:
        image = dataset.model.images[image_id]
        try:
            matches_2d = knn_ratio_match(query.descriptors, dataset.db_descriptors[image_id], ratio)
        except TooFewDescriptors:
            matches_2d = []
        matches = lift_matches(matches_2d, image, smap, image_id, query.keypoints)
        temp = temporary_pose(matches, smap, query.camera, loc_cfg, rng)
        score = (
            semantic_score(smap, query.labels, temp, query.camera, loc_cfg)
            if temp is not None
            else 0
        )
        candidates.append(ScoredCandidate(image_id, matches, temp, score))

    weight_source = (
        [replace(c, score=1) for c in candidates] if uniform_weights else candidates
    )
    weighted, used_fallback = assign_weights(weight_source)
    if not weighted:
        return LocalizationResult(None, 0, candidates, False)
    pose, inliers = weighted_ransac_pnp(weighted, smap, query.camera, loc_cfg, rng)
    return LocalizationResult(pose, inliers, candidates, used_fallback)
