"""Semantically weighted pose estimation.

Per retrieved candidate image the pipeline matches features, lifts them to
2D-3D matches, recovers a temporary pose, and counts label-consistent
visible map points as the candidate's semantic score. The temporary pose is
the candidate's best unrefined P3P hypothesis: it only decides which map
points land on which query label. The scores become sampling weights for a
final weighted RANSAC over the pooled matches: semantics bias which
correspondences propose hypotheses, while inlier counting stays unweighted
(a soft constraint, not a filter). LM refinement runs once per query, on
the final pose.
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


# weighted_samples takes the running sums of its rows this many bytes at a time
SAMPLE_SUM_BYTES = 1 << 18


def weighted_samples(u: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i of the result holds count = u.shape[1] distinct indices drawn
    with probabilities proportional to row i of `weights`, renormalizing
    after each draw; the first draw of a sample follows the weights exactly.

    u: (rows, count) uniform draws in [0, 1), used in order; weights: (n,),
    shared by every row and left as it is, or (rows, n), drawn in place
    when it is a writeable float64 array, whose rows are left with their
    picks zeroed. A zero weight is never drawn, so a zero-padded row picks
    what its unpadded weights pick. With u from rng.random((rows, count)),
    row i picks the same indices as the i-th of `rows` successive
    one-sample draws. Returns a (rows, count) int array.
    """
    rows, count = u.shape
    if np.ndim(weights) == 1:
        left = np.array(np.broadcast_to(weights, (rows, len(weights))), dtype=float)
    else:
        left = np.require(weights, dtype=float, requirements="W")
    positive = int((left > 0).sum(axis=1).min(initial=count))
    if positive < count:
        raise ValueError(f"need {count} positive weights, have {positive}")
    n = left.shape[1]
    picked = np.empty((rows, count), dtype=np.intp)
    step = max(1, SAMPLE_SUM_BYTES // (8 * n))  # rows whose running sums are taken at once
    sums = np.empty((min(rows, step), n))
    for a in range(0, rows, step):
        part, r = left[a : a + step], u[a : a + step]
        cum, row = sums[: len(part)], np.arange(len(part))
        for j in range(count):
            np.cumsum(part, axis=1, out=cum)
            # np.searchsorted(cum, r, side="right") of every row; like it, a NaN r
            # (a zero draw times an infinite sum) lands past the end
            idx = n - (cum > (r[:, j] * cum[:, -1])[:, None]).sum(axis=1)
            edge = (idx >= n) | (part[row, np.minimum(idx, n - 1)] <= 0)
            if edge.any():  # float edge at the top of the range: the last positive weight
                idx[edge] = n - 1 - np.argmax(part[edge, ::-1] > 0, axis=1)
            picked[a : a + step, j] = idx
            part[row, idx] = 0.0
    return picked


# not called here; it stays bound because perfbench swaps it by name
def weighted_sample_without_replacement(
    rng: np.random.Generator, weights: np.ndarray, count: int
) -> list[int]:
    """One sample of weighted_samples: `count` distinct indices."""
    return weighted_samples(rng.random((1, count)), weights)[0].tolist()


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


# A block of RANSAC samples draws the samples of every unfinished loop at
# once. Each loop verifies its own samples alone, so it takes at most as many
# as keep its verification within RANSAC_BLOCK_BYTES: a sample has up to four
# poses, and verifying one pose on one point peaks below
# VERIFY_BYTES_PER_POINT (about 43 bytes measured with tracemalloc). The
# block's draw holds a float64 and a bool row per sample, padded to the
# largest problem, so the block holds at most as many samples as keep those
# rows within RANSAC_BLOCK_BYTES. It holds at most RANSAC_BLOCK_MAX samples
# in all, which keeps the P3P solve's temporaries (about 1.6 KB per sample)
# under 2 MiB.
RANSAC_BLOCK_MAX = 1024
RANSAC_BLOCK_BYTES = 4 << 20
VERIFY_BYTES_PER_POINT = 64
SAMPLE_BYTES_PER_POINT = 9


def _wants(
    needed: list[int], it: list[int], live: list[int], caps: list[int], cap: int, max_iters: int
) -> list[int]:
    """Samples of each unfinished problem in the next block of at most `cap`.

    Most of a block's cost is fixed, so a problem's first sample comes alone
    and later blocks ask for the samples left to one guess of its stop: the
    median of the problems' stops below max_iters, since a query's loops
    share its outlier rate. A problem asks at least an equal share of its
    own cap, never more than that cap and never past its own stop. The
    block takes each want in problem order until `cap` is used up; what a
    problem does not get waits for the next block.
    """
    known = sorted(s for s in needed if s < max_iters)
    guess = known[len(known) // 2] if known else 0
    take = [0] * len(needed)
    for c in live:
        stop = min(max_iters, needed[c])
        fair = max(1, caps[c] // len(live))
        want = min(stop - it[c], caps[c], max(guess - it[c], fair)) if it[c] else 1
        take[c] = min(want, cap)
        cap -= take[c]
    return take


# perfbench swaps it by name; temporary_poses and weighted_ransac_pnp look it up per call
def _ransac_loop(
    problems: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.random.Generator]],
    K: CameraIntrinsics,
    inlier_px: float,
    confidence: float,
    max_iters: int,
) -> list[tuple[PoseEstimate | None, np.ndarray | None, int, int]]:
    """Hypothesize-and-verify loops over C problems, run in lock-step.

    A problem is (points (n, 3), pixels (n, 2), weights (n,), rng). Its loop
    samples by its weights from its own rng and counts inliers unweighted.
    Its iterations adapt to the best inlier set under the requested
    confidence, capped at max_iters: with m the set's share of the weight
    (its inlier ratio under uniform weights), the loop stops after
    log(1 - confidence) / log(1 - m**3) samples, the number at which a
    weighted sample holds only inliers at least once with that confidence
    (the guided-sampling stop of Tordoff and Murray, TPAMI 2005). An m too
    small for 1 - m**3 to differ from 1 runs to max_iters.

    Each block draws the samples of every unfinished problem at once and
    solves them in one solve_p3p_many: a problem's first sample alone, then
    as many as _wants guesses are left to its stop, the problems' median
    stop, while the block has room. Each problem then verifies its
    hypotheses on its own points and replays, in sample order, those that
    beat every count before them, with the adaptive stop after each sample.
    When its stop falls inside a block, its rng is rewound to the block's
    start and advanced by the draws of the samples used, as if the rest had
    never been drawn. A solver error other than a degenerate sample, at or before
    the stop, ends its problem; after the loop the first such error in
    problem order is raised.

    Returns one (pose, inlier mask, inlier count, samples used) per
    problem: those of its loop run alone one sample at a time, whatever the
    blocks and the other problems, with its rng left where that loop leaves it.
    """
    sizes = [len(p[0]) for p in problems]
    weights = np.zeros((len(problems), max(sizes)))  # zero-padded rows draw as the unpadded ones
    for c, problem in enumerate(problems):
        weights[c, : sizes[c]] = problem[2]
    mass = [float(weights[c, :n].sum()) for c, n in enumerate(sizes)]
    best_pose: list[PoseEstimate | None] = [None] * len(problems)
    best_inliers: list[np.ndarray | None] = [None] * len(problems)
    best_count, it = [0] * len(problems), [0] * len(problems)
    needed = [max_iters] * len(problems)
    faults: list[Exception | None] = [None] * len(problems)
    caps = [max(1, RANSAC_BLOCK_BYTES // (4 * max(n, 1) * VERIFY_BYTES_PER_POINT)) for n in sizes]
    draw_bytes = max(max(sizes), 1) * SAMPLE_BYTES_PER_POINT  # per sample of the block
    cap = max(1, min(RANSAC_BLOCK_MAX, RANSAC_BLOCK_BYTES // draw_bytes))
    while True:
        live = [
            c for c, (fault, stop, done) in enumerate(zip(faults, needed, it))
            if fault is None and done < min(max_iters, stop)
        ]
        take = _wants(needed, it, live, caps, cap, max_iters)
        block = [c for c in range(len(problems)) if take[c]]
        if not block:
            break
        states = [problems[c][3].bit_generator.state for c in block]
        u = np.concatenate([problems[c][3].random((take[c], 3)) for c in block])
        owner = np.repeat(block, [take[c] for c in block])  # the problem of each sample
        idx = weighted_samples(u, weights[owner, : max(sizes[c] for c in block)])
        starts = np.cumsum([0, *(take[c] for c in block)]).tolist()  # of each problem's samples
        picked = [(problems[c], idx[a:b]) for c, a, b in zip(block, starts, starts[1:])]
        R, t, sample, failures = solve_p3p_many(
            np.concatenate([pixels[i] for (_, pixels, _, _), i in picked]),
            np.concatenate([points[i] for (points, _, _, _), i in picked]),
            K,
        )
        # a solver error other than a degenerate sample is a fault
        faulty = [
            i
            for i, f in enumerate(failures)
            if f is not None and not isinstance(f, (DegenerateConfiguration, NoRealSolution))
        ]
        for c, state, first in zip(block, states, starts):
            drawn, n = take[c], sizes[c]
            lo, hi = np.searchsorted(sample, [first, first + drawn]).tolist()
            inliers = inlier_masks(R[lo:hi], t[lo:hi], K, *problems[c][:2], inlier_px)
            counts = inliers.sum(axis=1)
            # the improvements: hypotheses whose count beats every count before them
            prior = np.maximum.accumulate(np.concatenate(([best_count[c]], counts)))[:-1]
            used, top = drawn, None  # samples up to the stop; this block's best hypothesis
            for h in np.flatnonzero(counts > prior).tolist():
                j = int(sample[lo + h]) - first
                if j >= used:  # the stop came before this sample
                    break
                top, best_count[c] = h, int(counts[h])
                # the odds that one weighted draw is an inlier: the inliers' share of the weight
                m = float(weights[c, :n][inliers[h]].sum()) / mass[c]
                if m >= 1.0:
                    needed[c] = it[c] + j + 1
                elif 1.0 - m**3 == 1.0:  # no sample is likely all inliers: log(1.0) is 0
                    needed[c] = max_iters
                else:
                    needed[c] = math.ceil(math.log(1.0 - confidence) / math.log(1.0 - m**3))
                # the stop follows the first sample from j on at which the iterations reach `needed`
                used = min(drawn, max(j + 1, min(max_iters, needed[c]) - it[c]))
            faults[c] = next((failures[i] for i in faulty if first <= i < first + used), None)
            if top is not None:
                best_pose[c] = PoseEstimate(R[lo + top], t[lo + top])
                best_inliers[c] = inliers[top].copy()
            it[c] += used
            if used < drawn:
                rng = problems[c][3]
                rng.bit_generator.state = state
                rng.random(3 * used)
    fault = next((f for f in faults if f is not None), None)
    if fault is not None:
        raise fault
    return list(zip(best_pose, best_inliers, best_count, it))


def candidate_rng(rng: np.random.Generator, image_id: int) -> np.random.Generator:
    """The generator of one candidate's temporary loop: a child of the seed
    of the query's generator `rng`, keyed on the db image, so that its
    draws depend neither on the retrieval rank nor on the other candidates."""
    seed = rng.bit_generator.seed_seq
    key = image_id % 2**64  # a spawn key is non-negative; the model parser takes any int id
    return np.random.default_rng(
        np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, key))
    )


def temporary_poses(
    candidate_matches: list[np.ndarray],
    image_ids: list[int],
    smap: SemanticMap,
    keypoints: np.ndarray,
    K: CameraIntrinsics,
    cfg: LocalizerConfig,
    rng: np.random.Generator,
) -> list[PoseEstimate | None]:
    """The temporary pose of each candidate, from its (query keypoint, map
    row) matches: the best P3P hypothesis, unrefined, of a uniform-sampling
    RANSAC on the candidate's own candidate_rng(rng, image id), all loops
    in lock-step. `rng` itself draws nothing.

    None for a candidate with fewer than temp_pose_min_matches matches, or
    whose best hypothesis has fewer than 4 inliers.
    """
    solvable = [
        j for j, m in enumerate(candidate_matches) if len(m) >= max(cfg.temp_pose_min_matches, 4)
    ]
    poses: list[PoseEstimate | None] = [None] * len(candidate_matches)
    if not solvable:
        return poses
    problems = [
        (
            smap.positions[candidate_matches[j][:, 1]],
            keypoints[candidate_matches[j][:, 0]],
            np.ones(len(candidate_matches[j])),
            candidate_rng(rng, image_ids[j]),
        )
        for j in solvable
    ]
    outcomes = _ransac_loop(
        problems, K, cfg.inlier_px, cfg.ransac_confidence, cfg.temp_pose_iters
    )
    for j, (pose, _, count, _) in zip(solvable, outcomes):
        poses[j] = temporary_pose(pose, count)
    return poses


# perfbench swaps it by name to count the temporary poses found
def temporary_pose(pose: PoseEstimate | None, count: int) -> PoseEstimate | None:
    """One candidate's temporary pose from its RANSAC outcome: the best
    hypothesis as it is, with no refinement; None when it has fewer than 4
    inliers."""
    return pose if pose is not None and count >= 4 else None


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
    # one int key per (query keypoint, map row), ordered as the pairs are
    key = matches[:, 0] * (int(matches[:, 1].max()) + 1) + matches[:, 1]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
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
    [(pose, inliers, count, _)] = _ransac_loop(
        [(points, pixels, weights, rng)],
        K,
        cfg.inlier_px,
        cfg.ransac_confidence,
        cfg.ransac_max_iters,
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
    image_ids = [image_id for image_id, _dist in ranked]
    candidate_matches = []
    for image_id in image_ids:
        try:
            matches_2d = knn_ratio_match(
                query.descriptors, dataset.db_descriptors[image_id], cfg.ratio,
                pooled=cfg.jobs > 1,
            )
        except TooFewDescriptors:
            matches_2d = np.recarray(0, dtype=MATCH_DTYPE)
        candidate_matches.append(lift_matches(matches_2d, dataset.model.images[image_id], smap))
    temps = temporary_poses(
        candidate_matches, image_ids, smap, query.keypoints, query.camera, cfg, rng
    )
    candidates = [
        ScoredCandidate(
            image_id,
            matches,
            temp,
            semantic_score(smap, query.labels, temp, query.camera, cfg) if temp is not None else 0,
        )
        for image_id, matches, temp in zip(image_ids, candidate_matches, temps)
    ]

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
