"""The benchmark's workloads: generated scenes plus `localize` flags.

Each workload keeps a different stage of a query on top, so a change to
one stage shows on one workload and leaves the others alone:

- clean: the ordinary daytime scene. Matching and the LM refinement of
  the temporary poses share the time. It is the only workload that runs
  the command's thread pool with more than one worker.
- decoy_outliers: half of every top-k are label-permuted decoys and half
  of the query keypoints are scrambled, so the inlier ratio is low and
  the RANSAC loop (P3P, sampling, verification) dominates. It is the
  paper's headline case: semantic weights must localize more queries
  than uniform weights.
- descriptor_scale: 128-d descriptors on about 2000 keypoints per image,
  so the matcher's distance computation is nearly all of the query time
  and sets the peak memory. k stays small to keep a run short.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    scene: dict  # semloc.synth.SceneSpec fields; the seed comes from --seed
    corruption: dict = field(default_factory=dict)  # semloc.synth.CorruptionSpec fields
    k_day: int | None = None  # None keeps the command's default
    jobs: int = 1
    # True: semantic weights must give more fine queries than uniform
    # weights. False: every query must be fine.
    semantic_claim: bool = False
    matcher_pairs: int = 2  # (query, candidate) pairs checked against the reference matcher


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="clean",
            scene={"n_points": 500, "n_db_images": 20, "n_queries": 10, "pixel_sigma": 0.5},
            jobs=nproc(),
        ),
        Workload(
            name="decoy_outliers",
            scene={"n_points": 300, "n_db_images": 14, "n_queries": 8, "pixel_sigma": 0.5},
            corruption={"wrong_retrieval_rate": 0.5, "outlier_match_rate": 0.5},
            k_day=10,
            semantic_claim=True,
        ),
        Workload(
            name="descriptor_scale",
            scene={
                "n_points": 2000,
                "n_db_images": 12,
                "n_queries": 3,
                "pixel_sigma": 0.5,
                "descriptor_dim": 128,
            },
            k_day=1,
            matcher_pairs=1,
        ),
    )
}
