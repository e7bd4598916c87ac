"""2D-2D descriptor matching and lifting to 2D-3D matches through SfM tracks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, TooFewDescriptors
from .model_ingest import DbImageRecord, DescriptorSet, NO_POINT
from .semantic_map import SemanticMap


@dataclass(frozen=True)
class Match2D2D:
    query_kp: int
    db_kp: int
    distance: float  # L2 to the nearest db descriptor


def knn_ratio_match(
    query_descs: DescriptorSet, db_descs: DescriptorSet, ratio: float = 0.9
) -> list[Match2D2D]:
    """Nearest-neighbor matching with the ratio test d1/d2 <= ratio,
    one-to-one in the database keypoints.

    On a conflict for the same db keypoint the smaller-d1 match wins
    (ties toward the smaller query index). Requires >= 2 db descriptors.
    """
    if query_descs.dim != db_descs.dim:
        raise DimMismatch(f"descriptor dims {query_descs.dim} != {db_descs.dim}")
    if db_descs.rows < 2:
        raise TooFewDescriptors(f"ratio test needs >= 2 db descriptors, got {db_descs.rows}")

    db = db_descs.data.astype(np.float64)
    accepted: list[Match2D2D] = []
    chunk = 256
    for start in range(0, query_descs.rows, chunk):
        block = query_descs.data[start : start + chunk].astype(np.float64)
        # (q, db) distances via explicit differences
        dists = np.linalg.norm(block[:, None, :] - db[None, :, :], axis=2)
        for row in range(dists.shape[0]):
            d = dists[row]
            best = int(np.argmin(d))
            d1 = float(d[best])
            d_rest = np.delete(d, best)
            d2 = float(d_rest.min())
            if d1 <= ratio * d2:
                accepted.append(Match2D2D(start + row, best, d1))

    # one-to-one db usage: smaller distance wins, then smaller query index
    accepted.sort(key=lambda m: (m.distance, m.query_kp))
    used_db: set[int] = set()
    kept = []
    for m in accepted:
        if m.db_kp in used_db:
            continue
        used_db.add(m.db_kp)
        kept.append(m)
    kept.sort(key=lambda m: m.query_kp)
    return kept


def lift_matches(
    matches: list[Match2D2D], db_image: DbImageRecord, smap: SemanticMap
) -> np.ndarray:
    """Turn 2D-2D matches into 2D-3D matches via the db image's tracks.

    Returns an (n, 2) int array of (query keypoint, map row), in the order
    of `matches`. Matches whose db keypoint is untracked, or whose 3D point
    was pruned from the semantic map, are dropped.
    """
    pairs = np.array([(m.query_kp, m.db_kp) for m in matches], dtype=np.int64).reshape(-1, 2)
    point_ids = db_image.point3d_ids[pairs[:, 1]]
    rows = smap.rows_of(point_ids)
    keep = (point_ids != NO_POINT) & (rows >= 0)
    return np.column_stack((pairs[keep, 0], rows[keep]))
