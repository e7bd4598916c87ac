"""Global-descriptor image retrieval: exact brute-force top-k by L2."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch


def rank_database(
    query_gd: np.ndarray, db_gds: dict[int, np.ndarray], k: int
) -> list[tuple[int, float]]:
    """(image id, L2 distance) of the k closest database images, closest
    first; ties break toward the smaller image id. k larger than the
    database returns the whole database."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = query_gd.astype(np.float64)
    entries = []
    for image_id in sorted(db_gds):
        gd = db_gds[image_id]
        if len(gd) != len(query_gd):
            raise DimMismatch(
                f"global descriptor dim {len(gd)} of image {image_id} != query dim {len(query_gd)}"
            )
        diff = gd.astype(np.float64) - q
        entries.append((float(np.sqrt(diff @ diff)), image_id))
    entries.sort()
    return [(image_id, dist) for dist, image_id in entries[:k]]
