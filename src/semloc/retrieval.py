"""Global-descriptor image retrieval: exact brute-force top-k by L2."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch
from .model_ingest import GlobalDescriptor


def rank_database(
    query_gd: GlobalDescriptor, db_gds: dict[int, GlobalDescriptor], k: int
) -> list[tuple[int, float]]:
    """(image id, L2 distance) of the k closest database images, closest
    first; ties break toward the smaller image id. k larger than the
    database returns the whole database."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = query_gd.values.astype(np.float64)
    entries = []
    for image_id in sorted(db_gds):
        gd = db_gds[image_id]
        if gd.dim != query_gd.dim:
            raise DimMismatch(
                f"global descriptor dim {gd.dim} of image {image_id} != query dim {query_gd.dim}"
            )
        diff = gd.values.astype(np.float64) - q
        entries.append((float(np.sqrt(diff @ diff)), image_id))
    entries.sort()
    return [(image_id, dist) for dist, image_id in entries[:k]]
