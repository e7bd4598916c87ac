"""2D-2D descriptor matching and lifting to 2D-3D matches through SfM tracks."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NonFiniteDescriptors, TooFewDescriptors
from .model_ingest import DbImageRecord, DescriptorSet, NO_POINT
from .semantic_map import SemanticMap

# One record per 2D-2D match; distance is the L2 to the nearest db descriptor.
MATCH_DTYPE = np.dtype([("query_kp", np.int64), ("db_kp", np.int64), ("distance", np.float64)])

# Query rows per block are sized so that the block's (rows, db) float64
# temporaries, and the candidate differences recomputed exactly, stay
# within this many bytes.
MATCH_BLOCK_BYTES = 32 * 2**20
# GEMM result, mask and candidate indices (flat, then row and column); or,
# for the exact pass, the two gathered rows, their difference and its square
_BLOCK_TEMPORARIES = 4


def _second_smallest(a: np.ndarray) -> np.ndarray:
    """Second-smallest value of each row of a NaN-free 2-D array, counted
    with multiplicity as np.partition(a, 1, axis=1)[:, 1] does (inf for a
    one-column row). Overwrites each row's minimum and restores it."""
    rows = np.arange(len(a))
    first = a.argmin(axis=1)
    kept = a[rows, first]
    a[rows, first] = np.inf
    second = a.min(axis=1)
    a[rows, first] = kept
    return second


def knn_ratio_match(
    query_descs: DescriptorSet, db_descs: DescriptorSet, ratio: float = 0.9
) -> np.recarray:
    """Nearest-neighbor matching with Lowe's strict ratio test
    d1 < ratio * d2, one-to-one in the database keypoints.

    d1 and d2 are the two smallest L2 distances of a query row over the db
    rows, counted with multiplicity: two equally near db rows give
    d1 == d2 and no match, and ratio 0 accepts nothing. On a conflict for
    the same db keypoint the smaller-d1 match wins (ties toward the smaller
    query index). Requires >= 2 db descriptors.

    Candidate columns come from a squared-norm GEMM, |d|^2 - 2 q.d, over
    blocks of query rows whose temporaries stay within MATCH_BLOCK_BYTES.
    A row keeps every column within a rounding margin of its second-smallest
    approximate value; the margin is twice a bound on the error of both the
    GEMM and the exact expression, so the kept columns hold every column as
    near as the exact second neighbour. d1 and d2 are the exact
    np.linalg.norm(q - d) on those columns, and the nearest is the lowest
    column among equal distances.

    Returns a record array of MATCH_DTYPE in query order.
    """
    if query_descs.dim != db_descs.dim:
        raise DimMismatch(f"descriptor dims {query_descs.dim} != {db_descs.dim}")
    if db_descs.rows < 2:
        raise TooFewDescriptors(f"ratio test needs >= 2 db descriptors, got {db_descs.rows}")

    query = query_descs.data.astype(np.float64)
    db = db_descs.data.astype(np.float64)
    db_sq = np.einsum("ij,ij->i", db, db)
    q_norm = np.sqrt(np.einsum("ij,ij->i", query, query))
    # each form of |q - d|^2 is off by at most about
    # (dim + 2) * eps * (|q| + |d|)^2; the margin is twice the sum of both
    # bounds, doubled again to spare
    margin = 8.0 * (query_descs.dim + 2) * np.finfo(np.float64).eps
    with np.errstate(over="ignore"):  # overflow is reported just below
        margin = margin * (q_norm + np.sqrt(db_sq.max())) ** 2
    if not all(np.isfinite(a).all() for a in (db_sq, q_norm, margin)):
        raise NonFiniteDescriptors(
            "descriptor squared norms are not finite (NaN, inf or float64 overflow)"
        )

    block = max(1, MATCH_BLOCK_BYTES // (_BLOCK_TEMPORARIES * 8 * db_descs.rows))
    pair_chunk = max(1, MATCH_BLOCK_BYTES // (_BLOCK_TEMPORARIES * 8 * query_descs.dim))
    q_idx, db_idx, d1 = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for start in range(0, query_descs.rows, block):
        # bit for bit db_sq - 2.0 * (q @ db.T), without a second temporary
        approx = query[start : start + block] @ db.T
        approx *= -2.0
        approx += db_sq
        bound = _second_smallest(approx) + margin[start : start + block]
        flat = np.flatnonzero(approx <= bound[:, None])
        del approx
        rows, cols = np.divmod(flat, db_descs.rows)  # row-major, as np.nonzero
        rows += start
        dist = np.concatenate([
            np.linalg.norm(query[rows[i : i + pair_chunk]] - db[cols[i : i + pair_chunk]], axis=1)
            for i in range(0, len(rows), pair_chunk)
        ])
        # by row, then distance, then column: a row's first two entries are
        # its nearest (lowest column on a tie) and its second neighbour
        order = np.lexsort((cols, dist, rows))
        rows, cols, dist = rows[order], cols[order], dist[order]
        first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        accepted = first[dist[first] < ratio * dist[first + 1]]
        q_idx.append(rows[accepted])
        db_idx.append(cols[accepted])
        d1.append(dist[accepted])
    q_idx, db_idx, d1 = map(np.concatenate, (q_idx, db_idx, d1))

    # one-to-one db usage: smaller distance wins, then smaller query index
    order = np.lexsort((q_idx, d1))
    _, winners = np.unique(db_idx[order], return_index=True)
    kept = np.sort(order[winners])  # q_idx ascends, so this is query order
    return np.rec.fromarrays((q_idx[kept], db_idx[kept], d1[kept]), dtype=MATCH_DTYPE)


def lift_matches(matches: np.recarray, db_image: DbImageRecord, smap: SemanticMap) -> np.ndarray:
    """Turn 2D-2D matches into 2D-3D matches via the db image's tracks.

    Returns an (n, 2) int array of (query keypoint, map row), in the order
    of `matches`. Matches whose db keypoint is untracked, or whose 3D point
    was pruned from the semantic map, are dropped.
    """
    point_ids = db_image.point3d_ids[matches.db_kp]
    rows = smap.rows_of(point_ids)
    keep = (point_ids != NO_POINT) & (rows >= 0)
    return np.column_stack((matches.query_kp[keep], rows[keep]))
