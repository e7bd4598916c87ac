"""2D-2D descriptor matching and lifting to 2D-3D matches through SfM tracks."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, NonFiniteDescriptors, TooFewDescriptors
from .model_ingest import DbImageRecord, DescriptorSet
from .semantic_map import SemanticMap

# One record per 2D-2D match; distance is the L2 to the nearest db descriptor.
MATCH_DTYPE = np.dtype([("query_kp", np.int64), ("db_kp", np.int64), ("distance", np.float64)])

# Query rows per block are sized so that the block's temporaries stay within
# this many bytes; so are the candidate pairs of one exact pass.
MATCH_BLOCK_BYTES = 32 * 2**20
# bytes per (query row, db row) entry of a block: the float32 GEMM result, its
# bool mask, and the intp candidate indices (flat, then row and column) should
# every column be a candidate
_BLOCK_ENTRY_BYTES = 4 + 1 + 3 * 8
# bytes per (candidate pair, component) of the exact pass: the two gathered
# rows (float64 at most), their float64 difference and its square
_PAIR_ENTRY_BYTES = 4 * 8
# OpenBLAS runs a GEMM of fewer multiply-adds (M N K) than this on the calling
# thread and hands a larger one to its own worker threads, which then spin
# for about 0.1 s; beside a pool of query threads they take the other
# threads' cores
GEMM_CALLER_OPS = 2**19
# each GEMM packs the whole db operand again, so pieces of fewer rows than
# this cost more than the spin: on 128-d scenes at --jobs 2, 8-row pieces
# broke even and 4-row pieces took twice as long
MIN_GEMM_ROWS = 16


def _gemm_rows(block: int, db_rows: int, dim: int, pooled: bool) -> int:
    """Query rows per GEMM of a block: the whole block, or under a pool the
    most rows that keep the GEMM on the calling thread, when that is at
    least MIN_GEMM_ROWS."""
    rows = (GEMM_CALLER_OPS - 1) // (db_rows * (dim + 1))
    return min(block, rows) if pooled and rows >= MIN_GEMM_ROWS else block


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
    query_descs: DescriptorSet, db_descs: DescriptorSet, ratio: float = 0.9, *,
    pooled: bool = False,
) -> np.recarray:
    """Nearest-neighbor matching with Lowe's strict ratio test
    d1 < ratio * d2, one-to-one in the database keypoints.

    d1 and d2 are the two smallest L2 distances of a query row over the db
    rows, counted with multiplicity: two equally near db rows give
    d1 == d2 and no match, and ratio 0 accepts nothing. On a conflict for
    the same db keypoint the smaller-d1 match wins (ties toward the smaller
    query index). Requires >= 2 db descriptors.

    Candidate columns come from one float32 GEMM per block of query rows,
    [s q, 1] @ [-2 s d, s^2 |d|^2].T = s^2 (|d|^2 - 2 q.d), whose
    temporaries stay within MATCH_BLOCK_BYTES; pooled, for a caller that
    runs beside other query threads, makes a block's GEMM in pieces of
    _gemm_rows rows, which changes no match. s is the power of two that
    brings the largest row norm into [0.5, 1), so no term overflows float32;
    scaling rounds float32 rows only in the subnormal range, and float64
    rows are rounded to float32 after scaling. A row keeps every column
    within a rounding margin of its second-smallest approximate value. The
    margin is twice a bound on the error of both the GEMM and the exact
    expression, doubled again: float32 eps over the dim + 3 summed terms,
    relative to s^2 (|q| + max |d|)^2, plus float32's smallest normal per
    term for products in the subnormal range. So the kept columns hold every
    column as near as the exact second neighbour. d1 and d2 are the exact
    np.linalg.norm(q - d) in float64 on those columns, gathered from the
    stored rows, and the nearest is the lowest column among equal distances.

    Returns a record array of MATCH_DTYPE in query order.
    """
    if query_descs.dim != db_descs.dim:
        raise DimMismatch(f"descriptor dims {query_descs.dim} != {db_descs.dim}")
    if db_descs.rows < 2:
        raise TooFewDescriptors(f"ratio test needs >= 2 db descriptors, got {db_descs.rows}")

    dim, query, db = query_descs.dim, query_descs.data, db_descs.data
    db_sq = np.einsum("ij,ij->i", db, db, dtype=np.float64)
    q_norm = np.sqrt(np.einsum("ij,ij->i", query, query, dtype=np.float64))
    db_max_norm = np.sqrt(db_sq.max())
    with np.errstate(over="ignore"):  # overflow is reported just below
        reach = (q_norm + db_max_norm) ** 2
    if not all(np.isfinite(a).all() for a in (db_sq, q_norm, reach)):
        raise NonFiniteDescriptors(
            "descriptor squared norms are not finite (NaN, inf or float64 overflow)"
        )

    # s = 2**-e; the shift s^2 |d|^2 rides in the last column
    e = int(np.frexp(max(q_norm.max(initial=0.0), db_max_norm))[1])
    lhs = np.empty((query_descs.rows, dim + 1), np.float32)
    np.ldexp(query, -e, out=lhs[:, :dim])
    lhs[:, dim] = 1.0
    rhs = np.empty((db_descs.rows, dim + 1), np.float32)
    np.negative(np.ldexp(db, 1 - e, out=rhs[:, :dim]), out=rhs[:, :dim])
    rhs[:, dim] = np.ldexp(db_sq, -2 * e)
    # each form of s^2 |q - d|^2 is off by at most (dim + 3) * eps of
    # s^2 (|q| + |d|)^2 plus tiny per term, the float64 exact one far less;
    # the margin is twice the sum of both bounds, doubled again to spare
    f32 = np.finfo(np.float32)
    margin = (8 * (dim + 3) * (f32.eps * np.ldexp(reach, -2 * e) + f32.tiny)).astype(np.float32)

    block = max(1, MATCH_BLOCK_BYTES // (_BLOCK_ENTRY_BYTES * db_descs.rows))
    piece = _gemm_rows(block, db_descs.rows, dim, pooled)
    pair_chunk = max(1, MATCH_BLOCK_BYTES // (_PAIR_ENTRY_BYTES * dim))
    q_idx, db_idx, d1 = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], [np.zeros(0)]
    for start in range(0, query_descs.rows, block):
        block_lhs = lhs[start : start + block]
        approx = np.empty((len(block_lhs), db_descs.rows), np.float32)
        # the whole pieces as one stack, whose GEMMs numpy makes in one call,
        # then the short one
        whole = len(block_lhs) // piece * piece
        np.matmul(block_lhs[:whole].reshape(-1, piece, dim + 1), rhs.T,
                  out=approx[:whole].reshape(-1, piece, db_descs.rows))
        np.matmul(block_lhs[whole:], rhs.T, out=approx[whole:])
        bound = _second_smallest(approx) + margin[start : start + block]
        flat = np.flatnonzero(approx <= bound[:, None])
        del approx
        rows, cols = np.divmod(flat, db_descs.rows)  # row-major, as np.nonzero
        rows += start
        dist = np.concatenate([
            np.linalg.norm(
                np.subtract(query[rows[i : i + pair_chunk]], db[cols[i : i + pair_chunk]],
                            dtype=np.float64),
                axis=1,
            )
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
    keep = rows >= 0  # NO_POINT is no point's id
    return np.column_stack((matches.query_kp[keep], rows[keep]))
