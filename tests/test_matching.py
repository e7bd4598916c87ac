import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semloc.matching as matching
from semloc.errors import DimMismatch, NonFiniteDescriptors, TooFewDescriptors
from semloc.geometry import PoseEstimate
from semloc.matching import MATCH_DTYPE, knn_ratio_match, lift_matches
from semloc.model_ingest import ClassTable, DbImageRecord, DescriptorSet, NO_POINT
import oracles
from test_localizer import make_point, map_of


def descs(rows):
    data = np.asarray(rows, dtype=np.float32)
    return DescriptorSet(dim=data.shape[1], data=data)


def records(triples):
    """A knn_ratio_match result holding these (query_kp, db_kp, distance)."""
    return np.rec.fromrecords(triples, dtype=MATCH_DTYPE)


class TestKnnRatioMatch:
    def test_accepts_at_relaxed_threshold(self):
        # nearest at 0.8, second at 1.0: 0.8 < 0.9 * 1.0
        q = descs([[0.0, 0.0]])
        db = descs([[0.8, 0.0], [1.0, 0.0]])
        matches = knn_ratio_match(q, db, ratio=0.9)
        assert len(matches) == 1
        assert matches[0].db_kp == 0
        assert np.isclose(matches[0].distance, 0.8)

    def test_rejects_ambiguous_match(self):
        q = descs([[0.0, 0.0]])
        db = descs([[0.95, 0.0], [1.0, 0.0]])
        assert len(knn_ratio_match(q, db, ratio=0.9)) == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            q = descs(rng.normal(size=(50, 16)))
            db = descs(rng.normal(size=(60, 16)))
            got = {(m.query_kp, m.db_kp) for m in knn_ratio_match(q, db, ratio=0.9)}
            want = oracles.knn_ratio_matches(
                q.data.astype(float).tolist(), db.data.astype(float).tolist(), 0.9
            )
            assert got == want

    def test_one_to_one_in_db_keypoints(self):
        rng = np.random.default_rng(1)
        q = descs(rng.normal(size=(80, 8)))
        db = descs(rng.normal(size=(40, 8)))
        matches = knn_ratio_match(q, db, ratio=1.0)
        db_used = [m.db_kp for m in matches]
        assert len(db_used) == len(set(db_used))

    def test_conflict_keeps_smaller_distance(self):
        # both queries prefer db 0; the closer one keeps it
        q = descs([[0.1, 0.0], [0.2, 0.0]])
        db = descs([[0.0, 0.0], [5.0, 0.0]])
        matches = knn_ratio_match(q, db, ratio=1.0)
        assert len(matches) == 1
        assert matches[0].query_kp == 0 and matches[0].db_kp == 0

    def test_ratio_zero_returns_empty(self):
        rng = np.random.default_rng(2)
        q = descs(rng.normal(size=(20, 8)))
        db = descs(rng.normal(size=(30, 8)))
        assert len(knn_ratio_match(q, db, ratio=0.0)) == 0

    def test_ratio_one_accepts_unique_nearest(self):
        rng = np.random.default_rng(3)
        db = descs(rng.normal(size=(25, 8)))
        # each query sits next to a distinct db descriptor: no conflicts
        perm = rng.permutation(25)[:10]
        q = descs(db.data[perm] + rng.normal(0, 1e-3, size=(10, 8)).astype(np.float32))
        matches = knn_ratio_match(q, db, ratio=1.0)
        assert len(matches) == 10
        assert {m.db_kp for m in matches} == set(perm.tolist())

    def test_identical_db_rows_give_no_match(self):
        # d1 == d2, at distance 0 as well as above it
        for ratio in (0.9, 1.0):
            assert len(knn_ratio_match(descs([[0.0, 0.0]]), descs([[0.0, 0.0]] * 2), ratio)) == 0
            q = descs([[0.5, 0.0]])
            assert len(knn_ratio_match(q, descs([[1.0, 0.0], [1.0, 0.0], [5.0, 0.0]]), ratio)) == 0

    def test_ratio_zero_rejects_exact_match(self):
        q = descs([[1.0, 2.0]])
        db = descs([[1.0, 2.0], [5.0, 5.0]])
        assert len(knn_ratio_match(q, db, ratio=0.0)) == 0
        assert len(knn_ratio_match(q, db, ratio=0.5)) == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            knn_ratio_match(descs([[0.0, 0.0]]), descs([[0.0, 0.0, 0.0]] * 2))

    def test_too_few_db_descriptors(self):
        with pytest.raises(TooFewDescriptors):
            knn_ratio_match(descs([[0.0, 0.0]]), descs([[0.0, 0.0]]))

    def test_no_more_matches_than_queries(self):
        rng = np.random.default_rng(4)
        q = descs(rng.normal(size=(30, 8)))
        db = descs(rng.normal(size=(50, 8)))
        assert len(knn_ratio_match(q, db, ratio=1.0)) <= 30

    def test_result_is_a_record_array(self):
        # the reads callers make: len(), and per match .query_kp, .db_kp, .distance
        q = descs([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
        db = descs([[0.1, 0.0], [1.0, 0.0], [5.0, 5.2]])
        got = knn_ratio_match(q, db, ratio=0.9)
        assert isinstance(got, np.recarray)
        assert len(got) == 2
        assert [(m.query_kp, m.db_kp) for m in got] == [(0, 0), (1, 2)]
        assert [float(m.distance) for m in got] == pytest.approx([0.1, 0.2])
        assert np.issubdtype(got.query_kp.dtype, np.integer)
        assert np.issubdtype(got.db_kp.dtype, np.integer)
        assert got.distance.dtype == np.float64
        assert knn_ratio_match(q, db, ratio=0.0).dtype == got.dtype

    @pytest.mark.parametrize(
        "query, db",
        [
            # float64 rows whose squared norms overflow
            ([[1e160, 0.0]], [[1e160, 0.0], [0.0, 1e160]]),
            ([[0.0, 0.0]], [[1e160, 1e160], [0.0, 1.0]]),
            ([[1e160, 1e160]], [[0.0, 0.0], [0.0, 1.0]]),
            # norms that are finite alone but overflow the margin together
            ([[1.3e154, 0.0]], [[0.0, 1.3e154], [0.0, 0.0]]),
            ([[np.nan, 0.0]], [[0.0, 0.0], [0.0, 1.0]]),
            ([[0.0, 0.0]], [[0.0, 0.0], [np.inf, 1.0]]),
            (np.zeros((0, 2)), [[0.0, 0.0], [np.nan, 1.0]]),
        ],
    )
    def test_non_finite_squared_distances_raise(self, query, db):
        query, db = np.asarray(query, dtype=np.float64), np.asarray(db, dtype=np.float64)
        with pytest.raises(NonFiniteDescriptors, match="not finite"):
            knn_ratio_match(DescriptorSet(2, query), DescriptorSet(2, db), 0.9)


@st.composite
def integer_descriptor_pair(draw):
    """Query and db descriptor rows of small integers: every squared
    distance is an exact integer, so any two L2 computations agree to the bit."""
    dim = draw(st.integers(1, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    query = draw(st.lists(row, min_size=1, max_size=8))
    db = draw(st.lists(row, min_size=2, max_size=8))
    return query, db


@given(integer_descriptor_pair(), st.sampled_from([0.0, 0.5, 0.8, 0.9, 1.0]))
@settings(derandomize=True, deadline=None)
def test_knn_ratio_match_equals_oracle_on_integer_descriptors(pair, ratio):
    query, db = pair
    got = {(m.query_kp, m.db_kp) for m in knn_ratio_match(descs(query), descs(db), ratio)}
    assert got == oracles.knn_ratio_matches(query, db, ratio)


# the helper's arrays are finite with at least two columns, as the
# matcher's blocks are; the small value pool repeats row minima
row_values = st.one_of(
    st.sampled_from([-np.finfo(np.float32).max, -1.0, 0.0, 1.0, np.finfo(np.float32).max]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    st.integers(2, 6).flatmap(
        lambda cols: st.lists(st.lists(row_values, min_size=cols, max_size=cols), min_size=1, max_size=6)
    )
)
@settings(derandomize=True, deadline=None, max_examples=300)
def test_two_nearest_equals_stable_argsort(rows):
    a = np.array(rows, dtype=np.float64)
    before = a.copy()
    first, second, value = matching._two_nearest(a)
    order = np.argsort(before, axis=1, kind="stable")
    assert np.array_equal(first, order[:, 0])
    assert np.array_equal(second, order[:, 1])
    assert np.array_equal(value, np.partition(before, 1, axis=1)[:, 1])
    # both entries are overwritten with inf, and nothing else
    before[np.arange(len(a)), first] = np.inf
    before[np.arange(len(a)), second] = np.inf
    assert a.tobytes() == before.tobytes()


def as_triples(matches):
    return [(m.query_kp, m.db_kp, m.distance) for m in matches]


def bits(triples):
    return [(q, d, float(dist).hex()) for q, d, dist in triples]


@st.composite
def float_descriptor_pair(draw):
    """Float32 query and db rows at mixed scales, with planted exact
    duplicates, near-ties one ulp apart, and queries on or between db rows."""
    dim = draw(st.integers(1, 12))
    n_db = draw(st.integers(2, 16))
    # a large component shared by every row, which |d|^2 - 2 q.d cancels
    offset = np.float32(draw(st.sampled_from([0.0, 1e4, 1e6])))
    scales = draw(st.lists(st.sampled_from([1e-3, 1.0, 1e3]), min_size=n_db, max_size=n_db))
    value = st.floats(-10, 10, allow_nan=False, width=32)
    db = np.array(
        [[draw(value) for _ in range(dim)] for _ in range(n_db)], dtype=np.float32
    ) * np.asarray(scales, dtype=np.float32)[:, None]
    index = st.integers(0, n_db - 1)
    for _ in range(draw(st.integers(0, 3))):  # exact duplicates
        db[draw(index)] = db[draw(index)]
    for _ in range(draw(st.integers(0, 3))):  # near-ties
        i, j = draw(index), draw(index)
        db[i] = db[j]
        db[i, 0] = np.nextafter(db[i, 0], np.float32(np.inf))
    query = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["free", "on", "between"]))
        if kind == "on":
            query.append(db[draw(index)])
        elif kind == "between":
            query.append((db[draw(index)] + db[draw(index)]) / np.float32(2))
        else:
            query.append(np.array([draw(value) for _ in range(dim)], dtype=np.float32))
    query = np.array(query, dtype=np.float32)
    query[:, 0] += offset
    db[:, 0] += offset
    return query, db


# ratio 1.5 accepts exact ties, so it pins the lowest-column tie-break
@given(float_descriptor_pair(), st.sampled_from([0.0, 0.8, 0.9, 1.0, 1.5]))
@settings(derandomize=True, deadline=None, max_examples=200)
def test_knn_ratio_match_equals_full_matrix_bit_for_bit(pair, ratio):
    query, db = pair
    got = knn_ratio_match(descs(query), descs(db), ratio)
    want = oracles.knn_ratio_matches_full_matrix(query, db, ratio)
    assert bits(as_triples(got)) == bits(want)


def test_exact_order_survives_gemm_cancellation():
    # |d|^2 - 2 q.d of rows that share a component of 1e6 rounds away most
    # of the 1e-3 steps that order them; the kept columns must still hold
    # the exact nearest two
    rng = np.random.default_rng(0)
    small = rng.permutation(np.arange(1, 41)) * 1e-3
    db = np.column_stack([np.full(40, 1e6), small]).astype(np.float32)
    query = np.column_stack([np.full(10, 1e6), np.arange(10) * 4.3e-3]).astype(np.float32)
    got = knn_ratio_match(descs(query), descs(db), 0.9)
    assert len(got) == 9
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, 0.9))


@st.composite
def scaled_descriptor_pair(draw, dtype, scale, offset, unit_query=False):
    """Rows of `dtype` with components in [-scale, scale], plus `offset` on
    the first, with all-zero rows, planted exact duplicates, near-ties one
    ulp apart, and queries on or between db rows; unit_query prepends a
    query row of norm 1."""
    dim = draw(st.integers(1, 8))
    n_db = draw(st.integers(2, 12))
    value = st.floats(-1, 1, allow_nan=False)

    def row(kind):
        if kind == "zero":
            return np.zeros(dim, dtype)
        return (np.array([draw(value) for _ in range(dim)]) * scale).astype(dtype)

    kinds = st.sampled_from(["free", "free", "zero"])
    db = np.array([row(draw(kinds)) for _ in range(n_db)], dtype=dtype)
    index = st.integers(0, n_db - 1)
    for _ in range(draw(st.integers(0, 2))):  # exact duplicates
        db[draw(index)] = db[draw(index)]
    for _ in range(draw(st.integers(0, 2))):  # near-ties
        i, j = draw(index), draw(index)
        db[i] = db[j]
        db[i, 0] = np.nextafter(db[i, 0], dtype(np.inf))
    query = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["free", "zero", "on", "between"]))
        if kind == "on":
            query.append(db[draw(index)])
        elif kind == "between":  # halved first: two rows near 1e38 sum past float32
            query.append(db[draw(index)] / dtype(2) + db[draw(index)] / dtype(2))
        else:
            query.append(row(kind))
    if unit_query:
        query.insert(0, np.eye(1, dim, dtype=dtype)[0])
    query = np.array(query, dtype=dtype)
    query[:, 0] += dtype(offset)
    db[:, 0] += dtype(offset)
    return query, db


@pytest.mark.parametrize(
    "dtype, scale, offset, unit_query",
    [
        # float32 rows whose float32 squares overflow
        (np.float32, 1e19, 0.0, False),
        (np.float32, 1e38, 0.0, False),
        # float32 subnormals
        (np.float32, 2.0**-140, 0.0, False),
        (np.float64, 1e100, 0.0, False),
        (np.float64, 1e-100, 0.0, False),
        # a large common component, which |d|^2 - 2 q.d cancels
        (np.float32, 1.0, 1e6, False),
        # a unit row sets the scale, so the other rows' products round in
        # float32's subnormal range
        (np.float32, 2.0**-70, 0.0, True),
    ],
)
@given(data=st.data(), ratio=st.sampled_from([0.0, 0.8, 0.9, 1.0, 1.5]))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_knn_ratio_match_at_extreme_scales(dtype, scale, offset, unit_query, data, ratio):
    query, db = data.draw(scaled_descriptor_pair(dtype, scale, offset, unit_query))
    got = knn_ratio_match(DescriptorSet(query.shape[1], query), DescriptorSet(db.shape[1], db),
                          ratio)
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, ratio))


def test_knn_ratio_match_margin_covers_subnormal_products():
    # the unit query row sets the scale, so the other rows' products are
    # float32 subnormals; db rows 0 and 2 tie for query row 1, and only the
    # margin's absolute term keeps both
    unit = np.float32(2.0**-75)
    query = np.array([[1.0, 0.0], *(np.array([[-1, -2], [3, 3], [3, 5]]) * unit)], np.float32)
    db = np.array([[-2, 3], [-3, -7], [0, -7]], np.float32) * unit
    got = knn_ratio_match(descs(query), descs(db), 1.5)
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, 1.5))
    assert len(got) == 1


def test_knn_ratio_match_all_zero_rows():
    # no row norm sets the scale, and every distance ties at 0
    query, db = np.zeros((2, 4), np.float32), np.zeros((3, 4), np.float32)
    got = knn_ratio_match(descs(query), descs(db), 1.5)
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, 1.5)) == []


@pytest.mark.parametrize(
    "rows, pooled",
    [(rows, pooled) for pooled in (False, True) for rows in (1, 2, 3)],
    ids=["1", "2", "3", "1 pooled", "2 pooled", "3 pooled"],
)
def test_knn_ratio_match_over_many_blocks(monkeypatch, rows, pooled):
    """Blocks of `rows` query rows; pooled, 7-row blocks whose GEMMs take
    `rows` rows each, so a block's last piece may be short."""
    rng = np.random.default_rng(rows)
    db = rng.normal(size=(40, 8)).astype(np.float32)
    db[7] = db[3]
    query = np.concatenate(
        [db[:20] + rng.normal(scale=0.05, size=(20, 8)), rng.normal(size=(11, 8))]
    ).astype(np.float32)
    block = 7 if pooled else rows
    monkeypatch.setattr(matching, "MATCH_BLOCK_BYTES", block * matching._BLOCK_ENTRY_BYTES * len(db))
    monkeypatch.setattr(matching, "GEMM_CALLER_OPS", rows * len(db) * (8 + 1) + 1)
    monkeypatch.setattr(matching, "MIN_GEMM_ROWS", 1)
    assert matching._gemm_rows(block, len(db), 8, pooled) == rows
    got = knn_ratio_match(descs(query), descs(db), 0.9, pooled=pooled)
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, 0.9))
    assert len(got) >= 15


def hard_and_normal_rows(dtype, dim=24, seed=5):
    """Query and db rows of `dtype` whose query blocks of five each start
    with a hard row. It sits equidistant to three db rows, on a db row
    listed three times, or on a db row whose two lower columns are copies
    of it one ulp off. The other four sit near other db rows, one of them
    listed twice. In float64 the ulp-off copies round to the same float32
    row, so only the exact pass finds the true nearest."""
    rng = np.random.default_rng(seed)
    db = rng.normal(size=(24, dim)).astype(np.float32).astype(dtype)
    centre = np.round(rng.normal(size=dim) * 4) / 4  # the three distances are exactly 0.5
    db[3], db[4], db[5] = centre, centre, centre
    db[3, 0] += 0.5
    db[4, 1] += 0.5
    db[5, 0] -= 0.5
    db[7] = db[6]
    db[9] = db[10] = db[11]
    db[12] = db[13] = db[14]
    db[12, 0] = np.nextafter(db[14, 0], dtype(np.inf))
    db[13, 1] = np.nextafter(db[14, 1], dtype(-np.inf))
    hard = [centre, db[11], db[14], db[11] + dtype(0.01), centre, db[14]]
    near = iter([6, *range(15, 24)] * 3)
    query = []
    for row in hard:
        query.append(row)
        query += [db[next(near)] + rng.normal(scale=0.05, size=dim) for _ in range(4)]
    return np.array(query, dtype), db


@pytest.mark.parametrize("ratio", [0.9, 1.5])
@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_ratio_match_hard_rows_among_normal_ones(monkeypatch, dtype, pooled, ratio):
    """Blocks of five query rows, each with a hard row, whose exact pass
    splits into chunks of four pairs; pooled, each block's GEMMs take two
    rows. Ratio 1.5 accepts the hard rows' exact ties, so it pins the
    lowest-column tie-break."""
    query, db = hard_and_normal_rows(dtype)
    dim = query.shape[1]
    monkeypatch.setattr(matching, "MATCH_BLOCK_BYTES", 5 * matching._BLOCK_ENTRY_BYTES * len(db))
    monkeypatch.setattr(matching, "GEMM_CALLER_OPS", 2 * len(db) * (dim + 1) + 1)
    monkeypatch.setattr(matching, "MIN_GEMM_ROWS", 1)
    assert matching.MATCH_BLOCK_BYTES // (matching._PAIR_ENTRY_BYTES * dim) == 4
    pairs = []

    def distances(query, db, rows, cols, chunk):
        pairs.append(rows)
        return exact(query, db, rows, cols, chunk)

    exact = matching._distances
    monkeypatch.setattr(matching, "_distances", distances)
    got = knn_ratio_match(DescriptorSet(dim, query), DescriptorSet(dim, db), ratio, pooled=pooled)
    assert bits(as_triples(got)) == bits(oracles.knn_ratio_matches_full_matrix(query, db, ratio))
    # candidate columns per query row: six blocks, each with its planted
    # hard row first and normal rows (exactly two columns) beside it
    per_block = np.bincount(np.concatenate(pairs), minlength=len(query)).reshape(6, 5)
    assert (per_block[:, 0] >= 3).all()
    assert (per_block[:, 1:] == 2).any(axis=1).all()
    assert len(got) >= 10


@pytest.mark.parametrize("pooled", [False, True])
def test_pooled_gemms_stay_below_the_blas_hand_off(pooled):
    """Pooled, a block's GEMMs take the most query rows that keep M N K
    below GEMM_CALLER_OPS, unless that is below MIN_GEMM_ROWS."""
    def gemm_rows(db_rows, dim):
        block = matching.MATCH_BLOCK_BYTES // (matching._BLOCK_ENTRY_BYTES * db_rows)
        return block, matching._gemm_rows(block, db_rows, dim, pooled)

    # 500 db rows at dim 32: 31 x 500 x 33 multiply-adds stay on the caller, 32 rows do not
    block, rows = gemm_rows(500, 32)
    assert rows == (31 if pooled else block)
    assert 31 * 500 * 33 < matching.GEMM_CALLER_OPS <= 32 * 500 * 33
    # 2000 db rows at dim 128 leave room for 2 rows: one GEMM per block
    block, rows = gemm_rows(2000, 128)
    assert rows == block


def test_knn_ratio_match_memory_is_bounded():
    # the full (2000, 2000, 128) float64 difference tensor would be 4 GB
    rng = np.random.default_rng(0)
    query = descs(rng.normal(size=(2000, 128)))
    db = descs(rng.normal(size=(2000, 128)))
    tracemalloc.start()
    try:
        knn_ratio_match(query, db, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_knn_ratio_match_float32_peak_memory():
    # float32 GEMM blocks and float32 operands, no float64 copy of either set
    rng = np.random.default_rng(0)
    query = descs(rng.normal(size=(2000, 128)))
    db = descs(rng.normal(size=(2000, 128)))
    tracemalloc.start()
    try:
        knn_ratio_match(query, db, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def tiny_map(point_ids):
    table = ClassTable(names=("road", "building"), dynamic_ids=frozenset())
    points = [
        make_point(pid, [float(pid), 0.0, 5.0], d_lower=1.0, d_upper=10.0,
                   v_mid=[0.0, 0.0, 1.0], theta=0.5)
        for pid in point_ids
    ]
    return map_of(points, table)


def db_image(point3d_ids):
    n = len(point3d_ids)
    return DbImageRecord(
        name="img",
        camera_id=1,
        pose=PoseEstimate.identity(),
        keypoints=np.zeros((n, 2)),
        point3d_ids=np.asarray(point3d_ids, dtype=np.int64),
    )


@given(
    st.sets(st.integers(0, 20)),
    st.lists(st.sampled_from([NO_POINT, *range(21)]), min_size=1, max_size=15),
    st.data(),
)
@settings(derandomize=True, deadline=None)
def test_lift_matches_equals_track_loop(map_ids, point3d_ids, data):
    smap = tiny_map(sorted(map_ids))
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, 30), st.integers(0, len(point3d_ids) - 1)), max_size=15)
    )
    matches = records([(q, d, 0.0) for q, d in pairs])
    rows = {pid: row for row, pid in enumerate(sorted(map_ids))}
    want = []
    for m in matches:
        pid = point3d_ids[m.db_kp]
        if pid != NO_POINT and pid in rows:
            want.append([m.query_kp, rows[pid]])
    lifted = lift_matches(matches, db_image(point3d_ids), smap)
    assert lifted.shape == (len(want), 2)
    assert lifted.tolist() == want


class TestLiftMatches:
    def test_empty_record_array_lifts_to_nothing(self):
        lifted = lift_matches(np.recarray(0, dtype=MATCH_DTYPE), db_image([7]), tiny_map([7]))
        assert lifted.shape == (0, 2)
        assert np.issubdtype(lifted.dtype, np.integer)

    def test_alive_point_lifts(self):
        image = db_image([7])
        smap = tiny_map([7])
        lifted = lift_matches(records([(0, 0, 0.1)]), image, smap)
        assert lifted.tolist() == [[0, 0]]
        assert smap.ids[lifted[0, 1]] == 7

    def test_untracked_keypoint_dropped(self):
        image = db_image([-1])
        lifted = lift_matches(records([(0, 0, 0.1)]), image, tiny_map([7]))
        assert lifted.shape == (0, 2)

    def test_pruned_point_dropped(self):
        image = db_image([9])  # point 9 not in the map (pruned)
        lifted = lift_matches(records([(0, 0, 0.1)]), image, tiny_map([7]))
        assert lifted.shape == (0, 2)

    def test_never_fabricates(self):
        rng = np.random.default_rng(5)
        ids = rng.choice([-1, 7, 9], size=20).astype(np.int64)
        image = db_image(ids)
        matches = records([(i, i, 0.1) for i in range(20)])
        smap = tiny_map([7])
        lifted = lift_matches(matches, image, smap)
        assert len(lifted) <= len(matches)
        assert all(smap.ids[lifted[:, 1]] == 7)
        assert all(ids[lifted[:, 0]] == 7)  # query kp i was matched to db kp i
