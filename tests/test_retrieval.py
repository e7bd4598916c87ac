import logging

import numpy as np
import pytest

from semloc.errors import DimMismatch
from semloc.localizer import LocalizerConfig
from semloc.retrieval import rank_database
import oracles


def gd(values):
    v = np.asarray(values, dtype=np.float64)
    return (v / np.linalg.norm(v)).astype(np.float32)


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


class TestRankDatabase:
    def test_own_descriptor_ranks_first_at_zero(self):
        rng = np.random.default_rng(0)
        db = {i: gd(random_unit(rng, 8)) for i in range(1, 6)}
        query = db[3].copy()
        ranked = rank_database(query, db, 2)
        assert ranked[0] == (3, 0.0)

    def test_dim2_toy_example(self):
        db = {1: gd([1.0, 0.0]), 2: gd([0.0, 1.0]), 3: gd([-1.0, 0.0])}
        ranked = rank_database(gd([1.0, 0.0]), db, 2)
        assert [i for i, _ in ranked] == [1, 2]
        assert ranked[0][1] == 0.0
        assert np.isclose(ranked[1][1], np.sqrt(2.0))

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(1)
        db = {i: gd(random_unit(rng, 16)) for i in range(1000)}
        for _ in range(5):
            query = gd(random_unit(rng, 16))
            got = rank_database(query, db, 30)
            want = oracles.rank_by_l2(query.tolist(), {i: db[i].tolist() for i in db}, 30)
            assert [i for i, _ in got] == [i for i, _ in want]
            assert len(got) == 30
            dists = [d for _, d in got]
            assert all(a <= b for a, b in zip(dists, dists[1:]))

    def test_l2_order_equals_descending_dot_order(self):
        rng = np.random.default_rng(2)
        db = {i: gd(random_unit(rng, 12)) for i in range(50)}
        query = gd(random_unit(rng, 12))
        by_l2 = [i for i, _ in rank_database(query, db, 50)]
        q = query.astype(np.float64)
        dots = {i: float(db[i].astype(np.float64) @ q) for i in db}
        by_dot = sorted(db, key=lambda i: (-dots[i], i))
        assert by_l2 == by_dot

    def test_tie_break_by_image_id(self):
        shared = gd([1.0, 1.0, 0.0])
        db = {7: shared, 2: shared.copy(), 5: shared.copy()}
        ranked = rank_database(shared.copy(), db, 3)
        assert [i for i, _ in ranked] == [2, 5, 7]

    def test_k_clamped_with_warning(self, caplog):
        """k above the database size returns the whole database, ranked; the
        clamp warning is the `localize` command's, once per run."""
        rng = np.random.default_rng(3)
        db = {i: gd(random_unit(rng, 4)) for i in range(3)}
        query = gd(random_unit(rng, 4))
        with caplog.at_level(logging.WARNING):
            ranked = rank_database(query, db, 10)
        assert ranked == rank_database(query, db, 3)
        assert sorted(i for i, _ in ranked) == [0, 1, 2]
        assert caplog.records == []

    def test_dim_mismatch(self):
        db = {1: gd([1.0, 0.0, 0.0])}
        with pytest.raises(DimMismatch):
            rank_database(gd([1.0, 0.0]), db, 1)

    def test_config_k_for_condition(self):
        cfg = LocalizerConfig()
        assert cfg.k_day == 30 and cfg.k_night == 50
        assert cfg.k_for("day") == 30
        assert cfg.k_for("night") == 50
        assert cfg.k_for(None) == 30
