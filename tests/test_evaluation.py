import pytest

from semloc.evaluation import (
    BUCKETS,
    QueryEvalRow,
    bucket_errors,
    build_eval_report,
    format_eval_report,
)


class TestBucketErrors:
    def test_default_thresholds(self):
        assert BUCKETS == {"fine": (0.25, 2.0), "medium": (0.5, 5.0), "coarse": (5.0, 10.0)}

    def test_and_rule_excludes_fine(self):
        # 0.3 m fails the fine translation bound even though 1.5 deg passes
        pct = bucket_errors([(0.3, 1.5)])
        assert pct == (0.0, 100.0, 100.0)

    def test_hand_counted_percentages(self):
        errors = [(0.1, 1.0), (0.3, 3.0), (4.0, 8.0), (10.0, 20.0)]
        assert bucket_errors(errors) == (25.0, 50.0, 75.0)

    def test_failed_queries_stay_in_denominator(self):
        errors = [(0.1, 1.0), None, None, None]
        assert bucket_errors(errors) == (25.0, 25.0, 25.0)

    def test_empty_list_reports_zero_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            assert bucket_errors([]) == (0.0, 0.0, 0.0)
        assert any("empty" in rec.message for rec in caplog.records)

    def test_cumulative_monotone(self):
        import numpy as np

        rng = np.random.default_rng(0)
        errors = [(float(t), float(r)) for t, r in zip(rng.uniform(0, 8, 100), rng.uniform(0, 15, 100))]
        fine, medium, coarse = bucket_errors(errors)
        assert fine <= medium <= coarse


class TestEvalReport:
    def test_per_condition_split(self):
        rows = [
            QueryEvalRow("q1", 0.1, 1.0, condition="day"),
            QueryEvalRow("q2", None, None, condition="night"),
            QueryEvalRow("q0", 0.4, 4.0, condition="day"),
        ]
        report = build_eval_report(rows)
        assert [r["name"] for r in report["queries"]] == ["q0", "q1", "q2"]
        assert report["per_condition"]["day"] == [50.0, 100.0, 100.0]
        assert report["per_condition"]["night"] == [0.0, 0.0, 0.0]
        assert report["overall"] == pytest.approx([100.0 / 3, 200.0 / 3, 200.0 / 3])
        text = format_eval_report(report)
        assert "failed" in text
        assert "night" in text
