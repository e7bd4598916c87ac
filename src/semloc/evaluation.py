"""Benchmark-style evaluation: cumulative precision buckets over pose errors."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import asdict, dataclass

logger = logging.getLogger(__name__)

# (meters, degrees) thresholds of the long-term visual localization
# benchmark; a query counts in a bucket when both errors are within it, so
# the percentages are cumulative
BUCKETS = {"fine": (0.25, 2.0), "medium": (0.5, 5.0), "coarse": (5.0, 10.0)}


@dataclass
class QueryEvalRow:
    name: str
    t_err_m: float | None  # None when localization failed
    r_err_deg: float | None
    inliers: int = 0
    used_fallback: bool = False
    condition: str = "day"


def bucket_errors(errors: list[tuple[float, float] | None]) -> tuple[float, float, float]:
    """Percentages of queries within the fine/medium/coarse thresholds.

    Entries of None are failed localizations: they count in no bucket but
    stay in the denominator.
    """
    if not errors:
        logger.warning("bucketing an empty error list; reporting 0/0/0")
        return (0.0, 0.0, 0.0)
    counts = [0, 0, 0]
    for err in errors:
        if err is None:
            continue
        t, r = err
        for i, (t_max, r_max) in enumerate(BUCKETS.values()):
            if t <= t_max and r <= r_max:
                counts[i] += 1
    total = len(errors)
    return tuple(100.0 * c / total for c in counts)


def build_eval_report(rows: list[QueryEvalRow]) -> dict:
    """The eval_report.json payload: the buckets, the overall and
    per-condition percentages, and the rows sorted by query name."""
    rows = sorted(rows, key=lambda r: r.name)

    def percentages(selected):
        return list(bucket_errors([
            None if r.t_err_m is None else (r.t_err_m, r.r_err_deg) for r in selected
        ]))

    return {
        "schema": 1,
        "buckets": {name: list(pair) for name, pair in BUCKETS.items()},
        "overall": percentages(rows),
        "per_condition": {
            condition: percentages([r for r in rows if r.condition == condition])
            for condition in sorted({r.condition for r in rows})
        },
        "queries": [asdict(r) for r in rows],
    }


def format_eval_report(report: dict) -> str:
    """build_eval_report's payload as the text `semloc evaluate` prints."""
    rows = report["queries"]
    lines = ["condition  fine%   medium%  coarse%   (n)"]
    counts = Counter(r["condition"] for r in rows)
    summary = [(c, pct, counts[c]) for c, pct in report["per_condition"].items()]
    for name, pct, n in [*summary, ("all", report["overall"], len(rows))]:
        lines.append(f"{name:<9} {pct[0]:6.1f}  {pct[1]:7.1f}  {pct[2]:7.1f}   ({n})")
    lines += ["", "query                     t-err[m]   r-err[deg]  inliers  fallback"]
    for row in rows:
        errors = (
            "   failed        -        " if row["t_err_m"] is None
            else f" {row['t_err_m']:9.4f}  {row['r_err_deg']:10.4f}  "
        )
        lines.append(f"{row['name']:<24}{errors}{row['inliers']:7d}  {row['used_fallback']}")
    return "\n".join(lines)
