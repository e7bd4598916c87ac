"""Wrappers around `semloc`'s public functions, installed by attribute swap.

`timed_localize` runs the `localize` command in this process and times
its set-up, each `localize_query` call and the query batch; it is the
only wrapping present in a timed run. `traced` adds one span per call at each module
boundary, under the names the calling module looks the function up by.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, patched

# Spans whose self time is part of a query; each is reported as <name>_s.
QUERY_STAGES = (
    "retrieval.rank",
    "matching.match",
    "matching.lift",
    "localizer.temp_pose",
    "localizer.ransac_loop",
    "localizer.sample",
    "localizer.semantic_score",
    "localizer.assign_weights",
    "localizer.final_ransac",
    "geometry.p3p",
    "geometry.verify",
    "geometry.refine",
    "geometry.jacobian",
)
# Spans of the command's set-up; each is reported as <name>_s.
SETUP_STAGES = (
    "model_ingest.validate",
    "model_ingest.load",
    "semantic_map.build",
    "semantic_map.save",
)
# Files the dataset loaders parse (ground truth and manifests are not read).
INPUT_FILES = ("model", "db", "queries", "classes.txt", "conditions.txt", "queries.txt")


@dataclass
class LocalizeRun:
    exit_code: int
    setup_s: float = 0.0  # from the call of the command to the start of its query pool
    query_s: list[float] = field(default_factory=list)
    query_ok: list[bool] = field(default_factory=list)
    batch_s: float = 0.0


class _SetupDone(Exception):
    """Stops the command where its query pool would start."""


def timed_localize(
    argv: list[str], jobs: int, tracer: Tracer | None = None, setup_only: bool = False
) -> LocalizeRun:
    """Run `semloc localize` with argv plus --jobs, timing its set-up and
    every query. With setup_only, the command stops before its first query.

    A query that raises is recorded as failed and yields no pose, so the
    rest of the batch still runs.
    """
    import semloc.cli as cli
    from semloc.localizer import LocalizationResult

    run = LocalizeRun(exit_code=-1)
    lock = threading.Lock()
    batch: list[float] = []

    class TimedPool(cli.ThreadPoolExecutor):
        def __enter__(self):
            batch.append(time.perf_counter())
            if setup_only:
                raise _SetupDone
            return super().__enter__()

        def __exit__(self, *exc_info):
            suppress = super().__exit__(*exc_info)
            batch.append(time.perf_counter())
            return suppress

    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(traced(tracer))
        query_fn = cli.localize_query

        def timed_query(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = query_fn(*args, **kwargs)
            except Exception as exc:  # one failed operation, not a failed run
                print(f"perfbench: query raised {exc!r}", file=sys.stderr)
                result = LocalizationResult(None, 0, [], False)
            elapsed = time.perf_counter() - start
            with lock:
                run.query_s.append(elapsed)
                run.query_ok.append(result.pose is not None)
            return result

        stack.enter_context(patched(cli, localize_query=timed_query, ThreadPoolExecutor=TimedPool))
        start = time.perf_counter()
        try:
            run.exit_code = cli.main(["localize", *argv, "--jobs", str(jobs)])
        except _SetupDone:
            run.exit_code = 0
    if batch:
        run.setup_s = batch[0] - start
    if len(batch) == 2:
        run.batch_s = batch[1] - batch[0]
    return run


@contextmanager
def traced(tracer: Tracer):
    """Record spans and counters at every module boundary the command crosses."""
    import semloc.cli as cli
    import semloc.geometry as geometry
    import semloc.localizer as localizer
    from semloc.errors import DegenerateConfiguration, NoRealSolution

    t = tracer

    def on_match(args, result):
        query_descs, db_descs = args[0], args[1]
        t.count("matching.distance_ops", query_descs.rows * db_descs.rows * query_descs.dim)
        t.count("matching.matches_2d2d", len(result))

    def on_sample(args, result):
        kind = "temp" if "localizer.temp_pose" in t.enclosing() else "final"
        t.count(f"localizer.{kind}_samples")

    def on_p3p_error(exc):
        if isinstance(exc, (DegenerateConfiguration, NoRealSolution)):
            t.count("geometry.p3p_degenerate")

    project_many = localizer.project_many
    verify_span = t.wrap(project_many, "geometry.verify")

    def verify(*args, **kwargs):
        # only the projections inside the hypothesize-and-verify loop are
        # verification; the others belong to their caller's self time
        if t.enclosing()[-1:] == ["localizer.ransac_loop"]:
            return verify_span(*args, **kwargs)
        return project_many(*args, **kwargs)

    w = t.wrap
    with ExitStack() as stack:
        stack.enter_context(
            patched(
                cli,
                validate_dataset=w(cli.validate_dataset, "model_ingest.validate"),
                load_dataset=w(cli.load_dataset, "model_ingest.load"),
                build_semantic_map=w(
                    cli.build_semantic_map,
                    "semantic_map.build",
                    lambda a, r: t.count("semantic_map.points_kept", len(r)),
                ),
                save_map_cache=w(cli.save_map_cache, "semantic_map.save"),
                localize_query=w(cli.localize_query, "cli.query"),
            )
        )
        stack.enter_context(
            patched(
                localizer,
                rank_database=w(
                    localizer.rank_database,
                    "retrieval.rank",
                    lambda a, r: t.count("retrieval.candidates", len(r)),
                ),
                knn_ratio_match=w(localizer.knn_ratio_match, "matching.match", on_match),
                lift_matches=w(
                    localizer.lift_matches,
                    "matching.lift",
                    lambda a, r: t.count("matching.matches_2d3d", len(r)),
                ),
                temporary_pose=w(
                    localizer.temporary_pose,
                    "localizer.temp_pose",
                    lambda a, r: t.count("localizer.temp_pose_found", r is not None),
                ),
                _ransac_loop=w(localizer._ransac_loop, "localizer.ransac_loop"),
                weighted_sample_without_replacement=w(
                    localizer.weighted_sample_without_replacement, "localizer.sample", on_sample
                ),
                semantic_score=w(localizer.semantic_score, "localizer.semantic_score"),
                assign_weights=w(
                    localizer.assign_weights,
                    "localizer.assign_weights",
                    lambda a, r: t.count("localizer.pooled_matches", len(r[0])),
                ),
                weighted_ransac_pnp=w(
                    localizer.weighted_ransac_pnp,
                    "localizer.final_ransac",
                    lambda a, r: t.count("localizer.final_inliers", r[1]),
                ),
                solve_p3p=w(
                    localizer.solve_p3p,
                    "geometry.p3p",
                    lambda a, r: t.count("geometry.hypotheses", len(r)),
                    on_p3p_error,
                ),
                project_many=verify,
                refine_pnp=w(localizer.refine_pnp, "geometry.refine"),
            )
        )
        stack.enter_context(
            patched(
                geometry,
                reprojection_jacobian=w(geometry.reprojection_jacobian, "geometry.jacobian"),
            )
        )
        yield


def input_bytes(dataset_dir: Path) -> int:
    """Size of the files one parse of the dataset reads."""
    total = 0
    for name in INPUT_FILES:
        path = dataset_dir / name
        files = path.rglob("*") if path.is_dir() else [path]
        total += sum(f.stat().st_size for f in files if f.is_file())
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, dataset_bytes: int) -> dict[str, float]:
    """Per-layer figures of one traced `localize` run, which sets up once.

    Query-stage times are self times per query, so they and
    trace.unaccounted_s sum to trace.query_s; set-up times are those of the
    run's one set-up; counters are totals over the run.
    """
    self_s = tracer.self_times()
    calls = Counter(s.name for s in tracer.spans)
    counts = tracer.counts
    n_queries = calls["cli.query"]
    m: dict[str, float] = {f"{name}_s": self_s.get(name, 0.0) for name in SETUP_STAGES}
    m["model_ingest.bytes_read"] = dataset_bytes * (
        calls["model_ingest.validate"] + calls["model_ingest.load"]
    )
    m["semantic_map.points_kept"] = counts["semantic_map.points_kept"]
    for name in QUERY_STAGES:
        m[f"{name}_s"] = _ratio(self_s.get(name, 0.0), n_queries)
    m["trace.query_s"] = _ratio(sum(tracer.durations("cli.query")), n_queries)
    m["trace.unaccounted_s"] = m["trace.query_s"] - sum(m[f"{name}_s"] for name in QUERY_STAGES)

    m["retrieval.candidates"] = counts["retrieval.candidates"]
    m["matching.pairs"] = calls["matching.match"]
    m["matching.distance_ops"] = counts["matching.distance_ops"]
    m["matching.matches_2d2d"] = counts["matching.matches_2d2d"]
    m["matching.matches_2d3d"] = counts["matching.matches_2d3d"]
    m["matching.lift_ratio"] = _ratio(counts["matching.matches_2d3d"], counts["matching.matches_2d2d"])
    m["localizer.temp_pose_calls"] = calls["localizer.temp_pose"]
    m["localizer.temp_pose_found"] = counts["localizer.temp_pose_found"]
    m["localizer.temp_pose_yield"] = _ratio(
        counts["localizer.temp_pose_found"], calls["localizer.temp_pose"]
    )
    m["localizer.temp_samples"] = counts["localizer.temp_samples"]
    m["localizer.final_samples"] = counts["localizer.final_samples"]
    m["localizer.pooled_matches"] = counts["localizer.pooled_matches"]
    m["localizer.final_inliers"] = counts["localizer.final_inliers"]
    m["geometry.p3p_calls"] = calls["geometry.p3p"]
    m["geometry.p3p_degenerate"] = counts["geometry.p3p_degenerate"]
    m["geometry.hypotheses"] = counts["geometry.hypotheses"]
    m["geometry.verify_calls"] = calls["geometry.verify"]
    m["geometry.refine_calls"] = calls["geometry.refine"]
    m["geometry.lm_iters"] = calls["geometry.jacobian"]
    return m
