"""Command-line front end: synth, build-map, localize, evaluate.

Exit codes: 0 success, 2 dataset validation failure, 3 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InfeasibleSpec, SemlocError
from .evaluation import QueryEvalRow, ThresholdBuckets, build_eval_report, format_eval_report
from .geometry import PoseEstimate, pose_error
from .localizer import LocalizerConfig, localize_query
# load_dataset is not called here; it stays bound because perfbench swaps it by name
from .model_ingest import Dataset, load_dataset, load_ground_truth, validate_dataset  # noqa: F401
from .retrieval import RetrievalConfig
from .semantic_map import (
    SemanticMap,
    build_semantic_map,
    load_map_cache,
    map_inputs_sha256,
    save_map_cache,
)
from .synth import CorruptionSpec, SceneSpec, corrupt, generate_scene

MAP_CACHE_NAME = "semantic_map.npz"


class ConfigError(Exception):
    pass


@dataclass
class PipelineConfig:
    seed: int = 0
    k_day: int = 30
    k_night: int = 50
    theta_min_deg: float = 5.0
    inlier_px: float = 10.0
    ransac_confidence: float = 0.99
    ransac_max_iters: int = 10000
    temp_pose_min_matches: int = 12
    temp_pose_iters: int = 500
    ratio: float = 0.9
    uniform_weights: bool = False
    jobs: int = 4

    def localizer(self) -> LocalizerConfig:
        return LocalizerConfig(
            theta_min=np.radians(self.theta_min_deg),
            inlier_px=self.inlier_px,
            ransac_confidence=self.ransac_confidence,
            ransac_max_iters=self.ransac_max_iters,
            temp_pose_min_matches=self.temp_pose_min_matches,
            temp_pose_iters=self.temp_pose_iters,
        )

    def retrieval(self) -> RetrievalConfig:
        return RetrievalConfig(k_day=self.k_day, k_night=self.k_night)


def load_pipeline_config(path: Path | None, overrides: dict) -> PipelineConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    values.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.k_day < 1 or cfg.k_night < 1:
        raise ConfigError("k_day and k_night must be >= 1")
    if not 0.0 < cfg.ransac_confidence < 1.0:
        raise ConfigError("ransac_confidence must be in (0, 1)")
    if min(cfg.inlier_px, cfg.theta_min_deg) < 0 or cfg.ratio < 0:
        raise ConfigError("thresholds must be non-negative")
    if min(cfg.ransac_max_iters, cfg.temp_pose_iters, cfg.temp_pose_min_matches, cfg.jobs) < 1:
        raise ConfigError("iteration counts and jobs must be >= 1")
    return cfg


def query_rng(seed: int, query_name: str) -> np.random.Generator:
    """Stable per-query generator so results do not depend on scheduling."""
    digest = hashlib.sha256(f"{seed}:{query_name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def _load_or_build_map(dataset: Dataset) -> SemanticMap:
    """The cached map when it was built from the dataset's current inputs,
    else a new build that replaces the cache."""
    cache = dataset.root / MAP_CACHE_NAME
    inputs = map_inputs_sha256(dataset.root)
    smap = load_map_cache(cache, dataset.class_table, inputs)
    if smap is not None:
        print(f"loaded semantic map cache: {len(smap)} points")
        return smap
    smap = build_semantic_map(dataset.model, dataset.db_rasters, dataset.class_table)
    save_map_cache(smap, cache, inputs)
    print(f"built semantic map: {len(smap)} points kept of {len(dataset.model.points)} ({cache})")
    return smap


def _set_up(data_dir: Path) -> tuple[Dataset, SemanticMap] | None:
    """Read and validate the dataset once, then get its map; None after
    printing every finding of an invalid dataset."""
    report = validate_dataset(data_dir)
    for finding in report.findings:
        print(f"validation: {finding}", file=sys.stderr)
    if report.dataset is None:
        return None
    return report.dataset, _load_or_build_map(report.dataset)


def _pose_to_list(pose: PoseEstimate) -> list[float]:
    q = pose.quaternion()
    t = pose.translation
    return [float(v) for v in (*q, *t)]


def cmd_synth(args) -> int:
    try:
        with open(args.spec) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: cannot read scene spec: {exc}", file=sys.stderr)
        return 3
    scene_values = raw.get("scene", raw) if isinstance(raw, dict) else None
    if scene_values is None:
        print("config error: scene spec must be a JSON object", file=sys.stderr)
        return 3
    corruption_values = raw.get("corruption") if isinstance(raw, dict) else None
    if "corruption" in scene_values:
        scene_values = {k: v for k, v in scene_values.items() if k != "corruption"}
    if "octant_labels" in scene_values:
        scene_values["octant_labels"] = tuple(scene_values["octant_labels"])
    try:
        spec = SceneSpec(**scene_values)
        if args.seed is not None:
            spec = SceneSpec(**{**asdict(spec), "seed": args.seed})
        gt = generate_scene(spec, Path(args.out))
        if corruption_values:
            cseed = corruption_values.pop("seed", spec.seed + 1)
            corrupt(Path(args.out), Path(args.out), CorruptionSpec(**corruption_values), cseed)
    except (TypeError, InfeasibleSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(gt.point_positions)} points, {len(gt.db_names)} db images, "
          f"{len(gt.query_names)} queries to {args.out}")
    return 0


def cmd_build_map(args) -> int:
    return 2 if _set_up(Path(args.data)) is None else 0


def cmd_localize(args) -> int:
    try:
        cfg = load_pipeline_config(
            Path(args.config) if args.config else None,
            {
                "seed": args.seed,
                "k_day": args.k_day,
                "k_night": args.k_night,
                "theta_min_deg": args.theta_min_deg,
                "inlier_px": args.inlier_px,
                "uniform_weights": True if args.uniform_weights else None,
                "jobs": args.jobs,
            },
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    setup = _set_up(Path(args.data))
    if setup is None:
        return 2
    dataset, smap = setup
    loc_cfg = cfg.localizer()
    ret_cfg = cfg.retrieval()

    def run_one(query):
        rng = query_rng(cfg.seed, query.name)
        return localize_query(
            query,
            smap,
            dataset,
            ret_cfg,
            loc_cfg,
            rng,
            uniform_weights=cfg.uniform_weights,
            ratio=cfg.ratio,
        )

    queries = sorted(dataset.queries, key=lambda q: q.name)
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(run_one, queries))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    pose_lines = []
    query_entries = []
    n_ok = 0
    for query, result in zip(queries, results):
        if result.pose is not None:
            n_ok += 1
            vals = _pose_to_list(result.pose)
            pose_lines.append(query.name + " " + " ".join(repr(v) for v in vals))
        query_entries.append(
            {
                "name": query.name,
                "condition": query.condition or "day",
                "pose": _pose_to_list(result.pose) if result.pose is not None else None,
                "inliers": result.inliers,
                "used_fallback": result.used_fallback,
                "candidates": [
                    {
                        "image": dataset.model.images[c.image_id].name,
                        "matches": len(c.matches),
                        "temp_pose": c.temp_pose is not None,
                        "score": c.score,
                    }
                    for c in result.candidates
                ],
            }
        )
    with open(out_dir / "poses.txt", "w") as fh:
        fh.write("".join(line + "\n" for line in pose_lines))
    config = asdict(cfg)
    del config["jobs"]  # --jobs does not change results, so the report leaves it out
    payload = {"schema": 1, "config": config, "queries": query_entries}
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"localized {n_ok}/{len(queries)} queries -> {out_dir}")
    return 0


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    try:
        gt = load_ground_truth(Path(args.gt))
    except (OSError, SemlocError) as exc:
        print(f"validation: cannot read ground truth: {exc}", file=sys.stderr)
        return 2
    poses_path = run_dir / "poses.txt"
    if not poses_path.exists():
        print(f"validation: missing {poses_path}", file=sys.stderr)
        return 2
    try:
        estimated = load_ground_truth(poses_path)  # same line format
    except SemlocError as exc:
        print(f"validation: cannot read poses: {exc}", file=sys.stderr)
        return 2
    if not estimated:
        print("warning: pose file is empty", file=sys.stderr)

    meta: dict[str, dict] = {}
    report_path = run_dir / "report.json"
    if report_path.exists():
        with open(report_path) as fh:
            payload = json.load(fh)
        meta = {entry["name"]: entry for entry in payload.get("queries", [])}

    rows = []
    for name in sorted(gt):
        entry = meta.get(name, {})
        est = estimated.get(name)
        t_err, r_err = pose_error(est, gt[name]) if est is not None else (None, None)
        rows.append(
            QueryEvalRow(
                name=name,
                t_err_m=t_err,
                r_err_deg=r_err,
                inliers=entry.get("inliers", 0),
                used_fallback=entry.get("used_fallback", False),
                condition=entry.get("condition", "day"),
            )
        )
    report = build_eval_report(rows, ThresholdBuckets())
    print(format_eval_report(report))
    out = {
        "schema": 1,
        "buckets": {
            "fine": list(report.buckets.fine),
            "medium": list(report.buckets.medium),
            "coarse": list(report.buckets.coarse),
        },
        "overall": list(report.overall),
        "per_condition": {k: list(v) for k, v in report.per_condition.items()},
        "queries": [asdict(r) for r in report.rows],
    }
    with open(run_dir / "eval_report.json", "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semloc",
        description="Semantically weighted visual localization on sparse SfM maps",
    )
    parser.add_argument("--version", action="version", version=f"semloc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p_synth.add_argument("--spec", required=True, help="scene spec JSON")
    p_synth.add_argument("--out", required=True, help="output dataset directory")
    p_synth.add_argument("--seed", type=int, default=None, help="override the scene seed")
    p_synth.set_defaults(func=cmd_synth)

    p_map = sub.add_parser("build-map", help="build and cache the semantic map")
    p_map.add_argument("--data", required=True, help="dataset directory")
    p_map.set_defaults(func=cmd_build_map)

    p_loc = sub.add_parser("localize", help="localize every query in a dataset")
    p_loc.add_argument("--data", required=True, help="dataset directory")
    p_loc.add_argument("--out", required=True, help="run output directory")
    p_loc.add_argument("--config", default=None, help="pipeline config JSON")
    p_loc.add_argument("--seed", type=int, default=None)
    p_loc.add_argument("--k-day", dest="k_day", type=int, default=None)
    p_loc.add_argument("--k-night", dest="k_night", type=int, default=None)
    p_loc.add_argument("--theta-min-deg", dest="theta_min_deg", type=float, default=None)
    p_loc.add_argument("--inlier-px", dest="inlier_px", type=float, default=None)
    p_loc.add_argument(
        "--uniform-weights",
        action="store_true",
        help="no-semantics baseline: uniform sampling weights",
    )
    p_loc.add_argument("--jobs", type=int, default=None)
    p_loc.set_defaults(func=cmd_localize)

    p_eval = sub.add_parser("evaluate", help="bucket pose errors against ground truth")
    p_eval.add_argument("--run", required=True, help="run directory holding poses.txt")
    p_eval.add_argument("--gt", required=True, help="ground_truth.txt path")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleSpec as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SemlocError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
