"""Command-line front end: synth, build-map, localize, evaluate.

Exit codes: 0 success, 2 dataset validation failure, 3 configuration error,
a command-line usage error included. Only main maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InfeasibleSpec, SemlocError
from .evaluation import QueryEvalRow, build_eval_report, format_eval_report
from .geometry import pose_error
from .localizer import LocalizerConfig, localize_query
# load_dataset is not called here; it stays bound because perfbench swaps it by name
from .model_ingest import Dataset, load_dataset, load_ground_truth, validate_dataset  # noqa: F401
from .model_ingest import pose_values, write_json, write_poses
from .semantic_map import (
    SemanticMap,
    build_semantic_map,
    load_map_cache,
    map_key,
    observations,
    save_map_cache,
)
from .synth import CorruptionSpec, SceneSpec, check_corruption, corrupt, generate_scene

MAP_CACHE_NAME = "semantic_map.npz"

logger = logging.getLogger(__name__)


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ConfigError, after the usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def checked_values(values: dict, spec_type, what: str) -> dict:
    """The JSON `values` of a `spec_type` dataclass, each of its default's
    type: an int passes for a float and is returned as one, a bool is not
    an int, a float must be finite, and a tuple default takes a list of
    ints. Raises ConfigError naming the key."""
    defaults = {f.name: f.default for f in fields(spec_type)}
    unknown = set(values) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    for key, value in values.items():
        if isinstance(defaults[key], tuple):
            if type(value) is not list or any(type(v) is not int for v in value):
                raise ConfigError(f"{key} must be a list of int, got {json.dumps(value)}")
            continue
        kind = type(defaults[key])
        if type(value) is not kind and (kind, type(value)) != (float, int):
            raise ConfigError(f"{key} must be {kind.__name__}, got {json.dumps(value)}")
        if kind is float and not abs(value) <= sys.float_info.max:  # NaN, inf or too large an int
            raise ConfigError(f"{key} must be finite, got {json.dumps(value)}")
    return {k: float(v) if type(defaults[k]) is float else v for k, v in values.items()}


def load_pipeline_config(path: Path | None, overrides: dict) -> LocalizerConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
    values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = LocalizerConfig(**checked_values(values, LocalizerConfig, "config"))
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
    observed = observations(dataset.model, dataset.db_rasters)
    inputs = map_key(dataset.model, observed, dataset.class_table)
    smap = load_map_cache(cache, dataset.class_table, inputs)
    if smap is not None:
        print(f"loaded semantic map cache: {len(smap)} points")
        return smap
    smap = build_semantic_map(
        dataset.model, dataset.db_rasters, dataset.class_table, observed=observed
    )
    save_map_cache(smap, cache, inputs)
    print(f"built semantic map: {len(smap)} points kept of {len(dataset.model.point_ids)} ({cache})")
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


def cmd_synth(args) -> int:
    try:
        with open(args.spec) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scene spec: {exc}") from exc
    if not (
        isinstance(raw, dict)
        and set(raw) <= {"scene", "corruption"}
        and isinstance(raw.get("scene"), dict)
        and isinstance(raw.get("corruption", {}), dict)
    ):
        raise ConfigError('scene spec must be {"scene": {...}, "corruption": {...}}')
    scene = checked_values(raw["scene"], SceneSpec, "scene")
    corruption = checked_values(raw.get("corruption", {}), CorruptionSpec, "corruption")
    if "octant_labels" in scene:
        scene["octant_labels"] = tuple(scene["octant_labels"])
    spec, cspec = SceneSpec(**scene), CorruptionSpec(**corruption)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    check_corruption(cspec)
    gt = generate_scene(spec, Path(args.out))
    if corruption:
        corrupt(Path(args.out), Path(args.out), cspec, spec.seed + 1)
    model = gt.dataset.model
    print(f"wrote {len(model.point_ids)} points, {len(model.images)} db images, "
          f"{len(gt.dataset.queries)} queries to {args.out}")
    return 0


def cmd_build_map(args) -> int:
    return 2 if _set_up(Path(args.data)) is None else 0


def cmd_localize(args) -> int:
    cfg = load_pipeline_config(
        Path(args.config) if args.config else None,
        {f.name: getattr(args, f.name, None) for f in fields(LocalizerConfig)},
    )
    out_dir = Path(args.out)  # one that cannot be made is a config error, before set-up
    base = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        why = f"{base} is not a writable directory"
        raise ConfigError(f"cannot write run directory {out_dir}: {why}")
    setup = _set_up(Path(args.data))
    if setup is None:
        return 2
    dataset, smap = setup
    n_db = len(dataset.db_global)
    k = max((cfg.k_for(q.condition) for q in dataset.queries), default=0)
    if k > n_db:
        logger.warning("k=%d exceeds database size %d; clamping", k, n_db)

    def run_one(query):
        return localize_query(query, smap, dataset, cfg, query_rng(cfg.seed, query.name))

    queries = sorted(dataset.queries, key=lambda q: q.name)
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        results = list(pool.map(run_one, queries))

    out_dir.mkdir(parents=True, exist_ok=True)
    poses = {q.name: r.pose for q, r in zip(queries, results) if r.pose is not None}
    query_entries = [
        {
            "name": query.name,
            "condition": query.condition or "day",
            "pose": pose_values(result.pose) if result.pose is not None else None,
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
        for query, result in zip(queries, results)
    ]
    write_poses(out_dir / "poses.txt", poses)
    config = asdict(cfg)
    del config["jobs"]  # --jobs does not change results, so the report leaves it out
    write_json(out_dir / "report.json", {"schema": 1, "config": config, "queries": query_entries})
    print(f"localized {len(poses)}/{len(queries)} queries -> {out_dir}")
    return 0


def _report_entry_fault(entry: dict) -> str | None:
    """What in a report.json query entry `evaluate` cannot use, or None.
    A field left out takes its default."""
    inliers = entry.get("inliers", 0)
    if not isinstance(inliers, int) or isinstance(inliers, bool):
        return f"inliers {json.dumps(inliers)} is not an integer"
    if not isinstance(entry.get("used_fallback", False), bool):
        return f"used_fallback {json.dumps(entry['used_fallback'])} is not true or false"
    if entry.get("condition", "day") not in ("day", "night"):
        return f'condition {json.dumps(entry["condition"])} is not "day" or "night"'
    return None


def cmd_evaluate(args) -> int:
    run_dir = Path(args.run)
    try:
        gt = load_ground_truth(Path(args.gt))
    except (OSError, SemlocError) as exc:
        raise SemlocError(f"cannot read ground truth: {exc}") from exc
    poses_path = run_dir / "poses.txt"
    if not poses_path.exists():
        raise SemlocError(f"missing {poses_path}")
    try:
        estimated = load_ground_truth(poses_path)  # same line format
    except SemlocError as exc:
        raise SemlocError(f"cannot read poses: {exc}") from exc
    if not estimated:
        print("warning: pose file is empty", file=sys.stderr)

    meta: dict[str, dict] = {}
    report_path = run_dir / "report.json"
    if report_path.exists():
        try:
            payload = json.loads(report_path.read_text())
            for entry in payload.get("queries", []):
                if entry["name"] in meta:
                    where = f"{report_path}: query {entry['name']}"
                    raise SemlocError(f"cannot read report: {where} listed twice")
                meta[entry["name"]] = entry
        except (OSError, ValueError, AttributeError, KeyError, TypeError) as exc:
            raise SemlocError(f"cannot read report: {report_path}: {exc!r}") from exc
        for name, entry in meta.items():
            fault = _report_entry_fault(entry)
            if fault is not None:
                raise SemlocError(f"cannot read report: {report_path}: query {name}: {fault}")

    rows = []
    for name in sorted(gt):
        entry = meta.get(name, {})
        est = estimated.get(name)
        t_err, r_err = pose_error(est, gt[name]) if est is not None else (None, None)
        rows.append(QueryEvalRow(
            name, t_err, r_err, entry.get("inliers", 0), entry.get("used_fallback", False),
            entry.get("condition", "day"),
        ))
    report = build_eval_report(rows)
    print(format_eval_report(report))
    write_json(run_dir / "eval_report.json", report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # each flag below overrides the LocalizerConfig field named by its dest
    p_loc.add_argument("--seed", type=int, default=None)
    p_loc.add_argument("--k-day", dest="k_day", type=int, default=None)
    p_loc.add_argument("--k-night", dest="k_night", type=int, default=None)
    p_loc.add_argument("--theta-min-deg", dest="theta_min_deg", type=float, default=None)
    p_loc.add_argument("--inlier-px", dest="inlier_px", type=float, default=None)
    p_loc.add_argument(
        "--uniform-weights",
        action="store_true",
        default=None,
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, InfeasibleSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except SemlocError as exc:
        print(f"validation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
