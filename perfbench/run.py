"""Benchmark of `semloc localize` on generated scenes.

    python3 perfbench/run.py --workload clean --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout; the package is imported from
`src/`, nothing needs to be installed beyond numpy. One run generates the
workload's dataset from --seed with `semloc synth`, then runs whole
`localize` rounds (every query once per round) until --seconds have
passed. Before each round and after the last, a few calls of the command
stop where its queries would start, which times its set-up alone. It
checks the outputs against computations made apart from the program (see
checks.py) and prints each metric with its unit, then, as the last line,
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, timed without tracing.
--trace 1 reports the per-layer metrics of an extra traced round at
--jobs 1. One operation is one query; it fails when it raises or
returns no pose.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# calls of the command stopped after its set-up, before each timed round
# and after the last; with the rounds' own set-ups they give setup_s a
# median over several
SETUP_ONLY_CALLS = 4
SYNTH_TIMEOUT_S = 30
SCENE_ATTEMPTS = 3


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def scene_seeds(seed: int):
    """Scene seeds to try, in order: --seed itself, then seeds no other
    --seed in [0, 2**32) starts from."""
    return [seed + i * 2**32 for i in range(SCENE_ATTEMPTS)]


def make_dataset(workload, seed: int, out: Path) -> int:
    """Generate the workload's dataset; returns the scene seed used.

    `semloc synth` crashes on a few scene seeds (a keypoint that rounds onto
    the raster's border pixel). Such a seed is skipped for the next one of
    scene_seeds(), the same every time, so one --seed always gives the same
    inputs.
    """
    failures = []
    for scene_seed in scene_seeds(seed):
        spec = {"scene": {**workload.scene, "seed": scene_seed}}
        if workload.corruption:
            spec["corruption"] = dict(workload.corruption)
        spec_path = out.parent / "scene.json"
        spec_path.write_text(json.dumps(spec))
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, "-m", "semloc.cli", "synth", "--spec", str(spec_path), "--out", str(out)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=SYNTH_TIMEOUT_S,
        )
        if proc.returncode == 0:
            return scene_seed
        reason = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        failures.append(f"scene seed {scene_seed}: synth exited {proc.returncode}: {reason}")
        print(f"perfbench: {failures[-1]}; trying the next scene seed", file=sys.stderr)
    raise BenchError("; ".join(failures))


def localize(dataset_dir: Path, out: Path, seed: int, workload, jobs: int,
             uniform: bool = False, tracer=None, setup_only: bool = False):
    """One `localize` round over every query, or with setup_only its set-up
    alone, from a directory without a map cache."""
    import semloc.cli as cli
    from instrument import timed_localize

    (dataset_dir / cli.MAP_CACHE_NAME).unlink(missing_ok=True)
    argv = ["--data", str(dataset_dir), "--out", str(out), "--seed", str(seed)]
    if workload.k_day is not None:
        argv += ["--k-day", str(workload.k_day)]
    if uniform:
        argv.append("--uniform-weights")
    run = timed_localize(argv, jobs, tracer, setup_only)
    if run.exit_code != 0:
        raise BenchError(f"localize exited {run.exit_code}")
    if setup_only:
        return run
    print(f"perfbench: {out.name}: {len(run.query_s)} queries at --jobs {jobs}, "
          f"median {statistics.median(run.query_s):.4f} s, batch {run.batch_s:.3f} s",
          file=sys.stderr)
    return run


def output_problems(dataset_dir: Path, run_dir: Path, seed: int, workload) -> list[str]:
    """Retrieval order of every query and the 2D-2D matches of sampled
    (query, candidate) pairs, against the brute-force references."""
    import checks
    from semloc.matching import knn_ratio_match
    from semloc.model_ingest import DescriptorSet

    report = json.loads((run_dir / "report.json").read_text())
    config = report["config"]
    image_ids = checks.read_image_ids(dataset_dir / "model" / "images.txt")
    db_global = {
        image_id: checks.read_global_descriptor(dataset_dir / "db" / f"{name}.gdsc")
        for name, image_id in image_ids.items()
    }
    problems = []
    pairs = []
    for entry in report["queries"]:
        query_global = checks.read_global_descriptor(dataset_dir / "queries" / f"{entry['name']}.gdsc")
        k = config["k_night"] if entry["condition"] == "night" else config["k_day"]
        program = [image_ids[c["image"]] for c in entry["candidates"]]
        reference = checks.reference_ranking(query_global, db_global, k)
        problems += [f"{entry['name']}: {p}" for p in checks.ranking_problems(program, reference)]
        pairs += [(entry["name"], c["image"]) for c in entry["candidates"]]

    for query_name, image_name in random.Random(seed).sample(pairs, workload.matcher_pairs):
        q = checks.read_descriptors(dataset_dir / "queries" / f"{query_name}.ldsc")
        db = checks.read_descriptors(dataset_dir / "db" / f"{image_name}.ldsc")
        program = knn_ratio_match(
            DescriptorSet(q.shape[1], q), DescriptorSet(db.shape[1], db), config["ratio"]
        )
        reference = checks.reference_ratio_matches(q, db, config["ratio"])
        problems += [
            f"{query_name} x {image_name}: {p}"
            for p in checks.match_problems({(m.query_kp, m.db_kp) for m in program}, reference)
        ]
    return problems


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import checks
    from instrument import input_bytes, layer_metrics
    from spans import Tracer

    dataset_dir = work / "dataset"
    scene_seed = make_dataset(workload, seed, dataset_dir)

    def setup_only() -> float:
        return localize(dataset_dir, work / "setup", seed, workload, workload.jobs,
                        setup_only=True).setup_s

    setup_only()  # the first set-up of a process runs slower; not counted
    # set-ups bracket every round, so that a slow spell of the machine
    # moves few of them
    setup_s = []
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        setup_s += [setup_only() for _ in range(SETUP_ONLY_CALLS)]
        rounds.append(localize(dataset_dir, work / f"timed{len(rounds)}", seed, workload, workload.jobs))
    setup_s += [setup_only() for _ in range(SETUP_ONLY_CALLS)]
    setup_s += [r.setup_s for r in rounds]
    runs = list(rounds)

    problems = []
    poses = (work / "timed0" / "poses.txt").read_bytes()

    def same_poses(label: str) -> None:
        if (work / label / "poses.txt").read_bytes() != poses:
            problems.append(f"{label}/poses.txt differs from timed0/poses.txt")

    for i in range(1, len(rounds)):
        same_poses(f"timed{i}")

    ground_truth = checks.read_poses(dataset_dir / "ground_truth.txt")
    estimated = checks.read_poses(work / "timed0" / "poses.txt")
    fine = checks.fine_queries(estimated, ground_truth)
    if workload.semantic_claim:
        localize(dataset_dir, work / "uniform", seed, workload, workload.jobs, uniform=True)
        uniform_fine = checks.fine_queries(checks.read_poses(work / "uniform" / "poses.txt"), ground_truth)
        print(f"perfbench: fine queries semantic {len(fine)}, uniform {len(uniform_fine)}",
              file=sys.stderr)
        if len(fine) <= len(uniform_fine):
            problems.append(f"semantic weights {len(fine)} fine <= uniform weights {len(uniform_fine)}")
    else:
        problems += checks.not_fine_problems(estimated, ground_truth)
    problems += output_problems(dataset_dir, work / "timed0", seed, workload)

    query_s = [s for r in rounds for s in r.query_s]
    batch_s = sum(r.batch_s for r in rounds)
    if trace:
        if workload.jobs == 1:
            serial_s = query_s
        else:
            serial = localize(dataset_dir, work / "serial", seed, workload, 1)
            runs.append(serial)
            same_poses("serial")
            serial_s = serial.query_s
        tracer = Tracer()
        traced = localize(dataset_dir, work / "traced", seed, workload, 1, tracer=tracer)
        runs.append(traced)
        same_poses("traced")
        metrics = layer_metrics(tracer, input_bytes(dataset_dir))
        remainder = tracer.self_times()["cli.query"] / len(traced.query_s)
        if abs(metrics["trace.unaccounted_s"] - remainder) > 1e-9:
            problems.append("query spans outside the reported stages")
        metrics["cli.parallel_efficiency"] = sum(query_s) / (batch_s * workload.jobs)
        metrics["trace.overhead_s"] = statistics.median(traced.query_s) - statistics.median(serial_s)
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "query_p50_s": statistics.median(query_s),
            "queries_per_s": len(query_s) / batch_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "queries_fine": len(fine),
        }

    return {
        "correct": not problems,
        "attempted": sum(len(r.query_ok) for r in runs),
        "failed": sum(not ok for r in runs for ok in r.query_ok),
        "metrics": metrics,
        "problems": problems,
        "rounds": len(rounds),
        "scene_seed": scene_seed,
    }


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semloc").is_dir():
        print(f"perfbench: no semloc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_ROOT / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # the command's own progress lines go to stderr; stdout carries the result
        with contextlib.redirect_stdout(sys.stderr):
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} scene seed {result['scene_seed']} "
          f"trace {args.trace} jobs {workload.jobs} rounds {result['rounds']} attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    for name, entry in metrics.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
