"""Tests of the benchmark's own checks, references and tracing.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench", ROOT / "tests"):
    sys.path.insert(0, str(path))

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Workload  # noqa: E402


def random_rotation(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def write_pose_file(path, poses):
    lines = []
    for name, (q, t) in poses.items():
        lines.append(name + " " + " ".join(repr(float(v)) for v in (*q, *t)))
    path.write_text("\n".join(lines) + "\n")


def test_pose_check_rejects_shift_of_0_3_m(tmp_path):
    rng = np.random.default_rng(0)
    q = random_rotation(rng)
    t = rng.normal(size=3) * 5
    R = checks.quat_to_rotation(q)
    direction = rng.normal(size=3)
    centre = -R.T @ t + 0.3 * direction / np.linalg.norm(direction)
    write_pose_file(tmp_path / "gt.txt", {"a": (q, t), "b": (q, t)})
    write_pose_file(tmp_path / "est.txt", {"a": (q, t), "b": (q, -R @ centre)})
    gt = checks.read_poses(tmp_path / "gt.txt")
    est = checks.read_poses(tmp_path / "est.txt")
    assert checks.fine_queries(est, gt) == ["a"]
    assert checks.not_fine_problems(est, gt) == ["b: pose outside the fine bucket"]
    t_err, r_err = checks.pose_error(*est["b"], *gt["b"])
    assert t_err == pytest.approx(0.3, abs=1e-9)
    assert r_err == pytest.approx(0.0, abs=1e-6)


def test_pose_check_rejects_missing_query(tmp_path):
    rng = np.random.default_rng(5)
    poses = {name: (random_rotation(rng), rng.normal(size=3)) for name in ("a", "b", "c")}
    write_pose_file(tmp_path / "gt.txt", poses)
    gt = checks.read_poses(tmp_path / "gt.txt")
    assert checks.not_fine_problems(gt, gt) == []
    write_pose_file(tmp_path / "est.txt", {"a": poses["a"], "c": poses["c"]})
    est = checks.read_poses(tmp_path / "est.txt")
    assert checks.fine_queries(est, gt) == ["a", "c"]
    assert checks.not_fine_problems(est, gt) == ["b: no pose"]


def test_pose_error_agrees_with_trace_form():
    from semloc.geometry import PoseEstimate, pose_error

    rng = np.random.default_rng(1)
    for _ in range(20):
        q1, q2 = random_rotation(rng), random_rotation(rng)
        t1, t2 = rng.normal(size=3), rng.normal(size=3)
        ours = checks.pose_error(checks.quat_to_rotation(q1), t1, checks.quat_to_rotation(q2), t2)
        theirs = pose_error(PoseEstimate.from_quaternion(q1, t1), PoseEstimate.from_quaternion(q2, t2))
        assert ours == pytest.approx(theirs, abs=1e-6)


def small_descriptors(seed):
    rng = np.random.default_rng(seed)
    db = rng.normal(size=(40, 8)).astype(np.float32)
    db[7] = db[3]  # an exact tie between two db rows
    query = np.concatenate([db[:25] + rng.normal(scale=0.1, size=(25, 8)), rng.normal(size=(10, 8))])
    return query.astype(np.float32), db


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_matcher_agrees_with_oracle(seed):
    query, db = small_descriptors(seed)
    expected = oracles.knn_ratio_matches(query.tolist(), db.tolist(), 0.9)
    assert checks.reference_ratio_matches(query, db, 0.9) == expected


def test_matcher_check_rejects_dropped_or_added_pair():
    from semloc.matching import knn_ratio_match
    from semloc.model_ingest import DescriptorSet

    query, db = small_descriptors(0)
    reference = checks.reference_ratio_matches(query, db, 0.9)
    program = {(m.query_kp, m.db_kp) for m in knn_ratio_match(DescriptorSet(8, query), DescriptorSet(8, db), 0.9)}
    assert checks.match_problems(program, reference) == []
    dropped = set(program)
    dropped.pop()
    assert checks.match_problems(dropped, reference)
    unused_db = next(d for d in range(len(db)) if d not in {p[1] for p in program})
    unused_q = next(q for q in range(len(query)) if q not in {p[0] for p in program})
    assert checks.match_problems(program | {(unused_q, unused_db)}, reference)


def test_reference_ranking_agrees_with_oracle():
    rng = np.random.default_rng(3)
    vecs = {i: rng.normal(size=6) for i in range(1, 13)}
    vecs[9] = vecs[4].copy()  # tie: the smaller id must come first
    query = vecs[4] + rng.normal(scale=0.01, size=6)
    for k in (1, 5, 12, 30):
        expected = [i for i, _ in oracles.rank_by_l2(query.tolist(), {i: v.tolist() for i, v in vecs.items()}, k)]
        assert checks.reference_ranking(query, vecs, k) == expected


def test_ranking_check_rejects_swapped_order():
    rng = np.random.default_rng(4)
    vecs = {i: rng.normal(size=6) for i in range(1, 9)}
    reference = checks.reference_ranking(rng.normal(size=6), vecs, 5)
    assert checks.ranking_problems(reference, reference) == []
    swapped = [reference[1], reference[0], *reference[2:]]
    assert checks.ranking_problems(swapped, reference)


def test_self_times_sum_to_root_duration():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("a"):
            pass
    total = sum(tracer.self_times().values())
    assert total == pytest.approx(tracer.durations("root")[0], abs=1e-12)


TINY = Workload(
    name="tiny",
    scene={"n_points": 120, "n_db_images": 6, "n_queries": 2, "pixel_sigma": 0.5},
    k_day=3,
)


def metric_names(kind):
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_tiny_workload_timed(tmp_path):
    """Timed rounds and every check on a small scene."""
    result = run.run_workload(TINY, seed=1, seconds=0, trace=False, work=tmp_path)
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (2, 0)
    metrics = result["metrics"]
    assert metric_names("end_to_end") <= set(metrics)
    assert metrics["setup_s"] > 0
    assert metrics["queries_fine"] == 2


def test_tiny_workload_traced(tmp_path):
    """Timed rounds, traced round and every check on a small scene."""
    result = run.run_workload(TINY, seed=1, seconds=0, trace=True, work=tmp_path)
    assert result["problems"] == []
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 0)
    metrics = result["metrics"]
    assert metric_names("per_layer") <= set(metrics)
    assert metrics["matching.pairs"] == metrics["retrieval.candidates"] == 6
    stages = sum(v for n, v in metrics.items() if n.split(".")[0] in ("retrieval", "matching", "localizer", "geometry") and n.endswith("_s"))
    assert stages + metrics["trace.unaccounted_s"] == pytest.approx(metrics["trace.query_s"], rel=1e-9)


def test_scene_seed_that_crashes_synth_is_skipped(tmp_path):
    """`semloc synth` crashes on the clean scene at seed 87; the benchmark
    generates the next scene seed instead, the same one every time."""
    from workloads import WORKLOADS

    out = tmp_path / "dataset"
    scene_seed = run.make_dataset(WORKLOADS["clean"], 87, out)
    assert scene_seed == run.scene_seeds(87)[1]
    assert (out / "ground_truth.txt").is_file()
