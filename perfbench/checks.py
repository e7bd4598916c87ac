"""Correctness checks computed apart from the program.

Nothing here imports `semloc`: poses, descriptors and global descriptors
are read from the files with this module's own readers, and the
references below re-derive the matcher and the retrieval ranking by
brute force.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

FINE_T_M = 0.25
FINE_R_DEG = 2.0


def quat_to_rotation(q) -> np.ndarray:
    """Rotation of the Hamilton quaternion (qw, qx, qy, qz)."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def read_poses(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """`<name> qw qx qy qz tx ty tz` lines to {name: (R, t)}, world-to-camera."""
    poses = {}
    for line in Path(path).read_text().splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 8:
            raise ValueError(f"{path}: malformed pose line {line!r}")
        values = [float(v) for v in parts[1:]]
        poses[parts[0]] = (quat_to_rotation(values[:4]), np.array(values[4:]))
    return poses


def pose_error(R_est, t_est, R_gt, t_gt) -> tuple[float, float]:
    """(distance in m between camera centres, angle in degrees of R_gt^T R_est)."""
    c_est = -R_est.T @ t_est
    c_gt = -R_gt.T @ t_gt
    M = R_gt.T @ R_est
    sin_part = 0.5 * math.sqrt(
        (M[2, 1] - M[1, 2]) ** 2 + (M[0, 2] - M[2, 0]) ** 2 + (M[1, 0] - M[0, 1]) ** 2
    )
    cos_part = 0.5 * (M[0, 0] + M[1, 1] + M[2, 2] - 1.0)
    return float(np.linalg.norm(c_est - c_gt)), math.degrees(math.atan2(sin_part, cos_part))


def fine_queries(estimated: dict, ground_truth: dict) -> list[str]:
    """Names of the ground-truth queries whose estimate is within the fine
    bucket (0.25 m and 2 degrees, both inclusive)."""
    fine = []
    for name, (R_gt, t_gt) in sorted(ground_truth.items()):
        if name not in estimated:
            continue
        t_err, r_err = pose_error(*estimated[name], R_gt, t_gt)
        if t_err <= FINE_T_M and r_err <= FINE_R_DEG:
            fine.append(name)
    return fine


def not_fine_problems(estimated: dict, ground_truth: dict) -> list[str]:
    """One problem per ground-truth query that has no pose, or a pose
    outside the fine bucket."""
    fine = set(fine_queries(estimated, ground_truth))
    return [
        f"{name}: pose outside the fine bucket" if name in estimated else f"{name}: no pose"
        for name in sorted(ground_truth)
        if name not in fine
    ]


def read_image_ids(images_txt: Path) -> dict[str, int]:
    """Image name -> id from a COLMAP images.txt (two lines per image)."""
    lines = [ln for ln in Path(images_txt).read_text().splitlines() if not ln.startswith("#")]
    return {line.split()[-1]: int(line.split()[0]) for line in lines[0::2]}


def _read_sidecar(path: Path, magic: bytes, header_fields: int) -> tuple[tuple[int, ...], np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: not a {magic.decode()} file")
    end = 4 + 4 * header_fields
    header = struct.unpack(f"<{header_fields}I", raw[4:end])
    return header, np.frombuffer(raw[end:], dtype="<f4")


def read_descriptors(path: Path) -> np.ndarray:
    """(count, dim) float32 rows of an `.ldsc` file."""
    (count, dim), values = _read_sidecar(path, b"LDSC", 2)
    return values.reshape(count, dim)


def read_global_descriptor(path: Path) -> np.ndarray:
    """Unit-normalized float32 vector of a `.gdsc` file."""
    (dim,), values = _read_sidecar(path, b"GDSC", 1)
    values = values.astype(np.float64)
    return (values / np.linalg.norm(values)).astype(np.float32)


def reference_ratio_matches(query_rows, db_rows, ratio: float) -> set[tuple[int, int]]:
    """Brute-force nearest neighbour with the ratio test d1 <= ratio * d2,
    then one-to-one db use: smaller d1 first, then smaller query index."""
    q = np.asarray(query_rows, dtype=np.float64)
    db = np.asarray(db_rows, dtype=np.float64)
    db_index = np.arange(len(db))
    accepted = []
    for qi in range(len(q)):
        d = np.sqrt(((db - q[qi]) ** 2).sum(axis=1))
        first, second = np.lexsort((db_index, d))[:2]
        if d[first] <= ratio * d[second]:
            accepted.append((float(d[first]), qi, int(first)))
    accepted.sort()
    used: set[int] = set()
    pairs = set()
    for _, qi, di in accepted:
        if di not in used:
            used.add(di)
            pairs.add((qi, di))
    return pairs


def reference_ranking(query_vec, db_vecs: dict[int, np.ndarray], k: int) -> list[int]:
    """Image ids of the k smallest L2 distances, sorted by (distance, id)."""
    q = np.asarray(query_vec, dtype=np.float64)
    entries = sorted(
        (float(np.sqrt(np.sum((np.asarray(v, dtype=np.float64) - q) ** 2))), image_id)
        for image_id, v in db_vecs.items()
    )
    return [image_id for _, image_id in entries[: min(k, len(entries))]]


def match_problems(program_pairs, reference_pairs) -> list[str]:
    """Differences between the program's (query, db) pairs and the reference."""
    program_pairs, reference_pairs = set(program_pairs), set(reference_pairs)
    problems = []
    if program_pairs - reference_pairs:
        problems.append(f"{len(program_pairs - reference_pairs)} pairs not in the reference")
    if reference_pairs - program_pairs:
        problems.append(f"{len(reference_pairs - program_pairs)} reference pairs missing")
    return problems


def ranking_problems(program_ids, reference_ids) -> list[str]:
    if list(program_ids) != list(reference_ids):
        return [f"ranking {list(program_ids)} != reference {list(reference_ids)}"]
    return []
