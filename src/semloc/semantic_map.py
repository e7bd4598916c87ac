"""Sparse semantic 3D map construction.

Each surviving SfM point carries a majority-voted class label plus the
visibility statistics of its observing cameras: the distance band
[d_lower, d_upper], the unit mid-viewpoint direction v_mid between the two
most-separated viewing directions, and the angle theta between them.
Dynamic-labeled and all-void points are dropped, as are points whose
viewing geometry is degenerate.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateGeometry
from .geometry import PoseEstimate, camera_center
from .model_ingest import DB_SUBDIR, MODEL_SUBDIR, ClassTable, LabelRaster, RawPoint3D, SfmModel

MAP_CACHE_VERSION = 3  # stored in every cache; bump it when the map build or the layout changes
MAP_ARRAYS = ("ids", "positions", "labels", "d_lower", "d_upper", "v_mid", "theta")


@dataclass(frozen=True, eq=False)
class SemanticMap:
    """Labeled map points as parallel arrays, one row per point in
    ascending id order."""

    ids: np.ndarray  # (n,) int64, strictly increasing
    positions: np.ndarray  # (n, 3) meters, world frame
    labels: np.ndarray  # (n,) int64
    d_lower: np.ndarray  # (n,) min distance to an observing camera center
    d_upper: np.ndarray  # (n,) max distance
    v_mid: np.ndarray  # (n, 3) unit vectors between the two extreme viewpoints
    theta: np.ndarray  # (n,) radians between the two extreme viewpoints
    class_table: ClassTable

    def __post_init__(self):
        if np.any(np.diff(self.ids) <= 0):
            raise ValueError("map point ids must be strictly increasing")

    def __len__(self) -> int:
        return len(self.ids)

    def rows_of(self, point_ids: np.ndarray) -> np.ndarray:
        """Row of each point id, -1 for ids not in the map."""
        point_ids = np.asarray(point_ids, dtype=np.int64)
        rows = np.searchsorted(self.ids, point_ids)
        found = rows < len(self.ids)
        found[found] = self.ids[rows[found]] == point_ids[found]
        return np.where(found, rows, -1)


def vote_point_label(
    point: RawPoint3D, model: SfmModel, rasters: dict[int, LabelRaster],
    class_table: ClassTable,
) -> int | None:
    """Majority label over the track's raster lookups, or None when the
    point should be removed (dynamic or all-void votes).

    Each track observation looks the raster up at the observing keypoint's
    nearest pixel. Void votes are discarded; ties break toward the smaller
    class id.
    """
    votes: dict[int, int] = {}
    for image_id, kp_idx in point.track:
        image = model.images[image_id]
        label = rasters[image_id].at(image.keypoints[kp_idx])
        if label == class_table.void_id:
            continue
        votes[label] = votes.get(label, 0) + 1
    if not votes:
        return None
    winner = min(votes, key=lambda lbl: (-votes[lbl], lbl))
    if class_table.is_dynamic(winner):
        return None
    return winner


def compute_visibility_stats(
    point: RawPoint3D, observing_poses: list[PoseEstimate]
) -> tuple[float, float, np.ndarray, float]:
    """(d_lower, d_upper, v_mid, theta) from the observing camera centers.

    The extreme pair is found by exact pairwise search over the track's
    viewing directions (tracks are short). Raises DegenerateGeometry when a
    camera center coincides with the point or the two extreme directions
    are antiparallel (v_mid undefined).
    """
    if len(observing_poses) < 2:
        raise DegenerateGeometry("visibility stats need at least 2 observing cameras")
    centers = np.array([camera_center(p) for p in observing_poses])
    offsets = centers - point.position
    dists = np.linalg.norm(offsets, axis=1)
    if np.any(dists < 1e-9):
        raise DegenerateGeometry("camera center coincides with the 3D point")
    dirs = offsets / dists[:, None]

    best = (0, 1)
    best_cos = np.inf
    for i in range(len(dirs)):
        cosines = dirs[i + 1 :] @ dirs[i]
        if len(cosines) == 0:
            continue
        j = int(np.argmin(cosines))
        if cosines[j] < best_cos:
            best_cos = float(cosines[j])
            best = (i, i + 1 + j)
    a, b = dirs[best[0]], dirs[best[1]]
    theta = float(np.arccos(np.clip(a @ b, -1.0, 1.0)))
    mid = a + b
    mid_norm = np.linalg.norm(mid)
    if mid_norm < 1e-12:
        raise DegenerateGeometry("extreme viewpoints are antiparallel")
    return float(dists.min()), float(dists.max()), mid / mid_norm, theta


def build_semantic_map(
    model: SfmModel, rasters: dict[int, LabelRaster], class_table: ClassTable
) -> SemanticMap:
    """Vote labels and compute visibility stats for every SfM point.

    The map holds exactly the points that were neither removed by voting
    nor geometrically degenerate. Deterministic: points are processed in
    ascending id order.
    """
    kept = []
    for point_id in sorted(model.points):
        raw = model.points[point_id]
        label = vote_point_label(raw, model, rasters, class_table)
        if label is None:
            continue
        poses = [model.images[image_id].pose for image_id, _ in raw.track]
        try:
            d_lower, d_upper, v_mid, theta = compute_visibility_stats(raw, poses)
        except DegenerateGeometry:
            continue
        kept.append((point_id, raw.position, label, d_lower, d_upper, v_mid, theta))
    ids, positions, labels, d_lower, d_upper, v_mid, theta = zip(*kept) if kept else [()] * 7
    return SemanticMap(
        ids=np.array(ids, dtype=np.int64),
        positions=np.array(positions, dtype=float).reshape(-1, 3),
        labels=np.array(labels, dtype=np.int64),
        d_lower=np.array(d_lower, dtype=float),
        d_upper=np.array(d_upper, dtype=float),
        v_mid=np.array(v_mid, dtype=float).reshape(-1, 3),
        theta=np.array(theta, dtype=float),
        class_table=class_table,
    )


def map_inputs_sha256(root: Path) -> str:
    """Digest of the files a semantic map is built from: the model, the
    database label rasters and classes.txt."""
    digest = hashlib.sha256()
    files = [
        *sorted((root / MODEL_SUBDIR).glob("*")),
        *sorted((root / DB_SUBDIR).glob("*.labels.pgm")),
        root / "classes.txt",
    ]
    for path in files:
        if path.is_file():
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root)}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def save_map_cache(smap: SemanticMap, path: Path, inputs_sha256: str) -> None:
    """Binary cache of the map arrays, keyed by the format version and the
    digest of the inputs the map was built from; round-trips exactly.

    Written to a temporary file that then replaces `path`, so an interrupted
    write leaves no partial cache behind.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            version=MAP_CACHE_VERSION,
            inputs_sha256=inputs_sha256,
            **{name: getattr(smap, name) for name in MAP_ARRAYS},
        )
    os.replace(tmp, path)


def load_map_cache(path: Path, class_table: ClassTable, inputs_sha256: str) -> SemanticMap | None:
    """The cached map; None when the cache is missing or unreadable, holds
    another format version, was built from other inputs or has ids that are
    not strictly increasing."""
    try:
        with np.load(path) as data:
            if (
                int(data["version"]) != MAP_CACHE_VERSION
                or str(data["inputs_sha256"]) != inputs_sha256
            ):
                return None
            arrays = {name: data[name] for name in MAP_ARRAYS}
        return SemanticMap(**arrays, class_table=class_table)
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None
