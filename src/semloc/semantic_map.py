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

MAP_CACHE_VERSION = 2  # stored in every cache; bump it when the map build or the layout changes


@dataclass(frozen=True, eq=False)
class SemanticPoint:
    id: int
    position: np.ndarray  # (3,) meters, world frame
    label: int
    d_lower: float  # min distance to an observing camera center
    d_upper: float  # max distance
    v_mid: np.ndarray  # (3,) unit vector between the two extreme viewpoints
    theta: float  # radians between the two extreme viewpoints
    track_len: int


class SemanticMap:
    """Immutable collection of labeled points with packed arrays for
    vectorized visibility tests and projection."""

    def __init__(self, points: list[SemanticPoint], class_table: ClassTable):
        self.points = points
        self.class_table = class_table
        self._index = {p.id: i for i, p in enumerate(points)}
        n = len(points)
        self.ids = np.array([p.id for p in points], dtype=np.int64)
        self.positions = np.array([p.position for p in points]).reshape(n, 3)
        self.labels = np.array([p.label for p in points], dtype=np.int64)
        self.d_lower = np.array([p.d_lower for p in points])
        self.d_upper = np.array([p.d_upper for p in points])
        self.v_mid = np.array([p.v_mid for p in points]).reshape(n, 3)
        self.theta = np.array([p.theta for p in points])

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._index

    def position_of(self, point_id: int) -> np.ndarray:
        return self.positions[self._index[point_id]]


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
    points: list[SemanticPoint] = []
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
        points.append(
            SemanticPoint(
                id=point_id,
                position=raw.position.copy(),
                label=label,
                d_lower=d_lower,
                d_upper=d_upper,
                v_mid=v_mid,
                theta=theta,
                track_len=len(raw.track),
            )
        )
    return SemanticMap(points, class_table)


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
            ids=smap.ids,
            positions=smap.positions,
            labels=smap.labels,
            d_lower=smap.d_lower,
            d_upper=smap.d_upper,
            v_mid=smap.v_mid,
            theta=smap.theta,
            track_len=np.array([p.track_len for p in smap.points], dtype=np.int64),
        )
    os.replace(tmp, path)


def load_map_cache(path: Path, class_table: ClassTable, inputs_sha256: str) -> SemanticMap | None:
    """The cached map; None when the cache is missing or unreadable, holds
    another format version or was built from other inputs."""
    try:
        with np.load(path) as data:
            if (
                int(data["version"]) != MAP_CACHE_VERSION
                or str(data["inputs_sha256"]) != inputs_sha256
            ):
                return None
            points = [
                SemanticPoint(
                    id=int(data["ids"][i]),
                    position=data["positions"][i],
                    label=int(data["labels"][i]),
                    d_lower=float(data["d_lower"][i]),
                    d_upper=float(data["d_upper"][i]),
                    v_mid=data["v_mid"][i],
                    theta=float(data["theta"][i]),
                    track_len=int(data["track_len"][i]),
                )
                for i in range(len(data["ids"]))
            ]
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return SemanticMap(points, class_table)
