"""Sparse semantic 3D map construction.

Each surviving SfM point carries a majority-voted class label plus the
visibility statistics of its observing cameras: the distance band
[d_lower, d_upper], the unit mid-viewpoint direction v_mid between the two
most-separated viewing directions, and the angle theta between them.
Dynamic-labeled and all-void points are dropped, as are points whose
viewing geometry is degenerate. The map is built from the model's track
table in one batched pass, and is stored as parallel arrays.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import camera_center
from .model_ingest import ClassTable, SfmModel, id_rows

MAP_CACHE_VERSION = 4  # stored in every cache; bump it when the map build or the layout changes
MAP_ARRAYS = ("ids", "positions", "labels", "d_lower", "d_upper", "v_mid", "theta")
MAP_BLOCK_BYTES = 256 * 2**10  # padded temporaries of one block of the extreme-pair search


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
        return id_rows(self.ids, point_ids)


def _extreme_pairs(dirs: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two most separated directions (a, b) of each track, whose unit
    directions are runs of `lengths` rows of dirs: the first pair i < j in
    row-major order with the smallest cosine, as a scan keeping the first
    strictly smaller cosine finds it.

    Tracks go longest first, in blocks padded to the block's first track.
    A block's pair matrix is built a chunk of rows at a time: one chunk,
    unless a single track passes MAP_BLOCK_BYTES. A chunk's first minimum
    replaces a track's pair so far only when it is strictly smaller."""
    starts = np.cumsum(lengths) - lengths
    first, second = np.empty_like(lengths), np.empty_like(lengths)
    order = np.argsort(-lengths, kind="stable")
    done = 0
    while done < len(order):
        longest = int(lengths[order[done]])
        # bytes per row of a track: 33 for its padded direction, flag and
        # column index, and 9 per pair for the float64 cosine and its mask
        rows = order[done : done + max(1, MAP_BLOCK_BYTES // (longest * (9 * longest + 33)))]
        step = max(1, (MAP_BLOCK_BYTES - 33 * longest) // (9 * longest))
        first[rows], second[rows] = _block_pairs(dirs, starts[rows], lengths[rows], longest, step)
        done += len(rows)
    return dirs[starts + first], dirs[starts + second]


def _block_pairs(dirs, starts, lengths, longest: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) of each track of one block of _extreme_pairs, in chunks of
    `step` rows; its own function, so that the block's buffers are freed
    before the next block is padded."""
    col = np.arange(longest)
    valid = col < lengths[:, None]
    padded = np.zeros((len(starts), longest, 3))
    padded[valid] = dirs[(starts[:, None] + col)[valid]]
    buffer = np.empty((len(starts), min(step, longest), longest))  # one chunk's cosines
    best = np.full(len(starts), np.inf)
    first, second = np.zeros_like(starts), np.zeros_like(starts)
    for top in range(0, longest - 1, step):
        chunk = padded[:, top : top + step]
        cosines = np.matmul(chunk, padded.transpose(0, 2, 1), out=buffer[:, : chunk.shape[1]])
        np.copyto(cosines, np.inf, where=col <= col[top : top + step, None])
        np.copyto(cosines, np.inf, where=~valid[:, None, :])
        flat = cosines.reshape(len(starts), -1)
        k = flat.argmin(1)
        least = flat[np.arange(len(starts)), k]
        better = least < best
        best[better] = least[better]
        first[better], second[better] = top + k[better] // longest, k[better] % longest
    return first, second


def observations(model: SfmModel, rasters: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(votes, centers): the label and the camera center of each row of the
    track table, as build_semantic_map describes the vote."""
    _, image_ids, kp_idx = model.tracks.T
    votes, centers = np.empty(len(image_ids), dtype=np.int64), np.empty((len(image_ids), 3))
    by_image = np.argsort(image_ids, kind="stable")
    sorted_ids = image_ids[by_image]
    first = np.ones(len(sorted_ids), dtype=bool)  # the first entry of each observing image
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(first)
    for image_id, obs in zip(sorted_ids[starts].tolist(), np.split(by_image, starts[1:])):
        image, raster = model.images[image_id], rasters[image_id]
        last = (raster.shape[1] - 1, raster.shape[0] - 1)
        x, y = np.minimum(image.keypoints[kp_idx[obs]] + 0.5, last).astype(np.int64).T
        votes[obs] = raster[y, x]
        centers[obs] = camera_center(image.pose)
    return votes, centers


def build_semantic_map(
    model: SfmModel, rasters: dict[int, np.ndarray], class_table: ClassTable, *,
    observed: tuple[np.ndarray, np.ndarray] | None = None,
) -> SemanticMap:
    """Vote labels and compute visibility stats for every SfM point, in one
    batched pass over the model's track table.

    Each observation votes with the label of its image's (height, width)
    class-id raster at the keypoint's nearest pixel (round half up, the
    last half pixel of each axis clamped onto the last column or row).
    Void votes are discarded; the majority wins and ties break toward the
    smaller class id. A point is dropped when its winner is dynamic or all
    its votes are void, when it has fewer than two observations, when an
    observing camera center lies within 1e-9 of it, or when its two extreme
    viewing directions are antiparallel (v_mid undefined). The extreme pair
    is found by exact pairwise search, within MAP_BLOCK_BYTES of temporaries.
    observed, when given, is observations(model, rasters), gathered before.
    """
    rows = model.tracks[:, 0]
    votes, centers = observations(model, rasters) if observed is None else observed

    # (point row, label) vote counts, keyed row * 256 + label as labels are
    # bytes; each row's first after sorting by count, then label, wins
    cast = votes != class_table.void_id
    keys, counts = np.unique(rows[cast] * 256 + votes[cast], return_counts=True)
    voted, labels = np.divmod(keys, 256)
    order = np.lexsort((labels, -counts, voted))
    winner = order[np.flatnonzero(np.diff(voted[order], prepend=-1))]
    static = ~np.isin(labels[winner], list(class_table.dynamic_ids))
    point_rows, labels = voted[winner][static], labels[winner][static]
    lengths = np.bincount(rows, minlength=len(model.point_ids))[point_rows]

    entry = np.isin(rows, point_rows)
    offsets = centers[entry] - model.positions[rows[entry]]
    dists = np.linalg.norm(offsets, axis=1)
    starts = np.cumsum(lengths) - lengths
    d_lower = np.minimum.reduceat(dists, starts)
    with np.errstate(invalid="ignore"):  # a camera on its point, which is dropped
        a, b = _extreme_pairs(offsets / dists[:, None], lengths)
    theta = np.arccos(np.clip((a[:, None, :] @ b[:, :, None])[:, 0, 0], -1.0, 1.0))
    mid = a + b
    mid_norm = np.sqrt((mid[:, None, :] @ mid[:, :, None])[:, 0, 0])
    defined = (lengths >= 2) & (d_lower >= 1e-9) & (mid_norm >= 1e-12)
    point_rows = point_rows[defined]
    return SemanticMap(
        ids=model.point_ids[point_rows],
        positions=model.positions[point_rows],
        labels=labels[defined],
        d_lower=d_lower[defined],
        d_upper=np.maximum.reduceat(dists, starts)[defined],
        v_mid=mid[defined] / mid_norm[defined, None],
        theta=theta[defined],
        class_table=class_table,
    )


def map_key(
    model: SfmModel, observed: tuple[np.ndarray, np.ndarray], class_table: ClassTable
) -> str:
    """SHA-256 of what build_semantic_map reads, as parsed: the point ids,
    positions and track table, each observation's vote and camera center
    (observed, as observations returns them), the void id and the dynamic
    ids. A raster pixel that no keypoint votes on is not part of it."""
    digest = hashlib.sha256()
    ids = np.array([class_table.void_id, *sorted(class_table.dynamic_ids)], dtype=np.int64)
    for array in (model.point_ids, model.positions, model.tracks, *observed, ids):
        digest.update(f"{array.dtype.str}{array.shape}\0".encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def save_map_cache(smap: SemanticMap, path: Path, inputs_sha256: str) -> None:
    """Binary cache of the map arrays, keyed by the format version and the
    map_key of the inputs the map was built from; round-trips exactly.

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
