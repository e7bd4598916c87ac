"""Loaders for all on-disk inputs.

A dataset directory looks like:

    data/
      model/cameras.txt images.txt points3D.txt   (COLMAP text, PINHOLE only)
      db/<image>.labels.pgm .ldsc .gdsc            (per database image)
      queries/<query>.kpts .ldsc .gdsc .labels.pgm
      queries.txt        # <query-name> PINHOLE <w> <h> <fx> <fy> <cx> <cy>
      conditions.txt     # <image-name> day|night   (database and query images)
      classes.txt        # <id> <name> <dynamic:0|1>
      ground_truth.txt   # <query-name> qw qx qy qz tx ty tz  (optional)

Label rasters are 8-bit binary PGM (P5) holding class ids in the Cityscapes
train-id convention, void = 255. Binary sidecar formats are little-endian:
.ldsc = "LDSC" u32-count u32-dim f32[count*dim]; .kpts = "KPTS" u32-count
f32[count*2]; .gdsc = "GDSC" u32-dim f32[dim].

The SfM model's points load as a track table (see SfmModel), which is
checked against the images' keypoint links in array form.

Nothing here repairs data silently except the unit renormalization of
global descriptors; every other deviation, a non-finite number included,
raises or lands in the validation report.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadMagic,
    ConsistencyError,
    DimMismatch,
    InvalidDataset,
    ParseError,
    TruncatedFile,
    UnknownLabel,
)
from .geometry import CameraIntrinsics, PoseEstimate

VOID_ID = 255
NO_POINT = -1

DB_SUBDIR = "db"
QUERY_SUBDIR = "queries"
MODEL_SUBDIR = "model"


@dataclass(frozen=True)
class ClassTable:
    """Semantic class catalogue: index = class id."""

    names: tuple[str, ...]
    dynamic_ids: frozenset[int]
    void_id: int = VOID_ID

    def is_dynamic(self, label: int) -> bool:
        return label in self.dynamic_ids


@dataclass(frozen=True, eq=False)
class DescriptorSet:
    """Per-keypoint local descriptors, row i belongs to keypoint i."""

    dim: int
    data: np.ndarray  # (rows, dim) float32

    @property
    def rows(self) -> int:
        return self.data.shape[0]


@dataclass(eq=False)
class DbImageRecord:
    name: str
    camera_id: int
    pose: PoseEstimate
    keypoints: np.ndarray  # (n, 2) float64 pixels
    point3d_ids: np.ndarray  # (n,) int64, NO_POINT when untracked


@dataclass(eq=False)
class SfmModel:
    """A COLMAP model whose points form a track table: point row r has id
    point_ids[r], position positions[r] and the observations in the rows of
    `tracks` whose first column is r, grouped by row, each in file order."""

    cameras: dict[int, CameraIntrinsics]
    images: dict[int, DbImageRecord]
    point_ids: np.ndarray  # (n,) int64, strictly increasing
    positions: np.ndarray  # (n, 3) float64, world frame
    tracks: np.ndarray  # (m, 3) int64 rows of (point row, image id, keypoint index)


@dataclass(eq=False)
class QueryRecord:
    name: str
    camera: CameraIntrinsics
    keypoints: np.ndarray  # (n, 2) float64
    descriptors: DescriptorSet
    global_desc: np.ndarray  # (dim,) float32, unit L2 norm
    labels: np.ndarray  # (height, width) uint8 class ids
    condition: str | None = None


@dataclass(eq=False)
class Dataset:
    """Everything a localization run needs, fully loaded and immutable: the
    in-memory form of a bundle, which synth.write_dataset writes back."""

    root: Path
    model: SfmModel
    class_table: ClassTable
    conditions: dict[str, str]
    db_rasters: dict[int, np.ndarray]  # (height, width) uint8 class ids
    db_descriptors: dict[int, DescriptorSet]
    db_global: dict[int, np.ndarray]  # (dim,) float32, unit L2 norm
    queries: list[QueryRecord]


@dataclass
class ValidationReport:
    findings: list[str] = field(default_factory=list)
    dataset: Dataset | None = None  # the loaded dataset, when there are no findings

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, finding: str) -> None:
        self.findings.append(finding)


def _data_lines(path: Path):
    """Yield (line_number, stripped_line) skipping blanks and # comments."""
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped


def _require_finite(where, what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParseError(f"{where}: non-finite {what}")


def _pinhole(where: str, width: int, height: int, params) -> CameraIntrinsics:
    fx, fy, cx, cy = params
    _require_finite(where, "intrinsics", params)
    if not (fx > 0 and fy > 0 and 0 < cx < width and 0 < cy < height):
        raise ParseError(f"{where}: intrinsics out of range")
    return CameraIntrinsics(fx, fy, cx, cy, width, height)


def _in_frame(kps: np.ndarray, cam: CameraIntrinsics) -> bool:
    """True when every (x, y) row lies in [0, width) x [0, height)."""
    x, y = kps[:, 0], kps[:, 1]
    return bool(np.all((x >= 0) & (x < cam.width) & (y >= 0) & (y < cam.height)))


def load_cameras(path: Path) -> dict[int, CameraIntrinsics]:
    cameras: dict[int, CameraIntrinsics] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        try:
            cam_id = int(parts[0])
            model = parts[1]
            width, height = int(parts[2]), int(parts[3])
            params = [float(p) for p in parts[4:]]
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: bad camera line: {exc}") from exc
        if model != "PINHOLE":
            raise ParseError(f"{path}:{lineno}: unsupported camera model {model!r}")
        if len(params) != 4:
            raise ParseError(f"{path}:{lineno}: PINHOLE needs 4 params, got {len(params)}")
        if cam_id in cameras:
            raise ParseError(f"{path}:{lineno}: duplicate camera id {cam_id}")
        cameras[cam_id] = _pinhole(f"{path}:{lineno}", width, height, params)
    return cameras


def load_images(path: Path) -> dict[int, DbImageRecord]:
    images: dict[int, DbImageRecord] = {}
    pending = None  # header parsed, observation line expected next
    with open(path, "r") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if pending is None:
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 10:
                    raise ParseError(
                        f"{path}:{lineno}: image header needs 10 fields, got {len(parts)}"
                    )
                try:
                    image_id = int(parts[0])
                    q = np.array([float(v) for v in parts[1:5]])
                    t = np.array([float(v) for v in parts[5:8]])
                    camera_id = int(parts[8])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad image header: {exc}") from exc
                name = parts[9]
                if image_id in images:
                    raise ParseError(f"{path}:{lineno}: duplicate image id {image_id}")
                with np.errstate(invalid="ignore", divide="ignore"):
                    pose = PoseEstimate.from_quaternion(q, t)
                _require_finite(f"{path}:{lineno}", "pose", pose.rotation, pose.translation)
                pending = (image_id, name, camera_id, pose)
            else:
                # the observation line follows its header and may be empty
                parts = line.split()
                if len(parts) % 3 != 0:
                    raise ParseError(f"{path}:{lineno}: keypoint line length not a multiple of 3")
                n = len(parts) // 3
                try:
                    kps = np.array([float(v) for v in parts], dtype=float).reshape(n, 3)[:, :2]
                    ids = np.array([int(parts[3 * i + 2]) for i in range(n)], dtype=np.int64)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad keypoint line: {exc}") from exc
                _require_finite(f"{path}:{lineno}", "keypoint", kps)
                image_id, name, camera_id, pose = pending
                images[image_id] = DbImageRecord(name, camera_id, pose, kps, ids)
                pending = None
    if pending is not None:
        raise ParseError(f"{path}: missing keypoint line for image id {pending[0]}")
    return images


def load_points(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point_ids, positions, tracks) of points3D.txt, in SfmModel's layout."""
    positions: dict[int, list[float]] = {}  # by point id, in file order
    lengths, entries = [], []
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) < 8 or (len(parts) - 8) % 2 != 0:
            raise ParseError(f"{path}:{lineno}: bad point3D line length {len(parts)}")
        try:
            point_id = int(parts[0])
            position = [float(v) for v in parts[1:4]]
            track = [int(v) for v in parts[8:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad point3D line: {exc}") from exc
        _require_finite(f"{path}:{lineno}", "point position", position)
        if point_id in positions:
            raise ParseError(f"{path}:{lineno}: duplicate point id {point_id}")
        if len(track) < 4:
            raise ConsistencyError(f"{path}:{lineno}: point {point_id} tracked in < 2 views")
        positions[point_id] = position
        lengths.append(len(track) // 2)
        entries += track
    point_ids = np.array(list(positions), dtype=np.int64)
    order = np.argsort(point_ids)
    owners = np.repeat(point_ids, lengths)
    tracks = np.column_stack((owners, np.array(entries, dtype=np.int64).reshape(-1, 2)))
    tracks = tracks[np.argsort(owners, kind="stable")]
    tracks[:, 0] = np.searchsorted(point_ids[order], tracks[:, 0])
    return point_ids[order], np.array(list(positions.values())).reshape(-1, 3)[order], tracks


def id_rows(sorted_ids: np.ndarray, ids) -> np.ndarray:
    """Row of each id in the strictly increasing sorted_ids, -1 where absent."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = np.searchsorted(sorted_ids, ids)
    found = rows < len(sorted_ids)
    found[found] = sorted_ids[rows[found]] == ids[found]
    return np.where(found, rows, -1)


def _check_model_consistency(model: SfmModel) -> None:
    image_ids = np.array(sorted(model.images), dtype=np.int64)
    images = [model.images[image_id] for image_id in image_ids.tolist()]
    for image_id, image in zip(image_ids.tolist(), images):
        cam = model.cameras.get(image.camera_id)
        if cam is None:
            raise ConsistencyError(f"image {image_id} references missing camera {image.camera_id}")
        if len(image.keypoints) != len(image.point3d_ids):
            raise ConsistencyError(f"image {image_id}: keypoint/point3d_id length mismatch")
        if not _in_frame(image.keypoints, cam):
            raise ConsistencyError(f"image {image_id} has keypoints outside the frame")

    # every keypoint of every image in ascending image id order, then a
    # NO_POINT sentinel for the track entries that name no keypoint
    counts = np.array([len(image.point3d_ids) for image in images], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    linked = np.concatenate([*(image.point3d_ids for image in images), [NO_POINT]])
    rows, track_images, track_kps = model.tracks.T
    slot = id_rows(image_ids, track_images)
    in_range = (slot >= 0) & (track_kps >= 0) & (track_kps < np.append(counts, 0)[slot])
    keypoint = np.where(in_range, np.append(starts, 0)[slot] + track_kps, len(linked) - 1)
    symmetric = in_range & (linked[keypoint] == model.point_ids[rows])
    listed = np.bincount(keypoint[symmetric], minlength=len(linked))
    linked_rows = id_rows(model.point_ids, linked)
    bad = (linked != NO_POINT) & ((linked_rows < 0) | (listed == 0))
    if bad.any():
        k = np.argmax(bad)
        i = np.searchsorted(starts, k, side="right") - 1
        where, pid = f"image {image_ids[i]} keypoint {k - starts[i]}", linked[k]
        if linked_rows[k] < 0:
            raise ConsistencyError(f"{where} references missing point {pid}")
        raise ConsistencyError(
            f"asymmetric track: {where} links to point {pid}, whose track omits it"
        )
    if not symmetric.all():
        e = np.argmin(symmetric)
        point, image_id, kp_idx = f"point {model.point_ids[rows[e]]}", track_images[e], track_kps[e]
        if slot[e] < 0:
            raise ConsistencyError(f"{point} track references missing image {image_id}")
        if not in_range[e]:
            raise ConsistencyError(
                f"{point} track references keypoint {kp_idx} out of range for image {image_id}"
            )
        raise ConsistencyError(
            f"asymmetric track: {point} claims image {image_id} keypoint {kp_idx}, "
            f"which links to {linked[keypoint[e]]}"
        )
    # every entry is symmetric now: a keypoint listed twice is listed twice
    # by its own point's track
    if listed.max(initial=0) > 1:
        e = np.argmax(keypoint == np.argmax(listed > 1))
        raise ConsistencyError(
            f"point {model.point_ids[rows[e]]} track lists image {track_images[e]} "
            f"keypoint {track_kps[e]} twice"
        )


def load_sfm_model(model_dir: Path) -> SfmModel:
    """Parse and cross-check the three COLMAP-format text files."""
    model_dir = Path(model_dir)
    model = SfmModel(
        load_cameras(model_dir / "cameras.txt"),
        load_images(model_dir / "images.txt"),
        *load_points(model_dir / "points3D.txt"),
    )
    _check_model_consistency(model)
    return model


def load_label_raster(
    path: Path, expected_dims: tuple[int, int], class_table: ClassTable
) -> np.ndarray:
    """Read a P5 PGM of class ids as a (height, width) uint8 array;
    expected_dims is (width, height)."""
    raw = Path(path).read_bytes()
    tokens: list[bytes] = []
    pos = 0
    while len(tokens) < 4 and pos < len(raw):
        # PGM header tokens are whitespace separated, '#' starts a comment
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header: {exc}") from exc
    if maxval != 255:
        raise ParseError(f"{path}: PGM maxval must be 255, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    data = raw[pos : pos + width * height]
    if len(data) < width * height:
        raise TruncatedFile(f"{path}: expected {width * height} pixels, got {len(data)}")
    if (width, height) != tuple(expected_dims):
        raise DimMismatch(
            f"{path}: raster is {width}x{height}, expected {expected_dims[0]}x{expected_dims[1]}"
        )
    labels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    bad = labels[(labels >= len(class_table.names)) & (labels != class_table.void_id)]
    if bad.size:
        raise UnknownLabel(f"{path}: label id {int(bad[0])} outside the class table")
    return labels


def _read_sidecar(
    path: Path, magic: bytes, header_fields: int, floats_per_count: int = 1
) -> tuple[tuple[int, ...], np.ndarray]:
    """Header fields and f32 payload of a binary sidecar, whose payload
    holds the product of the header fields times floats_per_count floats."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != magic:
        raise BadMagic(f"{path}: expected magic {magic!r}")
    header_size = 4 + 4 * header_fields
    if len(raw) < header_size:
        raise TruncatedFile(f"{path}: header truncated")
    header = struct.unpack(f"<{header_fields}I", raw[4:header_size])
    payload = raw[header_size:]
    expected = math.prod(header) * floats_per_count
    if len(payload) < 4 * expected:
        raise TruncatedFile(f"{path}: expected {expected} floats, payload holds {len(payload) // 4}")
    if len(payload) > 4 * expected:
        raise ParseError(f"{path}: {len(payload) - 4 * expected} trailing bytes")
    values = np.frombuffer(payload, dtype="<f4")
    _require_finite(path, "value", values)
    return header, values


def load_descriptors(path: Path) -> DescriptorSet:
    (count, dim), values = _read_sidecar(path, b"LDSC", 2)
    return DescriptorSet(dim=dim, data=values.reshape(count, dim))


def load_keypoints(path: Path) -> np.ndarray:
    (count,), values = _read_sidecar(path, b"KPTS", 1, floats_per_count=2)
    return values.reshape(count, 2).astype(np.float64)


def load_global_descriptor(path: Path) -> np.ndarray:
    """The (dim,) float32 descriptor, renormalized to unit L2 norm."""
    _, values = _read_sidecar(path, b"GDSC", 1)
    values = values.astype(np.float64)
    norm = np.linalg.norm(values)
    if norm < 1e-12:
        raise ParseError(f"{path}: zero-norm global descriptor")
    return (values / norm).astype(np.float32)


def load_class_table(path: Path) -> ClassTable:
    entries: dict[int, tuple[str, bool]] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3 or parts[2] not in ("0", "1"):
            raise ParseError(f"{path}:{lineno}: expected '<id> <name> <0|1>'")
        try:
            class_id = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad class id") from exc
        if class_id in entries:
            raise ParseError(f"{path}:{lineno}: duplicate class id {class_id}")
        entries[class_id] = (parts[1], parts[2] == "1")
    if sorted(entries) != list(range(len(entries))):
        raise ParseError(f"{path}: class ids must be contiguous from 0")
    names = tuple(entries[i][0] for i in range(len(entries)))
    dynamic = frozenset(i for i in range(len(entries)) if entries[i][1])
    return ClassTable(names=names, dynamic_ids=dynamic)


def load_conditions(path: Path) -> dict[str, str]:
    conditions: dict[str, str] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2 or parts[1] not in ("day", "night"):
            raise ParseError(f"{path}:{lineno}: expected '<image-name> day|night'")
        conditions[parts[0]] = parts[1]
    return conditions


def load_query_cameras(path: Path) -> dict[str, CameraIntrinsics]:
    cameras: dict[str, CameraIntrinsics] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 8 or parts[1] != "PINHOLE":
            raise ParseError(f"{path}:{lineno}: expected '<name> PINHOLE w h fx fy cx cy'")
        try:
            width, height = int(parts[2]), int(parts[3])
            params = [float(v) for v in parts[4:8]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad query camera line: {exc}") from exc
        cameras[parts[0]] = _pinhole(f"{path}:{lineno}", width, height, params)
    return cameras


def load_ground_truth(path: Path) -> dict[str, PoseEstimate]:
    poses: dict[str, PoseEstimate] = {}
    for lineno, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"{path}:{lineno}: expected '<name> qw qx qy qz tx ty tz'")
        try:
            vals = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad pose line: {exc}") from exc
        poses[parts[0]] = PoseEstimate.from_quaternion(np.array(vals[:4]), np.array(vals[4:]))
    return poses


def _read(report: ValidationReport, label: str, path: Path, loader, missing: str | None = None):
    """loader(path), or None once the report holds why not: a missing file
    as "<label>: missing <missing>" when `missing` names it, and anything
    the loader raises as "<label>: <error>"."""
    if missing is not None and not path.exists():
        report.add(f"{label}: missing {missing}")
        return None
    try:
        return loader(path)
    except Exception as exc:
        report.add(f"{label}: {exc}")
        return None


def validate_dataset(root: Path) -> ValidationReport:
    """Read a dataset directory once, check it end to end and report every
    finding; with none, the report carries the loaded Dataset.

    The walk stops early only when the model or classes.txt cannot be read.
    """
    root = Path(root)
    report = ValidationReport()
    model = _read(report, "model", root / MODEL_SUBDIR, load_sfm_model)
    if model is None:
        return report
    class_table = _read(report, "classes.txt", root / "classes.txt", load_class_table)
    if class_table is None:
        return report
    conditions = _read(report, "conditions.txt", root / "conditions.txt", load_conditions) or {}
    local_dims: dict[str, int] = {}
    global_dims: dict[str, int] = {}

    def read_image(directory: Path, name: str, cam: CameraIntrinsics, kps: np.ndarray | None):
        """(keypoints, descriptors, global descriptor, raster) of one image,
        in QueryRecord's field order, None where missing or bad; kps None
        reads a query's .kpts file."""
        if kps is None:
            kps = _read(report, name, directory / f"{name}.kpts", load_keypoints, "keypoints")
            if kps is not None and not _in_frame(kps, cam):
                report.add(f"{name}: keypoints outside the frame")
        descs = _read(report, name, directory / f"{name}.ldsc", load_descriptors, "local descriptors")
        if descs is not None:
            local_dims[name] = descs.dim
            if kps is not None and descs.rows != len(kps):
                report.add(f"{name}: {descs.rows} descriptors for {len(kps)} keypoints")
        gdesc = _read(report, name, directory / f"{name}.gdsc", load_global_descriptor,
                      "global descriptor")
        if gdesc is not None:
            global_dims[name] = len(gdesc)
        raster = _read(
            report, name, directory / f"{name}.labels.pgm",
            lambda path: load_label_raster(path, (cam.width, cam.height), class_table),
            "label raster",
        )
        if name not in conditions:
            report.add(f"{name}: missing condition tag")
        return kps, descs, gdesc, raster

    db_rasters, db_descriptors, db_global = {}, {}, {}
    for image_id, image in sorted(model.images.items()):
        cam = model.cameras[image.camera_id]
        _, db_descriptors[image_id], db_global[image_id], db_rasters[image_id] = read_image(
            root / DB_SUBDIR, image.name, cam, image.keypoints
        )
    query_cams = _read(report, "queries.txt", root / "queries.txt", load_query_cameras) or {}
    queries = [
        QueryRecord(name, cam, *read_image(root / QUERY_SUBDIR, name, cam, None), conditions.get(name))
        for name, cam in sorted(query_cams.items())
    ]

    for dims, kind in ((local_dims, "local"), (global_dims, "global")):
        counts = Counter(dims.values())
        if len(counts) > 1:
            majority = min(counts, key=lambda d: (-counts[d], d))
            for name in sorted(dims):
                if dims[name] != majority:
                    report.add(f"{name}: {kind} descriptor dim {dims[name]} != majority {majority}")

    if report.ok:
        report.dataset = Dataset(
            root, model, class_table, conditions, db_rasters, db_descriptors, db_global, queries
        )
    return report


def load_dataset(root: Path) -> Dataset:
    """The dataset validate_dataset loads; raises InvalidDataset listing
    every finding when there are any."""
    report = validate_dataset(root)
    if report.dataset is None:
        raise InvalidDataset(f"{root}: " + "; ".join(report.findings))
    return report.dataset
