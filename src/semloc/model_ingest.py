"""Loaders for all on-disk inputs.

A dataset directory looks like:

    data/
      model/cameras.txt   # <camera-id> PINHOLE <w> <h> <fx> <fy> <cx> <cy>
      model/images.txt    # <image-id> qw qx qy qz tx ty tz <camera-id> <name>
                          # (<x> <y> <point3d-id>)...   (the line after each)
      model/points3D.txt  # <point-id> <x> <y> <z> <r> <g> <b> <error> (<image-id> <point2d-idx>)...
      db/<image>.labels.pgm .ldsc .gdsc            (per database image)
      queries/<query>.kpts .ldsc .gdsc .labels.pgm
      queries.txt         # <query-name> PINHOLE <w> <h> <fx> <fy> <cx> <cy>
      conditions.txt      # <image-name> day|night   (database and query images)
      classes.txt         # <id> <name> <dynamic:0|1>
      ground_truth.txt    # <query-name> qw qx qy qz tx ty tz  (optional)

The seven text files hold one keyed record a line and skip blank lines
and # comments, but for the line after an images.txt record: its keypoint
line, which may be empty (poses.txt is ground_truth.txt's form). A pattern
may end in a repeated group, `(<a> <b>)...`. A malformed line raises
ParseError "<path>:<line>: expected '<pattern>': <why>", a key (as parsed)
or an images.txt name given before "<path>:<line>: duplicate <noun> <key>",
and bytes that do not decode "<path>:<line>: <why>".

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

import json
import math
import re
import struct
from collections import Counter
from contextlib import contextmanager
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
# points3D.txt lines converted together; their tokens are all that is held at once
POINT_BLOCK_LINES = 64

# four PGM header tokens after whitespace and '#' comments; lookaheads keep each whole
_PGM_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 4)


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


def _numbered(path: Path):
    """("<path>:<line>", stripped line) of each line of path; bytes that do
    not decode raise ParseError "<path>:<line>: <why>", which gives their
    offset in the file."""
    with open(path, "r") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield f"{path}:{lineno}", line.strip()
        except UnicodeDecodeError:
            # text decodes a chunk at a time, and the error's position is
            # in its chunk: decode the whole file again to place the byte
            raw = Path(path).read_bytes()
            try:
                raw.decode(fh.encoding)
            except UnicodeDecodeError as exc:
                lineno = len((raw[: exc.start] + b".").splitlines())
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            raise


def _is_data(line: str) -> bool:
    """The text inputs' data-line rule: a stripped line, not blank or a # comment."""
    return line[:1] not in ("", "#")


@contextmanager
def _expected(where: str, fields: str, parts: list[str]):
    """Guard the block that converts `parts`, a line's tokens, of the pattern
    `fields`, which may end in a repeated group: a count that does not fit,
    a ValueError or an OverflowError raise "<where>: expected '<fields>': <why>"."""
    fixed, _, group = fields.partition("(")
    extra, size = len(parts) - len(fixed.split()), len(group.split())
    try:
        if extra < 0 or (extra % size if size else extra):
            raise ValueError(f"got {len(parts)} fields")
        yield
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected '{fields}': {exc}") from exc


def _records(lines, fields: str, noun: str, key, parse, model: str | None = None) -> dict:
    """key(first field) -> parse(where, key, *other fields) of each data
    line of `lines`, _numbered pairs, in file order, with the faults of the
    module docstring; a line whose second field is not `model`, when given,
    is an unsupported camera model."""
    records: dict = {}
    for where, line in lines:
        if not _is_data(line):
            continue
        parts = line.split()
        if model is not None and len(parts) > 1 and parts[1] != model:
            raise ParseError(f"{where}: unsupported camera model {parts[1]!r}")
        with _expected(where, fields, parts):
            record_key = key(parts[0])
            if record_key in records:
                raise ParseError(f"{where}: duplicate {noun} {record_key}")
            records[record_key] = parse(where, record_key, *parts[1:])
    return records


def _choice(value: str, choices: str) -> str:
    """value, when it is one of the |-separated choices."""
    if value not in choices.split("|"):
        raise ValueError(f"{value!r} is not {choices}")
    return value


def _require_finite(where, what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ParseError(f"{where}: non-finite {what}")


def _int64(token: str) -> int:
    """int(token), an id that must fit the model's int64 id arrays."""
    value = int(token)
    if not -(1 << 63) <= value < 1 << 63:
        raise ValueError("id out of the int64 range")
    return value


def _pose(where: str, values: list[float]) -> PoseEstimate:
    """The pose of qw qx qy qz tx ty tz, checked finite (a zero quaternion is not)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        pose = PoseEstimate.from_quaternion(np.array(values[:4]), np.array(values[4:]))
    _require_finite(where, "pose", pose.rotation, pose.translation)
    return pose


def _pinhole_records(path: Path, key_field: str, noun: str, key) -> dict:
    """The cameras of cameras.txt or queries.txt by key, finite, with a
    positive focal length and the principal point inside the frame."""

    def parse(where, _, model, width, height, *params):
        width, height = int(width), int(height)
        fx, fy, cx, cy = params = [float(v) for v in params]
        _require_finite(where, "intrinsics", params)
        if not (fx > 0 and fy > 0 and 0 < cx < width and 0 < cy < height):
            raise ParseError(f"{where}: intrinsics out of range")
        return CameraIntrinsics(fx, fy, cx, cy, width, height)

    fields = f"{key_field} PINHOLE <w> <h> <fx> <fy> <cx> <cy>"
    return _records(_numbered(path), fields, noun, key, parse, model="PINHOLE")


def _in_frame(kps: np.ndarray, cam: CameraIntrinsics) -> bool:
    """True when every (x, y) row lies in [0, width) x [0, height)."""
    x, y = kps[:, 0], kps[:, 1]
    return bool(np.all((x >= 0) & (x < cam.width) & (y >= 0) & (y < cam.height)))


def load_cameras(path: Path) -> dict[int, CameraIntrinsics]:
    return _pinhole_records(path, "<camera-id>", "camera id", int)


def load_images(path: Path) -> dict[int, DbImageRecord]:
    """The images of images.txt by id: each header line's, with the
    keypoints of the line after it, which may be empty."""
    lines = _numbered(path)
    names: set[str] = set()

    def parse(where, image_id, *values):
        *pose, camera_id, name = values
        camera_id, pose = int(camera_id), _pose(where, [float(v) for v in pose])
        if name in names:
            raise ParseError(f"{where}: duplicate image name {name}")
        names.add(name)
        kp_where, line = next(lines, (None, None))
        if line is None:
            raise ParseError(f"{where}: missing keypoint line for image id {image_id}")
        parts = line.split()
        with _expected(kp_where, "(<x> <y> <point3d-id>)...", parts):
            # numpy converts each token with float() and int(), and keeps their errors
            kps = np.array(parts, dtype=float).reshape(-1, 3)[:, :2]
            ids = np.array(parts[2::3], dtype=np.int64)
        _require_finite(kp_where, "keypoint", kps)
        return DbImageRecord(name, camera_id, pose, kps, ids)

    fields = "<image-id> qw qx qy qz tx ty tz <camera-id> <name>"
    return _records(lines, fields, "image id", _int64, parse)


def load_points(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(point_ids, positions, tracks) of points3D.txt, in SfmModel's layout.

    Each block of POINT_BLOCK_LINES data lines converts with one numpy call
    per kind of value; a file with a fault goes through the line loop,
    which names its first faulty line."""
    # track lengths in tokens, point ids, positions, track entries
    blocks = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int64))]
    try:
        with open(path, "r") as fh:
            lines = [s for s in map(str.strip, fh) if _is_data(s)]
        for start in range(0, len(lines), POINT_BLOCK_LINES):
            rows = [line.split() for line in lines[start : start + POINT_BLOCK_LINES]]
            # numpy converts each token with int() or float(), as the line loop does
            blocks.append((
                np.array([len(row) - 8 for row in rows], dtype=np.int64),
                np.array([row[0] for row in rows], dtype=np.int64),
                np.array([v for row in rows for v in row[1:4]], dtype=float),
                np.array([v for row in rows for v in row[8:]], dtype=np.int64),
            ))
    except (ValueError, OverflowError):  # UnicodeDecodeError included
        return _load_points_by_line(path)
    lengths, point_ids, positions, entries = map(np.concatenate, zip(*blocks))
    unique = np.sort(point_ids)
    if (
        np.all((lengths >= 4) & (lengths % 2 == 0))  # a position and at least two views
        and np.isfinite(positions).all()
        and np.all(point_ids != NO_POINT)
        and np.all(unique[1:] != unique[:-1])
    ):
        return _track_table(point_ids, positions.reshape(-1, 3), lengths // 2, entries)
    return _load_points_by_line(path)


def _load_points_by_line(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """load_points one line at a time, raising at the first faulty line."""

    def parse(where, point_id, *values):
        if point_id == NO_POINT:
            raise ValueError("id -1 marks untracked keypoints")
        # numpy converts as the block path does: with float() and int()
        position, track = np.array(values[:3], dtype=float), np.array(values[7:], dtype=np.int64)
        _require_finite(where, "point position", position)
        if len(track) < 4:
            raise ConsistencyError(f"{where}: point {point_id} tracked in < 2 views")
        return position, track

    fields = "<point-id> <x> <y> <z> <r> <g> <b> <error> (<image-id> <point2d-idx>)..."
    points = _records(_numbered(path), fields, "point id", _int64, parse)
    positions, tracks = zip(*points.values()) if points else ((), ())
    return _track_table(
        np.array(list(points), dtype=np.int64),
        np.array(positions).reshape(-1, 3),
        [len(track) // 2 for track in tracks],
        np.concatenate([np.zeros(0, np.int64), *tracks]),
    )


def _track_table(point_ids, positions, lengths, entries):
    """(point_ids, positions, tracks) sorted by id, from the points in file
    order, their track lengths and the flat (image id, keypoint) entries."""
    order = np.argsort(point_ids)
    owners = np.repeat(point_ids, lengths)
    tracks = np.column_stack((owners, entries.reshape(-1, 2)))
    tracks = tracks[np.argsort(owners, kind="stable")]
    tracks[:, 0] = np.searchsorted(point_ids[order], tracks[:, 0])
    return point_ids[order], positions[order], tracks


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
    header = _PGM_HEADER.match(raw)
    if header is None or header[1] != b"P5":
        raise ParseError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header: {exc}") from exc
    if maxval != 255:
        raise ParseError(f"{path}: PGM maxval must be 255, got {maxval}")
    pos = header.end() + 1  # single whitespace byte after maxval
    data = memoryview(raw)[pos : pos + width * height]  # a view, not a copy
    if len(data) < width * height:
        raise TruncatedFile(f"{path}: expected {width * height} pixels, got {len(data)}")
    if len(raw) > pos + width * height:
        raise ParseError(f"{path}: {len(raw) - pos - width * height} trailing bytes")
    if (width, height) != tuple(expected_dims):
        raise DimMismatch(
            f"{path}: raster is {width}x{height}, expected {expected_dims[0]}x{expected_dims[1]}"
        )
    labels = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    n, void = len(class_table.names), class_table.void_id
    # read as int8, void 255 is -1, next to the class ids 0..n-1: a min and
    # a max with no temporaries clear a raster of class ids and void 255
    signed = labels.view(np.int8)
    if not (signed.max(initial=0) < n and signed.min(initial=0) >= (-1 if void == 255 else 0)):
        bad = labels[(labels >= n) & (labels != void)]  # in row-major order
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
    entries = _records(
        _numbered(path), "<id> <name> <dynamic:0|1>", "class id", int,
        lambda where, _, name, dynamic: (where, name, _choice(dynamic, "0|1") == "1"),
    )
    # n distinct ids are 0..n-1 when none lies outside that range
    stray = [entries[i][0] for i in entries if not 0 <= i < len(entries)]
    if stray:
        raise ParseError(f"{stray[0]}: class ids must be contiguous from 0")
    names = tuple(entries[i][1] for i in sorted(entries))
    return ClassTable(names=names, dynamic_ids=frozenset(i for i in entries if entries[i][2]))


def load_conditions(path: Path) -> dict[str, str]:
    return _records(
        _numbered(path), "<image-name> day|night", "image name", str,
        lambda where, _, condition: _choice(condition, "day|night"),
    )


def load_query_cameras(path: Path) -> dict[str, CameraIntrinsics]:
    return _pinhole_records(path, "<query-name>", "query name", str)


def load_ground_truth(path: Path) -> dict[str, PoseEstimate]:
    return _records(
        _numbered(path), "<query-name> qw qx qy qz tx ty tz", "query name", str,
        lambda where, _, *values: _pose(where, [float(v) for v in values]),
    )


def pose_values(pose: PoseEstimate) -> list[float]:
    """qw qx qy qz tx ty tz, as pose lines and report.json hold a pose."""
    return [float(v) for v in (*pose.quaternion(), *pose.translation)]


def pose_fields(pose: PoseEstimate) -> str:
    """The pose of a pose line or an images.txt line: pose_values by repr."""
    return " ".join(map(repr, pose_values(pose)))


def write_poses(path: Path, poses: dict[str, PoseEstimate]) -> None:
    """The lines load_ground_truth reads, `<name> qw qx qy qz tx ty tz`, by name."""
    path.write_text("".join(f"{name} {pose_fields(poses[name])}\n" for name in sorted(poses)))


def write_json(path: Path, payload) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    conditions = _read(report, "conditions.txt", root / "conditions.txt", load_conditions)
    # a conditions.txt that failed is one finding, not also one per image
    tags_known = conditions is not None
    conditions = conditions or {}
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
        if tags_known and name not in conditions:
            report.add(f"{name}: missing condition tag")
        return kps, descs, gdesc, raster

    db_rasters, db_descriptors, db_global = {}, {}, {}
    for image_id, image in sorted(model.images.items()):
        cam = model.cameras[image.camera_id]
        _, db_descriptors[image_id], db_global[image_id], db_rasters[image_id] = read_image(
            root / DB_SUBDIR, image.name, cam, image.keypoints
        )
    query_cams = _read(report, "queries.txt", root / "queries.txt", load_query_cameras)
    # a queries.txt that failed is one finding, not also one per query's tag
    queries_known = query_cams is not None
    query_cams = query_cams or {}
    queries = [
        QueryRecord(name, cam, *read_image(root / QUERY_SUBDIR, name, cam, None), conditions.get(name))
        for name, cam in sorted(query_cams.items())
    ]
    # conditions.txt, like the findings, keys both kinds of image by name
    db_names = {image.name for image in model.images.values()}
    for name in sorted(query_cams.keys() & db_names):
        report.add(f"{name}: names both a query and a database image")
    if queries_known:
        for name in sorted(conditions.keys() - db_names - query_cams.keys()):
            report.add(f"{name}: condition tag names no database image or query")

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
