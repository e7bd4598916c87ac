"""Synthetic dataset generation with exact ground truth, plus controlled
corruption channels.

Scenes are a box of labeled 3D points watched by cameras on an arc of a
ring. Every database observation is an exact projection (plus optional
Gaussian pixel noise), every point owns a base descriptor that all its
observations perturb slightly, and global descriptors encode camera
position so that ring neighbors retrieve first. Label rasters are rendered
by splatting visible points as 3-px disks over a void background, with
each observation's own center pixel written last so raster lookups at
keypoints return the point's own label.

Corruption builds the hard cases the pipeline must survive: decoy replicas
of the scene with permuted labels that hijack retrieval, label flips and
descriptor noise on the query side, and gross keypoint outliers.

Both build a model_ingest.Dataset and write it through write_dataset, the
inverse of validate_dataset: a loaded bundle written again keeps every file
byte for byte, except the quaternions of images.txt and ground_truth.txt,
which re-derive from rotation matrices, and the .gdsc global descriptors,
which load renormalized.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import InfeasibleSpec
from .geometry import CameraIntrinsics, PoseEstimate, camera_center, project_many
from .model_ingest import (
    DB_SUBDIR,
    MODEL_SUBDIR,
    NO_POINT,
    QUERY_SUBDIR,
    VOID_ID,
    ClassTable,
    Dataset,
    DbImageRecord,
    DescriptorSet,
    QueryRecord,
    SfmModel,
    id_rows,
    load_dataset,
    load_ground_truth,
)

# Cityscapes train-id classes; the people and vehicles (11-18) are dynamic
# and must not survive into the semantic map.
CITYSCAPES = ClassTable(
    names=(
        "road", "sidewalk", "building", "wall", "fence", "pole", "traffic_light",
        "traffic_sign", "vegetation", "terrain", "sky", "person", "rider", "car",
        "truck", "bus", "train", "motorcycle", "bicycle",
    ),
    dynamic_ids=frozenset(range(11, 19)),
)

SPLAT_RADIUS = 3  # px disk radius for raster rendering
_DISK_OFFSETS = [
    (dx, dy)
    for dy in range(-SPLAT_RADIUS, SPLAT_RADIUS + 1)
    for dx in range(-SPLAT_RADIUS, SPLAT_RADIUS + 1)
    if dx * dx + dy * dy <= SPLAT_RADIUS * SPLAT_RADIUS
]


@dataclass(frozen=True)
class SceneSpec:
    n_points: int = 500
    n_db_images: int = 20
    n_queries: int = 10
    extent: float = 8.0  # scene box edge length (m), centered at the origin
    ring_radius: float = 14.0  # camera distance from the origin (m)
    arc_deg: float = 140.0  # ring arc holding cameras and queries
    descriptor_dim: int = 32
    global_dim: int = 16
    pixel_sigma: float = 0.0  # keypoint noise (px)
    octant_labels: tuple[int, ...] = (0, 1, 2, 3, 4, 5, 8, 9)  # class per box octant
    dynamic_fraction: float = 0.0  # fraction of points relabeled dynamic
    dynamic_class_id: int = 13
    night_fraction: float = 0.0  # fraction of queries tagged night
    image_width: int = 640
    image_height: int = 480
    focal: float = 520.0
    seed: int = 0


@dataclass(frozen=True)
class CorruptionSpec:
    wrong_retrieval_rate: float = 0.0  # fraction of each top-k forced to decoys
    descriptor_noise: float = 0.0  # sigma added to query local descriptors
    label_flip_rate: float = 0.0  # per-pixel flip probability, query rasters
    outlier_match_rate: float = 0.0  # fraction of query keypoints scrambled


@dataclass(eq=False)
class SceneGroundTruth:
    """In-memory record of what was generated, keyed like the files."""

    spec: SceneSpec
    root: Path
    point_positions: dict[int, np.ndarray]  # point id -> (3,)
    point_labels: dict[int, int]  # point id -> GT class
    dynamic_point_ids: set[int]
    db_names: dict[int, str]  # image id -> name
    db_poses: dict[int, PoseEstimate]
    query_names: list[str]
    query_poses: dict[str, PoseEstimate]
    query_kp_points: dict[str, np.ndarray]  # query -> point id per keypoint


def _look_at(center: np.ndarray, target: np.ndarray) -> PoseEstimate:
    forward = target - center
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(up, forward)
    if np.linalg.norm(right) < 1e-6:
        right = np.cross(np.array([0.0, 1.0, 0.0]), forward)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    return PoseEstimate(R, -R @ center)


def _octant_label(spec: SceneSpec, position: np.ndarray) -> int:
    idx = (position[0] > 0) + 2 * (position[1] > 0) + 4 * (position[2] > 0)
    return spec.octant_labels[int(idx)]


def _render_raster(
    width: int,
    height: int,
    pixels: np.ndarray,
    labels: np.ndarray,
    center_pixels: list[tuple[int, int, int]],
) -> np.ndarray:
    """Disks for every projected point, then the owned center pixels so
    each keypoint's nearest pixel carries its own point's label."""
    raster = np.full((height, width), VOID_ID, dtype=np.uint8)
    for (x, y), label in zip(pixels, labels):
        ix = int(np.floor(x + 0.5))
        iy = int(np.floor(y + 0.5))
        for dx, dy in _DISK_OFFSETS:
            px, py = ix + dx, iy + dy
            if 0 <= px < width and 0 <= py < height:
                raster[py, px] = label
    for ix, iy, label in center_pixels:
        raster[iy, ix] = label
    return raster


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def _fmt(x: float) -> str:
    return repr(float(x))


def write_pgm(path: Path, raster: np.ndarray) -> None:
    height, width = raster.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode())
        fh.write(raster.astype(np.uint8).tobytes())


def write_descriptors(path: Path, data: np.ndarray) -> None:
    rows, dim = data.shape
    with open(path, "wb") as fh:
        fh.write(b"LDSC" + struct.pack("<II", rows, dim))
        fh.write(data.astype("<f4").tobytes())


def write_keypoints(path: Path, kps: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"KPTS" + struct.pack("<I", len(kps)))
        fh.write(np.asarray(kps, dtype="<f4").tobytes())


def write_global_descriptor(path: Path, values: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(b"GDSC" + struct.pack("<I", len(values)))
        fh.write(np.asarray(values, dtype="<f4").tobytes())


def _pinhole_line(key: int | str, c: CameraIntrinsics) -> str:
    return f"{key} PINHOLE {c.width} {c.height} {_fmt(c.fx)} {_fmt(c.fy)} {_fmt(c.cx)} {_fmt(c.cy)}"


def _pose_fields(pose: PoseEstimate) -> str:
    """qw qx qy qz tx ty tz"""
    return " ".join(_fmt(v) for v in (*pose.quaternion(), *pose.translation))


def write_model(model_dir: Path, model: SfmModel) -> None:
    """cameras.txt, images.txt and points3D.txt in COLMAP text form."""
    model_dir.mkdir(parents=True, exist_ok=True)
    _write_text(
        model_dir / "cameras.txt",
        [_pinhole_line(cam_id, model.cameras[cam_id]) for cam_id in sorted(model.cameras)],
    )
    img_lines = []
    for image_id, im in sorted(model.images.items()):
        img_lines.append(f"{image_id} {_pose_fields(im.pose)} {im.camera_id} {im.name}")
        img_lines.append(
            " ".join(
                f"{_fmt(x)} {_fmt(y)} {int(pid)}"
                for (x, y), pid in zip(im.keypoints, im.point3d_ids)
            )
        )
    _write_text(model_dir / "images.txt", img_lines)
    ends = np.cumsum(np.bincount(model.tracks[:, 0], minlength=len(model.point_ids)))[:-1]
    tracks = np.split(model.tracks[:, 1:], ends)
    _write_text(
        model_dir / "points3D.txt",
        [
            f"{pid} {_fmt(x)} {_fmt(y)} {_fmt(z)} 128 128 128 0.0 "
            + " ".join(map(str, track.ravel().tolist()))
            for pid, (x, y, z), track in zip(model.point_ids.tolist(), model.positions, tracks)
        ],
    )


def _write_image(directory: Path, name: str, kps, descs: DescriptorSet, gdesc, raster) -> None:
    """The files validate_dataset reads for one image; kps None for a
    database image, whose keypoints live in the model."""
    if kps is not None:
        write_keypoints(directory / f"{name}.kpts", kps)
    write_descriptors(directory / f"{name}.ldsc", descs.data)
    write_global_descriptor(directory / f"{name}.gdsc", gdesc)
    write_pgm(directory / f"{name}.labels.pgm", raster)


def write_dataset(
    dataset: Dataset, out_dir: Path, ground_truth: dict[str, PoseEstimate] | None = None
) -> None:
    """Write `dataset` as a bundle under out_dir, the inverse of
    validate_dataset, plus ground_truth.txt when ground_truth is given."""
    out_dir = Path(out_dir)
    write_model(out_dir / MODEL_SUBDIR, dataset.model)
    (out_dir / DB_SUBDIR).mkdir(exist_ok=True)
    (out_dir / QUERY_SUBDIR).mkdir(exist_ok=True)
    for image_id, image in sorted(dataset.model.images.items()):
        _write_image(
            out_dir / DB_SUBDIR, image.name, None, dataset.db_descriptors[image_id],
            dataset.db_global[image_id], dataset.db_rasters[image_id],
        )
    for q in dataset.queries:
        _write_image(
            out_dir / QUERY_SUBDIR, q.name, q.keypoints, q.descriptors, q.global_desc, q.labels
        )
    _write_text(out_dir / "queries.txt", [_pinhole_line(q.name, q.camera) for q in dataset.queries])
    _write_text(
        out_dir / "conditions.txt",
        [f"{name} {cond}" for name, cond in sorted(dataset.conditions.items())],
    )
    table = dataset.class_table
    _write_text(
        out_dir / "classes.txt",
        [f"{cid} {name} {int(table.is_dynamic(cid))}" for cid, name in enumerate(table.names)],
    )
    if ground_truth is not None:
        _write_text(
            out_dir / "ground_truth.txt",
            [f"{name} {_pose_fields(ground_truth[name])}" for name in sorted(ground_truth)],
        )


def _position_global_descriptor(center: np.ndarray, dim: int) -> np.ndarray:
    g = np.zeros(dim, dtype=np.float64)
    g[:3] = center
    return (g / np.linalg.norm(g)).astype(np.float32)


def _validate_spec(spec: SceneSpec) -> None:
    static_ids = set(range(len(CITYSCAPES.names))) - CITYSCAPES.dynamic_ids
    if min(spec.n_points, spec.n_queries) < 1 or spec.n_db_images < 2:
        raise InfeasibleSpec("need >= 1 point and query, >= 2 database images")
    if spec.pixel_sigma < 0:
        raise InfeasibleSpec("pixel_sigma must be >= 0")
    if len(spec.octant_labels) != 8 or not set(spec.octant_labels) <= static_ids:
        raise InfeasibleSpec("octant_labels must be 8 static class ids")
    if not 0.0 <= spec.dynamic_fraction <= 1.0:
        raise InfeasibleSpec("dynamic_fraction must be in [0, 1]")
    if spec.dynamic_fraction > 0 and not CITYSCAPES.is_dynamic(spec.dynamic_class_id):
        raise InfeasibleSpec(f"class {spec.dynamic_class_id} is not dynamic")
    if not 0.0 <= spec.night_fraction <= 1.0:
        raise InfeasibleSpec("night_fraction must be in [0, 1]")
    if spec.extent <= 0 or spec.ring_radius <= spec.extent:
        raise InfeasibleSpec("ring_radius must exceed the scene extent")


def generate_scene(spec: SceneSpec, out_dir: Path) -> SceneGroundTruth:
    """Write a complete dataset bundle and return its ground truth.

    Deterministic: the same spec (including its seed) produces a
    byte-identical bundle. Raises InfeasibleSpec when a point ends up
    observed by fewer than two cameras.
    """
    _validate_spec(spec)
    rng = np.random.default_rng(spec.seed)
    out_dir = Path(out_dir)

    K = CameraIntrinsics(
        fx=spec.focal,
        fy=spec.focal,
        cx=spec.image_width / 2.0,
        cy=spec.image_height / 2.0,
        width=spec.image_width,
        height=spec.image_height,
    )

    positions = rng.uniform(-spec.extent / 2.0, spec.extent / 2.0, size=(spec.n_points, 3))
    labels = np.array([_octant_label(spec, p) for p in positions], dtype=np.int64)
    n_dynamic = int(round(spec.dynamic_fraction * spec.n_points))
    dynamic_idx = rng.choice(spec.n_points, size=n_dynamic, replace=False) if n_dynamic else []
    labels[list(dynamic_idx)] = spec.dynamic_class_id
    base_descriptors = rng.normal(size=(spec.n_points, spec.descriptor_dim))
    base_descriptors /= np.linalg.norm(base_descriptors, axis=1, keepdims=True)

    arc = math.radians(spec.arc_deg)
    db_angles = np.linspace(-arc / 2.0, arc / 2.0, spec.n_db_images)
    db_records: dict[int, DbImageRecord] = {}
    db_rasters: dict[int, np.ndarray] = {}
    db_descriptors: dict[int, DescriptorSet] = {}
    db_global: dict[int, np.ndarray] = {}
    track_blocks = []  # (point row, image id, keypoint index) per image

    def observe(pose: PoseEstimate) -> tuple[np.ndarray, np.ndarray, np.ndarray, DescriptorSet]:
        """Project all points; returns (kps, point_idx, raster, descriptors)."""
        exact, in_front = project_many(pose, K, positions)
        valid = (
            in_front
            & (exact[:, 0] >= 0)
            & (exact[:, 0] < K.width)
            & (exact[:, 1] >= 0)
            & (exact[:, 1] < K.height)
        )
        owners: dict[tuple[int, int], int] = {}
        centers: list[tuple[int, int, int]] = []
        kps, kp_points, kp_descs = [], [], []
        for idx in np.flatnonzero(valid):
            px = exact[idx]
            cell = (int(np.floor(px[0] + 0.5)), int(np.floor(px[1] + 0.5)))
            if cell in owners:
                continue
            noisy = px + rng.normal(0.0, spec.pixel_sigma, size=2) if spec.pixel_sigma else px
            if not (0 <= noisy[0] < K.width and 0 <= noisy[1] < K.height):
                continue
            owners[cell] = int(idx)
            centers.append((cell[0], cell[1], int(labels[idx])))
            kps.append(noisy)
            kp_points.append(int(idx))
            kp_descs.append(
                base_descriptors[idx] + rng.normal(0.0, 0.01, size=spec.descriptor_dim)
            )
        raster = _render_raster(K.width, K.height, exact[valid], labels[valid], centers)
        return (
            np.array(kps).reshape(-1, 2),
            np.array(kp_points, dtype=np.int64),
            raster,
            DescriptorSet(
                spec.descriptor_dim,
                np.array(kp_descs, dtype=np.float32).reshape(-1, spec.descriptor_dim),
            ),
        )

    for i, angle in enumerate(db_angles):
        image_id = i + 1
        center = np.array(
            [
                spec.ring_radius * math.cos(angle),
                spec.ring_radius * math.sin(angle),
                rng.uniform(-0.3, 0.3),
            ]
        )
        target = rng.uniform(-0.2, 0.2, size=3)
        pose = _look_at(center, target)
        kps, kp_points, db_rasters[image_id], db_descriptors[image_id] = observe(pose)
        db_records[image_id] = DbImageRecord(f"db_{i:03d}", 1, pose, kps, kp_points + 1)
        db_global[image_id] = _position_global_descriptor(camera_center(pose), spec.global_dim)
        n = len(kp_points)
        track_blocks.append(np.column_stack((kp_points, np.full(n, image_id), np.arange(n))))

    tracks = np.concatenate(track_blocks)
    tracks = tracks[np.argsort(tracks[:, 0], kind="stable")]
    starved = np.flatnonzero(np.bincount(tracks[:, 0], minlength=spec.n_points) < 2) + 1
    if len(starved):
        raise InfeasibleSpec(
            f"{len(starved)} points observed by < 2 cameras (first: point {starved[0]})"
        )

    queries: list[QueryRecord] = []
    query_poses: dict[str, PoseEstimate] = {}
    query_kp_points: dict[str, np.ndarray] = {}
    margin = arc * 0.05
    q_angles = np.linspace(-arc / 2.0 + margin, arc / 2.0 - margin, spec.n_queries)
    for i, angle in enumerate(q_angles):
        radius = spec.ring_radius * (1.0 + rng.uniform(-0.005, 0.005))
        center = np.array(
            [radius * math.cos(angle), radius * math.sin(angle), rng.uniform(-0.1, 0.1)]
        )
        pose = _look_at(center, rng.uniform(-0.2, 0.2, size=3))
        kps, kp_points, raster, descs = observe(pose)
        name = f"query_{i:03d}"
        gdesc = _position_global_descriptor(camera_center(pose), spec.global_dim)
        queries.append(QueryRecord(name, K, kps, descs, gdesc, raster))
        query_poses[name] = pose
        query_kp_points[name] = kp_points + 1

    n_night = int(round(spec.night_fraction * spec.n_queries))
    night_set = set(
        rng.choice(spec.n_queries, size=n_night, replace=False).tolist() if n_night else []
    )
    conditions = {image.name: "day" for image in db_records.values()}
    for i, query in enumerate(queries):
        query.condition = conditions[query.name] = "night" if i in night_set else "day"

    model = SfmModel({1: K}, db_records, np.arange(1, spec.n_points + 1), positions, tracks)
    dataset = Dataset(
        out_dir, model, CITYSCAPES, conditions, db_rasters, db_descriptors, db_global, queries
    )
    write_dataset(dataset, out_dir, query_poses)
    return SceneGroundTruth(
        spec=spec,
        root=out_dir,
        point_positions={i + 1: positions[i] for i in range(spec.n_points)},
        point_labels={i + 1: int(labels[i]) for i in range(spec.n_points)},
        dynamic_point_ids={int(i) + 1 for i in dynamic_idx},
        db_names={image_id: image.name for image_id, image in db_records.items()},
        db_poses={image_id: image.pose for image_id, image in db_records.items()},
        query_names=[query.name for query in queries],
        query_poses=query_poses,
        query_kp_points=query_kp_points,
    )


def _decoy_replicas(rate: float) -> int:
    """Decoy clones per source so that every top-k prefix holds the
    requested fraction of decoys: rate = d / (d + 1)."""
    d = rate / (1.0 - rate)
    if abs(d - round(d)) > 1e-9 or round(d) < 1:
        raise InfeasibleSpec(
            f"wrong_retrieval_rate {rate} not of the form d/(d+1) for integer d >= 1"
        )
    return int(round(d))


def _permute_static_labels(dataset: Dataset) -> dict[int, int]:
    """Cyclic shift among the static class ids actually present in the
    database rasters, so decoy geometry carries inconsistent labels."""
    present: set[int] = set()
    for raster in dataset.db_rasters.values():
        present.update(int(v) for v in np.unique(raster))
    static = sorted(
        lbl
        for lbl in present
        if lbl != dataset.class_table.void_id and not dataset.class_table.is_dynamic(lbl)
    )
    if len(static) < 2:
        raise InfeasibleSpec("need >= 2 static classes present to permute labels")
    return {static[i]: static[(i + 1) % len(static)] for i in range(len(static))}


def corrupt(in_dir: Path, out_dir: Path, cspec: CorruptionSpec, seed: int) -> dict:
    """Apply the corruption channels to a bundle, writing a new bundle plus
    a corruption_manifest.json recording exactly what changed.

    in_dir and out_dir may coincide: everything is loaded before writing.
    """
    for rate in (cspec.wrong_retrieval_rate, cspec.label_flip_rate, cspec.outlier_match_rate):
        if not 0.0 <= rate <= 1.0:
            raise InfeasibleSpec(f"corruption rate {rate} outside [0, 1]")
    if cspec.descriptor_noise < 0:
        raise InfeasibleSpec("descriptor_noise must be >= 0")

    in_dir, out_dir = Path(in_dir), Path(out_dir)
    dataset = load_dataset(in_dir)
    gt_path = in_dir / "ground_truth.txt"
    ground_truth = load_ground_truth(gt_path) if gt_path.exists() else None
    rng = np.random.default_rng(seed)
    manifest: dict = {"seed": seed, "spec": asdict(cspec)}

    model = dataset.model
    images, conditions = dict(model.images), dict(dataset.conditions)
    rasters, descs = dict(dataset.db_rasters), dict(dataset.db_descriptors)
    gds = dict(dataset.db_global)
    point_ids, positions, tracks = [model.point_ids], [model.positions], [model.tracks]

    if cspec.wrong_retrieval_rate > 0:
        replicas = _decoy_replicas(cspec.wrong_retrieval_rate)
        perm = _permute_static_labels(dataset)
        reach = max(float(np.linalg.norm(position)) for position in model.positions)
        for image in model.images.values():
            reach = max(reach, float(np.linalg.norm(camera_center(image.pose))))
        offset_mag = 4.0 * reach
        max_image_id, max_point_id, n = max(images), int(model.point_ids[-1]), len(model.point_ids)
        decoy_names: dict[str, str] = {}
        lut = np.arange(256, dtype=np.uint8)
        lut[list(perm)] = list(perm.values())

        # replica r clones point row j as row r * n + j, with id max_point_id * r + j + 1
        for r in range(1, replicas + 1):
            offset = np.array([r * offset_mag, 0.0, 0.0])
            point_ids.append(max_point_id * r + np.arange(1, n + 1))
            positions.append(model.positions + offset)
            for src_id, src in sorted(model.images.items()):
                decoy_id = max_image_id * r + src_id
                name = f"{src.name}_decoy{r}"
                decoy_names[name] = src.name
                rows = id_rows(model.point_ids, src.point3d_ids)
                tracked = np.flatnonzero(rows >= 0)
                block = (r * n + rows[tracked], np.full(len(tracked), decoy_id), tracked)
                tracks.append(np.column_stack(block))
                pose = PoseEstimate(
                    src.pose.rotation, src.pose.translation - src.pose.rotation @ offset
                )
                mapped = np.where(rows >= 0, max_point_id * r + rows + 1, NO_POINT)
                images[decoy_id] = DbImageRecord(name, src.camera_id, pose, src.keypoints, mapped)
                rasters[decoy_id] = lut[dataset.db_rasters[src_id]]
                descs[decoy_id] = dataset.db_descriptors[src_id]
                gds[decoy_id] = dataset.db_global[src_id]
                conditions[name] = conditions.get(src.name, "day")
        manifest["wrong_retrieval"] = {
            "replicas": replicas,
            "offset_m": offset_mag,
            "label_permutation": {str(k): v for k, v in sorted(perm.items())},
            "decoy_images": dict(sorted(decoy_names.items())),
        }
    tracks = np.concatenate(tracks)
    model = SfmModel(
        model.cameras, images, np.concatenate(point_ids), np.concatenate(positions),
        tracks[np.argsort(tracks[:, 0], kind="stable")],
    )

    flip_counts: dict[str, int] = {}
    outlier_indices: dict[str, list[int]] = {}
    queries: list[QueryRecord] = []
    n_classes = len(dataset.class_table.names)
    for query in dataset.queries:
        kps = query.keypoints.copy()
        q_descs = query.descriptors.data
        raster = query.labels
        if cspec.label_flip_rate > 0:
            flip = (rng.random(raster.shape) < cspec.label_flip_rate) & (
                raster != dataset.class_table.void_id
            )
            shifts = rng.integers(1, n_classes, size=raster.shape, dtype=np.int64)
            flipped = ((raster.astype(np.int64) + shifts) % n_classes).astype(np.uint8)
            raster = np.where(flip, flipped, raster)
            flip_counts[query.name] = int(flip.sum())
        if cspec.descriptor_noise > 0:
            q_descs = q_descs + rng.normal(0.0, cspec.descriptor_noise, size=q_descs.shape).astype(
                np.float32
            )
        if cspec.outlier_match_rate > 0 and len(kps):
            m = int(round(cspec.outlier_match_rate * len(kps)))
            idx = rng.choice(len(kps), size=m, replace=False)
            kps[idx, 0] = rng.uniform(0.0, query.camera.width - 1.0, size=m)
            kps[idx, 1] = rng.uniform(0.0, query.camera.height - 1.0, size=m)
            outlier_indices[query.name] = sorted(int(i) for i in idx)
        descriptors = DescriptorSet(query.descriptors.dim, q_descs)
        queries.append(replace(query, keypoints=kps, descriptors=descriptors, labels=raster))
    if cspec.label_flip_rate > 0:
        manifest["label_flips"] = flip_counts
    if cspec.descriptor_noise > 0:
        manifest["descriptor_noise"] = cspec.descriptor_noise
    if cspec.outlier_match_rate > 0:
        manifest["outlier_keypoints"] = outlier_indices

    write_dataset(
        Dataset(out_dir, model, dataset.class_table, conditions, rasters, descs, gds, queries),
        out_dir,
        ground_truth,
    )
    with open(out_dir / "corruption_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
