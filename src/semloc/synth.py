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
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InfeasibleSpec
from .geometry import CameraIntrinsics, PoseEstimate, project_many
from .model_ingest import (
    DB_SUBDIR,
    MODEL_SUBDIR,
    QUERY_SUBDIR,
    VOID_ID,
    DbImageRecord,
    Dataset,
    load_dataset,
    load_ground_truth,
)

# Cityscapes train-id classes; the flag marks dynamic classes that must not
# survive into the semantic map.
CITYSCAPES_CLASSES: list[tuple[int, str, int]] = [
    (0, "road", 0),
    (1, "sidewalk", 0),
    (2, "building", 0),
    (3, "wall", 0),
    (4, "fence", 0),
    (5, "pole", 0),
    (6, "traffic_light", 0),
    (7, "traffic_sign", 0),
    (8, "vegetation", 0),
    (9, "terrain", 0),
    (10, "sky", 0),
    (11, "person", 1),
    (12, "rider", 1),
    (13, "car", 1),
    (14, "truck", 1),
    (15, "bus", 1),
    (16, "train", 1),
    (17, "motorcycle", 1),
    (18, "bicycle", 1),
]

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


def write_model(
    model_dir: Path,
    cameras: dict[int, CameraIntrinsics],
    images: dict[int, DbImageRecord],
    points: dict[int, tuple[np.ndarray, list[tuple[int, int]]]],
) -> None:
    model_dir.mkdir(parents=True, exist_ok=True)
    cam_lines = []
    for cam_id in sorted(cameras):
        c = cameras[cam_id]
        cam_lines.append(
            f"{cam_id} PINHOLE {c.width} {c.height} "
            f"{_fmt(c.fx)} {_fmt(c.fy)} {_fmt(c.cx)} {_fmt(c.cy)}"
        )
    _write_text(model_dir / "cameras.txt", cam_lines)

    img_lines = []
    for image_id in sorted(images):
        im = images[image_id]
        q = im.pose.quaternion()
        t = im.pose.translation
        img_lines.append(
            f"{image_id} {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])} {_fmt(q[3])} "
            f"{_fmt(t[0])} {_fmt(t[1])} {_fmt(t[2])} {im.camera_id} {im.name}"
        )
        img_lines.append(
            " ".join(
                f"{_fmt(kp[0])} {_fmt(kp[1])} {int(pid)}"
                for kp, pid in zip(im.keypoints, im.point3d_ids)
            )
        )
    _write_text(model_dir / "images.txt", img_lines)

    pt_lines = []
    for point_id in sorted(points):
        position, track = points[point_id]
        track_str = " ".join(f"{img} {kp}" for img, kp in track)
        pt_lines.append(
            f"{point_id} {_fmt(position[0])} {_fmt(position[1])} {_fmt(position[2])} "
            f"128 128 128 0.0 {track_str}"
        )
    _write_text(model_dir / "points3D.txt", pt_lines)


def write_classes(path: Path) -> None:
    _write_text(path, [f"{cid} {name} {dyn}" for cid, name, dyn in CITYSCAPES_CLASSES])


def write_ground_truth(path: Path, poses: dict[str, PoseEstimate]) -> None:
    lines = []
    for name in sorted(poses):
        q = poses[name].quaternion()
        t = poses[name].translation
        lines.append(
            f"{name} {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])} {_fmt(q[3])} "
            f"{_fmt(t[0])} {_fmt(t[1])} {_fmt(t[2])}"
        )
    _write_text(path, lines)


def _position_global_descriptor(center: np.ndarray, dim: int) -> np.ndarray:
    g = np.zeros(dim, dtype=np.float64)
    g[:3] = center
    return (g / np.linalg.norm(g)).astype(np.float32)


def _validate_spec(spec: SceneSpec) -> None:
    static_ids = {cid for cid, _, dyn in CITYSCAPES_CLASSES if not dyn}
    dynamic_ids = {cid for cid, _, dyn in CITYSCAPES_CLASSES if dyn}
    if min(spec.n_points, spec.n_queries) < 1 or spec.n_db_images < 2:
        raise InfeasibleSpec("need >= 1 point and query, >= 2 database images")
    if spec.pixel_sigma < 0:
        raise InfeasibleSpec("pixel_sigma must be >= 0")
    if len(spec.octant_labels) != 8 or not set(spec.octant_labels) <= static_ids:
        raise InfeasibleSpec("octant_labels must be 8 static class ids")
    if not 0.0 <= spec.dynamic_fraction <= 1.0:
        raise InfeasibleSpec("dynamic_fraction must be in [0, 1]")
    if spec.dynamic_fraction > 0 and spec.dynamic_class_id not in dynamic_ids:
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
    (out_dir / MODEL_SUBDIR).mkdir(parents=True, exist_ok=True)
    (out_dir / DB_SUBDIR).mkdir(exist_ok=True)
    (out_dir / QUERY_SUBDIR).mkdir(exist_ok=True)

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
    db_poses: dict[int, PoseEstimate] = {}
    db_records: dict[int, DbImageRecord] = {}
    db_names: dict[int, str] = {}
    tracks: dict[int, list[tuple[int, int]]] = {i: [] for i in range(spec.n_points)}
    raster_by_image: dict[int, np.ndarray] = {}
    descs_by_image: dict[int, np.ndarray] = {}

    def observe(pose: PoseEstimate) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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
            np.array(kp_descs, dtype=np.float32).reshape(-1, spec.descriptor_dim),
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
        kps, kp_points, raster, descs = observe(pose)
        name = f"db_{i:03d}"
        point3d_ids = kp_points + 1  # point ids are 1-based
        for kp_idx, pt_idx in enumerate(kp_points):
            tracks[int(pt_idx)].append((image_id, kp_idx))
        db_poses[image_id] = pose
        db_names[image_id] = name
        db_records[image_id] = DbImageRecord(name, 1, pose, kps, point3d_ids)
        raster_by_image[image_id] = raster
        descs_by_image[image_id] = descs

    starved = [i + 1 for i, obs in tracks.items() if len(obs) < 2]
    if starved:
        raise InfeasibleSpec(
            f"{len(starved)} points observed by < 2 cameras (first: point {starved[0]})"
        )

    query_names: list[str] = []
    query_poses: dict[str, PoseEstimate] = {}
    query_kp_points: dict[str, np.ndarray] = {}
    query_files: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
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
        query_names.append(name)
        query_poses[name] = pose
        query_kp_points[name] = kp_points + 1
        query_files[name] = (kps, kp_points, raster, descs)

    n_night = int(round(spec.night_fraction * spec.n_queries))
    night_set = set(
        rng.choice(spec.n_queries, size=n_night, replace=False).tolist() if n_night else []
    )

    write_model(
        out_dir / MODEL_SUBDIR,
        {1: K},
        db_records,
        {i + 1: (positions[i], tracks[i]) for i in range(spec.n_points)},
    )
    for image_id in sorted(db_records):
        base = out_dir / DB_SUBDIR / db_names[image_id]
        write_pgm(base.with_name(base.name + ".labels.pgm"), raster_by_image[image_id])
        write_descriptors(base.with_name(base.name + ".ldsc"), descs_by_image[image_id])
        write_global_descriptor(
            base.with_name(base.name + ".gdsc"),
            _position_global_descriptor(-db_poses[image_id].rotation.T @ db_poses[image_id].translation, spec.global_dim),
        )
    for name in query_names:
        kps, _, raster, descs = query_files[name]
        base = out_dir / QUERY_SUBDIR / name
        write_keypoints(base.with_name(base.name + ".kpts"), kps)
        write_descriptors(base.with_name(base.name + ".ldsc"), descs)
        write_pgm(base.with_name(base.name + ".labels.pgm"), raster)
        pose = query_poses[name]
        write_global_descriptor(
            base.with_name(base.name + ".gdsc"),
            _position_global_descriptor(-pose.rotation.T @ pose.translation, spec.global_dim),
        )

    _write_text(
        out_dir / "queries.txt",
        [
            f"{name} PINHOLE {K.width} {K.height} {_fmt(K.fx)} {_fmt(K.fy)} {_fmt(K.cx)} {_fmt(K.cy)}"
            for name in query_names
        ],
    )
    _write_text(
        out_dir / "conditions.txt",
        [f"{db_names[i]} day" for i in sorted(db_names)]
        + [
            f"{name} {'night' if i in night_set else 'day'}"
            for i, name in enumerate(query_names)
        ],
    )
    write_classes(out_dir / "classes.txt")
    write_ground_truth(out_dir / "ground_truth.txt", query_poses)

    return SceneGroundTruth(
        spec=spec,
        root=out_dir,
        point_positions={i + 1: positions[i] for i in range(spec.n_points)},
        point_labels={i + 1: int(labels[i]) for i in range(spec.n_points)},
        dynamic_point_ids={int(i) + 1 for i in dynamic_idx},
        db_names=db_names,
        db_poses=db_poses,
        query_names=query_names,
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
        present.update(int(v) for v in np.unique(raster.labels))
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
    images = dict(model.images)
    ends = np.cumsum(np.bincount(model.tracks[:, 0], minlength=len(model.point_ids)))[:-1]
    tracks = [list(map(tuple, track.tolist())) for track in np.split(model.tracks[:, 1:], ends)]
    points = dict(zip(model.point_ids.tolist(), zip(model.positions, tracks)))  # write_model's layout
    rasters = {iid: dataset.db_rasters[iid].labels.copy() for iid in images}
    descs = {iid: dataset.db_descriptors[iid].data.copy() for iid in images}
    gds = {iid: dataset.db_global[iid].copy() for iid in images}
    conditions = dict(dataset.conditions)
    names = {iid: images[iid].name for iid in images}

    if cspec.wrong_retrieval_rate > 0:
        replicas = _decoy_replicas(cspec.wrong_retrieval_rate)
        perm = _permute_static_labels(dataset)
        reach = max(float(np.linalg.norm(position)) for position in model.positions)
        for image in model.images.values():
            center = -image.pose.rotation.T @ image.pose.translation
            reach = max(reach, float(np.linalg.norm(center)))
        offset_mag = 4.0 * reach
        max_image_id = max(images)
        max_point_id = max(points)
        source_points = model.point_ids.tolist()
        point_map: dict[int, dict[int, int]] = {}
        decoy_names: dict[str, str] = {}

        lut = np.arange(256, dtype=np.uint8)
        for old, new in perm.items():
            lut[old] = new

        for r in range(1, replicas + 1):
            offset = np.array([r * offset_mag, 0.0, 0.0])
            point_map[r] = {
                pid: max_point_id * r + rank + 1 for rank, pid in enumerate(source_points)
            }
            for pid, position in zip(source_points, model.positions):
                points[point_map[r][pid]] = (position + offset, [])
            for src_id in sorted(model.images):
                src = model.images[src_id]
                decoy_id = max_image_id * r + src_id
                name = f"{src.name}_decoy{r}"
                decoy_names[name] = src.name
                mapped = np.array(
                    [point_map[r][pid] if pid >= 0 else -1 for pid in src.point3d_ids],
                    dtype=np.int64,
                )
                pose = PoseEstimate(
                    src.pose.rotation, src.pose.translation - src.pose.rotation @ offset
                )
                images[decoy_id] = DbImageRecord(
                    name, src.camera_id, pose, src.keypoints.copy(), mapped
                )
                names[decoy_id] = name
                for kp_idx, pid in enumerate(src.point3d_ids):
                    if pid >= 0:
                        points[point_map[r][pid]][1].append((decoy_id, kp_idx))
                rasters[decoy_id] = lut[dataset.db_rasters[src_id].labels]
                descs[decoy_id] = dataset.db_descriptors[src_id].data.copy()
                gds[decoy_id] = dataset.db_global[src_id].copy()
                conditions[name] = conditions.get(src.name, "day")
        manifest["wrong_retrieval"] = {
            "replicas": replicas,
            "offset_m": offset_mag,
            "label_permutation": {str(k): v for k, v in sorted(perm.items())},
            "decoy_images": dict(sorted(decoy_names.items())),
        }

    flip_counts: dict[str, int] = {}
    outlier_indices: dict[str, list[int]] = {}
    query_out: dict[str, dict[str, np.ndarray]] = {}
    n_classes = len(dataset.class_table.names)
    for query in dataset.queries:
        kps = query.keypoints.copy()
        q_descs = query.descriptors.data.copy()
        raster = query.labels.labels.copy()
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
        query_out[query.name] = {"kps": kps, "descs": q_descs, "raster": raster}
    if cspec.label_flip_rate > 0:
        manifest["label_flips"] = flip_counts
    if cspec.descriptor_noise > 0:
        manifest["descriptor_noise"] = cspec.descriptor_noise
    if cspec.outlier_match_rate > 0:
        manifest["outlier_keypoints"] = outlier_indices

    # write the corrupted bundle
    (out_dir / MODEL_SUBDIR).mkdir(parents=True, exist_ok=True)
    (out_dir / DB_SUBDIR).mkdir(exist_ok=True)
    (out_dir / QUERY_SUBDIR).mkdir(exist_ok=True)
    write_model(out_dir / MODEL_SUBDIR, model.cameras, images, points)
    for image_id in sorted(images):
        base = out_dir / DB_SUBDIR / names[image_id]
        write_pgm(base.with_name(base.name + ".labels.pgm"), rasters[image_id])
        write_descriptors(base.with_name(base.name + ".ldsc"), descs[image_id])
        write_global_descriptor(base.with_name(base.name + ".gdsc"), gds[image_id])
    for query in dataset.queries:
        out = query_out[query.name]
        base = out_dir / QUERY_SUBDIR / query.name
        write_keypoints(base.with_name(base.name + ".kpts"), out["kps"])
        write_descriptors(base.with_name(base.name + ".ldsc"), out["descs"])
        write_pgm(base.with_name(base.name + ".labels.pgm"), out["raster"])
        write_global_descriptor(base.with_name(base.name + ".gdsc"), query.global_desc)
    _write_text(
        out_dir / "queries.txt",
        [
            f"{q.name} PINHOLE {q.camera.width} {q.camera.height} "
            f"{_fmt(q.camera.fx)} {_fmt(q.camera.fy)} {_fmt(q.camera.cx)} {_fmt(q.camera.cy)}"
            for q in dataset.queries
        ],
    )
    _write_text(
        out_dir / "conditions.txt",
        [f"{name} {cond}" for name, cond in sorted(conditions.items())],
    )
    write_classes(out_dir / "classes.txt")
    if ground_truth is not None:
        write_ground_truth(out_dir / "ground_truth.txt", ground_truth)
    with open(out_dir / "corruption_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
