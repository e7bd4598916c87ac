"""In-memory SfM models for tests of the semantic map build."""

import numpy as np

from semloc.geometry import PoseEstimate
from semloc.model_ingest import DbImageRecord, SfmModel


def pose_at(center):
    """The identity-rotation pose whose camera center is `center`."""
    return PoseEstimate(np.eye(3), -np.asarray(center, dtype=float))


def uniform_raster(label, size=4):
    return np.full((size, size), label, dtype=np.uint8)


def sfm_model(positions, tracks, images):
    """The model of points with ids 1..n at `positions`, whose tracks[r]
    lists point r's (image id, keypoint index) observations of `images`."""
    table = [(row, image_id, kp) for row, track in enumerate(tracks) for image_id, kp in track]
    return SfmModel(
        cameras={},
        images=images,
        point_ids=np.arange(1, len(tracks) + 1, dtype=np.int64),
        positions=np.asarray(positions, dtype=float).reshape(-1, 3),
        tracks=np.array(table, dtype=np.int64).reshape(-1, 3),
    )


def views_model(position, centers, rasters, keypoints=None):
    """(model, rasters by image id) of one point at `position` seen once
    per view: view i is image i + 1, with camera center centers[i], label
    raster rasters[i] and the point's keypoint keypoints[i] ((0, 0) when
    keypoints is None)."""
    if keypoints is None:
        keypoints = [(0.0, 0.0)] * len(centers)
    images = {
        i + 1: DbImageRecord(f"v{i}", 1, pose_at(c), np.array([kp], dtype=float), np.array([1]))
        for i, (c, kp) in enumerate(zip(centers, keypoints))
    }
    model = sfm_model([position], [[(i + 1, 0) for i in range(len(centers))]], images)
    return model, {i + 1: raster for i, raster in enumerate(rasters)}
