"""semloc: 6DoF visual localization with a sparse semantic 3D map.

Builds a labeled point map from an SfM model and per-image segmentations,
scores retrieved database images by projective semantic consistency, and
recovers query poses with a semantically weighted RANSAC PnP solver.
"""

__version__ = "0.1.0"

from .errors import SemlocError
from .geometry import CameraIntrinsics, PoseEstimate, pose_error
from .localizer import LocalizerConfig, LocalizationResult, localize_query
from .model_ingest import Dataset, load_dataset, validate_dataset
from .semantic_map import SemanticMap, build_semantic_map
from .synth import CorruptionSpec, SceneSpec, corrupt, generate_scene

__all__ = [
    "SemlocError",
    "CameraIntrinsics",
    "PoseEstimate",
    "pose_error",
    "LocalizerConfig",
    "LocalizationResult",
    "localize_query",
    "Dataset",
    "load_dataset",
    "validate_dataset",
    "SemanticMap",
    "build_semantic_map",
    "CorruptionSpec",
    "SceneSpec",
    "corrupt",
    "generate_scene",
    "__version__",
]
