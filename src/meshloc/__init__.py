"""Contact-based 6-DOF object localization on triangle meshes.

A particle filter localizes a rigid object of known shape from sparse,
noisy 3-D contact points.  Each particle refines its pose hypothesis with
an unscented Kalman step against the nearest-surface-point measurement
model, and importance weights rate candidates against a sliding window of
recent measurements, which keeps the filter from collapsing onto poses
that explain only the newest contact.
"""

from .errors import (
    EmptyMeshError,
    InvalidConfigError,
    InvalidFaceSubsetError,
    MeshlocError,
    NotPositiveDefiniteError,
    SingularInnovationError,
)
from .geometry import (
    EULER_CONVENTION,
    Pose,
    TriMesh,
    box_mesh,
    euler_from_matrix,
    load_obj,
    points_into_object_frame,
    points_to_world_frame,
    rotation_matrices,
)
from .metrics import (
    TrialReport,
    aggregate_reports,
    performance_index,
    pose_error,
    success_test,
)
from .mupf import (
    FilterConfig,
    FilterState,
    PoseEstimate,
    extract_pose,
    init,
    run,
    step,
)
from .simulate import (
    ScenarioSpec,
    read_ground_truth_json,
    read_measurements_csv,
    sample_contacts,
    write_ground_truth_json,
    write_measurements_csv,
)
from .ukf import (
    MeasurementModel,
    log_likelihood_batch,
    ukf_step_batch,
)
from .unscented import (
    SutParams,
    sigma_points_batch,
    unscented_transform,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EULER_CONVENTION",
    "EmptyMeshError",
    "FilterConfig",
    "FilterState",
    "InvalidConfigError",
    "InvalidFaceSubsetError",
    "MeasurementModel",
    "MeshlocError",
    "NotPositiveDefiniteError",
    "Pose",
    "PoseEstimate",
    "ScenarioSpec",
    "SingularInnovationError",
    "SutParams",
    "TriMesh",
    "TrialReport",
    "aggregate_reports",
    "box_mesh",
    "euler_from_matrix",
    "extract_pose",
    "init",
    "load_obj",
    "log_likelihood_batch",
    "performance_index",
    "points_into_object_frame",
    "points_to_world_frame",
    "pose_error",
    "read_ground_truth_json",
    "read_measurements_csv",
    "rotation_matrices",
    "run",
    "sample_contacts",
    "sigma_points_batch",
    "step",
    "success_test",
    "ukf_step_batch",
    "unscented_transform",
    "write_ground_truth_json",
    "write_measurements_csv",
]
