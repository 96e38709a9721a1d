"""Evaluation metrics: surface-fit index, pose errors, success tests.

The performance index of an estimate over L measurements is the mean
distance between each measurement and the estimated surface placement::

    I_L = (1/L) sum_i d(y_i, surface posed at estimate)

It needs no ground truth, which is what makes it usable on real trials;
with ground truth available, position error is the Euclidean distance
between translations and orientation error the geodesic rotation angle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose, TriMesh, rotation_matrices

__all__ = [
    "TrialReport",
    "performance_index",
    "pose_error",
    "success_test",
    "aggregate_reports",
]

INDEX_THRESHOLD = 0.01          # meters
POSITION_THRESHOLD = 0.02       # meters
ORIENTATION_THRESHOLD = np.deg2rad(10.0)


@dataclass
class TrialReport:
    """Outcome of one localization run."""

    estimate: Pose
    index_trace: list[float]
    final_index: float
    position_error: float | None
    orientation_error: float | None
    elapsed: float
    success: bool
    seed: int
    degenerate_steps: list[int] = field(default_factory=list)


def performance_index(measurements: np.ndarray, estimate: Pose, mesh: TriMesh) -> float:
    """Mean measurement-to-surface distance under the estimated pose."""
    measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
    if len(measurements) == 0:
        raise ValueError("performance index needs at least one measurement")
    pose = estimate.to_array()
    R = rotation_matrices(pose)
    local = (measurements - pose[:3]) @ R
    d, _, _ = mesh.closest_points(local)
    return float(d.mean())


def pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """(translation distance [m], geodesic rotation angle [rad])."""
    est, tru = estimate.to_array(), truth.to_array()
    dpos = float(np.linalg.norm(est[:3] - tru[:3]))
    R_rel = rotation_matrices(est) @ rotation_matrices(tru).T
    cos_ang = float(np.clip((np.trace(R_rel) - 1.0) / 2.0, -1.0, 1.0))
    return dpos, float(np.arccos(cos_ang))


def success_test(report: TrialReport, truth: Pose | None = None) -> bool:
    """Classify a trial as a success.

    With ground truth: the pose errors must be under `POSITION_THRESHOLD`
    and `ORIENTATION_THRESHOLD`.  Without: the final performance index must
    be under `INDEX_THRESHOLD` (the criterion available on physical
    experiments).
    """
    if truth is not None:
        dpos, dang = pose_error(report.estimate, truth)
        return bool(dpos < POSITION_THRESHOLD and dang < ORIENTATION_THRESHOLD)
    return bool(report.final_index < INDEX_THRESHOLD)


def aggregate_reports(reports: list[TrialReport]) -> dict:
    """Summary statistics over a batch of trials."""
    if not reports:
        raise ValueError("no reports to aggregate")
    final = np.array([r.final_index for r in reports])
    elapsed = np.array([r.elapsed for r in reports])
    pos = [r.position_error for r in reports if r.position_error is not None]
    ang = [r.orientation_error for r in reports if r.orientation_error is not None]
    summary = {
        "trials": len(reports),
        "successes": int(sum(r.success for r in reports)),
        "reliability": float(np.mean([r.success for r in reports])),
        "mean_final_index": float(final.mean()),
        "median_final_index": float(np.median(final)),
        "max_final_index": float(final.max()),
        "mean_elapsed": float(elapsed.mean()),
        "max_elapsed": float(elapsed.max()),
    }
    if pos:
        summary["mean_position_error"] = float(np.mean(pos))
        summary["mean_orientation_error"] = float(np.mean(ang))
    return summary
