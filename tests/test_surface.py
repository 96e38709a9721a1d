"""The package's public surface: what ``meshloc`` exports and from where."""

import importlib

import pytest

import meshloc

PUBLIC = [
    "Bvh", "EULER_CONVENTION", "EmptyMeshError",
    "FilterConfig", "FilterState", "InvalidConfigError", "InvalidFaceSubsetError",
    "MeasurementModel", "MeshlocError", "NotPositiveDefiniteError", "Pose",
    "PoseEstimate", "ScenarioSpec", "SigmaPointSet", "SingularInnovationError",
    "StepSnapshot", "SutParams", "TriMesh", "TrialReport", "aggregate_reports",
    "box_mesh", "build_bvh", "closest_point_on_triangles", "euler_from_matrix",
    "extract_pose", "extraction_exponents", "init", "load_obj",
    "log_likelihood_batch", "make_sigma_points", "performance_index",
    "points_into_object_frame", "points_to_world_frame", "pose_error",
    "pose_to_transform", "propagate", "read_ground_truth_json",
    "read_measurements_csv", "rotation_matrices", "run", "sample_contacts",
    "save_obj", "sigma_points_batch", "step", "success_test", "tetrahedron_mesh",
    "ukf_step_batch", "window_span", "write_ground_truth_json",
    "write_measurements_csv",
]

# Names a submodule exports that the package deliberately does not.
MODULE_ONLY = {"cli": {"main"}}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 50
    assert sorted(meshloc.__all__) == sorted(PUBLIC + ["__version__"])
    for name in meshloc.__all__:
        assert hasattr(meshloc, name), name


@pytest.mark.parametrize("module", ["geometry", "metrics", "mupf", "simulate",
                                    "ukf", "unscented", "cli"])
def test_submodule_names_resolve_and_are_reexported(module):
    mod = importlib.import_module(f"meshloc.{module}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if name in MODULE_ONLY.get(module, ()):
            assert name not in meshloc.__all__
        else:
            assert name in meshloc.__all__, f"{module}.{name} is not re-exported"
            assert getattr(meshloc, name) is obj
