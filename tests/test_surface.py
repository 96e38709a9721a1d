"""The package's public surface: what ``meshloc`` exports and from where."""

import ast
import importlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import meshloc

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "FilterConfig", "FilterState", "InvalidConfigError",
    "MeasurementModel", "MeshlocError", "Pose",
    "PoseEstimate", "ScenarioSpec",
    "TriMesh", "TrialReport", "aggregate_reports",
    "box_mesh", "euler_from_matrix",
    "extract_pose", "init", "load_obj",
    "log_likelihood_batch", "performance_index", "pose_error",
    "read_ground_truth_json",
    "read_measurements_csv", "rotation_matrices", "run", "sample_contacts",
    "sigma_points_batch", "step", "success_test",
    "ukf_step_batch", "unscented_transform",
    "write_ground_truth_json",
    "write_measurements_csv",
]

# Names a submodule exports that the package deliberately does not.
MODULE_ONLY = {"cli": {"main"}}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 31
    assert sorted(meshloc.__all__) == sorted(PUBLIC + ["__version__"])
    for name in meshloc.__all__:
        assert hasattr(meshloc, name), name


MODULES = ["errors", "geometry", "metrics", "mupf", "simulate", "ukf", "unscented",
           "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_submodule_names_resolve_and_are_reexported(module):
    mod = importlib.import_module(f"meshloc.{module}")
    for name in mod.__all__:
        obj = getattr(mod, name)
        if name in MODULE_ONLY.get(module, ()):
            assert name not in meshloc.__all__
        else:
            assert name in meshloc.__all__, f"{module}.{name} is not re-exported"
            assert getattr(meshloc, name) is obj


def test_each_public_name_is_listed_once_by_its_own_module():
    # Star re-exports let a name listed by two modules shadow the other.
    owners = {}
    for module in MODULES:
        mod = importlib.import_module(f"meshloc.{module}")
        for name in mod.__all__:
            assert name not in owners, f"{name} in {owners.get(name)} and {module}"
            owners[name] = module
            obj = getattr(mod, name)
            assert callable(obj) and obj.__module__ == mod.__name__, name


def _meshloc_imports(source: str, origin: str):
    """``(origin, module, name)`` for every ``from meshloc[.sub] import name``."""
    for node in ast.walk(ast.parse(source, filename=origin)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "meshloc":
            for alias in node.names:
                yield origin, node.module, alias.name


def _documented_imports():
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield from _meshloc_imports(block, f"README.md python block {i + 1}")
    for path in sorted((ROOT / "bench").glob("*.py")):
        yield from _meshloc_imports(path.read_text(), f"bench/{path.name}")


def test_readme_and_bench_import_only_public_names():
    # Surface trims must not break the documented examples or the benchmark.
    imports = list(_documented_imports())
    assert any(origin.startswith("README") for origin, _, _ in imports)
    assert any(origin.startswith("bench") for origin, _, _ in imports)
    for origin, module, name in imports:
        if module == "meshloc":
            is_submodule = importlib.util.find_spec(f"meshloc.{name}") is not None
            assert name in meshloc.__all__ or is_submodule, f"{origin}: {name}"
        else:
            assert hasattr(importlib.import_module(module), name), \
                f"{origin}: {module}.{name}"


def test_readme_library_example_runs(capsys):
    # The example as written; its numbers depend on the BLAS kernel, so
    # only their kinds are checked.
    readme = (ROOT / "README.md").read_text()
    [block] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if "run(" in b]
    exec(compile(block, "README.md library example", "exec"), {})
    final_index, success = capsys.readouterr().out.split()[:2]
    assert math.isfinite(float(final_index))
    assert success in ("True", "False")


def test_bench_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, name, _ in spans.TARGETS:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner!r}.{attr}"


def test_only_geometry_maps_contacts_onto_the_mesh():
    # One contact-to-surface query: every other module goes through
    # TriMesh.closest_points_posed, so the index and the likelihood agree.
    for path in sorted((ROOT / "src" / "meshloc").glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name != "closest_points", path.name


def test_package_imports_nothing_beyond_numpy_and_yaml():
    # The declared dependencies only: a fresh interpreter that has loaded
    # numpy and yaml loads no other third-party module for the package or
    # its command line.  Multiprocessing registers the `__mp_main__` alias.
    code = """
import sys
import numpy, yaml
before = {name.partition(".")[0] for name in sys.modules}
import meshloc, meshloc.cli
after = {name.partition(".")[0] for name in sys.modules}
print(*sorted(after - before - set(sys.stdlib_module_names) - {"meshloc", "__mp_main__"}))
"""
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
