"""The benchmark's tracer still finds every layer it times.

``bench/spans.py`` swaps named package functions for timing wrappers, and
its per-layer metrics read the spans by name and parent.  A rename, or a
caller that binds a traced function where the swap cannot reach it, would
leave a span silent; this short traced run catches that before a
benchmark run does.
"""

import importlib.util
from pathlib import Path

import numpy as np

from meshloc import FilterConfig, Pose, ScenarioSpec, geometry, metrics, mupf, sample_contacts

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_fires_every_span():
    spans = _load_spans()
    tracer = spans.Tracer()
    config = FilterConfig(n_particles=8, seed=0)
    truth = Pose.from_array(np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6]))
    # Called through the modules, as the benchmark calls them, so that the
    # tracer's swapped attributes are the ones reached.
    with tracer.installed():
        mesh = geometry.box_mesh(0.1, 0.3, 0.2)
        model = config.model_for(mesh)
        spec = ScenarioSpec(mesh_path=None, true_pose=truth, n_measurements=2,
                            noise_sigma=5e-4, face_subset=(2, 3), seed=100)
        measurements, _ = sample_contacts(spec, mesh)
        state = mupf.init(config)
        for y in measurements:
            state, _ = mupf.step(state, y, model, config)
            estimate = mupf.extract_pose(state, model, config)
            metrics.performance_index(measurements, estimate.pose, mesh)
    by_name = tracer.reduce()
    assert sorted(set(spans.SPAN_NAMES) - set(by_name)) == []
    # The benchmark's likelihood-recompute metric is this span's time.
    assert by_name["ukf.log_likelihood_batch"].get("mupf.extract_pose", {}).get("calls") == 2
