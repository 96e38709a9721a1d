"""The benchmark still finds every layer it times and every value it reads.

``bench/spans.py`` swaps named package functions for timing wrappers, and
its per-layer metrics read the spans by name and parent.  A rename, or a
caller that binds a traced function where the swap cannot reach it, would
leave a span silent; this short traced run catches that before a
benchmark run does.  ``bench/run.py`` drives the streaming API and reads
the step diagnostics and the estimate fields; a short drive catches a
change to either.  Each workload's set-up, as the benchmark runs it, builds
its profile and trials and takes one contact, so a profile key or a config
field the library stops accepting fails here first.  A slow test pins the
filter's output: the benchmark's reference-trial digests under one
OpenBLAS kernel.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from meshloc import FilterConfig, Pose, ScenarioSpec, geometry, metrics, mupf, sample_contacts

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_spans():
    return _load("spans")


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


def _load_run(monkeypatch):
    # bench/run.py pins three BLAS thread variables when it loads; setting
    # them here first lets teardown restore them.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return _load("run")


def test_drive_reads_what_the_api_returns(monkeypatch):
    run = _load_run(monkeypatch)
    config = FilterConfig(n_particles=8, resampling_delay=1, seed=0)
    mesh = geometry.box_mesh(0.1, 0.3, 0.2)
    spec = ScenarioSpec(mesh_path=None, true_pose=Pose(x=0.02, phi=0.4), n_measurements=2,
                        noise_sigma=5e-4, face_subset=(2, 3), seed=100)
    trial = SimpleNamespace(index=0, measurements=sample_contacts(spec, mesh)[0],
                            config=config)
    loop = run.drive([trial], config.model_for(mesh), mupf, lambda loop: True)
    assert (loop.attempted, loop.failed, loop.completed) == (1, 0, 1)
    assert len(loop.latencies) == len(loop.support) == 2
    assert len(loop.parents) == 1          # step 2 resamples, step 1 does not
    assert run.estimates_finite(loop)


_WORKLOADS = [w["name"] for w in
              json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", _WORKLOADS)
def test_set_up_builds_each_workload(monkeypatch, name):
    run = _load_run(monkeypatch)
    monkeypatch.syspath_prepend(str(BENCH))     # set_up imports bench/workloads.py
    _, workload, setup, mupf_module, _ = run.set_up(name, 0)
    assert workload.name == name and mupf_module is mupf
    assert setup.trials


# The reference trials' digests as `bench/run.py` computes them, with numpy
# 2.4.6 on OpenBLAS's Haswell kernel: the bits of LAPACK's small batched
# solvers depend on the kernel, so the pin holds for this one only.
_HASWELL_DIGESTS = {
    "box-desk": "953a62ccdb54a17125b9e5b6a4f6f5237f083c1f6856ead0eab0bf820a04146d",
    "box-robot": "c68c5535e1b08ccc34562ac8d47667be74456dc0320fd8362bfdf5f8f49ac538",
    "scan-refine": "b586c8547184a183c6dbbba44131c313c88a54b8eabcc837f7d59af0a0b7a63e",
}

# Reads the kernel OpenBLAS runs through numpy's bundled library, and runs
# the reference trials of the workloads named on its command line only when
# that kernel and numpy's version are the pin's.
_PIN_SCRIPT = """
import ctypes, glob, json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy
import run

kernel = "unknown"
for lib in glob.glob(os.path.join(os.path.dirname(numpy.__path__[0]), "numpy.libs",
                                  "libscipy_openblas64_*.so")):
    corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
out = {"kernel": kernel, "numpy": numpy.__version__, "digests": {}}
if (kernel, numpy.__version__) == ("Haswell", "2.4.6"):
    for name in sys.argv[2:]:
        _, workload, setup, mupf, _ = run.set_up(name, 0)
        reference = setup.trials[:workload.reference_trials]
        loop = run.drive(reference, setup.model, mupf, lambda loop: True)
        out["digests"][name] = run.digest(loop, reference)
print(json.dumps(out))
"""


@pytest.mark.slow
def test_reference_digests_under_the_haswell_kernel():
    env = os.environ | {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
                        "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _PIN_SCRIPT, str(BENCH), *_HASWELL_DIGESTS],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    if got["kernel"] != "Haswell":
        pytest.skip(f"OpenBLAS ran its {got['kernel']} kernel, not Haswell, "
                    f"which needs an x86-64 CPU with AVX2 and FMA")
    if got["numpy"] != "2.4.6":
        pytest.skip(f"numpy {got['numpy']}, not the pin's 2.4.6")
    assert got["digests"] == _HASWELL_DIGESTS
