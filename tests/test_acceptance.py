"""Release gates for the localization stack.

Every test prints one PASS/FAIL line with the measured quantity, so a run
with ``pytest tests/test_acceptance.py -s`` reads as a checklist.  The
pinned box scenario (criteria 6 to 8) is the reference workload: a
0.1 x 0.3 x 0.2 m box probed on its top face with 0.5 mm noise, twenty
trials per memory setting, scenario seeds 100..119 and filter seeds 0..19.
"""

import json
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import random_soup, save_obj
from oracles import closest_point_brute, kalman_update, upf_step

import meshloc.cli as cli
from meshloc import (
    FilterConfig,
    FilterState,
    Pose,
    ScenarioSpec,
    box_mesh,
    init,
    run,
    sample_contacts,
    step,
    ukf_step_batch,
    unscented_transform,
)


def _gate(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} {name}: {detail}"
    print(line)
    assert ok, line


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(want)), 1.0)
    return float(np.linalg.norm(got - want)) / scale


PINNED_POSE = np.array([0.02, -0.01, 0.03, 0.4, -0.25, 0.6])
PINNED_SUBSET = (2, 3)      # the two triangles of the +z face
PINNED_NOISE = 5e-4
PINNED_COUNT = 15
PINNED_TRIALS = 20


@pytest.fixture(scope="module")
def pinned_batches():
    """Twenty pinned-scenario trials for memory 10 and memory 1.

    Success is judged by the performance index, not by pose error:
    contacts confined to one face underdetermine the pose (any pose that
    places a compatible face on the contact patch explains the data), so
    a converged filter may report an equivalent but distant pose.
    """
    mesh = box_mesh(0.1, 0.3, 0.2)
    truth = Pose.from_array(PINNED_POSE)
    batches = {}
    for memory in (10, 1):
        reports = []
        for i in range(PINNED_TRIALS):
            spec = ScenarioSpec(mesh_path=None, true_pose=truth,
                                n_measurements=PINNED_COUNT,
                                noise_sigma=PINNED_NOISE,
                                face_subset=PINNED_SUBSET, seed=100 + i)
            measurements, _ = sample_contacts(spec, mesh)
            config = FilterConfig(memory=memory, seed=i)
            _, report = run(measurements, config.model_for(mesh), config)
            reports.append(report)
        batches[memory] = reports
    return batches


def test_criterion_1_unscented_affine_exactness():
    rng = np.random.default_rng(10)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        mean = rng.normal(size=6)
        g = rng.normal(size=(6, 6))
        cov = g @ g.T + 0.1 * np.eye(6)
        a = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        y_mean, p_y, p_xy = unscented_transform(mean[None], cov[None],
                                                lambda X: X @ a.T + b)
        worst = max(worst,
                    _rel_err(y_mean[0], a @ mean + b),
                    _rel_err(p_y[0], a @ cov @ a.T),
                    _rel_err(p_xy[0], cov @ a.T))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 5.0
    _gate(1, "unscented affine exactness",
          ok, f"worst rel err {worst:.3g} (<=1e-8), {elapsed:.2f}s (<5s)")


def test_criterion_2_bvh_matches_brute_force():
    mesh = random_soup(750, seed=2026, scale=0.5)
    rng = np.random.default_rng(11)
    queries = rng.uniform(-0.8, 0.8, size=(10_000, 3))
    started = time.perf_counter()
    d_bvh, p_bvh, _ = mesh.closest_points(queries)
    elapsed = time.perf_counter() - started
    d_ref, _, _ = closest_point_brute(queries, mesh.vertices, mesh.faces)
    gap = float(np.abs(d_bvh - d_ref).max())
    ok = gap <= 1e-12 and elapsed < 10.0
    _gate(2, "accelerated distance queries match brute force",
          ok, f"max |d - d_ref| {gap:.3g} (<=1e-12), {elapsed:.2f}s (<10s)")


def test_criterion_3_ukf_matches_linear_kalman():
    rng = np.random.default_rng(12)

    class _AffineModel:
        def __init__(self, a, b):
            self.a, self.b = a, b

        def predict_batch(self, y, poses):
            return np.atleast_2d(poses) @ self.a.T + self.b

    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=6)
        g = rng.normal(size=(6, 6))
        p = g @ g.T + 0.1 * np.eye(6)
        a = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        y = rng.normal(size=3)
        q = np.diag(rng.uniform(0.01, 0.1, size=6))
        rf = rng.normal(size=(3, 3))
        r = rf @ rf.T + 0.1 * np.eye(3)
        got_x, got_p = ukf_step_batch(x[None], p[None], y, _AffineModel(a, b),
                                      q, R=r)
        want_x, want_p = kalman_update(x, p, y, a, b, r, q)
        worst = max(worst, _rel_err(got_x[0], want_x), _rel_err(got_p[0], want_p))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8
    _gate(3, "unscented update equals closed-form Kalman on affine models",
          ok, f"worst rel err {worst:.3g} (<=1e-8), {elapsed:.2f}s")


def test_criterion_4_memoryless_filter_reduces_to_upf():
    mesh = box_mesh(0.1, 0.3, 0.2)
    config = FilterConfig(n_particles=64, memory=1, resampling_delay=0,
                          transition_density_in_weights=True, seed=17,
                          prior_mean=PINNED_POSE,
                          prior_cov=np.diag([0.01] * 3 + [0.1] * 3),
                          sigma_p=1e-3)
    model = config.model_for(mesh)
    spec = ScenarioSpec(mesh_path=None, true_pose=Pose.from_array(PINNED_POSE),
                        n_measurements=10, noise_sigma=1e-3, seed=21)
    measurements, _ = sample_contacts(spec, mesh)
    sa, sb = init(config), init(config)
    exact = True
    for y in measurements:
        sa, _ = step(sa, y, model, config)
        sb, _ = upf_step(sb, y, model, config)
        exact = exact and all(np.array_equal(getattr(sa, f.name), getattr(sb, f.name))
                              for f in fields(FilterState))
    _gate(4, "memory 1 with immediate resampling reduces to the plain UPF",
          exact, f"10 steps bitwise {'identical' if exact else 'DIVERGED'}")


def test_criterion_5_each_measurement_rated_in_m_updates():
    mesh = box_mesh(0.1, 0.3, 0.2)
    config = FilterConfig(n_particles=32, memory=5, seed=3,
                          prior_mean=PINNED_POSE,
                          prior_cov=np.diag([0.01] * 3 + [0.1] * 3),
                          sigma_p=1e-3)
    real = config.model_for(mesh)

    class _CountingModel:
        mesh = real.mesh
        sigma_p = real.sigma_p

        def __init__(self):
            self.counts = {}

        def surface_distances(self, ys, poses):
            for row in np.atleast_2d(np.asarray(ys, dtype=float)):
                key = row.tobytes()
                self.counts[key] = self.counts.get(key, 0) + 1
            return real.surface_distances(ys, poses)

        def predict_batch(self, y, poses):
            return real.predict_batch(y, poses)

    spy = _CountingModel()
    spec = ScenarioSpec(mesh_path=None, true_pose=Pose.from_array(PINNED_POSE),
                        n_measurements=20, noise_sigma=1e-3, seed=23)
    measurements, _ = sample_contacts(spec, mesh)
    state = init(config)
    for y in measurements:
        state, _ = step(state, y, spy, config)

    t_total, m = 20, 5
    expected = {k: min(m, t_total - k + 1) for k in range(1, t_total + 1)}
    got = {k: spy.counts.get(measurements[k - 1].tobytes(), 0)
           for k in range(1, t_total + 1)}
    ok = got == expected and all(got[k] == 5 for k in range(1, 17))
    _gate(5, "every measurement enters exactly min(m, T-k+1) weight updates",
          ok, f"m={m}, T={t_total}, counts for k<=16 all 5: "
              f"{all(got[k] == 5 for k in range(1, 17))}")


@pytest.mark.slow
def test_criterion_6_pinned_box_accuracy(pinned_batches):
    reports = pinned_batches[10]
    final = np.array([r.final_index for r in reports])
    median = float(np.median(final))
    successes = int(sum(r.success for r in reports))
    mean_elapsed = float(np.mean([r.elapsed for r in reports]))
    ok = median <= 0.005 and successes >= 18 and mean_elapsed <= 30.0
    _gate(6, "pinned box scenario accuracy",
          ok, f"median index {median:.5f} m (<=0.005), "
              f"successes {successes}/20 (>=18), "
              f"mean runtime {mean_elapsed:.2f}s (<=30s)")


@pytest.mark.slow
def test_criterion_7_memory_beats_memoryless(pinned_batches):
    mean_m10 = float(np.mean([r.final_index for r in pinned_batches[10]]))
    mean_m1 = float(np.mean([r.final_index for r in pinned_batches[1]]))
    rel_m10 = float(np.mean([r.success for r in pinned_batches[10]]))
    rel_m1 = float(np.mean([r.success for r in pinned_batches[1]]))
    ratio = mean_m1 / mean_m10
    ok = ratio >= 3.0 and rel_m1 < rel_m10
    _gate(7, "memory window outperforms the memoryless filter",
          ok, f"mean index ratio {ratio:.2f} (>=3), "
              f"reliability {rel_m1:.2f} < {rel_m10:.2f}")


@pytest.mark.slow
def test_criterion_8_index_trace_converges(pinned_batches):
    config = FilterConfig()
    successful = [r for r in pinned_batches[10] if r.success]
    settled = config.resampling_delay  # first post-delay estimate, 0-indexed
    conv = [r.index_trace[-1] <= r.index_trace[settled] for r in successful]
    frac = float(np.mean(conv)) if conv else 0.0
    ok = len(successful) > 0 and frac >= 0.9
    _gate(8, "performance index trace decreases over the run",
          ok, f"{sum(conv)}/{len(conv)} successful trials converged "
              f"({frac:.0%} >= 90%)")


def test_criterion_9_reports_identical_across_scheduling(tmp_path, monkeypatch):
    mesh_path = str(tmp_path / "box.obj")
    save_obj(box_mesh(0.1, 0.3, 0.2), mesh_path)
    cfg_path = tmp_path / "small.yaml"
    cfg_path.write_text(
        "particles: 60\n"
        "memory: 3\n"
        "sigma_p: 1.0e-3\n"
        "prior_cov_diag: [0.01, 0.01, 0.01, 0.2, 0.2, 0.2]\n"
    )
    meas_path = str(tmp_path / "meas.csv")
    assert cli.main(["simulate", "--mesh", mesh_path, "--output", meas_path,
                     "--count", "8", "--noise-sigma", "5e-4",
                     "--seed", "4"]) == 0

    loc_path = str(tmp_path / "localize.json")
    assert cli.main(["localize", "--mesh", mesh_path,
                     "--measurements", meas_path, "--config", str(cfg_path),
                     "--omit-timing", "--output", loc_path]) == 0

    # The two-worker batch runs in a process pool on every host: the CPU
    # count that caps the pool reads 2, and the pool records its entry.
    pools = []

    class SpyPool(cli.ProcessPoolExecutor):
        def __enter__(self):
            pools.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SpyPool)
    bat_blobs = []
    for name, tw in (("bat1.json", "1"), ("bat2.json", "2")):
        out = str(tmp_path / name)
        if tw == "2":
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert cli.main(["batch", "--mesh", mesh_path,
                         "--config", str(cfg_path), "--trials", "2",
                         "--count", "6", "--noise-sigma", "5e-4",
                         "--trial-workers", tw, "--omit-timing",
                         "--output", out]) == 0
        bat_blobs.append(Path(out).read_bytes())

    bat_ok = bat_blobs[0] == bat_blobs[1]
    pool_ok = pools == [2]
    report = json.loads(Path(loc_path).read_text())
    echo_ok = "workers" not in report["config"] and "elapsed" not in report["report"]
    ok = bat_ok and pool_ok and echo_ok
    _gate(9, "reports are byte-identical across trial-worker counts",
          ok, f"batch identical: {bat_ok}, 2-process pool entered: {pool_ok}, "
              f"no scheduling keys in echo: {echo_ok}")
