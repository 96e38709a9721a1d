"""Memory unscented particle filter for 6-DOF pose tracking.

Each of N particles carries a Gaussian (mean, cov) refined by a per-particle
unscented Kalman step against the newest contact point, under identity
dynamics with additive process noise.  A candidate pose is drawn from every
corrected Gaussian (the proposal), and importance weights rate the candidate
against a sliding window of the last ``m`` measurements instead of only the
newest one::

    w_t^i  propto  w~_{t-1}^i * prod_{k=kbar(t)}^{t} l(y_k | xhat_t^i)
                   / N(xhat_t^i; xbar_t^i, P_t^i),     kbar(t) = max(t-m+1, 1)

For reporting, a second set of extraction weights re-rates the same
candidates with exponents ``m - t + k - 1`` on each windowed likelihood so
that every measurement in the window ends up contributing a total power of
``m`` to the estimated posterior; the reported pose is the candidate that
maximizes the resulting Gaussian-mixture density (a MAP readout).  The
propagated weights are never touched by extraction.

Resampling (multinomial by default) is skipped for the first
``resampling_delay`` steps; weights reset to 1/N either way, so particle
multiplicity, not the weight vector, carries information forward from one
step to the next.

Determinism: every step derives its generator from ``(seed, t)`` and draws
in a fixed order, and all per-particle reductions run in particle order, so
serial and worker-parallel executions produce bit-identical states.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .geometry import Pose
from .metrics import TrialReport, performance_index, pose_error, success_test
from .ukf import MeasurementModel, log_likelihood_batch, ukf_step_batch
from .unscented import SutParams

__all__ = [
    "FilterConfig",
    "FilterState",
    "PoseEstimate",
    "StepSnapshot",
    "init",
    "step",
    "extract_pose",
    "run",
    "window_span",
    "extraction_exponents",
]

logger = logging.getLogger(__name__)

_LN_2PI = float(np.log(2.0 * np.pi))
_DENSITY_EIG_FLOOR = 1e-12
_EXTRACT_CHUNK = 256


def _is_int(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, (bool, np.bool_)))


def _default_process_noise() -> np.ndarray:
    return np.diag([1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4])


def _default_prior_cov() -> np.ndarray:
    return np.diag([0.04, 0.04, 0.04,
                    np.pi ** 2, (np.pi / 2.0) ** 2, np.pi ** 2])


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.  Defaults are the desk-scale simulation profile.

    ``sigma_p`` is stored exactly as configured; ``sigma_p_is_variance``
    selects whether it is read directly as a standard deviation in meters
    (the default: 1e-4 m, a sharp likelihood that rewards tight surface
    fits) or as a variance in m^2 (1e-4 m^2, a 1 cm standard deviation
    matching a coarse probe).  Every report records both the raw value
    and the interpretation flag.
    """

    n_particles: int = 700
    memory: int = 10
    process_noise: np.ndarray = field(default_factory=_default_process_noise)
    prior_mean: np.ndarray = field(default_factory=lambda: np.zeros(6))
    prior_cov: np.ndarray = field(default_factory=_default_prior_cov)
    sigma_p: float = 1e-4
    sigma_p_is_variance: bool = False
    measurement_noise_cov: np.ndarray | None = None
    sut: SutParams = field(default_factory=SutParams)
    resampling_delay: int = 2
    resampling: str = "multinomial"
    prior_map_exponent: bool = True
    transition_density_in_weights: bool = False
    n_workers: int = 1
    seed: int = 0

    @property
    def effective_sigma_p(self) -> float:
        """Likelihood scale in meters after the variance/std interpretation."""
        return float(np.sqrt(self.sigma_p)) if self.sigma_p_is_variance else float(self.sigma_p)

    def validate(self) -> None:
        """Raise `InvalidConfigError` naming the profile key at fault, with
        the field name in parentheses where the two differ."""
        for name, key, low in (("n_particles", "particles (n_particles)", 1),
                               ("memory", "memory", 1),
                               ("resampling_delay", "resampling_delay", 0),
                               ("seed", "seed", 0),
                               ("n_workers", "workers (n_workers)", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise InvalidConfigError(f"{key} must be an integer >= {low}")
        for name in ("sigma_p_is_variance", "prior_map_exponent",
                     "transition_density_in_weights"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise InvalidConfigError(f"{name} must be true or false")
        if self.resampling not in ("multinomial", "systematic"):
            raise InvalidConfigError(f"unknown resampling scheme {self.resampling!r}")
        if not (np.isfinite(self.sigma_p) and self.sigma_p > 0.0):
            raise InvalidConfigError("sigma_p must be positive and finite")
        mean = np.asarray(self.prior_mean, dtype=float)
        if mean.shape != (6,) or not np.isfinite(mean).all():
            raise InvalidConfigError("prior_mean must be a finite 6-vector")
        matrices = [("process_noise[_diag]", self.process_noise, 6),
                    ("prior_cov[_diag]", self.prior_cov, 6)]
        if self.measurement_noise_cov is not None:
            matrices.append(("measurement_noise[_diag] (measurement_noise_cov)",
                             self.measurement_noise_cov, 3))
        for name, mat, dim in matrices:
            m = np.asarray(mat, dtype=float)
            if m.shape != (dim, dim) or not np.isfinite(m).all():
                raise InvalidConfigError(f"{name} must be a finite {dim}x{dim} matrix")
            if np.abs(m - m.T).max() > 1e-10:
                raise InvalidConfigError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(m)[0] < -1e-10:
                raise InvalidConfigError(f"{name} must be positive semidefinite")

    def measurement_noise(self) -> np.ndarray:
        if self.measurement_noise_cov is not None:
            return np.asarray(self.measurement_noise_cov, dtype=float)
        return self.effective_sigma_p ** 2 * np.eye(3)

    def model_for(self, mesh) -> MeasurementModel:
        return MeasurementModel(mesh=mesh, sigma_p=self.effective_sigma_p)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "FilterConfig":
        """Build a config from a flat mapping (the on-disk profile format)."""
        known = {
            "particles", "memory", "process_noise", "process_noise_diag",
            "prior_mean", "prior_cov", "prior_cov_diag", "sigma_p",
            "sigma_p_is_variance", "measurement_noise", "measurement_noise_diag",
            "alpha", "k", "beta", "resampling_delay", "resampling",
            "prior_map_exponent", "transition_density_in_weights", "workers",
            "seed",
        }
        unknown = set(mapping) - known
        if unknown:
            raise InvalidConfigError(f"unknown config keys: {sorted(unknown)}")

        def read(key, convert, default, what):
            # Conversion failures name the profile key, not numpy's message.
            if key not in mapping:
                return default
            try:
                return convert(mapping[key])
            except (TypeError, ValueError):
                raise InvalidConfigError(
                    f"{key} must be {what}, got {mapping[key]!r}") from None

        def array(shape):
            return lambda v: np.asarray(v, dtype=float).reshape(shape)

        def mat(full_key, diag_key, default, dim):
            if full_key in mapping:
                return read(full_key, array((dim, dim)), None, f"a {dim}x{dim} matrix")
            return read(diag_key, lambda v: np.diag(array(dim)(v)), default,
                        f"a list of {dim} numbers")

        def number(key, default):
            return read(key, float, default, "a number")

        def count(key, default):
            # Integral floats become ints; any other value reaches validate()
            # unchanged, which rejects everything but integers.
            value = mapping.get(key, default)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            return value

        sut = SutParams(alpha=number("alpha", 1.0), k=number("k", 2.0),
                        beta=number("beta", 30.0))
        cfg = cls(
            n_particles=count("particles", 700),
            memory=count("memory", 10),
            process_noise=mat("process_noise", "process_noise_diag",
                              _default_process_noise(), 6),
            prior_mean=read("prior_mean", array(6), np.zeros(6), "a list of 6 numbers"),
            prior_cov=mat("prior_cov", "prior_cov_diag", _default_prior_cov(), 6),
            sigma_p=number("sigma_p", 1e-4),
            sigma_p_is_variance=mapping.get("sigma_p_is_variance", False),
            measurement_noise_cov=mat("measurement_noise", "measurement_noise_diag",
                                      None, 3),
            sut=sut,
            resampling_delay=count("resampling_delay", 2),
            resampling=str(mapping.get("resampling", "multinomial")),
            prior_map_exponent=mapping.get("prior_map_exponent", True),
            transition_density_in_weights=mapping.get(
                "transition_density_in_weights", False),
            n_workers=count("workers", 1),
            seed=count("seed", 0),
        )
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        """Fully resolved configuration for report embedding.

        Deliberately omits ``n_workers``: it changes how the arithmetic is
        scheduled, never what it computes, and reports must be identical
        across serial and parallel execution of the same seed.
        """
        return {
            "particles": int(self.n_particles),
            "memory": int(self.memory),
            "process_noise": np.asarray(self.process_noise).tolist(),
            "prior_mean": np.asarray(self.prior_mean).tolist(),
            "prior_cov": np.asarray(self.prior_cov).tolist(),
            "sigma_p": float(self.sigma_p),
            "sigma_p_is_variance": bool(self.sigma_p_is_variance),
            "effective_sigma_p": self.effective_sigma_p,
            "measurement_noise": np.asarray(self.measurement_noise()).tolist(),
            "alpha": float(self.sut.alpha),
            "k": float(self.sut.k),
            "beta": float(self.sut.beta),
            "resampling_delay": int(self.resampling_delay),
            "resampling": self.resampling,
            "prior_map_exponent": bool(self.prior_map_exponent),
            "transition_density_in_weights": bool(self.transition_density_in_weights),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class StepSnapshot:
    """Pre-resampling quantities of the latest step, kept for extraction."""

    t: int
    sampled: np.ndarray          # (N, 6) proposal draws xhat_t
    cov_vecs: np.ndarray         # (N, 6, 6) eigenvectors of P_t
    cov_evals: np.ndarray        # (N, 6) eigenvalues floored for densities
    log_proposal: np.ndarray     # (N,) log N(xhat; xbar, P)
    weights: np.ndarray          # (N,) normalized propagated weights w~_t
    log_weights: np.ndarray      # (N,) log of the above, -inf where zero
    window: list                 # [(k, y_k)] covering kbar(t)..t


@dataclass
class FilterState:
    means: np.ndarray            # (N, 6) particle means x_{t|t}
    covs: np.ndarray             # (N, 6, 6) particle covariances P_{t|t}
    weights: np.ndarray          # (N,) importance weights (sum to 1)
    sampled: np.ndarray          # (N, 6) latest proposal draws
    t: int
    history: list                # [(k, y_k)] last <= memory measurements
    last_update: StepSnapshot | None = None

    @property
    def n_particles(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PoseEstimate:
    """MAP readout: one of the sampled candidate poses, uncanonicalized."""

    pose: Pose
    map_score: float             # log mixture density at the winning candidate
    extraction_weights: np.ndarray


def window_span(t: int, memory: int) -> range:
    """Measurement indices rated at step ``t``: max(t-m+1, 1) .. t."""
    return range(max(t - memory + 1, 1), t + 1)


def extraction_exponents(t: int, memory: int) -> dict[int, int]:
    """Likelihood exponents applied by extraction at step ``t``.

    Together with the power ``min(t - k + 1, m)`` accumulated by the
    propagated weights, measurement k reaches a total power of ``m``.
    """
    return {k: memory - t + k - 1 for k in window_span(t, memory)}


def _rng_for_step(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                        spawn_key=(int(t),)))


def _symmetrize(mats: np.ndarray) -> np.ndarray:
    return 0.5 * (mats + np.swapaxes(mats, -1, -2))


def _factor_covariances(covs: np.ndarray):
    """Eigendecompositions with sampling (>=0) and density (floored) spectra."""
    evals, vecs = np.linalg.eigh(_symmetrize(covs))
    evals_sample = np.clip(evals, 0.0, None)
    evals_density = np.clip(evals, _DENSITY_EIG_FLOOR, None)
    return vecs, evals_sample, evals_density


def _log_gauss_factored(diff: np.ndarray, vecs: np.ndarray,
                        evals: np.ndarray) -> np.ndarray:
    """log N(diff; 0, V diag(evals) V^T) for per-row factors."""
    dim = diff.shape[-1]
    u = np.einsum("baj,ba->bj", vecs, diff)
    maha = np.einsum("bj,bj->b", u * u, 1.0 / evals)
    logdet = np.log(evals).sum(axis=-1)
    return -0.5 * (dim * _LN_2PI + logdet + maha)


def _log_gauss_shared(diff: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """log N(diff; 0, cov) for one shared covariance, floored spectrum."""
    dim = diff.shape[-1]
    evals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    evals = np.clip(evals, _DENSITY_EIG_FLOOR, None)
    u = diff @ vecs
    maha = ((u * u) / evals).sum(axis=-1)
    return -0.5 * (dim * _LN_2PI + float(np.log(evals).sum()) + maha)


def _normalize_log_weights(lw: np.ndarray):
    """Exp-normalize with max subtraction.

    Returns ``(weights, log_weights, degenerate)``.  Log weights are
    normalized in log space, so entries that underflow to zero linear
    weight keep a finite-math -inf log weight instead of tripping a
    log-of-zero warning downstream.
    """
    if np.isnan(lw).any():
        raise FloatingPointError("non-finite log-weights in update")
    top = lw.max()
    if not np.isfinite(top):
        n = len(lw)
        return np.full(n, 1.0 / n), np.full(n, -np.log(n)), True
    shifted = np.exp(lw - top)
    total = shifted.sum()
    return shifted / total, lw - top - np.log(total), False


def _resample_indices(rng: np.random.Generator, weights: np.ndarray,
                      scheme: str) -> np.ndarray:
    n = len(weights)
    p = weights / weights.sum()
    if scheme == "systematic":
        positions = (rng.random() + np.arange(n)) / n
        return np.minimum(np.searchsorted(np.cumsum(p), positions), n - 1)
    return rng.choice(n, size=n, replace=True, p=p)


def _chunk_bounds(n: int, workers: int) -> list[tuple[int, int]]:
    per = -(-n // workers)
    return [(s, min(n, s + per)) for s in range(0, n, per)]


def _parallel_slices(fn, n_items: int, n_workers: int):
    """Apply ``fn(lo, hi)`` over contiguous slices and collect in order."""
    if n_workers <= 1 or n_items <= 1:
        return [fn(0, n_items)]
    bounds = _chunk_bounds(n_items, n_workers)
    with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
        return list(pool.map(lambda b: fn(*b), bounds))


def init(config: FilterConfig) -> FilterState:
    """Draw the initial particle population.

    Particles are sampled from the Gaussian prior; with
    ``prior_map_exponent`` enabled, the draw covariance is ``prior_cov / m``
    so that the population density is the prior raised to the m-th power
    (which is what makes the MAP readout weight the prior on par with each
    windowed measurement).  Per-particle covariances start at ``prior_cov``
    itself either way.
    """
    config.validate()
    n = config.n_particles
    draw_cov = np.asarray(config.prior_cov, dtype=float)
    if config.prior_map_exponent:
        draw_cov = draw_cov / config.memory
    vecs, evals_sample, _ = _factor_covariances(draw_cov[None, :, :])
    scale = vecs[0] * np.sqrt(evals_sample[0])[None, :]
    rng = _rng_for_step(config.seed, 0)
    z = rng.standard_normal((n, 6))
    draws = np.asarray(config.prior_mean, dtype=float) + z @ scale.T
    return FilterState(
        means=draws,
        covs=np.tile(np.asarray(config.prior_cov, dtype=float), (n, 1, 1)),
        weights=np.full(n, 1.0 / n),
        sampled=draws.copy(),
        t=0,
        history=[],
        last_update=None,
    )


def _correct_and_sample(state: FilterState, y: np.ndarray, model,
                        config: FilterConfig, rng: np.random.Generator):
    """Shared first half of a step: UKF correction and proposal draws."""
    Q = np.asarray(config.process_noise, dtype=float)
    R = config.measurement_noise()

    def ukf_slice(lo, hi):
        return ukf_step_batch(state.means[lo:hi], state.covs[lo:hi], y, model,
                              Q, R=R, sut=config.sut)
    parts = _parallel_slices(ukf_slice, state.n_particles, config.n_workers)
    ukf_means = np.concatenate([p[0] for p in parts])
    ukf_covs = np.concatenate([p[1] for p in parts])

    vecs, evals_sample, evals_density = _factor_covariances(ukf_covs)
    z = rng.standard_normal((state.n_particles, 6))
    scale = vecs * np.sqrt(evals_sample)[:, None, :]
    sampled = ukf_means + np.einsum("bij,bj->bi", scale, z)
    log_q = _log_gauss_factored(sampled - ukf_means, vecs, evals_density)
    return ukf_covs, vecs, evals_density, sampled, log_q


def _window_loglik(model, window: list, sampled: np.ndarray,
                   n_workers: int) -> np.ndarray:
    ys = np.asarray([y for _, y in window], dtype=float)

    def ll_slice(lo, hi):
        return log_likelihood_batch(model, ys, sampled[lo:hi])
    return np.concatenate(_parallel_slices(ll_slice, len(sampled), n_workers))


def step(state: FilterState, y: np.ndarray, model, config: FilterConfig):
    """Advance the filter by one measurement.

    Returns ``(new_state, diagnostics)``; the input state is not mutated.
    Diagnostics carry the rated window, effective sample size, and whether
    resampling ran or the weights degenerated (all-underflow weights are
    reset to uniform and flagged rather than raised).
    """
    y = np.asarray(y, dtype=float).reshape(3)
    t = state.t + 1
    rng = _rng_for_step(config.seed, t)
    window = (state.history + [(t, y)])[-config.memory:]

    ukf_covs, vecs, evals_density, sampled, log_q = \
        _correct_and_sample(state, y, model, config, rng)

    ll = _window_loglik(model, window, sampled, config.n_workers)
    ll_sum = ll.sum(axis=1)
    lw = np.log(state.weights) + ll_sum - log_q
    if config.transition_density_in_weights:
        lw = lw + _log_gauss_shared(sampled - state.means,
                                    np.asarray(config.process_noise, dtype=float))
    weights_t, log_weights_t, degenerate = _normalize_log_weights(lw)
    if degenerate:
        logger.warning("step %d: all importance weights underflowed; "
                       "resetting to uniform", t)

    snapshot = StepSnapshot(
        t=t, sampled=sampled, cov_vecs=vecs,
        cov_evals=evals_density, log_proposal=log_q, weights=weights_t,
        log_weights=log_weights_t, window=list(window),
    )

    resampled = t > config.resampling_delay
    if resampled:
        idx = _resample_indices(rng, weights_t, config.resampling)
        new_means = sampled[idx]
        new_covs = ukf_covs[idx]
        unique_parents = int(len(np.unique(idx)))
    else:
        new_means = sampled
        new_covs = ukf_covs
        unique_parents = state.n_particles

    diagnostics = {
        "t": t,
        "window": [k for k, _ in window],
        "ess": float(1.0 / np.sum(weights_t ** 2)),
        "resampled": bool(resampled),
        "degenerate": bool(degenerate),
        "unique_parents": unique_parents,
    }
    new_state = FilterState(
        means=new_means, covs=new_covs,
        weights=np.full(state.n_particles, 1.0 / state.n_particles),
        sampled=sampled, t=t, history=list(window), last_update=snapshot,
    )
    return new_state, diagnostics


def extract_pose(state: FilterState, model, config: FilterConfig) -> PoseEstimate:
    """MAP pose readout from the latest step's pre-resampling snapshot.

    Re-rates the sampled candidates with the extraction exponents, then
    evaluates the weighted Gaussian-mixture density at every candidate and
    returns the maximizer.  Does not modify the filter state.
    """
    snap = state.last_update
    if snap is None:
        raise ValueError("extract_pose needs at least one processed measurement")

    exps = extraction_exponents(snap.t, config.memory)
    exp_vec = np.asarray([float(exps[k]) for k, _ in snap.window])
    ll = _window_loglik(model, snap.window, snap.sampled, config.n_workers)
    lw = snap.log_weights + ll @ exp_vec - snap.log_proposal
    wbar, log_wbar, degenerate = _normalize_log_weights(lw)
    if degenerate:
        logger.warning("extraction weights underflowed at step %d; "
                       "falling back to uniform", snap.t)

    n = len(snap.sampled)
    logdet = np.log(snap.cov_evals).sum(axis=1)       # (N,) per component
    inv_evals = 1.0 / snap.cov_evals
    log_density = np.empty(n)
    for lo in range(0, n, _EXTRACT_CHUNK):
        hi = min(n, lo + _EXTRACT_CHUNK)
        diff = snap.sampled[None, lo:hi, :] - snap.sampled[:, None, :]
        u = np.einsum("iab,ija->ijb", snap.cov_vecs, diff)
        maha = np.einsum("ijb,ib->ij", u * u, inv_evals)
        logcomp = -0.5 * (6.0 * _LN_2PI + logdet[:, None] + maha)
        mix = log_wbar[:, None] + logcomp
        top = mix.max(axis=0)
        log_density[lo:hi] = top + np.log(np.exp(mix - top[None, :]).sum(axis=0))

    best = int(np.argmax(log_density))
    return PoseEstimate(pose=Pose.from_array(snap.sampled[best]),
                        map_score=float(log_density[best]),
                        extraction_weights=wbar)


def run(measurements: np.ndarray, model, config: FilterConfig,
        truth: Pose | None = None):
    """Feed all measurements through the filter.

    Returns ``(estimates, report)``: the per-step MAP estimates and a
    :class:`TrialReport` with the performance-index trace.  ``truth``
    switches the success criterion from index-based to pose-error-based.
    """
    measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
    if measurements.ndim != 2 or measurements.shape[0] < 1 or measurements.shape[1] != 3:
        raise ValueError("measurements must have shape (L, 3) with L >= 1")
    if not np.isfinite(measurements).all():
        raise ValueError("measurements must be finite")

    started = time.perf_counter()
    state = init(config)
    estimates: list[PoseEstimate] = []
    index_trace: list[float] = []
    degenerate_steps: list[int] = []
    for k, y in enumerate(measurements, start=1):
        state, diag = step(state, y, model, config)
        if diag["degenerate"]:
            degenerate_steps.append(k)
        est = extract_pose(state, model, config)
        estimates.append(est)
        # Rated against the whole contact set: an offline diagnostic whose
        # trace decreases as the estimate converges.
        index_trace.append(performance_index(measurements, est.pose, model.mesh))
    elapsed = time.perf_counter() - started

    final_pose = estimates[-1].pose.canonical()
    position_error = orientation_error = None
    if truth is not None:
        position_error, orientation_error = pose_error(final_pose, truth)
    report = TrialReport(
        estimate=final_pose,
        index_trace=index_trace,
        final_index=index_trace[-1],
        position_error=position_error,
        orientation_error=orientation_error,
        elapsed=elapsed,
        success=False,
        seed=int(config.seed),
        degenerate_steps=degenerate_steps,
    )
    report.success = success_test(report, truth=truth)
    return estimates, report
