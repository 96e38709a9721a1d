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

The initial population is drawn from ``N(prior_mean, prior_cov / m)``,
the prior raised to the m-th power, so that the MAP readout weights the
prior on par with each windowed measurement.  Multinomial resampling is
skipped for the first ``resampling_delay`` steps; weights reset to 1/N
either way, so particle multiplicity, not the weight vector, carries
information forward from one step to the next.

Determinism: every step derives its generator from ``(seed, t)`` and draws
in a fixed order, and all per-particle reductions run in particle order, so
a run is bitwise reproducible.  The state holds each step's candidates
once, with the resampling indices into them; the next step runs the UKF
correction and the covariance factorization once per distinct parent, then
the proposal draw and density and the window likelihoods once per particle,
each pass one batch on the calling thread.
"""

from __future__ import annotations

import logging
import time
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (InvalidConfigError, MeshlocError, as_contacts, as_count, as_real, as_scale,
                     is_int)
from .geometry import Pose
from .metrics import TrialReport, performance_index, pose_error, success_test
from .ukf import MeasurementModel, log_likelihood_batch, ukf_step_batch

__all__ = [
    "FilterConfig",
    "FilterState",
    "PoseEstimate",
    "init",
    "step",
    "extract_pose",
    "run",
]

logger = logging.getLogger(__name__)

_LN_2PI = float(np.log(2.0 * np.pi))
_DENSITY_EIG_FLOOR = 1e-12
_EXTRACT_CHUNK = 256
# np.exp of any float <= -_UNDERFLOW_MARGIN is exactly 0.0: exp underflows
# below about -745.13.
_UNDERFLOW_MARGIN = 746.0
# The most particles whose (N, 6, 6) covariance stack numpy can address; a
# larger population would fail inside numpy, without naming the key.
_MAX_PARTICLES = np.iinfo(np.intp).max // (36 * 8)
# The longest window that `init` and `extract_pose` count exactly as floats.
_MAX_MEMORY = 2 ** 53


def _flag(value, name: str) -> bool:
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidConfigError(f"{name} must be true or false")
    return bool(value)


def _vector(value, name: str) -> np.ndarray:
    vector = as_real(value, name, "a list of 6 numbers", (6,))
    if not np.isfinite(vector).all():
        raise InvalidConfigError(f"{name} must be a finite 6-vector")
    return vector


def _covariance(value, name: str) -> np.ndarray:
    """``value`` as a finite, symmetric, positive-semidefinite 6x6 matrix."""
    m = as_real(value, name, "a 6x6 matrix", (6, 6))
    if not np.isfinite(m).all():
        raise InvalidConfigError(f"{name}[_diag] must be a finite 6x6 matrix")
    # Finite entries of opposite sign near the float limit differ by inf.
    with np.errstate(over="ignore"):
        asymmetry = np.abs(m - m.T).max()
    if asymmetry > 1e-10:
        raise InvalidConfigError(f"{name}[_diag] must be symmetric")
    if np.linalg.eigvalsh(m)[0] < -1e-10:
        raise InvalidConfigError(f"{name}[_diag] must be positive semidefinite")
    return m


# Each profile key that `FilterConfig.from_mapping` reads and `to_dict`
# writes, stated once: the field it sets and the reader that converts and
# checks its value, naming the key (and the field, where the two differ).
_PROFILE = {
    "particles": ("n_particles",
                  lambda v: as_count(v, "particles (n_particles)", 1, _MAX_PARTICLES)),
    "memory": ("memory", lambda v: as_count(v, "memory", 1, _MAX_MEMORY)),
    "resampling_delay": ("resampling_delay", lambda v: as_count(v, "resampling_delay", 0)),
    "seed": ("seed", lambda v: as_count(v, "seed", 0)),
    "transition_density_in_weights": (
        "transition_density_in_weights", lambda v: _flag(v, "transition_density_in_weights")),
    "sigma_p": ("sigma_p", lambda v: as_scale(v, "sigma_p")),
    "prior_mean": ("prior_mean", lambda v: _vector(v, "prior_mean")),
    "process_noise": ("process_noise", lambda v: _covariance(v, "process_noise")),
    "prior_cov": ("prior_cov", lambda v: _covariance(v, "prior_cov")),
}
# Every key a profile may set: the two matrices may be given by their diagonals.
_PROFILE_KEYS = frozenset({*_PROFILE, "process_noise_diag", "prior_cov_diag"})


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.  Defaults are the desk-scale simulation profile.

    Every value is converted and checked when the config is built, by its
    key's reader in `_PROFILE`, so a config that exists is one the filter
    accepts: each count is an int, the flag a bool, ``sigma_p`` a float,
    and the vector and matrices are read-only float arrays.

    ``sigma_p`` is the likelihood's standard deviation in meters (1e-4 m
    by default, a sharp likelihood that rewards tight surface fits).
    """

    n_particles: int = 700
    memory: int = 10
    process_noise: np.ndarray = field(
        default_factory=lambda: np.diag([1e-5, 1e-5, 1e-5, 1e-4, 1e-4, 1e-4]))
    prior_mean: np.ndarray = field(default_factory=lambda: np.zeros(6))
    prior_cov: np.ndarray = field(default_factory=lambda: np.diag(
        [0.04, 0.04, 0.04, np.pi ** 2, (np.pi / 2.0) ** 2, np.pi ** 2]))
    sigma_p: float = 1e-4
    resampling_delay: int = 2
    transition_density_in_weights: bool = False
    seed: int = 0
    # Accepted only so that callers written when the filter had row
    # threads, such as the benchmark's `replace(profile, n_workers=1)`,
    # still build a config; not stored and never echoed.  Goes when no
    # caller passes it.
    n_workers: InitVar[int] = 1

    def __post_init__(self, n_workers):
        if not (is_int(n_workers) and n_workers == 1):
            raise InvalidConfigError(f"n_workers must be 1 (the filter is serial), "
                                     f"got {n_workers!r}")
        for name, read in _PROFILE.values():
            object.__setattr__(self, name, read(getattr(self, name)))

    def validate(self) -> None:
        """Raise `InvalidConfigError` naming the profile key at fault, with
        the field name in parentheses where the two differ."""
        for name, read in _PROFILE.values():
            read(getattr(self, name))

    def model_for(self, mesh) -> MeasurementModel:
        return MeasurementModel(mesh=mesh, sigma_p=self.sigma_p)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "FilterConfig":
        """Build a config from a flat mapping (the on-disk profile format).

        Only the keys the mapping sets are passed on: the defaults of
        `FilterConfig` fill in the rest, and its constructor converts and
        checks each value.  A matrix given as its ``_diag`` shorthand is
        expanded here.
        """
        unknown = set(mapping) - _PROFILE_KEYS
        if unknown:
            raise InvalidConfigError(
                f"unknown config keys: {sorted(unknown, key=str)}")
        kwargs = {}
        for key, (name, _) in _PROFILE.items():
            diag_key = key + "_diag"
            if key in mapping and diag_key in mapping:
                raise InvalidConfigError(f"{key} and {diag_key} are both given; keep one")
            if diag_key in mapping:
                kwargs[name] = np.diag(as_real(mapping[diag_key], diag_key,
                                               "a list of 6 numbers", (6,)))
            elif key in mapping:
                kwargs[name] = mapping[key]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Fully resolved configuration for report embedding: each profile
        key, matrices in full, so that `from_mapping` reads it back to the
        same config.
        """
        values = {key: getattr(self, name) for key, (name, _) in _PROFILE.items()}
        return {key: v.tolist() if isinstance(v, np.ndarray) else v
                for key, v in values.items()}


@dataclass(frozen=True)
class FilterState:
    """The filter between two measurements: one population and one index.

    ``sampled`` and ``covs`` are step ``t``'s candidates and their
    corrected covariances, in candidate order (before the first step, the
    prior draws and ``prior_cov``).  ``parents`` holds step ``t``'s
    resampling indices, ``arange(N)`` when the step did not resample:
    particle ``i`` is the Gaussian ``(sampled[parents[i]],
    covs[parents[i]])``, so the next step runs its UKF correction once per
    distinct parent.  The prior weights of the next step are always 1/N
    (resampling or not), so they are not stored.  The four fields from
    ``cov_vecs`` to ``log_weights`` complete the candidates that
    :func:`extract_pose` rates; they are ``None`` before the first step.
    """

    sampled: np.ndarray          # (N, 6) candidates xhat_t
    covs: np.ndarray             # (N, 6, 6) their corrected covariances P_t
    parents: np.ndarray          # (N,) step t's resampling indices into the candidates
    t: int
    window: np.ndarray           # (w, 3) y_k for k = t-w+1..t, w = min(t, m)
    cov_vecs: np.ndarray | None = None      # (N, 6, 6) eigenvectors of P_t
    cov_evals: np.ndarray | None = None     # (N, 6) eigenvalues floored for densities
    log_proposal: np.ndarray | None = None  # (N,) log N(xhat; xbar, P)
    log_weights: np.ndarray | None = None   # (N,) normalized log w~_t, finite at w~_t = 0

    @property
    def n_particles(self) -> int:
        return len(self.parents)


@dataclass(frozen=True)
class PoseEstimate:
    """MAP readout: one of the sampled candidate poses, uncanonicalized."""

    pose: Pose
    map_score: float             # log mixture density at the winning candidate
    extraction_weights: np.ndarray


def _rng_for_step(seed: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                        spawn_key=(int(t),)))


def _factor_covariances(covs: np.ndarray):
    """``(scale, vecs, evals)`` of one covariance or a stack: the sampling
    scale ``V sqrt(max(lambda, 0))``, and the density factors with the
    eigenvalues floored at ``_DENSITY_EIG_FLOOR``."""
    evals, vecs = np.linalg.eigh(0.5 * (covs + np.swapaxes(covs, -1, -2)))
    scale = vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]
    return scale, vecs, np.clip(evals, _DENSITY_EIG_FLOOR, None)


def _log_gauss_factored(diff: np.ndarray, vecs: np.ndarray,
                        evals: np.ndarray) -> np.ndarray:
    """log N(diff; 0, V diag(evals) V^T), the factors broadcast over ``diff``."""
    dim = diff.shape[-1]
    u = np.einsum("...aj,...a->...j", vecs, diff)
    maha = np.einsum("...j,...j->...", u * u, 1.0 / evals)
    logdet = np.log(evals).sum(axis=-1)
    return -0.5 * (dim * _LN_2PI + logdet + maha)


def _normalize_log_weights(lw: np.ndarray):
    """Exp-normalize with max subtraction.

    Returns ``(weights, log_weights, degenerate)``.  Log weights are
    normalized in log space, so an entry whose linear weight underflows to
    exactly 0.0 keeps its log weight ``lw - top - log(total)``, finite where
    ``lw`` is, not ``log(0) = -inf``.
    """
    if np.isnan(lw).any():
        raise MeshlocError("non-finite log-weights in update")
    top = lw.max()
    if not np.isfinite(top):
        n = len(lw)
        return np.full(n, 1.0 / n), np.full(n, -np.log(n)), True
    shifted = np.exp(lw - top)
    total = shifted.sum()
    return shifted / total, lw - top - np.log(total), False


def _resample_indices(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    """Multinomial resampling: N parent indices drawn with probabilities ``weights``."""
    n = len(weights)
    return rng.choice(n, size=n, replace=True, p=weights / weights.sum())


def init(config: FilterConfig) -> FilterState:
    """Draw the initial particle population.

    Particles are sampled from the Gaussian prior with covariance
    ``prior_cov / m``, so that the population density is the prior raised
    to the m-th power (which is what makes the MAP readout weight the prior
    on par with each windowed measurement).  Per-particle covariances start
    at ``prior_cov`` itself, and each draw is its own parent.
    """
    n = config.n_particles
    scale, _, _ = _factor_covariances(config.prior_cov / config.memory)
    rng = _rng_for_step(config.seed, 0)
    z = rng.standard_normal((n, 6))
    draws = config.prior_mean + z @ scale.T
    return FilterState(sampled=draws, covs=np.tile(config.prior_cov, (n, 1, 1)),
                       parents=np.arange(n), t=0, window=np.empty((0, 3)))


def _propose(state: FilterState, window: np.ndarray, model,
             config: FilterConfig, z: np.ndarray):
    """The UKF once per distinct parent, then one pass over the population.

    The UKF correction against the newest contact ``window[-1]``, with
    contact noise ``model.sigma_p^2 I`` at the likelihood's scale, and the
    covariance factorization run on the candidates that ``state.parents``
    names, once each, and are gathered to the particles by the inverse
    index; both are row-independent, so this is bitwise one UKF per
    particle.  Each particle then draws its candidate from its corrected
    Gaussian with the standard normals ``z`` and rates it against every
    contact of ``window``.  Returns ``(covs, cov_vecs, cov_evals, sampled,
    log_proposal, loglik)``; ``loglik`` is (N, w).
    """
    rows, owner = np.unique(state.parents, return_inverse=True)
    R = model.sigma_p ** 2 * np.eye(3)
    means, covs = ukf_step_batch(state.sampled[rows], state.covs[rows], window[-1],
                                 model, config.process_noise, R=R)
    scale, vecs, evals_density = _factor_covariances(covs)
    means, covs, scale, vecs, evals_density = (
        a[owner] for a in (means, covs, scale, vecs, evals_density))
    sampled = means + np.einsum("bij,bj->bi", scale, z)
    log_q = _log_gauss_factored(sampled - means, vecs, evals_density)
    ll = log_likelihood_batch(model, window, sampled)
    return covs, vecs, evals_density, sampled, log_q, ll


def step(state: FilterState, y: np.ndarray, model, config: FilterConfig):
    """Advance the filter by one measurement.

    Returns ``(new_state, diagnostics)``; the input state is not mutated.
    Diagnostics carry the rated window, effective sample size, and whether
    resampling ran or the weights degenerated (all-underflow weights are
    reset to uniform and flagged rather than raised).  The new state holds
    the step's candidates and its resampling indices, ``arange(N)`` when it
    did not resample.  ``unique_parents`` counts the distinct indices,
    which is also the number of rows the next step's UKF correction runs
    on.  A ``y`` that is not one finite contact, of shape (3,) or (1, 3),
    raises `InvalidConfigError` naming ``y``.
    """
    y = as_contacts(y, "y", one=True)
    n = state.n_particles
    t = state.t + 1
    rng = _rng_for_step(config.seed, t)
    window = np.vstack((state.window, y))[-config.memory:]
    z = rng.standard_normal((n, 6))   # the step's first draw: the UKF draws nothing
    covs, vecs, evals_density, sampled, log_q, ll = _propose(state, window, model, config, z)
    ll_sum = ll.sum(axis=1)
    # The prior weights are all 1/N.  This scalar equals every element of
    # np.log(np.full(n, 1.0 / n)) (numpy 2.4, n < 5000), so lw is bitwise
    # the weight recursion with a uniform weight vector.
    lw = np.log(1.0 / n) + ll_sum - log_q
    if config.transition_density_in_weights:
        _, q_vecs, q_evals = _factor_covariances(config.process_noise)
        lw = lw + _log_gauss_factored(sampled - state.sampled[state.parents],
                                      q_vecs, q_evals)
    weights_t, log_weights_t, degenerate = _normalize_log_weights(lw)
    if degenerate:
        logger.warning("step %d: all importance weights underflowed; "
                       "resetting to uniform", t)

    resampled = t > config.resampling_delay
    parents = _resample_indices(rng, weights_t) if resampled else np.arange(n)

    diagnostics = {
        "t": t,
        "window": range(t - len(window) + 1, t + 1),
        "ess": float(1.0 / np.sum(weights_t ** 2)),
        "resampled": bool(resampled),
        "degenerate": bool(degenerate),
        "unique_parents": len(np.unique(parents)),
    }
    new_state = FilterState(
        sampled=sampled, covs=covs, parents=parents, t=t, window=window,
        cov_vecs=vecs, cov_evals=evals_density, log_proposal=log_q,
        log_weights=log_weights_t,
    )
    return new_state, diagnostics


def extract_pose(state: FilterState, model, config: FilterConfig) -> PoseEstimate:
    """MAP pose readout from the latest step's pre-resampling candidates.

    Re-rates the sampled candidates with the extraction exponents, then
    evaluates the weighted Gaussian-mixture density at every candidate and
    returns the maximizer.  Does not modify the filter state.

    The density is evaluated over its effective support, and the result is
    bitwise that of all N components.  Component i's log term ``mix_ij`` at
    any candidate j is at most ``bound_i = log_wbar_i - 0.5 (6 ln 2pi +
    logdet_i)``: the Mahalanobis term is >= 0 and float rounding is
    monotone.  For each chunk of candidates, the components with
    ``wbar_i > 0`` give ``low``, a lower bound of every column maximum
    ``top_j``.  A component with ``bound_i - low < -_UNDERFLOW_MARGIN``
    then has ``mix_ij - top_j < -_UNDERFLOW_MARGIN`` in floats, so its term
    ``exp(mix_ij - top_j)`` is exactly 0.0 at every candidate of the chunk,
    and is left out.  The
    kept components run in ascending index order, so ``top`` and the
    column sums are those of the dense loop, bit for bit; where the bound
    keeps every component, the chunk is the dense chunk.
    """
    if state.t == 0:
        raise InvalidConfigError("extract_pose needs at least one processed measurement")

    # Measurement k = t-w+1..t gets exponent m - t + k - 1: with the
    # min(t - k + 1, m) powers the propagated weights hold, a total of m.
    m, w, n = config.memory, len(state.window), len(state.sampled)
    ll = log_likelihood_batch(model, state.window, state.sampled)
    exps = np.arange(m - w, m, dtype=float)
    # A full window's oldest contact weighs 0, even where its likelihood is -inf.
    lw = state.log_weights + np.where(exps > 0, ll, 0.0) @ exps - state.log_proposal
    wbar, log_wbar, degenerate = _normalize_log_weights(lw)
    if degenerate:
        logger.warning("extraction weights underflowed at step %d; "
                       "falling back to uniform", state.t)

    # Each component's term at its own mean, where the Mahalanobis term is 0.
    bound = log_wbar + _log_gauss_factored(np.zeros((n, 6)), state.cov_vecs,
                                           state.cov_evals)
    support = np.flatnonzero(wbar > 0.0)

    def mix_at(comps, lo, hi):
        """Log terms (len(comps), hi - lo) of components at candidates."""
        diff = state.sampled[None, lo:hi, :] - state.sampled[comps, None, :]
        return log_wbar[comps, None] + _log_gauss_factored(
            diff, state.cov_vecs[comps, None], state.cov_evals[comps, None])

    log_density = np.empty(n)
    for lo in range(0, n, _EXTRACT_CHUNK):
        hi = min(n, lo + _EXTRACT_CHUNK)
        low = mix_at(support, lo, hi).max(axis=0).min()
        # Written so that a NaN keeps the component.
        mix = mix_at(np.flatnonzero(~(bound - low < -_UNDERFLOW_MARGIN)), lo, hi)
        top = mix.max(axis=0)
        log_density[lo:hi] = top + np.log(np.exp(mix - top[None, :]).sum(axis=0))

    best = int(np.argmax(log_density))
    return PoseEstimate(pose=Pose.from_array(state.sampled[best]),
                        map_score=float(log_density[best]),
                        extraction_weights=wbar)


def run(measurements: np.ndarray, model, config: FilterConfig,
        truth: Pose | None = None):
    """Feed all measurements through the filter.

    Returns ``(estimates, report)``: the per-step MAP estimates and a
    :class:`TrialReport` with the performance-index trace.  ``truth``
    switches the success criterion from index-based to pose-error-based.
    Measurements that are not an (L, 3) array of finite numbers with
    L >= 1 raise `InvalidConfigError`; an estimate or index that is not
    finite raises `MeshlocError` naming the step.
    """
    measurements = as_contacts(measurements, "measurements")

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
        index = performance_index(measurements, est.pose, model.mesh)
        pose = est.pose.to_array()
        if not (np.isfinite(pose).all() and np.isfinite(index)):
            raise MeshlocError(f"step {k}: estimate {pose.tolist()} "
                               f"or its performance index {index!r} is not finite")
        index_trace.append(index)
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
