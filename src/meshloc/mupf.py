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

from .errors import InvalidConfigError, MeshlocError, as_real, check_square, is_int
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


# Profile keys that `FilterConfig.from_mapping` reads and `to_dict` writes,
# each stated once and grouped by how it is read and checked: a count maps
# to a field and holds its least value, a flag is true or false, a matrix
# may also be given as its ``_diag``.  `_PROFILE_KEYS` is every key a
# profile may set.
_PROFILE_COUNTS = {"particles": ("n_particles", 1), "memory": ("memory", 1),
                   "resampling_delay": ("resampling_delay", 0),
                   "seed": ("seed", 0)}
_PROFILE_FLAGS = ("transition_density_in_weights",)
_PROFILE_MATRICES = {"process_noise": 6, "prior_cov": 6}
_PROFILE_KEYS = frozenset({
    *_PROFILE_COUNTS, *_PROFILE_FLAGS, "sigma_p", "prior_mean",
    *(key + suffix for key in _PROFILE_MATRICES for suffix in ("", "_diag"))})


def _label(key: str, name: str) -> str:
    """A profile key as errors name it, with the field where the two differ."""
    return key + ("" if key == name else f" ({name})")


@dataclass(frozen=True)
class FilterConfig:
    """Filter parameters.  Defaults are the desk-scale simulation profile.

    Every value is converted and checked when the config is built, so a
    config that exists is one the filter accepts: ``sigma_p`` is a float,
    the vector and matrices are read-only float arrays, and an integral
    float count is an int.

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

        def convert(key, what, shape):
            object.__setattr__(self, key, as_real(getattr(self, key), key, what, shape))

        for key, dim in _PROFILE_MATRICES.items():
            convert(key, f"a {dim}x{dim} matrix", (dim, dim))
        convert("prior_mean", "a list of 6 numbers", (6,))
        convert("sigma_p", "a number", ())
        for name, _ in _PROFILE_COUNTS.values():
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                object.__setattr__(self, name, int(value))
        self.validate()

    def validate(self) -> None:
        """Raise `InvalidConfigError` naming the profile key at fault, with
        the field name in parentheses where the two differ."""
        for key, (name, low) in _PROFILE_COUNTS.items():
            value = getattr(self, name)
            if not (is_int(value) and value >= low):
                raise InvalidConfigError(f"{_label(key, name)} must be an integer >= {low}")
        if self.n_particles > _MAX_PARTICLES:
            raise InvalidConfigError(f"particles (n_particles) must be at most {_MAX_PARTICLES}")
        if self.memory > _MAX_MEMORY:
            raise InvalidConfigError(f"memory must be at most 2**53 ({_MAX_MEMORY})")
        for key in _PROFILE_FLAGS:
            if not isinstance(getattr(self, key), (bool, np.bool_)):
                raise InvalidConfigError(f"{key} must be true or false")
        check_square(self.sigma_p, "sigma_p")
        if not np.isfinite(self.prior_mean).all():
            raise InvalidConfigError("prior_mean must be a finite 6-vector")
        for key, dim in _PROFILE_MATRICES.items():
            m = getattr(self, key)
            if not np.isfinite(m).all():
                raise InvalidConfigError(f"{key}[_diag] must be a finite {dim}x{dim} matrix")
            # Finite entries of opposite sign near the float limit differ by inf.
            with np.errstate(over="ignore"):
                asymmetry = np.abs(m - m.T).max()
            if asymmetry > 1e-10:
                raise InvalidConfigError(f"{key}[_diag] must be symmetric")
            if np.linalg.eigvalsh(m)[0] < -1e-10:
                raise InvalidConfigError(f"{key}[_diag] must be positive semidefinite")

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
        for key, dim in _PROFILE_MATRICES.items():
            diag_key = key + "_diag"
            if key in mapping and diag_key in mapping:
                raise InvalidConfigError(f"{key} and {diag_key} are both given; keep one")
            if diag_key in mapping:
                kwargs[key] = np.diag(as_real(mapping[diag_key], diag_key,
                                              f"a list of {dim} numbers", (dim,)))
        names = {key: name for key, (name, _) in _PROFILE_COUNTS.items()}
        names |= {key: key for key in (*_PROFILE_FLAGS, *_PROFILE_MATRICES,
                                       "prior_mean", "sigma_p")}
        kwargs |= {name: mapping[key] for key, name in names.items() if key in mapping}
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Fully resolved configuration for report embedding: each profile
        key, matrices in full, so that `from_mapping` reads it back to the
        same config.
        """
        out = {key: int(getattr(self, name)) for key, (name, _) in _PROFILE_COUNTS.items()}
        out |= {key: bool(getattr(self, key)) for key in _PROFILE_FLAGS}
        out |= {key: getattr(self, key).tolist() for key in _PROFILE_MATRICES}
        return out | {"prior_mean": self.prior_mean.tolist(), "sigma_p": self.sigma_p}


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


def _normalize_log_weights(lw: np.ndarray):
    """Exp-normalize with max subtraction.

    Returns ``(weights, log_weights, degenerate)``.  Log weights are
    normalized in log space, so an entry whose linear weight underflows to
    exactly 0.0 keeps its log weight ``lw - top - log(total)``, finite where
    ``lw`` is, not ``log(0) = -inf``.
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
    vecs, evals_sample, _ = _factor_covariances((config.prior_cov / config.memory)[None])
    scale = vecs[0] * np.sqrt(evals_sample[0])[None, :]
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
    vecs, evals_sample, evals_density = _factor_covariances(covs)
    scale = vecs * np.sqrt(evals_sample)[:, None, :]
    means, covs, vecs, evals_density, scale = (
        a[owner] for a in (means, covs, vecs, evals_density, scale))
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
    on.
    """
    y = np.asarray(y, dtype=float).reshape(3)
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
        q_vecs, _, q_evals = _factor_covariances(config.process_noise[None])
        lw = lw + _log_gauss_factored(sampled - state.sampled[state.parents],
                                      np.broadcast_to(q_vecs, (n, 6, 6)),
                                      np.broadcast_to(q_evals, (n, 6)))
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
        raise ValueError("extract_pose needs at least one processed measurement")

    # Measurement k = t-w+1..t gets exponent m - t + k - 1: with the
    # min(t - k + 1, m) powers the propagated weights hold, a total of m.
    m, w, n = config.memory, len(state.window), len(state.sampled)
    ll = log_likelihood_batch(model, state.window, state.sampled)
    lw = state.log_weights + ll @ np.arange(m - w, m, dtype=float) - state.log_proposal
    wbar, log_wbar, degenerate = _normalize_log_weights(lw)
    if degenerate:
        logger.warning("extraction weights underflowed at step %d; "
                       "falling back to uniform", state.t)

    logdet = np.log(state.cov_evals).sum(axis=1)      # (N,) per component
    inv_evals = 1.0 / state.cov_evals
    bound = log_wbar + -0.5 * (6.0 * _LN_2PI + logdet)
    support = np.flatnonzero(wbar > 0.0)

    def mix_at(comps, lo, hi):
        """Log terms (len(comps), hi - lo) of components at candidates."""
        diff = state.sampled[None, lo:hi, :] - state.sampled[comps, None, :]
        u = np.einsum("iab,ija->ijb", state.cov_vecs[comps], diff)
        maha = np.einsum("ijb,ib->ij", u * u, inv_evals[comps])
        logcomp = -0.5 * (6.0 * _LN_2PI + logdet[comps, None] + maha)
        return log_wbar[comps, None] + logcomp

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
    An estimate or index that is not finite raises `MeshlocError` naming
    the step.
    """
    measurements = np.atleast_2d(np.asarray(measurements, dtype=float))
    if measurements.ndim != 2 or measurements.shape[0] < 1 or measurements.shape[1] != 3:
        raise InvalidConfigError("measurements must have shape (L, 3) with L >= 1")
    if not np.isfinite(measurements).all():
        raise InvalidConfigError("measurements must be finite")

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
