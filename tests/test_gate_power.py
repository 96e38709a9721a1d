"""Each fast acceptance check reports not ok under one plausible defect.

A gate that passes on broken code shows nothing, so every check of
criteria 1 to 5, 9 and 10 is run here with a defect monkeypatched into the
code it guards, and must fail.  So must the rescue tests of
`sigma_points_batch`'s clipped-eigenvalue factor, run without it, and the
tests that hold the readout and the closest-point ties to their oracles,
`map_readout` and `closest_points_exhaustive`.
"""

import dataclasses
import os
import types

import numpy as np
import pytest

import test_acceptance
import test_geometry
import test_mupf
from test_acceptance import (
    check_distance_queries_match_brute_force,
    check_each_measurement_rated_in_m_updates,
    check_memoryless_filter_reduces_to_upf,
    check_pinned_steps_need_no_density_floor,
    check_reports_identical_across_scheduling,
    check_ukf_matches_linear_kalman,
    check_unscented_affine_exactness,
    check_window_weights_match_the_paper,
)
from test_construction import FAR_PRIOR, ZERO_PRIOR, _runs_to_finite_estimates

import meshloc.cli as cli
from meshloc import mupf, unscented
from meshloc.geometry import TriMesh, closest_point_on_triangles

_PYTEST_PID = os.getpid()
_batch_trial = cli._batch_trial


def _trial_that_knows_its_process(trial):
    """A batch trial whose seed moves in any process but the test's.

    Module-level, so the pool pickles it by reference; the pool forks after
    the test patches it in.
    """
    report = _batch_trial(trial)
    report.seed += os.getpid() != _PYTEST_PID
    return report


def test_criterion_1_fails_on_a_wrong_centre_weight(monkeypatch):
    weights = unscented._weights

    def wrong_centre(n):
        w_mean, w_cov = weights(n)
        w_mean[0] += 0.05
        return w_mean, w_cov

    monkeypatch.setattr(unscented, "_weights", wrong_centre)
    ok, detail = check_unscented_affine_exactness()
    assert not ok, detail


def test_criterion_2_fails_on_a_traversal_that_stops_at_the_first_leaf(monkeypatch):
    def first_leaf_only(self, Q):
        # The greedy descent of `_traverse` without its frontier phase.
        nearest = np.zeros(len(Q), dtype=np.int64)
        for _ in range((len(self.leaves) - 1).bit_length()):
            lo = 2 * nearest + 1
            dist = [np.einsum("ij,ij->i", d, d) for d in (
                Q - np.clip(Q, self.bbox_min[node], self.bbox_max[node])
                for node in (lo, lo + 1))]
            nearest = np.where(dist[1] < dist[0], lo + 1, lo)
        return self._leaf_minima(Q, np.arange(len(Q)), nearest)

    monkeypatch.setattr(TriMesh, "_traverse", first_leaf_only)
    ok, detail = check_distance_queries_match_brute_force()
    assert not ok, detail


def test_criterion_2_fails_on_a_leaf_pass_that_stops_after_the_first_faces(monkeypatch):
    def seed_face_only(self, Q, qi, nodes):
        # `_leaf_minima`'s first pass without its second: the kernel on each
        # query's one face of least bound, and nothing else.
        leaf = nodes - (len(self.leaves) - 1)
        q = Q[qi]
        lo, hi = (np.take(box, leaf, axis=0) for box in self._face_boxes)
        diff = q[:, None, :] - np.minimum(np.maximum(q[:, None, :], lo), hi)
        slot = np.argmin(np.einsum("nwi,nwi->nw", diff, diff), axis=1)
        pts, d2 = closest_point_on_triangles(
            q, *(block[leaf, slot] for block in self._corners))
        return d2, self.leaves[leaf, slot], pts

    monkeypatch.setattr(TriMesh, "_leaf_minima", seed_face_only)
    ok, detail = check_distance_queries_match_brute_force()
    assert not ok, detail


def test_criterion_3_fails_with_R_left_out_of_S(monkeypatch):
    # The check's UKF sees its model with no contact noise, so S = P_y.
    correct = test_acceptance.ukf_step_batch

    def noiseless(means, covs, y, model, Q):
        model = types.SimpleNamespace(predict_batch=model.predict_batch, sigma_p=0.0)
        return correct(means, covs, y, model, Q)

    monkeypatch.setattr(test_acceptance, "ukf_step_batch", noiseless)
    ok, detail = check_ukf_matches_linear_kalman()
    assert not ok, detail


def test_criterion_4_fails_without_the_transition_density(monkeypatch):
    real_step = mupf.step

    def step_without_density(state, y, model, config):
        return real_step(state, y, model, dataclasses.replace(
            config, transition_density_in_weights=False))

    monkeypatch.setattr(mupf, "step", step_without_density)
    ok, detail = check_memoryless_filter_reduces_to_upf()
    assert not ok, detail


def test_criterion_4_fails_when_step_gathers_by_the_wrong_index(monkeypatch):
    correct = mupf.ukf_step_batch

    def rolled(*args, **kwargs):
        means, covs = correct(*args, **kwargs)
        return np.roll(means, 1, axis=0), np.roll(covs, 1, axis=0)

    monkeypatch.setattr(mupf, "ukf_step_batch", rolled)
    ok, detail = check_memoryless_filter_reduces_to_upf()
    assert not ok, detail


def test_criterion_4_pinned_steps_fail_with_the_density_floor_at_1e_6(monkeypatch):
    monkeypatch.setattr(mupf, "_DENSITY_EIG_FLOOR", 1e-6)
    ok, detail = check_pinned_steps_need_no_density_floor()
    assert not ok, detail


def test_criterion_4_pinned_steps_fail_on_a_floor_the_constant_hides(monkeypatch):
    # The same floor inside the factorization, with the constant left at
    # 1e-12: only the comparison with the oracle's full Gaussian sees it.
    factor = mupf._factor_covariances

    def floored(covs):
        scale, vecs, evals = factor(covs)
        return scale, vecs, np.clip(evals, 1e-6, None)

    monkeypatch.setattr(mupf, "_factor_covariances", floored)
    ok, detail = check_pinned_steps_need_no_density_floor()
    assert not ok, detail


def test_criterion_5_fails_on_a_window_one_contact_longer(monkeypatch):
    real_step = mupf.step

    def step_with_longer_window(state, y, model, config):
        return real_step(state, y, model, dataclasses.replace(
            config, memory=config.memory + 1))

    monkeypatch.setattr(mupf, "step", step_with_longer_window)
    ok, detail = check_each_measurement_rated_in_m_updates()
    assert not ok, detail


def _propose_rating_weights_by(pick):
    """``mupf._propose`` whose weights see only ``pick(ll, config)`` of
    the window likelihoods ``ll``; the rated window is unchanged."""
    propose = mupf._propose

    def defective(state, window, model, config, z):
        *rest, ll = propose(state, window, model, config, z)
        return (*rest, pick(ll, config))

    return defective


@pytest.mark.parametrize("pick", [
    lambda ll, config: ll[:, -1:],
    lambda ll, config: ll[:, -(config.memory - 1):],
], ids=["newest-contact-only", "weight-window-one-shorter"])
def test_criterion_10_fails_on_weights_that_miss_the_window(pick, monkeypatch):
    monkeypatch.setattr(mupf, "_propose", _propose_rating_weights_by(pick))
    ok, detail = check_window_weights_match_the_paper()
    assert not ok, detail


def test_criterion_10_fails_on_readout_exponents_shifted_by_one(monkeypatch):
    extract = mupf.extract_pose

    def shifted(state, model, config):
        # One more power of every window likelihood: exponents m - t + k.
        ll = mupf.log_likelihood_batch(model, state.window, state.sampled)
        return extract(dataclasses.replace(
            state, log_weights=state.log_weights + ll.sum(axis=1)), model, config)

    monkeypatch.setattr(mupf, "extract_pose", shifted)
    ok, detail = check_window_weights_match_the_paper()
    assert not ok, detail


def test_criterion_9_fails_on_a_trial_that_depends_on_its_process(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_batch_trial", _trial_that_knows_its_process)
    ok, detail = check_reports_identical_across_scheduling(tmp_path, monkeypatch)
    assert not ok, detail


@pytest.mark.parametrize("profile", [FAR_PRIOR, ZERO_PRIOR], ids=["far", "zero"])
def test_rescue_profiles_fail_under_plain_cholesky(profile, monkeypatch):
    monkeypatch.setattr(unscented, "_psd_sqrt", np.linalg.cholesky)
    with pytest.raises(np.linalg.LinAlgError):
        _runs_to_finite_estimates(profile)


def test_dense_readout_test_fails_when_the_bound_drops_a_live_component(monkeypatch):
    # Margin 0 drops every component whose bound lies below the least
    # column maximum, although its terms are not 0.0.
    monkeypatch.setattr(mupf, "_UNDERFLOW_MARGIN", 0.0)
    with pytest.raises(AssertionError):
        test_mupf.TestExtraction().test_overlapping_components_all_count()


def test_tie_test_fails_when_ties_go_to_the_highest_face(monkeypatch):
    closest = TriMesh.closest_points

    def highest_face_wins(self, Q):
        # The same query on the faces in reverse order, indices mapped back.
        d, points, faces = closest(TriMesh(self.vertices, self.faces[::-1]), Q)
        return d, points, self.n_faces - 1 - faces

    monkeypatch.setattr(TriMesh, "closest_points", highest_face_wins)
    with pytest.raises(AssertionError):
        test_geometry.TestExhaustiveParity().test_exact_ties_go_to_lowest_face_across_leaves()
