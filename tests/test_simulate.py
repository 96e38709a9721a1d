"""Tests for contact sampling and measurement file round trips."""

import json
import re

import numpy as np
import pytest

from meshloc import (
    InvalidConfigError,
    InvalidFaceSubsetError,
    Pose,
    ScenarioSpec,
    box_mesh,
    read_ground_truth_json,
    read_measurements_csv,
    sample_contacts,
    write_ground_truth_json,
    write_measurements_csv,
)
from meshloc.geometry import closest_point_on_triangles


def _spec(**kw):
    defaults = dict(mesh_path=None,
                    true_pose=Pose.from_array(np.zeros(6)),
                    n_measurements=20, noise_sigma=0.0, seed=0)
    defaults.update(kw)
    return ScenarioSpec(**defaults)


class TestSampleContacts:
    def test_noiseless_points_lie_on_surface(self, box):
        pose = Pose.from_array(np.array([0.1, -0.05, 0.02, 0.7, -0.3, 1.1]))
        meas, contacts = sample_contacts(_spec(true_pose=pose, n_measurements=64), box)
        assert np.array_equal(meas, contacts)
        local = (contacts - pose.translation()) @ pose.rotation()
        d, _, _ = box.closest_points(local)
        assert d.max() < 1e-9

    def test_single_face_subset_stays_on_that_face(self, box):
        spec = _spec(n_measurements=128, face_subset=(7,))
        _, contacts = sample_contacts(spec, box)
        face = box.faces[7]
        a = np.tile(box.vertices[face[0]], (len(contacts), 1))
        b = np.tile(box.vertices[face[1]], (len(contacts), 1))
        c = np.tile(box.vertices[face[2]], (len(contacts), 1))
        pts, d2 = closest_point_on_triangles(contacts, a, b, c)
        assert np.sqrt(d2).max() < 1e-12
        assert np.allclose(pts, contacts, atol=1e-12)

    def test_empirical_noise_std_within_two_percent(self, box):
        spec = _spec(n_measurements=100_000, noise_sigma=0.01, seed=5)
        meas, contacts = sample_contacts(spec, box)
        noise = meas - contacts
        stds = noise.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - 0.01) / 0.01 < 0.02)

    def test_mean_surface_distance_in_noise_band(self, box):
        # noisy points sit off the surface by roughly a half-normal
        # projection; loose sanity band only
        spec = _spec(n_measurements=50_000, noise_sigma=0.005, seed=6)
        meas, _ = sample_contacts(spec, box)
        d, _, _ = box.closest_points(meas)
        assert 0.001 < d.mean() < 0.01

    def test_deterministic_under_seed(self, box):
        a, ca = sample_contacts(_spec(seed=42, noise_sigma=0.002), box)
        b, cb = sample_contacts(_spec(seed=42, noise_sigma=0.002), box)
        c, _ = sample_contacts(_spec(seed=43, noise_sigma=0.002), box)
        assert np.array_equal(a, b) and np.array_equal(ca, cb)
        assert not np.array_equal(a, c)

    def test_same_seed_same_contacts_across_noise_levels(self, box):
        # noise is drawn after the contact geometry, so the pre-noise
        # contacts for a seed do not depend on the noise level
        _, quiet = sample_contacts(_spec(seed=9, noise_sigma=0.0), box)
        _, loud = sample_contacts(_spec(seed=9, noise_sigma=0.05), box)
        assert np.array_equal(quiet, loud)

    def test_barycentric_spread_covers_face(self, box):
        # uniform sampling on one face should span its interior, not
        # cluster at a vertex
        spec = _spec(n_measurements=4096, face_subset=(2,), seed=3)
        _, contacts = sample_contacts(spec, box)
        spans = contacts.max(axis=0) - contacts.min(axis=0)
        assert spans[0] > 0.08 and spans[1] > 0.25  # face is 0.1 x 0.3


class TestScenarioValidation:
    def test_zero_measurements_rejected(self):
        with pytest.raises(InvalidConfigError):
            _spec(n_measurements=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidConfigError):
            _spec(noise_sigma=-0.1)

    def test_empty_subset_rejected(self, box):
        with pytest.raises(InvalidFaceSubsetError):
            sample_contacts(_spec(face_subset=()), box)

    def test_out_of_range_subset_rejected(self, box):
        with pytest.raises(InvalidFaceSubsetError):
            sample_contacts(_spec(face_subset=(0, 12)), box)

    def test_duplicate_subset_rejected(self, box):
        with pytest.raises(InvalidFaceSubsetError):
            sample_contacts(_spec(face_subset=(3, 3)), box)

    @pytest.mark.parametrize("field, value", [("n_measurements", True), ("seed", True),
                                              ("face_subset", (2.7,)),
                                              ("noise_sigma", True)])
    def test_bool_or_fraction_refused_not_cut(self, field, value):
        with pytest.raises(InvalidConfigError, match=f"^{field} "):
            _spec(**{field: value})


class TestMeasurementFiles:
    def test_csv_round_trip(self, tmp_path, box):
        meas, _ = sample_contacts(_spec(noise_sigma=0.01, seed=1), box)
        path = tmp_path / "meas.csv"
        write_measurements_csv(path, meas)
        assert path.read_text().splitlines()[0].strip() == "x,y,z"
        back = read_measurements_csv(path)
        assert back.shape == meas.shape
        assert np.allclose(back, meas, rtol=1e-8, atol=1e-12)

    def test_csv_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidConfigError):
            read_measurements_csv(path)

    def test_csv_rejects_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,z\n")
        with pytest.raises(InvalidConfigError):
            read_measurements_csv(path)

    def test_csv_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x,y,z\n0.1,nan,0.2\n")
        with pytest.raises(InvalidConfigError):
            read_measurements_csv(path)

    def test_ground_truth_round_trip(self, tmp_path, box):
        pose = Pose.from_array(np.array([0.01, 0.02, 0.03, 0.4, 0.5, 0.6]))
        spec = _spec(true_pose=pose, face_subset=(2, 3), noise_sigma=0.001,
                     seed=11, n_measurements=8)
        _, contacts = sample_contacts(spec, box)
        path = tmp_path / "truth.json"
        write_ground_truth_json(path, spec, contacts)
        back_spec, back_contacts = read_ground_truth_json(path)
        assert back_spec.face_subset == (2, 3)
        assert back_spec.seed == 11
        assert back_spec.noise_sigma == 0.001
        assert np.array_equal(back_spec.true_pose.to_array(), pose.to_array())
        assert np.array_equal(back_contacts, contacts)

    @pytest.fixture()
    def truth_file(self, tmp_path, box):
        spec = _spec(face_subset=(2, 3), seed=11, n_measurements=4)
        path = tmp_path / "truth.json"
        write_ground_truth_json(path, spec, sample_contacts(spec, box)[1])
        return path

    @pytest.mark.parametrize("field, value", [("seed", 1.7), ("n_measurements", True),
                                              ("face_subset", [2.5, 3]),
                                              ("true_pose", [True, 0, 0, 0, 0, 0]),
                                              ("true_pose", ["0.1", 0, 0, 0, 0, 0]),
                                              ("mesh_path", 5)])
    def test_ground_truth_refuses_cut_values(self, truth_file, field, value):
        payload = json.loads(truth_file.read_text())
        payload["scenario"][field] = value
        truth_file.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError,
                           match=f"^{re.escape(str(truth_file))}: .*{field} "):
            read_ground_truth_json(truth_file)

    def test_ground_truth_defaults_do_not_fill_missing_key(self, truth_file):
        payload = json.loads(truth_file.read_text())
        del payload["scenario"]["seed"]
        truth_file.write_text(json.dumps(payload))
        with pytest.raises(InvalidConfigError, match="lacks key 'seed'"):
            read_ground_truth_json(truth_file)
