import json
import math
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from trajpriv.core import GridSpec, StayRecord, Trajectory
from trajpriv.mobility import (SOCIAL_THRESHOLD, LocalProjection,
                               MixtureFit, MobilityModel3D, fit_gmm,
                               fit_mobility_model, sample_location,
                               social_influence, temporal_influence)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)


def make_model(means, covs, weights, profile, flags=None):
    return MobilityModel3D("u", LocalProjection(28.0, 112.9),
                           np.asarray(means, dtype=float),
                           np.asarray(covs, dtype=float),
                           np.asarray(weights, dtype=float),
                           np.asarray(profile, dtype=float),
                           social_flags=None if flags is None
                           else np.asarray(flags, dtype=bool))


class TestFitGMM:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        X = rng.normal([100, 200], 80, (150, 2))
        means, covs, weights, _ = fit_gmm(X, 1, seed=1)
        assert np.allclose(means[0], X.mean(axis=0), atol=1e-8)
        assert weights[0] == pytest.approx(1.0)
        expected = np.cov(X.T, bias=True)
        assert np.allclose(covs[0], expected, atol=1e-6)

    def test_two_cluster_recovery(self):
        rng = np.random.default_rng(42)
        a = rng.normal([0, 0], 100, (100, 2))
        b = rng.normal([5000, 0], 100, (100, 2))
        means, covs, weights, _ = fit_gmm(np.vstack([a, b]), 2, seed=3)
        got = sorted(means[:, 0])
        assert abs(got[0] - 0) < 50 and abs(got[1] - 5000) < 50

    def test_loglik_monotone(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = np.vstack([rng.normal([0, 0], 150, (60, 2)),
                           rng.normal([2000, 1000], 200, (60, 2)),
                           rng.normal([-1500, 2500], 120, (60, 2))])
            _, _, _, trace = fit_gmm(X, 3, seed=seed)
            assert all(b - a >= -1e-9 for a, b in zip(trace, trace[1:]))

    def test_m_exceeds_points(self):
        with pytest.raises(ValueError):
            fit_gmm(np.zeros((2, 2)), 3)

    def test_degenerate_identical_points_floored(self):
        X = np.zeros((20, 2))
        means, covs, weights, _ = fit_gmm(X, 1, seed=0)
        vals = np.linalg.eigvalsh(covs[0])
        assert np.all(vals >= 25.0 - 1e-9)

    def test_variance_floor(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 0.5, (50, 2))     # sub-floor spread
        _, covs, _, _ = fit_gmm(X, 1, seed=1)
        assert np.all(np.linalg.eigvalsh(covs[0]) >= 25.0 - 1e-9)

    def test_bic_picks_reasonable_m(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal([0, 0], 100, (120, 2)),
                       rng.normal([6000, 0], 100, (120, 2))])
        means, _, weights, _ = fit_gmm(X, "auto", seed=2)
        assert len(weights) == 2


class TestSocialLabeling:
    """fit_mobility_model flags a cluster as social once the fraction of its
    assigned stays that co-occur reaches SOCIAL_THRESHOLD (0.25)."""

    def fit_flags(self, assign, participation):
        # a three-cluster fit, with stay i at the mean of cluster assign[i]
        means = np.array([[0.0, 0], [1000, 0], [2000, 0]])
        fit = MixtureFit(means, np.tile(np.eye(2) * 400, (3, 1, 1)),
                         np.full(3, 1 / 3), [], 0.0)
        proj = LocalProjection(28.0, 112.9)
        lat, lon = proj.to_latlon(means[list(assign)])
        traj = Trajectory("u", [StayRecord("u", 3600 * i, 3600 * i + 600,
                                           *latlon, *latlon)
                                for i, latlon in enumerate(zip(lat.tolist(),
                                                               lon.tolist()))])
        model, got = fit_mobility_model(traj, GRID, proj,
                                        proj.to_xy(lat, lon), fit,
                                        participation)
        assert got.tolist() == list(assign)
        return model.social_flags.tolist()

    def test_threshold(self):
        assert SOCIAL_THRESHOLD == 0.25
        # cluster 0: 1 of 4 stays co-occur (at the threshold); cluster 1:
        # 1 of 5 (below it)
        assign = [0, 0, 0, 0, 1, 1, 1, 1, 1]
        hits = [True, False, False, False, False, False, True, False, False]
        assert self.fit_flags(assign, hits) == [True, False, False]

    def test_cluster_without_stays_is_not_social(self):
        assert self.fit_flags([1, 1, 1], [True, True, True]) == [False, True,
                                                                 False]


class TestInfluence:
    def setup_method(self):
        cov = np.eye(2) * 400
        profile = np.tile([0.7, 0.3], (24, 1))
        self.model = make_model([[0, 0], [2000, 0]], [cov, cov], [0.6, 0.4],
                                profile, flags=[True, False])

    def test_at_dominant_center(self):
        assert social_influence(self.model, [0, 0], 0) == 1.0

    def test_far_point_vanishes(self):
        # |c1 - c_slot| = 0.3 * 2000 = 600 m, so 300 km away is exp(-500)
        si = [social_influence(self.model, [x, 0], 0)
              for x in (0, 600, 6000, 300_000)]
        assert si == sorted(si, reverse=True)
        assert si[1] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert si[-1] < 1e-12

    def test_exp_minus_two(self):
        # numerator 2 km, denominator |c1 - c_slot| = 0.7*0 + 0.3*2000 = 600
        # -> force denominator 1 km via a crafted profile
        profile = np.tile([0.5, 0.5], (24, 1))
        model = make_model([[0, 0], [2000, 0]], [np.eye(2) * 400] * 2,
                           [0.6, 0.4], profile)
        # c_slot = (1000, 0), so d(c1, c_slot) = 1000; point 2 km from c1
        si = social_influence(model, [2000, 0], 0)
        assert si == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_translation_invariance(self):
        shift = np.array([12345.0, -6789.0])
        si0 = social_influence(self.model, [500, 300], 4)
        shifted = make_model(self.model.means + shift, self.model.covs,
                             self.model.weights, self.model.temporal_profile,
                             flags=self.model.social_flags)
        si1 = social_influence(shifted, np.array([500, 300]) + shift, 4)
        assert si0 == pytest.approx(si1, rel=1e-12)

    def test_temporal_influence(self):
        assert temporal_influence(self.model, 0) == pytest.approx(0.7)
        all_social = make_model(self.model.means, self.model.covs,
                                self.model.weights,
                                self.model.temporal_profile,
                                flags=[True, True])
        assert temporal_influence(all_social, 0) == pytest.approx(1.0)
        none_social = make_model(self.model.means, self.model.covs,
                                 self.model.weights,
                                 self.model.temporal_profile,
                                 flags=[False, False])
        assert temporal_influence(none_social, 0) == 0.0


class TestSampling:
    def test_single_cluster_mean(self):
        cov = np.eye(2) * 200**2
        model = make_model([[500, -300]], [cov], [1.0], [[1.0]] * 24)
        rng = np.random.default_rng(17)
        pts = np.array([sample_location(model, 3, rng) for _ in range(10_000)])
        se = 200 / math.sqrt(10_000)
        assert np.all(np.abs(pts.mean(axis=0) - [500, -300]) < 3 * se * 1.5)

    def test_degenerate_slot(self):
        cov = np.eye(2) * 400
        profile = np.tile([0.0, 1.0], (24, 1))
        model = make_model([[0, 0], [9000, 0]], [cov, cov], [0.5, 0.5],
                           profile)
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = sample_location(model, 0, rng)
            assert np.linalg.norm(p - [9000, 0]) < 200

    def test_reweighting_chi_square(self):
        cov = np.eye(2) * 400
        profile = np.tile([0.5, 0.5], (24, 1))
        model = make_model([[0, 0], [50000, 0]], [cov, cov], [0.5, 0.5],
                           profile, flags=[True, False])
        influence = np.array([1.0, 5.0])     # social cluster by (1 + 1)
        expected = np.array([0.5 * 2, 0.5])
        expected /= expected.sum()
        rng = np.random.default_rng(8)
        counts = np.zeros(2)
        for _ in range(10_000):
            p = sample_location(model, 0, rng, influence=influence)
            counts[0 if p[0] < 25000 else 1] += 1
        _, pval = chisquare(counts, expected * 10_000)
        assert pval > 0.01

    def test_zero_influence_identity(self):
        cov = np.eye(2) * 400
        model = make_model([[0, 0], [50000, 0]], [cov, cov], [0.5, 0.5],
                           np.tile([0.3, 0.7], (24, 1)), flags=[True, True])
        p1 = [sample_location(model, 0, np.random.default_rng(4))
              for _ in range(5)]
        p2 = [sample_location(model, 0, np.random.default_rng(4),
                              influence=np.zeros(2)) for _ in range(5)]
        assert np.allclose(p1, p2)


def test_model_json_roundtrip():
    cov = np.eye(2) * 400
    model = make_model([[1, 2], [3, 4]], [cov, cov], [0.25, 0.75],
                       np.tile([0.5, 0.5], (24, 1)), flags=[True, False])
    clone = MobilityModel3D.from_json(model.to_json())
    assert np.allclose(clone.means, model.means)
    assert np.allclose(clone.temporal_profile, model.temporal_profile)
    assert clone.social_flags.tolist() == [True, False]


def model_json_with(**fields):
    """The JSON of a valid two-cluster model with `fields` replaced."""
    cov = np.eye(2) * 400
    model = make_model([[1, 2], [3, 4]], [cov, cov], [0.25, 0.75],
                       np.tile([0.5, 0.5], (24, 1)), flags=[True, False])
    return json.dumps({**json.loads(model.to_json()), **fields})


@pytest.mark.parametrize("name, value", [
    ("means", [[1, 2], [3, 4], [5, 6]]),
    ("means", [[1, 2], [3, math.inf]]),
    ("means", [1, 2]),
    ("covs", [np.eye(2).tolist()]),
    ("covs", [[1, 0], [0, 1]]),
    ("weights", [0.25, math.nan]),
    ("weights", [[0.25, 0.75]]),
    ("temporal_profile", [[0.5, 0.5]] * 23 + [[math.nan, 0.5]]),
    ("temporal_profile", [[0.5, 0.25, 0.25]] * 24),
    ("temporal_profile", [0.5, 0.5]),
    ("social_flags", [1, 0, 1]),
    ("visit_counts", [3]),
])
def test_model_file_of_mismatched_or_non_finite_arrays_names_the_field(
        name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite, of "
                                         rf"shape \("):
        MobilityModel3D.from_json(model_json_with(**{name: value}))


@pytest.mark.parametrize("name, value, message", [
    ("covs", [[[1, 2], [2, 1]], np.eye(2).tolist()],
     "covs must be positive definite"),
    ("covs", [[[0, 0], [0, 0]], np.eye(2).tolist()],
     "covs must be positive definite"),
    ("weights", [1.5, -0.5], "weights must be non-negative"),
    ("temporal_profile", [[1.5, -0.5]] * 24,
     "temporal_profile must be non-negative"),
    ("visit_counts", [-1, 3], "visit_counts must be non-negative"),
    ("ref_lat", math.nan, "ref_lat must be a finite number, got nan"),
    ("ref_lon", math.inf, "ref_lon must be a finite number, got inf"),
    ("ref_lat", "28.0", "ref_lat must be a finite number, got '28.0'"),
    ("means", [["a", "b"], ["c", "d"]], "means must hold numbers only"),
    ("covs", [[[1, 0], [0, 1]], [[1, 0], [0]]], "covs must hold numbers only"),
    ("weights", [0.5, None], "weights must hold numbers only"),
    ("visit_counts", ["1", "2"], "visit_counts must hold numbers only"),
])
def test_model_file_of_invalid_values_names_the_field(name, value, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
        MobilityModel3D.from_json(model_json_with(**{name: value}))


@pytest.mark.parametrize("name", ["user_id", "ref_lat", "covs",
                                  "visit_counts"])
def test_model_file_without_a_field_names_it(name):
    d = json.loads(model_json_with())
    del d[name]
    with pytest.raises(ValueError, match=rf"^model file has no {name}$"):
        MobilityModel3D.from_json(json.dumps(d))


def test_profile_row_sum_enforced():
    cov = np.eye(2) * 400
    bad = np.tile([0.5, 0.4], (24, 1))
    with pytest.raises(ValueError):
        make_model([[0, 0], [1, 1]], [cov, cov], [0.5, 0.5], bad)
