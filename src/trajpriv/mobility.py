"""Per-user space-time-social mobility model.

A Gaussian mixture over stay locations (fitted by EM on a local planar
projection), a time-slot -> cluster categorical profile, a social/non-social
labeling of clusters, the social/temporal influence measures, and seeded
next-location sampling.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import EARTH_RADIUS_M, time_slot

VAR_FLOOR_M2 = 25.0


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular lat/lon <-> planar meters around a reference point."""

    ref_lat: float
    ref_lon: float

    def to_xy(self, lat, lon):
        lat = np.asarray(lat, dtype=float)
        lon = np.asarray(lon, dtype=float)
        x = (np.radians(lon - self.ref_lon) * EARTH_RADIUS_M
             * math.cos(math.radians(self.ref_lat)))
        y = np.radians(lat - self.ref_lat) * EARTH_RADIUS_M
        return np.stack([x, y], axis=-1)

    def to_latlon(self, xy):
        xy = np.asarray(xy, dtype=float)
        lat = self.ref_lat + np.degrees(xy[..., 1] / EARTH_RADIUS_M)
        lon = self.ref_lon + np.degrees(
            xy[..., 0] / (EARTH_RADIUS_M * math.cos(math.radians(self.ref_lat))))
        return lat, lon


# Result of em_mixture: the fitted parameters, the log-likelihood trace, and
# the log-joint and total log-likelihood at the returned parameters.
MixtureFit = namedtuple("MixtureFit",
                        "means covs weights trace log_joint loglik")


def mixture_log_joint(X, weights, means, covs):
    """(n, m) matrix of log w_m + log N(x_n | mu_m, Sigma_m).

    Arrays: `weights` (m,), `means` (m, d), and `covs` either full (m, d, d)
    covariances or (m, d) diagonal variances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    diff = X[None, :, :] - means[:, None, :]            # (m, n, d)
    if covs.ndim == 2:
        log_norm = 0.5 * np.sum(np.log(2 * np.pi * covs), axis=1)
        maha = np.sum(diff ** 2 / covs[:, None, :], axis=2)
    else:
        L = np.linalg.cholesky(covs)
        log_norm = (0.5 * d * np.log(2 * np.pi)
                    + np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1))
        z = diff @ np.linalg.inv(L).transpose(0, 2, 1)
        maha = np.sum(z * z, axis=2)
    log_pdf = -log_norm[:, None] - 0.5 * maha
    # row-major (n, m), so that the M-step sums over points in point order
    return np.log(weights + 1e-300) + np.ascontiguousarray(log_pdf.T)


def _floor_cov(covs, floor):
    """Floor a batch of covariances from below: per dimension for diagonal
    (m, d) variances, by eigenvalue for full (m, d, d) ones (keeps SPD)."""
    if covs.ndim == 2:
        return np.maximum(covs, floor)
    vals, vecs = np.linalg.eigh(0.5 * (covs + covs.transpose(0, 2, 1)))
    vals = np.maximum(vals, floor)
    return (vecs * vals[:, None, :]) @ vecs.transpose(0, 2, 1)


def em_mixture(X, m, seed, cov0, floor, max_iter, tol):
    """EM fit of an m-component Gaussian mixture, all components at once.

    Starts every component from a seeded data point, equal weight and the
    floored `cov0`: a (d, d) covariance for a full-covariance mixture, or a
    (d,) variance vector for a diagonal one. The trace is the per-point mean
    log-likelihood at the parameters entering each iteration; the floored
    covariance update is the constrained maximizer, so it never decreases.
    """
    n = X.shape[0]
    if m < 1 or m > n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    means = X[rng.choice(n, size=m, replace=False)].astype(float)
    covs = np.repeat(_floor_cov(np.asarray(cov0, dtype=float)[None], floor),
                     m, axis=0)
    weights = np.full(m, 1.0 / m)
    trace = []
    while True:
        log_joint = mixture_log_joint(X, weights, means, covs)
        mx = log_joint.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(log_joint - mx).sum(axis=1))
        if len(trace) == max_iter:      # parameters after the last M-step
            break
        trace.append(float(lse.mean()))
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            break
        R = np.exp(log_joint - lse[:, None]).T          # (m, n)
        nk = R.sum(axis=1) + 1e-12
        weights = nk / n
        means = (R @ X) / nk[:, None]
        diff = X[None, :, :] - means[:, None, :]
        if covs.ndim == 2:
            covs = np.sum(R[:, :, None] * diff ** 2, axis=1) / nk[:, None]
        else:
            covs = ((R[:, :, None] * diff).transpose(0, 2, 1) @ diff
                    / nk[:, None, None])
        covs = _floor_cov(covs, floor)
    return MixtureFit(means, covs, weights, trace, log_joint, float(lse.sum()))


def gaussian_pdf(x, mean, cov):
    return np.exp(mixture_log_joint(x, np.ones(1), np.asarray(mean)[None],
                                    np.asarray(cov, dtype=float)[None])[:, 0])


def _fit_spatial(points, m, seed=0, m_range=range(1, 7), max_iter=200,
                 tol=1e-6, var_floor=VAR_FLOOR_M2):
    """Full-covariance 2D mixture with m components, or, for m="auto", the
    fit of lowest BIC over the m in m_range that do not exceed the points."""
    X = np.asarray(points, dtype=float)
    n = X.shape[0]
    if m == "auto":
        fits = [_fit_spatial(X, k, seed, max_iter=max_iter, tol=tol,
                             var_floor=var_floor) for k in m_range if k <= n]
        # BIC; 6 parameters per component (2 mean, 3 cov, 1 weight) less one
        return min(fits, key=lambda f: (6 * len(f.weights) - 1) * np.log(n)
                   - 2.0 * f.loglik)
    cov0 = np.cov(X.T) if n > 1 else np.eye(2)
    return em_mixture(X, m, seed, cov0, var_floor, max_iter, tol)


def fit_gmm(points, m, seed=0, max_iter=200, tol=1e-6, var_floor=VAR_FLOOR_M2):
    """Full-covariance 2D GMM by EM.

    Returns (means, covs, weights, log-likelihood trace). The trace is the
    per-point mean log-likelihood evaluated at the parameters entering each
    iteration, so it is non-decreasing by the EM guarantee (the variance
    floor binds only on degenerate clusters).
    """
    return _fit_spatial(points, m, seed, max_iter=max_iter, tol=tol,
                        var_floor=var_floor)[:4]


def fit_gmm_auto(points, seed=0, m_range=range(1, 7), **kw):
    """BIC model selection over component counts."""
    return _fit_spatial(points, "auto", seed, m_range, **kw)[:4]


@dataclass(frozen=True)
class InfluenceParams:
    """Weights of the combined social/temporal influence measure."""

    pi1: float = 1.0
    pi2: float = 1.0
    omega_s: float = 0.5
    omega_t: float = 0.5
    epsilon_d: float = 1.0

    def __post_init__(self):
        if self.pi1 <= 0 or self.pi2 <= 0 or self.epsilon_d <= 0:
            raise ValueError("pi1, pi2, epsilon_d must be positive")
        if self.omega_s < 0 or self.omega_t < 0:
            raise ValueError("omegas must be nonnegative")
        if abs(self.omega_s + self.omega_t - 1.0) > 1e-9:
            raise ValueError("omega_s + omega_t must equal 1")


@dataclass
class MobilityModel3D:
    """Fitted 3D (space-time-social) mobility model of one user."""

    user_id: str
    projection: LocalProjection
    means: np.ndarray          # (m, 2) planar meters
    covs: np.ndarray           # (m, 2, 2)
    weights: np.ndarray        # (m,)
    temporal_profile: np.ndarray  # (n_slots, m), rows sum to 1
    social_flags: np.ndarray = None   # (m,) bool
    visit_counts: np.ndarray = None   # (m,) int
    ll_trace: list = field(default_factory=list)

    def __post_init__(self):
        m = len(self.weights)
        if self.social_flags is None:
            self.social_flags = np.zeros(m, dtype=bool)
        if self.visit_counts is None:
            self.visit_counts = np.zeros(m, dtype=int)
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        rows = self.temporal_profile.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("temporal profile rows must sum to 1")

    @property
    def n_components(self):
        return len(self.weights)

    def to_json(self):
        return json.dumps({
            "user_id": self.user_id,
            "ref_lat": self.projection.ref_lat,
            "ref_lon": self.projection.ref_lon,
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
            "weights": self.weights.tolist(),
            "temporal_profile": self.temporal_profile.tolist(),
            "social_flags": self.social_flags.astype(int).tolist(),
            "visit_counts": self.visit_counts.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            user_id=d["user_id"],
            projection=LocalProjection(d["ref_lat"], d["ref_lon"]),
            means=np.array(d["means"]),
            covs=np.array(d["covs"]),
            weights=np.array(d["weights"]),
            temporal_profile=np.array(d["temporal_profile"]),
            social_flags=np.array(d["social_flags"], dtype=bool),
            visit_counts=np.array(d["visit_counts"], dtype=int),
        )


def fit_mobility_model(traj, grid, m="auto", seed=0):
    """Fit the spatial GMM and temporal profile from one user's stays.

    Social flags start all-False; call label_social once co-occurrence
    fractions are known.
    """
    lats = np.array([s.lat for s in traj])
    lons = np.array([s.lon for s in traj])
    proj = LocalProjection(float(lats.mean()), float(lons.mean()))
    X = proj.to_xy(lats, lons)
    means, covs, weights, trace, log_joint, _ = _fit_spatial(X, m, seed)
    mm = len(weights)
    # hard-assign each stay for the profile and visit counts
    assign = log_joint.argmax(axis=1)
    n_slots = grid.slots_per_day
    profile = np.zeros((n_slots, mm))
    counts = np.zeros(mm, dtype=int)
    for s, j in zip(traj, assign):
        slot, _ = time_slot(s.start_time, grid)
        profile[slot, j] += 1
        counts[j] += 1
    empty = profile.sum(axis=1) == 0
    profile[empty] = weights            # fall back to the global mixture
    profile /= profile.sum(axis=1, keepdims=True)
    return MobilityModel3D(traj.user_id, proj, means, covs, weights,
                           profile, visit_counts=counts,
                           ll_trace=trace), assign


def location_density(model, point_xy, slot):
    """Slot-conditioned mixture density at a planar point."""
    log_joint = mixture_log_joint(point_xy, model.temporal_profile[slot],
                                  model.means, model.covs)
    return float(np.exp(log_joint).sum())


def label_social(model, coevent_fraction, tau_soc):
    """Flag clusters whose co-occurrence fraction reaches the threshold."""
    frac = np.asarray(coevent_fraction, dtype=float)
    if np.any((frac < 0) | (frac > 1)):
        raise ValueError("fractions must lie in [0, 1]")
    model.social_flags = frac >= tau_soc
    return model.social_flags


def social_influence(friend_model, point_xy, slot, params):
    """Pull of a friend's dominant place on a candidate location.

    Decays with the candidate's distance to the friend's top cluster center,
    scaled by how far that center sits from the friend's expected center at
    this time slot.
    """
    c1 = friend_model.means[int(np.argmax(friend_model.weights))]
    c_slot = friend_model.temporal_profile[slot] @ friend_model.means
    point = np.asarray(point_xy, dtype=float)
    num = float(np.linalg.norm(point - c1))
    den = max(float(np.linalg.norm(c1 - c_slot)), params.epsilon_d)
    return params.pi1 * math.exp(-params.pi2 * num / den)


def temporal_influence(friend_model, slot):
    """Friend's probability mass on social clusters at the slot."""
    return float(friend_model.temporal_profile[slot][friend_model.social_flags].sum())


def combined_influence(si, ti, params):
    return params.omega_s * si + params.omega_t * ti


class LocationSampler:
    """Slot-conditioned location draws from one mobility model.

    Per slot, the cluster comes from the temporal profile with social
    clusters reweighted by 1 + influence, then the point from that
    cluster's Gaussian. Each draw takes the same generator values, in the
    same order and with the same arithmetic, as `rng.choice(m, p=w)`
    followed by `cholesky(cov) @ rng.standard_normal(2)`: one uniform
    searched in the slot's normalized cumulative weights, then two normals.
    """

    def __init__(self, model, influence=None):
        w = model.temporal_profile.copy()
        for j, inf in (influence or {}).items():
            if model.social_flags[j]:
                w[:, j] *= 1.0 + inf
        w /= w.sum(axis=1, keepdims=True)
        self.cdf = np.cumsum(w, axis=1)
        self.cdf /= self.cdf[:, -1:]
        self.means = model.means
        self.chol = np.linalg.cholesky(model.covs)

    def draw(self, slots, rng):
        """(n, 2) planar points, one per slot, in order."""
        n = len(slots)
        u = np.empty(n)
        z = np.empty((n, 2))
        for i in range(n):             # the generator's order: u, then z
            u[i] = rng.random()
            rng.standard_normal(out=z[i])
        # searchsorted(cdf[slot], u, side="right") of each draw
        j = np.sum(self.cdf[slots] <= u[:, None], axis=1)
        return self.means[j] + (self.chol[j] @ z[:, :, None])[:, :, 0]


def sample_location(model, slot, rng, influence=None):
    """Draw a planar point for a slot (see `LocationSampler`)."""
    return LocationSampler(model, influence).draw([slot], rng)[0]
