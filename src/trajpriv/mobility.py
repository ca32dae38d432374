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


# One fit of em_mixtures: the fitted parameters, the log-likelihood trace,
# and the log-joint and total log-likelihood at the returned parameters.
MixtureFit = namedtuple("MixtureFit",
                        "means covs weights trace log_joint loglik")


def _check_2x2(covs):
    if covs.ndim != 3 or covs.shape[1:] != (2, 2):
        raise ValueError(f"full covariances must be (m, 2, 2), got "
                         f"{covs.shape}")


def _sym2(a, b, c):
    """(m, 2, 2) symmetric matrices [[a, b], [b, c]] from (m,) entries."""
    out = np.empty((len(a), 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, b, c
    return out


def _chol2(covs):
    """Closed-form Cholesky factors (l00, l10, l11), each (m,), of (m, 2, 2)
    covariances (lower triangle); ValueError unless all are positive
    definite."""
    _check_2x2(covs)
    a = covs[:, 0, 0]
    if not (a > 0).all():
        raise ValueError("covariances must be positive definite")
    l00 = np.sqrt(a)
    l10 = covs[:, 1, 0] / l00
    v = covs[:, 1, 1] - l10 * l10
    if not (v > 0).all():
        raise ValueError("covariances must be positive definite")
    return l00, l10, np.sqrt(v)


def _component_log_joint(X, weights, means, covs):
    """(m, n) matrix of log w_m + log N(x_n | mu_m, Sigma_m), one row per
    component (see `mixture_log_joint`). X holds (n, d) points shared by
    all components, or (m, n, d) points, one row of points per component."""
    if covs.ndim == 2:
        diff = X - means[:, None, :]        # (m, n, d)
        log_norm = 0.5 * np.sum(np.log(2 * np.pi * covs), axis=1)
        maha = np.sum(diff ** 2 / covs[:, None, :], axis=2)
    else:
        if X.shape[-1] != 2:
            raise ValueError(f"full covariances need 2-D points, got "
                             f"d={X.shape[-1]}")
        l00, l10, l11 = _chol2(covs)
        # two triangular solves of L z = x - mu, one row of L at a time
        z0 = (X[..., 0] - means[:, :1]) / l00[:, None]
        z1 = (X[..., 1] - means[:, 1:] - l10[:, None] * z0) / l11[:, None]
        log_norm = np.log(2 * np.pi) + (np.log(l00) + np.log(l11))
        maha = z0 * z0 + z1 * z1
    return np.log(weights + 1e-300)[:, None] + (-log_norm[:, None]
                                                - 0.5 * maha)


def mixture_log_joint(X, weights, means, covs):
    """(n, m) matrix of log w_m + log N(x_n | mu_m, Sigma_m).

    Arrays: `weights` (m,), `means` (m, d), and `covs` either full (m, 2, 2)
    planar covariances (d = 2 only) or (m, d) diagonal variances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.ascontiguousarray(
        _component_log_joint(X, weights, means, covs).T)


def _floor_cov(covs, floor):
    """Floor a batch of covariances from below: per dimension for diagonal
    (m, d) variances, by eigenvalue for full (m, 2, 2) ones (keeps SPD).

    The full case uses the closed-form 2x2 eigen-decomposition of the
    symmetrized matrix S, with eigenvalues lo <= hi. Raising each to the
    floor adds d = max(eigenvalue, floor) - eigenvalue along its
    eigenvector: S + d_hi I + (d_lo - d_hi) P_lo, where
    P_lo = (hi I - S) / (hi - lo) projects onto lo's eigenvector. Equal
    eigenvalues (S = lo I) have d_lo = d_hi and need no P_lo. A matrix
    that needs no floor is returned unchanged."""
    if covs.ndim == 2:
        return np.maximum(covs, floor)
    _check_2x2(covs)
    a, c = covs[:, 0, 0], covs[:, 1, 1]
    b = 0.5 * (covs[:, 0, 1] + covs[:, 1, 0])
    r = np.hypot(0.5 * (a - c), b)      # half the eigenvalue gap
    lo = 0.5 * (a + c) - r
    if (lo >= floor).all():
        return _sym2(a, b, c)
    hi = lo + 2 * r
    d_lo = np.maximum(lo, floor) - lo
    d_hi = np.maximum(hi, floor) - hi
    t = (d_lo - d_hi) / np.where(r > 0, 2 * r, 1.0)     # 0 when r = 0
    return _sym2(a + d_hi + t * (hi - a), b - t * b, c + d_hi + t * (hi - c))


def em_mixtures(sets, starts, floor, max_iter, tol):
    """EM fits of Gaussian mixtures of several point sets, stacked in one run.

    `sets` lists (X, cov0) pairs: (n, d) points and the covariance every
    start on them begins with, (2, 2) for a full-covariance mixture or a
    (d,) variance vector for a diagonal one. `starts` lists (set, m, seed)
    triples. Each start seeds its m means with points of its set drawn by
    `default_rng(seed)`, with equal weights and the floored cov0. The
    components of all running starts share each E- and M-step over a
    (component, point) layout; the log-sum-exp, the trace and the stop
    rule are per start. The trace is the per-point mean log-likelihood at
    the parameters entering each iteration; the floored covariance update
    is the constrained maximizer, so it never decreases. A start stops
    after `max_iter` M-steps or once its trace moves by less than `tol`;
    it is returned at its current parameters, with their log-joint and
    total log-likelihood, and leaves the stack. Returns one MixtureFit per
    start, in order; a single fit is the one-start case.

    With several sets, each set is padded to the largest point count by
    repeating its first point, and the padding is masked out of every sum.
    Each log-joint entry is computed as alone, but a point sum over a
    padded row adds in another order, so a start on a shorter set can
    differ from its fit alone in the last bits; a start on a set of the
    largest size gets the same floats in any stack as alone.
    """
    sets = [(np.asarray(X, dtype=float), np.asarray(cov0, dtype=float))
            for X, cov0 in sets]
    ns = np.array([len(X) for X, _ in sets])
    set_of = np.array([i for i, _, _ in starts], dtype=int)
    sizes = np.array([m for _, m, _ in starts], dtype=int)
    bad = (sizes < 1) | (sizes > ns[set_of])
    if len(sizes) == 0 or bad.any():
        raise ValueError(f"need starts with 1 <= m <= n, got "
                         f"m={sizes[bad].tolist()}, "
                         f"n={ns[set_of[bad]].tolist()}")
    means = np.concatenate([
        sets[i][0][np.random.default_rng(seed).choice(ns[i], size=m,
                                                      replace=False)]
        for i, m, seed in starts])
    comp_set = np.repeat(set_of, sizes)
    covs = np.concatenate([_floor_cov(cov0[None], floor)
                           for _, cov0 in sets])[comp_set]
    weights = np.repeat(1.0 / sizes, sizes)
    N = ns.max()
    padded = len(sets) > 1
    if padded:      # (k, N, d): the points of each component's set
        X = np.stack([np.concatenate([P, np.repeat(P[:1], N - len(P), 0)])
                      for P, _ in sets])[comp_set]
    else:
        X = sets[0][0]
    traces = np.empty((len(starts), max_iter))
    it = 0          # the trace length of every running start
    fits = [None] * len(starts)
    live = np.arange(len(starts))       # the starts still running
    while True:
        first = np.cumsum(sizes[live]) - sizes[live]
        seg = np.repeat(np.arange(len(live)), sizes[live])
        n = ns[set_of[live]]
        # (k, N), one row per component and a run of rows per start
        log_joint = _component_log_joint(X, weights, means, covs)
        mx = np.maximum.reduceat(log_joint, first, axis=0)
        lse = mx + np.log(np.add.reduceat(np.exp(log_joint - mx[seg]),
                                          first, axis=0))   # (starts, N)
        ll = lse           # per-point log-likelihoods, padding at 0
        if padded:
            valid = np.arange(N) < n[:, None]
            ll = np.where(valid, lse, 0.0)
        mean_ll = ll.sum(axis=1) / n        # as lse.mean() per start
        if it == max_iter:
            running = np.zeros(len(live), dtype=bool)
        else:
            traces[live, it] = mean_ll
            it += 1
            running = (np.abs(mean_ll - traces[live, it - 2]) >= tol
                       if it > 1 else np.ones(len(live), dtype=bool))
        for i in np.flatnonzero(~running):
            s = live[i]
            comp = slice(first[i], first[i] + sizes[s])
            fits[s] = MixtureFit(
                means[comp], covs[comp], weights[comp],
                traces[s, :it].tolist(),
                np.ascontiguousarray(log_joint[comp, :n[i]].T),
                float(ll[i].sum()))
        if not running.any():
            return fits
        # (k, N) responsibilities of the running starts. Each reduction
        # below runs along one component's row.
        R = np.exp(log_joint - lse[seg])
        if padded:
            R *= valid[seg]
        if not running.all():
            keep = running[seg]
            R, live = R[keep], live[running]
            if padded:
                X = X[keep]
        nk = R.sum(axis=1) + 1e-12
        weights = nk / np.repeat(ns[set_of[live]], sizes[live])
        means = (R[:, None, :] @ X)[:, 0] / nk[:, None]
        if covs.ndim == 2:
            diff = X - means[:, None, :]
            covs = np.sum(R[:, :, None] * diff ** 2, axis=1) / nk[:, None]
        else:
            dx, dy = X[..., 0] - means[:, :1], X[..., 1] - means[:, 1:]
            Rdx = R * dx
            covs = _sym2((Rdx * dx).sum(axis=1) / nk,
                         (Rdx * dy).sum(axis=1) / nk,
                         (R * dy * dy).sum(axis=1) / nk)
        covs = _floor_cov(covs, floor)


def fit_spatial(point_sets, m, seeds, m_range=range(1, 7), max_iter=200,
                tol=1e-6):
    """Full-covariance 2D mixture of each point set, all fitted in one
    stacked EM run, the i-th set's starts from `seeds[i]`. With m="auto",
    the fit of a set is the one of lowest BIC over the m in m_range that do
    not exceed its points; only the chosen fits are returned, one per set.
    """
    sets, starts = [], []
    for i, (points, seed) in enumerate(zip(point_sets, seeds)):
        X = np.asarray(points, dtype=float)
        n = len(X)
        sets.append((X, np.cov(X.T) if n > 1 else np.eye(2)))
        starts += [(i, k, seed) for k in
                   ([k for k in m_range if k <= n] if m == "auto" else [m])]
    best = {}
    for (i, k, _), fit in zip(starts, em_mixtures(sets, starts, VAR_FLOOR_M2,
                                                   max_iter, tol)):
        # BIC; 6 parameters per component (2 mean, 3 cov, 1 weight) less one
        bic = (6 * k - 1) * np.log(len(sets[i][0])) - 2.0 * fit.loglik
        if i not in best or bic < best[i][0]:
            best[i] = (bic, fit)
    return [best[i][1] for i in range(len(sets))]


def fit_gmm(points, m, seed=0):
    """Full-covariance 2D GMM by EM; m="auto" selects the component count
    of lowest BIC in 1..6.

    Returns (means, covs, weights, log-likelihood trace). The trace is the
    per-point mean log-likelihood evaluated at the parameters entering each
    iteration, so it is non-decreasing by the EM guarantee (the variance
    floor binds only on degenerate clusters).
    """
    return fit_spatial([points], m, [seed])[0][:4]


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


def project_stays(traj):
    """The user's local projection, centred on the mean stay position, and
    the (n, 2) planar points of the stays."""
    proj = LocalProjection(float(traj.start_lat.mean()),
                           float(traj.start_lon.mean()))
    return proj, proj.to_xy(traj.start_lat, traj.start_lon)


# a cluster is social once this fraction of its stays co-occur with
# another user's stay
SOCIAL_THRESHOLD = 0.25


def fit_mobility_model(traj, grid, projection, fit, participation):
    """Mobility model of one user's stays from their spatial mixture `fit`
    (a MixtureFit of `fit_spatial` on the stays' points in `projection`),
    with the temporal profile, visit counts and social flags of the hard
    assignment. `participation` flags, per stay, whether it co-occurs with
    another user's stay. Returns the model and the assignment.
    """
    means, covs, weights, trace, log_joint, _ = fit
    mm = len(weights)
    # hard-assign each stay for the profile, visit counts and social flags
    assign = log_joint.argmax(axis=1)
    slots = time_slot(traj.start, grid)
    profile = np.zeros((grid.slots_per_day, mm))
    np.add.at(profile, (slots, assign), 1)
    counts = np.bincount(assign, minlength=mm)
    hits = np.bincount(assign, weights=np.asarray(participation, dtype=float),
                       minlength=mm)
    social = np.where(counts > 0, hits / np.maximum(counts, 1), 0.0)
    empty = profile.sum(axis=1) == 0
    profile[empty] = weights            # fall back to the global mixture
    profile /= profile.sum(axis=1, keepdims=True)
    return MobilityModel3D(traj.user_id, projection, means, covs, weights,
                           profile, social_flags=social >= SOCIAL_THRESHOLD,
                           visit_counts=counts, ll_trace=trace), assign


def social_influence(friend_model, point_xy, slot, params):
    """Pull of a friend's dominant place on a candidate location.

    Decays with the candidate's distance to the friend's top cluster center,
    scaled by how far that center sits from the friend's expected center at
    this time slot. `point_xy` is one (2,) point, giving a float, or
    (..., 2) points, giving an array of that leading shape.
    """
    c1 = friend_model.means[int(np.argmax(friend_model.weights))]
    c_slot = friend_model.temporal_profile[slot] @ friend_model.means
    d = np.asarray(point_xy, dtype=float) - c1
    # |d| per point; the stacked 1x2 @ 2x1 product is the dot product that
    # np.linalg.norm takes of one point
    num = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    den = max(float(np.linalg.norm(c1 - c_slot)), params.epsilon_d)
    # math.exp per value: np.exp differs from it in the last bit
    si = [params.pi1 * math.exp(x) for x in np.ravel(-params.pi2 * num / den)]
    return si[0] if num.ndim == 0 else np.reshape(si, num.shape)


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
