"""Property tests of the batched mixture-EM kernel behind the mobility GMM
and the semantic mixture."""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from trajpriv.core import GridSpec, StayRecord, Trajectory
from trajpriv.mobility import em_mixture, fit_mobility_model, mixture_log_joint

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
BOUNDED = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def clustered_points(rng, n, d):
    centers = rng.normal(0, 10, (3, d))
    spread = rng.uniform(0.05, 3.0)
    return centers[rng.integers(3, size=n)] + rng.normal(0, spread, (n, d))


@BOUNDED
@given(seed=seeds, m=st.integers(1, 4), d=st.integers(1, 4),
       diagonal=st.booleans())
def test_log_joint_matches_scipy(seed, m, d, diagonal):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 3, (7, d))
    means = rng.normal(0, 3, (m, d))
    weights = rng.dirichlet(np.ones(m))
    if diagonal:
        covs = rng.uniform(0.1, 5.0, (m, d))
        full = [np.diag(v) for v in covs]
    else:
        A = rng.normal(size=(m, d, d))
        covs = full = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    want = np.stack([np.log(weights[j])
                     + multivariate_normal(means[j], full[j]).logpdf(X)
                     for j in range(m)], axis=1)
    got = mixture_log_joint(X, weights, means, covs)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@BOUNDED
@given(seed=seeds, n=st.integers(4, 60), m=st.integers(1, 4),
       d=st.integers(1, 3), diagonal=st.booleans(),
       max_iter=st.integers(1, 60))
def test_em_loglik_never_decreases(seed, n, m, d, diagonal, max_iter):
    rng = np.random.default_rng(seed)
    X = clustered_points(rng, n, d)
    var = X.var(axis=0)
    if diagonal:
        cov0, floor = var, 1e-6 + 1e-4 * var
    else:
        cov0, floor = np.atleast_2d(np.cov(X.T)), 1e-3
    fit = em_mixture(X, m, seed, cov0, floor, max_iter, 1e-12)
    tr = fit.trace
    assert 1 <= len(tr) <= max_iter
    assert all(b - a >= -1e-9 for a, b in zip(tr, tr[1:]))
    # the returned log-joint and log-likelihood belong to the returned
    # parameters, also when the iteration budget ran out
    log_joint = mixture_log_joint(X, fit.weights, fit.means, fit.covs)
    assert np.array_equal(fit.log_joint, log_joint)
    lse = np.logaddexp.reduce(log_joint, axis=1)
    assert np.isclose(fit.loglik, lse.sum(), rtol=1e-12)


@BOUNDED
@given(seed=seeds, n=st.integers(2, 40),
       m=st.sampled_from(["auto", 1, 2, 3]))
def test_mobility_assignment_is_argmax_of_log_joint(seed, n, m):
    rng = np.random.default_rng(seed)
    centers = rng.uniform([28.01, 112.91], [28.08, 112.99], (3, 2))
    t = 1568592000
    stays = []
    for _ in range(n):
        lat, lon = centers[rng.integers(3)] + rng.normal(0, 0.002, 2)
        dur = int(rng.integers(600, 7200))
        stays.append(StayRecord("u", t, t + dur, lat, lon, lat, lon))
        t += dur + int(rng.integers(0, 3600))
    traj = Trajectory("u", stays)
    model, assign = fit_mobility_model(
        traj, GRID, m=m if m == "auto" else min(m, n), seed=seed % 1000)
    X = model.projection.to_xy([s.lat for s in traj], [s.lon for s in traj])
    log_joint = mixture_log_joint(X, model.weights, model.means, model.covs)
    assert np.array_equal(assign, log_joint.argmax(axis=1))
