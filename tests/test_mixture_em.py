"""Property tests of the stacked mixture-EM kernel behind the mobility GMM,
its BIC sweep and the semantic mixture."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import multivariate_normal

from trajpriv import mobility
from trajpriv.core import GridSpec, StayRecord, Trajectory, time_slot
from trajpriv.mobility import (_chol2, _floor_cov, em_mixtures,
                               fit_mobility_model, fit_spatial,
                               mixture_log_joint, project_stays)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
BOUNDED = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def clustered_points(rng, n, d):
    centers = rng.normal(0, 10, (3, d))
    spread = rng.uniform(0.05, 3.0)
    return centers[rng.integers(3, size=n)] + rng.normal(0, spread, (n, d))


# --- reference: one EM run per m with LAPACK 2x2 algebra -------------------

def reference_log_joint(X, weights, means, covs):
    L = np.linalg.cholesky(covs)
    log_norm = np.log(2 * np.pi) + np.sum(
        np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    diff = X[None, :, :] - means[:, None, :]
    z = diff @ np.linalg.inv(L).transpose(0, 2, 1)
    log_pdf = -log_norm[:, None] - 0.5 * np.sum(z * z, axis=2)
    return np.log(weights + 1e-300) + log_pdf.T


def reference_floor(covs, floor):
    vals, vecs = np.linalg.eigh(0.5 * (covs + covs.transpose(0, 2, 1)))
    floored = vecs * np.maximum(vals, floor)[:, None, :]
    return floored @ vecs.transpose(0, 2, 1)


def reference_em(X, m, seed, cov0, floor, max_iter, tol):
    n = len(X)
    means = X[np.random.default_rng(seed).choice(n, size=m, replace=False)]
    covs = np.repeat(reference_floor(cov0[None], floor), m, axis=0)
    weights = np.full(m, 1.0 / m)
    trace = []
    while True:
        log_joint = reference_log_joint(X, weights, means, covs)
        lse = np.logaddexp.reduce(log_joint, axis=1)
        if len(trace) == max_iter:
            break
        trace.append(lse.mean())
        if len(trace) > 1 and abs(trace[-1] - trace[-2]) < tol:
            break
        R = np.exp(log_joint - lse[:, None]).T
        nk = R.sum(axis=1) + 1e-12
        weights = nk / n
        means = (R @ X) / nk[:, None]
        diff = X[None, :, :] - means[:, None, :]
        covs = reference_floor((R[:, :, None] * diff).transpose(0, 2, 1)
                               @ diff / nk[:, None, None], floor)
    return means, covs, weights, trace, lse.sum()


def assert_close_to_scale(got, want, rel=1e-9):
    scale = np.max(np.abs(want))
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * scale)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(1, 60),
       ms=st.sets(st.integers(1, 6), min_size=1),
       early_stop=st.booleans(), max_iter=st.integers(1, 80))
def test_stacked_sweep_matches_one_run_per_m(seed, n, ms, early_stop,
                                             max_iter):
    rng = np.random.default_rng(seed)
    X = clustered_points(rng, n, 2) * rng.uniform(1, 500)
    m_range = sorted(k for k in ms if k <= n) or [1]
    tol = 1e-6 if early_stop else -1.0
    max_iter = 200 if early_stop else max_iter
    cov0 = np.cov(X.T) if n > 1 else np.eye(2)
    fits = em_mixtures([(X, cov0)], [(0, k, seed) for k in m_range], 25.0,
                       max_iter, tol)
    refs = [reference_em(X, k, seed, cov0, 25.0, max_iter, tol)
            for k in m_range]
    for fit, ref in zip(fits, refs):
        assert len(fit.trace) == len(ref[3])
        for got, want in zip(fit[:3], ref[:3]):
            assert_close_to_scale(got, want)

    def bic(k, loglik):
        return (6 * k - 1) * np.log(n) - 2.0 * loglik
    want_m = min(zip(m_range, refs), key=lambda p: bic(p[0], p[1][4]))[0]
    chosen, = fit_spatial([X], "auto", [seed], m_range, max_iter=max_iter,
                          tol=tol)
    assert len(chosen.weights) == want_m


def random_spd(rng, kind, m):
    if kind == "equal":
        return np.eye(2) * rng.uniform(0.1, 1e4, (m, 1, 1))
    if kind == "diagonal":
        return np.eye(2) * rng.uniform(0.1, 1e4, (m, 1, 2))
    angle = rng.uniform(0, np.pi, m)
    V = np.stack([np.stack([np.cos(angle), -np.sin(angle)], axis=1),
                  np.stack([np.sin(angle), np.cos(angle)], axis=1)], axis=2)
    top = rng.uniform(1, 1e6, m)
    low = {"spd": top * rng.uniform(0.01, 1, m),
           "near_singular": top * 1e-8,
           "near_equal": top * (1 - 1e-12),
           "sub_floor": rng.uniform(1e-3, 10, m)}[kind]
    if kind == "sub_floor":
        top = low * rng.uniform(1, 2, m)
    vals = np.stack([low, top], axis=1)
    return (V * vals[:, None, :]) @ V.transpose(0, 2, 1)


KINDS = ["spd", "near_singular", "near_equal", "diagonal", "equal",
         "sub_floor"]


@BOUNDED
@given(seed=seeds, kind=st.sampled_from(KINDS), m=st.integers(1, 8))
def test_closed_form_cholesky_matches_lapack(seed, kind, m):
    covs = random_spd(np.random.default_rng(seed), kind, m)
    want = np.linalg.cholesky(covs)
    got = np.zeros_like(want)
    got[:, 0, 0], got[:, 1, 0], got[:, 1, 1] = _chol2(covs)
    assert_close_to_scale(got, want, 1e-10 if kind == "near_singular"
                          else 1e-12)


@BOUNDED
@given(seed=seeds, kind=st.sampled_from(KINDS), m=st.integers(1, 8),
       floor=st.sampled_from([0.0, 1.0, 25.0, 1e4, 1e6]))
def test_closed_form_floor_matches_eigh(seed, kind, m, floor):
    covs = random_spd(np.random.default_rng(seed), kind, m)
    got = _floor_cov(covs, floor)
    assert_close_to_scale(got, reference_floor(covs, floor), 1e-12)
    assert np.array_equal(got, got.transpose(0, 2, 1))
    assert np.all(np.linalg.eigvalsh(got) >= floor * (1 - 1e-9))


def test_floor_leaves_unfloored_and_equal_eigenvalue_matrices_alone():
    covs = np.array([[[400.0, 30.0], [30.0, 90.0]], [[49.0, 0], [0, 49.0]]])
    assert np.array_equal(_floor_cov(covs, 25.0), covs)
    equal = np.array([[[9.0, 0], [0, 9.0]], [[30.0, 0], [0, 30.0]]])
    assert np.array_equal(_floor_cov(equal, 25.0),
                          np.array([np.eye(2) * 25.0, np.eye(2) * 30.0]))


@BOUNDED
@given(seed=seeds, m=st.integers(1, 4), d=st.integers(1, 4),
       diagonal=st.booleans())
def test_log_joint_matches_scipy(seed, m, d, diagonal):
    d = d if diagonal else 2            # full covariances are planar only
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


@pytest.mark.parametrize("d", [1, 3])
def test_full_covariance_must_be_planar(d):
    X = np.zeros((5, d))
    covs = np.eye(d)[None]
    with pytest.raises(ValueError):
        mixture_log_joint(X, np.ones(1), np.zeros((1, d)), covs)
    with pytest.raises(ValueError):
        _floor_cov(covs, 1.0)
    with pytest.raises(ValueError):
        em_mixtures([(X, np.eye(d))], [(0, 1, 0)], 1.0, 10, 1e-6)


def test_non_positive_definite_covariance_raises():
    for cov in ([[1.0, 2.0], [2.0, 1.0]], [[0.0, 0.0], [0.0, 1.0]],
                [[np.nan, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            _chol2(np.array([cov]))


@BOUNDED
@given(seed=seeds, n=st.integers(4, 60),
       ms=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       d=st.integers(1, 3), diagonal=st.booleans(),
       max_iter=st.integers(1, 60))
def test_em_loglik_never_decreases(seed, n, ms, d, diagonal, max_iter):
    d = d if diagonal else 2            # full covariances are planar only
    rng = np.random.default_rng(seed)
    X = clustered_points(rng, n, d)
    var = X.var(axis=0)
    if diagonal:
        cov0, floor = var, 1e-6 + 1e-4 * var
    else:
        cov0, floor = np.cov(X.T), 1e-3
    starts = [(0, m, seed + i) for i, m in enumerate(ms)]
    fits = em_mixtures([(X, cov0)], starts, floor, max_iter, 1e-12)
    for (_, m, s), fit in zip(starts, fits):
        tr = fit.trace
        assert len(fit.weights) == m
        assert 1 <= len(tr) <= max_iter
        assert all(b - a >= -1e-9 for a, b in zip(tr, tr[1:]))
        # the returned log-likelihood belongs to the returned parameters,
        # also when the iteration budget ran out
        log_joint = mixture_log_joint(X, fit.weights, fit.means, fit.covs)
        lse = np.logaddexp.reduce(log_joint, axis=1)
        assert np.isclose(fit.loglik, lse.sum(), rtol=1e-12)
        # a start fits as it would alone, bit for bit
        alone, = em_mixtures([(X, cov0)], [(0, m, s)], floor, max_iter,
                             1e-12)
        assert alone.trace == tr and alone.loglik == fit.loglik
        for got, want in zip(fit[:3], alone[:3]):
            assert np.array_equal(got, want)


@BOUNDED
@given(seed=seeds, ns=st.lists(st.integers(1, 40), min_size=2, max_size=4),
       ms=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       diagonal=st.booleans(), early_stop=st.booleans(),
       max_iter=st.integers(1, 60), budget=st.integers(1, 400))
def test_multi_set_starts_fit_as_on_their_set_alone(seed, ns, ms, diagonal,
                                                     early_stop, max_iter,
                                                     budget):
    rng = np.random.default_rng(seed)
    sets = []
    for n in ns:
        X = clustered_points(rng, n, 3 if diagonal else 2) * rng.uniform(1, 500)
        cov0 = X.var(axis=0) if diagonal else (np.cov(X.T) if n > 1
                                                else np.eye(2))
        sets.append((X, cov0))
    floor = 1e-3 if diagonal else 25.0
    tol = 1e-6 if early_stop else -1.0
    max_iter = 200 if early_stop else max_iter
    starts = [(j % len(ns), min(m, ns[j % len(ns)]), seed + j)
              for j, m in enumerate(ms)]
    # a small budget makes later sets join the stack mid-run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mobility, "EM_ENTRIES", budget)
        fits = em_mixtures(sets, starts, floor, max_iter, tol)
    for (i, m, s), fit in zip(starts, fits):
        X, cov0 = sets[i]
        alone, = em_mixtures([(X, cov0)], [(0, m, s)], floor, max_iter, tol)
        # the same floats in any stack as alone, in every field
        assert fit.trace == alone.trace and fit.loglik == alone.loglik
        for got, want in zip(fit, alone):
            assert np.array_equal(got, want)


@BOUNDED
@given(seed=seeds, ns=st.lists(st.integers(1, 30), min_size=2, max_size=4),
       max_iter=st.integers(1, 60), budget=st.integers(1, 400))
def test_bic_choice_of_each_set_is_its_choice_alone(seed, ns, max_iter,
                                                     budget):
    rng = np.random.default_rng(seed)
    sets = [clustered_points(rng, n, 2) * rng.uniform(1, 500) for n in ns]
    set_seeds = [seed + i for i in range(len(sets))]
    # a small budget makes later sets join the stack mid-run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mobility, "EM_ENTRIES", budget)
        chosen = fit_spatial(sets, "auto", set_seeds, max_iter=max_iter)
    for X, s, fit in zip(sets, set_seeds, chosen):
        alone, = fit_spatial([X], "auto", [s], max_iter=max_iter)
        assert len(fit) == len(alone)
        for got, want in zip(fit, alone):
            assert np.array_equal(got, want)


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
    proj, X = project_stays(traj)
    fit, = fit_spatial([X], m if m == "auto" else min(m, n), [seed % 1000])
    hits = rng.random(n) < 0.4
    model, assign = fit_mobility_model(traj, GRID, proj, X, fit, hits)
    log_joint = mixture_log_joint(X, model.weights, model.means, model.covs)
    assert np.array_equal(assign, log_joint.argmax(axis=1))
    # a cluster is social once a quarter of its stays co-occur
    for j in range(model.n_components):
        mine = hits[assign == j]
        assert model.social_flags[j] == (len(mine) > 0
                                         and mine.mean() >= 0.25)
    # the slot profile and visit counts are the per-stay tallies
    counts = np.zeros((GRID.slots_per_day, model.n_components))
    for s, j in zip(traj, assign):
        counts[time_slot(s.start_time, GRID), j] += 1
    assert model.visit_counts.tolist() == counts.sum(axis=0).tolist()
    seen = counts.sum(axis=1) > 0
    assert np.array_equal(model.temporal_profile[seen],
                          counts[seen] / counts[seen].sum(axis=1,
                                                          keepdims=True))
