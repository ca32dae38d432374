"""Property tests of the vectorized dummy sampler and the k-anonymity audit
on random models and templates."""

import numpy as np
from hypothesis import given, settings, strategies as st

from trajpriv.anonymize import (STATISTICS, AnonymityPolicy,
                                InsufficientCandidatesError, _deviations,
                                _dummy_sampler, audit_anonymity_set,
                                block_stats, generate_dummy, k_anonymize,
                                trajectory_stats)
from trajpriv.core import (GridSpec, StayRecord, Trajectory, snap_to_grid,
                           time_slot)
from trajpriv.mobility import (LocalProjection, LocationSampler,
                               MobilityModel3D, sample_location)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
T0 = 1568592000
BOUNDED = settings(max_examples=40, deadline=None)
seeds = st.integers(0, 2**32 - 1)


def random_model(rng, m, social):
    """m-component model around the grid's middle, with uneven per-slot
    cluster weights (some of them zero) and, if `social`, random flags."""
    A = rng.normal(0, 400, (m, 2, 2))
    profile = rng.dirichlet(np.full(m, 0.5), size=GRID.slots_per_day)
    profile[rng.random(profile.shape) < 0.2] = 0.0
    profile[profile.sum(axis=1) == 0, 0] = 1.0
    profile /= profile.sum(axis=1, keepdims=True)
    return MobilityModel3D(
        "u", LocalProjection(28.04 + rng.normal(0, 0.005),
                             112.92 + rng.normal(0, 0.005)),
        rng.normal(0, 2500, (m, 2)), A @ A.transpose(0, 2, 1) + 25 * np.eye(2),
        rng.dirichlet(np.ones(m)), profile,
        social_flags=rng.random(m) < 0.5 if social else None)


def random_template(rng, n):
    starts = T0 + 600 * np.sort(rng.choice(3000, n, replace=False))
    lat = 28.04 + rng.normal(0, 0.02, n)
    lon = 112.92 + rng.normal(0, 0.02, n)
    return Trajectory("u", [
        StayRecord("u", int(t), int(t) + 300 * int(d), float(a), float(b),
                   float(a), float(b))
        for t, d, a, b in zip(starts, rng.integers(1, 3, n), lat, lon)])


def slot_weights(model, slot, influence=None):
    """The slot's cluster weights, social clusters reweighted by
    1 + influence, normalized."""
    w = model.temporal_profile[slot].copy()
    if influence:
        for j, inf in influence.items():
            if model.social_flags[j]:
                w[j] *= 1.0 + inf
    return w / w.sum()


def cluster_cdf(model, slot, influence=None):
    """The slot's cumulative cluster weights as `Generator.choice` forms
    them from p: the cumsum of the weights over its last."""
    cdf = slot_weights(model, slot, influence).cumsum()
    cdf /= cdf[-1]
    return cdf


def per_stay_location(model, slot, u, z, influence=None):
    """One location of one uniform u and one pair of normals z: the cluster
    `Generator.choice` picks with u (searchsorted, side="right"), then the
    cluster's Cholesky factor times z."""
    j = int(cluster_cdf(model, slot, influence).searchsorted(u, side="right"))
    L = np.linalg.cholesky(model.covs[j])
    return model.means[j] + L @ z


def per_stay_dummy(model, template, grid, rng, influence=None):
    """The dummy sampler as one location per stay from the candidate's two
    generator blocks, its n uniforms and then its n pairs of normals, then
    the snap."""
    u = rng.random(len(template))
    z = rng.standard_normal((len(template), 2))
    stays = []
    for i, s in enumerate(template):
        xy = per_stay_location(model, time_slot(s.start_time, grid), u[i],
                               z[i], influence)
        lat, lon = model.projection.to_latlon(xy)
        lat, lon = snap_to_grid(float(lat), float(lon), grid)
        stays.append(StayRecord(template.user_id, s.start_time, s.stop_time,
                                lat, lon, lat, lon))
    return Trajectory(template.user_id, stays)


@BOUNDED
@given(seed=seeds, m=st.integers(1, 6), n=st.integers(1, 40),
       social=st.booleans(), with_influence=st.booleans())
def test_dummy_equals_per_stay_draws(seed, m, n, social, with_influence):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social)
    template = random_template(rng, n)
    influence = ({j: float(rng.uniform(0, 3)) for j in range(m)}
                 if with_influence else None)
    want_rng, got_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    for _ in range(3):
        want = per_stay_dummy(model, template, GRID, want_rng, influence)
        got = generate_dummy(model, template, GRID, got_rng, influence)
        assert got.stays == want.stays
        for a, b in zip(got, want):         # the same floats, not just ==
            assert (a.lat.hex(), a.lon.hex()) == (b.lat.hex(), b.lon.hex())
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the one-stay case, sample_location, draws what rng.choice and then
    # standard_normal(2) draw
    slot = int(rng.integers(GRID.slots_per_day))
    want_rng, got_rng = (np.random.default_rng(seed + 2) for _ in range(2))
    j = want_rng.choice(m, p=slot_weights(model, slot, influence))
    want = (model.means[j] + np.linalg.cholesky(model.covs[j])
            @ want_rng.standard_normal(2))
    got = sample_location(model, slot, got_rng, influence=influence)
    assert got.shape == (2,) and np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TiedUniforms(np.random.Generator):
    """A generator whose uniforms all equal 0.25, a cumulative weight."""

    def random(self, size=None, *args, **kwargs):
        return 0.25 if size is None else np.full(size, 0.25)


def test_uniform_equal_to_a_cumulative_weight_takes_the_next_cluster():
    # cumulative weights 0.25, 0.25, 0.5, 1: Generator.choice picks 2
    profile = np.tile([0.25, 0.0, 0.25, 0.5], (GRID.slots_per_day, 1))
    model = MobilityModel3D(
        "u", LocalProjection(28.04, 112.92),
        np.array([[0.0, 0.0], [2000.0, 0.0], [0.0, 2000.0], [-2000.0, 0.0]]),
        np.tile(np.eye(2), (4, 1, 1)), np.full(4, 0.25), profile)
    template = random_template(np.random.default_rng(0), 5)
    want = per_stay_dummy(model, template, GRID,
                          TiedUniforms(np.random.PCG64(1)))
    got = generate_dummy(model, template, GRID,
                         TiedUniforms(np.random.PCG64(1)))
    assert got.stays == want.stays
    xy = model.projection.to_xy(got.stays[0].lat, got.stays[0].lon)
    assert np.linalg.norm(xy - model.means[2]) < GRID.cell_size_m


def test_many_draws_equal_per_draw_arithmetic():
    rng = np.random.default_rng(5)
    model = random_model(rng, 6, social=True)
    influence = {j: float(rng.uniform(0, 3)) for j in range(6)}
    slots = rng.integers(GRID.slots_per_day, size=20_000)
    want_rng, got_rng = (np.random.default_rng(6) for _ in range(2))
    u = want_rng.random(len(slots))
    z = want_rng.standard_normal((len(slots), 2))
    want = [per_stay_location(model, slot, u[i], z[i], influence)
            for i, slot in enumerate(slots)]
    got = LocationSampler(model, influence).draw(slots, got_rng)
    assert np.array_equal(got, np.array(want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@BOUNDED
@given(seed=seeds, m=st.integers(1, 4), n=st.integers(1, 30),
       k=st.integers(1, 5), l=st.floats(0.2, 0.9),
       social=st.booleans(), from_model=st.booleans())
def test_audit_accepts_every_returned_set(seed, m, n, k, l, social,
                                          from_model):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social)
    template = random_template(rng, n)
    if from_model:          # a real trajectory the model could have drawn
        template = generate_dummy(model, template, GRID, rng)
    stats = ("stay_count", "total_duration_h", "radius_of_gyration_m")
    if social:
        stats += ("social_visit_fraction",)
    policy = AnonymityPolicy(k=k, l=l, stats=stats, max_attempts=60)
    influence = {j: float(rng.uniform(0, 2)) for j in range(m)}
    try:
        aset = k_anonymize(template, model, policy, GRID, seed=seed,
                           influence=influence)
    except InsufficientCandidatesError as e:
        assert e.user_id == "u"
        return
    assert audit_anonymity_set(aset, policy, model)


def hexed(stats):
    return {name: float(v).hex() for name, v in stats.items()}


@BOUNDED
@given(seed=seeds, m=st.integers(1, 4), n=st.integers(1, 30),
       k=st.integers(2, 6), l=st.floats(0.05, 0.9), social=st.booleans())
def test_k_anonymize_takes_successive_dummy_draws(seed, m, n, k, l, social):
    # rounds of candidates scored in one pass keep what one candidate at a
    # time would: the accepted dummies of successive generate_dummy draws,
    # the attempt count and, after them, the shuffle
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social)
    template = generate_dummy(model, random_template(rng, n), GRID, rng)
    stats = STATISTICS if social else STATISTICS[:3]
    policy = AnonymityPolicy(k=k, l=l, stats=stats, max_attempts=40)
    influence = {j: float(rng.uniform(0, 2)) for j in range(m)}
    real_stats = trajectory_stats(template, stats, model)
    want_rng = np.random.default_rng(seed)
    want, want_devs, attempts = [], [], 0
    while len(want) < k - 1 and attempts < policy.max_attempts:
        attempts += 1
        cand = generate_dummy(model, template, GRID, want_rng, influence)
        dev = _deviations(real_stats, trajectory_stats(cand, stats, model))
        if all(v <= l for v in dev.values()):
            want.append(cand)
            want_devs.append(dev)
    try:
        aset = k_anonymize(template, model, policy, GRID, seed=seed,
                           influence=influence)
    except InsufficientCandidatesError as e:
        assert len(want) < k - 1
        assert e.failures == [("u", len(want), attempts)]
        return
    assert [d.stays for d in aset.dummies] == [d.stays for d in want]
    assert [hexed(d) for d in aset.audit["deviations"]] == [
        hexed(d) for d in want_devs]
    assert aset.audit["acceptance_rate"] == (k - 1) / attempts
    assert aset.order == list(want_rng.permutation(k).astype(int))


@BOUNDED
@given(seed=seeds, m=st.integers(1, 6), n=st.integers(1, 300),
       c=st.integers(1, 6), drawn=st.booleans(),
       alpha_d_m=st.floats(10.0, 3000.0))
def test_block_stats_rows_equal_trajectory_stats(seed, m, n, c, drawn,
                                                 alpha_d_m):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social=True)
    template = random_template(rng, n)
    if drawn:               # snapped candidates, as k_anonymize scores them
        lat, lon = _dummy_sampler(model, template, GRID)(rng, c)
    else:
        lat = 28.04 + rng.normal(0, 0.02, (c, n))
        lon = 112.92 + rng.normal(0, 0.02, (c, n))
    block = block_stats(template.start, template.stop, lat, lon, STATISTICS,
                        model, alpha_d_m)
    for i in range(c):
        row = Trajectory.from_columns("u", template.start, template.stop,
                                      lat[i], lon[i], lat[i], lon[i])
        assert hexed({name: v[i] for name, v in block.items()}) == hexed(
            trajectory_stats(row, STATISTICS, model, alpha_d_m))


@BOUNDED
@given(seed=seeds, m=st.integers(1, 4), n=st.integers(1, 100),
       k=st.integers(2, 6), l=st.floats(0.1, 0.9))
def test_recorded_deviations_equal_the_audits(seed, m, n, k, l):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social=True)
    template = generate_dummy(model, random_template(rng, n), GRID, rng)
    policy = AnonymityPolicy(k=k, l=l, stats=STATISTICS, max_attempts=60)
    try:
        aset = k_anonymize(template, model, policy, GRID, seed=seed)
    except InsufficientCandidatesError:
        return
    real_stats = trajectory_stats(template, STATISTICS, model)
    assert [hexed(d) for d in aset.audit["deviations"]] == [
        hexed(_deviations(real_stats,
                          trajectory_stats(d, STATISTICS, model)))
        for d in aset.dummies]


def per_stay_social_visit_fraction(traj, model, alpha_d_m):
    centers = model.means[model.social_flags]
    if len(centers) == 0:
        return 0.0
    hits = 0
    for s in traj:
        xy = model.projection.to_xy(s.lat, s.lon)
        if np.min(np.linalg.norm(centers - xy, axis=1)) <= alpha_d_m:
            hits += 1
    return hits / len(traj)


@BOUNDED
@given(seed=seeds, m=st.integers(1, 6), n=st.integers(1, 40),
       alpha_d_m=st.floats(10.0, 3000.0), tie=st.booleans())
def test_social_visit_fraction_matches_per_stay_definition(seed, m, n,
                                                           alpha_d_m, tie):
    rng = np.random.default_rng(seed)
    model = random_model(rng, m, social=True)
    traj = random_template(rng, n)
    if rng.random() < 0.5:      # stays drawn near the model's clusters
        traj = generate_dummy(model, traj, GRID, rng)
    centers = model.means[model.social_flags]
    if tie and len(centers):    # one stay exactly alpha_d_m from a centre
        s = traj.stays[int(rng.integers(n))]
        xy = model.projection.to_xy(s.lat, s.lon)
        alpha_d_m = float(np.min(np.linalg.norm(centers - xy, axis=1)))
    got = trajectory_stats(traj, ("social_visit_fraction",), model,
                           alpha_d_m)["social_visit_fraction"]
    assert got == per_stay_social_visit_fraction(traj, model, alpha_d_m)

