"""Property tests of the vectorized dummy sampler and the k-anonymity audit
on random models and templates."""

import numpy as np
from hypothesis import given, settings, strategies as st

from trajpriv.anonymize import (AnonymityPolicy, InsufficientCandidatesError,
                                audit_anonymity_set, generate_dummy,
                                k_anonymize, trajectory_stats)
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


def per_stay_location(model, slot, rng, influence=None):
    """One location draw: `rng.choice` of the cluster, then the cluster's
    Cholesky factor times two normals."""
    w = model.temporal_profile[slot].copy()
    if influence:
        for j, inf in influence.items():
            if model.social_flags[j]:
                w[j] *= 1.0 + inf
    w /= w.sum()
    j = int(rng.choice(model.n_components, p=w))
    L = np.linalg.cholesky(model.covs[j])
    return model.means[j] + L @ rng.standard_normal(2)


def per_stay_dummy(model, template, grid, rng, influence=None):
    """The dummy sampler as one draw per stay, then the snap."""
    stays = []
    for s in template:
        xy = per_stay_location(model, time_slot(s.start_time, grid), rng,
                               influence)
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
    # the one-stay case: sample_location
    slot = int(rng.integers(GRID.slots_per_day))
    want_rng, got_rng = (np.random.default_rng(seed + 2) for _ in range(2))
    want = per_stay_location(model, slot, want_rng, influence)
    got = sample_location(model, slot, got_rng, influence=influence)
    assert got.shape == (2,) and np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TiedUniforms(np.random.Generator):
    """A generator whose uniforms all equal 0.25, a cumulative weight."""

    def random(self, *args, **kwargs):
        return 0.25


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
    want = [per_stay_location(model, slot, want_rng, influence)
            for slot in slots]
    got = LocationSampler(model, influence).draw(slots, got_rng)
    assert np.array_equal(got, np.array(want))


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

