import math

import numpy as np
import pytest

from trajpriv.anonymize import (AnonymityPolicy, InsufficientCandidatesError,
                                _deviations, audit_anonymity_set,
                                generate_dummy, k_anonymize, trajectory_stats)
from trajpriv.core import (GridSpec, StayRecord, Trajectory, cell_center, Cell,
                           cells_of, snap_to_grid, to_cell)
from trajpriv.harness import (WorldConfig, fit_world_models, generate_world,
                              k_anonymize_world)
from trajpriv.mobility import LocalProjection, MobilityModel3D

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
T0 = 1568592000


def stay(t0, t1, lat, lon, user="u"):
    return StayRecord(user, t0, t1, lat, lon, lat, lon)


def simple_model(means, weights=None, flags=None, sigma=60.0):
    means = np.asarray(means, dtype=float)
    m = len(means)
    weights = np.full(m, 1.0 / m) if weights is None else np.asarray(weights)
    covs = np.array([np.eye(2) * sigma**2 for _ in range(m)])
    profile = np.tile(weights, (24, 1))
    profile /= profile.sum(axis=1, keepdims=True)
    return MobilityModel3D("u", LocalProjection(28.02, 112.92), means, covs,
                           weights, profile,
                           social_flags=None if flags is None
                           else np.asarray(flags, dtype=bool))


def fixture_trajectory(n=8):
    lat0, lon0 = 28.02, 112.92
    stays = []
    for i in range(n):
        t = T0 + i * 7200
        stays.append(stay(t, t + 3600, lat0 + 1e-3 * (i % 3), lon0 + 5e-4 * i))
    return Trajectory("u", stays)


class TestStats:
    def test_single_stay_zero_gyration(self):
        t = Trajectory("u", [stay(T0, T0 + 3600, 28.02, 112.92)])
        s = trajectory_stats(t, ("radius_of_gyration_m",))
        assert s["radius_of_gyration_m"] == 0.0

    def test_two_stays_symmetric(self):
        lat2 = 28.02 + 2000.0 / 111194.9
        t = Trajectory("u", [stay(T0, T0 + 3600, 28.02, 112.92),
                             stay(T0 + 7200, T0 + 10800, lat2, 112.92)])
        s = trajectory_stats(t, ("radius_of_gyration_m",))
        assert s["radius_of_gyration_m"] == pytest.approx(1000.0, rel=1e-3)

    def test_hand_computed_five_stays(self):
        # 5 stays on a north-south line at 0, 1, 2, 3, 4 km; durations 1..5 h
        base = 28.02
        stays = [stay(T0 + i * 20000, T0 + i * 20000 + (i + 1) * 3600,
                      base + i * 1000.0 / 111194.9, 112.92) for i in range(5)]
        t = Trajectory("u", stays)
        s = trajectory_stats(t, ("stay_count", "total_duration_h",
                                 "radius_of_gyration_m"))
        assert s["stay_count"] == 5
        assert s["total_duration_h"] == pytest.approx(15.0)
        # centroid at 2 km, rms of (-2,-1,0,1,2) km = sqrt(2) km
        assert s["radius_of_gyration_m"] == pytest.approx(
            np.sqrt(2.0) * 1000.0, rel=1e-3)

    def test_social_visit_fraction(self):
        model = simple_model([[0.0, 0.0], [5000.0, 0.0]],
                             flags=[True, False])
        lat, lon = model.projection.to_latlon(np.array([10.0, 10.0]))
        far_lat, far_lon = model.projection.to_latlon(
            np.array([5000.0, 0.0]))
        t = Trajectory("u", [stay(T0, T0 + 3600, float(lat), float(lon)),
                             stay(T0 + 7200, T0 + 9000, float(far_lat),
                                  float(far_lon))])
        s = trajectory_stats(t, ("social_visit_fraction",), model)
        assert s["social_visit_fraction"] == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trajectory_stats(Trajectory("u", []), ("stay_count",))


class TestGenerateDummy:
    def test_structure_preserved(self):
        model = simple_model([[0.0, 0.0]])
        template = fixture_trajectory()
        dummy = generate_dummy(model, template, GRID,
                               np.random.default_rng(1))
        assert len(dummy) == len(template)
        for a, b in zip(template, dummy):
            assert (a.start_time, a.stop_time) == (b.start_time, b.stop_time)

    def test_single_cluster_near_mean(self):
        model = simple_model([[0.0, 0.0]], sigma=30.0)
        template = Trajectory("u", [stay(T0, T0 + 3600, 28.02, 112.92)])
        rng = np.random.default_rng(2)
        mlat, mlon = model.projection.to_latlon(np.zeros(2))
        for _ in range(20):
            d = generate_dummy(model, template, GRID, rng)
            xy = model.projection.to_xy(d.stays[0].lat, d.stays[0].lon)
            # sampled near mu, then snapped to a cell center
            assert np.linalg.norm(xy) < 4 * 30.0 + GRID.cell_size_m

    def test_snapped_to_cell_centers(self):
        model = simple_model([[0.0, 0.0]])
        template = fixture_trajectory()
        d = generate_dummy(model, template, GRID, np.random.default_rng(3))
        from trajpriv.core import to_cell
        for s in d:
            c = to_cell(s.lat, s.lon, GRID)
            clat, clon = cell_center(c, GRID)
            assert s.lat == pytest.approx(clat, abs=1e-9)
            assert s.lon == pytest.approx(clon, abs=1e-9)


class TestSnapToGrid:
    def test_off_grid_points_snap_to_nearest_edge_cell(self):
        lat, lon = cell_center(Cell(17, 23), GRID)
        south, west = GRID.origin_lat - 0.01, GRID.origin_lon - 0.01
        north, east = GRID.origin_lat + 0.2, GRID.origin_lon + 0.2
        cases = {(south, lon): Cell(17, 0), (north, lon): Cell(17, 39),
                 (lat, west): Cell(0, 23), (lat, east): Cell(39, 23),
                 (south, west): Cell(0, 0), (north, east): Cell(39, 39)}
        for (plat, plon), cell in cases.items():
            assert snap_to_grid(plat, plon, GRID) == cell_center(cell, GRID)

    def test_on_grid_point_snaps_to_its_cell_center(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            plat = GRID.origin_lat + rng.uniform(0.0, 0.089)
            plon = GRID.origin_lon + rng.uniform(0.0, 0.101)
            assert snap_to_grid(plat, plon, GRID) == \
                cell_center(to_cell(plat, plon, GRID), GRID)

    def test_arrays_equal_the_scalar_centers(self):
        rng = np.random.default_rng(5)
        # about 1 km beyond each edge of the 10 km grid
        lat = GRID.origin_lat + rng.uniform(-0.01, 0.1, 3000)
        lon = GRID.origin_lon + rng.uniform(-0.01, 0.113, 3000)
        got = np.stack(snap_to_grid(lat, lon, GRID), axis=1).tolist()
        off_grid = 0
        for plat, plon, center in zip(lat.tolist(), lon.tolist(), got):
            [cell] = cells_of([plat], [plon], GRID)
            if cell is None:            # clamped to the nearest edge cell
                off_grid += 1
                x_m, y_m = GRID.projection.to_xy(plat, plon).tolist()
                cell = Cell(
                    min(max(math.floor(x_m / GRID.cell_size_m), 0), 39),
                    min(max(math.floor(y_m / GRID.cell_size_m), 0), 39))
            assert tuple(center) == cell_center(cell, GRID)
        assert 0 < off_grid < len(got)


class TestKAnonymize:
    def test_k1_boundary(self):
        model = simple_model([[0.0, 0.0]])
        real = fixture_trajectory()
        policy = AnonymityPolicy(k=1, l=0.5)
        aset = k_anonymize(real, model, policy, GRID, seed=0)
        assert aset.k == 1 and aset.dummies == []
        assert aset.members() == [real]

    def test_permissive_tolerance_succeeds(self):
        model = simple_model([[0.0, 0.0], [800.0, 400.0]])
        real = fixture_trajectory()
        policy = AnonymityPolicy(k=3, l=0.99)
        aset = k_anonymize(real, model, policy, GRID, seed=1)
        assert len(aset.dummies) == 2
        for dev in aset.audit["deviations"]:
            assert all(v <= 0.99 for v in dev.values())
        assert audit_anonymity_set(aset, policy, model)

    def test_tight_tolerance_fails(self):
        model = simple_model([[0.0, 0.0], [3000.0, 0.0]])
        real = fixture_trajectory()
        policy = AnonymityPolicy(k=10, l=1e-6, max_attempts=30)
        with pytest.raises(InsufficientCandidatesError) as exc:
            k_anonymize(real, model, policy, GRID, seed=2)
        [(user, accepted, attempts)] = exc.value.failures
        rate = accepted / attempts
        assert 0.0 <= rate < 1.0
        # the failing user and the rate, for a run over a whole world
        assert user == "u"
        assert str(exc.value).startswith("user u: accepted ")
        assert f"acceptance rate {rate:.3f}" in str(exc.value)

    def test_deterministic(self):
        model = simple_model([[0.0, 0.0], [800.0, 400.0]])
        real = fixture_trajectory()
        # about 1% of this fixture's dummies pass, so the budget is wide
        # enough that the set does not hang on a lucky draw order
        policy = AnonymityPolicy(k=4, l=0.9, max_attempts=2000)
        a = k_anonymize(real, model, policy, GRID, seed=5)
        b = k_anonymize(real, model, policy, GRID, seed=5)
        assert a.order == b.order
        assert a.to_jsonl() == b.to_jsonl()
        assert a.audit == b.audit

    def test_real_position_only_in_audit(self):
        model = simple_model([[0.0, 0.0]])
        real = fixture_trajectory()
        aset = k_anonymize(real, model, AnonymityPolicy(k=3, l=0.9), GRID,
                           seed=7)
        text = aset.to_jsonl()
        assert "real" not in text
        assert aset.audit["real_position"] == aset.order.index(0)

    def test_seeded_runs_pass_audit(self):
        model = simple_model([[0.0, 0.0], [600.0, -300.0]])
        # real trajectory drawn from the same mobility model, so candidate
        # statistics concentrate around the real ones
        real = generate_dummy(model, fixture_trajectory(), GRID,
                              np.random.default_rng(999))
        policy = AnonymityPolicy(k=5, l=0.5)
        for seed in range(20):
            aset = k_anonymize(real, model, policy, GRID, seed=seed)
            assert audit_anonymity_set(aset, policy, model)


class TestTolerance:
    def test_fraction_deviates_absolutely_the_rest_relatively(self):
        real = {"social_visit_fraction": 0.0, "radius_of_gyration_m": 200.0}
        cand = {"social_visit_fraction": 0.25, "radius_of_gyration_m": 150.0}
        assert _deviations(real, cand) == {"social_visit_fraction": 0.25,
                                           "radius_of_gyration_m": 0.25}

    def test_small_and_zero_social_fractions_are_anonymizable(self):
        # on world seed 30, u025 visits a social cluster in 2 of 87 stays
        # and u026 in none; relative to such a fraction nearly every dummy
        # deviated by more than l, and only 2 of 200 passed
        world = generate_world(WorldConfig(seed=30))
        models = fit_world_models(world, seed=7)
        stats = ("stay_count", "radius_of_gyration_m",
                 "social_visit_fraction")
        for l in (0.3, 0.5, 0.9):
            policy = AnonymityPolicy(k=4, l=l, stats=stats)
            sets = k_anonymize_world(world, models, policy, seed=7)
            for u in ("u025", "u026"):
                assert sets[u].audit["acceptance_rate"] == 1.0
            assert all(audit_anonymity_set(sets[u], policy, models[u])
                       for u in sets)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnonymityPolicy(k=0)
        with pytest.raises(ValueError):
            AnonymityPolicy(l=1.5)
        with pytest.raises(ValueError):
            AnonymityPolicy(stats=())
        with pytest.raises(ValueError):
            AnonymityPolicy(stats=("bogus",))
        with pytest.raises(ValueError):
            AnonymityPolicy(k=50, max_attempts=10)
