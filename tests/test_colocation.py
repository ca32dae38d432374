import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajpriv.core import (EARTH_RADIUS_M, GridSpec, OutOfGridError,
                           StayRecord, Trajectory, cell_center, Cell,
                           haversine_m, to_cell)
from trajpriv.colocation import (KERNELS, CoEvent, CoLocationConfig,
                                 PairEvents, coevent_score, extract_coevents,
                                 extract_pair_coevents, pair_events,
                                 stay_participation, _RECHECK,
                                 _candidate_pairs, _exact_distances_m,
                                 _filter_distances_m, _gather,
                                 _kernel_weight, _kernel_weights,
                                 _lexsort_by_pair_start, _spatial_weights)
from trajpriv.features import (cell_visit_entropy, compute_features,
                               features_to_csv)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
T0 = 1568592000


def stay(user, t0, t1, lat, lon):
    return StayRecord(user, t0, t1, lat, lon, lat, lon)


def brute_force(traj_a, traj_b, cfg, grid):
    """Independent O(n^2) oracle applying the kernel definitions directly."""
    from trajpriv.core import haversine_m
    pair = tuple(sorted([traj_a.user_id, traj_b.user_id]))
    if traj_a.user_id != pair[0]:
        traj_a, traj_b = traj_b, traj_a
    out = []
    for sa in traj_a.stays:
        for sb in traj_b.stays:
            d = haversine_m(sa.lat, sa.lon, sb.lat, sb.lon)
            gap = max(0, max(sa.start_time, sb.start_time)
                      - min(sa.stop_time, sb.stop_time))
            w = cfg.spatial_weight(d) * cfg.temporal_weight(gap)
            if w > 0:
                lo = max(sa.start_time, sb.start_time)
                hi = min(sa.stop_time, sb.stop_time)
                if lo > hi:
                    lo = hi
                out.append((lo, hi, round(w, 12)))
    return sorted(out)


def random_trajectories(rng, n_users=3, n_stays=5):
    trajs = {}
    for i in range(n_users):
        u = f"u{i}"
        t = T0 + int(rng.integers(0, 3600))
        stays = []
        for _ in range(n_stays):
            dur = int(rng.integers(300, 5400))
            lat, lon = cell_center(Cell(int(rng.integers(0, 8)),
                                        int(rng.integers(0, 8))), GRID)
            stays.append(stay(u, t, t + dur,
                              lat + float(rng.normal(0, 5e-4)),
                              lon + float(rng.normal(0, 5e-4))))
            t += dur + int(rng.integers(60, 4000))
        trajs[u] = Trajectory(u, stays)
    return trajs


class TestExtraction:
    def test_identical_stays_one_event(self):
        a = Trajectory("a", [stay("a", T0, T0 + 3600, 28.01, 112.91)])
        b = Trajectory("b", [stay("b", T0, T0 + 3600, 28.01, 112.91)])
        events = extract_pair_coevents(a, b, CoLocationConfig(), GRID)
        assert len(events) == 1
        assert events[0].weight == 1.0
        assert events[0].overlap_s == 3600

    def test_far_apart_no_event(self):
        cfg = CoLocationConfig(alpha_d_m=250.0)
        lat2 = 28.01 + 500.0 / 111194.9   # 2 * alpha_d north
        a = Trajectory("a", [stay("a", T0, T0 + 3600, 28.01, 112.91)])
        b = Trajectory("b", [stay("b", T0, T0 + 3600, lat2, 112.91)])
        assert extract_pair_coevents(a, b, cfg, GRID) == []

    def test_gap_within_alpha_t(self):
        cfg = CoLocationConfig(alpha_t_s=1800)
        a = Trajectory("a", [stay("a", T0, T0 + 600, 28.01, 112.91)])
        b = Trajectory("b", [stay("b", T0 + 2000, T0 + 2600, 28.01, 112.91)])
        events = extract_pair_coevents(a, b, cfg, GRID)
        assert len(events) == 1
        assert events[0].overlap_s == 0
        b_far = Trajectory("b", [stay("b", T0 + 3000, T0 + 3600, 28.01, 112.91)])
        assert extract_pair_coevents(a, b_far, cfg, GRID) == []

    @pytest.mark.parametrize("kernel", ["indicator", "exponential"])
    def test_matches_brute_force_oracle(self, kernel):
        cfg = CoLocationConfig(spatial_kernel=kernel, temporal_kernel=kernel)
        for seed in range(30):
            rng = np.random.default_rng(seed)
            trajs = random_trajectories(rng)
            users = sorted(trajs)
            for i, a in enumerate(users):
                for b in users[i + 1:]:
                    got = extract_pair_coevents(trajs[a], trajs[b], cfg, GRID)
                    got = sorted((e.overlap_start, e.overlap_end,
                                  round(e.weight, 12)) for e in got)
                    assert got == brute_force(trajs[a], trajs[b], cfg, GRID)

    def test_symmetry(self):
        rng = np.random.default_rng(99)
        trajs = random_trajectories(rng, n_users=2)
        cfg = CoLocationConfig()
        ab = extract_pair_coevents(trajs["u0"], trajs["u1"], cfg, GRID)
        ba = extract_pair_coevents(trajs["u1"], trajs["u0"], cfg, GRID)
        assert ab == ba

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(7)
        trajs = random_trajectories(rng, n_users=2, n_stays=8)
        small = CoLocationConfig(alpha_d_m=200, alpha_t_s=600)
        big = CoLocationConfig(alpha_d_m=600, alpha_t_s=3600)
        n_small = len(extract_pair_coevents(trajs["u0"], trajs["u1"],
                                            small, GRID))
        n_big = len(extract_pair_coevents(trajs["u0"], trajs["u1"],
                                          big, GRID))
        assert n_big >= n_small

    @pytest.mark.parametrize("key, value", [
        ("alpha_d_m", math.nan), ("alpha_d_m", math.inf),
        ("alpha_d_m", 0.0), ("alpha_t_s", math.nan),
        ("alpha_t_s", math.inf), ("alpha_t_s", -1800.0)])
    def test_non_finite_or_non_positive_threshold_is_named(self, key, value):
        # a NaN alpha_t_s would give no events and a NaN or infinite
        # alpha_d_m a bare error from the spatial hash
        with pytest.raises(ValueError, match=rf"^{key} must be positive and "
                                             rf"finite, got {value!r}$"):
            CoLocationConfig(**{key: value})


class TestScore:
    def test_empty(self):
        assert coevent_score([]) == 0.0

    def test_indicator_counts(self):
        a = Trajectory("a", [stay("a", T0 + i * 7200, T0 + i * 7200 + 3600,
                                  28.01, 112.91) for i in range(4)])
        b = Trajectory("b", [stay("b", T0 + i * 7200, T0 + i * 7200 + 3600,
                                  28.01, 112.91) for i in range(4)])
        events = extract_pair_coevents(a, b, CoLocationConfig(), GRID)
        assert coevent_score(events) == 4.0

    def test_weighted_sum(self):
        events = [CoEvent("a", "b", None, T0, T0, w)
                  for w in (0.9, 0.4, 0.1)]
        assert coevent_score(events) == pytest.approx(1.4, abs=1e-12)


# --- the spatial-hash engine against the nested-loop definition ------------

def destination(lat, lon, bearing_deg, dist_m):
    """Point dist_m from (lat, lon) along a great circle at a bearing."""
    p1, l1, th = math.radians(lat), math.radians(lon), math.radians(bearing_deg)
    delta = dist_m / EARTH_RADIUS_M
    p2 = math.asin(math.sin(p1) * math.cos(delta)
                   + math.cos(p1) * math.sin(delta) * math.cos(th))
    l2 = l1 + math.atan2(math.sin(th) * math.sin(delta) * math.cos(p1),
                         math.cos(delta) - math.sin(p1) * math.sin(p2))
    lon2 = (math.degrees(l2) + 180.0) % 360.0 - 180.0
    return math.degrees(p2), lon2


def oracle_events(traj_a, traj_b, cfg, grid):
    """(user_a, user_b, cell, start, end, weight) of a pair from the
    definition: every stay of traj_a against every stay of traj_b, stably
    sorted by (start, end, weight)."""
    from trajpriv.core import OutOfGridError, haversine_m, to_cell
    out = []
    for sa in traj_a.stays:
        for sb in traj_b.stays:
            d = haversine_m(sa.lat, sa.lon, sb.lat, sb.lon)
            gap = max(0, max(sa.start_time, sb.start_time)
                      - min(sa.stop_time, sb.stop_time))
            w = cfg.spatial_weight(d) * cfg.temporal_weight(gap)
            if w > 0:
                hi = min(sa.stop_time, sb.stop_time)
                lo = min(max(sa.start_time, sb.start_time), hi)
                try:
                    cell = to_cell(sa.lat, sa.lon, grid)
                except OutOfGridError:
                    cell = None
                out.append((traj_a.user_id, traj_b.user_id, cell, lo, hi, w))
    return sorted(out, key=lambda e: (e[3], e[4], e[5]))


def oracle_participation(trajs, cfg):
    """Per user, per stay: a nonzero kernel weight with any stay of
    another user, from the definition."""
    return {u: [any(cfg.spatial_weight(haversine_m(s.lat, s.lon,
                                                   o.lat, o.lon))
                    * cfg.temporal_weight(max(0, max(s.start_time,
                                                     o.start_time)
                                              - min(s.stop_time,
                                                    o.stop_time))) > 0
                    for v in trajs if v != u for o in trajs[v].stays)
                for s in trajs[u].stays]
            for u in trajs}


def as_tuples(events):
    return [(e.user_a, e.user_b, e.cell, e.overlap_start, e.overlap_end,
             e.weight) for e in events]


def edge_world(rng, n_users, centers, reach_m):
    """Users whose stays sit at anchors around the given centers, displaced
    by distances at, just inside and just outside the spatial reach, so
    that stay pairs straddle the reach and lie across the edges of
    reach-sized bins. Times on a 10-minute raster with gaps at the temporal
    reach make events with equal (start, end, weight) common."""
    anchors = [p for lat, lon in centers for p in (
        (lat, lon), destination(lat, lon, float(rng.uniform(0, 360)),
                                float(rng.uniform(0, 3)) * reach_m))]
    factors = (0.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.5, 1.0)
    gaps = (0, 0, 600, 1800, 1801, 5400, 5401)
    trajs = {}
    for i in range(n_users):
        u = f"u{i}"
        t = T0 + 600 * int(rng.integers(0, 12))
        stays = []
        for _ in range(int(rng.integers(1, 9))):
            dur = 600 * int(rng.integers(1, 9))
            base = anchors[int(rng.integers(len(anchors)))]
            dist = factors[int(rng.integers(len(factors)))] * reach_m
            lat, lon = destination(*base, float(rng.uniform(0, 360)), dist)
            stays.append(stay(u, t, t + dur, lat, lon))
            t += dur + gaps[int(rng.integers(len(gaps)))]
        trajs[u] = Trajectory(u, stays)
    return trajs


lats = st.floats(-80.0, 80.0)
lons = st.one_of(st.floats(-180.0, 180.0),
                 st.sampled_from([-180.0, 179.9999, 180.0]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(2, 6),
       kernel=st.sampled_from(["indicator", "exponential"]),
       centers=st.lists(st.tuples(lats, lons), min_size=1, max_size=2))
def test_engine_matches_nested_loop_definition(seed, n_users, kernel, centers):
    rng = np.random.default_rng(seed)
    cfg = CoLocationConfig(spatial_kernel=kernel, temporal_kernel=kernel)
    trajs = edge_world(rng, n_users, centers, cfg.spatial_reach_m)
    lat0, lon0 = centers[0]
    grid = GridSpec(lat0 - 0.01, max(-180.0, lon0 - 0.01), 250.0, 8, 8, 60)
    users = sorted(trajs)
    all_pairs = [(a, b) for i, a in enumerate(users) for b in users[i + 1:]]

    got = extract_coevents(trajs, cfg, grid)
    assert list(got) == all_pairs
    for a, b in all_pairs:
        want = oracle_events(trajs[a], trajs[b], cfg, grid)
        assert as_tuples(got[(a, b)]) == want

    asked = [all_pairs[int(k)] for k in rng.integers(len(all_pairs), size=3)]
    asked = [p[::-1] if rng.random() < 0.5 else p for p in asked]
    got = extract_coevents(trajs, cfg, grid, pairs=asked)
    assert list(got) == list(dict.fromkeys(tuple(sorted(p)) for p in asked))
    for a, b in got:
        assert as_tuples(got[(a, b)]) == oracle_events(trajs[a], trajs[b],
                                                       cfg, grid)

    assert stay_participation(trajs, cfg) == oracle_participation(trajs, cfg)


def test_tied_events_keep_nested_loop_order():
    """Two zero-length events at the same instant and weight come in the
    order of a's stays: a's first stay with b's second, then a's second
    stay with b's first."""
    lat, lon = cell_center(Cell(3, 3), GRID)
    lat2, lon2 = cell_center(Cell(3, 4), GRID)     # 250 m north
    a = Trajectory("a", [stay("a", T0, T0 + 600, lat, lon),
                         stay("a", T0 + 1200, T0 + 1800, lat2, lon2)])
    b = Trajectory("b", [stay("b", T0, T0 + 600, lat2, lon2),
                         stay("b", T0 + 900, T0 + 1500, lat, lon)])
    ties = [(e.overlap_start, e.overlap_end, e.cell)
            for e in extract_pair_coevents(a, b, CoLocationConfig(), GRID)
            if e.overlap_s == 0]
    assert ties == [(T0 + 600, T0 + 600, Cell(3, 3)),
                    (T0 + 600, T0 + 600, Cell(3, 4))]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 40), data=st.data(),
       span=st.sampled_from([1, 3, 2**20, 2**40]),
       offset=st.sampled_from([0, -2**40, 1_568_592_000]),
       pair_max=st.sampled_from([0, 4, 2**21, 2**40]))
def test_pair_start_sort_equals_lexsort(n, data, span, offset, pair_max):
    """With ties in (pair, start) and in every key, and with pair codes
    and start spans too wide to pack (the plain lexsort then)."""
    ints = lambda lo, hi: np.array(data.draw(st.lists(
        st.integers(lo, hi), min_size=n, max_size=n)), dtype=np.int64)
    pair = ints(0, 3) * (pair_max // 3 + 1)
    start = offset + ints(0, 3) * (span // 3) + ints(0, 1)
    weight = ints(0, 2) / 4.0
    keys = (ints(0, 3), ints(0, 3), weight, start + ints(0, 2), start, pair)
    got = _lexsort_by_pair_start(*keys)
    assert got.tolist() == np.lexsort(keys).tolist()


def test_pair_without_events_is_listed():
    a = Trajectory("a", [stay("a", T0, T0 + 600, 28.01, 112.91)])
    b = Trajectory("b", [stay("b", T0, T0 + 600, 28.2, 112.91)])
    c = Trajectory("c", [stay("c", T0, T0 + 600, 28.01, 112.91)])
    got = extract_coevents({"a": a, "b": b, "c": c}, CoLocationConfig(), GRID,
                           pairs=[("c", "a"), ("b", "a")])
    assert list(got) == [("a", "c"), ("a", "b")]
    assert len(got[("a", "c")]) == 1 and got[("a", "b")] == []


@pytest.mark.parametrize("bearing", [0.0, 45.0, 90.0])
def test_just_inside_reach_across_bins_at_70_degrees(bearing):
    """Stays 0.999 alpha_d apart at 70 degrees north co-occur wherever the
    pair sits: shifting it through two reach-sized bin widths in latitude
    and longitude puts it across bin edges whatever the edge positions."""
    cfg = CoLocationConfig(alpha_d_m=250.0)
    step_lat = math.degrees(250.0 / EARTH_RADIUS_M) / 10.0
    step_lon = step_lat / math.cos(math.radians(70.0))
    for k in range(20):
        lat, lon = 70.0 + k * step_lat, 10.0 + k * step_lon
        lat2, lon2 = destination(lat, lon, bearing, 0.999 * 250.0)
        a = Trajectory("a", [stay("a", T0, T0 + 600, lat, lon)])
        b = Trajectory("b", [stay("b", T0, T0 + 600, lat2, lon2)])
        assert len(extract_pair_coevents(a, b, cfg, GRID)) == 1


# --- the array kernel against the scalar one, to the last bit -------------
#
# k-anonymity dummies sit on cell centres, and two vertically adjacent
# centres lie 250 m apart up to rounding: exactly the indicator threshold.
# The last bit of the distance decides whether such stays co-occur, so the
# array kernels must give the scalar kernels' weights of `haversine_m`
# value for value, not within a tolerance.

def neighbour_pairs(grid, x, y):
    """Centre coordinates of every cell of column x and row y, and the
    index pairs of their vertically and horizontally adjacent cells."""
    cells = ([Cell(x, r) for r in range(grid.n_y)]
             + [Cell(c, y) for c in range(grid.n_x)])
    lat, lon = (np.array(v) for v in zip(*(cell_center(c, grid)
                                           for c in cells)))
    i = np.r_[np.arange(grid.n_y - 1), grid.n_y + np.arange(grid.n_x - 1)]
    return lat, lon, i, i + 1


@settings(max_examples=80, deadline=None)
@given(origin=st.tuples(st.floats(-60.0, 60.0), st.floats(-180.0, 170.0)),
       x=st.integers(0, 39), y=st.integers(0, 39),
       points=st.lists(st.tuples(lats, lons), min_size=2, max_size=12),
       gaps=st.lists(st.one_of(st.integers(0, 20_000),
                               st.sampled_from([1800, 1801, 5400, 5401])),
                     max_size=20))
def test_array_kernel_equals_scalar_kernel_bit_for_bit(origin, x, y, points,
                                                       gaps):
    grid = GridSpec(*origin, 250.0, 40, 40, 60)
    lat, lon, i, j = neighbour_pairs(grid, x, y)
    # adjacent centres, then every ordered pair of the arbitrary points
    n = len(lat)
    lat = np.r_[lat, [p[0] for p in points]]
    lon = np.r_[lon, [p[1] for p in points]]
    ii, jj = np.divmod(np.arange(len(points) ** 2), len(points))
    i, j = np.r_[i, n + ii], np.r_[j, n + jj]

    want = [haversine_m(lat[a], lon[a], lat[b], lon[b])
            for a, b in zip(i.tolist(), j.tolist())]
    vertical = np.array(want[:grid.n_y - 1])
    assert (np.abs(vertical - 250.0) < 1e-6).all()
    assert (vertical < 250.0).any() and (vertical > 250.0).any()

    gaps = np.array(gaps, dtype=np.int64)
    for kind in KERNELS:
        cfg = CoLocationConfig(alpha_d_m=250.0, spatial_kernel=kind)
        assert _spatial_weights(lat, lon, i, j, cfg).tolist() == [
            _kernel_weight(d, 250.0, kind) for d in want]
        assert _kernel_weights(gaps, 1800.0, kind).tolist() == [
            _kernel_weight(g, 1800.0, kind) for g in gaps.tolist()]


# --- the indicator kernel's distance filter and its exact recheck --------
#
# numpy's sin, cos and arcsin decide every pair whose distance lies
# outside alpha_d (1 +- _RECHECK); haversine_m decides the rest. The
# weights must still equal the scalar kernel's, float for float.

FILTER_ERROR = 1e-14      # the bound stated at colocation._RECHECK
DELTAS = (0.0, 1e-15, 1e-12, 1e-9, 1e-6)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(1.0, 100_000.0), lat=lats, lon=lons,
       bearings=st.lists(st.floats(0.0, 360.0), min_size=1, max_size=4))
def test_filtered_weights_equal_the_scalar_kernel(alpha, lat, lon, bearings):
    """Points at alpha_d (1 +- delta) from a centre, delta from 0 to 1e-6:
    pairs on both sides of the threshold, of the recheck band and of its
    edges."""
    pts = [(lat, lon)] + [destination(lat, lon, b, alpha * (1 + s * d))
                          for b in bearings for d in DELTAS for s in (1, -1)]
    plat, plon = (np.array(v) for v in zip(*pts))
    j = np.arange(1, len(pts))
    i = np.zeros_like(j)
    exact = [haversine_m(lat, lon, *p) for p in pts[1:]]
    for kind in KERNELS:
        cfg = CoLocationConfig(alpha_d_m=alpha, spatial_kernel=kind)
        assert _spatial_weights(plat, plon, i, j, cfg).tolist() == [
            _kernel_weight(d, alpha, kind) for d in exact]
    got = _filter_distances_m(plat, plon, i, j)
    assert (np.abs(got - exact) <= FILTER_ERROR * np.array(exact)).all()


def test_filter_bound_up_to_a_quarter_circumference():
    """The bound that the recheck band rests on, over distances from 1 cm
    to a quarter of the circumference, at every latitude to +-85 and
    across the antimeridian; the band is a thousandfold wider."""
    rng = np.random.default_rng(5)
    n = 20_000
    lat, lon = rng.uniform(-85, 85, n), rng.uniform(-180, 180, n)
    dist = np.exp(rng.uniform(math.log(0.01), math.log(math.pi / 2.0
                                                       * EARTH_RADIUS_M), n))
    far = [destination(*p) for p in zip(lat.tolist(), lon.tolist(),
                                        rng.uniform(0, 360, n).tolist(),
                                        dist.tolist())]
    plat = np.r_[lat, [p[0] for p in far]]
    plon = np.r_[lon, [p[1] for p in far]]
    i = np.arange(n)
    exact = _exact_distances_m(plat, plon, i, i + n)
    got = _filter_distances_m(plat, plon, i, i + n)
    assert (np.abs(got - exact) <= FILTER_ERROR * exact).all()
    assert _RECHECK >= 1000 * FILTER_ERROR


def test_recheck_decides_the_pairs_near_the_threshold(monkeypatch):
    """A filter off by the whole bound, up or down, still gives the scalar
    kernel's weights with alpha_d at a pair's exact distance or one ulp
    below it, where only the exact distance can tell."""
    rng = np.random.default_rng(6)
    n = 100
    lat, lon = rng.uniform(-80, 80, n), rng.uniform(-180, 180, n)
    far = [destination(*p) for p in zip(lat.tolist(), lon.tolist(),
                                        rng.uniform(0, 360, n).tolist(),
                                        rng.uniform(1, 100_000, n).tolist())]
    plat = np.r_[lat, [p[0] for p in far]]
    plon = np.r_[lon, [p[1] for p in far]]
    exact = _exact_distances_m(plat, plon, np.arange(n),
                               np.arange(n, 2 * n))
    for sign in (1.0, -1.0):
        monkeypatch.setattr(
            "trajpriv.colocation._filter_distances_m",
            lambda *args, f=_filter_distances_m, s=sign: f(*args) * (
                1.0 + s * FILTER_ERROR))
        for k, d in enumerate(exact.tolist()):
            for alpha in (d, float(np.nextafter(d, 0.0))):
                cfg = CoLocationConfig(alpha_d_m=alpha)
                assert _spatial_weights(plat, plon, np.array([k]),
                                        np.array([n + k]), cfg).tolist() == [
                    _kernel_weight(d, alpha, "indicator")]


def test_long_reach_takes_the_exact_distance_for_every_pair(monkeypatch):
    # beyond a quarter circumference the filter's bound is not shown
    seen = []

    def counting(*args):
        seen.append(args)
        return haversine_m(*args)

    monkeypatch.setattr("trajpriv.colocation.haversine_m", counting)
    lat, lon = np.array([0.0, 0.0, 10.0]), np.array([0.0, 100.0, -170.0])
    i, j = np.array([0, 0, 1]), np.array([1, 2, 2])
    want = [_kernel_weight(haversine_m(lat[a], lon[a], lat[b], lon[b]),
                           1.2e7, "indicator") for a, b in zip(i, j)]
    cfg = CoLocationConfig(alpha_d_m=1.2e7)
    assert _spatial_weights(lat, lon, i, j, cfg).tolist() == want
    assert len(seen) == 3 and 0.0 in want and 1.0 in want


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("lat0", [0.0, 60.0, -78.0])
def test_candidates_across_the_column_wrap_equal_brute_force(lat0, kernel):
    """Stays within a few reaches of the antimeridian, on both sides of
    it: every stay pair of two users with a nonzero kernel weight is a
    candidate, once, whichever side each stay is on."""
    rng = np.random.default_rng(int(lat0) + 300)
    cfg = CoLocationConfig(spatial_kernel=kernel, temporal_kernel=kernel)
    reach = cfg.spatial_reach_m
    trajs = {}
    for k in range(6):
        u, t, stays = f"u{k}", T0 + 600 * int(rng.integers(0, 4)), []
        for _ in range(15):
            lat, lon = destination(lat0, 180.0, float(rng.uniform(0, 360)),
                                   float(rng.uniform(0, 3)) * reach)
            stays.append(stay(u, t, t + 600, lat, lon))
            t += 600 * int(rng.integers(1, 5))
        trajs[u] = Trajectory(u, stays)
    cols, owner = _gather(trajs, sorted(trajs))
    first, second = _candidate_pairs(cols, owner, cfg)
    got = list(zip(np.minimum(first, second).tolist(),
                   np.maximum(first, second).tolist()))
    assert len(got) == len(set(got))
    assert (owner[first] != owner[second]).all()
    start, stop, lat, lon = (c.tolist() for c in cols)
    want = {(a, b) for a in range(len(owner)) for b in range(a + 1, len(owner))
            if owner[a] != owner[b]
            and cfg.spatial_weight(haversine_m(lat[a], lon[a], lat[b], lon[b]))
            * cfg.temporal_weight(max(0, max(start[a], start[b])
                                      - min(stop[a], stop[b]))) > 0}
    assert want <= set(got)
    assert any(lon[a] * lon[b] < 0 for a, b in want)     # across the seam


def snapped_world(rng, n_users, grid):
    """Users whose stays sit exactly on the centres of a 3 x 3 block of
    cells, as k-anonymity dummies do, on a 10-minute raster with gaps at
    the temporal reach; one user in four also visits the centre of the
    cell just west of the grid, which has no cell."""
    x0, y0 = int(rng.integers(0, 6)), int(rng.integers(0, 6))
    spots = [cell_center(Cell(x0 + dx, y0 + dy), grid)
             for dx in range(3) for dy in range(3)]
    west = cell_center(Cell(-1, y0), grid)
    gaps = (0, 600, 1800, 1801, 5400)
    trajs = {}
    for k in range(n_users):
        u = f"u{k}"
        t = T0 + 600 * int(rng.integers(0, 6))
        stays = []
        for _ in range(int(rng.integers(2, 10))):
            dur = 600 * int(rng.integers(1, 6))
            lat, lon = spots[int(rng.integers(len(spots)))]
            if k % 4 == 3 and rng.random() < 0.3:
                lat, lon = west
            stays.append(stay(u, t, t + dur, lat, lon))
            t += dur + gaps[int(rng.integers(len(gaps)))]
        trajs[u] = Trajectory(u, stays)
    return trajs


@pytest.mark.parametrize("kernel", KERNELS)
def test_engine_matches_nested_loop_definition_on_cell_centres(kernel):
    """Stays on cell centres put stay pairs at 250 m up to the last bit,
    on both sides of it; events, their cells and weights, and participation
    flags still equal the nested-loop definition exactly."""
    cfg = CoLocationConfig(spatial_kernel=kernel, temporal_kernel=kernel)
    sides = set()
    for seed, origin_lat in enumerate([28.0, -33.9, 51.5, 0.0, 64.1] * 4):
        rng = np.random.default_rng(seed)
        grid = GridSpec(origin_lat, 112.9, 250.0, 10, 10, 60)
        trajs = snapped_world(rng, int(rng.integers(2, 6)), grid)
        users = sorted(trajs)
        got = extract_coevents(trajs, cfg, grid)
        for a, b in got:
            assert as_tuples(got[(a, b)]) == oracle_events(trajs[a], trajs[b],
                                                           cfg, grid)
        assert stay_participation(trajs, cfg) == oracle_participation(trajs,
                                                                      cfg)
        for a in users:
            for b in users:
                for sa in trajs[a].stays:
                    for sb in trajs[b].stays:
                        d = haversine_m(sa.lat, sa.lon, sb.lat, sb.lon)
                        if a != b and abs(d - 250.0) < 1e-6:
                            sides.add(d < 250.0)
    assert sides == {False, True}


def test_engine_without_stays_or_pairs():
    cfg = CoLocationConfig()
    a = Trajectory("a", [stay("a", T0, T0 + 600, 28.01, 112.91),
                         stay("a", T0 + 600, T0 + 1200, 28.01, 112.91)])
    b = Trajectory("b", [stay("b", T0, T0 + 600, 28.01, 112.91)])
    assert extract_coevents({}, cfg, GRID) == {}
    assert stay_participation({}, cfg) == {}
    assert extract_coevents({"a": a, "b": b}, cfg, GRID, pairs=[]) == {}
    assert extract_coevents({"a": a}, cfg, GRID) == {}
    assert stay_participation({"a": a}, cfg) == {"a": [False, False]}


def test_off_grid_stay_of_user_a_has_no_cell():
    west = (28.01, GRID.origin_lon - 0.0005)
    a = Trajectory("a", [stay("a", T0, T0 + 600, *west)])
    b = Trajectory("b", [stay("b", T0, T0 + 600, west[0], GRID.origin_lon)])
    events = extract_pair_coevents(a, b, CoLocationConfig(), GRID)
    assert [e.cell for e in events] == [None]
    assert as_tuples(events) == oracle_events(a, b, CoLocationConfig(), GRID)
    assert extract_pair_coevents(b, a, CoLocationConfig(), GRID) == events


@pytest.mark.parametrize("pairs,message", [
    ([("a", "a")], r"pair \('a', 'a'\) names one user twice"),
    ([("a", "b"), ("b", "nobody")],
     r"pair \('b', 'nobody'\) names unknown user 'nobody'"),
])
def test_malformed_pairs_are_rejected(pairs, message):
    a = Trajectory("a", [stay("a", T0, T0 + 600, 28.01, 112.91)])
    b = Trajectory("b", [stay("b", T0, T0 + 600, 28.01, 112.91)])
    with pytest.raises(ValueError, match=message):
        extract_coevents({"a": a, "b": b}, CoLocationConfig(), GRID,
                         pairs=pairs)


class TestCoEvent:
    @pytest.mark.parametrize("args,message", [
        (("b", "a", None, T0, T0, 1.0), "ordered"),
        (("a", "a", None, T0, T0, 1.0), "ordered"),
        (("a", "b", None, T0 + 1, T0, 1.0), "inverted"),
        (("a", "b", None, T0, T0, 0.0), r"\(0, 1\]"),
        (("a", "b", None, T0, T0, 1.5), r"\(0, 1\]"),
    ])
    def test_invalid_event_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            CoEvent(*args)

    def test_equal_events_compare_and_hash_equal(self):
        e1 = CoEvent("a", "b", Cell(1, 2), T0, T0 + 60, 0.5)
        e2 = CoEvent("a", "b", Cell(1, 2), T0, T0 + 60, 0.5)
        assert e1 == e2 and hash(e1) == hash(e2) and len({e1, e2}) == 1
        assert e1 != CoEvent("a", "b", Cell(1, 2), T0, T0 + 60, 0.25)
        assert e1.overlap_s == 60 and e1.cell == (1, 2)

    def test_replace_and_make_check_the_new_event(self):
        e = CoEvent("a", "b", None, T0, T0 + 60, 0.5)
        assert e._replace(weight=0.25).weight == 0.25
        with pytest.raises(ValueError, match="inverted"):
            e._replace(weight=2.0, overlap_end=T0 - 1)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            e._replace(weight=2.0)
        with pytest.raises(ValueError, match="ordered"):
            CoEvent._make(["b", "a", None, T0 + 60, T0, -1.0])
        assert CoEvent._make(e) == e


# --- the event table: views, their rows and the metrics read from them -----

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(2, 6),
       kernel=st.sampled_from(["indicator", "exponential"]),
       centers=st.lists(st.tuples(lats, lons), min_size=1, max_size=2))
def test_views_read_as_their_rows(seed, n_users, kernel, centers):
    """Each view's columns hold its CoEvent rows' fields, and the metrics
    of a view of the all-pairs table equal those of the list of its rows
    and of the pair's own one-pair table, to the last bit."""
    rng = np.random.default_rng(seed)
    cfg = CoLocationConfig(spatial_kernel=kernel, temporal_kernel=kernel)
    trajs = edge_world(rng, n_users, centers, cfg.spatial_reach_m)
    lat0, lon0 = centers[0]
    grid = GridSpec(lat0 - 0.01, max(-180.0, lon0 - 0.01), 250.0, 8, 8, 60)
    ent = cell_visit_entropy(trajs, grid)
    for (a, b), view in extract_coevents(trajs, cfg, grid).items():
        rows = list(view)
        assert isinstance(view, PairEvents) and len(view) == len(rows)
        assert (view.user_a, view.user_b) == (a, b)
        assert view == rows and [view[i] for i in range(len(view))] == rows
        assert [view.cells[c] for c in view.cell.tolist()] == [
            e.cell for e in rows]
        for name in ("overlap_start", "overlap_end", "weight"):
            column = getattr(view, name)
            assert not column.flags.writeable
            assert column.tolist() == [getattr(e, name) for e in rows]
        alone = extract_coevents(trajs, cfg, grid, pairs=[(a, b)])[(a, b)]
        assert alone == rows
        assert (repr(coevent_score(view)) == repr(coevent_score(rows))
                == repr(coevent_score(alone)))
        from_view = compute_features(view, ent, pair=(a, b), label=True)
        from_rows = compute_features(rows, ent, pair=(a, b), label=True)
        from_alone = compute_features(alone, ent, pair=(a, b), label=True)
        assert from_view == from_rows == from_alone
        assert (features_to_csv([from_view]) == features_to_csv([from_rows])
                == features_to_csv([from_alone]))


def test_view_indexing_follows_a_list():
    a = Trajectory("a", [stay("a", T0, T0 + 600, 28.01, 112.91),
                         stay("a", T0 + 900, T0 + 1500, 28.01, 112.91)])
    b = Trajectory("b", [stay("b", T0, T0 + 1500, 28.01, 112.91)])
    view = extract_coevents({"a": a, "b": b}, CoLocationConfig(), GRID)[
        ("a", "b")]
    rows = list(view)
    assert len(rows) == 2 and view[-1] == rows[-1] and view[1:] == rows[1:]
    with pytest.raises(IndexError):
        view[2]
    assert view != rows[:1] and view != rows[0]
    assert pair_events(view) is view and pair_events(rows) == view
    with pytest.raises(TypeError):
        hash(view)


def test_rows_of_several_pairs_are_not_one_pair():
    e1 = CoEvent("a", "b", None, T0, T0, 1.0)
    e2 = CoEvent("c", "d", None, T0, T0, 1.0)
    with pytest.raises(ValueError,
                       match=r"\('a', 'b'\) and \('c', 'd'\)"):
        coevent_score([e1, e2])


def oracle_cell_visit_entropy(trajs, grid):
    """Per-cell entropy of the visiting users, from the definition: stays
    counted one at a time, users in sorted order, into a dict per cell,
    and one 1-D numpy entropy per cell (0.0, not -0.0, for one visitor)."""
    visits = {}
    for traj in map(trajs.get, sorted(trajs)):
        for s in traj.stays:
            try:
                cell = to_cell(s.lat, s.lon, grid)
            except OutOfGridError:
                continue
            users = visits.setdefault(cell, {})
            users[traj.user_id] = users.get(traj.user_id, 0) + 1
    out = {}
    for cell, users in visits.items():
        counts = np.asarray(list(users.values()), dtype=float)
        p = counts / counts.sum()
        out[cell] = 0.0 - float((p * np.log(p)).sum())
    return out


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 160),
       n_cells=st.integers(1, 4))
def test_cell_visit_entropy_matches_per_cell_oracle(seed, n_users, n_cells):
    """Key order and values to the last bit, also for cells with 8 or more
    and with more than 128 visiting users, where numpy's pairwise sum
    orders its additions differently."""
    rng = np.random.default_rng(seed)
    spots = [cell_center(Cell(int(rng.integers(0, 8)), int(rng.integers(
        0, 8))), GRID) for _ in range(n_cells)] + [cell_center(Cell(-1, 0),
                                                              GRID)]
    trajs = {}
    for k in rng.permutation(n_users).tolist():
        u = f"u{k}"
        t = T0 + 600 * int(rng.integers(0, 6))
        stays = []
        for _ in range(int(rng.integers(1, 6))):
            lat, lon = spots[int(rng.integers(len(spots)))]
            stays.append(stay(u, t, t + 600, lat, lon))
            t += 1200
        trajs[u] = Trajectory(u, stays)
    got = cell_visit_entropy(trajs, GRID)
    want = oracle_cell_visit_entropy(trajs, GRID)
    assert [(c, repr(v)) for c, v in got.items()] == [
        (c, repr(v)) for c, v in want.items()]
    # the users' order in the dict is not read
    backwards = dict(reversed(trajs.items()))
    assert list(cell_visit_entropy(backwards, GRID).items()) == list(
        got.items())


@pytest.mark.parametrize("n_users", [8, 9, 129, 300])
def test_cell_visit_entropy_of_one_crowded_cell(n_users):
    """One cell visited by n users with unequal visit counts, next to a
    cell with one visitor."""
    lat, lon = cell_center(Cell(2, 3), GRID)
    lat2, lon2 = cell_center(Cell(5, 5), GRID)
    trajs = {}
    for k in range(n_users):
        stays = [stay(f"u{k}", T0 + 1200 * i, T0 + 1200 * i + 600, lat, lon)
                 for i in range(1 + k % 5)]
        if k == n_users // 2:
            stays.append(stay(f"u{k}", T0 + 9000, T0 + 9600, lat2, lon2))
        trajs[f"u{k}"] = Trajectory(f"u{k}", stays)
    got = cell_visit_entropy(trajs, GRID)
    want = oracle_cell_visit_entropy(trajs, GRID)
    assert list(got) == [Cell(2, 3), Cell(5, 5)]
    assert [repr(v) for v in got.values()] == [repr(v) for v in want.values()]
    assert repr(got[Cell(5, 5)]) == "0.0"       # not -0.0
