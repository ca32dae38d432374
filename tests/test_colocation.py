import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajpriv.core import (EARTH_RADIUS_M, GridSpec, StayRecord, Trajectory,
                           cell_center, Cell, haversine_m, pair_distances_m)
from trajpriv.colocation import (KERNELS, CoEvent, CoLocationConfig,
                                 coevent_score, extract_coevents,
                                 extract_pair_coevents, stay_participation,
                                 _kernel_weight, _kernel_weights)

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
# array forms must equal the scalar ones value for value, not within a
# tolerance.

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

    got = pair_distances_m(lat, lon, i, j)
    want = [haversine_m(lat[a], lon[a], lat[b], lon[b])
            for a, b in zip(i.tolist(), j.tolist())]
    assert got.tolist() == want
    vertical = np.array(want[:grid.n_y - 1])
    assert (np.abs(vertical - 250.0) < 1e-6).all()
    assert (vertical < 250.0).any() and (vertical > 250.0).any()

    gaps = np.array(gaps, dtype=np.int64)
    for kind in KERNELS:
        assert _kernel_weights(got, 250.0, kind).tolist() == [
            _kernel_weight(d, 250.0, kind) for d in want]
        assert _kernel_weights(gaps, 1800.0, kind).tolist() == [
            _kernel_weight(g, 1800.0, kind) for g in gaps.tolist()]


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
