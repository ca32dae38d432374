import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trajpriv

from trajpriv.core import (GridSpec, StayParseError, StayRecord, Trajectory,
                           cell_center, cell_of, haversine_m, parse_stays,
                           serialize_stays, stays_from_jsonl, stays_to_jsonl,
                           time_slot, to_cell, OutOfGridError)

SAMPLE_CSV = (
    "ID,Start time,Start lat,Start lon,Stop time,Stop lat,Stop lon\n"
    "399387,16/09/2019 15:44:57,28.027098,112.973641,"
    "16/09/2019 15:50:11,28.032458,112.988596\n"
)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)


def _slc_oracle(lat1, lon1, lat2, lon2):
    # independent great-circle distance: spherical law of cosines
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = (math.sin(p1) * math.sin(p2)
         + math.cos(p1) * math.cos(p2) * math.cos(dl))
    return 6_371_000.0 * math.acos(max(-1.0, min(1.0, c)))


class TestParse:
    def test_sample_row(self):
        recs = parse_stays(SAMPLE_CSV)
        assert len(recs) == 1
        r = recs[0]
        assert r.user_id == "399387"
        assert r.duration_s == 314
        assert r.start_lat == 28.027098
        assert r.stop_lon == 112.988596

    def test_empty_file(self):
        header = SAMPLE_CSV.splitlines()[0] + "\n"
        assert parse_stays(header) == []

    def test_inverted_interval(self):
        bad = (SAMPLE_CSV.splitlines()[0] + "\n"
               "1,16/09/2019 15:50:11,28.0,112.9,16/09/2019 15:44:57,28.0,112.9\n")
        with pytest.raises(StayParseError) as exc:
            parse_stays(bad)
        assert exc.value.row == 1
        assert "inverted_interval" in exc.value.reason

    def test_coordinate_out_of_range(self):
        bad = (SAMPLE_CSV.splitlines()[0] + "\n"
               "1,16/09/2019 15:44:57,91.0,112.9,16/09/2019 15:50:11,28.0,112.9\n")
        with pytest.raises(StayParseError):
            parse_stays(bad)

    def test_skip_mode_collects_errors(self):
        bad = (SAMPLE_CSV
               + "1,not-a-time,28.0,112.9,16/09/2019 15:50:11,28.0,112.9\n")
        recs, errors = parse_stays(bad, strict=False)
        assert len(recs) == 1
        assert len(errors) == 1
        assert errors[0].row == 2

    def test_bad_header(self):
        with pytest.raises(StayParseError):
            parse_stays("a,b,c\n")

    def test_roundtrip_csv(self):
        rng = np.random.default_rng(5)
        recs = []
        for i in range(100):
            t0 = 1568592000 + int(rng.integers(0, 10**6))
            recs.append(StayRecord(f"u{i}", t0, t0 + int(rng.integers(1, 9000)),
                                   float(rng.uniform(-89, 89)),
                                   float(rng.uniform(-179, 179)),
                                   float(rng.uniform(-89, 89)),
                                   float(rng.uniform(-179, 179))))
        text = serialize_stays(recs)
        assert parse_stays(text) == recs
        assert parse_stays(serialize_stays(parse_stays(text))) == recs

    def test_roundtrip_jsonl(self):
        recs = parse_stays(SAMPLE_CSV)
        assert stays_from_jsonl(stays_to_jsonl(recs)) == recs

    def test_jsonl_naive_timestamps_are_utc_in_any_host_zone(self):
        line = json.dumps({"user_id": "u",
                           "start_time": "2019-09-16T00:00:00",
                           "stop_time": "2019-09-16T09:00:00+08:00",
                           "start_lat": 28.0, "start_lon": 112.9,
                           "stop_lat": 28.0, "stop_lon": 112.9})
        code = ("import sys; from trajpriv.core import stays_from_jsonl; "
                "r = stays_from_jsonl(sys.stdin.read())[0]; "
                "print(r.start_time, r.stop_time)")
        src = str(Path(trajpriv.__file__).resolve().parents[1])
        env = dict(os.environ, TZ="Asia/Shanghai",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], input=line,
                             env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        # naive -> UTC midnight; an explicit +08:00 offset is honoured
        assert out.stdout.split() == ["1568592000", "1568595600"]

    def test_jsonl_malformed_line_reports_line_number(self):
        good = stays_to_jsonl(parse_stays(SAMPLE_CSV))
        fields = json.loads(good)
        bad_lines = ["{not json", json.dumps({"user_id": "u"}),
                     json.dumps(dict(fields, start_time="16/09/2019")),
                     json.dumps(dict(fields, start_lat=123.0))]
        for bad in bad_lines:
            with pytest.raises(StayParseError) as info:
                stays_from_jsonl(good + "\n" + bad + "\n")
            assert info.value.row == 3


class TestHaversine:
    def test_identity(self):
        assert haversine_m(28.0, 112.9, 28.0, 112.9) == 0.0

    def test_sample_pair_against_oracle(self):
        d = haversine_m(28.027098, 112.973641, 28.032458, 112.988596)
        assert d == pytest.approx(1584.25, abs=0.5)   # frozen oracle value
        assert d == pytest.approx(
            _slc_oracle(28.027098, 112.973641, 28.032458, 112.988596),
            rel=1e-6)

    def test_antipodal_on_equator(self):
        assert haversine_m(0, 0, 0, 180) == pytest.approx(
            math.pi * 6_371_000.0, rel=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pts = [(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
                   for _ in range(3)]
            a, b, c = pts
            dab = haversine_m(*a, *b)
            assert dab == pytest.approx(haversine_m(*b, *a), rel=1e-6)
            assert dab <= (haversine_m(*a, *c) + haversine_m(*c, *b)
                           + 1e-6 * max(1.0, dab))


class TestGrid:
    def test_origin_cell(self):
        c = to_cell(GRID.origin_lat + 1e-9, GRID.origin_lon + 1e-9, GRID)
        assert (c.x, c.y) == (0, 0)

    def test_boundary_goes_to_higher_cell(self):
        # grid whose first interior x-boundary is exactly representable:
        # cell size computed with the same projection arithmetic
        edge_lon = 0.001
        cell = math.radians(edge_lon) * 6_371_000.0 * math.cos(0.0)
        g = GridSpec(0.0, 0.0, cell, 4, 4, 60)
        c = to_cell(0.0, edge_lon, g)
        assert (c.x, c.y) == (1, 0)
        below = to_cell(0.0, edge_lon * (1 - 1e-9), g)
        assert (below.x, below.y) == (0, 0)

    def test_out_of_grid(self):
        with pytest.raises(OutOfGridError):
            to_cell(27.0, 112.9, GRID)

    def test_cell_of_is_none_only_off_the_grid(self):
        assert cell_of(27.0, 112.9, GRID) is None
        assert cell_of(28.0, 112.9, GRID) == to_cell(28.0, 112.9, GRID)

    def test_partition_against_containment_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            # random in-bounds planar point, then invert to lat/lon
            x_m = rng.uniform(0, GRID.n_x * GRID.cell_size_m - 1e-6)
            y_m = rng.uniform(0, GRID.n_y * GRID.cell_size_m - 1e-6)
            lat = GRID.origin_lat + math.degrees(y_m / 6_371_000.0)
            lon = GRID.origin_lon + math.degrees(
                x_m / (6_371_000.0 * math.cos(math.radians(GRID.origin_lat))))
            c = to_cell(lat, lon, GRID)
            # brute-force scan over all cells for half-open containment
            hits = [(x, y) for x in range(GRID.n_x) for y in range(GRID.n_y)
                    if (x * GRID.cell_size_m <= x_m < (x + 1) * GRID.cell_size_m
                        and y * GRID.cell_size_m <= y_m
                        < (y + 1) * GRID.cell_size_m)]
            assert hits == [(c.x, c.y)]


class TestTimeSlot:
    def test_midnight(self):
        slot, weekend = time_slot(1568592000, GRID)   # 2019-09-16 00:00 UTC
        assert slot == 0 and weekend is False

    def test_sample_timestamp_is_monday_slot_15(self):
        from trajpriv.core import parse_timestamp
        t = parse_timestamp("16/09/2019 15:44:57")
        slot, weekend = time_slot(t, GRID)
        assert slot == 15 and weekend is False

    def test_last_slot_30min(self):
        g = GridSpec(28.0, 112.9, 250.0, 40, 40, 30)
        from trajpriv.core import parse_timestamp
        slot, _ = time_slot(parse_timestamp("16/09/2019 23:59:00"), g)
        assert slot == 47

    def test_weekend_flag(self):
        from trajpriv.core import parse_timestamp
        _, weekend = time_slot(parse_timestamp("21/09/2019 12:00:00"), GRID)
        assert weekend is True

    def test_matches_datetime_over_weeks(self):
        from datetime import datetime, timezone
        from trajpriv.features import default_holiday
        grids = [GridSpec(28.0, 112.9, 250.0, 40, 40, m) for m in (15, 60)]
        step = 3 * 3600 + 7 * 60 + 13      # walks through every weekday
        for t in [*range(-3 * 604800, 3 * 604800, step),
                  *range(1568592000 - 604800, 1568592000 + 604800, step),
                  -1, 0, 86399, 86400]:
            dt = datetime.fromtimestamp(t, tz=timezone.utc)
            minutes = dt.hour * 60 + dt.minute
            for g in grids:
                assert time_slot(t, g) == (minutes // g.time_slot_minutes,
                                           dt.weekday() >= 5)
            assert default_holiday(t) == (dt.weekday() >= 5)


class TestTrajectory:
    def test_sorts_and_rejects_overlap(self):
        a = StayRecord("u", 100, 200, 28.0, 112.9, 28.0, 112.9)
        b = StayRecord("u", 250, 300, 28.0, 112.9, 28.0, 112.9)
        t = Trajectory("u", [b, a])
        assert [s.start_time for s in t] == [100, 250]
        c = StayRecord("u", 150, 260, 28.0, 112.9, 28.0, 112.9)
        with pytest.raises(ValueError):
            Trajectory("u", [a, c])

    def test_rejects_foreign_user(self):
        a = StayRecord("v", 100, 200, 28.0, 112.9, 28.0, 112.9)
        with pytest.raises(ValueError):
            Trajectory("u", [a])
