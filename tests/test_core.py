import csv
import io
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trajpriv
from trajpriv import core
from trajpriv.core import (CSV_HEADER, TIME_FORMAT, Cell, GridSpec,
                           StayParseError, StayRecord, StayTable, Trajectory,
                           cell_center, cells_of, group_trajectories,
                           haversine_m, parse_stays, parse_timestamp,
                           serialize_stays, stays_from_jsonl, stays_to_jsonl,
                           time_slot, to_cell, weekday, OutOfGridError)
from trajpriv.publish import top_cells

SAMPLE_CSV = (
    "ID,Start time,Start lat,Start lon,Stop time,Stop lat,Stop lon\n"
    "399387,16/09/2019 15:44:57,28.027098,112.973641,"
    "16/09/2019 15:50:11,28.032458,112.988596\n"
)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)


@st.composite
def stay_records(draw):
    """Valid stay records: ids without surrounding whitespace (the CSV
    reader strips it), whole-second times from 1970 to 2100, any in-range
    coordinates."""
    user = draw(st.text(st.characters(blacklist_categories=("Cc", "Cs")),
                        min_size=1, max_size=8).filter(
                            lambda u: u == u.strip()))
    t0 = draw(st.integers(0, 4_102_444_800))
    lat = st.floats(-90.0, 90.0)
    lon = st.floats(-180.0, 180.0)
    return StayRecord(user, t0, t0 + draw(st.integers(1, 10 * 86400)),
                      draw(lat), draw(lon), draw(lat), draw(lon))


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

    @settings(max_examples=40, deadline=None)
    @given(recs=st.lists(stay_records(), max_size=8))
    def test_csv_roundtrip_property(self, recs):
        assert parse_stays(serialize_stays(recs)) == recs

    @settings(max_examples=40, deadline=None)
    @given(recs=st.lists(stay_records(), max_size=8))
    def test_jsonl_roundtrip_property(self, recs):
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

    def test_jsonl_rejects_values_the_csv_cannot_carry(self):
        good = stays_to_jsonl(parse_stays(SAMPLE_CSV))
        fields = json.loads(good)
        for key, value, reason in [
                ("start_lat", True, "start_lat must be a number, got True"),
                ("stop_lon", "112.9", "stop_lon must be a number, got "
                                      "'112.9'"),
                ("user_id", 7, "user_id must be a string, got 7"),
                ("user_id", None, "user_id must be a string, got None")]:
            bad = json.dumps(dict(fields, **{key: value}))
            with pytest.raises(StayParseError) as info:
                stays_from_jsonl(good + "\n" + bad + "\n")
            assert info.value.row == 3
            assert info.value.reason == f"TypeError: {reason}"
        # an integer coordinate is a number, and survives the CSV form
        [rec] = stays_from_jsonl(json.dumps(dict(fields, start_lat=28)))
        assert parse_stays(serialize_stays([rec])) == [rec]


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
        assert cells_of([27.0, 28.0], [112.9, 112.9], GRID) == [
            None, to_cell(28.0, 112.9, GRID)]
        # every point against to_cell, about 1 km beyond each grid edge
        rng = np.random.default_rng(8)
        lat = GRID.origin_lat + rng.uniform(-0.01, 0.1, 2000)
        lon = GRID.origin_lon + rng.uniform(-0.01, 0.113, 2000)
        want = []
        for a, b in zip(lat.tolist(), lon.tolist()):
            try:
                want.append(to_cell(a, b, GRID))
            except OutOfGridError:
                want.append(None)
        assert None in want
        assert cells_of(lat, lon, GRID) == want

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


def strptime_epoch(text):
    dt = datetime.strptime(text, TIME_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def assert_parses_as_strptime(text):
    try:
        want = strptime_epoch(text)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            parse_timestamp(text)
        assert str(got.value) == str(e)
    else:
        assert parse_timestamp(text) == want


class TestParseTimestamp:
    @settings(max_examples=200, deadline=None)
    @given(st.datetimes(min_value=datetime(1, 1, 1),
                        max_value=datetime(9999, 12, 31, 23, 59, 59)))
    def test_valid_stamps_equal_strptime(self, dt):
        text = (f"{dt.day:02d}/{dt.month:02d}/{dt.year:04d} "
                f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")
        assert parse_timestamp(text) == strptime_epoch(text)

    @settings(max_examples=200, deadline=None)
    @given(fields=st.tuples(*[st.integers(0, 99)] * 2, st.integers(0, 9999),
                            *[st.integers(0, 99)] * 3),
           padded=st.booleans())
    def test_any_field_values_parse_or_fail_as_strptime(self, fields,
                                                          padded):
        d, mo, y, hh, mm, ss = fields
        if padded:
            text = f"{d:02d}/{mo:02d}/{y:04d} {hh:02d}:{mm:02d}:{ss:02d}"
        else:
            text = f"{d}/{mo}/{y} {hh}:{mm}:{ss}"
        assert_parses_as_strptime(text)

    @pytest.mark.parametrize("text", [
        "31/04/2019 10:00:00", "16/09/2019 24:00:00", "16/09/2019 10:00:60",
        "16/09/2019 10:00:61", "16/09/0000 10:00:00", "6/9/2019 1:2:3",
        " 16/09/2019 10:00:00", "16/09/2019 10:00", "16-09-2019 10:00:00",
        "16/09/2019 10:00:00x", ""])
    def test_edge_cases_match_strptime(self, text):
        assert_parses_as_strptime(text)


class TestTimeSlot:
    def test_midnight(self):
        t = 1568592000                                 # 2019-09-16 00:00 UTC
        assert time_slot(t, GRID) == 0 and not weekday(t) >= 5

    def test_sample_timestamp_is_monday_slot_15(self):
        t = parse_timestamp("16/09/2019 15:44:57")
        assert time_slot(t, GRID) == 15 and weekday(t) == 0

    def test_last_slot_30min(self):
        g = GridSpec(28.0, 112.9, 250.0, 40, 40, 30)
        assert time_slot(parse_timestamp("16/09/2019 23:59:00"), g) == 47

    def test_weekend_flag(self):
        assert weekday(parse_timestamp("21/09/2019 12:00:00")) >= 5

    def test_matches_datetime_over_weeks(self):
        grids = [GridSpec(28.0, 112.9, 250.0, 40, 40, m) for m in (15, 60)]
        step = 3 * 3600 + 7 * 60 + 13      # walks through every weekday
        ts = [*range(-3 * 604800, 3 * 604800, step),
              *range(1568592000 - 604800, 1568592000 + 604800, step),
              -1, 0, 86399, 86400]
        for t in ts:
            dt = datetime.fromtimestamp(t, tz=timezone.utc)
            minutes = dt.hour * 60 + dt.minute
            assert (weekday(t) >= 5) == (dt.weekday() >= 5)
            for g in grids:
                assert time_slot(t, g) == minutes // g.time_slot_minutes
        # an array of times gives the array of slots
        for g in grids:
            assert time_slot(np.array(ts), g).tolist() == [
                time_slot(t, g) for t in ts]


class TestCell:
    def test_cell_is_its_xy_pair(self):
        assert Cell(3, 4) == (3, 4)
        assert hash(Cell(3, 4)) == hash((3, 4))
        assert {(3, 4): "a"}[Cell(3, 4)] == "a"
        assert to_cell(*cell_center((3, 4), GRID), GRID) == (3, 4)

    def test_cell_center_takes_a_cell_or_a_pair(self):
        for x, y in [(0, 0), (3, 4), (39, 17)]:
            assert cell_center(Cell(x, y), GRID) == cell_center((x, y), GRID)

    def test_top_cells_returns_cells(self):
        stays = [StayRecord("u", 1000 * i, 1000 * i + 500,
                            *cell_center(c, GRID), *cell_center(c, GRID))
                 for i, c in enumerate([(2, 5), (1, 1), (2, 5), (7, 0)])]
        cells = top_cells(Trajectory("u", stays), GRID, 2)
        assert cells == [(2, 5), (1, 1)]
        assert all(type(c) is Cell for c in cells)


class TestTrajectory:
    def test_sorts_and_rejects_overlap(self):
        a = StayRecord("u", 100, 200, 28.0, 112.9, 28.0, 112.9)
        b = StayRecord("u", 250, 300, 28.0, 112.9, 28.0, 112.9)
        t = Trajectory("u", [b, a])
        assert [s.start_time for s in t] == [100, 250]
        c = StayRecord("u", 150, 260, 28.0, 112.9, 28.0, 112.9)
        with pytest.raises(ValueError, match=(
                r"^user u: stay 01/01/1970 00:02:30 to 01/01/1970 00:04:20 "
                r"overlaps stay 01/01/1970 00:01:40 to 01/01/1970 00:03:20$")):
            Trajectory("u", [a, c])

    def test_replace_checks_the_new_row(self):
        a = StayRecord("u", 100, 200, 28.0, 112.9, 28.0, 112.9)
        assert a._replace(stop_time=300).duration_s == 200
        with pytest.raises(ValueError, match="^latitude out of range: 95.0$"):
            a._replace(start_lat=95.0)

    def test_rejects_foreign_user(self):
        a = StayRecord("v", 100, 200, 28.0, 112.9, 28.0, 112.9)
        with pytest.raises(ValueError):
            Trajectory("u", [a])

    def test_stays_are_a_read_only_tuple_and_columns_read_only(self):
        a = StayRecord("u", 100, 200, 28.0, 112.9, 28.0, 112.9)
        t = Trajectory("u", [a])
        assert t.stays == (a,)
        with pytest.raises(TypeError):
            t.stays[0] = a
        with pytest.raises(ValueError):
            t.start[0] = 50
        assert t.start.dtype == np.int64 and t.start_lat.dtype == float

    def test_from_columns_leaves_the_callers_arrays_writable(self):
        start = np.array([300, 100])
        t = Trajectory.from_columns("u", start, start + 50, *[[28.0] * 2] * 4)
        assert start.flags.writeable and not t.start.flags.writeable
        assert t.start.tolist() == [100, 300]
        assert [type(v) for v in t.stays[1]] == [str, int, int] + [float] * 4
        start = np.array([100, 300])
        t = Trajectory.from_columns("u", start, start + 50, *[[28.0] * 2] * 4)
        assert start.flags.writeable and not t.start.flags.writeable


def row_by_row(csv_text):
    """Records and (row, reason) errors of the stay CSV, one row at a time,
    as parse_stays(strict=False) defines them."""
    reader = csv.reader(io.StringIO(csv_text))
    next(reader)
    records, errors = [], []
    for i, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) != 7:
                raise ValueError(f"expected 7 fields, got {len(row)}")
            records.append(StayRecord(
                row[0].strip(), parse_timestamp(row[1].strip()),
                parse_timestamp(row[4].strip()), float(row[2]),
                float(row[3]), float(row[5]), float(row[6])))
        except ValueError as e:
            errors.append((i, str(e)))
    return records, errors


def one_of_weighted(*pairs):
    """A strategy drawing from each (weight, strategy) in proportion."""
    return st.sampled_from([s for w, s in pairs for _ in range(w)]).flatmap(
        lambda s: s)


def zero_padded(dt):
    return (f"{dt.day:02d}/{dt.month:02d}/{dt.year:04d} "
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}")


# leap days, century years and the ends of the year range
EDGE_TIMES = [datetime(2000, 2, 29), datetime(2020, 2, 29, 23, 59, 59),
              datetime(1, 1, 1), datetime(9999, 12, 30, 12),
              datetime(4, 2, 29), datetime(1900, 2, 28, 23, 59, 59),
              datetime(2100, 3, 1), datetime(2019, 9, 16, 15, 44, 57)]
# timestamps that no parser takes: a field one past its range, year 0,
# another shape; and last, one that strptime takes but that is not
# zero-padded ASCII
ODD_TIMES = ["29/02/1900 10:00:00", "29/02/2019 10:00:00",
             "31/04/2019 10:00:00", "00/01/2019 10:00:00",
             "32/01/2019 10:00:00", "01/00/2019 10:00:00",
             "01/13/2019 10:00:00", "01/01/2019 24:00:00",
             "01/01/2019 23:60:00", "01/01/2019 23:59:60",
             "01/01/0000 10:00:00", "not-a-time", "", "16-09-2019 15:44:57",
             "16/09/2019T15:44:57", "１6/09/2019 15:44:57"]


@st.composite
def stay_times(draw):
    """The start and stop timestamp texts of a stay, zero-padded or with
    single digits, and maybe with surrounding whitespace."""
    start = draw(st.sampled_from(EDGE_TIMES) | st.datetimes(
        datetime(1, 1, 1), datetime(9999, 12, 30)))
    stop = start + timedelta(seconds=draw(st.integers(1, 86399)))
    texts = []
    for dt in (start, stop):
        text = draw(st.sampled_from([zero_padded(dt)] * 5 + [
            f"{dt.day}/{dt.month}/{dt.year:04d} "
            f"{dt.hour}:{dt.minute}:{dt.second}"]))
        pad = draw(st.sampled_from(["", "", " ", "\t"]))
        texts.append(pad + text + pad)
    return texts


good_coordinates = st.floats(-90, 90).map(repr) | st.sampled_from(
    [" 28.5 ", "-90.0", "180", "1e1", "-0.0"])
odd_coordinates = st.sampled_from(["nan", "inf", "abc", "", "1e400",
                                   "90.000001", "-181", "0x10"])


@st.composite
def csv_rows(draw):
    """A CSV row: mostly a stay, else a stay with one defect (a timestamp,
    a coordinate, an inverted interval, a field too many or too few), a
    blank row or an empty one."""
    kind = draw(st.sampled_from(["stay"] * 8 + [
        "time", "coordinate", "inverted", "short", "long", "blank",
        "empty"]))
    if kind == "blank":
        return [" "] * 7
    if kind == "empty":
        return []
    t0, t1 = draw(stay_times())
    if kind == "inverted":
        t0, t1 = t1, draw(st.sampled_from([t1, t0]))
    if kind == "time":
        t0 = draw(st.sampled_from(ODD_TIMES))
    coords = draw(st.lists(good_coordinates, min_size=4, max_size=4))
    if kind == "coordinate":
        coords[draw(st.integers(0, 3))] = draw(odd_coordinates)
    user = draw(st.sampled_from(["u1", " u2 ", "a,b", 'q"x', ""]))
    row = [user, t0, *coords[:2], t1, *coords[2:]]
    return {"short": row[:6], "long": row + ["x"]}.get(kind, row)


def csv_text(rows, quote_all):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n",
                   quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    w.writerow(CSV_HEADER)
    w.writerows(rows)
    return out.getvalue()


GOOD_ROW = ["u0", "16/09/2019 15:44:57", "28.027098", "112.973641",
            "16/09/2019 15:50:11", "28.032458", "112.988596"]


class TestBulkParse:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(csv_rows(), max_size=24),
           block=st.sampled_from([1, 2, 3, 7, core._BLOCK]),
           padding=st.sampled_from([0, 0, core._BLOCK + 50]),
           quote_all=st.booleans(), data=st.data())
    def test_equals_row_by_row(self, rows, block, padding, quote_all, data):
        at = data.draw(st.integers(0, len(rows)))
        rows = rows[:at] + [GOOD_ROW] * padding + rows[at:]
        text = csv_text(rows, quote_all)
        want, want_errors = row_by_row(text)
        with mock.patch.object(core, "_BLOCK", block):
            got, errors = parse_stays(text, strict=False)
            assert got == want
            assert [tuple(map(type, r)) for r in got] == [
                tuple(map(type, r)) for r in want]
            assert [(e.row, e.reason) for e in errors] == want_errors
            if want_errors:
                with pytest.raises(StayParseError) as info:
                    parse_stays(text)
                assert (info.value.row, info.value.reason) == want_errors[0]
            else:
                assert parse_stays(text) == want

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(csv_rows(), max_size=24),
           block=st.sampled_from([1, 2, 3, 7, core._BLOCK]),
           quote_all=st.booleans())
    def test_groups_as_trajectories_of_rows(self, rows, block, quote_all):
        # the parsed table's users, stays and overlap errors are those of
        # trajectories built from the row-by-row records
        text = csv_text(rows, quote_all)
        want, _ = row_by_row(text)
        with mock.patch.object(core, "_BLOCK", block):
            got, _ = parse_stays(text, strict=False)
        assert grouping_outcome(lambda: group_trajectories(got)) == \
            grouping_outcome(lambda: group_by_rows(want))
        # and a list of records groups as its table does
        assert grouping_outcome(lambda: group_trajectories(want)) == \
            grouping_outcome(lambda: group_trajectories(got))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(csv_rows(), max_size=12), data=st.data())
    def test_table_is_the_sequence_of_its_records(self, rows, data):
        want, _ = row_by_row(csv_text(rows, False))
        with mock.patch.object(core, "_BLOCK", 3):
            got, _ = parse_stays(csv_text(rows, False), strict=False)
        assert isinstance(got, StayTable)
        assert got == want and want == got and got == tuple(want)
        assert got != want + [StayRecord("u", 0, 1, 0.0, 0.0, 0.0, 0.0)]
        assert len(got) == len(want) and list(got) == want
        assert all(type(r) is StayRecord for r in got)
        assert [tuple(map(type, r)) for r in got] == [
            (str, int, int, float, float, float, float)] * len(want)
        n = len(want)
        i = data.draw(st.integers(-n - 2, n + 1))
        if -n <= i < n:
            assert got[i] == want[i] and type(got[i]) is StayRecord
        else:
            with pytest.raises(IndexError):
                got[i]
        part = slice(data.draw(st.none() | st.integers(-n - 2, n + 2)),
                     data.draw(st.none() | st.integers(-n - 2, n + 2)),
                     data.draw(st.none() | st.sampled_from([-2, -1, 1, 3])))
        assert got[part] == want[part]
        with pytest.raises(ValueError):
            got.user[:1] = 0

    def test_table_copies_its_columns(self):
        start = np.array([0, 100], dtype=np.int64)
        coords = np.array([28.0, 28.1])
        table = StayTable(["a", "b"], start, start + 50, *[coords] * 4)
        assert start.flags.writeable and coords.flags.writeable
        start[0], coords[0] = 7, 1.0
        assert table.start.tolist() == [0, 100]
        assert table.start_lat.tolist() == [28.0, 28.1]

    def test_blank_rows_are_skipped(self):
        rows = [[f"u{k % 3}", zero_padded(datetime(2019, 9, 16, k)), "28.0",
                 "112.9", zero_padded(datetime(2019, 9, 16, k, 30)), "28.1",
                 "113.0"] for k in range(12)]
        blank = [[], [""], [" "] * 7, ["", "\t"], [" "] * 9]
        text = csv_text(rows, False)
        with_blanks = csv_text(rows[:2] + blank + rows[2:] + blank[::-1],
                               False)
        want, _ = row_by_row(with_blanks)
        for block in (4, core._BLOCK):
            with mock.patch.object(core, "_BLOCK", block):
                assert parse_stays(with_blanks) == want == parse_stays(text)
                assert parse_stays(with_blanks, strict=False)[1] == []
        # a bad row after blank ones keeps its row number
        bad = csv_text(rows[:2] + blank + [rows[2][:6]], False)
        with pytest.raises(StayParseError) as info:
            parse_stays(bad)
        assert (info.value.row, info.value.reason) == \
            row_by_row(bad)[1][0] == (8, "expected 7 fields, got 6")

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(st.sampled_from(list("ab,\"\n\r\x0b\x0c\x85\u2028")),
                        max_size=30), size=st.integers(0, 6))
    def test_lines_are_those_of_a_string_io(self, text, size):
        from_pieces = list(chain.from_iterable(core._lines(text, size)))
        assert from_pieces == list(io.StringIO(text))
        assert from_pieces == list(chain.from_iterable(core._lines(text)))

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_ends_and_quoted_line_breaks_parse_as_before(self, end):
        # lines split at "\n" only, each keeping its line end, as the
        # lines of io.StringIO(text) in the reference
        quoted = ['"a\rb"', '"c\nd"', '"e\r\nf"', '"g\x0ch"', '"i\u2028j"']
        text = end.join([",".join(CSV_HEADER), ",".join(GOOD_ROW),
                         *(",".join([u, *GOOD_ROW[1:]]) for u in quoted),
                         ",".join(GOOD_ROW)])
        for t in (text, text + end, text + end + end):
            want, errors = row_by_row(t)
            assert errors == [] and parse_stays(t) == want
            assert [r.user_id for r in want] == [
                "u0", "a\rb", "c\nd", "e\r\nf", "g\x0ch", "i\u2028j", "u0"]
        # an unquoted CR inside a line is csv's error, as before
        bad = text.replace('"a\rb"', "a\rb")
        with pytest.raises(csv.Error) as got:
            parse_stays(bad)
        with pytest.raises(csv.Error) as want:
            row_by_row(bad)
        assert str(got.value) == str(want.value)

    def test_padded_timestamps_equal_parse_timestamp(self):
        texts = ["29/02/2000 00:00:00", "29/02/2020 12:30:01",
                 "01/01/0001 00:00:00", "31/12/9999 23:59:59",
                 "28/02/1900 23:59:59", "01/03/2100 00:00:00",
                 " 1/9/2019 5:04:03"]
        want = [parse_timestamp(t.strip()) for t in texts]
        with mock.patch.object(core, "parse_timestamp",
                               wraps=parse_timestamp) as scalar:
            assert core._parse_timestamps(texts).tolist() == want
        # only the text that is not zero-padded goes one at a time
        scalar.assert_called_once_with("1/9/2019 5:04:03")
        for bad in ODD_TIMES[:-1]:
            with pytest.raises(ValueError):
                core._parse_timestamps(["16/09/2019 15:44:57", bad])


def group_by_rows(records):
    """Trajectories of StayRecords grouped one record at a time, the users
    in the order they first appear."""
    by_user = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    return {u: Trajectory(u, stays) for u, stays in by_user.items()}


def grouping_outcome(group):
    """Each trajectory's key, user, columns and rows, in dict order, or the
    message the grouping raised."""
    try:
        trajectories = group()
    except ValueError as e:
        return str(e)
    return [(u, t.user_id, [getattr(t, n).tolist() for n in core.COLUMNS],
             [getattr(t, n).dtype for n in core.COLUMNS], t.stays,
             [tuple(map(type, r)) for r in t.stays])
            for u, t in trajectories.items()]


def build_outcome(build):
    """A trajectory's user, columns and rows, or the message it raised."""
    try:
        t = build()
    except ValueError as e:
        return str(e)
    return (t.user_id, [getattr(t, n).tolist() for n in core.COLUMNS],
            t.stays)


@st.composite
def raw_stays(draw):
    """(start, stop, lat, lon, lat, lon) tuples, some overlapping, some
    inverted, some off the globe."""
    start = draw(st.integers(0, 20)) * 600
    stop = start + draw(st.sampled_from([600, 900, 1200, 0, -300]))
    coord = one_of_weighted((9, st.floats(-90, 90)),
                            (1, st.sampled_from([91.0, math.nan, -200.0])))
    return (start, stop, draw(coord), draw(coord), draw(coord), draw(coord))


class TestFromColumns:
    @settings(max_examples=150, deadline=None)
    @given(raw=st.lists(raw_stays(), max_size=6))
    def test_agrees_with_rows(self, raw):
        by_rows = build_outcome(lambda: Trajectory(
            "u", [StayRecord("u", *r) for r in raw]))
        by_columns = build_outcome(lambda: Trajectory.from_columns(
            "u", *[[r[k] for r in raw] for k in range(6)]))
        assert by_columns == by_rows
