import csv
import io
import math
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from itertools import chain, count
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trajpriv import core
from trajpriv.core import (CSV_HEADER, TIME_FORMAT, Cell, GridSpec,
                           StayParseError, StayRecord, StayTable, Trajectory,
                           cell_center, cells_of, group_trajectories,
                           haversine_m, parse_stays, parse_timestamp,
                           serialize_stays, time_slot, to_cell, weekday,
                           OutOfGridError)
from trajpriv.publish import top_cells

SAMPLE_CSV = (
    "ID,Start time,Start lat,Start lon,Stop time,Stop lat,Stop lon\n"
    "399387,16/09/2019 15:44:57,28.027098,112.973641,"
    "16/09/2019 15:50:11,28.032458,112.988596\n"
)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)


@st.composite
def stay_records(draw):
    """Valid stay records: ids of printable characters (no Other or
    Separator category but the space) without surrounding whitespace,
    whole-second times from 1970 to 2100, any in-range coordinates."""
    user = draw(st.text(st.characters(
        exclude_categories=("Cc", "Cf", "Cs", "Co", "Cn", "Zs", "Zl", "Zp"),
        include_characters=" "), min_size=1, max_size=8).filter(
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
        [r] = parse_stays(SAMPLE_CSV)
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
        # an int coordinate is written as a float, which equals it
        recs.append(StayRecord("u", 0, 10, 28, -112, 0, 0))
        text = serialize_stays(recs)
        assert parse_stays(text) == recs
        assert parse_stays(serialize_stays(parse_stays(text))) == recs

    @settings(max_examples=40, deadline=None)
    @given(recs=st.lists(stay_records(), max_size=8))
    def test_csv_roundtrip_property(self, recs):
        assert parse_stays(serialize_stays(recs)) == recs

    @settings(max_examples=300, deadline=None)
    @given(user=st.text(max_size=6))
    @example(user="a\rb")
    @example(user=" a")
    def test_a_user_id_is_rejected_or_survives_its_file(
            self, user, tmp_path_factory):
        try:
            rec = StayRecord(user, 0, 10, 28.0, 112.9, 28.0, 112.9)
        except ValueError as e:
            assert repr(user) in str(e)
            return
        text = serialize_stays([rec])
        assert parse_stays(text) == [rec]
        path = tmp_path_factory.getbasetemp() / "ids.csv"
        path.write_text(text, encoding="utf-8")
        assert parse_stays(path.read_text(encoding="utf-8")) == [rec]

    def test_a_user_id_is_printable_text_without_surrounding_space(self):
        for user in (7, None, b"u", "a\rb", "g\x0ch", "i\u2028j", " a",
                     "a ", "\u00a0a", "\U00018cd6"):
            with pytest.raises(ValueError, match="user id"):
                StayRecord(user, 0, 10, 28.0, 112.9, 28.0, 112.9)
            with pytest.raises(ValueError, match="user id"):
                Trajectory.from_columns(user, [0], [10], *[[28.0]] * 4)
        for user in ("", "u 1", "a,b", 'q"x', "\u00fc"):
            assert StayRecord(user, 0, 10, 28.0, 112.9, 28.0,
                              112.9).user_id == user


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
    as parse_stays(strict=False) defines them: a row that csv.reader cannot
    read is an error with the reader's message. A header that csv.reader
    reads as another row than CSV_HEADER raises StayParseError."""
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header is None:
        raise StayParseError(0, "missing header")
    if [h.strip() for h in header] != CSV_HEADER:
        raise StayParseError(0, f"unexpected header: {header}")
    records, errors = [], []
    for i in count(1):
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as e:
            errors.append((i, str(e)))
            continue
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


# a field size limit that LONG_ID exceeds and that no other field of
# csv_rows, nor any line of plain_lines without LONG_ID, exceeds
SMALL_FIELD_LIMIT = 200
LONG_ID = "x" * 250


@contextmanager
def field_size_limit(limit):
    """csv.field_size_limit set to `limit`, and restored on the way out."""
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@st.composite
def csv_rows(draw):
    """A CSV row: mostly a stay, else a stay with one defect (a timestamp,
    a coordinate, an inverted interval, a field too many or too few), a
    blank row or an empty one; or, as text for csv_text to write as it
    is, a stay whose user id holds an unquoted CR."""
    kind = draw(st.sampled_from(["stay"] * 8 + [
        "time", "coordinate", "inverted", "short", "long", "blank",
        "empty", "cr"]))
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
    user = draw(st.sampled_from(["u1", " u2 ", "a,b", "8,9", 'q"x', "",
                                 LONG_ID]))
    row = [user, t0, *coords[:2], t1, *coords[2:]]
    if kind == "cr":
        return ",".join(["u\r1", *row[1:]])
    return {"short": row[:6], "long": row + ["x"]}.get(kind, row)


def csv_text(rows, quote_all):
    """The CSV of the rows under CSV_HEADER; a row given as text is
    written as it is."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n",
                   quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL)
    w.writerow(CSV_HEADER)
    for row in rows:
        if isinstance(row, str):
            out.write(row + "\n")
        else:
            w.writerow(row)
    return out.getvalue()


GOOD_ROW = ["u0", "16/09/2019 15:44:57", "28.027098", "112.973641",
            "16/09/2019 15:50:11", "28.032458", "112.988596"]


# a line of six fields, then one of eight: split as one text at ",",
# their fields shift into two rows of seven fields that all convert
SHIFTED_LINES = "\n".join([",".join(GOOD_ROW[:6]),
                           ",".join(["8", "9", *GOOD_ROW[1:]])])


@st.composite
def plain_lines(draw):
    """A line of plain CSV text (no '"', CR or NUL): a row of csv_rows
    joined at "," (a user id "a,b" or "8,9" makes it a row of one field
    more), or a blank or whitespace-only line; or the two lines of
    SHIFTED_LINES."""
    row = draw(csv_rows().filter(lambda row: isinstance(row, list)))
    if row and row[0] == 'q"x':
        row[0] = draw(st.sampled_from(["u1", "\t", "\u00fc\x0c"]))
    return draw(st.sampled_from([",".join(row)] * 6 + [
        "", " ", "\t ", " , ", SHIFTED_LINES]))


# float() texts: repr of floats, and texts of the characters float() reads,
# underscores, whitespace, full-width and Arabic-Indic digits among them
float_texts = st.floats().map(repr) | st.sampled_from(
    ["-0.0", "nan", "-nan", "NaN", "+inf", "-Infinity", "iNfInItY",
     "1e400", "-1e-400", "1_000.5", "1__0", "_1", "0x10", "", " ", "\t1\n",
     "  1.5", "１２", "١.5", "1.0\x1c", "1e", ".5", "5.",
     "1\x00"]) | st.lists(st.sampled_from(
         list("0123456789+-._eE \t") + ["inf", "nan", "０", "٠"]),
         max_size=8).map("".join)


def stays_outcome(parse):
    """The records and (row, reason) errors of a parse_stays or row_by_row
    call, each value as its repr, which tells its type and a float's bits;
    or the (row, reason) it raised."""
    try:
        got = parse()
    except StayParseError as e:
        return e.row, e.reason
    stays, errors = got if isinstance(got, tuple) else (got, [])
    stays = list(stays)
    return ([tuple(map(repr, r)) for r in stays],
            [(e.row, e.reason) if isinstance(e, StayParseError) else e
             for e in errors])


# a _PIECE this small splits a text of two rows or more into pieces
SMALL_PIECE = 100


def paddings(block):
    """The number of good rows to add to a drawn text: with the real
    _BLOCK, at times enough to cross a block boundary, which a small
    block crosses without them."""
    return st.sampled_from([0, 0, core._BLOCK + 50] if block == core._BLOCK
                           else [0])


def small_blocks_and_pieces(block):
    """_BLOCK patched to `block` and _PIECE to SMALL_PIECE."""
    return mock.patch.multiple(core, _BLOCK=block, _PIECE=SMALL_PIECE)


class TestBulkParse:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(csv_rows(), max_size=24),
           block=st.sampled_from([1, 2, 3, 7, core._BLOCK]),
           quote_all=st.booleans(),
           limit=st.sampled_from([csv.field_size_limit(), SMALL_FIELD_LIMIT]),
           data=st.data())
    def test_equals_row_by_row(self, rows, block, quote_all, limit, data):
        at = data.draw(st.integers(0, len(rows)))
        padding = data.draw(paddings(block))
        rows = rows[:at] + [GOOD_ROW] * padding + rows[at:]
        text = csv_text(rows, quote_all)
        with field_size_limit(limit), small_blocks_and_pieces(block):
            want, want_errors = row_by_row(text)
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
    @given(rows=st.lists(csv_rows(), max_size=12))
    def test_table_is_the_sequence_of_its_records(self, rows):
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
        with mock.patch.object(core, "_PIECE", size):
            from_pieces = list(chain.from_iterable(core._lines(text)))
        assert from_pieces == list(io.StringIO(text))
        assert from_pieces == list(chain.from_iterable(core._lines(text)))

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    def test_line_ends_and_quoted_line_breaks_parse_as_before(self, end):
        # lines split at "\n" only, each keeping its line end, as the
        # lines of io.StringIO(text) in the reference; a quoted line break
        # or another unprintable character makes a user id that is a row
        # error, on its own row
        ids = ["a\rb", "c\nd", "e\r\nf", "g\x0ch", "i\u2028j"]
        text = end.join([",".join(CSV_HEADER), ",".join(GOOD_ROW),
                         *(",".join([f'"{u}"', *GOOD_ROW[1:]]) for u in ids),
                         ",".join(GOOD_ROW)])
        good = row_by_row(",".join(CSV_HEADER) + "\n" + ",".join(GOOD_ROW))[0]
        id_errors = [(row, f"user id {u!r} is not printable text without "
                           f"surrounding whitespace")
                     for row, u in enumerate(ids, start=2)]
        # an unquoted CR inside a line is csv's error, on its own row
        bad = text.replace('"a\rb"', "a\rb")
        cr_error = (2, "new-line character seen in unquoted field - do you "
                       "need to open the file in universal-newline mode?")
        for t, errors in ((text, id_errors), (text + end, id_errors),
                          (text + end + end, id_errors),
                          (bad, [cr_error, *id_errors[1:]])):
            assert row_by_row(t) == (good * 2, errors)
            assert stays_outcome(lambda: parse_stays(t, strict=False)) == \
                stays_outcome(lambda: row_by_row(t))
            assert stays_outcome(lambda: parse_stays(t)) == errors[0]

    @settings(max_examples=150, deadline=None)
    @given(lines=st.lists(plain_lines(), max_size=24),
           block=st.sampled_from([1, 2, 3, 7, core._BLOCK]),
           end=st.sampled_from(["\n", "\n", ""]),
           header=st.sampled_from([",".join(CSV_HEADER)] * 9 + [""]),
           limit=st.sampled_from([csv.field_size_limit(), SMALL_FIELD_LIMIT]),
           data=st.data())
    def test_plain_text_parses_as_csv_reader_reads_it(self, lines, block,
                                                       end, header, limit,
                                                       data):
        # text with no '"', CR or NUL is split with str methods; a quoted
        # header sends the same rows through csv.reader
        at = data.draw(st.integers(0, len(lines)))
        padding = data.draw(paddings(block))
        lines = lines[:at] + [",".join(GOOD_ROW)] * padding + lines[at:]
        plain = "\n".join([header, *lines]) + end
        quoted = plain.replace("ID", '"ID"', 1)
        assert '"' not in plain and "\r" not in plain and "\0" not in plain
        with field_size_limit(limit), small_blocks_and_pieces(block):
            for strict in (True, False):
                got, want = (stays_outcome(lambda: parse_stays(t, strict))
                             for t in (plain, quoted))
                assert got == want
            assert stays_outcome(lambda: parse_stays(plain, False)) == \
                stays_outcome(lambda: row_by_row(plain))

    def test_a_row_csv_reader_cannot_read_is_a_bad_row(self):
        # a field over the field size limit, in plain and in quoted text,
        # and an unquoted CR inside a line
        huge = "x" * (csv.field_size_limit() + 1)
        good = ",".join(GOOD_ROW)
        texts = ["\n".join([",".join(CSV_HEADER), good,
                            ",".join([huge, *GOOD_ROW[1:]]), good, ""]),
                 "\n".join([",".join(CSV_HEADER), f'"{good}"'.replace(
                     ",", '","'), ",".join([huge, *GOOD_ROW[1:]]), good, ""]),
                 "\n".join([",".join(CSV_HEADER), good,
                            ",".join(["u\r0", *GOOD_ROW[1:]]), good, ""])]
        reasons = [f"field larger than field limit "
                   f"({csv.field_size_limit()})"] * 2 + [
            "new-line character seen in unquoted field - do you need to open "
            "the file in universal-newline mode?"]
        for text, reason in zip(texts, reasons):
            with pytest.raises(StayParseError) as info:
                parse_stays(text)
            assert (info.value.row, info.value.reason) == (2, reason)
            stays, errors = parse_stays(text, strict=False)
            assert stays == row_by_row(
                ",".join(CSV_HEADER) + "\n" + good)[0] * 2
            assert [(e.row, e.reason) for e in errors] == [(2, reason)] == \
                row_by_row(text)[1]
        # so is a header csv.reader cannot read
        for text in (huge + "\n" + good, huge + '"\n' + good):
            with pytest.raises(StayParseError) as info:
                parse_stays(text, strict=False)
            assert (info.value.row, info.value.reason) == (0, reasons[0])

    def test_a_line_under_the_field_size_limit_is_split(self):
        # a line as long as the limit cannot hold a field over it; a
        # longer one is read by csv.reader, which finds such a field
        good = ",".join(GOOD_ROW)
        text = "\n".join([",".join(CSV_HEADER), good, good + ",x", ""])
        limit = csv.field_size_limit()
        try:
            for size, want in ((len(good) + 2, [(2, "expected 7 fields, "
                                                    "got 8")]),
                               (len(GOOD_ROW[1]) - 1, None)):
                csv.field_size_limit(size)
                with mock.patch.object(core, "_BLOCK", 1):
                    got = stays_outcome(lambda: parse_stays(text, False))
                assert got == stays_outcome(lambda: row_by_row(text))
                if want:
                    assert got[1] == want
                else:
                    assert [r for r, _ in got[1]] == [1, 2]
        finally:
            csv.field_size_limit(limit)

    def test_a_short_row_before_a_long_one_is_two_bad_rows(self):
        # six fields and eight make the fields of two rows; each line's
        # own count is checked
        text = "\n".join([",".join(CSV_HEADER), ",".join(GOOD_ROW[:6]),
                          ",".join(["8", "9", *GOOD_ROW[1:]]), ""])
        stays, errors = parse_stays(text, strict=False)
        assert stays == [] and [(e.row, e.reason) for e in errors] == [
            (1, "expected 7 fields, got 6"), (2, "expected 7 fields, got 8")]

    @pytest.mark.parametrize("header", ["", "\n", " \n", "\t,\n", "ID\n",
                                        ",".join(CSV_HEADER[::-1]) + "\n"])
    def test_header_errors_are_those_of_csv_reader_rows(self, header):
        # in plain text and in text that csv.reader reads
        for data in ("", ",".join(GOOD_ROW) + "\n", '"u0"' + ",".join(
                ["", *GOOD_ROW[1:]]) + "\n"):
            text = header + data
            with pytest.raises(StayParseError) as info:
                parse_stays(text, strict=False)
            rows = list(csv.reader(io.StringIO(text)))
            assert (info.value.row, info.value.reason) == (
                (0, f"unexpected header: {rows[0]}") if rows
                else (0, "missing header"))

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(float_texts, min_size=1, max_size=6))
    def test_numpy_converts_float_texts_as_float(self, texts):
        # _bulk_columns converts a coordinate column with one np.array
        # call: the same bits as float() of each text, or a ValueError
        # where float() raises one
        try:
            want = np.array(list(map(float, texts)))
        except ValueError:
            with pytest.raises(ValueError):
                np.array(texts, dtype=float)
            return
        got = np.array(texts, dtype=float)
        assert got.dtype == float
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

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
