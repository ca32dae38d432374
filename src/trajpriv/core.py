"""Stay-record data model, CSV ingestion, geodesic math and discretization."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import chain, islice, repeat
from numbers import Real
from operator import add
from typing import NamedTuple

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
TIME_FORMAT = "%d/%m/%Y %H:%M:%S"
CSV_HEADER = ["ID", "Start time", "Start lat", "Start lon",
              "Stop time", "Stop lat", "Stop lon"]


class StayParseError(ValueError):
    """Row-level ingestion failure; carries the 1-based data row number."""

    def __init__(self, row, reason):
        super().__init__(f"row {row}: {reason}")
        self.row = row
        self.reason = reason


class OutOfGridError(ValueError):
    pass


def _check_user(user_id):
    if not (isinstance(user_id, str) and user_id.isprintable()
            and user_id == user_id.strip()):
        raise ValueError(f"user id {user_id!r} is not printable text "
                         f"without surrounding whitespace")


def _check_coord(lat, lon):
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude out of range: {lat}")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude out of range: {lon}")


class _StayFields(NamedTuple):
    user_id: str
    start_time: int
    stop_time: int
    start_lat: float
    start_lon: float
    stop_lat: float
    stop_lon: float


class StayRecord(_StayFields):
    """One user stay: half-open presence interval at a place.

    The user id is text that str.isprintable() accepts, without
    surrounding whitespace, so that every record has the same id after a
    CSV round trip. Times are UTC epoch seconds (timestamps in the CSV
    schema are naive and treated as UTC). The start coordinate is the
    representative location; the stop coordinate is retained for
    trip-aware extensions. This is the row view of the columns of a
    Trajectory or a StayTable.
    """

    __slots__ = ()

    def __new__(cls, user_id, start_time, stop_time, start_lat, start_lon,
                stop_lat, stop_lon):
        _check_user(user_id)
        if start_time >= stop_time:
            raise ValueError("inverted_interval")
        _check_coord(start_lat, start_lon)
        _check_coord(stop_lat, stop_lon)
        return tuple.__new__(cls, (user_id, start_time, stop_time, start_lat,
                                   start_lon, stop_lat, stop_lon))

    @classmethod
    def _make(cls, iterable):       # so that _replace checks its row too
        return cls(*iterable)

    @property
    def duration_s(self):
        return self.stop_time - self.start_time

    @property
    def lat(self):
        return self.start_lat

    @property
    def lon(self):
        return self.start_lon


# a StayRecord of values that already passed the bulk checks, unchecked
_row = partial(tuple.__new__, StayRecord)


def _bad_rows(start, stop, start_lat, start_lon, stop_lat, stop_lon):
    """Flags of the stays that StayRecord would reject, from their columns."""
    lat_ok = (np.abs(start_lat) <= 90.0) & (np.abs(stop_lat) <= 90.0)
    lon_ok = (np.abs(start_lon) <= 180.0) & (np.abs(stop_lon) <= 180.0)
    return (start >= stop) | ~(lat_ok & lon_ok)     # NaN is out of range


COLUMNS = ("start", "stop", "start_lat", "start_lon", "stop_lat", "stop_lon")


def _typed(cols):
    """The six stay columns as arrays of their types: int64 times, float64
    coordinates."""
    return [np.asarray(c, dtype=np.int64) for c in cols[:2]] + [
        np.asarray(c, dtype=float) for c in cols[2:]]


class Trajectory:
    """Time-ordered, non-overlapping stays of one user, held as read-only
    columns: `start` and `stop` (int64 UTC epoch seconds) and `start_lat`,
    `start_lon`, `stop_lat` and `stop_lon` (float64). `Trajectory(user_id,
    rows)` keeps the StayRecords it is given as its row view, `stays`;
    `from_columns` builds them on first use."""

    __slots__ = ("user_id", *COLUMNS, "_stays")

    def __init__(self, user_id, stays=()):
        rows = tuple(stays)
        cols = list(zip(*rows)) or [()] * 7
        if cols[0].count(user_id) != len(rows):
            other = next(u for u in cols[0] if u != user_id)
            raise ValueError(f"stay user {other} != {user_id}")
        self._set(user_id, cols[1:], rows)

    @classmethod
    def from_columns(cls, user_id, start, stop, start_lat, start_lon,
                     stop_lat, stop_lon):
        traj = cls.__new__(cls)
        traj._set(user_id, (start, stop, start_lat, start_lon, stop_lat,
                            stop_lon), None)
        return traj

    def _set(self, user_id, cols, rows):
        _check_user(user_id)
        cols = _typed(cols)
        bad = np.flatnonzero(_bad_rows(*cols))
        if len(bad):        # the first bad stay raises its own error
            StayRecord(user_id, *(c[bad[0]].item() for c in cols))
        order = np.argsort(cols[0], kind="stable")
        cols = [c[order] for c in cols]         # copies of the caller's
        if rows is not None:
            rows = tuple(map(rows.__getitem__, order.tolist()))
        start, stop = cols[:2]
        over = np.flatnonzero(start[1:] < stop[:-1])
        if len(over):
            a_span, b_span = (f"{format_timestamp(int(start[i]))} to "
                              f"{format_timestamp(int(stop[i]))}"
                              for i in (over[0], over[0] + 1))
            raise ValueError(f"user {user_id}: stay {b_span} "
                             f"overlaps stay {a_span}")
        self.user_id = user_id
        for name, c in zip(COLUMNS, cols):
            c.flags.writeable = False
            setattr(self, name, c)
        self._stays = rows

    @property
    def stays(self):
        """The StayRecords, in start order, as a read-only tuple."""
        if self._stays is None:
            self._stays = tuple(map(_row, zip(
                repeat(self.user_id),
                *(getattr(self, n).tolist() for n in COLUMNS))))
        return self._stays

    def __len__(self):
        return len(self.start)

    def __iter__(self):
        return iter(self.stays)


class StayTable:
    """Stays of any number of users, as read-only columns: `user` (int64,
    an index into `users`, the distinct user ids in the order they first
    appear) and the six Trajectory columns, in record order. Iterating it
    gives StayRecords, built on demand; it equals a list or tuple of the
    same records. The columns are copied, not checked: the parser and
    Trajectory check them."""

    __slots__ = ("users", "user", *COLUMNS)

    def __init__(self, user_ids, *cols):
        ids = {}
        user = np.array([ids.setdefault(u, len(ids)) for u in user_ids],
                        dtype=np.int64)
        self.users = tuple(ids)
        for name, c in zip(("user", *COLUMNS),
                           [user, *map(np.copy, _typed(cols))]):
            c.flags.writeable = False
            setattr(self, name, c)

    @classmethod
    def from_records(cls, records):
        """The table of any iterable of StayRecords, in one pass."""
        return cls(*(list(zip(*records)) or [()] * 7))

    def __len__(self):
        return len(self.user)

    def __iter__(self):
        return map(_row, zip(map(self.users.__getitem__, self.user.tolist()),
                             *(getattr(self, n).tolist() for n in COLUMNS)))

    def __eq__(self, other):
        if isinstance(other, (StayTable, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"StayTable({len(self)} stays, {len(self.users)} users)"


def stacked(trajectories, *names):
    """The named columns of several trajectories, each concatenated."""
    trajectories = list(trajectories)
    return [np.concatenate([getattr(t, n) for t in trajectories]
                           or [np.zeros(0)]) for n in names]


def segment_sums(values, lo, hi):
    """The sum of each segment values[lo[s]:hi[s]] of a float array, added
    left to right from 0.0 (the order of Python 3.11's float `sum`): one
    vector add per position, over the segments that still have terms."""
    size = hi - lo
    order = np.argsort(-size, kind="stable")     # longest first
    lo, size = lo[order], size[order]
    acc = np.zeros(len(order))
    longest = int(size[0]) if len(size) else 0
    # the segments with more than j terms lead
    for j, m in enumerate(np.searchsorted(-size, -np.arange(longest),
                                          side="left").tolist()):
        acc[:m] += values[lo[:m] + j]
    out = np.empty_like(acc)
    out[order] = acc
    return out


# From this many terms on, numpy's sum adds pairwise from 8 partial sums.
_PAIRWISE_FROM = 8


def segment_entropy(counts, bounds):
    """Natural-log Shannon entropy of each segment
    counts[bounds[s]:bounds[s + 1]] of positive counts: -(sum of p log p)
    over the segment's shares p = count / segment total, each as numpy's
    log and sum give it for the segment's own array. So below 8 shares the
    terms add left to right from 0.0, and from 8 on the segment is summed
    on its own. An empty segment has entropy 0."""
    counts, bounds = np.asarray(counts, dtype=np.int64), np.asarray(bounds)
    lo, hi = bounds[:-1], bounds[1:]
    size = hi - lo
    total = np.concatenate(([0], np.cumsum(counts)))
    p = counts / np.repeat(total[hi] - total[lo], size)
    q = np.log(p)
    q *= p
    s = np.empty(len(size))
    small = size < _PAIRWISE_FROM
    s[small] = segment_sums(q, lo[small], hi[small])
    for k in np.flatnonzero(~small).tolist():
        s[k] = q[lo[k]:hi[k]].sum()
    return 0.0 - s      # 0.0, not -0.0, for one share


@dataclass(frozen=True)
class LocalProjection:
    """Equirectangular lat/lon <-> planar meters around a reference point."""

    ref_lat: float
    ref_lon: float

    def __post_init__(self):
        for key in ("ref_lat", "ref_lon"):
            value = getattr(self, key)
            if not (isinstance(value, Real) and math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got "
                                 f"{value!r}")

    def to_xy(self, lat, lon):
        return self._plane(np.asarray(lat, dtype=float),
                           np.asarray(lon, dtype=float), self.ref_lat,
                           self.ref_lon, math.cos(math.radians(self.ref_lat)))

    @staticmethod
    def centred_xy(lat, lon):
        """Each row of (c, n) coordinate arrays in the projection centred on
        that row's mean position, as (c, n, 2) points: row i holds the
        floats of LocalProjection(lat[i].mean(), lon[i].mean()).to_xy of
        the row."""
        # C order, so that each row's mean is the pairwise sum of a lone row
        lat = np.ascontiguousarray(lat, dtype=float)
        lon = np.ascontiguousarray(lon, dtype=float)
        ref_lat = lat.mean(axis=1, keepdims=True)
        ref_lon = lon.mean(axis=1, keepdims=True)
        cos_ref = np.array([[math.cos(math.radians(r))]
                            for r in ref_lat[:, 0].tolist()])
        return LocalProjection._plane(lat, lon, ref_lat, ref_lon, cos_ref)

    @staticmethod
    def _plane(lat, lon, ref_lat, ref_lon, cos_ref):
        x = np.radians(lon - ref_lon) * EARTH_RADIUS_M * cos_ref
        y = np.radians(lat - ref_lat) * EARTH_RADIUS_M
        return np.stack([x, y], axis=-1)

    def to_latlon(self, xy):
        xy = np.asarray(xy, dtype=float)
        lat = self.ref_lat + np.degrees(xy[..., 1] / EARTH_RADIUS_M)
        lon = self.ref_lon + np.degrees(xy[..., 0] / (
            EARTH_RADIUS_M * math.cos(math.radians(self.ref_lat))))
        return lat, lon


@dataclass(frozen=True)
class GridSpec:
    """Uniform meter-scaled grid around an origin, plus a time slotting.

    Cells are half-open intervals (lower edge inclusive) on the local
    equirectangular projection centered on the origin, `projection`.
    """

    origin_lat: float
    origin_lon: float
    cell_size_m: float
    n_x: int
    n_y: int
    time_slot_minutes: int = 60

    def __post_init__(self):
        for key in ("origin_lat", "origin_lon", "cell_size_m"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        if self.n_x <= 0 or self.n_y <= 0:
            raise ValueError("cell counts must be positive")
        if self.time_slot_minutes <= 0 or 1440 % self.time_slot_minutes != 0:
            raise ValueError("time_slot_minutes must divide 1440")

    @property
    def slots_per_day(self):
        return 1440 // self.time_slot_minutes

    @property
    def projection(self):
        return LocalProjection(self.origin_lat, self.origin_lon)


class Cell(NamedTuple):
    """A grid cell by column and row index; it equals, and hashes as,
    its (x, y) pair."""

    x: int
    y: int


def parse_timestamp(text):
    """`dd/MM/yyyy HH:mm:ss` -> UTC epoch seconds."""
    dt = datetime.strptime(text, TIME_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(t):
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime(TIME_FORMAT)


# the digit and separator positions of a zero-padded timestamp
_DIGITS = [0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = [2, 5, 10, 13, 16], [ord(c) for c in "// ::"]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _parse_timestamps(texts):
    """parse_timestamp of each text, as an int64 array: zero-padded texts
    with every field in range are converted as arrays, any other text by
    parse_timestamp."""
    texts = list(map(str.strip, texts))
    chars = np.array(texts, dtype=str).view(np.uint32).reshape(len(texts), -1)
    if chars.shape[1] != 19:
        return np.array(list(map(parse_timestamp, texts)), dtype=np.int64)
    digits = chars[:, _DIGITS].astype(np.int64) - ord("0")
    d, mo, y, hh, mm, ss = (digits[:, k] * 10 + digits[:, k + 1]
                            for k in (0, 2, 4, 8, 10, 12))
    y = y * 100 + digits[:, 6] * 10 + digits[:, 7]
    leap = (y % 4 == 0) & ((y % 100 != 0) | (y % 400 == 0))
    fast = (((digits >= 0) & (digits <= 9)).all(axis=1)
            & (chars[:, _SEPARATORS[0]] == _SEPARATORS[1]).all(axis=1)
            & (y >= 1) & (mo >= 1) & (mo <= 12) & (d >= 1)
            & (d <= _MONTH_DAYS[np.clip(mo, 1, 12) - 1] + (leap & (mo == 2)))
            & (hh < 24) & (mm < 60) & (ss < 60))
    # days since 1970-01-01, in 400-year eras of years from March
    era, yoe = np.divmod(y - (mo <= 2), 400)
    doy = (153 * np.where(mo > 2, mo - 3, mo + 9) + 2) // 5 + d - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    out = days * 86400 + hh * 3600 + mm * 60 + ss
    for i in np.flatnonzero(~fast).tolist():
        out[i] = parse_timestamp(texts[i])
    return out


# CSV rows converted at a time: bounds the text and columns held at once
_BLOCK = 1024
# characters of text split into lines at a time: bounds the lines held
_PIECE = 1 << 16


def _pieces(text):
    """text[lo:hi].split("\n") of the consecutive pieces of the text, each
    of about _PIECE characters and ending at a "\n" or at the text's end:
    a piece's list ends with "" after its final "\n", or else with the
    text's last line, which has none. So the lines of one piece are held
    at once, not a copy of the text in 4-byte characters."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + _PIECE) + 1 or len(text)
        yield text[lo:hi].split("\n")
        lo = hi


def _lines(text):
    """The lines that io.StringIO(text) yields: split at "\n" only, each
    keeping its "\n", a last line without one if the text does not end
    with one. Yields them a piece of _pieces at a time, each piece's lines
    as one iterable."""
    for lines in _pieces(text):
        last = lines.pop()          # "" after the piece's final "\n"
        yield map(add, lines, repeat("\n"))
        if last:
            yield (last,)


def _plain_lines(text):
    """The lines of the text split at "\n" only, without their "\n", a
    piece of _pieces at a time."""
    for lines in _pieces(text):
        if not lines[-1]:
            lines.pop()             # "" after the piece's final "\n"
        yield lines


def _plain_row(line):
    """The row that csv.reader makes of a line of plain text (see
    parse_stays); a line that may hold a field over the field size limit
    is read by csv.reader, which raises its error."""
    if len(line) > csv.field_size_limit():
        return next(csv.reader((line,)))
    return line.split(",") if line else []


def _plain_columns(lines):
    """The seven columns of a block of lines of plain text, split at ",";
    None unless every line holds six commas and none is longer than the
    field size limit. Each user id but the first keeps the "\n" its line
    is joined on, which parse_stays strips with the id's own whitespace."""
    text = ",\n".join(lines)
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    fields = text.split(",")
    users = fields[::7]
    # a "\n" follows a comma only where two lines meet, so every line holds
    # six commas when there are seven fields a line and each "\n" is in a
    # user id, the first field of a line
    if (len(fields) != 7 * len(lines)
            or "".join(users).count("\n") != len(lines) - 1):
        return None
    return [users, *(fields[k::7] for k in range(1, 7))]


def _csv_rows(text):
    """The rows that csv.reader makes of the lines of the text; in place
    of a row that it cannot read, the csv.Error it raised, and it reads
    on from the next line."""
    reader = csv.reader(chain.from_iterable(_lines(text)))
    while True:
        try:
            yield from reader
            return
        except csv.Error as e:
            yield e


def _csv_row(row):
    """The fields of a row of _csv_rows; raises the csv.Error in its
    place."""
    if isinstance(row, csv.Error):
        raise row
    return row


def _csv_columns(rows):
    """The seven columns of a block of rows of _csv_rows; None unless every
    row has seven fields."""
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {7}:
        return None
    return list(zip(*rows))


def _bulk_columns(columns):
    """The user ids and stay columns of the seven text columns of a block
    of CSV rows, converted column by column; None when any row fails a
    check, for parse_stays to name its error."""
    user, t0, lat0, lon0, t1, lat1, lon1 = columns
    users = list(map(str.strip, user))
    if not "".join(users).isprintable():
        return None
    try:
        coords = [np.array(c, dtype=float) for c in (lat0, lon0, lat1, lon1)]
        start, stop = _parse_timestamps(t0), _parse_timestamps(t1)
    except ValueError:
        return None
    if _bad_rows(start, stop, *coords).any():
        return None
    return [users, start, stop, *coords]


def parse_stays(csv_text, strict=True):
    """Parse the fixed stay-record CSV schema into a StayTable.

    Text with no '"', "\r" or "\0" (which csv.reader rejects before Python
    3.11) is plain: csv.reader would split each of its lines at "," (an
    empty line to an empty row), so its lines are split with str methods,
    and a block of lines that all hold six commas as one string. Any other
    text is read by csv.reader. A row that csv.reader cannot read (a field
    over csv.field_size_limit(), an unquoted "\r" inside a line) is a
    malformed row.

    Rows are converted in blocks of _BLOCK, column by column; a block with
    a malformed row, or a row whose fields are all blank, is parsed row by
    row, which skips the blank rows. In strict mode the first malformed
    row raises StayParseError with its 1-based row number; otherwise
    malformed rows are skipped and collected in the second return value.
    """
    if any(c in csv_text for c in '"\r\0'):
        items, row_of, columns_of = _csv_rows(csv_text), _csv_row, _csv_columns
    else:
        items = chain.from_iterable(_plain_lines(csv_text))
        row_of, columns_of = _plain_row, _plain_columns
    header = next(items, None)
    if header is None:
        raise StayParseError(0, "missing header")
    try:
        header = row_of(header)
    except csv.Error as e:
        raise StayParseError(0, str(e))
    if [h.strip() for h in header] != CSV_HEADER:
        raise StayParseError(0, f"unexpected header: {header}")
    users, parts, errors, first = [], [], [], 1
    for block in iter(lambda: list(islice(items, _BLOCK)), []):
        cols = columns_of(block)
        cols = cols and _bulk_columns(cols)
        if cols is None:        # row by row, for each bad row's own error
            rows = []
            for i, item in enumerate(block, start=first):
                try:
                    row = row_of(item)
                    if not any(map(str.strip, row)):
                        continue
                    if len(row) != 7:
                        raise ValueError(f"expected 7 fields, got {len(row)}")
                    rows.append(StayRecord(
                        row[0].strip(), parse_timestamp(row[1].strip()),
                        parse_timestamp(row[4].strip()),
                        *map(float, (row[2], row[3], row[5], row[6]))))
                except (csv.Error, ValueError) as e:
                    if strict:
                        raise StayParseError(i, str(e))
                    errors.append(StayParseError(i, str(e)))
            cols = list(zip(*rows)) or [()] * 7
        users += cols[0]
        parts.append(_typed(cols[1:]))
        first += len(block)
    stays = StayTable(users, *(map(np.concatenate, zip(*parts)) if parts
                               else [()] * 6))
    if strict:
        return stays
    return stays, errors


def serialize_stays(records):
    """The stay-record CSV of the records, the inverse of parse_stays for
    every StayRecord: coordinates at full repr precision, a user id quoted
    only where it holds "," or '"'."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow([r.user_id, format_timestamp(r.start_time),
                    repr(r.start_lat), repr(r.start_lon),
                    format_timestamp(r.stop_time),
                    repr(r.stop_lat), repr(r.stop_lon)])
    return out.getvalue()


def group_trajectories(records):
    """Group stay records, a StayTable or any iterable of StayRecords, into
    per-user trajectories, the users in the order they first appear."""
    if not isinstance(records, StayTable):
        records = StayTable.from_records(records)
    order = np.argsort(records.user, kind="stable")
    cols = [getattr(records, n)[order] for n in COLUMNS]
    ends = np.cumsum(np.bincount(records.user, minlength=len(records.users)))
    trajectories, lo = {}, 0
    for u, hi in zip(records.users, ends.tolist()):
        trajectories[u] = Trajectory.from_columns(u, *(c[lo:hi] for c in cols))
        lo = hi
    return trajectories


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters on a 6371 km sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    a = (math.sin(dphi / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def to_cell(lat, lon, grid):
    """Map a coordinate to its half-open grid cell; raise when outside."""
    x_m, y_m = grid.projection.to_xy(lat, lon).tolist()
    x = math.floor(x_m / grid.cell_size_m)
    y = math.floor(y_m / grid.cell_size_m)
    if not (0 <= x < grid.n_x and 0 <= y < grid.n_y):
        raise OutOfGridError(f"point ({lat}, {lon}) outside grid")
    return Cell(x, y)


def cell_codes(lat, lon, grid):
    """The grid cell of each point of two coordinate arrays as one int64,
    x * n_y + y, or -1 where the point lies outside the grid."""
    x, y = np.floor(grid.projection.to_xy(lat, lon) / grid.cell_size_m).T
    inside = (0 <= x) & (x < grid.n_x) & (0 <= y) & (y < grid.n_y)
    return np.where(inside, x * grid.n_y + y, -1.0).astype(np.int64)


def cells_of(lat, lon, grid):
    """The grid cell of each point of two coordinate arrays, as a list of
    Cell, or None where the point lies outside the grid: a stay off the
    grid has no cell."""
    return [Cell(*divmod(c, grid.n_y)) if c >= 0 else None
            for c in cell_codes(lat, lon, grid).tolist()]


def snap_to_grid(lat, lon, grid):
    """Cell-center coordinate of the containing cell, clamping to the grid:
    a point off the grid snaps to the nearest edge cell. Takes a point, or
    arrays of points for arrays of centers."""
    xy = np.floor(grid.projection.to_xy(lat, lon) / grid.cell_size_m)
    return cell_center(np.clip(xy, 0, [grid.n_x - 1, grid.n_y - 1]).T, grid)


def cell_center(cell, grid):
    """(lat, lon) of a cell's center point, as two Python floats; the cell
    may be a plain (x, y) pair, and a pair of index arrays gives arrays of
    centers."""
    lat, lon = grid.projection.to_latlon(
        (np.asarray(cell).T + 0.5) * grid.cell_size_m)
    if lat.ndim == 0:
        return lat.item(), lon.item()
    return lat, lon


def weekday(t):
    """Day of the week of a UTC epoch second, Monday = 0 (day 0 of the
    epoch, 1970-01-01, was a Thursday)."""
    return (t // 86400 + 3) % 7


def time_slot(t, grid):
    """Slot index within the UTC day of an epoch second, or of an array of
    them."""
    return t % 86400 // 60 // grid.time_slot_minutes


def abs_slot(t, grid):
    """Absolute slot index since the epoch (for embeddings)."""
    return int(t // (grid.time_slot_minutes * 60))
