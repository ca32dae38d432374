"""Stay-record data model, CSV ingestion, geodesic math and discretization."""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
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


def _check_coord(lat, lon):
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude out of range: {lat}")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude out of range: {lon}")


@dataclass(frozen=True)
class StayRecord:
    """One user stay: half-open presence interval at a place.

    Times are UTC epoch seconds (timestamps in the CSV schema are naive and
    treated as UTC). The start coordinate is the representative location;
    the stop coordinate is retained for trip-aware extensions.
    """

    user_id: str
    start_time: int
    stop_time: int
    start_lat: float
    start_lon: float
    stop_lat: float
    stop_lon: float

    def __post_init__(self):
        if self.start_time >= self.stop_time:
            raise ValueError("inverted_interval")
        _check_coord(self.start_lat, self.start_lon)
        _check_coord(self.stop_lat, self.stop_lon)

    @property
    def duration_s(self):
        return self.stop_time - self.start_time

    @property
    def lat(self):
        return self.start_lat

    @property
    def lon(self):
        return self.start_lon


@dataclass
class Trajectory:
    """Time-ordered, non-overlapping stay sequence of one user."""

    user_id: str
    stays: list = field(default_factory=list)

    def __post_init__(self):
        for s in self.stays:
            if s.user_id != self.user_id:
                raise ValueError(f"stay user {s.user_id} != {self.user_id}")
        self.stays = sorted(self.stays, key=lambda s: s.start_time)
        for a, b in zip(self.stays, self.stays[1:]):
            if b.start_time < a.stop_time:
                a_span, b_span = (f"{format_timestamp(s.start_time)} to "
                                  f"{format_timestamp(s.stop_time)}"
                                  for s in (a, b))
                raise ValueError(f"user {self.user_id}: stay {b_span} "
                                 f"overlaps stay {a_span}")

    def __len__(self):
        return len(self.stays)

    def __iter__(self):
        return iter(self.stays)


@dataclass(frozen=True)
class GridSpec:
    """Uniform meter-scaled grid around an origin, plus a time slotting.

    Cells are half-open intervals (lower edge inclusive) on a local
    equirectangular projection centered on the origin.
    """

    origin_lat: float
    origin_lon: float
    cell_size_m: float
    n_x: int
    n_y: int
    time_slot_minutes: int = 60

    def __post_init__(self):
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        if self.n_x <= 0 or self.n_y <= 0:
            raise ValueError("cell counts must be positive")
        if self.time_slot_minutes <= 0 or 1440 % self.time_slot_minutes != 0:
            raise ValueError("time_slot_minutes must divide 1440")

    @property
    def slots_per_day(self):
        return 1440 // self.time_slot_minutes


class Cell(NamedTuple):
    """A grid cell by column and row index; it equals, and hashes as,
    its (x, y) pair."""

    x: int
    y: int


# the zero-padded shape of TIME_FORMAT, read without strptime
_PADDED_TIME = re.compile(
    r"([0-9]{2})/([0-9]{2})/([0-9]{4}) ([0-9]{2}):([0-9]{2}):([0-9]{2})")


def parse_timestamp(text):
    """`dd/MM/yyyy HH:mm:ss` -> UTC epoch seconds.

    The zero-padded shape is read field by field; any other text, or a
    field out of range, goes to `strptime`, which also gives the error.
    """
    match = _PADDED_TIME.fullmatch(text)
    if match:
        d, mo, y, hh, mm, ss = map(int, match.groups())
        try:
            return int(datetime(y, mo, d, hh, mm, ss,
                                tzinfo=timezone.utc).timestamp())
        except ValueError:
            pass
    dt = datetime.strptime(text, TIME_FORMAT).replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_timestamp(t):
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime(TIME_FORMAT)


def parse_stays(csv_text, strict=True):
    """Parse the fixed stay-record CSV schema into StayRecords.

    In strict mode the first malformed row raises StayParseError; otherwise
    malformed rows are skipped and collected in the second return value.
    """
    reader = csv.reader(io.StringIO(csv_text))
    try:
        header = next(reader)
    except StopIteration:
        raise StayParseError(0, "missing header")
    if [h.strip() for h in header] != CSV_HEADER:
        raise StayParseError(0, f"unexpected header: {header}")
    records, errors = [], []
    for i, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if len(row) != 7:
                raise ValueError(f"expected 7 fields, got {len(row)}")
            rec = StayRecord(
                user_id=row[0].strip(),
                start_time=parse_timestamp(row[1].strip()),
                stop_time=parse_timestamp(row[4].strip()),
                start_lat=float(row[2]),
                start_lon=float(row[3]),
                stop_lat=float(row[5]),
                stop_lon=float(row[6]),
            )
        except ValueError as e:
            err = StayParseError(i, str(e))
            if strict:
                raise err
            errors.append(err)
            continue
        records.append(rec)
    if strict:
        return records
    return records, errors


def serialize_stays(records):
    """Inverse of parse_stays; coordinates written at full repr precision."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(CSV_HEADER)
    for r in records:
        w.writerow([r.user_id, format_timestamp(r.start_time),
                    repr(r.start_lat), repr(r.start_lon),
                    format_timestamp(r.stop_time),
                    repr(r.stop_lat), repr(r.stop_lon)])
    return out.getvalue()


def stays_to_jsonl(records):
    """Canonical export: one JSON object per line, ISO-8601 timestamps."""
    lines = []
    for r in records:
        lines.append(json.dumps({
            "user_id": r.user_id,
            "start_time": datetime.fromtimestamp(
                r.start_time, tz=timezone.utc).isoformat(),
            "stop_time": datetime.fromtimestamp(
                r.stop_time, tz=timezone.utc).isoformat(),
            "start_lat": r.start_lat, "start_lon": r.start_lon,
            "stop_lat": r.stop_lat, "stop_lon": r.stop_lon,
        }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def _parse_iso(text):
    """ISO-8601 -> UTC epoch seconds; a time without an offset is UTC."""
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def stays_from_jsonl(text):
    """Inverse of stays_to_jsonl. A malformed line raises StayParseError
    with its 1-based line number."""
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            records.append(StayRecord(
                user_id=d["user_id"],
                start_time=_parse_iso(d["start_time"]),
                stop_time=_parse_iso(d["stop_time"]),
                start_lat=d["start_lat"], start_lon=d["start_lon"],
                stop_lat=d["stop_lat"], stop_lon=d["stop_lon"],
            ))
        except (KeyError, TypeError, ValueError) as e:
            raise StayParseError(i, f"{type(e).__name__}: {e}") from e
    return records


def group_trajectories(records):
    """Group stay records into per-user trajectories."""
    by_user = {}
    for r in records:
        by_user.setdefault(r.user_id, []).append(r)
    return {u: Trajectory(u, stays) for u, stays in by_user.items()}


def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle distance in meters on a 6371 km sphere."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = p2 - p1
    dlam = math.radians(lon2 - lon1)
    a = (math.sin(dphi / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


_DEG_TO_RAD = math.pi / 180.0        # the factor math.radians multiplies by
_RAD_TO_DEG = 180.0 / math.pi        # the factor math.degrees multiplies by


def pair_distances_m(lat, lon, i, j):
    """haversine_m(lat[i[k]], lon[i[k]], lat[j[k]], lon[j[k]]) for every k,
    float for float.

    numpy does the arithmetic, which rounds as Python's does; math takes
    the sines, cosines and arcsines, and Python's ** the squares, one value
    at a time, as numpy's sin, arcsin and exact squares differ from them in
    the last bit. Cosines are taken once per point.
    """
    phi = np.asarray(lat, dtype=float) * _DEG_TO_RAD
    lam = np.asarray(lon, dtype=float)
    sin = math.sin
    cos_phi = np.array(list(map(math.cos, phi.tolist())))
    hav_phi = [sin(x) ** 2 for x in ((phi[j] - phi[i]) / 2.0).tolist()]
    hav_lam = [sin(x) ** 2
               for x in ((lam[j] - lam[i]) * _DEG_TO_RAD / 2.0).tolist()]
    a = np.array(hav_phi) + cos_phi[i] * cos_phi[j] * np.array(hav_lam)
    c = list(map(math.asin, np.minimum(1.0, np.sqrt(a)).tolist()))
    return 2.0 * EARTH_RADIUS_M * np.array(c)


def _grid_xy_m(lat, lon, grid):
    # local equirectangular projection around the grid origin; written
    # with one multiply in place of math.radians so that it also takes
    # numpy arrays, with the same floats
    x = ((lon - grid.origin_lon) * _DEG_TO_RAD * EARTH_RADIUS_M
         * math.cos(math.radians(grid.origin_lat)))
    y = (lat - grid.origin_lat) * _DEG_TO_RAD * EARTH_RADIUS_M
    return x, y


def to_cell(lat, lon, grid):
    """Map a coordinate to its half-open grid cell; raise when outside."""
    x_m, y_m = _grid_xy_m(lat, lon, grid)
    x = math.floor(x_m / grid.cell_size_m)
    y = math.floor(y_m / grid.cell_size_m)
    if not (0 <= x < grid.n_x and 0 <= y < grid.n_y):
        raise OutOfGridError(f"point ({lat}, {lon}) outside grid")
    return Cell(x, y)


def cell_of(lat, lon, grid):
    """The grid cell of a coordinate, or None when it lies outside the
    grid: a stay off the grid has no cell."""
    try:
        return to_cell(lat, lon, grid)
    except OutOfGridError:
        return None


def cells_of(lat, lon, grid):
    """cell_of of each point of two coordinate arrays, as a list of Cell
    or None."""
    x_m, y_m = _grid_xy_m(np.asarray(lat, dtype=float),
                          np.asarray(lon, dtype=float), grid)
    x = np.floor(x_m / grid.cell_size_m)
    y = np.floor(y_m / grid.cell_size_m)
    inside = (0 <= x) & (x < grid.n_x) & (0 <= y) & (y < grid.n_y)
    return [Cell(int(cx), int(cy)) if ok else None
            for cx, cy, ok in zip(x.tolist(), y.tolist(), inside.tolist())]


def snap_to_grid(lat, lon, grid):
    """Cell-center coordinate of the containing cell, clamping to the grid:
    a point off the grid snaps to the nearest edge cell. Takes a point, or
    arrays of points for arrays of centers."""
    x_m, y_m = _grid_xy_m(np.asarray(lat), np.asarray(lon), grid)
    x = np.clip(np.floor(x_m / grid.cell_size_m), 0, grid.n_x - 1).astype(int)
    y = np.clip(np.floor(y_m / grid.cell_size_m), 0, grid.n_y - 1).astype(int)
    if x.ndim == 0:
        return cell_center(Cell(int(x), int(y)), grid)
    return cell_center(Cell(x, y), grid)


def cell_center(cell, grid):
    """(lat, lon) of a cell's center point; the cell may be a plain (x, y)
    pair, and a Cell of index arrays gives arrays of centers."""
    x, y = cell
    x_m = (x + 0.5) * grid.cell_size_m
    y_m = (y + 0.5) * grid.cell_size_m
    # one multiply in place of math.degrees, so that arrays work too
    lat = grid.origin_lat + y_m / EARTH_RADIUS_M * _RAD_TO_DEG
    lon = grid.origin_lon + x_m / (
        EARTH_RADIUS_M * math.cos(math.radians(grid.origin_lat))) * _RAD_TO_DEG
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
