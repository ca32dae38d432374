"""Co-location / co-occurrence event extraction between user pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import (EARTH_RADIUS_M, cell_codes, cells_of, haversine_m,
                   segment_entropy, segment_sums, stacked, weekday)

KERNELS = ("indicator", "exponential")


@dataclass(frozen=True)
class CoLocationConfig:
    """Spatial/temporal thresholds and kernel shapes.

    Indicator kernels are 1 within the threshold and 0 outside; exponential
    kernels are exp(-x/alpha), truncated to 0 beyond 3*alpha.
    """

    alpha_d_m: float = 250.0
    alpha_t_s: float = 1800.0
    spatial_kernel: str = "indicator"
    temporal_kernel: str = "indicator"

    def __post_init__(self):
        for key in ("alpha_d_m", "alpha_t_s"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be positive and finite, got "
                                 f"{value!r}")
        if self.spatial_kernel not in KERNELS or self.temporal_kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")

    def spatial_weight(self, dist_m):
        return _kernel_weight(dist_m, self.alpha_d_m, self.spatial_kernel)

    def temporal_weight(self, gap_s):
        return _kernel_weight(gap_s, self.alpha_t_s, self.temporal_kernel)

    @property
    def spatial_reach_m(self):
        """Largest distance that can still yield a nonzero weight."""
        return _kernel_reach(self.alpha_d_m, self.spatial_kernel)

    @property
    def temporal_reach_s(self):
        """Largest interval gap that can still yield a nonzero weight."""
        return _kernel_reach(self.alpha_t_s, self.temporal_kernel)


def _kernel_weight(x, alpha, kind):
    """Kernel weight of a distance or gap x >= 0 under threshold alpha."""
    if kind == "indicator":
        return 1.0 if x <= alpha else 0.0
    if x > 3.0 * alpha:
        return 0.0
    return math.exp(-x / alpha)


def _kernel_reach(alpha, kind):
    """Largest x that still has a nonzero kernel weight."""
    return alpha if kind == "indicator" else 3.0 * alpha


def _kernel_weights(x, alpha, kind):
    """_kernel_weight of each value of an array: the exponential kernel
    calls it per value, as np.exp differs from math.exp in the last bit."""
    if kind == "indicator":
        return np.where(x <= alpha, 1.0, 0.0)
    return np.array([_kernel_weight(v, alpha, kind) for v in x.tolist()])


class _CoEventFields(NamedTuple):
    user_a: str
    user_b: str
    cell: object
    overlap_start: int
    overlap_end: int
    weight: float


class CoEvent(_CoEventFields):
    """One co-occurrence between an ordered user pair (user_a < user_b).

    The overlap interval is the intersection of the two stay intervals; for
    disjoint-but-close stays it degenerates to the earlier stay's endpoint.
    """

    __slots__ = ()

    def __new__(cls, user_a, user_b, cell, overlap_start, overlap_end,
                weight):
        if user_a >= user_b:
            raise ValueError("pair must be ordered user_a < user_b")
        if overlap_start > overlap_end:
            raise ValueError("inverted overlap interval")
        if not (0.0 < weight <= 1.0):
            raise ValueError("weight must be in (0, 1]")
        return tuple.__new__(cls, (user_a, user_b, cell, overlap_start,
                                   overlap_end, weight))

    @classmethod
    def _make(cls, iterable):       # so that _replace checks its event too
        return cls(*iterable)

    @property
    def overlap_s(self):
        return self.overlap_end - self.overlap_start


class _PairMetrics(NamedTuple):
    """One pair's metrics that need no cell entropies (see `_pair_metrics`)
    and its co-occurrence score."""

    f_fre: float
    f_div: float
    f_int: float
    f_stay: float
    f_hol: float
    score: float


_NO_METRICS = _PairMetrics(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class _EventTable:
    """Co-occurrence events of one or more user pairs, pair by pair, as
    read-only columns: each event's `cell` (an index into `cells`, the
    distinct cells, None for off the grid), `overlap_start` and
    `overlap_end` (int64 UTC epoch seconds) and `weight` (float64). The
    rows of pair segment s are bounds[s]:bounds[s + 1]; every segment holds
    events. Each pair's metrics and each event's cell object are computed
    for the whole table on first use."""

    __slots__ = ("cells", "cell", "overlap_start", "overlap_end", "weight",
                 "bounds", "_metrics", "_event_cells")

    def __init__(self, cells, cell, overlap_start, overlap_end, weight,
                 bounds):
        cols = [np.array(cell, dtype=np.intp),
                np.array(overlap_start, dtype=np.int64),
                np.array(overlap_end, dtype=np.int64),
                np.array(weight, dtype=float),
                np.array(bounds, dtype=np.intp)]
        for c in cols:
            c.flags.writeable = False
        self.cells = tuple(cells)
        (self.cell, self.overlap_start, self.overlap_end, self.weight,
         self.bounds) = cols
        self._metrics = self._event_cells = None

    @property
    def metrics(self):
        """The `_PairMetrics` of each pair segment, in segment order."""
        if self._metrics is None:
            self._metrics = _pair_metrics(self)
        return self._metrics

    @property
    def event_cells(self):
        """Each event's cell (a Cell, or None), as a list."""
        if self._event_cells is None:
            cells = np.fromiter(self.cells, object, len(self.cells))
            self._event_cells = cells[self.cell].tolist()
        return self._event_cells


def _pair_metrics(table):
    """One numpy pass over all pair segments of an event table: each pair's
    event count, f_div, f_int, f_stay, f_hol (see
    `features.compute_features`) and co-occurrence score, as a list of
    `_PairMetrics`. Every float is the one the pair's own arithmetic gives:
    f_div is `segment_entropy` of its cells' counts in the order of their
    first events; the gap sum of f_int (starts in time order) and the score
    (events in table order) add left to right; f_stay and f_hol are integer
    sums divided once."""
    bounds = table.bounds
    lo, hi = bounds[:-1], bounds[1:]
    n = hi - lo
    if not len(n):
        return []
    seg = np.repeat(np.arange(len(n)), n)
    start = table.overlap_start
    _, first, count = np.unique(seg * len(table.cells) + table.cell,
                                return_index=True, return_counts=True)
    by_first = np.argsort(first)
    f_div = segment_entropy(count[by_first], np.searchsorted(
        seg[first[by_first]], np.arange(len(n) + 1)))
    gaps = np.diff(start)
    ascending = gaps >= 0
    ascending[lo[1:] - 1] = True        # a step from one pair to the next
    if not ascending.all():             # the starts in time order
        gaps = np.diff(start[np.lexsort((start, seg))])
    gap_sum = segment_sums(gaps / 3600.0, lo, hi - 1)
    f_int = np.where(n < 2, 1.0, 1.0 / (1.0 + gap_sum / np.maximum(n - 1, 1)))
    f_stay = np.add.reduceat(table.overlap_end - start, lo) / 3600.0
    f_hol = np.add.reduceat((weekday(start) >= 5).astype(np.int64), lo) / n
    score = segment_sums(table.weight, lo, hi)
    # tuple.__new__ builds each row in C, without the NamedTuple's __new__
    return list(map(tuple.__new__, repeat(_PairMetrics), zip(
        n.astype(float).tolist(), f_div.tolist(), f_int.tolist(),
        f_stay.tolist(), f_hol.tolist(), score.tolist())))


def _column(name):
    return property(lambda self: getattr(self._table, name)[
        self._lo:self._hi], doc=f"The `{name}` column of the pair's events.")


class PairEvents:
    """One user pair's co-occurrence events: a read-only view of the pair's
    rows of an event table, its segment `k` when it has events. Its columns
    `cell` (an index into `cells`), `overlap_start`, `overlap_end` and
    `weight` are numpy arrays; iterating or indexing it gives CoEvent rows,
    built on demand. It equals a list or tuple of the same rows."""

    __slots__ = ("user_a", "user_b", "_table", "_lo", "_hi", "_k")

    def __init__(self, user_a, user_b, table, lo, hi, k):
        self.user_a, self.user_b = user_a, user_b
        self._table, self._lo, self._hi, self._k = table, lo, hi, k

    cell = _column("cell")
    overlap_start = _column("overlap_start")
    overlap_end = _column("overlap_end")
    weight = _column("weight")

    @property
    def cells(self):
        """The distinct cells that `cell` indexes into."""
        return self._table.cells

    @property
    def event_cells(self):
        """Each event's cell (a Cell, or None), as a list."""
        return self._table.event_cells[self._lo:self._hi]

    @property
    def metrics(self):
        """The pair's row of its table's metric pass (all 0 without
        events)."""
        if self._lo == self._hi:
            return _NO_METRICS
        return self._table.metrics[self._k]

    def metrics_and_cells(self):
        """`metrics` and `event_cells` in one step."""
        lo, hi = self._lo, self._hi
        if lo == hi:
            return _NO_METRICS, []
        table = self._table
        return table.metrics[self._k], table.event_cells[lo:hi]

    def __len__(self):
        return self._hi - self._lo

    def __iter__(self):
        return map(CoEvent, repeat(self.user_a), repeat(self.user_b),
                   self.event_cells, self.overlap_start.tolist(),
                   self.overlap_end.tolist(), self.weight.tolist())

    def __getitem__(self, i):
        return list(self)[i]

    def __eq__(self, other):
        if isinstance(other, (PairEvents, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return (f"PairEvents({self.user_a!r}, {self.user_b!r}, "
                f"{len(self)} events)")


_NO_EVENTS = _EventTable((), [], [], [], [], [0])


def pair_events(events):
    """`events` as PairEvents: a PairEvents as it is, a sequence of CoEvent
    rows of one user pair as the view of a one-pair table, in their order.
    Rows of more than one pair are an error."""
    if isinstance(events, PairEvents):
        return events
    rows = [(e.user_a, e.user_b, e.cell, e.overlap_start, e.overlap_end,
             e.weight) for e in events]
    if not rows:
        return PairEvents(None, None, _NO_EVENTS, 0, 0, None)
    pairs = list(dict.fromkeys(r[:2] for r in rows))
    if len(pairs) > 1:
        raise ValueError(f"events of pairs {pairs[0]} and {pairs[1]} "
                         "in one list")
    _, _, cells, start, end, weight = zip(*rows)
    index = {}
    cell = [index.setdefault(c, len(index)) for c in cells]
    return PairEvents(*pairs[0], _EventTable(index, cell, start, end, weight,
                                             [0, len(rows)]),
                      0, len(rows), 0)


# Relative half-width of the band around alpha_d in which the indicator
# kernel's distance filter sends a pair to the exact `haversine_m`. Both
# distances evaluate one formula on the same arguments (numpy forms the
# filter's products and differences, which round as Python's do); only
# sin, cos, arcsin and the squares differ, each within a few ulp of the
# true value. The terms of the haversine `a` are non-negative, so `a` and
# its square root keep a relative error of a few ulp, and arcsin at
# x = sin(t) magnifies a relative error by tan(t) / t, below 4 / pi for
# t <= pi / 4. Distances up to a quarter of the circumference thus agree
# to within some 30 ulp, under 1e-14 relative (measured: at most 4.4e-16
# over 400,000 pairs from 0.1 m to 10,000 km); longer ones stay longer,
# arcsin being increasing. For alpha_d up to a quarter circumference, a
# filtered distance outside alpha_d (1 +- _RECHECK) is therefore on the
# same side of alpha_d as the exact one; beyond it the bound is not
# shown, and every pair takes the exact path.
_RECHECK = 1e-9
_FILTER_REACH_M = math.pi / 2.0 * EARTH_RADIUS_M


def _filter_distances_m(lat, lon, i, j):
    """The haversine of `haversine_m` for the stay pairs (i[k], j[k]), with
    numpy's sin, cos and arcsin: within 1e-14 relative of it (see
    `_RECHECK`), not float for float."""
    phi = np.radians(lat)
    cos_phi = np.cos(phi)
    a = np.sin((phi[j] - phi[i]) / 2.0) ** 2
    a += (cos_phi[i] * cos_phi[j]
          * np.sin(np.radians(lon[j] - lon[i]) / 2.0) ** 2)
    np.sqrt(a, out=a)
    np.minimum(a, 1.0, out=a)
    np.arcsin(a, out=a)
    a *= 2.0 * EARTH_RADIUS_M
    return a


def _exact_distances_m(lat, lon, i, j):
    """`haversine_m` of each stay pair (i[k], j[k]), as an array."""
    return np.array(list(map(haversine_m, lat[i].tolist(), lon[i].tolist(),
                             lat[j].tolist(), lon[j].tolist())))


def _spatial_weights(lat, lon, i, j, cfg):
    """`_kernel_weights` of the haversine distances of the stay pairs
    (i[k], j[k]), float for float. The indicator kernel reads a distance
    only through d <= alpha_d: numpy's distances decide every pair outside
    the band alpha_d (1 +- _RECHECK), and `haversine_m` the pairs in it.
    The exponential kernel reads the value, so every pair takes
    `haversine_m`."""
    alpha = cfg.alpha_d_m
    if cfg.spatial_kernel != "indicator" or alpha > _FILTER_REACH_M:
        return _kernel_weights(_exact_distances_m(lat, lon, i, j), alpha,
                               cfg.spatial_kernel)
    d = _filter_distances_m(lat, lon, i, j)
    near = np.flatnonzero(np.abs(d - alpha) <= _RECHECK * alpha)
    d[near] = _exact_distances_m(lat, lon, i[near], j[near])
    return _kernel_weights(d, alpha, "indicator")


def _pair_weights(cols, i, j, cfg):
    """Kernel weights of the stay pairs (i[k], j[k]), and their overlap
    intervals (lo, hi): the spatial kernel of the haversine distance of
    stay i[k] to stay j[k] times the temporal kernel of their interval gap,
    float for float as the scalar kernels give it. `cols` holds the stays'
    (start, stop, lat, lon) columns."""
    start, stop, lat, lon = cols
    lo = np.maximum(start[i], start[j])
    hi = np.minimum(stop[i], stop[j])
    w = (_spatial_weights(lat, lon, i, j, cfg)
         * _kernel_weights(np.maximum(lo - hi, 0), cfg.alpha_t_s,
                           cfg.temporal_kernel))
    return w, np.minimum(lo, hi), hi      # disjoint stays: lo = hi


# Relative widening of the bins: it absorbs the rounding of the bin
# arithmetic and of haversine_m, so the adjacency bound holds as computed.
_BIN_MARGIN = 1e-6
# At most this many bins along either axis, so bin keys fit in int64.
_MAX_BINS = 1 << 24


def _gather(trajectories, users):
    """The (start, stop, lat, lon) columns of the users' stays, user-major in
    trajectory order, and the index in `users` of each stay's owner."""
    trajs = [trajectories[u] for u in users]
    owner = np.repeat(np.arange(len(users)), [len(t) for t in trajs])
    return stacked(trajs, "start", "stop", "start_lat", "start_lon"), owner


def _candidate_pairs(cols, owner, cfg):
    """Index pairs (i, j) into the stays of the (start, stop, lat, lon)
    columns `cols`, of different owners, that may have a nonzero kernel
    weight: each such pair appears exactly once, in no set order.

    Spatial hash: rows of latitude height h = spatial reach / R (radians)
    and columns of longitude width w. Haversine distance d >= R |dphi|, so
    d <= reach puts two stays in the same or adjacent rows. With
    |phi| <= phi_max over the stays, hav(d / R) >= cos^2(phi_max) hav(dlam),
    so d <= reach also gives dlam <= 2 asin(sin(h / 2) / cos(phi_max)) <= w:
    the same or adjacent columns, counted modulo the 360 degrees that the
    columns divide evenly (one column when no width below 180 degrees holds).

    Temporal sweep: with stays ranked by start time, a pair ranked i < j is
    within the temporal reach iff start_j <= stop_i + reach. Each stay
    therefore looks ahead, in its own bin and its 8 neighbours, at the
    later-ranked stays up to that start; every pair is seen once, from its
    earlier-ranked stay. Epoch seconds are integers, so the comparison is
    exact. The stays query in bin-major order, by rank within a bin, so
    that the binary searches into the bin-major stay codes get their keys
    in ascending order but at the column wrap.
    """
    n = len(owner)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    order = np.argsort(cols[0], kind="stable")        # rank -> stay index
    start, stop, lat, lon = (c[order] for c in cols)
    phi, lam = np.radians(lat), np.radians(lon)
    owner = owner[order]

    h = max(cfg.spatial_reach_m / EARTH_RADIUS_M * (1.0 + _BIN_MARGIN),
            math.pi / _MAX_BINS)
    row = np.floor(phi / h).astype(np.int64)
    row -= row.min()
    s = math.sin(h / 2.0) / math.cos(float(np.abs(phi).max()))
    n_col = 1 if s >= 1.0 else min(
        _MAX_BINS, int(2.0 * math.pi / (2.0 * math.asin(s))))
    col = np.floor((lam + math.pi) / (2.0 * math.pi / n_col)).astype(np.int64)
    col %= n_col
    # keys of rows -1 and max + 1 fall outside [0, n_rows * n_col): no bin
    keys, bin_of = np.unique(row * n_col + col, return_inverse=True)
    by_bin = np.argsort(bin_of, kind="stable")        # ranks, bin-major
    code = bin_of[by_bin] * n + by_bin
    horizon = np.searchsorted(start, stop + cfg.temporal_reach_s,
                              side="right")

    # the queries in bin-major order (see above)
    row, col, horizon = row[by_bin], col[by_bin], horizon[by_bin]
    firsts, seconds = [], []
    for d_row in (-1, 0, 1):
        for d_col in sorted({-1 % n_col, 0, 1 % n_col}):
            nkey = (row + d_row) * n_col + (col + d_col) % n_col
            b = np.minimum(np.searchsorted(keys, nkey), len(keys) - 1)
            hit = np.flatnonzero(keys[b] == nkey)
            i, b = by_bin[hit], b[hit] * n
            lo = np.searchsorted(code, b + i, side="right")
            hi = np.searchsorted(code, b + horizon[hit], side="left")
            count = np.maximum(hi - lo, 0)
            first = np.repeat(i, count)
            second = by_bin[np.arange(count.sum())
                            + np.repeat(lo - np.cumsum(count) + count, count)]
            keep = owner[first] != owner[second]
            firsts.append(first[keep])
            seconds.append(second[keep])
    return order[np.concatenate(firsts)], order[np.concatenate(seconds)]


def _lexsort_by_pair_start(*keys):
    """np.lexsort(keys), whose last two keys are a non-negative pair code
    and an event start: one stable argsort of the two packed into one
    int64, then the lexsort of all keys over the runs of equal (pair,
    start) only."""
    pair, start = keys[-1], keys[-2]
    if not len(pair):
        return np.lexsort(keys)
    low = int(start.min())
    span = int(start.max()) - low + 1
    if int(pair.max()) >= (1 << 62) // span:       # would not fit
        return np.lexsort(keys)
    packed = pair * span + (start - low)
    order = np.argsort(packed, kind="stable")
    same = np.diff(packed[order]) == 0
    tied = np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))
    if len(tied):       # each run sorts within its own positions
        run = order[tied]
        order[tied] = run[np.lexsort([k[run] for k in keys])]
    return order


def extract_coevents(trajectories, cfg, grid, pairs=None):
    """Co-occurrence events for every unordered user pair (or a given list).

    One spatial-hash sweep over the stays of the users involved finds the
    candidate stay pairs; the kernel runs only on those. The events are
    built once, as the columns of one event table sorted by pair: each
    event's cell (an index into the table's distinct cells), overlap start,
    overlap end and weight. Returns a dict (user_a, user_b) -> PairEvents,
    the read-only view of the pair's rows, with the pairs in the order
    asked for and each pair's events ordered by (overlap start, overlap
    end, weight, index of the stay in traj_a, index of the stay in traj_b).
    CoEvent rows are built only when a view is iterated or indexed.
    """
    if pairs is None:
        users = sorted(trajectories)
        keys = [(a, b) for i, a in enumerate(users) for b in users[i + 1:]]
    else:
        keys = [tuple(sorted(p)) for p in pairs]
        for p, (x, y) in zip(pairs, keys):
            if x == y:
                raise ValueError(f"pair {tuple(p)} names one user twice")
            for u in (x, y):
                if u not in trajectories:
                    raise ValueError(f"pair {tuple(p)} names unknown user "
                                     f"{u!r}")
        users = sorted({u for key in keys for u in key})
    n = len(users)
    index = {u: i for i, u in enumerate(users)}
    codes = np.array([index[x] * n + index[y] for x, y in keys], np.int64)
    cols, owner = _gather(trajectories, users)
    first, second = _candidate_pairs(cols, owner, cfg)
    swap = owner[first] > owner[second]     # the stay of user_a goes first
    a = np.where(swap, second, first)
    b = np.where(swap, first, second)
    pair = owner[a] * n + owner[b]
    if pairs is not None:
        keep = np.isin(pair, codes)
        a, b, pair = a[keep], b[keep], pair[keep]
    w, lo, hi = _pair_weights(cols, a, b, cfg)
    k = np.flatnonzero(w > 0.0)
    # by pair, then as the nested loop's events, stably sorted by (overlap
    # start, overlap end, weight): ties in loop order, stay of a then of b
    k = k[_lexsort_by_pair_start(b[k], a[k], w[k], hi[k], lo[k], pair[k])]
    lat, lon, pair = cols[2][a[k]], cols[3][a[k]], pair[k]
    _, rep, cell = np.unique(cell_codes(lat, lon, grid), return_index=True,
                             return_inverse=True)
    seg = np.flatnonzero(np.diff(pair, prepend=-1))     # each pair's first
    table = _EventTable(cells_of(lat[rep], lon[rep], grid), cell, lo[k],
                        hi[k], w[k], np.append(seg, len(k)))
    begin = np.searchsorted(pair, codes, side="left")
    end = np.searchsorted(pair, codes, side="right").tolist()
    index = np.searchsorted(seg, begin, side="right") - 1
    return {key: PairEvents(*key, table, i, j, s) for key, i, j, s in zip(
        keys, begin.tolist(), end, index.tolist())}


def extract_pair_coevents(traj_a, traj_b, cfg, grid):
    """All co-occurrence events between two trajectories."""
    pair = tuple(sorted((traj_a.user_id, traj_b.user_id)))
    return list(extract_coevents({traj_a.user_id: traj_a,
                                  traj_b.user_id: traj_b},
                                 cfg, grid, pairs=[pair])[pair])


def stay_participation(trajectories, cfg):
    """Per user, one flag per stay: does the stay have a nonzero kernel
    weight with a stay of another user?"""
    users = sorted(trajectories)
    cols, owner = _gather(trajectories, users)
    first, second = _candidate_pairs(cols, owner, cfg)
    met = _pair_weights(cols, first, second, cfg)[0] > 0.0
    hit = np.zeros(len(owner), dtype=bool)
    hit[first[met]] = hit[second[met]] = True
    hit = hit.tolist()
    flags, k = {}, 0
    for u in users:
        n = len(trajectories[u])
        flags[u] = hit[k:k + n]
        k += n
    return flags


def coevent_score(events):
    """Kernel-weighted co-occurrence score of one pair's events (PairEvents
    or CoEvent rows): the sum of their weights, left to right, read from
    the table's metric pass."""
    return pair_events(events).metrics.score
