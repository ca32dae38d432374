"""Co-location / co-occurrence event extraction between user pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import EARTH_RADIUS_M, cells_of, pair_distances_m

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
        if self.alpha_d_m <= 0 or self.alpha_t_s <= 0:
            raise ValueError("thresholds must be positive")
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
    """_kernel_weight of each value of an array, float for float: math.exp
    per value, as np.exp differs from it in the last bit."""
    if kind == "indicator":
        return np.where(x <= alpha, 1.0, 0.0)
    reach, exp = 3.0 * alpha, math.exp
    return np.array([0.0 if v > reach else exp(-v / alpha)
                     for v in x.tolist()])


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

    @property
    def overlap_s(self):
        return self.overlap_end - self.overlap_start


def _pair_weights(cols, i, j, cfg):
    """Kernel weights of the stay pairs (i[k], j[k]), and their overlap
    intervals (lo, hi): the spatial kernel of the haversine distance of
    stay i[k] to stay j[k] times the temporal kernel of their interval gap,
    float for float as the scalar kernels give it. `cols` holds the stays'
    (start, stop, lat, lon) columns."""
    start, stop, lat, lon = cols
    lo = np.maximum(start[i], start[j])
    hi = np.minimum(stop[i], stop[j])
    w = (_kernel_weights(pair_distances_m(lat, lon, i, j), cfg.alpha_d_m,
                         cfg.spatial_kernel)
         * _kernel_weights(np.maximum(lo - hi, 0), cfg.alpha_t_s,
                           cfg.temporal_kernel))
    return w, np.minimum(lo, hi), hi      # disjoint stays: lo = hi


# Relative widening of the bins: it absorbs the rounding of the bin
# arithmetic and of haversine_m, so the adjacency bound holds as computed.
_BIN_MARGIN = 1e-6
# At most this many bins along either axis, so bin keys fit in int64.
_MAX_BINS = 1 << 24


def _gather(trajectories, users):
    """The users' stays, user-major in trajectory order, and the index in
    `users` of each stay's owner."""
    stays = [s for u in users for s in trajectories[u].stays]
    owner = np.repeat(np.arange(len(users)),
                      [len(trajectories[u].stays) for u in users])
    return stays, owner


def _candidate_pairs(stays, owner, cfg):
    """Index pairs (i, j) into `stays`, of different owners, that may have a
    nonzero kernel weight: each such pair appears exactly once; and the
    stays' (start, stop, lat, lon) columns.

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
    exact.
    """
    n = len(stays)
    cols = (np.array([s.start_time for s in stays], dtype=np.int64),
            np.array([s.stop_time for s in stays], dtype=np.int64),
            np.array([s.lat for s in stays], dtype=float),
            np.array([s.lon for s in stays], dtype=float))
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), cols
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

    firsts, seconds = [], []
    for d_row in (-1, 0, 1):
        for d_col in sorted({-1 % n_col, 0, 1 % n_col}):
            nkey = (row + d_row) * n_col + (col + d_col) % n_col
            b = np.minimum(np.searchsorted(keys, nkey), len(keys) - 1)
            i = np.flatnonzero(keys[b] == nkey)
            lo = np.searchsorted(code, b[i] * n + i, side="right")
            hi = np.searchsorted(code, b[i] * n + horizon[i], side="left")
            count = np.maximum(hi - lo, 0)
            first = np.repeat(i, count)
            second = by_bin[np.arange(count.sum())
                            + np.repeat(lo - np.cumsum(count) + count, count)]
            keep = owner[first] != owner[second]
            firsts.append(first[keep])
            seconds.append(second[keep])
    return (order[np.concatenate(firsts)], order[np.concatenate(seconds)],
            cols)


def extract_coevents(trajectories, cfg, grid, pairs=None):
    """Co-occurrence events for every unordered user pair (or a given list).

    One spatial-hash sweep over the stays of the users involved finds the
    candidate stay pairs; the kernel runs only on those. Returns a dict
    (user_a, user_b) -> event list, with the pairs in the order asked for
    and each pair's events ordered by (overlap start, overlap end, weight,
    index of the stay in traj_a, index of the stay in traj_b).
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
    stays, owner = _gather(trajectories, users)
    first, second, cols = _candidate_pairs(stays, owner, cfg)
    swap = owner[first] > owner[second]     # the stay of user_a goes first
    a = np.where(swap, second, first)
    b = np.where(swap, first, second)
    pair = owner[a] * len(users) + owner[b]
    if pairs is not None:
        index = {u: k for k, u in enumerate(users)}
        keep = np.isin(pair, [index[x] * len(users) + index[y]
                              for x, y in keys])
        a, b, pair = a[keep], b[keep], pair[keep]
    w, lo, hi = _pair_weights(cols, a, b, cfg)
    k = np.flatnonzero(w > 0.0)
    # by pair, then as the nested loop's events, stably sorted by (overlap
    # start, overlap end, weight): ties in loop order, stay of a then of b
    k = k[np.lexsort((b[k], a[k], w[k], hi[k], lo[k], pair[k]))]
    a_stays, a_of = np.unique(a[k], return_inverse=True)
    cells = cells_of(cols[2][a_stays], cols[3][a_stays], grid)
    n, found = len(users), {}
    for p, c, start, end, weight in zip(
            pair[k].tolist(), a_of.tolist(), lo[k].tolist(), hi[k].tolist(),
            w[k].tolist()):
        key = (users[p // n], users[p % n])
        found.setdefault(key, []).append(CoEvent(*key, cells[c], start, end,
                                                 weight))
    return {key: found.get(key, []) for key in keys}


def extract_pair_coevents(traj_a, traj_b, cfg, grid):
    """All co-occurrence events between two trajectories."""
    pair = tuple(sorted((traj_a.user_id, traj_b.user_id)))
    return extract_coevents({traj_a.user_id: traj_a, traj_b.user_id: traj_b},
                            cfg, grid, pairs=[pair])[pair]


def stay_participation(trajectories, cfg):
    """Per user, one flag per stay: does the stay have a nonzero kernel
    weight with a stay of another user?"""
    users = sorted(trajectories)
    stays, owner = _gather(trajectories, users)
    first, second, cols = _candidate_pairs(stays, owner, cfg)
    met = _pair_weights(cols, first, second, cfg)[0] > 0.0
    hit = np.zeros(len(stays), dtype=bool)
    hit[first[met]] = hit[second[met]] = True
    hit = hit.tolist()
    flags, k = {}, 0
    for u in users:
        n = len(trajectories[u].stays)
        flags[u] = hit[k:k + n]
        k += n
    return flags


def coevent_score(events):
    """Kernel-weighted co-occurrence score: sum of event weights."""
    return float(sum(e.weight for e in events))
