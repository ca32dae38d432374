"""Co-location / co-occurrence event extraction between user pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EARTH_RADIUS_M, cell_of, haversine_m

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


@dataclass(frozen=True)
class CoEvent:
    """One co-occurrence between an ordered user pair (user_a < user_b).

    The overlap interval is the intersection of the two stay intervals; for
    disjoint-but-close stays it degenerates to the earlier stay's endpoint.
    """

    user_a: str
    user_b: str
    cell: object
    overlap_start: int
    overlap_end: int
    weight: float

    def __post_init__(self):
        if self.user_a >= self.user_b:
            raise ValueError("pair must be ordered user_a < user_b")
        if self.overlap_start > self.overlap_end:
            raise ValueError("inverted overlap interval")
        if not (0.0 < self.weight <= 1.0):
            raise ValueError("weight must be in (0, 1]")

    @property
    def overlap_s(self):
        return self.overlap_end - self.overlap_start


def interval_gap_s(a, b):
    """Gap between two stay intervals; 0 when they overlap or touch."""
    return max(0, max(a.start_time, b.start_time) - min(a.stop_time, b.stop_time))


def _weight(sa, sb, cfg):
    """Kernel weight of a stay pair: the spatial kernel of their haversine
    distance times the temporal kernel of their interval gap."""
    d = haversine_m(sa.lat, sa.lon, sb.lat, sb.lon)
    return cfg.spatial_weight(d) * cfg.temporal_weight(interval_gap_s(sa, sb))


def _event_for(sa, sb, pair, cell, cfg):
    """The event of user_a's stay `sa`, in `cell`, with user_b's stay `sb`,
    or None when their kernel weight is 0."""
    w = _weight(sa, sb, cfg)
    if w <= 0.0:
        return None
    lo = max(sa.start_time, sb.start_time)
    hi = min(sa.stop_time, sb.stop_time)
    if lo > hi:          # disjoint stays within temporal reach
        lo = hi
    return CoEvent(pair[0], pair[1], cell, lo, hi, w)


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
    nonzero kernel weight: each such pair appears exactly once.

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
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    start = np.array([s.start_time for s in stays])
    order = np.argsort(start, kind="stable")          # rank -> stay index
    start = start[order]
    stop = np.array([s.stop_time for s in stays])[order]
    phi = np.radians([stays[k].lat for k in order])
    lam = np.radians([stays[k].lon for k in order])
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
    return order[np.concatenate(firsts)], order[np.concatenate(seconds)]


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
        users = sorted({u for key in keys for u in key})
    stays, owner = _gather(trajectories, users)
    first, second = _candidate_pairs(stays, owner, cfg)
    swap = owner[first] > owner[second]     # the stay of user_a goes first
    a = np.where(swap, second, first)
    b = np.where(swap, first, second)
    if pairs is not None:
        index = {u: k for k, u in enumerate(users)}
        wanted = [index[x] * len(users) + index[y] for x, y in keys]
        keep = np.isin(owner[a] * len(users) + owner[b], wanted)
        a, b = a[keep], b[keep]
    cells = {i: cell_of(stays[i].lat, stays[i].lon, grid)
             for i in np.unique(a).tolist()}
    found = {}
    order = np.lexsort((b, a))        # the nested-loop order within a pair
    for ia, ib in zip(a[order].tolist(), b[order].tolist()):
        pair = (users[owner[ia]], users[owner[ib]])
        ev = _event_for(stays[ia], stays[ib], pair, cells[ia], cfg)
        if ev is not None:
            found.setdefault(pair, []).append(ev)
    for events in found.values():
        events.sort(key=lambda e: (e.overlap_start, e.overlap_end, e.weight))
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
    hit = [False] * len(stays)
    first, second = _candidate_pairs(stays, owner, cfg)
    for i, j in zip(first.tolist(), second.tolist()):
        if not (hit[i] and hit[j]) and _weight(stays[i], stays[j], cfg) > 0.0:
            hit[i] = hit[j] = True
    flags, k = {}, 0
    for u in users:
        n = len(trajectories[u].stays)
        flags[u] = hit[k:k + n]
        k += n
    return flags


def coevent_score(events):
    """Kernel-weighted co-occurrence score: sum of event weights."""
    return float(sum(e.weight for e in events))
