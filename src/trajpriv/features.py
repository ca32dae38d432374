"""Six-metric social feature vectors for user pairs."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .colocation import PairEvents, pair_events
from .core import cell_codes, cells_of, segment_entropy, stacked

FEATURE_NAMES = ("f_fre", "f_pop", "f_div", "f_int", "f_stay", "f_hol")

SUBSETS = {
    "all": FEATURE_NAMES,
    "spatial": ("f_fre", "f_pop", "f_div"),
    "temporal": ("f_int", "f_stay", "f_hol"),
    "f_fre": ("f_fre",),
    "f_pop": ("f_pop",),
    "f_div": ("f_div",),
    "f_int": ("f_int",),
    "f_stay": ("f_stay",),
    "f_hol": ("f_hol",),
}


@dataclass
class PairFeatures:
    user_a: str
    user_b: str
    f_fre: float
    f_pop: float
    f_div: float
    f_int: float
    f_stay: float
    f_hol: float
    label: bool | None = None


def resolve_subset(subset):
    """Subset name or explicit metric tuple -> canonical metric tuple."""
    if isinstance(subset, str):
        try:
            return SUBSETS[subset]
        except KeyError:
            raise ValueError(f"unknown feature subset: {subset}")
    names = tuple(n for n in FEATURE_NAMES if n in set(subset))
    if not names:
        raise ValueError("feature subset must be non-empty")
    return names


def cell_visit_entropy(trajectories, grid):
    """Per-cell Shannon entropy of the visiting-user distribution: with
    the users in sorted order, whatever the order of `trajectories`, the
    cells in the order of their first visit, each cell's users counted in
    the order of theirs."""
    trajs = [trajectories[u] for u in sorted(trajectories)]
    n = len(trajs)
    user = np.repeat(np.arange(n), [len(t) for t in trajs])
    lat, lon = stacked(trajs, "start_lat", "start_lon")
    code = cell_codes(lat, lon, grid)
    on = np.flatnonzero(code >= 0)
    # a user's stays come together and users in turn, so a cell's users
    # in the order of their first visits are in user order: (cell, user)
    visit, first, count = np.unique(code[on] * n + user[on],
                                    return_index=True, return_counts=True)
    start = np.flatnonzero(np.diff(visit // n, prepend=-1))
    first = on[np.minimum.reduceat(first, start)]
    entropy = segment_entropy(count, np.append(start, len(count))).tolist()
    order = np.argsort(first)
    cells = cells_of(lat[first[order]], lon[first[order]], grid)
    return {cell: entropy[k] for cell, k in zip(cells, order.tolist())}


def compute_features(events, cell_entropy, pair=None, label=None):
    """Quantify one pair's co-occurrence events (PairEvents, or CoEvent
    rows, read as the same columns) into the six metrics; the holiday ratio
    counts events that start on a UTC weekend. Events of another pair than
    `pair` are an error.

    f_pop sums exp(-entropy) of each event's cell, left to right; the
    other five metrics come from the event table's one pass over all its
    pairs (`colocation._pair_metrics`). With zero events every metric is 0
    (including f_int, by convention).
    """
    if not isinstance(events, PairEvents):
        events = pair_events(events)
    a, b = events.user_a, events.user_b     # None, None: an empty list
    if pair is None:
        if a is None:
            raise ValueError("pair required when the event list is empty")
        pair = a, b
    elif a is not None and tuple(pair) != (a, b):
        raise ValueError(f"events of pair {(a, b)} given for pair "
                         f"{tuple(pair)}")
    m, cells = events.metrics_and_cells()
    if not cells:
        return PairFeatures(pair[0], pair[1], 0, 0, 0, 0, 0, 0, label)
    f_fre, f_div, f_int, f_stay, f_hol, _ = m
    get, exp = cell_entropy.get, math.exp
    # added one term at a time: from 3.12 on, the builtin sum compensates
    # a float sum and gives other floats
    f_pop = 0.0
    for c in cells:
        f_pop += exp(-get(c, 0.0))
    return PairFeatures(pair[0], pair[1], f_fre, f_pop, f_div, f_int, f_stay,
                        f_hol, label)


def project(features, subset):
    """Selected metrics in canonical order as a vector."""
    names = resolve_subset(subset)
    d = {n: getattr(features, n) for n in FEATURE_NAMES}
    return np.array([d[n] for n in names])


class Standardizer:
    """Per-column z-score transform fitted on the training split only."""

    def fit(self, X):
        X = np.asarray(X, dtype=float)
        self.mean_ = X.mean(axis=0)
        self.std_ = X.std(axis=0)
        self.std_[self.std_ == 0] = 1.0
        return self

    def transform(self, X):
        return (np.asarray(X, dtype=float) - self.mean_) / self.std_


def _csv_field(value):
    """`value` as csv.writer writes it as one field of a row of several."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((value, ""))
    return out.getvalue()[:-2]


_ROW = "%s,%s,%r,%r,%r,%r,%r,%r,%s\n"


def features_to_csv(rows):
    """Feature matrix export with the declared header: each metric as its
    float's repr, the label as 1, 0 or empty. Each distinct user id is
    quoted once by the csv module's rules, and each row is one %-format,
    as csv.writer would write it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        ["user_a", "user_b", *FEATURE_NAMES, "label"])
    field = {}
    for f in rows:
        for u in (f.user_a, f.user_b):
            if u not in field:
                field[u] = _csv_field(u)
    return "".join([out.getvalue(), *[_ROW % (
        field[f.user_a], field[f.user_b], float(f.f_fre), float(f.f_pop),
        float(f.f_div), float(f.f_int), float(f.f_stay), float(f.f_hol),
        "" if f.label is None else str(int(f.label))) for f in rows]])
