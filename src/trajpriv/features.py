"""Six-metric social feature vectors for user pairs."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .core import cells_of, weekday

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


def shannon_entropy(counts):
    """Natural-log Shannon entropy of a count vector."""
    counts = np.asarray(list(counts), dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log(p)).sum())


def cell_visit_entropy(trajectories, grid):
    """Per-cell Shannon entropy of the visiting-user distribution."""
    users = [traj.user_id for traj in trajectories.values() for _ in traj]
    stays = [s for traj in trajectories.values() for s in traj]
    cells = cells_of([s.lat for s in stays], [s.lon for s in stays], grid)
    visits = {}
    for user, cell in zip(users, cells):
        if cell is None:
            continue
        visits.setdefault(cell, {}).setdefault(user, 0)
        visits[cell][user] += 1
    return {cell: shannon_entropy(c.values()) for cell, c in visits.items()}


def compute_features(events, cell_entropy, pair=None, label=None):
    """Quantify one pair's co-occurrence events into the six metrics; the
    holiday ratio counts events that start on a UTC weekend.

    With zero events every metric is 0 (including f_int, by convention).
    """
    if pair is None:
        if not events:
            raise ValueError("pair required when the event list is empty")
        pair = (events[0].user_a, events[0].user_b)
    if not events:
        return PairFeatures(pair[0], pair[1], 0, 0, 0, 0, 0, 0, label)

    f_fre = float(len(events))
    f_pop = sum(math.exp(-cell_entropy.get(e.cell, 0.0)) for e in events)
    cell_counts = {}
    for e in events:
        cell_counts[e.cell] = cell_counts.get(e.cell, 0) + 1
    f_div = shannon_entropy(cell_counts.values())
    starts = sorted(e.overlap_start for e in events)
    if len(starts) < 2:
        f_int = 1.0
    else:
        gaps_h = [(b - a) / 3600.0 for a, b in zip(starts, starts[1:])]
        f_int = 1.0 / (1.0 + sum(gaps_h) / len(gaps_h))
    f_stay = sum(e.overlap_s for e in events) / 3600.0
    f_hol = (sum(1 for e in events if weekday(e.overlap_start) >= 5)
             / len(events))
    return PairFeatures(pair[0], pair[1], f_fre, float(f_pop), f_div,
                        f_int, float(f_stay), f_hol, label)


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


def features_to_csv(rows):
    """Feature matrix export with the declared header."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["user_a", "user_b", *FEATURE_NAMES, "label"])
    for f in rows:
        w.writerow([f.user_a, f.user_b,
                    *(repr(float(getattr(f, n))) for n in FEATURE_NAMES),
                    "" if f.label is None else int(f.label)])
    return out.getvalue()
