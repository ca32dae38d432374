"""Trajectory k-anonymity via statistic-constrained dummy synthesis.

Dummies keep the real trajectory's temporal skeleton (slots and durations)
and redraw only space from the user's mobility model; a candidate joins the
anonymity set only if every statistic in the policy's family stays within
relative tolerance l of the real trajectory's value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Cell, StayRecord, Trajectory, _grid_xy_m, cell_center,
                   time_slot)
from .mobility import LocalProjection, sample_location

STATISTICS = ("stay_count", "total_duration_h", "radius_of_gyration_m",
              "social_visit_fraction")
_REL_EPS = 1e-9


@dataclass(frozen=True)
class AnonymityPolicy:
    k: int = 5
    l: float = 0.3
    stats: tuple = ("stay_count", "total_duration_h", "radius_of_gyration_m")
    max_attempts: int = 200

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (0.0 < self.l < 1.0):
            raise ValueError("l must lie in (0, 1)")
        if not self.stats:
            raise ValueError("statistic family must be non-empty")
        for s in self.stats:
            if s not in STATISTICS:
                raise ValueError(f"unknown statistic {s}")
        if self.max_attempts < self.k:
            raise ValueError("max_attempts must be >= k")


class InsufficientCandidatesError(RuntimeError):
    def __init__(self, accepted, needed, attempts):
        rate = accepted / attempts if attempts else 0.0
        super().__init__(
            f"accepted {accepted}/{needed} dummies in {attempts} attempts "
            f"(acceptance rate {rate:.3f})")
        self.acceptance_rate = rate


def trajectory_stats(traj, stats, model=None, alpha_d_m=250.0):
    """Evaluate the requested statistics on one trajectory."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    out = {}
    for name in stats:
        if name == "stay_count":
            out[name] = float(len(traj))
        elif name == "total_duration_h":
            out[name] = sum(s.duration_s for s in traj) / 3600.0
        elif name == "radius_of_gyration_m":
            lats = np.array([s.lat for s in traj])
            lons = np.array([s.lon for s in traj])
            proj = LocalProjection(float(lats.mean()), float(lons.mean()))
            xy = proj.to_xy(lats, lons)
            centroid = xy.mean(axis=0)
            out[name] = float(np.sqrt(np.mean(np.sum((xy - centroid) ** 2,
                                                     axis=1))))
        elif name == "social_visit_fraction":
            if model is None:
                raise ValueError("social_visit_fraction needs a mobility model")
            centers = model.means[model.social_flags]
            if len(centers) == 0:
                out[name] = 0.0
                continue
            hits = 0
            for s in traj:
                xy = model.projection.to_xy(s.lat, s.lon)
                if np.min(np.linalg.norm(centers - xy, axis=1)) <= alpha_d_m:
                    hits += 1
            out[name] = hits / len(traj)
        else:
            raise ValueError(f"unknown statistic {name}")
    return out


def snap_to_grid(lat, lon, grid):
    """Cell-center coordinate of the containing cell, clamping to the grid:
    a point off the grid snaps to the nearest edge cell."""
    x_m, y_m = _grid_xy_m(lat, lon, grid)
    x = min(max(math.floor(x_m / grid.cell_size_m), 0), grid.n_x - 1)
    y = min(max(math.floor(y_m / grid.cell_size_m), 0), grid.n_y - 1)
    return cell_center(Cell(x, y), grid)


def generate_dummy(model, template, grid, rng, influence=None):
    """Synthesize one dummy trajectory over the template's time skeleton."""
    if len(template) == 0:
        raise ValueError("template trajectory is empty")
    stays = []
    for s in template:
        slot, _ = time_slot(s.start_time, grid)
        xy = sample_location(model, slot, rng, influence=influence)
        lat, lon = model.projection.to_latlon(xy)
        lat, lon = snap_to_grid(float(lat), float(lon), grid)
        stays.append(StayRecord(template.user_id, s.start_time, s.stop_time,
                                lat, lon, lat, lon))
    return Trajectory(template.user_id, stays)


@dataclass
class AnonymitySet:
    """Published group of k trajectories; the real member's position lives
    only in the audit record."""

    real: Trajectory
    dummies: list
    order: list                 # shuffled member indices; 0 is the real one
    audit: dict = field(default_factory=dict)

    @property
    def k(self):
        return 1 + len(self.dummies)

    def members(self):
        """Members in published (shuffled) order."""
        pool = [self.real] + self.dummies
        return [pool[i] for i in self.order]

    def to_jsonl(self):
        lines = []
        for idx, traj in enumerate(self.members()):
            for s in traj:
                lines.append(json.dumps({
                    "member": idx,
                    "start_time": s.start_time, "stop_time": s.stop_time,
                    "start_lat": s.start_lat, "start_lon": s.start_lon,
                    "stop_lat": s.stop_lat, "stop_lon": s.stop_lon,
                }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def _deviations(real_stats, cand_stats):
    out = {}
    for name, rv in real_stats.items():
        out[name] = abs(cand_stats[name] - rv) / max(abs(rv), _REL_EPS)
    return out


def k_anonymize(real, model, policy, grid, seed=0, influence=None,
                alpha_d_m=250.0):
    """Rejection-sample k-1 accepted dummies and shuffle the set."""
    rng = np.random.default_rng(seed)
    real_stats = trajectory_stats(real, policy.stats, model, alpha_d_m)
    dummies, deviations = [], []
    attempts = 0
    while len(dummies) < policy.k - 1 and attempts < policy.max_attempts:
        attempts += 1
        cand = generate_dummy(model, real, grid, rng, influence=influence)
        cand_stats = trajectory_stats(cand, policy.stats, model, alpha_d_m)
        dev = _deviations(real_stats, cand_stats)
        if all(v <= policy.l for v in dev.values()):
            dummies.append(cand)
            deviations.append(dev)
    if len(dummies) < policy.k - 1:
        raise InsufficientCandidatesError(len(dummies), policy.k - 1, attempts)
    order = list(rng.permutation(policy.k).astype(int))
    audit = {
        "real_position": order.index(0),
        "deviations": deviations,
        "acceptance_rate": (policy.k - 1) / attempts if attempts else 1.0,
        "stats": dict(real_stats),
        "l": policy.l,
    }
    return AnonymitySet(real, dummies, order, audit)


def audit_anonymity_set(aset, policy, model=None, alpha_d_m=250.0,
                        slot_seconds=3600):
    """Independent post-hoc audit of a published set.

    Recomputes every statistic from scratch and checks size, time-window
    alignment (within one slot) and the deviation bound.
    """
    if aset.k != policy.k:
        return False
    if sorted(aset.order) != list(range(policy.k)):
        return False
    real_stats = trajectory_stats(aset.real, policy.stats, model, alpha_d_m)
    r0, r1 = aset.real.stays[0].start_time, aset.real.stays[-1].stop_time
    for dummy in aset.dummies:
        d0, d1 = dummy.stays[0].start_time, dummy.stays[-1].stop_time
        if abs(d0 - r0) > slot_seconds or abs(d1 - r1) > slot_seconds:
            return False
        dev = _deviations(real_stats,
                          trajectory_stats(dummy, policy.stats, model,
                                           alpha_d_m))
        if any(v > policy.l for v in dev.values()):
            return False
    return True
