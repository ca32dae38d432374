"""Trajectory k-anonymity via statistic-constrained dummy synthesis.

Dummies keep the real trajectory's temporal skeleton (slots and durations)
and redraw only space from the user's mobility model; a candidate joins the
anonymity set only if every statistic in the policy's family stays within
tolerance l of the real trajectory's value: relative for counts, durations
and radii, absolute for the social visit fraction, which lies in [0, 1] and
is often 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .colocation import CoLocationConfig
from .core import Trajectory, snap_to_grid, time_slot
from .mobility import LocationSampler, project_stays

STATISTICS = ("stay_count", "total_duration_h", "radius_of_gyration_m",
              "social_visit_fraction")
_REL_EPS = 1e-9
# statistics whose deviation is |c - r|, not |c - r| / |r|
_ABSOLUTE = ("social_visit_fraction",)


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
    """Too few dummies of one user's trajectory passed the policy."""

    def __init__(self, accepted, needed, attempts, user_id=None):
        rate = accepted / attempts if attempts else 0.0
        super().__init__(
            f"user {user_id}: accepted {accepted}/{needed} dummies in "
            f"{attempts} attempts (acceptance rate {rate:.3f})")
        self.acceptance_rate = rate
        self.user_id = user_id


def trajectory_stats(traj, stats, model=None,
                     alpha_d_m=CoLocationConfig.alpha_d_m):
    """Evaluate the requested statistics on one trajectory."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    out = {}
    for name in stats:
        if name == "stay_count":
            out[name] = float(len(traj))
        elif name == "total_duration_h":
            out[name] = sum((traj.stop - traj.start).tolist()) / 3600.0
        elif name == "radius_of_gyration_m":
            _, xy = project_stays(traj)
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
            xy = model.projection.to_xy(traj.start_lat, traj.start_lon)
            dist = np.linalg.norm(xy[:, None, :] - centers[None], axis=2)
            out[name] = int(np.sum(dist.min(axis=1) <= alpha_d_m)) / len(traj)
        else:
            raise ValueError(f"unknown statistic {name}")
    return out


def _dummy_sampler(model, template, grid, influence=None):
    """Draw function of dummies over the template's time skeleton: the
    per-slot weights and Cholesky factors are prepared once."""
    if len(template) == 0:
        raise ValueError("template trajectory is empty")
    sampler = LocationSampler(model, influence)
    slots = time_slot(template.start, grid)

    def draw(rng):
        lat, lon = model.projection.to_latlon(sampler.draw(slots, rng))
        lat, lon = snap_to_grid(lat, lon, grid)
        return Trajectory.from_columns(template.user_id, template.start,
                                       template.stop, lat, lon, lat, lon)
    return draw


def generate_dummy(model, template, grid, rng, influence=None):
    """Synthesize one dummy trajectory over the template's time skeleton."""
    return _dummy_sampler(model, template, grid, influence)(rng)


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
    return {name: abs(cand_stats[name] - rv)
            / (1.0 if name in _ABSOLUTE else max(abs(rv), _REL_EPS))
            for name, rv in real_stats.items()}


def k_anonymize(real, model, policy, grid, seed=0, influence=None):
    """Rejection-sample k-1 accepted dummies and shuffle the set."""
    rng = np.random.default_rng(seed)
    real_stats = trajectory_stats(real, policy.stats, model)
    draw = _dummy_sampler(model, real, grid, influence)
    dummies, deviations = [], []
    attempts = 0
    while len(dummies) < policy.k - 1 and attempts < policy.max_attempts:
        attempts += 1
        cand = draw(rng)
        cand_stats = trajectory_stats(cand, policy.stats, model)
        dev = _deviations(real_stats, cand_stats)
        if all(v <= policy.l for v in dev.values()):
            dummies.append(cand)
            deviations.append(dev)
    if len(dummies) < policy.k - 1:
        raise InsufficientCandidatesError(len(dummies), policy.k - 1, attempts,
                                          real.user_id)
    order = list(rng.permutation(policy.k).astype(int))
    audit = {
        "real_position": order.index(0),
        "deviations": deviations,
        "acceptance_rate": (policy.k - 1) / attempts if attempts else 1.0,
        "stats": dict(real_stats),
        "l": policy.l,
    }
    return AnonymitySet(real, dummies, order, audit)


def audit_anonymity_set(aset, policy, model=None):
    """Independent post-hoc audit of a published set.

    Recomputes every statistic from scratch and checks size, time-window
    alignment (within one hour) and the deviation bound.
    """
    if aset.k != policy.k:
        return False
    if sorted(aset.order) != list(range(policy.k)):
        return False
    real_stats = trajectory_stats(aset.real, policy.stats, model)
    r0, r1 = aset.real.start[0], aset.real.stop[-1]
    for dummy in aset.dummies:
        d0, d1 = dummy.start[0], dummy.stop[-1]
        if abs(d0 - r0) > 3600 or abs(d1 - r1) > 3600:
            return False
        dev = _deviations(real_stats,
                          trajectory_stats(dummy, policy.stats, model))
        if any(v > policy.l for v in dev.values()):
            return False
    return True
