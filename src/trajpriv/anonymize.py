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
from .core import LocalProjection, Trajectory, snap_to_grid, time_slot
from .mobility import LocationSampler

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
    """Too few dummies passed the policy, for one user's trajectory or for
    several: `failures` lists each failing user as (user, accepted,
    attempts), and `user_id` and `acceptance_rate` are the first one's."""

    def __init__(self, needed, failures):
        self.failures = list(failures)
        rates = [accepted / attempts if attempts else 0.0
                 for _, accepted, attempts in self.failures]
        super().__init__("; ".join(
            f"user {user_id}: accepted {accepted}/{needed} dummies in "
            f"{attempts} attempts (acceptance rate {rate:.3f})"
            for (user_id, accepted, attempts), rate
            in zip(self.failures, rates)))
        self.user_id = self.failures[0][0]
        self.acceptance_rate = rates[0]


def block_stats(start, stop, lat, lon, stats, model=None,
                alpha_d_m=CoLocationConfig.alpha_d_m):
    """The requested statistics of c trajectories that share one time
    skeleton (start, stop) and hold the (c, n) stay coordinates lat, lon,
    as {name: (c,) array}."""
    c, n = lat.shape
    if n == 0:
        raise ValueError("empty trajectory")
    out = {}
    for name in stats:
        if name == "stay_count":
            out[name] = np.full(c, float(n))
        elif name == "total_duration_h":
            out[name] = np.full(c, sum((stop - start).tolist()) / 3600.0)
        elif name == "radius_of_gyration_m":
            xy = LocalProjection.centred_xy(lat, lon)
            centroid = xy.mean(axis=1, keepdims=True)
            out[name] = np.sqrt(np.mean(np.sum((xy - centroid) ** 2,
                                               axis=2), axis=1))
        elif name == "social_visit_fraction":
            if model is None:
                raise ValueError("social_visit_fraction needs a mobility model")
            centers = model.means[model.social_flags]
            if len(centers) == 0:
                out[name] = np.zeros(c)
                continue
            xy = model.projection.to_xy(lat, lon)
            dist = np.linalg.norm(xy[:, :, None, :] - centers, axis=3)
            out[name] = np.sum(dist.min(axis=2) <= alpha_d_m, axis=1) / n
        else:
            raise ValueError(f"unknown statistic {name}")
    return out


def trajectory_stats(traj, stats, model=None,
                     alpha_d_m=CoLocationConfig.alpha_d_m):
    """Evaluate the requested statistics on one trajectory: row 0 of its
    block of one."""
    block = block_stats(traj.start, traj.stop, traj.start_lat[None],
                        traj.start_lon[None], stats, model, alpha_d_m)
    return {name: float(v[0]) for name, v in block.items()}


def _dummy_sampler(model, template, grid, influence=None):
    """Draw function of dummies over the template's time skeleton: the
    per-slot weights and Cholesky factors are prepared once. A draw of
    `count` candidates returns their snapped (count, n) lat and lon, the
    same floats as `count` successive one-candidate draws."""
    if len(template) == 0:
        raise ValueError("template trajectory is empty")
    sampler = LocationSampler(model, influence)
    slots = time_slot(template.start, grid)

    def draw(rng, count):
        lat, lon = model.projection.to_latlon(sampler.draws(slots, rng,
                                                             count))
        return snap_to_grid(lat, lon, grid)
    return draw


def _dummy(template, lat, lon):
    """The dummy at one candidate's coordinates over the template's times."""
    return Trajectory.from_columns(template.user_id, template.start,
                                   template.stop, lat, lon, lat, lon)


def generate_dummy(model, template, grid, rng, influence=None):
    """Synthesize one dummy trajectory over the template's time skeleton."""
    lat, lon = _dummy_sampler(model, template, grid, influence)(rng, 1)
    return _dummy(template, lat[0], lon[0])


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
    """Rejection-sample k-1 accepted dummies and shuffle the set.

    Each round draws as many candidates as are still needed (within the
    attempt budget) and scores them in one pass, so the candidates, and
    the generator's state, are those of one draw per attempt."""
    rng = np.random.default_rng(seed)
    real_stats = trajectory_stats(real, policy.stats, model)
    draw = _dummy_sampler(model, real, grid, influence)
    need = policy.k - 1
    dummies, deviations = [], []
    attempts = 0
    while len(dummies) < need and attempts < policy.max_attempts:
        count = min(need - len(dummies), policy.max_attempts - attempts)
        attempts += count
        lat, lon = draw(rng, count)
        dev = _deviations(real_stats, block_stats(
            real.start, real.stop, lat, lon, policy.stats, model))
        passed = np.logical_and.reduce([v <= policy.l for v in dev.values()])
        for i in np.flatnonzero(passed).tolist():
            dummies.append(_dummy(real, lat[i], lon[i]))
            deviations.append({name: float(v[i]) for name, v in dev.items()})
    if len(dummies) < need:
        raise InsufficientCandidatesError(
            need, [(real.user_id, len(dummies), attempts)])
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
