"""Per-user space-time-social mobility model.

A Gaussian mixture over stay locations (fitted by EM on a local planar
projection), a time-slot -> cluster categorical profile, a social/non-social
labeling of clusters, the social/temporal influence measures, and seeded
next-location sampling.
"""

from __future__ import annotations

import json
import math
from collections import deque, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .core import LocalProjection, time_slot

VAR_FLOOR_M2 = 25.0

# One fit of em_mixtures: its parameters, trace and final log-likelihood
MixtureFit = namedtuple("MixtureFit", "means covs weights trace loglik")


def _check_2x2(covs):
    if covs.ndim != 3 or covs.shape[1:] != (2, 2):
        raise ValueError(f"full covariances must be (m, 2, 2), got "
                         f"{covs.shape}")


def _sym2(a, b, c):
    """(m, 2, 2) symmetric matrices [[a, b], [b, c]] from (m,) entries."""
    out = np.empty((len(a), 2, 2))
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = a, b, b, c
    return out


def _chol2(covs):
    """Closed-form Cholesky factors (l00, l10, l11), each (m,), of (m, 2, 2)
    covariances (lower triangle); ValueError unless all are positive
    definite."""
    _check_2x2(covs)
    a = covs[:, 0, 0]
    if not (a > 0).all():
        raise ValueError("covs must be positive definite")
    l00 = np.sqrt(a)
    l10 = covs[:, 1, 0] / l00
    v = covs[:, 1, 1] - l10 * l10
    if not (v > 0).all():
        raise ValueError("covs must be positive definite")
    return l00, l10, np.sqrt(v)


def _log_joint_entries(Xt, weights, means, covs, spread, work):
    """log w_c + log N(x | mu_c, Sigma_c) of (component c, point x) entries
    (see `mixture_log_joint`), in work[0], and the entries' differences
    x - mu_c, one dimension per row of work[1:d + 1]; work[d + 1:d + 3] is
    scratch. `Xt` holds the entries' points, one row per dimension, and
    `spread` lays a per-component array out over the entries. Returns
    work[0] and work[1:d + 1]."""
    d = len(Xt)
    if covs.ndim == 3 and d != 2:
        raise ValueError(f"full covariances need 2-D points, got d={d}")
    log_joint, diffs, (u, v) = work[0], work[1:d + 1], work[d + 1:d + 3]
    for x, mu, diff in zip(Xt, means.T, diffs):
        np.subtract(x, spread(mu), out=diff)
    if covs.ndim == 2:
        # u = the Mahalanobis distance, one dimension at a time, halved
        np.square(diffs[0], out=u)
        u /= spread(covs[:, 0])
        for diff, var in zip(diffs[1:], covs.T[1:]):
            np.square(diff, out=v)
            v /= spread(var)
            u += v
        u *= 0.5
        log_norm = 0.5 * np.sum(np.log(2 * np.pi * covs), axis=1)
        np.subtract(-spread(log_norm), u, out=u)
        np.add(spread(np.log(weights + 1e-300)), u, out=log_joint)
        return log_joint, diffs
    l00, l10, l11 = _chol2(covs)
    # z = L^-1 (x - mu) / sqrt(2), so that half the Mahalanobis distance
    # is z0^2 + z1^2: u = z0 = dx / l00 and v = z1 = (dy - l10 z0) / l11,
    # scaled
    h = math.sqrt(0.5)
    dx, dy = diffs
    np.multiply(dx, spread(h / l00), out=u)
    np.multiply(dy, spread(h / l11), out=v)
    np.multiply(dx, spread(h * l10 / (l00 * l11)), out=log_joint)
    v -= log_joint
    np.square(u, out=u)
    np.square(v, out=v)
    log_norm = np.log(2 * np.pi) + (np.log(l00) + np.log(l11))
    np.subtract(spread(np.log(weights + 1e-300) - log_norm), u,
                out=log_joint)
    log_joint -= v
    return log_joint, diffs


def mixture_log_joint(X, weights, means, covs):
    """(n, m) matrix of log w_m + log N(x_n | mu_m, Sigma_m).

    Arrays: `weights` (m,), `means` (m, d), and `covs` either full (m, 2, 2)
    planar covariances (d = 2 only) or (m, d) diagonal variances.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    work = np.empty((X.shape[1] + 3, len(weights), len(X)))
    log_joint, _ = _log_joint_entries(X.T, weights, means, covs,
                                      lambda a: a[:, None], work)
    return np.ascontiguousarray(log_joint.T)


def _floor_cov(covs, floor):
    """Floor a batch of covariances from below: per dimension for diagonal
    (m, d) variances, by eigenvalue for full (m, 2, 2) ones (keeps SPD).

    The full case uses the closed-form 2x2 eigen-decomposition of the
    symmetrized matrix S, with eigenvalues lo <= hi. Raising each to the
    floor adds d = max(eigenvalue, floor) - eigenvalue along its
    eigenvector: S + d_hi I + (d_lo - d_hi) P_lo, where
    P_lo = (hi I - S) / (hi - lo) projects onto lo's eigenvector. Equal
    eigenvalues (S = lo I) have d_lo = d_hi and need no P_lo. A matrix
    that needs no floor is returned unchanged."""
    if covs.ndim == 2:
        return np.maximum(covs, floor)
    _check_2x2(covs)
    a, c = covs[:, 0, 0], covs[:, 1, 1]
    b = 0.5 * (covs[:, 0, 1] + covs[:, 1, 0])
    r = np.hypot(0.5 * (a - c), b)      # half the eigenvalue gap
    lo = 0.5 * (a + c) - r
    if (lo >= floor).all():
        return _sym2(a, b, c)
    hi = lo + 2 * r
    d_lo = np.maximum(lo, floor) - lo
    d_hi = np.maximum(hi, floor) - hi
    t = (d_lo - d_hi) / np.where(r > 0, 2 * r, 1.0)     # 0 when r = 0
    return _sym2(a + d_hi + t * (hi - a), b - t * b, c + d_hi + t * (hi - c))


# em_mixtures lets the next set's starts join its stack while the
# (component, point) entries of the running starts stay within this many:
# the bound on the size of the kernel's arrays
EM_ENTRIES = 20_000

_Layout = namedtuple("_Layout",
                     "m n off blocks K p j comp_len comp_start work")


def _lay_out(m, n, points, buf):
    """The ragged layout of starts with m components (`m`, in descending
    order) on n points (`n`), given their (n, d) `points`, with its work
    rows in the buffer `buf`.

    The starts' points lie end to end, the one at position p at
    off[p]:off[p + 1]. Row j of every start with m > j forms block j of the
    entries; those starts come first, so block j holds the first points,
    and `blocks` lists each block's slice and its length. Component c is
    row j[c] of the start at position p[c]; its entries run comp_len[c]
    from comp_start[c], and row j of the start at p is component K[j] + p.
    `work` is the first columns of buf, one per entry; its first d rows
    hold the point of each entry, one dimension per row.
    """
    off = np.concatenate([[0], np.cumsum(n)])
    rows = (m > np.arange(m[0])[:, None]).sum(axis=1)   # starts with m > j
    L = off[rows]
    B = np.concatenate([[0], np.cumsum(L)])
    p = np.concatenate([np.arange(r) for r in rows])
    j = np.repeat(np.arange(len(rows)), rows)
    work = buf[:, :B[-1]]
    P = np.concatenate(points).T
    np.concatenate([P[:, :l] for l in L.tolist()], axis=1,
                   out=work[:len(P)])
    return _Layout(m, n, off,
                   [(slice(b, b + l), l) for b, l in zip(B.tolist(),
                                                          L.tolist())],
                   np.concatenate([[0], np.cumsum(rows)]), p, j, n[p],
                   B[j] + off[p], work)


def _moved(a, src, into):
    """`a`'s rows `src` put at the rows `into` (a mask) of a new array of
    into's length, zeros elsewhere."""
    out = np.zeros((len(into), *a.shape[1:]), dtype=a.dtype)
    out[into] = a[src]
    return out


def _point_sums(lay, log_joint, e):
    """Per point of the layout, the max `mx` of its start's log-joint
    entries and the sum `tot` of exp(entry - mx) over them, with `e`, the
    exp(entry - mx) of each entry, written into the row `e`. Each is one
    slice of each block."""
    (first, _), *rest = lay.blocks
    mx = log_joint[first].copy()
    for blk, n in rest:
        np.maximum(mx[:n], log_joint[blk], out=mx[:n])
    for blk, n in lay.blocks:
        np.subtract(log_joint[blk], mx[:n], out=e[blk])
    np.exp(e, out=e)
    tot = e[first].copy()
    for blk, n in rest:
        tot[:n] += e[blk]
    return mx, tot


def _m_step(lay, e, tot, diffs, means, full, floor, scratch):
    """The M-step's means, covariances and weights of every component of
    the layout, from the E-step's `e` and `tot` (see `_point_sums`) and its
    differences d = x - mean, with two `scratch` rows; `e` is left holding
    the responsibilities R = e / tot. The sums run over d: the new
    mean, sum(R x) / nk, is mean + delta with delta = (sum(R d) - 1e-12
    mean) / nk, and the new covariance is sum(R (d - delta)(d - delta)') /
    nk."""
    for blk, n in lay.blocks:
        e[blk] /= tot[:n]
    mass = np.add.reduceat(e, lay.comp_start)
    u, v = scratch
    # the second moments' dimensions (a, b), each a's in a row
    a, b = ([0, 0, 1], [0, 1, 1]) if full else ([*range(len(diffs))],) * 2
    S1, S2 = np.empty((len(diffs), len(mass))), np.empty((len(a), len(mass)))
    for r, (i, j) in enumerate(zip(a, b)):
        if r == 0 or i != a[r - 1]:
            np.multiply(e, diffs[i], out=u)
            S1[i] = np.add.reduceat(u, lay.comp_start)
        np.multiply(u, diffs[j], out=v)
        S2[r] = np.add.reduceat(v, lay.comp_start)
    nk = mass + 1e-12
    delta = (S1 - 1e-12 * means.T) / nk
    S2 = (S2 - delta[a] * S1[b] - delta[b] * S1[a]
          + delta[a] * delta[b] * mass) / nk
    return (means + delta.T, _floor_cov(_sym2(*S2) if full else S2.T, floor),
            nk / lay.comp_len)


def em_mixtures(sets, starts, floor, max_iter, tol):
    """EM fits of Gaussian mixtures of several point sets, in one work queue.

    `sets` lists (X, cov0) pairs: (n, d) points and the covariance every
    start on them begins with, (2, 2) for a full-covariance mixture or a
    (d,) variance vector for a diagonal one. `starts` lists (set, m, seed)
    triples. Each start seeds its m means with points of its set drawn by
    `default_rng(seed)`, with equal weights and the floored cov0. The trace
    is the per-point mean log-likelihood at the parameters entering each
    iteration; the floored covariance update is the constrained maximizer,
    so it never decreases. A start stops after `max_iter` M-steps or once
    its trace moves by less than `tol`; it is returned at its current
    parameters, with their total log-likelihood. Returns one MixtureFit
    per start, in order; a single fit is the one-start case.

    The running starts share each E- and M-step in one stack. Sets join
    it in order, all of a set's starts at once, while the (component,
    point) entries of the running starts stay within EM_ENTRIES; the first
    set always joins. A stopped start leaves when the stack is next laid
    out. Each component's entries hold its own set's points and nothing
    else, and every sum over points or over a start's components runs over
    that start's entries only, so a start gets the same floats in any stack
    as alone.
    """
    sets = [(np.asarray(X, dtype=float), np.asarray(cov0, dtype=float))
            for X, cov0 in sets]
    ns = np.array([len(X) for X, _ in sets])
    set_of = np.array([i for i, _, _ in starts], dtype=int)
    sizes = np.array([m for _, m, _ in starts], dtype=int)
    bad = (sizes < 1) | (sizes > ns[set_of])
    if len(sizes) == 0 or bad.any():
        raise ValueError(f"need starts with 1 <= m <= n, got "
                         f"m={sizes[bad].tolist()}, "
                         f"n={ns[set_of[bad]].tolist()}")
    cov0s = [_floor_cov(cov0[None], floor)[0] for _, cov0 in sets]
    d = sets[set_of[0]][0].shape[1]
    queue = {}              # set -> its starts, in order
    for s, i in enumerate(set_of.tolist()):
        queue.setdefault(i, []).append(s)
    pending = deque(sorted(queue))
    cost = {i: int(sizes[q].sum()) * int(ns[i]) for i, q in queue.items()}
    fits = [None] * len(starts)
    # The stack: per start in layout order, its id, whether it still runs,
    # its trace length and trace; per component, its parameters.
    lay, ids, running = None, np.empty(0, dtype=int), np.empty(0, bool)
    age, trace = np.empty(0, dtype=int), np.empty((0, max_iter))
    means, weights = np.empty((0, d)), np.empty(0)
    covs = np.empty((0, *cov0s[set_of[0]].shape))
    # the work rows over the entries, their points and then the E-step's,
    # as wide as the widest stack: a set joins an empty stack whatever its
    # size, and no other set joins past EM_ENTRIES
    buf = np.empty((2 * d + 3, min(sum(cost.values()),
                                   max(EM_ENTRIES, *cost.values()))))
    while True:
        live = int((lay.m * lay.n)[running].sum()) if lay else 0
        joining = []
        while pending and (live == 0
                           or live + cost[pending[0]] <= EM_ENTRIES):
            i = pending.popleft()
            joining += queue[i]
            live += cost[i]
        # lay the stack out again when sets join, or to drop the stopped
        # starts once they hold half its entries
        if joining or 2 * live <= lay.work.shape[1]:
            keep = np.flatnonzero(running)
            new = np.concatenate([ids[keep], joining]).astype(int)
            src = np.concatenate([keep, np.full(len(joining), -1)])
            order = np.argsort(-sizes[new], kind="stable")
            new, src = new[order], src[order]
            old = lay
            lay = _lay_out(sizes[new], ns[set_of[new]],
                           [sets[set_of[s]][0] for s in new], buf)
            kept = src >= 0
            age = _moved(age, src[kept], kept)
            trace = _moved(trace, src[kept], kept)
            into = kept[lay.p]
            comps = old.K[lay.j[into]] + src[lay.p[into]] if old else []
            means, covs, weights = (_moved(a, comps, into)
                                    for a in (means, covs, weights))
            drawn = {}      # seed -> its generator and first state
            for q in np.flatnonzero(~kept).tolist():
                i, k, seed = starts[new[q]]
                if seed in drawn:   # a set's starts often share a seed
                    rng, state = drawn[seed]
                    rng.bit_generator.state = state
                else:
                    rng = np.random.default_rng(seed)
                    drawn[seed] = rng, rng.bit_generator.state
                comps = lay.K[:k] + q
                means[comps] = sets[i][0][rng.choice(ns[i], size=k,
                                                     replace=False)]
                covs[comps] = cov0s[i]
                weights[comps] = 1.0 / k
            ids, running = new, np.ones(len(new), dtype=bool)
        log_joint, diffs = _log_joint_entries(
            lay.work[:d], weights, means, covs,
            lambda a: a.repeat(lay.comp_len), lay.work[d:])
        e, spare = lay.work[-2:]     # the E-step's scratch rows
        mx, tot = _point_sums(lay, log_joint, e)
        loglik = np.add.reduceat(mx + np.log(tot), lay.off[:-1])
        mean_ll = loglik / lay.n
        run = np.flatnonzero(running)
        spent = age[run] == max_iter
        more = run[~spent]
        it = age[more]
        trace[more, it] = mean_ll[more]
        age[more] = it + 1
        moved = (it == 0) | (np.abs(mean_ll[more]
                                    - trace[more, np.maximum(it - 1, 0)])
                             >= tol)
        stop = np.concatenate([run[spent], more[~moved]])
        running[stop] = False
        for q, s in zip(stop.tolist(), ids[stop].tolist()):
            c = lay.K[:sizes[s]] + q
            fits[s] = MixtureFit(means[c], covs[c], weights[c],
                                 trace[q, :age[q]].tolist(), float(loglik[q]))
        # a stopped start steps on in the stack, unread, until it is dropped
        if running.any():
            means, covs, weights = _m_step(lay, e, tot, diffs, means,
                                           covs.ndim == 3, floor,
                                           (spare, log_joint))
        elif not pending:
            return fits


def fit_spatial(point_sets, m, seeds, m_range=range(1, 7), max_iter=200,
                tol=1e-6):
    """Full-covariance 2D mixture of each point set, the i-th set's starts
    from `seeds[i]`, all fitted in one EM work queue (`em_mixtures`). With
    m="auto", the fit of a set is the one of lowest BIC, the first m on a
    tie, over the m in m_range that do not exceed its points. Returns the
    chosen fit of each set.
    """
    sets, starts = [], []
    for i, (points, seed) in enumerate(zip(point_sets, seeds)):
        X = np.asarray(points, dtype=float)
        n = len(X)
        ms = list(m_range) if m == "auto" else [m]
        if not any(k <= n for k in ms):
            raise ValueError(f"point set {i} has {n} points, fewer than "
                             f"any m of {ms}")
        sets.append((X, np.cov(X.T) if n > 1 else np.eye(2)))
        starts += [(i, k, seed) for k in ms if k <= n]
    fits = [[] for _ in sets]
    for (i, _, _), fit in zip(starts, em_mixtures(sets, starts, VAR_FLOOR_M2,
                                                  max_iter, tol)):
        fits[i].append(fit)
    # BIC; 6 parameters per component (2 mean, 3 cov, 1 weight) less one
    return [min(own, key=lambda f: (6 * len(f.weights) - 1) * np.log(len(X))
                - 2.0 * f.loglik) for (X, _), own in zip(sets, fits)]


def fit_gmm(points, m, seed=0):
    """Full-covariance 2D GMM by EM; m="auto" selects the component count
    of lowest BIC in 1..6.

    Returns (means, covs, weights, log-likelihood trace). The trace is the
    per-point mean log-likelihood evaluated at the parameters entering each
    iteration, so it is non-decreasing by the EM guarantee (the variance
    floor binds only on degenerate clusters).
    """
    return fit_spatial([points], m, [seed])[0][:4]


@dataclass(frozen=True)
class InfluenceParams:
    """Weights of the combined social/temporal influence measure."""

    pi1: float = 1.0
    pi2: float = 1.0
    omega_s: float = 0.5
    omega_t: float = 0.5
    epsilon_d: float = 1.0

    def __post_init__(self):
        if self.pi1 <= 0 or self.pi2 <= 0 or self.epsilon_d <= 0:
            raise ValueError("pi1, pi2, epsilon_d must be positive")
        if self.omega_s < 0 or self.omega_t < 0:
            raise ValueError("omegas must be nonnegative")
        if abs(self.omega_s + self.omega_t - 1.0) > 1e-9:
            raise ValueError("omega_s + omega_t must equal 1")


@dataclass
class MobilityModel3D:
    """Fitted 3D (space-time-social) mobility model of one user."""

    user_id: str
    projection: LocalProjection
    means: np.ndarray          # (m, 2) planar meters
    covs: np.ndarray           # (m, 2, 2)
    weights: np.ndarray        # (m,)
    temporal_profile: np.ndarray  # (n_slots, m), rows sum to 1
    social_flags: np.ndarray = None   # (m,) bool
    visit_counts: np.ndarray = None   # (m,) int
    ll_trace: list = field(default_factory=list)

    def __post_init__(self):
        m = np.size(self.weights)
        if self.social_flags is None:
            self.social_flags = np.zeros(m, dtype=bool)
        if self.visit_counts is None:
            self.visit_counts = np.zeros(m, dtype=int)
        slots = np.shape(self.temporal_profile)[:1]
        for name, shape in dict(weights=(m,), means=(m, 2), covs=(m, 2, 2),
                                social_flags=(m,), visit_counts=(m,),
                                temporal_profile=(*slots, m)).items():
            a = getattr(self, name)
            if np.shape(a) != shape or not np.isfinite(a).all():
                raise ValueError(f"{name} must be finite, of shape {shape}")
        for name in ("weights", "temporal_profile", "visit_counts"):
            if (getattr(self, name) < 0).any():
                raise ValueError(f"{name} must be non-negative")
        _chol2(self.covs)
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        rows = self.temporal_profile.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("temporal profile rows must sum to 1")

    @property
    def n_components(self):
        return len(self.weights)

    def to_json(self):
        return json.dumps({
            "user_id": self.user_id,
            "ref_lat": self.projection.ref_lat,
            "ref_lon": self.projection.ref_lon,
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
            "weights": self.weights.tolist(),
            "temporal_profile": self.temporal_profile.tolist(),
            "social_flags": self.social_flags.astype(int).tolist(),
            "visit_counts": self.visit_counts.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """The model of a `to_json` text; a ValueError names the field that
        is missing or holds anything but numbers."""
        d = json.loads(text)
        try:
            return cls(
                user_id=d["user_id"],
                projection=LocalProjection(d["ref_lat"], d["ref_lon"]),
                means=_numbers(d, "means"),
                covs=_numbers(d, "covs"),
                weights=_numbers(d, "weights"),
                temporal_profile=_numbers(d, "temporal_profile"),
                social_flags=_numbers(d, "social_flags").astype(bool),
                visit_counts=_numbers(d, "visit_counts").astype(int),
            )
        except KeyError as e:
            raise ValueError(f"model file has no {e.args[0]}") from None


def _numbers(d, key):
    """The array d[key] of a model file; ValueError unless it holds numbers
    only, nested as an array."""
    try:
        a = np.array(d[key])
    except ValueError:          # rows of unequal lengths
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ValueError(f"{key} must hold numbers only")
    return a


def project_stays(traj):
    """The user's local projection, centred on the mean stay position, and
    the (n, 2) planar points of the stays."""
    proj = LocalProjection(float(traj.start_lat.mean()),
                           float(traj.start_lon.mean()))
    return proj, proj.to_xy(traj.start_lat, traj.start_lon)


# a cluster is social once this fraction of its stays co-occur with
# another user's stay
SOCIAL_THRESHOLD = 0.25


def fit_mobility_model(traj, grid, projection, fit, participation):
    """Mobility model of one user's stays from their spatial mixture `fit`
    (a MixtureFit of the stays' points in `projection`), with the temporal
    profile, visit counts and social flags of the hard assignment, each
    stay to its component of largest `mixture_log_joint`. `participation`
    flags, per stay, whether it co-occurs with another user's stay.
    Returns the model and the assignment.
    """
    means, covs, weights, trace, _ = fit
    mm = len(weights)
    xy = projection.to_xy(traj.start_lat, traj.start_lon)
    assign = mixture_log_joint(xy, weights, means, covs).argmax(axis=1)
    slots = time_slot(traj.start, grid)
    profile = np.zeros((grid.slots_per_day, mm))
    np.add.at(profile, (slots, assign), 1)
    counts = np.bincount(assign, minlength=mm)
    hits = np.bincount(assign, weights=np.asarray(participation, dtype=float),
                       minlength=mm)
    social = np.where(counts > 0, hits / np.maximum(counts, 1), 0.0)
    empty = profile.sum(axis=1) == 0
    profile[empty] = weights            # fall back to the global mixture
    profile /= profile.sum(axis=1, keepdims=True)
    return MobilityModel3D(traj.user_id, projection, means, covs, weights,
                           profile, social_flags=social >= SOCIAL_THRESHOLD,
                           visit_counts=counts, ll_trace=trace), assign


def social_influence(friend_model, point_xy, slot, params):
    """Pull of a friend's dominant place on a candidate location.

    Decays with the candidate's distance to the friend's top cluster center,
    scaled by how far that center sits from the friend's expected center at
    this time slot. `point_xy` is one (2,) point, giving a float, or
    (..., 2) points, giving an array of that leading shape.
    """
    c1 = friend_model.means[int(np.argmax(friend_model.weights))]
    c_slot = friend_model.temporal_profile[slot] @ friend_model.means
    d = np.asarray(point_xy, dtype=float) - c1
    # |d| per point; the stacked 1x2 @ 2x1 product is the dot product that
    # np.linalg.norm takes of one point
    num = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    den = max(float(np.linalg.norm(c1 - c_slot)), params.epsilon_d)
    # math.exp per value: np.exp differs from it in the last bit
    si = [params.pi1 * math.exp(x) for x in np.ravel(-params.pi2 * num / den)]
    return si[0] if num.ndim == 0 else np.reshape(si, num.shape)


def temporal_influence(friend_model, slot):
    """Friend's probability mass on social clusters at the slot."""
    return float(friend_model.temporal_profile[slot][friend_model.social_flags].sum())


def combined_influence(si, ti, params):
    return params.omega_s * si + params.omega_t * ti


class LocationSampler:
    """Slot-conditioned location draws from one mobility model.

    Per slot, the cluster comes from the temporal profile with social
    clusters reweighted by 1 + influence, then the point from that
    cluster's Gaussian. A draw over n slots takes two blocks from the
    generator: n uniforms, then n pairs of normals. Each uniform is
    searched in its slot's normalized cumulative weights, as
    `rng.choice(m, p=w)` searches its one uniform, and the point is
    `cholesky(cov) @ z` for the stay's pair of normals z.
    """

    def __init__(self, model, influence=None):
        w = model.temporal_profile.copy()
        for j, inf in (influence or {}).items():
            if model.social_flags[j]:
                w[:, j] *= 1.0 + inf
        w /= w.sum(axis=1, keepdims=True)
        self.cdf = np.cumsum(w, axis=1)
        self.cdf /= self.cdf[:, -1:]
        self.means = model.means
        self.chol = np.linalg.cholesky(model.covs)

    def draw(self, slots, rng):
        """(n, 2) planar points, one per slot, in order."""
        return self.draws(slots, rng, 1)[0]

    def draws(self, slots, rng, count):
        """(count, n, 2) planar points: `count` successive draws over the
        slots, each its uniform block, then its normal block."""
        n = len(slots)
        u = np.empty((count, n))
        z = np.empty((count, n, 2))
        for c in range(count):
            u[c] = rng.random(n)
            z[c] = rng.standard_normal((n, 2))
        # searchsorted(cdf[slot], u, side="right") of each draw
        j = np.sum(self.cdf[slots] <= u[:, :, None], axis=2)
        return self.means[j] + (self.chol[j] @ z[..., None])[..., 0]


def sample_location(model, slot, rng, influence=None):
    """Draw a planar point for a slot (see `LocationSampler`)."""
    return LocationSampler(model, influence).draw([slot], rng)[0]
