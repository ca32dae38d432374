"""Privacy-preserving trajectory publishing.

Stay-embedding matrices M(x,y,k)=(t,d), a dense per-day stay-row codec,
a visit-purpose semantic mixture, a toy adversarial generator over the
day rows, and multi-dimensional similarity reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (StayRecord, Trajectory, abs_slot, cell_center, cells_of,
                   stacked, time_slot, weekday)
from .colocation import coevent_score, extract_coevents
from .features import cell_visit_entropy
from .fusion import (DenseNet, Gradients, backward, batch_grads,
                     cross_entropy, sgd_step)
from .mobility import em_mixtures, mixture_log_joint


class CellOverflowError(ValueError):
    def __init__(self, cell, count):
        super().__init__(f"cell {cell} holds {count} stays, exceeding K")
        self.cell = cell
        self.count = count


@dataclass
class StayEmbedding:
    """Sparse stay-embedding tensor: (x, y, k) -> (start slot, duration slots).

    k counts repeated stays in a cell in visit order; slots are absolute
    (epoch-based) so the embedding decodes back to concrete times.
    """

    grid: object
    K: int
    entries: dict = field(default_factory=dict)


def embed_trajectory(traj, grid, K=2):
    """Build the stay-embedding matrix of one trajectory; stays outside the
    grid are skipped."""
    counts = {}
    entries = {}
    for cell, start, duration in zip(
            cells_of(traj.start_lat, traj.start_lon, grid),
            traj.start.tolist(), (traj.stop - traj.start).tolist()):
        if cell is None:
            continue
        k = counts.get(cell, 0)
        if k >= K:
            raise CellOverflowError(cell, k + 1)
        counts[cell] = k + 1
        t = abs_slot(start, grid)
        d = max(1, math.ceil(duration / (grid.time_slot_minutes * 60)))
        entries[(*cell, k)] = (t, d)
    return StayEmbedding(grid, K, entries)


def decode_embedding(emb, user_id="decoded"):
    """Quantized trajectory back from an embedding (cell centers, slot
    boundaries)."""
    by_cell = {}
    for (x, y, k), (t, d) in emb.entries.items():
        by_cell.setdefault((x, y), []).append((k, t, d))
    stays = []
    slot_s = emb.grid.time_slot_minutes * 60
    for (x, y), items in by_cell.items():
        items.sort()
        ks = [k for k, _, _ in items]
        if ks != list(range(len(ks))):
            raise ValueError(f"non-contiguous k indices at cell ({x},{y}): {ks}")
        for prev, cur in zip(items, items[1:]):
            if cur[1] <= prev[1]:
                raise ValueError("k indices not time-ordered")
        lat, lon = cell_center((x, y), emb.grid)
        for _, t, d in items:
            stays.append(StayRecord(user_id, t * slot_s, (t + d) * slot_s,
                                    lat, lon, lat, lon))
    return Trajectory(user_id, stays)


# --- dense per-day stay rows -----------------------------------------------

def top_cells(traj, grid, top_n):
    """A user's top_n most visited grid cells, most visited first, ties in
    cell order; stays outside the grid are not counted."""
    freq = {}
    for c in cells_of(traj.start_lat, traj.start_lon, grid):
        if c is not None:
            freq[c] = freq.get(c, 0) + 1
    return sorted(freq, key=lambda c: (-freq[c], c))[:top_n]


def stay_rows(traj, cells, grid, top_n):
    """A trajectory's dense stay rows per UTC day (epoch seconds // 86400)
    that holds a stay's start, in day order: an (m, 3 + top_n) array, one
    row per stay of that day whose cell is among `cells`, in start order:
    [presence 1, start slot within its UTC day, duration in slots (at
    least 1), one-hot of the cell's index in `cells` over top_n columns]."""
    index = {c: i for i, c in enumerate(cells)}
    col = np.array([index.get(c, -1) for c in
                    cells_of(traj.start_lat, traj.start_lon, grid)], dtype=int)
    keep = np.flatnonzero(col >= 0)
    rows = np.zeros((len(keep), 3 + top_n))
    rows[:, 0] = 1.0
    rows[:, 1] = time_slot(traj.start[keep], grid)
    rows[:, 2] = np.ceil((traj.stop - traj.start)[keep]
                         / (grid.time_slot_minutes * 60))
    rows[np.arange(len(keep)), 3 + col[keep]] = 1.0
    day = traj.start // 86400           # sorted, as the stays are
    days = day[np.diff(day, prepend=day[:1] - 1) != 0]
    cuts = np.searchsorted(day[keep], days[1:])
    return dict(zip(days.tolist(), np.split(rows, cuts)))


def _drop_overlaps(stays):
    """The stays in (start, stop) order, without each one that overlaps an
    earlier kept stay."""
    kept, last_stop = [], None
    for s in sorted(stays, key=lambda x: (x.start_time, x.stop_time)):
        if last_stop is None or s.start_time >= last_stop:
            kept.append(s)
            last_stop = s.stop_time
    return kept


def decode_days(day_rows, days, cells, grid, user_id):
    """One trajectory from per-day stay rows, the inverse of stay_rows.
    day_rows[i] holds the (rows, 3 + top_n) rows of UTC day days[i] (epoch
    seconds // 86400). A row with presence >= 0.5 is a stay at the center
    of its arg-max cell among `cells`, its start slot and duration rounded
    to whole slots (a duration of at least one slot); one greedy pass then
    drops each stay that overlaps an earlier kept one."""
    slot_s = grid.time_slot_minutes * 60
    centers = [cell_center(c, grid) for c in cells]
    stays = []
    for day, rows in zip(days, day_rows):
        for row in rows:
            if row[0] < 0.5 or not cells:
                continue
            lat, lon = centers[int(np.argmax(row[3:3 + len(cells)]))]
            t = day * 86400 + int(round(row[1])) * slot_s
            d = max(1, int(round(row[2])))
            stays.append(StayRecord(user_id, t, t + d * slot_s,
                                    lat, lon, lat, lon))
    return Trajectory(user_id, _drop_overlaps(stays))


def semantic_feature(start_time, duration_s, entropy):
    """(duration hours, start hour-of-day, weekend flag, cell popularity
    entropy) of a presence interval in UTC; of arrays, one row each."""
    hour = start_time % 86400 // 3600 + start_time % 3600 // 60 / 60.0
    return np.stack([duration_s / 3600.0, hour,
                     np.where(weekday(start_time) >= 5, 1.0, 0.0), entropy],
                    axis=-1)


def stay_features(trajectories, grid, cell_entropy):
    """The cell of every stay of the trajectories in turn (None outside the
    grid), and the (n, 4) matrix of their semantic features v(s), with 0
    entropy outside the grid."""
    start, stop, lat, lon = stacked(trajectories, "start", "stop",
                                    "start_lat", "start_lon")
    cells = cells_of(lat, lon, grid)
    ent = np.array([cell_entropy.get(c, 0.0) for c in cells])
    return cells, semantic_feature(start, stop - start, ent)


@dataclass
class SemanticModel:
    """Diagonal-covariance visit-purpose mixture over stay features."""

    weights: np.ndarray      # (L,)
    means: np.ndarray        # (L, D)
    variances: np.ndarray    # (L, D)
    ll_trace: list = field(default_factory=list)

    @property
    def n_purposes(self):
        return len(self.weights)


def fit_semantic(V, n_purposes=4, seed=0, restarts=5):
    """EM fit of the diagonal GMM over stay-feature vectors.

    Runs several seeded restarts, stacked in one EM run, and keeps the fit
    with the best final log-likelihood (the first on a tie), since a single
    random initialization can merge nearby clusters.
    """
    X = np.asarray(V, dtype=float)
    var = X.var(axis=0)
    fits = em_mixtures([(X, var)], [(0, n_purposes, seed + 7919 * r)
                                    for r in range(max(1, restarts))],
                       1e-6 + 1e-4 * var, max_iter=200, tol=1e-8)
    best = max(fits, key=lambda f: f.trace[-1])
    return SemanticModel(best.weights, best.means, best.covs, best.trace)


def purpose_posteriors(model, V):
    """(n, L) normalized responsibilities of stay-feature vectors."""
    log_p = mixture_log_joint(V, model.weights, model.means, model.variances)
    p = np.exp(log_p - log_p.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


# --- toy adversarial generator --------------------------------------------

class MinMaxScaler:
    """Per-dimension [0,1] scaling; inverse clamps to the observed range."""

    def fit(self, X):
        X = np.asarray(X, dtype=float)
        self.lo_ = X.min(axis=0)
        self.hi_ = X.max(axis=0)
        span = self.hi_ - self.lo_
        self.span_ = np.where(span == 0, 1.0, span)
        return self

    def transform(self, X):
        return (np.asarray(X, dtype=float) - self.lo_) / self.span_

    def inverse(self, Z):
        Z = np.clip(np.asarray(Z, dtype=float), 0.0, 1.0)
        return self.lo_ + Z * self.span_


def train_toy_gan(real_vecs, z_dim=8, hidden=32, steps=500, batch=32,
                  lr=0.05, seed=0):
    """Alternating minimax training of a dense generator/discriminator pair
    over min-max scaled vectors. Returns (generator, scaler, trace); the
    trace's "disc_loss" and "gen_loss" are each half-step's pre-update loss."""
    real = np.asarray(real_vecs, dtype=float)
    if real.shape[0] == 0:
        raise ValueError("real set must be nonempty")
    scaler = MinMaxScaler().fit(real)
    R = scaler.transform(real)
    D = R.shape[1]
    rng = np.random.default_rng(seed)
    disc = DenseNet.init((D, hidden, 1), "tanh", "sigmoid", seed=seed + 1)
    gen = DenseNet.init((z_dim, hidden, D), "tanh", "sigmoid", seed=seed + 2)
    # filled anew by each half-step; the generator step's disc_grads go unused
    disc_grads, gen_grads = Gradients(disc), Gradients(gen)
    n = min(batch, len(R))
    ones = np.ones((n, 1))
    Yd = np.vstack([ones, np.zeros_like(ones)])
    trace = {"disc_loss": [], "gen_loss": []}
    for step in range(steps):
        idx = rng.choice(len(R), size=n, replace=False)
        z = rng.standard_normal((n, z_dim))
        Xd = np.vstack([R[idx], gen.forward(z)])
        P, _ = batch_grads(disc, Xd, Yd, disc_grads)
        d_loss = cross_entropy(P, Yd)
        sgd_step(disc, disc_grads, lr)
        # generator step: push disc(fake) toward 1, backpropagating the
        # discriminator's loss through its input into the generator
        z = rng.standard_normal((n, z_dim))
        fake, Hg = gen.forward(z, return_hidden=True)
        P, dZ1 = batch_grads(disc, fake, ones, disc_grads)
        g_loss = cross_entropy(P, ones)
        # the generator's output is a sigmoid
        backward(gen, z, Hg, dZ1 @ disc.W1.T * fake * (1.0 - fake), gen_grads)
        sgd_step(gen, gen_grads, lr)
        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise RuntimeError(f"non-finite adversarial loss at step {step}")
        trace["disc_loss"].append(d_loss)
        trace["gen_loss"].append(g_loss)
    return gen, scaler, trace


def gan_sample(gen, scaler, n, seed=0):
    """Seeded generator samples in the real vectors' units."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, gen.sizes[0]))
    return scaler.inverse(gen.forward(z))


# --- similarity report -----------------------------------------------------

def _jsd_bits(p, q):
    """Jensen-Shannon divergence (base 2) of two dicts of counts."""
    keys = sorted(set(p) | set(q), key=str)
    a = np.array([p.get(k, 0) for k in keys], dtype=float)
    b = np.array([q.get(k, 0) for k in keys], dtype=float)
    if a.sum() == 0 or b.sum() == 0:
        raise ValueError("empty distribution")
    a /= a.sum()
    b /= b.sum()
    m = 0.5 * (a + b)

    def kl(x, y):
        mask = x > 0
        return float(np.sum(x[mask] * np.log2(x[mask] / y[mask])))

    return 0.5 * kl(a, m) + 0.5 * kl(b, m)


def _edge_set(trajectories, grid, cfg):
    events = extract_coevents(trajectories, cfg, grid)
    return {pair for pair, evs in events.items() if coevent_score(evs) >= 1.0}


def similarity_report(real_trajs, synth_trajs, grid, semantic_model, cfg):
    """Spatial/temporal/semantic JSD plus social Jaccard between two
    trajectory sets, a pair being an edge once its co-events score at
    least 1. All four values lie in [0, 1]."""
    def dists(trajs):
        cells, slots, purposes = {}, {}, {}
        stay_cells, V = stay_features(trajs.values(), grid,
                                      cell_visit_entropy(trajs, grid))
        for c in stay_cells:
            if c is not None:
                cells[c] = cells.get(c, 0) + 1
        [start] = stacked(trajs.values(), "start")
        for slot in time_slot(start, grid).tolist():
            slots[slot] = slots.get(slot, 0) + 1
        post = purpose_posteriors(semantic_model, V)
        for lam in np.argmax(post, axis=1).tolist():
            purposes[lam] = purposes.get(lam, 0) + 1
        return cells, slots, purposes

    rc, rs, rp = dists(real_trajs)
    sc, ss, sp = dists(synth_trajs)
    er = _edge_set(real_trajs, grid, cfg)
    es = _edge_set(synth_trajs, grid, cfg)
    union = er | es
    jaccard = 1.0 if not union else len(er & es) / len(union)
    return {
        "spatial_jsd": _jsd_bits(rc, sc),
        "temporal_jsd": _jsd_bits(rs, ss),
        "semantic_jsd": _jsd_bits(rp, sp),
        "social_jaccard": jaccard,
    }
