"""Privacy-preserving trajectory publishing.

Stay-embedding matrices M(x,y,k)=(t,d), a visit-purpose semantic mixture,
a toy adversarial generator over flattened embeddings, and
multi-dimensional similarity reporting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Cell, StayRecord, Trajectory, abs_slot, cell_center,
                   cell_of, time_slot, weekday)
from .colocation import coevent_score, extract_coevents
from .features import cell_visit_entropy
from .fusion import DenseNet, _hidden_deriv, backprop_grads, loss_value
from .mobility import em_mixture, mixture_log_joint


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

    def to_json(self):
        g = self.grid
        return json.dumps({
            "grid": {"origin_lat": g.origin_lat, "origin_lon": g.origin_lon,
                     "cell_size_m": g.cell_size_m, "n_x": g.n_x, "n_y": g.n_y,
                     "time_slot_minutes": g.time_slot_minutes},
            "K": self.K,
            "entries": [[x, y, k, t, d]
                        for (x, y, k), (t, d) in sorted(self.entries.items())],
        }, sort_keys=True)


def embed_trajectory(traj, grid, K=2):
    """Build the stay-embedding matrix of one trajectory; stays outside the
    grid are skipped."""
    counts = {}
    entries = {}
    for s in traj:
        cell = cell_of(s.lat, s.lon, grid)
        if cell is None:
            continue
        key = (cell.x, cell.y)
        k = counts.get(key, 0)
        if k >= K:
            raise CellOverflowError(cell, k + 1)
        counts[key] = k + 1
        t = abs_slot(s.start_time, grid)
        d = max(1, math.ceil(s.duration_s / (grid.time_slot_minutes * 60)))
        entries[(cell.x, cell.y, k)] = (t, d)
    return StayEmbedding(grid, K, entries)


def decode_embedding(emb, user_id="decoded"):
    """Quantized trajectory back from an embedding (cell centers, slot
    boundaries)."""
    return Trajectory(user_id, _decoded_stays(emb, user_id))


def _decoded_stays(emb, user_id):
    """The stays of an embedding in start order, before the trajectory's
    no-overlap check."""
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
        lat, lon = cell_center(Cell(x, y), emb.grid)
        for _, t, d in items:
            stays.append(StayRecord(user_id, t * slot_s, (t + d) * slot_s,
                                    lat, lon, lat, lon))
    stays.sort(key=lambda s: s.start_time)
    return stays


def semantic_feature(start_time, duration_s, entropy):
    """(duration hours, start hour-of-day, weekend flag, cell popularity
    entropy) of a presence interval, in UTC."""
    hour = start_time % 86400 // 3600 + start_time % 3600 // 60 / 60.0
    return [duration_s / 3600.0, hour,
            1.0 if weekday(start_time) >= 5 else 0.0, entropy]


def stay_feature(stay, grid, cell_entropy):
    """v(s): the semantic feature of a stay; 0 entropy outside the grid."""
    ent = cell_entropy.get(cell_of(stay.lat, stay.lon, grid), 0.0)
    return np.array(semantic_feature(stay.start_time, stay.duration_s, ent))


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

    def to_json(self):
        return json.dumps({
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "variances": self.variances.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(np.array(d["weights"]), np.array(d["means"]),
                   np.array(d["variances"]))


def fit_semantic(V, n_purposes=4, seed=0, max_iter=200, tol=1e-8,
                 restarts=5):
    """EM fit of the diagonal GMM over stay-feature vectors.

    Runs several seeded restarts and keeps the fit with the best final
    log-likelihood, since a single random initialization can merge
    nearby clusters.
    """
    X = np.asarray(V, dtype=float)
    best = None
    for r in range(max(1, restarts)):
        model = _fit_semantic_once(X, n_purposes, seed + 7919 * r,
                                   max_iter, tol)
        if best is None or model.ll_trace[-1] > best.ll_trace[-1]:
            best = model
    return best


def _fit_semantic_once(X, n_purposes, seed, max_iter, tol):
    var = X.var(axis=0)
    fit = em_mixture(X, n_purposes, seed, var, 1e-6 + 1e-4 * var, max_iter,
                     tol)
    return SemanticModel(fit.weights, fit.means, fit.covs, fit.trace)


def purpose_posteriors(model, V):
    """(n, L) normalized responsibilities of stay-feature vectors."""
    log_p = mixture_log_joint(V, model.weights, model.means, model.variances)
    p = np.exp(log_p - log_p.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def purpose_posterior(model, v):
    """Normalized responsibilities of a stay-feature vector (log-space)."""
    return purpose_posteriors(model, np.reshape(v, (1, -1)))[0]


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


def flatten_embeddings(embeddings, top_n=16):
    """Fixed-length vectors from sparse embeddings: the top_n most frequently
    occupied cells, K slots of (t, d) each; absent entries are zero."""
    freq = {}
    for emb in embeddings:
        for (x, y, _k) in emb.entries:
            freq[(x, y)] = freq.get((x, y), 0) + 1
    cells = sorted(freq, key=lambda c: (-freq[c], c))[:top_n]
    K = embeddings[0].K
    D = len(cells) * K * 2
    vecs = np.zeros((len(embeddings), D))
    for r, emb in enumerate(embeddings):
        for c, (x, y) in enumerate(cells):
            for k in range(K):
                td = emb.entries.get((x, y, k))
                if td is not None:
                    vecs[r, (c * K + k) * 2] = td[0]
                    vecs[r, (c * K + k) * 2 + 1] = td[1]
    return vecs, cells


def _disc_input_grad(disc, X, target):
    """d(mean BCE(disc(X), target)) / dX."""
    n = X.shape[0]
    P, H = disc.forward(X, return_hidden=True)
    dZ2 = (P - target) / n
    dH = dZ2 @ disc.W2.T
    dZ1 = dH * _hidden_deriv(H, disc.hidden_act)
    return dZ1 @ disc.W1.T


def train_toy_gan(real_vecs, z_dim=8, hidden=32, steps=500, batch=32,
                  lr=0.05, seed=0):
    """Alternating minimax training of a dense generator/discriminator pair
    over scaled embedding vectors. Returns (generator, scaler, trace)."""
    real = np.asarray(real_vecs, dtype=float)
    if real.shape[0] == 0:
        raise ValueError("real set must be nonempty")
    scaler = MinMaxScaler().fit(real)
    R = scaler.transform(real)
    D = R.shape[1]
    rng = np.random.default_rng(seed)
    disc = DenseNet.init((D, hidden, 1), "tanh", "sigmoid", seed=seed + 1)
    gen = DenseNet.init((z_dim, hidden, D), "tanh", "sigmoid", seed=seed + 2)
    trace = {"disc_loss": [], "gen_loss": []}
    for step in range(steps):
        idx = rng.choice(R.shape[0], size=min(batch, R.shape[0]),
                         replace=False)
        z = rng.standard_normal((len(idx), z_dim))
        fake = gen.forward(z)
        Xd = np.vstack([R[idx], fake])
        Yd = np.vstack([np.ones((len(idx), 1)), np.zeros((len(idx), 1))])
        gd = backprop_grads(disc, Xd, Yd, "gan_minimax")
        for p, g in gd.items():
            setattr(disc, p, getattr(disc, p) - lr * g)
        d_loss = loss_value(disc, Xd, Yd, "gan_minimax")
        # generator step: push disc(fake) toward 1
        z = rng.standard_normal((len(idx), z_dim))
        Zg = np.atleast_2d(z)
        fake, Hg = gen.forward(Zg, return_hidden=True)
        dfake = _disc_input_grad(disc, fake, np.ones((len(idx), 1)))
        dZ2g = dfake * fake * (1.0 - fake)     # sigmoid output of gen
        gen.W2 -= lr * (Hg.T @ dZ2g)
        gen.b2 -= lr * dZ2g.sum(axis=0)
        dH = dZ2g @ gen.W2.T
        dZ1 = dH * _hidden_deriv(Hg, gen.hidden_act)
        gen.W1 -= lr * (Zg.T @ dZ1)
        gen.b1 -= lr * dZ1.sum(axis=0)
        g_loss = loss_value(disc, gen.forward(Zg), np.ones((len(idx), 1)),
                            "gan_minimax")
        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise RuntimeError(f"non-finite adversarial loss at step {step}")
        trace["disc_loss"].append(d_loss)
        trace["gen_loss"].append(g_loss)
    return gen, scaler, trace


def gan_sample(gen, scaler, n, seed=0):
    """Seeded generator samples in original (t, d) units."""
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


def _edge_set(trajectories, grid, cfg, threshold=1.0):
    events = extract_coevents(trajectories, cfg, grid)
    return {pair for pair, evs in events.items()
            if coevent_score(evs) >= threshold}


def similarity_report(real_trajs, synth_trajs, grid, semantic_model, cfg,
                      edge_threshold=1.0):
    """Spatial/temporal/semantic JSD plus social Jaccard between two
    trajectory sets. All four values lie in [0, 1]."""
    def dists(trajs):
        cells, slots, purposes = {}, {}, {}
        ent = cell_visit_entropy(trajs, grid)
        for traj in trajs.values():
            for s in traj:
                c = cell_of(s.lat, s.lon, grid)
                if c is not None:
                    cells[(c.x, c.y)] = cells.get((c.x, c.y), 0) + 1
                slot, _ = time_slot(s.start_time, grid)
                slots[slot] = slots.get(slot, 0) + 1
                lam = int(np.argmax(purpose_posterior(
                    semantic_model, stay_feature(s, grid, ent))))
                purposes[lam] = purposes.get(lam, 0) + 1
        return cells, slots, purposes

    rc, rs, rp = dists(real_trajs)
    sc, ss, sp = dists(synth_trajs)
    er = _edge_set(real_trajs, grid, cfg, edge_threshold)
    es = _edge_set(synth_trajs, grid, cfg, edge_threshold)
    union = er | es
    jaccard = 1.0 if not union else len(er & es) / len(union)
    return {
        "spatial_jsd": _jsd_bits(rc, sc),
        "temporal_jsd": _jsd_bits(rs, ss),
        "semantic_jsd": _jsd_bits(rp, sp),
        "social_jaccard": jaccard,
    }
