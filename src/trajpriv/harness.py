"""Deterministic synthetic world with ground-truth social graph, plus the
end-to-end attack/defense experiment runners.

The world plants the signal each pair metric is meant to pick up: friends
meet at sparsely-visited venues (frequency, popularity, diversity), with a
weekend bias (holiday ratio), while shared workplaces provide heavy
non-friend co-occurrence as a confound.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, asdict

import numpy as np

from .core import (Cell, GridSpec, StayRecord, Trajectory, cell_center,
                   serialize_stays)
from .colocation import (CoLocationConfig, extract_coevents,
                         stay_participation)
from .features import (Standardizer, cell_visit_entropy, compute_features,
                       project, resolve_subset)
from .fusion import DenseNet, TrainConfig, evaluate, train
from .mobility import (InfluenceParams, combined_influence, fit_mobility_model,
                       label_social, social_influence, temporal_influence)
from .anonymize import AnonymityPolicy, k_anonymize
from .publish import (StayEmbedding, _decoded_stays, embed_trajectory,
                      fit_semantic, flatten_embeddings, gan_sample,
                      purpose_posteriors, semantic_feature, similarity_report,
                      stay_feature, train_toy_gan)

EPOCH_MONDAY = 1568592000  # 2019-09-16 00:00:00 UTC, a Monday


@dataclass(frozen=True)
class WorldConfig:
    n_users: int = 64
    n_days: int = 14
    graph_model: str = "ring-rewire"      # or "planted-partition"
    ws_neighbors: int = 4
    ws_rewire_p: float = 0.1
    pp_groups: int = 4
    pp_p_in: float = 0.3
    pp_p_out: float = 0.01
    n_workplaces: int = 8
    n_social_venues: int = 24
    venues_per_pair: int = 2
    p_meet_lo: float = 0.10
    p_meet_hi: float = 0.40
    weekend_multiplier: float = 1.6
    p_two_slot_meeting: float = 0.3
    p_solo_jump: float = 0.05
    noise_sigma_m: float = 30.0
    cell_size_m: float = 250.0
    time_slot_minutes: int = 60
    grid_n: int = 40
    origin_lat: float = 28.0
    origin_lon: float = 112.9
    seed: int = 42

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError("need at least two users")
        for p in (self.ws_rewire_p, self.p_meet_lo, self.p_meet_hi,
                  self.p_solo_jump, self.p_two_slot_meeting):
            if not (0.0 <= p <= 1.0):
                raise ValueError("probabilities must lie in [0, 1]")

    @property
    def grid(self):
        """The square grid of the world, grid_n cells of cell_size_m a side
        from the origin."""
        return GridSpec(self.origin_lat, self.origin_lon, self.cell_size_m,
                        self.grid_n, self.grid_n, self.time_slot_minutes)


@dataclass
class World:
    cfg: WorldConfig
    trajectories: dict               # user -> Trajectory
    friend_edges: set                # ordered (a, b) tuples

    @property
    def grid(self):
        return self.cfg.grid

    @property
    def users(self):
        return sorted(self.trajectories)

    def stays_csv(self):
        records = [s for u in self.users for s in self.trajectories[u]]
        return serialize_stays(records)

    def edges_csv(self):
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["user_a", "user_b"])
        for a, b in sorted(self.friend_edges):
            w.writerow([a, b])
        return out.getvalue()


def ring_rewire_graph(n, k, p, rng):
    """Watts-Strogatz ring lattice with seeded rewiring."""
    edges = set()
    for i in range(n):
        for off in range(1, k // 2 + 1):
            j = (i + off) % n
            edges.add(tuple(sorted((i, j))))
    out = set()
    for a, b in sorted(edges):
        if rng.random() < p:
            choices = [c for c in range(n) if c != a
                       and tuple(sorted((a, c))) not in out
                       and tuple(sorted((a, c))) not in edges]
            if choices:
                b = choices[rng.integers(len(choices))]
        out.add(tuple(sorted((a, b))))
    return out


def planted_partition_graph(n, groups, p_in, p_out, rng):
    member = [i % groups for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if member[i] == member[j] else p_out
            if rng.random() < p:
                edges.add((i, j))
    return edges


def _weekday_schedule(n_slots):
    # slot -> "home" | "work" | "free", for a 24-slot day scaled to n_slots
    sched = []
    for slot in range(n_slots):
        hour = slot * 24 // n_slots
        if hour <= 7 or hour >= 21:
            sched.append("home")
        elif 9 <= hour <= 17:
            sched.append("work")
        else:
            sched.append("free")
    return sched


def _weekend_schedule(n_slots):
    sched = []
    for slot in range(n_slots):
        hour = slot * 24 // n_slots
        if hour <= 8 or hour >= 21:
            sched.append("home")
        else:
            sched.append("free")
    return sched


def generate_world(cfg):
    """Simulate stays for every user over the configured horizon."""
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    users = [f"u{i:03d}" for i in range(cfg.n_users)]

    if cfg.graph_model == "ring-rewire":
        idx_edges = ring_rewire_graph(cfg.n_users, cfg.ws_neighbors,
                                      cfg.ws_rewire_p, rng)
    elif cfg.graph_model == "planted-partition":
        idx_edges = planted_partition_graph(cfg.n_users, cfg.pp_groups,
                                            cfg.pp_p_in, cfg.pp_p_out, rng)
    else:
        raise ValueError(f"unknown graph model {cfg.graph_model}")
    edges = {(users[a], users[b]) for a, b in idx_edges}

    # distinct anchor cells: workplaces, social venues, then homes
    n_anchor = cfg.n_workplaces + cfg.n_social_venues + cfg.n_users
    all_cells = [(x, y) for x in range(grid.n_x) for y in range(grid.n_y)]
    picked = rng.choice(len(all_cells), size=n_anchor, replace=False)
    anchor_cells = [all_cells[i] for i in picked]
    work_cells = anchor_cells[:cfg.n_workplaces]
    venue_cells = anchor_cells[cfg.n_workplaces:
                               cfg.n_workplaces + cfg.n_social_venues]
    home_cells = anchor_cells[cfg.n_workplaces + cfg.n_social_venues:]

    def center(cxy):
        return cell_center(Cell(*cxy), grid)

    home = {u: center(home_cells[i]) for i, u in enumerate(users)}
    work = {u: center(work_cells[i % cfg.n_workplaces])
            for i, u in enumerate(users)}

    pair_meet_p = {}
    pair_venues = {}
    for e in sorted(edges):
        pair_meet_p[e] = float(rng.uniform(cfg.p_meet_lo, cfg.p_meet_hi))
        vsel = rng.choice(cfg.n_social_venues, size=cfg.venues_per_pair,
                         replace=False)
        pair_venues[e] = [center(venue_cells[v]) for v in vsel]

    n_slots = grid.slots_per_day
    weekday_sched = _weekday_schedule(n_slots)
    weekend_sched = _weekend_schedule(n_slots)

    # anchors[user][day] is a per-slot location list
    anchors = {u: [] for u in users}
    for day in range(cfg.n_days):
        weekend = (day % 7) >= 5
        sched = weekend_sched if weekend else weekday_sched
        day_anchor = {}
        for u in users:
            day_anchor[u] = [home[u] if kind == "home"
                             else work[u] if kind == "work"
                             else None for kind in sched]
        # friend meetings at shared venues, in deterministic shuffled order
        order = rng.permutation(len(sorted(edges)))
        sorted_edges = sorted(edges)
        for t in order:
            a, b = sorted_edges[t]
            p = pair_meet_p[(a, b)]
            if weekend:
                p = min(0.95, p * cfg.weekend_multiplier)
            free = [s for s in range(n_slots)
                    if sched[s] == "free"
                    and day_anchor[a][s] is None and day_anchor[b][s] is None]
            for s in free:
                if day_anchor[a][s] is not None or day_anchor[b][s] is not None:
                    continue
                if rng.random() >= p:
                    continue
                venue = pair_venues[(a, b)][rng.integers(cfg.venues_per_pair)]
                length = 2 if (rng.random() < cfg.p_two_slot_meeting
                               and s + 1 in free
                               and day_anchor[a][s + 1] is None
                               and day_anchor[b][s + 1] is None) else 1
                for ds in range(length):
                    day_anchor[a][s + ds] = venue
                    day_anchor[b][s + ds] = venue
                break        # at most one meeting per pair per day
        # solo jumps, otherwise stay home
        for u in users:
            for s in range(n_slots):
                if day_anchor[u][s] is None:
                    if rng.random() < cfg.p_solo_jump:
                        day_anchor[u][s] = center(
                            venue_cells[rng.integers(cfg.n_social_venues)])
                    else:
                        day_anchor[u][s] = home[u]
        for u in users:
            anchors[u].append(day_anchor[u])

    # merge consecutive same-anchor slots into jittered stay records
    deg_lat = 1.0 / 111_194.9
    trajectories = {}
    slot_s = cfg.time_slot_minutes * 60
    for u in users:
        stays = []
        for day in range(cfg.n_days):
            day_start = EPOCH_MONDAY + day * 86400
            runs = []
            cur_anchor, cur_start = None, 0
            for s, a in enumerate(anchors[u][day]):
                if a != cur_anchor:
                    if cur_anchor is not None:
                        runs.append((cur_anchor, cur_start, s))
                    cur_anchor, cur_start = a, s
            runs.append((cur_anchor, cur_start, n_slots))
            for (alat, alon), s0, s1 in runs:
                jlat = alat + rng.normal(0, cfg.noise_sigma_m) * deg_lat
                jlon = alon + (rng.normal(0, cfg.noise_sigma_m) * deg_lat
                               / np.cos(np.radians(cfg.origin_lat)))
                stays.append(StayRecord(
                    u, day_start + s0 * slot_s, day_start + s1 * slot_s,
                    float(jlat), float(jlon), float(jlat), float(jlon)))
        trajectories[u] = Trajectory(u, stays)
    return World(cfg, trajectories, edges)


def sample_negative_pairs(users, edges, n, rng):
    """Seeded non-edge pairs; never emits a true friend edge."""
    users = sorted(users)
    out = set()
    guard = 0
    while len(out) < n:
        guard += 1
        if guard > 100 * n:
            raise RuntimeError("could not sample enough negative pairs")
        i, j = rng.choice(len(users), size=2, replace=False)
        pair = tuple(sorted((users[i], users[j])))
        if pair in edges or pair in out:
            continue
        out.add(pair)
    return sorted(out)


def _semantic_pair_vector(events, sem_model, cell_entropy):
    """Mean purpose posterior over a pair's co-event overlap intervals."""
    if not events:
        return np.zeros(sem_model.n_purposes)
    V = np.array([semantic_feature(e.overlap_start, e.overlap_s,
                                   cell_entropy.get(e.cell, 0.0))
                  for e in events])
    return purpose_posteriors(sem_model, V).mean(axis=0)


def fit_world_semantic(world, seed=0):
    """Four-purpose semantic mixture over the stay features of every user."""
    ent = cell_visit_entropy(world.trajectories, world.grid)
    V = np.array([stay_feature(s, world.grid, ent)
                  for u in world.users for s in world.trajectories[u]])
    return fit_semantic(V, n_purposes=4, seed=seed)


def build_pair_dataset(world, coloc_cfg=None, neg_seed=13, semantic=False,
                       semantic_seed=0):
    """Labeled pair features for the attack: friend edges vs sampled
    non-edges at 1:1."""
    cfg = coloc_cfg or CoLocationConfig()
    rng = np.random.default_rng(neg_seed)
    positives = sorted(world.friend_edges)
    negatives = sample_negative_pairs(world.users, world.friend_edges,
                                      len(positives), rng)
    pairs = positives + negatives
    labels = [True] * len(positives) + [False] * len(negatives)
    events = extract_coevents(world.trajectories, cfg, world.grid, pairs=pairs)
    ent = cell_visit_entropy(world.trajectories, world.grid)
    rows = [compute_features(events[tuple(sorted(p))], ent, pair=p, label=lab)
            for p, lab in zip(pairs, labels)]
    sem_vectors = None
    if semantic:
        sem_model = fit_world_semantic(world, seed=semantic_seed)
        sem_vectors = np.array([
            _semantic_pair_vector(events[tuple(sorted(p))], sem_model, ent)
            for p in pairs])
    return rows, sem_vectors


def run_attack(world, subsets=("all",), split=0.7, seed=7, semantic=False,
               coloc_cfg=None, epochs=400, hidden=16, lr=0.1,
               dataset=None):
    """Train/evaluate the fusion classifier per feature subset.

    Returns one report row (precision/recall/f1/auc) per subset. A
    precomputed dataset (from build_pair_dataset) may be passed to share
    extraction across calls.
    """
    if dataset is None:
        dataset = build_pair_dataset(world, coloc_cfg, semantic=semantic)
    rows_feat, sem_vectors = dataset
    labels = np.array([bool(f.label) for f in rows_feat])
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(rows_feat))
    n_train = int(round(split * len(rows_feat)))
    train_idx, test_idx = order[:n_train], order[n_train:]
    if labels[test_idx].sum() == 0 or (~labels[test_idx]).sum() == 0:
        raise ValueError("degenerate split: test set lacks a class")
    report = []
    for subset in subsets:
        X = np.array([project(f, subset) for f in rows_feat])
        if semantic and sem_vectors is not None:
            X = np.hstack([X, sem_vectors])
        std = Standardizer().fit(X[train_idx])
        Xs = std.transform(X)
        net = DenseNet.init((X.shape[1], hidden, 1), "sigmoid", "sigmoid",
                            seed=seed)
        cfg = TrainConfig(learning_rate=lr, epochs=epochs, batch_size=32,
                          seed=seed)
        net, _ = train(net, Xs[train_idx],
                       labels[train_idx].astype(float)[:, None], cfg)
        scores = net.forward(Xs[test_idx]).ravel()
        metrics = evaluate(scores, labels[test_idx])
        row = {"subset": subset if isinstance(subset, str) else "+".join(
            resolve_subset(subset)), "semantic": bool(semantic)}
        row.update(metrics)
        report.append(row)
    return report


def coevent_participation(world, coloc_cfg=None):
    """Per-stay flag: does any other user's stay co-occur with it?"""
    return stay_participation(world.trajectories,
                              coloc_cfg or CoLocationConfig())


def fit_world_models(world, tau_soc=0.25, seed=0, m="auto"):
    """Fit and socially label a mobility model per user."""
    participation = coevent_participation(world)
    models = {}
    for i, u in enumerate(world.users):
        model, assign = fit_mobility_model(world.trajectories[u], world.grid,
                                           m=m, seed=seed + i)
        frac = np.zeros(model.n_components)
        tot = np.zeros(model.n_components)
        for j, hit in zip(assign, participation[u]):
            tot[j] += 1
            frac[j] += 1 if hit else 0
        frac = np.where(tot > 0, frac / np.maximum(tot, 1), 0.0)
        label_social(model, frac, tau_soc)
        models[u] = model
    return models


def compute_influence_map(model, friend_models, slot, params=None):
    """Cluster -> combined influence, averaged over the user's friends."""
    params = params or InfluenceParams()
    if not friend_models:
        return {}
    out = {}
    for j in range(model.n_components):
        lat, lon = model.projection.to_latlon(model.means[j])
        vals = []
        for fm in friend_models:
            xy = fm.projection.to_xy(lat, lon)
            si = social_influence(fm, xy, slot, params)
            ti = temporal_influence(fm, slot)
            vals.append(combined_influence(si, ti, params))
        out[j] = float(np.mean(vals))
    return out


def k_anonymize_world(world, models, policy, seed=0, influence_slot=19,
                      params=None):
    """AnonymitySet per user; deterministic given the seed."""
    friends_of = {u: [] for u in world.users}
    for a, b in world.friend_edges:
        friends_of[a].append(b)
        friends_of[b].append(a)
    sets = {}
    for i, u in enumerate(world.users):
        inf = compute_influence_map(
            models[u], [models[f] for f in sorted(friends_of[u])],
            influence_slot, params)
        sets[u] = k_anonymize(world.trajectories[u], models[u], policy,
                              world.grid, seed=seed + i, influence=inf)
    return sets


def publish_with_kanon(world, sets, seed=0):
    """Published view: each user's trajectory replaced by a uniformly chosen
    member of their anonymity set."""
    rng = np.random.default_rng(seed)
    published = {}
    for u in world.users:
        members = sets[u].members()
        published[u] = members[rng.integers(len(members))]
    return published


def _drop_overlaps(stays):
    """The stays in (start, stop) order, without each one that overlaps an
    earlier kept stay."""
    kept, last_stop = [], None
    for s in sorted(stays, key=lambda x: (x.start_time, x.stop_time)):
        if last_stop is None or s.start_time >= last_stop:
            kept.append(s)
            last_stop = s.stop_time
    return kept


def unflatten_vector(vec, cells, K, grid, user_id):
    """Inverse of flatten_embeddings for one generated vector; stays that
    overlap an earlier one are dropped."""
    entries = {}
    for c, (x, y) in enumerate(cells):
        items = []
        for k in range(K):
            t = int(round(vec[(c * K + k) * 2]))
            d = int(round(vec[(c * K + k) * 2 + 1]))
            if d >= 1 and t > 0:
                items.append((t, d))
        items.sort()
        for k, (t, d) in enumerate(items):
            if k > 0 and t <= items[k - 1][0]:
                continue
            entries[(x, y, k)] = (t, d)
    stays = _decoded_stays(StayEmbedding(grid, K, entries), user_id)
    return Trajectory(user_id, _drop_overlaps(stays))


def _day_slices(traj, n_days):
    """Per-day sub-trajectories (stays bucketed by their start day)."""
    out = [[] for _ in range(n_days)]
    for s in traj:
        day = min((s.start_time - EPOCH_MONDAY) // 86400, n_days - 1)
        out[int(day)].append(s)
    return [Trajectory(traj.user_id, stays) for stays in out if stays]


def publish_synthetic(world, top_n=16, gan_steps=500, seed=0):
    """Adversarially generated published view of the whole world.

    The generator is trained over per-day embedding slices; each user's
    published trajectory is rebuilt from freshly sampled day vectors.
    """
    slices = []
    per_user = {}
    for u in world.users:
        per_user[u] = _day_slices(world.trajectories[u], world.cfg.n_days)
        slices.extend(per_user[u])
    # K is the most stays any slice holds in one cell
    wide = [embed_trajectory(sl, world.grid, K=len(sl)) for sl in slices]
    K = max([1] + [k + 1 for emb in wide for (_, _, k) in emb.entries])
    embs = [StayEmbedding(world.grid, K, emb.entries) for emb in wide]
    vecs, cells = flatten_embeddings(embs, top_n=top_n)
    gen, scaler, trace = train_toy_gan(vecs, steps=gan_steps, seed=seed)
    published = {}
    offset = 0
    for u in world.users:
        n = len(per_user[u])
        samples = gan_sample(gen, scaler, n, seed=seed + 1 + offset)
        offset += n
        stays = []
        for vec in samples:
            stays.extend(unflatten_vector(vec, cells, K, world.grid, u).stays)
        kept = _drop_overlaps(stays)
        if not kept:              # degenerate sample: fall back to one stay
            lat, lon = cell_center(Cell(*cells[0]), world.grid)
            s0 = world.trajectories[u].stays[0]
            kept = [StayRecord(u, s0.start_time, s0.stop_time,
                               lat, lon, lat, lon)]
        published[u] = Trajectory(u, kept)
    return published, trace


def release_similarity(world, published, seed=0, coloc_cfg=None):
    """Similarity report of a published view against the real world, with
    the world's semantic mixture fitted from `seed`."""
    return similarity_report(world.trajectories, published, world.grid,
                             fit_world_semantic(world, seed=seed),
                             coloc_cfg or CoLocationConfig())


def run_defense(world, defense="k_anonymity", policy=None, subsets=("all",),
                seed=7, coloc_cfg=None, **attack_kw):
    """Attack the raw world and the defended view; report both."""
    raw_rows = run_attack(world, subsets, seed=seed, coloc_cfg=coloc_cfg,
                          **attack_kw)
    similarity = None
    if defense == "none":
        published = world.trajectories
    elif defense == "k_anonymity":
        policy = policy or AnonymityPolicy()
        models = fit_world_models(world, seed=seed)
        sets = k_anonymize_world(world, models, policy, seed=seed)
        published = publish_with_kanon(world, sets, seed=seed)
    elif defense == "publish_synthetic":
        published, _ = publish_synthetic(world, seed=seed)
        similarity = release_similarity(world, published, seed, coloc_cfg)
    else:
        raise ValueError(f"unknown defense {defense}")
    defended_world = World(world.cfg, published, world.friend_edges)
    defended_rows = run_attack(defended_world, subsets, seed=seed,
                               coloc_cfg=coloc_cfg, **attack_kw)
    out = {"defense": defense, "raw": raw_rows, "defended": defended_rows}
    if similarity is not None:
        out["similarity"] = similarity
    return out


# --- reporting -------------------------------------------------------------

def report_rows_csv(rows):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["subset", "semantic", "precision", "recall", "f1", "auc"])
    for r in rows:
        w.writerow([r["subset"], int(r["semantic"]),
                    repr(r["precision"]), repr(r["recall"]),
                    repr(r["f1"]), repr(r["auc"])])
    return out.getvalue()


def report_json(obj):
    """Deterministic JSON serialization for report files."""
    def default(o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, WorldConfig):
            return asdict(o)
        raise TypeError(f"not serializable: {type(o)}")
    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"
