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
from dataclasses import dataclass

import numpy as np

from .core import (Cell, GridSpec, StayRecord, Trajectory, cell_center,
                   serialize_stays)
from .colocation import (CoLocationConfig, extract_coevents,
                         stay_participation)
from .features import (Standardizer, cell_visit_entropy, compute_features,
                       project, resolve_subset)
from .fusion import DenseNet, TrainConfig, evaluate, train
from .mobility import (fit_mobility_model, fit_spatial, friend_influence,
                       project_stays)
from .anonymize import (AnonymityPolicy, InsufficientCandidatesError,
                        k_anonymize)
from .publish import (decode_days, fit_semantic, gan_sample,
                      purpose_posteriors, semantic_feature, similarity_report,
                      stay_features, stay_rows, top_cells, train_toy_gan)

EPOCH_MONDAY = 1568592000  # 2019-09-16 00:00:00 UTC, a Monday
# the one co-location config of the experiments: the attack's pair features,
# the social labelling of mobility clusters and the release's social graph
COLOCATION = CoLocationConfig()
# the time slot at which friends pull a user's dummies to social clusters
INFLUENCE_SLOT = 19


@dataclass(frozen=True)
class WorldConfig:
    """The size and seed of a simulated world, and the grid it lies on; a
    loaded world reads only its grid from here."""

    n_users: int = 64
    n_days: int = 14
    cell_size_m: float = 250.0
    time_slot_minutes: int = 60
    grid_n: int = 40
    origin_lat: float = 28.0
    origin_lon: float = 112.9
    seed: int = 42

    def __post_init__(self):
        if self.n_users < 2:
            raise ValueError("need at least two users")
        if self.n_days < 1:
            raise ValueError("need at least one day")
        self.grid       # builds the grid, so its own checks run now

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
    friend_edges: set                # (a, b) tuples, stored with a < b

    def __post_init__(self):
        self.friend_edges = {tuple(sorted(e)) for e in self.friend_edges}

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


def _day_schedule(n_slots, weekend):
    # slot -> "home" | "work" | "free", for a 24-slot day scaled to n_slots;
    # weekends have no work and an hour longer at home in the morning
    sched = []
    for slot in range(n_slots):
        hour = slot * 24 // n_slots
        if hour <= (8 if weekend else 7) or hour >= 21:
            sched.append("home")
        elif not weekend and 9 <= hour <= 17:
            sched.append("work")
        else:
            sched.append("free")
    return sched


# the simulator's fixed settings, which generate_world reads at each call
WS_NEIGHBORS = 4
WS_REWIRE_P = 0.1
N_WORKPLACES = 8
N_SOCIAL_VENUES = 24
VENUES_PER_PAIR = 2
P_MEET_LO = 0.10
P_MEET_HI = 0.40
WEEKEND_MULTIPLIER = 1.6
P_TWO_SLOT_MEETING = 0.3
P_SOLO_JUMP = 0.05
NOISE_SIGMA_M = 30.0


def generate_world(cfg):
    """Simulate stays for every user over the configured horizon."""
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid
    users = [f"u{i:03d}" for i in range(cfg.n_users)]

    idx_edges = ring_rewire_graph(cfg.n_users, WS_NEIGHBORS, WS_REWIRE_P, rng)
    edges = {(users[a], users[b]) for a, b in idx_edges}
    sorted_edges = sorted(edges)

    # centers of distinct anchor cells: workplaces, social venues, then homes
    n_anchor = N_WORKPLACES + N_SOCIAL_VENUES + cfg.n_users
    all_cells = [Cell(x, y) for x in range(grid.n_x) for y in range(grid.n_y)]
    picked = rng.choice(len(all_cells), size=n_anchor, replace=False)
    centers = [cell_center(all_cells[i], grid) for i in picked]
    work_centers = centers[:N_WORKPLACES]
    venue_centers = centers[N_WORKPLACES:N_WORKPLACES + N_SOCIAL_VENUES]
    home_centers = centers[N_WORKPLACES + N_SOCIAL_VENUES:]

    home = dict(zip(users, home_centers))
    work = {u: work_centers[i % N_WORKPLACES] for i, u in enumerate(users)}

    pair_meet_p = {}
    pair_venues = {}
    for e in sorted_edges:
        pair_meet_p[e] = float(rng.uniform(P_MEET_LO, P_MEET_HI))
        vsel = rng.choice(N_SOCIAL_VENUES, size=VENUES_PER_PAIR, replace=False)
        pair_venues[e] = [venue_centers[v] for v in vsel]

    n_slots = grid.slots_per_day
    schedule = {weekend: _day_schedule(n_slots, weekend)
                for weekend in (False, True)}

    # anchors[user][day] is a per-slot location list
    anchors = {u: [] for u in users}
    for day in range(cfg.n_days):
        weekend = (day % 7) >= 5
        sched = schedule[weekend]
        day_anchor = {}
        for u in users:
            day_anchor[u] = [home[u] if kind == "home"
                             else work[u] if kind == "work"
                             else None for kind in sched]
        # friend meetings at shared venues, in deterministic shuffled order
        for t in rng.permutation(len(sorted_edges)):
            a, b = sorted_edges[t]
            p = pair_meet_p[(a, b)]
            if weekend:
                p = min(0.95, p * WEEKEND_MULTIPLIER)
            free = [s for s in range(n_slots)
                    if sched[s] == "free"
                    and day_anchor[a][s] is None and day_anchor[b][s] is None]
            for s in free:
                if rng.random() >= p:
                    continue
                venue = pair_venues[(a, b)][rng.integers(VENUES_PER_PAIR)]
                length = 2 if (rng.random() < P_TWO_SLOT_MEETING
                               and s + 1 in free) else 1
                for ds in range(length):
                    day_anchor[a][s + ds] = venue
                    day_anchor[b][s + ds] = venue
                break        # at most one meeting per pair per day
        # solo jumps, otherwise stay home
        for u in users:
            for s in range(n_slots):
                if day_anchor[u][s] is None:
                    if rng.random() < P_SOLO_JUMP:
                        day_anchor[u][s] = venue_centers[
                            rng.integers(N_SOCIAL_VENUES)]
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
                jlat = alat + rng.normal(0, NOISE_SIGMA_M) * deg_lat
                jlon = alon + (rng.normal(0, NOISE_SIGMA_M) * deg_lat
                               / np.cos(np.radians(cfg.origin_lat)))
                stays.append(StayRecord(
                    u, day_start + s0 * slot_s, day_start + s1 * slot_s,
                    float(jlat), float(jlon), float(jlat), float(jlon)))
        trajectories[u] = Trajectory(u, stays)
    return World(cfg, trajectories, edges)


def sample_negative_pairs(users, edges, n, rng):
    """Seeded non-edge pairs; never emits a true friend edge. Fewer than n
    non-edges among the users is an error, found before any draw."""
    users = sorted(users)
    among = set(users)
    pairs = len(among) * (len(among) - 1) // 2
    friends = sum(a < b and a in among and b in among for a, b in edges)
    if pairs - friends < n:
        raise ValueError(f"{n} negative pairs asked for, but only "
                         f"{pairs - friends} of the {pairs} pairs of the "
                         f"{len(among)} users are not friend edges")
    out = set()
    while len(out) < n:
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
    cells, start = events.cells, events.overlap_start
    V = semantic_feature(start, events.overlap_end - start,
                         np.array([cell_entropy.get(cells[c], 0.0)
                                   for c in events.cell.tolist()]))
    return purpose_posteriors(sem_model, V).mean(axis=0)


def fit_world_semantic(world, seed=0):
    """Four-purpose semantic mixture over the stay features of every user."""
    _, V = stay_features([world.trajectories[u] for u in world.users],
                         world.grid,
                         cell_visit_entropy(world.trajectories, world.grid))
    return fit_semantic(V, n_purposes=4, seed=seed)


def pair_dataset(world, pairs=None, semantic=False):
    """Pair feature rows, labelled by the friend edges, for the given user
    pairs in their order (every pair when None), and each pair's mean
    purpose posterior when semantic (else None). A pair asked twice, in
    either order, is an error: each row answers one pair asked."""
    if pairs is not None:
        seen = set()
        for p in pairs:
            if frozenset(p) in seen:
                raise ValueError(f"pair {tuple(p)} asked twice")
            seen.add(frozenset(p))
    events = extract_coevents(world.trajectories, COLOCATION, world.grid,
                              pairs=pairs)
    ent = cell_visit_entropy(world.trajectories, world.grid)
    rows = [compute_features(evs, ent, pair=pair,
                             label=pair in world.friend_edges)
            for pair, evs in events.items()]
    sem_vectors = None
    if semantic:
        sem_model = fit_world_semantic(world)
        sem_vectors = np.array([_semantic_pair_vector(evs, sem_model, ent)
                                for evs in events.values()])
    return rows, sem_vectors


def build_pair_dataset(world, semantic=False):
    """Labeled pair features for the attack: friend edges vs sampled
    non-edges at 1:1."""
    rng = np.random.default_rng(13)
    positives = sorted(world.friend_edges)
    negatives = sample_negative_pairs(world.users, world.friend_edges,
                                      len(positives), rng)
    return pair_dataset(world, positives + negatives, semantic)


def run_attack(world, subsets=("all",), seed=7, semantic=False, epochs=400,
               dataset=None):
    """Train/evaluate the fusion classifier per feature subset.

    Returns one report row (precision/recall/f1/auc) per subset. A
    precomputed dataset (from build_pair_dataset) may be passed to share
    extraction across calls; a semantic attack needs one built with
    semantic=True.
    """
    if dataset is None:
        dataset = build_pair_dataset(world, semantic=semantic)
    return _attack([dataset], subsets, seed, semantic, epochs)[0]


def _attack(datasets, subsets=("all",), seed=7, semantic=False, epochs=400):
    """One list of report rows per dataset, one row per subset, from the
    fusion classifier trained on every (dataset, subset) pair.

    The datasets list the same pairs in the same order, so they share the
    first one's labels, the train/test split and the targets; the pairs of
    one input width train in one stacked `train` call.
    """
    if semantic and any(sem is None for _, sem in datasets):
        raise ValueError("semantic attack on a dataset built without "
                         "semantic vectors")
    labels = np.array([bool(f.label) for f in datasets[0][0]], dtype=bool)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(labels))
    n_train = int(round(0.7 * len(labels)))
    train_idx, test_idx = order[:n_train], order[n_train:]
    test = labels[test_idx]
    if not test.any() or test.all():
        raise ValueError(
            f"degenerate split: the attack's {len(test)} test pairs hold no "
            f"{'non-friend pair' if test.any() else 'friend edge'}; "
            f"{labels.sum()} of its {len(labels)} pairs are friend edges")
    by_width = {}      # input width -> [(dataset, subset, standardized X)]
    for i, (rows_feat, sem_vectors) in enumerate(datasets):
        for j, subset in enumerate(subsets):
            X = np.array([project(f, subset) for f in rows_feat])
            if semantic:
                X = np.hstack([X, sem_vectors])
            Xs = Standardizer().fit(X[train_idx]).transform(X)
            by_width.setdefault(X.shape[1], []).append((i, j, Xs))
    cfg = TrainConfig(learning_rate=0.1, epochs=epochs, batch_size=32,
                      seed=seed)
    Y = labels[train_idx].astype(float)[:, None]
    report = [[None] * len(subsets) for _ in datasets]
    for width, group in by_width.items():
        net = DenseNet.init((width, 16, 1), "sigmoid", "sigmoid", seed=seed)
        nets = train([net] * len(group),
                     [Xs[train_idx] for _, _, Xs in group], Y, cfg)
        for (i, j, Xs), net in zip(group, nets):
            subset = subsets[j]
            report[i][j] = {
                "subset": subset if isinstance(subset, str)
                else "+".join(resolve_subset(subset)),
                "semantic": bool(semantic),
                **evaluate(net.forward(Xs[test_idx]).ravel(),
                           labels[test_idx])}
    return report


def coevent_participation(world):
    """Per-stay flag: does any other user's stay co-occur with it?"""
    return stay_participation(world.trajectories, COLOCATION)


def fit_world_models(world, seed=0, m="auto"):
    """Fit and socially label a mobility model per user, the i-th user's
    spatial mixture from seed + i. Every user's spatial mixture is fitted
    in one `fit_spatial` call, whose EM work queue fits each as it would be
    fitted alone, so a user's mixture does not depend on the other users."""
    if m != "auto" and not (isinstance(m, int) and m >= 1):
        raise ValueError(f"the component count m must be 'auto' or a "
                         f"positive integer, got {m!r}")
    for u in world.users:
        n = len(world.trajectories[u])
        if n == 0:
            raise ValueError(f"user {u} has no stays")
        if m != "auto" and m > n:
            raise ValueError(f"user {u}: {m} components need at least "
                             f"{m} stays, got {n}")
    participation = coevent_participation(world)
    projected = [project_stays(world.trajectories[u]) for u in world.users]
    fits = fit_spatial([X for _, X in projected], m,
                       range(seed, seed + len(projected)))
    models = {}
    for u, (proj, X), fit in zip(world.users, projected, fits):
        models[u], _ = fit_mobility_model(world.trajectories[u], world.grid,
                                          proj, X, fit, participation[u])
    return models


def k_anonymize_world(world, models, policy, seed=0):
    """AnonymitySet per user, with social clusters reweighted by the
    friends' influence at INFLUENCE_SLOT; deterministic given the seed. Every
    user is tried: one InsufficientCandidatesError then names all the
    users whose dummies failed the policy."""
    friends_of = {u: [] for u in world.users}
    for a, b in world.friend_edges:
        friends_of[a].append(b)
        friends_of[b].append(a)
    influence = friend_influence(
        models, {u: sorted(fs) for u, fs in friends_of.items()},
        INFLUENCE_SLOT)
    sets, failures = {}, []
    for i, u in enumerate(world.users):
        try:
            sets[u] = k_anonymize(world.trajectories[u], models[u], policy,
                                  world.grid, seed=seed + i,
                                  influence=influence[u])
        except InsufficientCandidatesError as e:
            failures += e.failures
    if failures:
        raise InsufficientCandidatesError(policy.k - 1, failures)
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


def publish_synthetic(world, gan_steps=500, seed=0):
    """Adversarially generated published view of the whole world.

    Each user-day is L dense stay rows (publish.stay_rows) over the user's
    own top 16 cells, L being the most rows any user-day holds. One
    generator is trained over all user-days; each user's published
    trajectory decodes freshly sampled days onto the user's real days.
    """
    top_n = 16
    cells, days, rows = {}, {}, []
    for u in world.users:
        cells[u] = top_cells(world.trajectories[u], world.grid, top_n)
        days[u] = stay_rows(world.trajectories[u], cells[u], world.grid,
                            top_n)
        rows.extend(days[u].values())
    L = max([1] + [len(r) for r in rows])
    vecs = np.zeros((len(rows), L, 3 + top_n))
    for i, r in enumerate(rows):
        vecs[i, :len(r)] = r
    gen, scaler, _ = train_toy_gan(vecs.reshape(len(rows), -1),
                                   steps=gan_steps, seed=seed)
    published = {}
    offset = 0
    for u in world.users:
        n = len(days[u])
        samples = gan_sample(gen, scaler, n, seed=seed + 1 + offset)
        offset += n
        published[u] = decode_days(samples.reshape(n, L, -1), list(days[u]),
                                   cells[u], world.grid, u)
    return published


def release_similarity(world, published, seed=0):
    """Similarity report of a published view against the real world, with
    the world's semantic mixture fitted from `seed`."""
    return similarity_report(world.trajectories, published, world.grid,
                             fit_world_semantic(world, seed=seed), COLOCATION)


# the defenses run_defense branches on, which `trajpriv report` offers
DEFENSES = ("none", "k_anonymity", "publish_synthetic")


def run_defense(world, defense="k_anonymity", policy=None, seed=7,
                **attack_kw):
    """Attack the raw world and the defended view, on the raw dataset's
    pairs in its order; report both. Both datasets are built before either
    attack trains, so the two attacks train in one stacked run."""
    similarity = None
    if defense == "none":
        published = world.trajectories
    elif defense == "k_anonymity":
        policy = policy or AnonymityPolicy()
        models = fit_world_models(world, seed=seed)
        sets = k_anonymize_world(world, models, policy, seed=seed)
        published = publish_with_kanon(world, sets, seed=seed)
    elif defense == "publish_synthetic":
        published = publish_synthetic(world, seed=seed)
        similarity = release_similarity(world, published, seed)
    else:
        raise ValueError(f"unknown defense {defense}")
    semantic = attack_kw.get("semantic", False)
    raw = build_pair_dataset(world, semantic=semantic)
    defended = pair_dataset(World(world.cfg, published, world.friend_edges),
                            [(f.user_a, f.user_b) for f in raw[0]], semantic)
    raw_rows, defended_rows = _attack([raw, defended], seed=seed, **attack_kw)
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
    """Deterministic, strict JSON serialization for report files: a NaN or
    an infinity anywhere raises ValueError, as no JSON parser reads one."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
