from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trajpriv.colocation import CoLocationConfig
from trajpriv.core import (Cell, GridSpec, StayRecord, Trajectory,
                           cell_center, cells_of)
from trajpriv.fusion import DenseNet, backprop_grads, loss_value, sgd_step
from trajpriv.publish import (CellOverflowError, MinMaxScaler, decode_days,
                              decode_embedding, embed_trajectory, fit_semantic,
                              gan_sample, purpose_posteriors, semantic_feature,
                              similarity_report, stay_features, stay_rows,
                              top_cells, train_toy_gan, _jsd_bits)

GRID = GridSpec(28.0, 112.9, 250.0, 40, 40, 60)
SLOT_S = 3600


def quantized_stay(user, cell, t_slot, d_slots):
    lat, lon = cell_center(cell, GRID)
    return StayRecord(user, t_slot * SLOT_S, (t_slot + d_slots) * SLOT_S,
                      lat, lon, lat, lon)


class TestEmbedding:
    def test_empty(self):
        emb = embed_trajectory(Trajectory("u", []), GRID, K=2)
        assert emb.entries == {}
        assert len(decode_embedding(emb)) == 0

    def test_repeat_visits_time_ordered(self):
        base = 1568592000 // SLOT_S
        t = Trajectory("u", [quantized_stay("u", Cell(3, 3), base, 1),
                             quantized_stay("u", Cell(3, 3), base + 5, 2)])
        emb = embed_trajectory(t, GRID, K=2)
        assert emb.entries[(3, 3, 0)] == (base, 1)
        assert emb.entries[(3, 3, 1)] == (base + 5, 2)

    def test_overflow(self):
        base = 1568592000 // SLOT_S
        t = Trajectory("u", [quantized_stay("u", Cell(3, 3), base + 3 * i, 1)
                             for i in range(3)])
        with pytest.raises(CellOverflowError):
            embed_trajectory(t, GRID, K=2)

    def test_roundtrip_random_quantized(self):
        rng = np.random.default_rng(21)
        base = 1568592000 // SLOT_S
        for _ in range(100):
            t_cur = base
            stays = []
            seen = {}
            for _ in range(int(rng.integers(1, 12))):
                cell = Cell(int(rng.integers(0, 6)), int(rng.integers(0, 6)))
                if seen.get((cell.x, cell.y), 0) >= 3:
                    continue
                seen[(cell.x, cell.y)] = seen.get((cell.x, cell.y), 0) + 1
                d = int(rng.integers(1, 4))
                stays.append(quantized_stay("u", cell, t_cur, d))
                t_cur += d + int(rng.integers(1, 4))
            traj = Trajectory("u", stays)
            decoded = decode_embedding(embed_trajectory(traj, GRID, K=3),
                                       user_id="u")
            assert [(s.start_time, s.stop_time, round(s.lat, 9),
                     round(s.lon, 9)) for s in decoded] == \
                   [(s.start_time, s.stop_time, round(s.lat, 9),
                     round(s.lon, 9)) for s in traj]

    def test_single_entry_decode(self):
        from trajpriv.publish import StayEmbedding
        emb = StayEmbedding(GRID, 2, {(4, 5, 0): (15, 1)})
        t = decode_embedding(emb)
        assert len(t) == 1
        assert t.stays[0].start_time == 15 * SLOT_S
        assert t.stays[0].duration_s == SLOT_S

    def test_non_contiguous_k_rejected(self):
        from trajpriv.publish import StayEmbedding
        emb = StayEmbedding(GRID, 3, {(4, 5, 1): (15, 1)})
        with pytest.raises(ValueError):
            decode_embedding(emb)


POOL = [Cell(1, 1), Cell(2, 2), Cell(7, 3), Cell(0, 39), None]


@st.composite
def day_of_stays(draw):
    """(day, stays, vocabulary): back-to-back stays on slot boundaries
    within one UTC day, each somewhere inside a cell of POOL (None: 1 km
    south of the grid), and a vocabulary of POOL cells."""
    day = draw(st.integers(-5, 20_000))
    slot, stays = draw(st.integers(0, 23)), []
    while slot < 24 and len(stays) < 8:
        cell = draw(st.sampled_from(POOL))
        dx, dy = draw(st.tuples(st.floats(-100, 100), st.floats(-100, 100)))
        if cell is None:
            lat, lon = GRID.origin_lat - 0.009, GRID.origin_lon + 0.01
        else:
            lat, lon = cell_center(cell, GRID)
            lat += dy / 111_194.9
            lon += dx / (111_194.9 * np.cos(np.radians(GRID.origin_lat)))
        d = draw(st.integers(1, 6))
        t = day * 86400 + slot * SLOT_S
        stays.append(StayRecord("u", t, t + d * SLOT_S, lat, lon, lat, lon))
        slot += d + draw(st.integers(0, 2))
    cells = draw(st.lists(st.sampled_from([(c.x, c.y) for c in POOL[:4]]),
                          unique=True, max_size=4))
    return day, stays, cells


class TestStayRows:
    @settings(max_examples=40, deadline=None)
    @given(case=day_of_stays())
    def test_exact_rows_decode_to_the_in_vocabulary_stays(self, case):
        day, stays, cells = case
        rows = stay_rows(Trajectory("u", stays), cells, GRID,
                         top_n=6).get(day, np.zeros((0, 9)))
        decoded = decode_days([rows], [day], cells, GRID, "u")
        want = []
        for s in stays:
            [c] = cells_of([s.lat], [s.lon], GRID)
            if c is not None and (c.x, c.y) in cells:
                lat, lon = cell_center(c, GRID)
                want.append((s.start_time, s.stop_time, lat, lon))
        assert rows.shape == (len(want), 9)
        assert [(s.start_time, s.stop_time, s.lat, s.lon)
                for s in decoded] == want

    def test_one_greedy_pass_over_all_rows(self):
        # two cells, (t, 3 | t + 1, 1) and (t + 3, 1 | t + 2, 2): a drop
        # within each set first would lose (t + 3, 1) to (t + 2, 2)
        t, day = 5, 18_155

        def rows(*stays):
            out = np.zeros((len(stays), 5))
            for r, (c, slot, d) in enumerate(stays):
                out[r, :3] = (1.0, slot, d)
                out[r, 3 + c] = 1.0
            return out

        traj = decode_days([rows((0, t, 3), (1, t + 1, 1)),
                            rows((0, t + 3, 1), (1, t + 2, 2))], [day, day],
                           [(1, 1), (2, 2)], GRID, "u")
        start = day * 86400
        assert [(s.start_time, s.stop_time) for s in traj] == [
            (start + t * SLOT_S, start + (t + 3) * SLOT_S),
            (start + (t + 3) * SLOT_S, start + (t + 4) * SLOT_S)]
        assert [(s.lat, s.lon) for s in traj] == [cell_center(Cell(1, 1),
                                                              GRID)] * 2

    def test_generated_rows_round_and_threshold(self):
        row = np.array([[0.5, 2.4, 0.2, 0.1, 0.7, 0.9],
                        [0.49, 9.0, 1.0, 1.0, 0.0, 0.0]])
        # the third one-hot column lies past the user's two cells
        traj = decode_days([row], [0], [(1, 1), (2, 2)], GRID, "u")
        assert [(s.start_time, s.stop_time) for s in traj] == \
            [(2 * SLOT_S, 3 * SLOT_S)]
        assert (traj.stays[0].lat, traj.stays[0].lon) == \
            cell_center(Cell(2, 2), GRID)
        # a user with no cell in the grid publishes nothing
        assert len(decode_days([row], [0], [], GRID, "u")) == 0

    def test_top_cells_most_visited_first(self):
        stays = [quantized_stay("u", Cell(*c), 3 * i, 1) for i, c in
                 enumerate([(4, 4), (2, 2), (4, 4), (1, 1), (2, 2), (3, 3)])]
        assert top_cells(Trajectory("u", stays), GRID, 3) == \
            [(2, 2), (4, 4), (1, 1)]


def planted_purposes(rng, n_per=80):
    # four archetypes: long-evening, short-midday, long-night, short-weekday
    arch = np.array([
        [3.0, 20.0, 1.0, 0.5],     # entertainment-like
        [0.7, 13.0, 0.0, 2.5],     # shopping-like
        [9.0, 1.0, 0.0, 0.2],      # residential-like
        [0.5, 7.0, 1.0, 1.2],      # life-service-like
    ])
    scale = np.array([0.3, 0.6, 0.1, 0.15])
    V = np.vstack([a + rng.normal(0, 1, (n_per, 4)) * scale for a in arch])
    labels = np.repeat(np.arange(4), n_per)
    return V, labels, arch


class TestSemantic:
    def test_single_component_mean(self):
        rng = np.random.default_rng(1)
        V = rng.normal([2, 12, 0.3, 1.0], 0.5, (100, 4))
        model = fit_semantic(V, n_purposes=1, seed=0)
        assert np.allclose(model.means[0], V.mean(axis=0), atol=1e-6)

    def test_planted_archetypes_recovered(self):
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            V, labels, arch = planted_purposes(rng)
            model = fit_semantic(V, n_purposes=4, seed=seed)
            assigned = set(np.argmax(purpose_posteriors(model, arch),
                                     axis=1).tolist())
            wins += len(assigned) == 4
        assert wins >= 8

    def test_loglik_monotone(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            V, _, _ = planted_purposes(rng, n_per=40)
            model = fit_semantic(V, n_purposes=4, seed=seed)
            tr = model.ll_trace
            assert all(b - a >= -1e-9 for a, b in zip(tr, tr[1:]))

    def test_posterior_normalized_and_separated(self):
        rng = np.random.default_rng(3)
        V, _, arch = planted_purposes(rng)
        model = fit_semantic(V, n_purposes=4, seed=3)
        for p in purpose_posteriors(model, arch):
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.max() > 0.99

    def test_identical_components_uniform(self):
        from trajpriv.publish import SemanticModel
        model = SemanticModel(np.full(3, 1 / 3),
                              np.tile([1.0, 2.0], (3, 1)),
                              np.tile([0.5, 0.5], (3, 1)))
        p = purpose_posteriors(model, [[0.0, 0.0]])
        assert np.allclose(p, 1 / 3)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        V, _, _ = planted_purposes(rng, n_per=30)
        model = fit_semantic(V, n_purposes=4, seed=4)
        perm = [2, 0, 3, 1]
        from trajpriv.publish import SemanticModel
        permuted = SemanticModel(model.weights[perm], model.means[perm],
                                 model.variances[perm])
        v = V[10:11]
        assert np.allclose(purpose_posteriors(model, v)[:, perm],
                           purpose_posteriors(permuted, v))


class TestToyGan:
    def toy_vectors(self, rng, n=300):
        vecs = np.zeros((n, 4))
        vecs[:, 0] = rng.integers(8, 12, n)
        vecs[:, 1] = rng.integers(1, 4, n)
        vecs[:, 2] = vecs[:, 0] + vecs[:, 1] + rng.integers(1, 3, n)
        vecs[:, 3] = rng.integers(1, 3, n)
        return vecs

    def test_shapes(self):
        rng = np.random.default_rng(0)
        vecs = self.toy_vectors(rng)
        gen, scaler, trace = train_toy_gan(vecs, steps=10, seed=0)
        assert gen.sizes[2] == vecs.shape[1]
        out = gan_sample(gen, scaler, 7, seed=1)
        assert out.shape == (7, 4)
        assert len(trace["disc_loss"]) == 10

    def test_discriminator_separable_fixture(self):
        rng = np.random.default_rng(1)
        real = rng.normal(0.8, 0.05, (200, 4))
        noise = rng.normal(0.2, 0.05, (200, 4))
        X = np.vstack([real, noise])
        Y = np.vstack([np.ones((200, 1)), np.zeros((200, 1))])
        disc = DenseNet.init((4, 32, 1), "tanh", "sigmoid", seed=1)
        for _ in range(500):
            idx = rng.choice(400, 32, replace=False)
            sgd_step(disc, backprop_grads(disc, X[idx], Y[idx], "gan_minimax"),
                     0.05)
        acc = np.mean((disc.forward(X) >= 0.5) == Y)
        assert acc > 0.9

    def test_generator_step_is_minus_lr_times_loss_gradient(self):
        real = np.random.default_rng(0).uniform(0, 10, (40, 3))
        z_dim, hidden, batch, lr, seed = 2, 4, 8, 0.05, 3
        stepped, scaler, _ = train_toy_gan(real, z_dim, hidden, steps=1,
                                           batch=batch, lr=lr, seed=seed)
        # replay the first step's draws and discriminator step
        rng = np.random.default_rng(seed)
        disc = DenseNet.init((3, hidden, 1), "tanh", "sigmoid", seed=seed + 1)
        gen = DenseNet.init((z_dim, hidden, 3), "tanh", "sigmoid",
                            seed=seed + 2)
        idx = rng.choice(40, size=batch, replace=False)
        fake = gen.forward(rng.standard_normal((batch, z_dim)))
        Xd = np.vstack([scaler.transform(real)[idx], fake])
        Yd = np.vstack([np.ones((batch, 1)), np.zeros((batch, 1))])
        sgd_step(disc, backprop_grads(disc, Xd, Yd, "gan_minimax"), lr)
        z = rng.standard_normal((batch, z_dim))
        ones = np.ones((batch, 1))
        h = 1e-5
        for name in ("W1", "b1", "W2", "b2"):
            p = getattr(gen, name)
            grad = np.zeros_like(p)
            for i in np.ndindex(p.shape):
                orig = p[i]
                loss = []
                for v in (orig + h, orig - h):
                    p[i] = v
                    loss.append(loss_value(disc, gen.forward(z), ones,
                                           "gan_minimax"))
                p[i] = orig
                grad[i] = (loss[0] - loss[1]) / (2 * h)
            step = getattr(stepped, name) - p
            assert np.max(np.abs(step + lr * grad)) \
                <= 1e-5 * np.max(np.abs(lr * grad)), name

    def test_marginal_means_recovered(self):
        rng = np.random.default_rng(42)
        vecs = self.toy_vectors(rng)
        gen, scaler, _ = train_toy_gan(vecs, steps=500, seed=42)
        samples = gan_sample(gen, scaler, 500, seed=43)
        for cols in (slice(0, None, 2), slice(1, None, 2)):
            real_mean = vecs[:, cols].mean()
            synth_mean = samples[:, cols].mean()
            assert abs(synth_mean - real_mean) / real_mean < 0.25

    def test_samples_within_valid_range(self):
        rng = np.random.default_rng(2)
        vecs = self.toy_vectors(rng)
        gen, scaler, _ = train_toy_gan(vecs, steps=50, seed=2)
        samples = gan_sample(gen, scaler, 100, seed=3)
        assert np.all(samples >= vecs.min(axis=0) - 1e-9)
        assert np.all(samples <= vecs.max(axis=0) + 1e-9)


class TestSimilarity:
    def build_set(self, seed, shift=0):
        rng = np.random.default_rng(seed)
        base = 1568592000 // SLOT_S
        trajs = {}
        for i in range(6):
            u = f"u{i}"
            stays = []
            t = base + int(rng.integers(0, 3))
            for _ in range(8):
                cell = Cell(int(rng.integers(0, 4)) + shift,
                            int(rng.integers(0, 4)))
                d = int(rng.integers(1, 3))
                stays.append(quantized_stay(u, cell, t, d))
                t += d + int(rng.integers(1, 3))
            trajs[u] = Trajectory(u, stays)
        return trajs

    def semantic_model(self):
        rng = np.random.default_rng(7)
        V = rng.normal([2, 12, 0.2, 1.0], [1, 5, 0.4, 0.5], (200, 4))
        return fit_semantic(np.abs(V), n_purposes=4, seed=7)

    def test_identity(self):
        trajs = self.build_set(1)
        rep = similarity_report(trajs, trajs, GRID, self.semantic_model(),
                                CoLocationConfig())
        assert rep["spatial_jsd"] == pytest.approx(0.0, abs=1e-12)
        assert rep["temporal_jsd"] == pytest.approx(0.0, abs=1e-12)
        assert rep["semantic_jsd"] == pytest.approx(0.0, abs=1e-12)
        assert rep["social_jaccard"] == 1.0

    def test_disjoint_spatial_support(self):
        a = self.build_set(1)
        b = self.build_set(2, shift=20)
        rep = similarity_report(a, b, GRID, self.semantic_model(),
                                CoLocationConfig())
        assert rep["spatial_jsd"] == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_and_bounds(self):
        a = self.build_set(3)
        b = self.build_set(4)
        sem = self.semantic_model()
        r1 = similarity_report(a, b, GRID, sem, CoLocationConfig())
        r2 = similarity_report(b, a, GRID, sem, CoLocationConfig())
        for key in r1:
            assert r1[key] == pytest.approx(r2[key], abs=1e-12)
            assert 0.0 <= r1[key] <= 1.0


def test_jsd_bits_bounds():
    assert _jsd_bits({"a": 1}, {"a": 1}) == 0.0
    assert _jsd_bits({"a": 1}, {"b": 1}) == pytest.approx(1.0)


def test_minmax_scaler_roundtrip():
    rng = np.random.default_rng(5)
    X = rng.uniform(-3, 9, (50, 6))
    sc = MinMaxScaler().fit(X)
    assert np.allclose(sc.inverse(sc.transform(X)), X)


def test_stay_feature_vector():
    lat, lon = cell_center(Cell(2, 2), GRID)
    s = StayRecord("u", 1568592000 + 15 * 3600, 1568592000 + 17 * 3600,
                   lat, lon, lat, lon)
    from trajpriv.core import to_cell
    cells, V = stay_features([Trajectory("u", [s])], GRID,
                             {to_cell(lat, lon, GRID): 1.3})
    assert cells == [Cell(2, 2)]
    assert V.tolist() == [[2.0, 15.0, 0.0, 1.3]]


def test_semantic_feature_matches_datetime_over_weeks():
    step = 3 * 3600 + 7 * 60 + 13      # walks through every weekday
    for t in [*range(-3 * 604800, 3 * 604800, step), -1, 0, 59, 86399]:
        dt = datetime.fromtimestamp(t, tz=timezone.utc)
        assert semantic_feature(t, 5400, 0.7).tolist() == [
            1.5, dt.hour + dt.minute / 60.0,
            1.0 if dt.weekday() >= 5 else 0.0, 0.7]
