from datetime import datetime, timezone

import numpy as np
import pytest

from trajpriv.colocation import CoLocationConfig
from trajpriv.core import Cell, GridSpec, StayRecord, Trajectory, cell_center
from trajpriv.publish import (CellOverflowError, MinMaxScaler, decode_embedding,
                              embed_trajectory, fit_semantic,
                              flatten_embeddings, gan_sample,
                              purpose_posterior, semantic_feature,
                              similarity_report, stay_feature, train_toy_gan,
                              _jsd_bits)

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

    def test_json_export(self):
        base = 1568592000 // SLOT_S
        t = Trajectory("u", [quantized_stay("u", Cell(1, 2), base, 2)])
        text = embed_trajectory(t, GRID, K=2).to_json()
        assert '"K": 2' in text and str(base) in text


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
            assigned = {int(np.argmax(purpose_posterior(model, a)))
                        for a in arch}
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
        for a in arch:
            p = purpose_posterior(model, a)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.max() > 0.99

    def test_identical_components_uniform(self):
        from trajpriv.publish import SemanticModel
        model = SemanticModel(np.full(3, 1 / 3),
                              np.tile([1.0, 2.0], (3, 1)),
                              np.tile([0.5, 0.5], (3, 1)))
        p = purpose_posterior(model, [0.0, 0.0])
        assert np.allclose(p, 1 / 3)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        V, _, _ = planted_purposes(rng, n_per=30)
        model = fit_semantic(V, n_purposes=4, seed=4)
        perm = [2, 0, 3, 1]
        from trajpriv.publish import SemanticModel
        permuted = SemanticModel(model.weights[perm], model.means[perm],
                                 model.variances[perm])
        v = V[10]
        assert np.allclose(purpose_posterior(model, v)[perm],
                           purpose_posterior(permuted, v))


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
        from trajpriv.fusion import DenseNet, backprop_grads
        rng = np.random.default_rng(1)
        real = rng.normal(0.8, 0.05, (200, 4))
        noise = rng.normal(0.2, 0.05, (200, 4))
        X = np.vstack([real, noise])
        Y = np.vstack([np.ones((200, 1)), np.zeros((200, 1))])
        disc = DenseNet.init((4, 32, 1), "tanh", "sigmoid", seed=1)
        for _ in range(500):
            idx = rng.choice(400, 32, replace=False)
            g = backprop_grads(disc, X[idx], Y[idx], "gan_minimax")
            for p, gr in g.items():
                setattr(disc, p, getattr(disc, p) - 0.05 * gr)
        acc = np.mean((disc.forward(X) >= 0.5) == Y)
        assert acc > 0.9

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
    v = stay_feature(s, GRID, {to_cell(lat, lon, GRID): 1.3})
    assert v.tolist() == [2.0, 15.0, 0.0, 1.3]


def test_semantic_feature_matches_datetime_over_weeks():
    step = 3 * 3600 + 7 * 60 + 13      # walks through every weekday
    for t in [*range(-3 * 604800, 3 * 604800, step), -1, 0, 59, 86399]:
        dt = datetime.fromtimestamp(t, tz=timezone.utc)
        assert semantic_feature(t, 5400, 0.7) == [
            1.5, dt.hour + dt.minute / 60.0,
            1.0 if dt.weekday() >= 5 else 0.0, 0.7]
