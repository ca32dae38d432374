import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import mannwhitneyu, rankdata

from trajpriv.fusion import (DenseNet, DivergenceError, Gradients, TrainConfig,
                             _sigmoid, backprop_grads, backward, evaluate,
                             loss_value, sgd_step, train)


def finite_difference(net, X, Y, loss, h=1e-5):
    """Central-difference gradient oracle over every parameter entry and,
    as "X", every input entry."""
    grads = {}
    for name in ("W1", "b1", "W2", "b2", "X"):
        p = X if name == "X" else getattr(net, name)
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_value(net, X, Y, loss)
            p[idx] = orig - h
            down = loss_value(net, X, Y, loss)
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def near_relu_kink(net, X, h=1e-5):
    """Whether one finite-difference step of size h on a first-layer
    parameter can move a hidden pre-activation across 0, where a central
    difference is not the derivative: W1[i, j] moves it by h * X[n, i],
    b1[j] by h and X[n, i] by h * W1[i, j], no more than h at init."""
    Z = X @ net.W1 + net.b1
    step = h * np.maximum(1.0, np.abs(X).max(axis=1, keepdims=True))
    return bool((np.abs(Z) <= step).any())


def assert_grads_close(analytic, numeric, rel=1e-4):
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
        assert np.max(np.abs(a - b) / denom) < rel, name


def random_case(rng, hidden_act, output_act, loss):
    d_in, d_h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
    d_out = int(rng.integers(2, 4)) if output_act == "softmax" else 1
    net = DenseNet.init((d_in, d_h, d_out), hidden_act, output_act,
                        seed=int(rng.integers(10**6)))
    n = int(rng.integers(2, 8))
    X = rng.normal(0, 1, (n, d_in))
    if output_act == "softmax":
        Y = np.eye(d_out)[rng.integers(0, d_out, n)]
    else:
        Y = rng.integers(0, 2, (n, 1)).astype(float)
    return net, X, Y


class TestForward:
    def test_zero_net_sigmoid(self):
        net = DenseNet((3, 4, 2), "sigmoid", "sigmoid")
        assert np.allclose(net.forward(np.zeros(3)), 0.5)

    def test_one_unit_closed_form(self):
        net = DenseNet((1, 1, 1), "sigmoid", "sigmoid")
        net.W1[:] = 1.0
        net.W2[:] = 1.0
        sigma2 = 1.0 / (1.0 + np.exp(-2.0))
        want = 1.0 / (1.0 + np.exp(-sigma2))
        assert net.forward([2.0])[0, 0] == pytest.approx(want)

    @pytest.mark.parametrize("hidden_act,output_act", [
        ("softmax", "sigmoid"), ("sigmoid", "linear"), ("sigmoid", "relu")])
    def test_rejects_unknown_activation(self, hidden_act, output_act):
        with pytest.raises(ValueError, match="_act must be one of"):
            DenseNet((2, 3, 1), hidden_act, output_act)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(0)
        net = DenseNet.init((4, 5, 3), "tanh", "softmax", seed=1)
        X = rng.normal(0, 1, (6, 4))
        H = np.tanh(X @ net.W1 + net.b1)
        Z = H @ net.W2 + net.b2
        E = np.exp(Z - Z.max(axis=1, keepdims=True))
        P = E / E.sum(axis=1, keepdims=True)
        assert np.allclose(net.forward(X), P, atol=1e-12)

    def test_softmax_sums_to_one(self):
        net = DenseNet.init((3, 8, 4), "relu", "softmax", seed=2)
        P = net.forward(np.random.default_rng(3).normal(0, 3, (10, 3)))
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_shape_mismatch(self):
        net = DenseNet((3, 4, 1))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 5)))


class TestGradients:
    @pytest.mark.parametrize("hidden_act", ["sigmoid", "relu", "tanh"])
    @pytest.mark.parametrize("output_act,loss", [
        ("sigmoid", "cross_entropy"), ("softmax", "cross_entropy"),
        ("sigmoid", "gan_minimax")])
    def test_matches_finite_differences(self, hidden_act, output_act, loss):
        seed = zlib.crc32(f"{hidden_act}/{output_act}/{loss}".encode())
        rng = np.random.default_rng(seed)
        ran = 0
        for _ in range(3):
            net, X, Y = random_case(rng, hidden_act, output_act, loss)
            if hidden_act == "relu" and near_relu_kink(net, X):
                continue
            P, H = net.forward(X, return_hidden=True)
            dX = backward(net, X, H, (P - Y) / len(X), Gradients(net)) \
                @ net.W1.T
            assert_grads_close({**backprop_grads(net, X, Y, loss), "X": dX},
                               finite_difference(net, X, Y, loss))
            ran += 1
        assert ran >= 2

    def test_zero_at_minimum(self):
        # saturate the 1-unit net toward its own targets
        net = DenseNet((1, 1, 1), "sigmoid", "sigmoid")
        X = np.array([[0.0]])
        Y = net.forward(X)    # target equals prediction -> stationary
        g = backprop_grads(net, X, Y)
        for v in g.values():
            assert np.allclose(v, 0, atol=1e-12)

    def test_batch_duplication_invariance(self):
        rng = np.random.default_rng(4)
        net, X, Y = random_case(rng, "tanh", "sigmoid", "cross_entropy")
        g1 = backprop_grads(net, X, Y)
        g2 = backprop_grads(net, np.vstack([X, X]), np.vstack([Y, Y]))
        for name in g1:
            assert np.allclose(g1[name], g2[name], atol=1e-12)

    def test_empty_batch_rejected(self):
        net = DenseNet((2, 2, 1))
        with pytest.raises(ValueError):
            backprop_grads(net, np.empty((0, 2)), np.empty((0, 1)))


class TestTrain:
    def test_all_same_label_saturates(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (40, 3))
        Y = np.ones((40, 1))
        net = DenseNet.init((3, 8, 1), seed=5)
        cfg = TrainConfig(learning_rate=0.5, epochs=100, seed=5)
        [trained], [trace] = train([net], [X], Y, cfg)
        assert trace[-1] < trace[0]
        assert np.all(trained.forward(X) > 0.5)

    def test_xor_learnable_most_seeds(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        Y = np.array([[0], [1], [1], [0]], dtype=float)
        wins = 0
        for seed in range(10):
            net = DenseNet.init((2, 4, 1), "tanh", "sigmoid", seed=seed)
            cfg = TrainConfig(learning_rate=0.5, epochs=5000, batch_size=4,
                              seed=seed)
            [trained], _ = train([net], [X], Y, cfg)
            acc = np.mean((trained.forward(X) >= 0.5) == Y)
            wins += acc == 1.0
        assert wins >= 8

    def test_zero_epochs_noop(self):
        net = DenseNet.init((2, 3, 1), seed=1)
        cfg0 = TrainConfig(learning_rate=0.1, epochs=0, seed=1)
        [same], [trace0] = train([net], np.zeros((1, 2, 2)),
                                 np.zeros((2, 1)), cfg0)
        assert trace0 == []
        assert np.array_equal(same.W1, net.W1)
        assert np.array_equal(same.W2, net.W2)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (30, 4))
        Y = (X[:, :1] > 0).astype(float)
        net = DenseNet.init((4, 6, 1), seed=6)
        cfg = TrainConfig(learning_rate=0.2, epochs=20, seed=6)
        [n1], [t1] = train([net], [X], Y, cfg)
        [n2], [t2] = train([net], [X], Y, cfg)
        assert t1 == t2
        assert np.array_equal(n1.W1, n2.W1) and np.array_equal(n1.W2, n2.W2)

    def test_divergence_reported_with_epoch(self):
        net = DenseNet.init((1, 2, 1), seed=0)
        net.W1[:] = np.nan      # poisoned state surfaces as divergence
        with pytest.raises(DivergenceError) as exc:
            train([net], [[[1.0]]], np.array([[1.0]]),
                  TrainConfig(learning_rate=0.1, epochs=5, seed=0))
        assert exc.value.epoch == 0
        assert exc.value.net == 0

    def test_divergence_names_the_net_of_the_stack(self):
        good = DenseNet.init((2, 3, 1), seed=0)
        bad = good.copy()
        bad.W1[:] = np.nan
        X = np.random.default_rng(0).normal(0, 1, (2, 5, 2))
        with pytest.raises(DivergenceError, match="net 1") as exc:
            train([good, bad], X, np.ones((5, 1)),
                  TrainConfig(learning_rate=0.1, epochs=5, seed=0))
        assert (exc.value.epoch, exc.value.net) == (0, 1)

    def test_rejects_mismatched_stacks(self):
        cfg = TrainConfig(epochs=1)
        a, b = DenseNet.init((2, 3, 1)), DenseNet.init((2, 4, 1))
        with pytest.raises(ValueError, match="share sizes"):
            train([a, b], np.zeros((2, 4, 2)), np.zeros((4, 1)), cfg)
        with pytest.raises(ValueError, match="one .* array per net"):
            train([a, a], np.zeros((3, 4, 2)), np.zeros((4, 1)), cfg)
        with pytest.raises(ValueError, match="targets"):
            train([a], np.zeros((1, 4, 2)), np.zeros((5, 1)), cfg)
        with pytest.raises(ValueError, match="empty"):
            train([a], np.zeros((1, 0, 2)), np.zeros((0, 1)), cfg)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", -4), ("epochs", -3),
        ("learning_rate", 0.0)])
    def test_config_rejects_out_of_range_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_input_nets_left_untouched(self):
        # the attack passes one net object repeated
        net = DenseNet.init((3, 5, 1), "tanh", "sigmoid", seed=2)
        before = net.copy()
        nets = [net] * 3
        X = np.random.default_rng(2).normal(0, 1, (3, 21, 3))
        Y = (X[0, :, :1] > 0).astype(float)
        trained, _ = train(nets, X, Y, TrainConfig(learning_rate=0.3,
                                                   epochs=4, batch_size=8))
        assert_same_nets(net, before)
        assert not np.array_equal(trained[0].W1, net.W1)
        for i, a in enumerate(trained):
            others = [net] + trained[i + 1:]
            for name in ("W1", "b1", "W2", "b2"):
                for b in others:
                    assert not np.shares_memory(getattr(a, name),
                                                getattr(b, name)), name

    def test_assigned_parameters_reach_theta_copy_and_train(self):
        net = DenseNet.init((3, 4, 1), seed=4)
        X = np.random.default_rng(4).normal(0, 1, (9, 3))
        Y = (X[:, :1] > 0).astype(float)
        new = {name: getattr(net, name) - 0.5 for name in
               ("W1", "b1", "W2", "b2")}
        for name, value in new.items():
            setattr(net, name, value)
        assert np.array_equal(net.theta, np.concatenate(
            [v.ravel() for v in new.values()]))
        assert np.array_equal(net.copy().forward(X), net.forward(X))
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, seed=4)
        [trained], [trace] = train([net], [X], Y, cfg)
        [ref], [ref_trace] = train([DenseNet(net.sizes,
                                             theta=net.theta.copy())],
                                   [X], Y, cfg)
        assert trace == ref_trace
        assert_same_nets(trained, ref)
        with pytest.raises(ValueError, match="b1 has shape"):
            net.b1 = np.zeros(5)

    def test_cross_entropy_nonnegative(self):
        net = DenseNet.init((2, 3, 1), seed=9)
        X = np.random.default_rng(9).normal(0, 1, (10, 2))
        Y = np.random.default_rng(10).integers(0, 2, (10, 1)).astype(float)
        assert loss_value(net, X, Y) >= 0.0


def sgd_alone(net, X, Y, cfg):
    """A lone net's mini-batch SGD written out on 2-D arrays: the reference
    every net of a stacked run must reproduce."""
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(X))
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            sgd_step(net, backprop_grads(net, X[idx], Y[idx]),
                     cfg.learning_rate)
        trace.append(loss_value(net, X, Y))
    return net, trace


def assert_same_nets(a, b):
    for name in ("W1", "b1", "W2", "b2"):
        p, q = getattr(a, name), getattr(b, name)
        assert p.shape == q.shape and np.array_equal(p, q), name


def assert_stack_trains_as_alone(nets, X, Y, cfg):
    """One stacked train call equals a one-net call and the written-out
    2-D loop for every net, in parameters and loss trace."""
    trained, traces = train(nets, X, Y, cfg)
    assert len(trained) == len(traces) == len(nets)
    for s, net in enumerate(nets):
        [one], [one_trace] = train([net], X[s:s + 1], Y, cfg)
        ref, ref_trace = sgd_alone(net, X[s], Y, cfg)
        assert traces[s] == one_trace == ref_trace
        assert len(ref_trace) == cfg.epochs
        assert_same_nets(trained[s], one)
        assert_same_nets(trained[s], ref)


def random_stack(S, d_in, rows, hidden_act, output_act, seed, hidden=4):
    rng = np.random.default_rng(seed)
    d_out = 3 if output_act == "softmax" else 1
    nets = [DenseNet.init((d_in, hidden, d_out), hidden_act, output_act,
                          seed=seed + s) for s in range(S)]
    X = rng.normal(0, 1, (S, rows, d_in))
    if output_act == "softmax":
        Y = np.eye(d_out)[rng.integers(0, d_out, rows)]
    else:
        Y = rng.integers(0, 2, (rows, 1)).astype(float)
    return nets, X, Y


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 9), d_in=st.integers(1, 6), rows=st.integers(1, 40),
       hidden=st.integers(1, 16), batch_size=st.integers(1, 48),
       hidden_act=st.sampled_from(("sigmoid", "relu", "tanh")),
       output_act=st.sampled_from(("sigmoid", "softmax")),
       epochs=st.integers(0, 3), seed=st.integers(0, 2**16))
# last batches of 2 rows (34 or 18 rows at batch 8): of S rows, and at one
# input column, where a batch gathered out of C order multiplies otherwise
@example(S=2, d_in=1, rows=34, hidden=4, batch_size=8, hidden_act="tanh",
         output_act="sigmoid", epochs=2, seed=34)
@example(S=2, d_in=3, rows=18, hidden=4, batch_size=8, hidden_act="tanh",
         output_act="softmax", epochs=2, seed=0)
# the attack's own shape: raw and defended net, six metrics, 179 pairs
@example(S=2, d_in=6, rows=179, hidden=16, batch_size=32,
         hidden_act="sigmoid", output_act="sigmoid", epochs=3, seed=7)
def test_stacked_train_equals_separate_calls(S, d_in, rows, hidden,
                                             batch_size, hidden_act,
                                             output_act, epochs, seed):
    nets, X, Y = random_stack(S, d_in, rows, hidden_act, output_act, seed,
                              hidden)
    cfg = TrainConfig(learning_rate=0.3, epochs=epochs, batch_size=batch_size,
                      seed=seed)
    assert_stack_trains_as_alone(nets, X, Y, cfg)


@pytest.mark.parametrize("S,rows,output_act", [
    (2, 34, "sigmoid"),     # batch 32 leaves a last batch of S rows
    (3, 35, "sigmoid"),
    (3, 20, "softmax"),     # reduces over the class axis, not the batch
])
def test_stack_regressions(S, rows, output_act):
    nets, X, Y = random_stack(S, 3, rows, "sigmoid", output_act, S * rows)
    cfg = TrainConfig(learning_rate=0.2, epochs=3, batch_size=32, seed=1)
    assert_stack_trains_as_alone(nets, X, Y, cfg)


class TestEvaluate:
    def test_direct_arithmetic(self):
        # TP=957, FP=43, FN=43 at threshold 0.5
        scores = np.concatenate([np.full(957, 0.9), np.full(43, 0.9),
                                 np.full(43, 0.1), np.full(957, 0.1)])
        labels = np.concatenate([np.ones(957), np.zeros(43),
                                 np.ones(43), np.zeros(957)])
        m = evaluate(scores, labels)
        assert m["precision"] == pytest.approx(0.957)
        assert m["recall"] == pytest.approx(0.957)
        assert m["f1"] == pytest.approx(0.957)

    def test_perfect_ranking_auc(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert evaluate(scores, labels)["auc"] == 1.0

    def test_random_scores_auc_half(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(0, 1, 10_000)
        labels = np.tile([0, 1], 5000)
        assert evaluate(scores, labels)["auc"] == pytest.approx(0.5, abs=0.02)

    def test_f1_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores = rng.uniform(0, 1, 50)
            labels = rng.integers(0, 2, 50)
            if labels.sum() in (0, 50):
                continue
            m = evaluate(scores, labels)
            if m["precision"] + m["recall"] > 0:
                assert m["f1"] == pytest.approx(
                    2 * m["precision"] * m["recall"]
                    / (m["precision"] + m["recall"]))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            evaluate([], [])
        with pytest.raises(ValueError):
            evaluate([0.5, 0.6], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_scores_with_their_count(self, bad):
        with pytest.raises(ValueError, match="^1 of 4 scores are NaN or inf$"):
            evaluate([0.2, bad, 0.7, 0.4], [0, 1, 1, 0])
        with pytest.raises(ValueError, match="^2 of 4 "):
            evaluate([np.nan, bad, 0.7, 0.4], [0, 1, 1, 0])


# few distinct values, so that most draws tie; -0.0 ties with 0.0
SCORES = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 5e-324]),
                   st.floats(-1e300, 1e300, allow_nan=False))


@st.composite
def scored_labels(draw):
    n = draw(st.integers(2, 80))
    scores = draw(st.lists(SCORES, min_size=n, max_size=n))
    n_pos = draw(st.one_of(st.just(1), st.integers(1, n - 1)))
    labels = draw(st.permutations([True] * n_pos + [False] * (n - n_pos)))
    return np.array(scores), np.array(labels)


@settings(max_examples=300, deadline=None)
@given(scored_labels())
@example((np.array([0.0, -0.0, 0.5]), np.array([True, False, False])))
@example((np.array([-0.0, 0.0, 0.0, -0.0]), np.array([False, True, False,
                                                      False])))
def test_auc_equals_the_scipy_rank_sum_bit_for_bit(drawn):
    scores, labels = drawn
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    ranks = rankdata(scores)
    want = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    auc = evaluate(scores, labels)["auc"]
    assert auc.hex() == float(want).hex()
    u = mannwhitneyu(scores[labels], scores[~labels]).statistic
    assert abs(auc - u / (n_pos * n_neg)) <= 1e-12


def masked_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("shape", [(1,), (7,), (32, 16), (179, 16), (3, 5, 4)])
def test_sigmoid_equals_masked_definition_bit_for_bit(shape):
    rng = np.random.default_rng(sum(shape))
    z = rng.normal(0, 1, shape) * 10.0 ** rng.integers(-3, 4, shape)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 711.0, -711.0, 1e4, -1e4]
    flat = z.reshape(-1)
    flat[rng.choice(flat.size, min(len(special), flat.size), replace=False)] \
        = special[:flat.size]
    got, want = _sigmoid(z), masked_sigmoid(z)
    assert got.shape == want.shape and got.dtype == want.dtype
    # equal bit patterns, so NaN == NaN and -0.0 != 0.0
    assert got.tobytes() == want.tobytes()
