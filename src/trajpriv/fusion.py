"""Minimal dense feed-forward network with analytic backpropagation.

One hidden layer, trained by mini-batch SGD on cross-entropy (or the
equivalent adversarial binary objective). Kept dependency-free on purpose:
gradients are checked against finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

HIDDEN_ACTS = ("sigmoid", "relu", "tanh")
OUTPUT_ACTS = ("sigmoid", "softmax", "linear")
LOSSES = ("cross_entropy", "gan_minimax")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z, kind):
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "softmax":
        return _softmax(z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind}")


def _hidden_deriv(a, kind):
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "relu":
        return (a > 0).astype(float)
    if kind == "tanh":
        return 1.0 - a * a
    raise ValueError(f"unknown hidden activation {kind}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    loss: str = "cross_entropy"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


@dataclass
class DenseNet:
    """[d_in, d_hidden, d_out] fully connected network."""

    sizes: tuple
    hidden_act: str = "sigmoid"
    output_act: str = "sigmoid"
    W1: np.ndarray = field(default=None, repr=False)
    b1: np.ndarray = field(default=None, repr=False)
    W2: np.ndarray = field(default=None, repr=False)
    b2: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.sizes) != 3:
            raise ValueError("sizes must be [d_in, d_hidden, d_out]")
        if self.hidden_act not in HIDDEN_ACTS:
            raise ValueError(f"hidden_act must be one of {HIDDEN_ACTS}")
        if self.output_act not in OUTPUT_ACTS:
            raise ValueError(f"output_act must be one of {OUTPUT_ACTS}")
        d_in, d_h, d_out = self.sizes
        if self.W1 is None:
            self.W1 = np.zeros((d_in, d_h))
            self.b1 = np.zeros(d_h)
            self.W2 = np.zeros((d_h, d_out))
            self.b2 = np.zeros(d_out)

    @classmethod
    def init(cls, sizes, hidden_act="sigmoid", output_act="sigmoid", seed=0):
        """Seeded uniform init in +-1/sqrt(fan_in)."""
        rng = np.random.default_rng(seed)
        d_in, d_h, d_out = sizes
        s1 = 1.0 / np.sqrt(d_in)
        s2 = 1.0 / np.sqrt(d_h)
        net = cls(tuple(sizes), hidden_act, output_act)
        net.W1 = rng.uniform(-s1, s1, (d_in, d_h))
        net.b1 = rng.uniform(-s1, s1, d_h)
        net.W2 = rng.uniform(-s2, s2, (d_h, d_out))
        net.b2 = rng.uniform(-s2, s2, d_out)
        return net

    def copy(self):
        net = DenseNet(self.sizes, self.hidden_act, self.output_act)
        net.W1, net.b1 = self.W1.copy(), self.b1.copy()
        net.W2, net.b2 = self.W2.copy(), self.b2.copy()
        return net

    def forward(self, X, return_hidden=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.sizes[0]:
            raise ValueError(f"input dim {X.shape[1]} != {self.sizes[0]}")
        H = _activate(X @ self.W1 + self.b1, self.hidden_act)
        Y = _activate(H @ self.W2 + self.b2, self.output_act)
        if return_hidden:
            return Y, H
        return Y

    def params(self):
        return {"W1": self.W1, "b1": self.b1, "W2": self.W2, "b2": self.b2}

    def to_json(self):
        return json.dumps({
            "sizes": list(self.sizes),
            "hidden_act": self.hidden_act, "output_act": self.output_act,
            "W1": self.W1.tolist(), "b1": self.b1.tolist(),
            "W2": self.W2.tolist(), "b2": self.b2.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        net = cls(tuple(d["sizes"]), d["hidden_act"], d["output_act"])
        net.W1 = np.array(d["W1"])
        net.b1 = np.array(d["b1"])
        net.W2 = np.array(d["W2"])
        net.b2 = np.array(d["b2"])
        return net


_EPS = 1e-12


def loss_value(net, X, Y, loss="cross_entropy"):
    """Mean batch loss. gan_minimax shares the binary cross-entropy form:
    the adversarial direction is encoded in the targets by the caller."""
    P = net.forward(X)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if loss in ("cross_entropy", "gan_minimax"):
        if net.output_act == "softmax":
            return float(-np.mean(np.sum(Y * np.log(P + _EPS), axis=1)))
        if net.output_act == "sigmoid":
            return float(-np.mean(Y * np.log(P + _EPS)
                                  + (1 - Y) * np.log(1 - P + _EPS)))
        raise ValueError("cross-entropy requires sigmoid or softmax output")
    raise ValueError(f"unknown loss {loss}")


def backprop_grads(net, X, Y, loss="cross_entropy"):
    """Analytic gradients of the mean batch loss w.r.t. all parameters."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    n = X.shape[0]
    P, H = net.forward(X, return_hidden=True)
    if loss in ("cross_entropy", "gan_minimax"):
        if net.output_act not in ("sigmoid", "softmax"):
            raise ValueError("cross-entropy requires sigmoid or softmax output")
        # both cases reduce to (p - y) at the pre-activation, modulo the
        # sigmoid case using the per-unit Bernoulli form
        dZ2 = (P - Y) / n
    else:
        raise ValueError(f"unknown loss {loss}")
    gW2 = H.T @ dZ2
    gb2 = dZ2.sum(axis=0)
    dH = dZ2 @ net.W2.T
    dZ1 = dH * _hidden_deriv(H, net.hidden_act)
    gW1 = X.T @ dZ1
    gb1 = dZ1.sum(axis=0)
    return {"W1": gW1, "b1": gb1, "W2": gW2, "b2": gb2}


class DivergenceError(RuntimeError):
    def __init__(self, epoch):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


def train(net, X, Y, cfg):
    """Mini-batch SGD; returns (trained copy, per-epoch loss trace)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    trace = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads = backprop_grads(net, X[idx], Y[idx], cfg.loss)
            net.W1 -= cfg.learning_rate * grads["W1"]
            net.b1 -= cfg.learning_rate * grads["b1"]
            net.W2 -= cfg.learning_rate * grads["W2"]
            net.b2 -= cfg.learning_rate * grads["b2"]
        ep_loss = loss_value(net, X, Y, cfg.loss)
        if not np.isfinite(ep_loss):
            raise DivergenceError(epoch)
        trace.append(ep_loss)
    return net, trace


def evaluate(scores, labels, threshold=0.5):
    """Precision / recall / F1 at a threshold plus rank-statistic AUC."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).astype(bool).ravel()
    if scores.size == 0 or scores.size != labels.size:
        raise ValueError("scores and labels must be equal-length, nonempty")
    pred = scores >= threshold
    tp = int(np.sum(pred & labels))
    fp = int(np.sum(pred & ~labels))
    fn = int(np.sum(~pred & labels))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative")
    ranks = rankdata(scores)
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return {"precision": precision, "recall": recall, "f1": f1,
            "auc": float(auc)}
