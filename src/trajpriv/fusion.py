"""Minimal dense feed-forward network with analytic backpropagation.

One hidden layer, trained by mini-batch SGD on cross-entropy (or the
equivalent adversarial binary objective). Kept dependency-free on purpose:
gradients are checked against finite differences in the test suite.

A net keeps its parameters in one flat vector `theta`; W1, b1, W2 and b2
are views into it, so one SGD step is one subtraction. A net may also be
a stack of S nets of one shape: `theta` is then (S, n), every parameter
view carries a leading axis of length S (biases as (S, 1, h)) and every
input, activation and gradient a leading axis too, so one matmul over
(S, batch, d) runs all S nets. Forward, loss and backward serve both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HIDDEN_ACTS = ("sigmoid", "relu", "tanh")
OUTPUT_ACTS = ("sigmoid", "softmax")
LOSSES = ("cross_entropy", "gan_minimax")
_PARAMS = ("W1", "b1", "W2", "b2")      # a net's parameters, in theta's order


def _sigmoid(z):
    # e^min(z, 0) / (1 + e^-|z|): 1 / (1 + e^-z) for z >= 0 and
    # e^z / (1 + e^z) below, each as one division, so exp never overflows;
    # min(z, -z) is -|z| that keeps a NaN's sign
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(np.minimum(z, -z)))


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _activate(z, kind):
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "softmax":
        return _softmax(z)
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

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be at least 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


def _views(flat, sizes):
    """W1, b1, W2, b2 as views into a flat parameter vector laid out in
    that order, or into each row of an (S, n) stack of them."""
    d_in, d_h, d_out = sizes
    lead = flat.shape[:-1]
    # a stack's biases as (S, 1, h): an (S, h) bias would broadcast
    # against a last batch of exactly S rows without error, and wrongly
    bias = (1,) * len(lead)
    views, start = [], 0
    for shape in ((d_in, d_h), bias + (d_h,), (d_h, d_out), bias + (d_out,)):
        stop = start + math.prod(shape)
        views.append(flat[..., start:stop].reshape(lead + shape))
        start = stop
    if start != flat.shape[-1]:
        raise ValueError(f"{flat.shape[-1]} parameters for sizes {sizes}, "
                         f"not {start}")
    return views


def _param(i):
    """The i-th parameter view of a net as a property whose assignment
    writes into the view, so that `theta` holds the new values."""
    def put(net, value):
        view = net._params[i]
        if np.shape(value) != view.shape:
            raise ValueError(f"{_PARAMS[i]} has shape {view.shape}, "
                             f"not {np.shape(value)}")
        view[...] = value
    return property(lambda net: net._params[i], put)


@dataclass
class DenseNet:
    """[d_in, d_hidden, d_out] fully connected network.

    W1, b1, W2 and b2 are views into `theta`; assigning one writes into
    its view."""

    sizes: tuple
    hidden_act: str = "sigmoid"
    output_act: str = "sigmoid"
    theta: np.ndarray = field(default=None, repr=False)
    W1, b1, W2, b2 = (_param(i) for i in range(len(_PARAMS)))

    def __post_init__(self):
        if len(self.sizes) != 3:
            raise ValueError("sizes must be [d_in, d_hidden, d_out]")
        if self.hidden_act not in HIDDEN_ACTS:
            raise ValueError(f"hidden_act must be one of {HIDDEN_ACTS}")
        if self.output_act not in OUTPUT_ACTS:
            raise ValueError(f"output_act must be one of {OUTPUT_ACTS}")
        if self.theta is None:
            d_in, d_h, d_out = self.sizes
            self.theta = np.zeros(d_in * d_h + d_h + d_h * d_out + d_out)
        self._params = _views(self.theta, self.sizes)

    @classmethod
    def init(cls, sizes, hidden_act="sigmoid", output_act="sigmoid", seed=0):
        """Seeded uniform init in +-1/sqrt(fan_in)."""
        rng = np.random.default_rng(seed)
        d_in, d_h, d_out = sizes
        s1 = 1.0 / np.sqrt(d_in)
        s2 = 1.0 / np.sqrt(d_h)
        net = cls(tuple(sizes), hidden_act, output_act)
        net.W1[...] = rng.uniform(-s1, s1, (d_in, d_h))
        net.b1[...] = rng.uniform(-s1, s1, d_h)
        net.W2[...] = rng.uniform(-s2, s2, (d_h, d_out))
        net.b2[...] = rng.uniform(-s2, s2, d_out)
        return net

    def copy(self):
        return DenseNet(self.sizes, self.hidden_act, self.output_act,
                        theta=self.theta.copy())

    def forward(self, X, return_hidden=False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[-1] != self.sizes[0]:
            raise ValueError(f"input dim {X.shape[-1]} != {self.sizes[0]}")
        Y, H = self._forward(X)
        if return_hidden:
            return Y, H
        return Y

    def _forward(self, X):
        """(output, hidden activations) of a float input already checked."""
        Z = X @ self.W1
        Z += self.b1
        H = _activate(Z, self.hidden_act)
        Z = H @ self.W2
        Z += self.b2
        return _activate(Z, self.output_act), H


_EPS = 1e-12


def cross_entropy(P, Y, softmax=False):
    """Mean cross-entropy of outputs P for targets Y; one per stacked net."""
    if softmax:
        per_net = -np.mean(np.sum(Y * np.log(P + _EPS), axis=-1), axis=-1)
    else:
        per_net = -np.mean(Y * np.log(P + _EPS)
                           + (1 - Y) * np.log(1 - P + _EPS), axis=(-2, -1))
    return float(per_net) if per_net.ndim == 0 else per_net


def loss_value(net, X, Y, loss="cross_entropy"):
    """Mean batch loss, or one per net of a stack. gan_minimax shares the
    binary cross-entropy form: the adversarial direction is encoded in the
    targets by the caller."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss}")
    return cross_entropy(net.forward(X), Y, net.output_act == "softmax")


class Gradients(dict):
    """A net's parameter gradients by name, as views into one flat vector
    `flat` laid out like the net's `theta`."""

    def __init__(self, net):
        self.flat = np.empty_like(net.theta)
        super().__init__(zip(_PARAMS, _views(self.flat, net.sizes)))


def backward(net, X, H, dZ2, grads):
    """One backward pass through the net.

    Given the input X, the hidden activations H of its forward pass and a
    loss's gradient dZ2 at the output pre-activation, writes the gradients
    of that loss w.r.t. every parameter into `grads` and returns the
    gradient dZ1 at the hidden pre-activation; the input's gradient is
    dZ1 @ W1ᵀ."""
    stacked = X.ndim == 3
    dZ1 = _hidden_delta(net, H, dZ2)
    np.matmul(_T(X), dZ1, out=grads["W1"])
    np.add.reduce(dZ1, axis=-2, keepdims=stacked, out=grads["b1"])
    np.matmul(_T(H), dZ2, out=grads["W2"])
    np.add.reduce(dZ2, axis=-2, keepdims=stacked, out=grads["b2"])
    return dZ1


def _hidden_delta(net, H, dZ2):
    """The gradient dZ1 at the hidden pre-activation of a loss whose
    gradient at the output pre-activation is dZ2, H being the hidden
    activations of the forward pass."""
    dZ1 = dZ2 @ _T(net.W2)
    dZ1 *= _hidden_deriv(H, net.hidden_act)
    return dZ1


def _T(A):
    """Transpose of a matrix, or of each matrix in a stack."""
    return A.swapaxes(-1, -2)


def sgd_step(net, grads, lr):
    """One in-place gradient-descent step on the net's parameters; scales
    `grads` by lr on the way."""
    grads.flat *= lr
    net.theta -= grads.flat


def _output_delta(net, X, Y):
    """Outputs P, hidden activations H and the gradient dZ2 at the output
    pre-activation of the mean cross-entropy of a checked batch."""
    P, H = net._forward(X)
    # both cases reduce to (p - y) at the pre-activation, modulo the
    # sigmoid case using the per-unit Bernoulli form
    dZ2 = P - Y
    dZ2 /= X.shape[-2]
    return P, H, dZ2


def batch_grads(net, X, Y, grads):
    """Gradients of the mean cross-entropy of a checked batch into grads;
    returns its outputs P."""
    P, H, dZ2 = _output_delta(net, X, Y)
    backward(net, X, H, dZ2, grads)
    return P


def input_delta(net, X, Y):
    """Outputs P and the hidden gradient dZ1 of the mean cross-entropy of a
    checked batch, with no parameter gradient: the gradient at the input
    is dZ1 @ W1ᵀ."""
    P, H, dZ2 = _output_delta(net, X, Y)
    return P, _hidden_delta(net, H, dZ2)


def backprop_grads(net, X, Y, loss="cross_entropy"):
    """Analytic gradients of the mean batch loss w.r.t. all parameters."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[-2] == 0:
        raise ValueError("empty batch")
    if X.shape[-1] != net.sizes[0]:
        raise ValueError(f"input dim {X.shape[-1]} != {net.sizes[0]}")
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss}")
    grads = Gradients(net)
    batch_grads(net, X, Y, grads)
    return grads


class DivergenceError(RuntimeError):
    def __init__(self, epoch, net):
        super().__init__(f"non-finite parameters after epoch {epoch} "
                         f"in net {net}")
        self.epoch = epoch
        self.net = net


def train(nets, X, Y, cfg):
    """Mini-batch SGD of S nets of one shape in one stacked run.

    Net s learns from X[s] (rows, d_in) against the targets Y that every
    net shares; all nets see the same batches. Returns the trained copies,
    each equal to training its net alone. DivergenceError names the first
    epoch after which a net's parameters are not all finite, and the
    net."""
    # C order, and batches gathered by take, so that each net's slice of X
    # and of every batch has a lone net's strides and numpy multiplies it
    # the same way
    X = np.ascontiguousarray(X, dtype=float)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if not nets or X.ndim != 3 or X.shape[0] != len(nets):
        raise ValueError("X must stack one (rows, d_in) array per net")
    rows = X.shape[1]
    if rows == 0:
        raise ValueError("empty dataset")
    if rows != Y.shape[0]:
        raise ValueError(f"{rows} input rows but {Y.shape[0]} targets")
    first = nets[0]
    kind = (tuple(first.sizes), first.hidden_act, first.output_act)
    if any((tuple(n.sizes), n.hidden_act, n.output_act) != kind
           for n in nets):
        raise ValueError("stacked nets must share sizes and activations")
    if X.shape[2] != first.sizes[0]:
        raise ValueError(f"input dim {X.shape[2]} != {first.sizes[0]}")
    stack = DenseNet(*kind, theta=np.stack([n.theta for n in nets]))
    grads = Gradients(stack)
    rng = np.random.default_rng(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng.permutation(rows)
        X_epoch, Y_epoch = X.take(order, axis=1), Y.take(order, axis=0)
        for start in range(0, rows, cfg.batch_size):
            stop = start + cfg.batch_size
            batch_grads(stack, X_epoch[:, start:stop], Y_epoch[start:stop],
                        grads)
            sgd_step(stack, grads, cfg.learning_rate)
        diverged = np.flatnonzero(~np.isfinite(stack.theta).all(axis=1))
        if diverged.size:
            raise DivergenceError(epoch, int(diverged[0]))
    return [DenseNet(*kind, theta=theta) for theta in stack.theta]


def _average_ranks(x):
    """1-based ranks of a finite 1-D array, tied values sharing the mean
    of their ranks: a tie group at sorted places start..end-1 takes
    (start + 1 + end) / 2, exactly as scipy.stats.rankdata's "average"."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def evaluate(scores, labels):
    """Precision / recall / F1 at score threshold 0.5 plus rank-statistic
    AUC."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).astype(bool).ravel()
    if scores.size == 0 or scores.size != labels.size:
        raise ValueError("scores and labels must be equal-length, nonempty")
    bad = int(np.count_nonzero(~np.isfinite(scores)))
    if bad:
        raise ValueError(f"{bad} of {scores.size} scores are NaN or inf")
    pred = scores >= 0.5
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
    ranks = _average_ranks(scores)
    auc = (ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return {"precision": precision, "recall": recall, "f1": f1,
            "auc": float(auc)}
