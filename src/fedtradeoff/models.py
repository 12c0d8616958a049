"""Tiny differentiable models with hand-derived parameter and input gradients.

Three kinds:

* ``linear``     -- squared error ``0.5 * (theta @ x - y)**2``, params ``theta`` of
  length ``input_dim``.
* ``logistic``   -- binary (num_classes == 2): sigmoid cross-entropy with a single
  weight vector of length ``input_dim``; multiclass: row-major softmax weight
  matrix ``W[c, p]`` flattened to length ``num_classes * input_dim``. No bias.
* ``mlp1``       -- one tanh hidden layer, softmax output, cross-entropy.

Parameter flattening order (fixed, relied on by distortion injection):

* linear:   ``theta`` as-is.
* logistic: ``W`` row-major (class-major) for the multiclass form.
* mlp1:     ``W1`` (hidden x input, row-major), ``b1``, ``W2`` (classes x hidden,
  row-major), ``b2`` -- concatenated in that order.

``per_example_grads_and_vjp`` runs one forward pass and returns the per-example
parameter gradients together with a deferred input VJP that reuses that pass's
cached values; ``per_example_grads`` is its first half.

All losses are mean-reduced over the batch. Everything is float64 and pure:
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, NumericError

VALID_KINDS = ("linear", "logistic", "mlp1")


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    hidden_dim: int = 0
    num_classes: int = 2

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ConfigurationError(f"unknown model kind: {self.kind!r}")
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if self.kind == "mlp1" and self.hidden_dim < 1:
            raise ConfigurationError("mlp1 requires hidden_dim >= 1")
        if self.kind in ("logistic", "mlp1") and self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")

    @property
    def param_dim(self) -> int:
        p, h, c = self.input_dim, self.hidden_dim, self.num_classes
        if self.kind == "linear":
            return p
        if self.kind == "logistic":
            return p if c == 2 else c * p
        return h * p + h + c * h + c


def init_params(spec: ModelSpec, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Gaussian init, flattened per the documented layout."""
    return scale * rng.standard_normal(spec.param_dim)


def _unpack_mlp(spec: ModelSpec, theta: np.ndarray):
    p, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    i = 0
    w1 = theta[i:i + h * p].reshape(h, p); i += h * p
    b1 = theta[i:i + h]; i += h
    w2 = theta[i:i + c * h].reshape(c, h); i += c * h
    b2 = theta[i:i + c]
    return w1, b1, w2, b2


def _check_batch(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape[0] == 0:
        raise ConfigurationError("batch must be non-empty")
    if x.shape[1] != spec.input_dim:
        raise ConfigurationError(f"feature dim {x.shape[1]} != input_dim {spec.input_dim}")
    if y.shape[0] != x.shape[0]:
        raise ConfigurationError("feature/label count mismatch")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (spec.param_dim,):
        raise ConfigurationError(f"param vector length {theta.shape} != ({spec.param_dim},)")
    return x, y


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_residual(logits: np.ndarray, yi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities P and the cross-entropy logit gradient P - e_y."""
    probs = _softmax(logits)
    d = probs.copy()
    d[np.arange(yi.shape[0]), yi] -= 1.0
    return probs, d


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))      # in [0, 1]: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def per_example_losses(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses, shape (m,)."""
    x, y = _check_batch(spec, theta, x, y)
    if spec.kind == "linear":
        r = x @ theta - y
        return 0.5 * r * r
    if spec.kind == "logistic" and spec.num_classes == 2:
        z = x @ theta
        # log(1 + exp(-z*s)) with s = 2y-1, stable form
        return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    yi = y.astype(np.int64)
    if spec.kind == "logistic":
        w = theta.reshape(spec.num_classes, spec.input_dim)
        logits = x @ w.T
    else:
        w1, b1, w2, b2 = _unpack_mlp(spec, theta)
        a = np.tanh(x @ w1.T + b1)
        logits = a @ w2.T + b2
    logp = _log_softmax(logits)
    return -logp[np.arange(x.shape[0]), yi]


def loss(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean per-example loss of the batch."""
    out = float(per_example_losses(spec, theta, x, y).mean())
    if not np.isfinite(out):
        raise NumericError("non-finite loss")
    return out


def per_example_grads(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example parameter gradients, shape (m, param_dim)."""
    return _forward(spec, theta, x, y)[0]


def per_example_grads_and_vjp(spec: ModelSpec, theta: np.ndarray, x: np.ndarray,
                              y: np.ndarray):
    """Per-example parameter gradients g, shape (m, param_dim), and ``vjp``.

    ``vjp(v)`` has row i = (d g_i / d x_i)^T v, shape (m, input_dim): the
    mixed derivative d/dx (g^T v) in closed form (Pearlmutter's R-operator),
    one reverse pass through the scalar g_i . v over this call's forward
    values, so a caller that needs both pays for one forward pass.
    """
    grads, vjp, saved = _forward(spec, theta, x, y)
    return grads, partial(vjp, *saved)


def _forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Per-example gradients, the kind's input VJP and the forward values it reuses."""
    x, y = _check_batch(spec, theta, x, y)
    m = x.shape[0]
    if spec.kind == "linear":
        r = x @ theta - y
        return r[:, None] * x, _linear_vjp, (r, x, theta)
    if spec.kind == "logistic" and spec.num_classes == 2:
        s = _sigmoid(x @ theta)
        return (s - y)[:, None] * x, _binary_vjp, (s, y, x, theta)
    yi = y.astype(np.int64)
    if spec.kind == "logistic":
        c, p = spec.num_classes, spec.input_dim
        w = theta.reshape(c, p)
        probs, d = _softmax_residual(x @ w.T, yi)
        return (d[:, :, None] * x[:, None, :]).reshape(m, c * p), _softmax_vjp, (x, w, probs, d)
    w1, b1, w2, b2 = _unpack_mlp(spec, theta)
    a = np.tanh(x @ w1.T + b1)                       # (m, h)
    probs, dlogits = _softmax_residual(a @ w2.T + b2, yi)
    gw2 = dlogits[:, :, None] * a[:, None, :]        # (m, c, h)
    gb2 = dlogits
    da = dlogits @ w2                                # (m, h)
    ga = 1.0 - a * a
    dz = da * ga
    gw1 = dz[:, :, None] * x[:, None, :]             # (m, h, p)
    gb1 = dz
    grads = np.concatenate([gw1.reshape(m, -1), gb1, gw2.reshape(m, -1), gb2], axis=1)
    return grads, _mlp1_vjp, (spec, x, w1, w2, a, probs, dlogits, da, ga, dz)


def _linear_vjp(r, x, theta, v):
    # g = r x with r = theta.x - y
    return r[:, None] * v[None, :] + (x @ v)[:, None] * theta[None, :]


def _binary_vjp(s, y, x, theta, v):
    # g = (s - y) x with s = sigmoid(theta.x)
    return (s - y)[:, None] * v[None, :] + (s * (1.0 - s) * (x @ v))[:, None] * theta[None, :]


def _softmax_vjp(x, w, probs, d, v):
    # g = d x^T with d = P - e_y, P = softmax(W x); with V = v as (c, p)
    # and u = V x: V^T d + W^T (P*u - P (P.u))
    vm = v.reshape(w.shape)
    pu = probs * (x @ vm.T)
    return d @ vm + (pu - probs * pu.sum(axis=1, keepdims=True)) @ w


def _mlp1_vjp(spec, x, w1, w2, a, probs, dlogits, da, ga, dz, v):
    # s = dz.q1 + dl.q2 with q1 = V1 x + vb1, q2 = V2 a + vb2, where
    # (V1, vb1, V2, vb2) is v in the parameter layout; reverse through it.
    v1, vb1, v2, vb2 = _unpack_mlp(spec, v)
    q1 = x @ v1.T + vb1                              # (m, h)
    q2 = a @ v2.T + vb2                              # (m, c)
    r = q2 + (q1 * ga) @ w2.T                        # ds/d dlogits
    pr = probs * r
    glogits = pr - probs * pr.sum(axis=1, keepdims=True)
    abar = dlogits @ v2 + glogits @ w2 - 2.0 * a * da * q1
    return dz @ v1 + (abar * ga) @ w1


def grad_params(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean batch loss w.r.t. the flattened parameters."""
    g = per_example_grads(spec, theta, x, y).mean(axis=0)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite parameter gradient")
    return g


def grad_input(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """Gradient of the single-example loss w.r.t. the feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ConfigurationError("grad_input expects a single example")
    xb, yb = _check_batch(spec, theta, x[None, :], np.atleast_1d(y))
    if spec.kind == "linear":
        r = float(xb[0] @ theta - yb[0])
        return r * theta
    if spec.kind == "logistic" and spec.num_classes == 2:
        z = float(xb[0] @ theta)
        s = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
        return (s - yb[0]) * theta
    yi = int(yb[0])
    if spec.kind == "logistic":
        w = theta.reshape(spec.num_classes, spec.input_dim)
        probs = _softmax(w @ xb[0])
        d = probs.copy()
        d[yi] -= 1.0
        return w.T @ d
    w1, b1, w2, b2 = _unpack_mlp(spec, theta)
    a = np.tanh(w1 @ xb[0] + b1)
    probs = _softmax(w2 @ a + b2)
    d = probs.copy()
    d[yi] -= 1.0
    dz = (w2.T @ d) * (1.0 - a * a)
    return w1.T @ dz


def predict(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hard class predictions, shape (m,), integer labels."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if spec.kind == "linear":
        return np.clip(np.rint(x @ theta), 0, spec.num_classes - 1).astype(np.int64)
    if spec.kind == "logistic" and spec.num_classes == 2:
        return (x @ theta >= 0.0).astype(np.int64)
    if spec.kind == "logistic":
        w = theta.reshape(spec.num_classes, spec.input_dim)
        return np.argmax(x @ w.T, axis=1).astype(np.int64)
    w1, b1, w2, b2 = _unpack_mlp(spec, theta)
    a = np.tanh(x @ w1.T + b1)
    return np.argmax(a @ w2.T + b2, axis=1).astype(np.int64)


def finite_diff_check(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
                      step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per coordinate: |analytic - central| / (|analytic| + step).
    """
    if step <= 0:
        raise ConfigurationError("step must be > 0")
    theta = np.asarray(theta, dtype=np.float64)
    analytic = grad_params(spec, theta, x, y)
    worst = 0.0
    for j in range(theta.shape[0]):
        tp = theta.copy(); tp[j] += step
        tm = theta.copy(); tm[j] -= step
        num = (loss(spec, tp, x, y) - loss(spec, tm, x, y)) / (2.0 * step)
        err = abs(analytic[j] - num) / (abs(analytic[j]) + step)
        worst = max(worst, err)
    return worst


def finite_diff_check_input(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y,
                            step: float = 1e-5) -> float:
    """Same check for the input gradient of a single example."""
    if step <= 0:
        raise ConfigurationError("step must be > 0")
    x = np.asarray(x, dtype=np.float64)
    analytic = grad_input(spec, theta, x, y)
    worst = 0.0
    for j in range(x.shape[0]):
        xp = x.copy(); xp[j] += step
        xm = x.copy(); xm[j] -= step
        num = (loss(spec, theta, xp, np.atleast_1d(y)) - loss(spec, theta, xm, np.atleast_1d(y))) / (2.0 * step)
        err = abs(analytic[j] - num) / (abs(analytic[j]) + step)
        worst = max(worst, err)
    return worst
