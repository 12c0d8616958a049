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

Losses are per example, and a batch's loss is their mean (``grad_params``
is its gradient). Everything is float64 and pure: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, NumericError, require_int

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
        require_int("input_dim", self.input_dim, 1)
        require_int("hidden_dim", self.hidden_dim, 1 if self.kind == "mlp1" else 0)
        require_int("num_classes", self.num_classes,
                    2 if self.kind in ("logistic", "mlp1") else 1)

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
    lead = theta.shape[:-1]
    i = 0
    w1 = theta[..., i:i + h * p].reshape(*lead, h, p); i += h * p
    b1 = theta[..., i:i + h]; i += h
    w2 = theta[..., i:i + c * h].reshape(*lead, c, h); i += c * h
    b2 = theta[..., i:i + c]
    return w1, b1, w2, b2


def _check_batch(spec: ModelSpec, theta: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated float64 ``(theta, x, y)``: theta (..., param_dim), x (..., m, p),
    y (..., m), with the same leading (trial) axes on all three."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape[-2] == 0:
        raise ConfigurationError("batch must be non-empty")
    if x.shape[-1] != spec.input_dim:
        raise ConfigurationError(f"feature dim {x.shape[-1]} != input_dim {spec.input_dim}")
    if y.shape != x.shape[:-1]:
        raise ConfigurationError("feature/label count mismatch")
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != x.shape[:-2] + (spec.param_dim,):
        raise ConfigurationError(f"param vector shape {theta.shape} != "
                                 f"{x.shape[:-2] + (spec.param_dim,)}")
    return theta, x, y


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product ``a @ v`` over any leading axes."""
    return np.matmul(a, v[..., None])[..., 0]


def _mt(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return a.swapaxes(-1, -2)


# A last axis shorter than _NARROW, over at least _ROWS rows, is walked column
# by column: each numpy call then runs its inner loop down a column, not over
# a few elements per row. Both bounds are measured crossovers (numpy 2.4 on
# 2 cores, blocks of 1 to 256 trials of 16 rows): at 2 and 3 columns the
# column-by-column distance sum wins from 256 rows on and the outer product
# from 512 (it ties at 256 rows with 2 columns and loses with 3); at 4
# columns the outer product wins only from about 1,024 rows, and at 5 to 7
# it ties or loses even at 1,600. They do not decide any bit:
# a product is the same in any loop, and numpy's pairwise summation adds a
# run of fewer than 8 elements in order, so a column-by-column sum keeps its
# bits while _NARROW <= 8.
_NARROW = 4
_ROWS = 512


def _by_column(rows: int, n: int) -> bool:
    return n < _NARROW and rows >= _ROWS


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[..., None] * b[..., None, :]``, bit for bit, one multiply per column
    where ``_by_column`` says so; b's leading axes broadcast to a's shape.
    (``einsum`` would not do: it turns a -0.0 product into +0.0.)"""
    n = b.shape[-1]
    if not _by_column(a.size, n):
        return a[..., None] * b[..., None, :]
    out = np.empty(a.shape + (n,))
    for j in range(n):
        np.multiply(a, b[..., j, None], out=out[..., j])
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_residual(logits: np.ndarray, yi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax probabilities P and the cross-entropy logit gradient P - e_y."""
    probs = _softmax(logits)
    return probs, probs - (yi[..., None] == np.arange(logits.shape[-1]))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))      # in [0, 1]: never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _scores(spec: ModelSpec, theta: np.ndarray, x: np.ndarray):
    """The kind's one forward pass over x (..., m, p): its scores and what the
    gradient pass reuses. theta . x and () for linear and binary logistic; the
    logits W x and (W,) for softmax; W2 a + b2 and (W1, W2, a) with
    a = tanh(W1 x + b1) for mlp1."""
    if spec.kind == "linear" or (spec.kind == "logistic" and spec.num_classes == 2):
        return _mv(x, theta), ()
    if spec.kind == "logistic":
        w = theta.reshape(*theta.shape[:-1], spec.num_classes, spec.input_dim)
        return x @ _mt(w), (w,)
    w1, b1, w2, b2 = _unpack_mlp(spec, theta)
    a = np.tanh(x @ _mt(w1) + b1[..., None, :])      # (..., m, h)
    return a @ _mt(w2) + b2[..., None, :], (w1, w2, a)


def per_example_losses(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses, shape (m,).

    Leading trial axes are allowed as in ``per_example_grads_and_vjp``:
    theta (B, param_dim), x (B, m, p) and y (B, m) give (B, m), each row
    bit-identical to its own unbatched call.
    """
    theta, x, y = _check_batch(spec, theta, x, y)
    z, _ = _scores(spec, theta, x)
    if spec.kind == "linear":
        r = z - y
        return 0.5 * r * r
    if spec.kind == "logistic" and spec.num_classes == 2:
        # log(1 + exp(-z*s)) with s = 2y-1, stable form
        return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    logp = _log_softmax(z)
    # C order, so that a later mean sums each row as an unbatched call would
    return -np.ascontiguousarray(
        np.take_along_axis(logp, y.astype(np.int64)[..., None], axis=-1)[..., 0])


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

    Leading trial axes are allowed: theta (B, param_dim), x (B, m, p) and
    y (B, m) give g (B, m, param_dim) and take v (B, param_dim). Every
    contraction is a stacked ``np.matmul`` that runs the same BLAS call per
    trial as the unbatched product, so each trial's values do not depend on
    the batch it is in.
    """
    grads, vjp, saved = _forward(spec, theta, x, y)
    return grads, partial(vjp, *saved)


def _forward(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    """Per-example gradients, the kind's input VJP and the forward values it reuses."""
    theta, x, y = _check_batch(spec, theta, x, y)
    z, saved = _scores(spec, theta, x)
    lead = x.shape[:-1]                              # (..., m)
    if spec.kind == "linear":
        r = z - y
        return r[..., None] * x, _linear_vjp, (r, x, theta)
    if spec.kind == "logistic" and spec.num_classes == 2:
        s = _sigmoid(z)
        r = s - y
        return r[..., None] * x, _binary_vjp, (r, s, x, theta)
    probs, dlogits = _softmax_residual(z, y.astype(np.int64))
    if spec.kind == "logistic":
        w, = saved
        grads = (dlogits[..., :, None] * x[..., None, :]).reshape(*lead, -1)
        return grads, _softmax_vjp, (x, w, probs, dlogits)
    w1, w2, a = saved
    gw2 = dlogits[..., :, None] * a[..., None, :]    # (..., m, c, h)
    da = dlogits @ w2                                # (..., m, h)
    ga = 1.0 - a * a
    dz = da * ga                                     # the b1 gradient; dlogits is b2's
    gw1 = dz[..., :, None] * x[..., None, :]         # (..., m, h, p)
    grads = np.concatenate([gw1.reshape(*lead, -1), dz, gw2.reshape(*lead, -1), dlogits],
                           axis=-1)
    return grads, _mlp1_vjp, (spec, x, w1, w2, a, probs, dlogits, da, ga, dz)


def _linear_vjp(r, x, theta, v):
    # g = r x with r = theta.x - y
    out = _outer(r, v)
    out += _outer(_mv(x, v), theta)
    return out


def _binary_vjp(r, s, x, theta, v):
    # g = r x with r = s - y, s = sigmoid(theta.x)
    out = _outer(r, v)
    out += _outer(s * (1.0 - s) * _mv(x, v), theta)
    return out


def _softmax_vjp(x, w, probs, d, v):
    # g = d x^T with d = P - e_y, P = softmax(W x); with V = v as (c, p)
    # and u = V x: V^T d + W^T (P*u - P (P.u))
    vm = v.reshape(w.shape)
    pu = probs * (x @ _mt(vm))
    return d @ vm + (pu - probs * pu.sum(axis=-1, keepdims=True)) @ w


def _mlp1_vjp(spec, x, w1, w2, a, probs, dlogits, da, ga, dz, v):
    # s = dz.q1 + dl.q2 with q1 = V1 x + vb1, q2 = V2 a + vb2, where
    # (V1, vb1, V2, vb2) is v in the parameter layout; reverse through it.
    v1, vb1, v2, vb2 = _unpack_mlp(spec, v)
    q1 = x @ _mt(v1) + vb1[..., None, :]             # (..., m, h)
    q2 = a @ _mt(v2) + vb2[..., None, :]             # (..., m, c)
    r = q2 + (q1 * ga) @ _mt(w2)                     # ds/d dlogits
    pr = probs * r
    glogits = pr - probs * pr.sum(axis=-1, keepdims=True)
    abar = dlogits @ v2 + glogits @ w2 - 2.0 * a * da * q1
    return dz @ v1 + (abar * ga) @ w1


def grad_params(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean batch loss w.r.t. the flattened parameters."""
    g = per_example_grads(spec, theta, x, y).mean(axis=0)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite parameter gradient")
    return g


def predict(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hard class predictions, shape (m,), integer labels."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    z, _ = _scores(spec, theta, x)
    if spec.kind == "linear":
        return np.clip(np.rint(z), 0, spec.num_classes - 1).astype(np.int64)
    if spec.kind == "logistic" and spec.num_classes == 2:
        return (z >= 0.0).astype(np.int64)
    return np.argmax(z, axis=-1).astype(np.int64)

