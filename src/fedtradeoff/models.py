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

A gradient pass comes in two parts. ``prepare(spec, theta, y)`` validates
theta and the labels once and takes what they alone fix: the kind's views of
theta, with the transposes and broadcast biases its products take, and the
softmax kinds' one-hot labels. The ``Prepared`` pass it returns then runs on
any x: a call gives the per-example parameter gradients and a deferred input
VJP that reuses that call's forward values. ``per_example_grads`` gives a
fresh pass's gradients, so every caller goes through the one forward pass and
the one VJP of each kind. A pass prepared once and called on many x (an
inversion's steps) gives at each x, bit for bit, what a fresh pass gives
there: a call runs the same operations in the same order and writes only
arrays of its own.

Losses are per example, and a batch's loss is their mean, whose gradient is
``per_example_grads(...).mean(axis=0)``. Everything is float64 and pure:
identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, require_int

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
        if self.kind != "mlp1" and self.hidden_dim:
            raise ConfigurationError(
                f"hidden_dim must be 0 for a {self.kind} model, not {self.hidden_dim}")
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
    """Softmax over the last axis, computed in z's own memory."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))      # in [0, 1]: never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _checked(spec: ModelSpec, theta: np.ndarray,
             y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validated float64 ``(theta, y)``: theta (..., param_dim) and a non-empty
    y (..., m) with the same leading (trial) axes."""
    theta = np.asarray(theta, dtype=np.float64)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if y.shape[-1] == 0:
        raise ConfigurationError("batch must be non-empty")
    if theta.shape != y.shape[:-1] + (spec.param_dim,):
        raise ConfigurationError(f"param vector shape {theta.shape} != "
                                 f"{y.shape[:-1] + (spec.param_dim,)}")
    return theta, y


def _features(spec: ModelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x as validated float64 (..., m, input_dim), one row per label of y."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[-1] != spec.input_dim:
        raise ConfigurationError(f"feature dim {x.shape[-1]} != input_dim {spec.input_dim}")
    if x.shape[:-1] != y.shape:
        raise ConfigurationError("feature/label count mismatch")
    return x


def prepare(spec: ModelSpec, theta: np.ndarray, y: np.ndarray) -> "Prepared":
    """The part of a forward pass that theta (..., param_dim) and the labels
    y (..., m) fix, validated once; the returned pass runs on any x
    (..., m, input_dim) with the same leading axes."""
    return Prepared(spec, *_checked(spec, theta, y))


class Prepared:
    """One model at theta, and with labels y the gradient pass at any x.

    Taken once: the kind's views of theta (the softmax weights, or mlp1's W1,
    b1, W2 and b2, with the transposes and broadcast biases its products
    take) and the softmax kinds' one-hot labels. ``scores(x)`` and a call on
    x run the rest of the forward pass. The views share theta's memory, so
    values written into that array later (a training step in place) are the
    ones the next call runs on, bit for bit as a fresh pass over them.
    ``prepare`` validates theta and y; ``per_example_losses`` and ``predict``
    build one without labels, for its scores alone."""

    def __init__(self, spec: ModelSpec, theta: np.ndarray, y: np.ndarray | None = None):
        self.spec, self.theta, self.y = spec, theta, y
        self.kind = ("binary" if spec.kind == "logistic" and spec.num_classes == 2
                     else spec.kind)
        if self.kind == "logistic":
            self.w = theta.reshape(*theta.shape[:-1], spec.num_classes, spec.input_dim)
            self.wt = _mt(self.w)
        elif self.kind == "mlp1":
            self.w1, b1, self.w2, b2 = _unpack_mlp(spec, theta)
            self.w1t, self.w2t = _mt(self.w1), _mt(self.w2)
            self.b1, self.b2 = b1[..., None, :], b2[..., None, :]
        if y is not None and self.kind in ("logistic", "mlp1"):
            self.onehot = (y.astype(np.int64)[..., None]
                           == np.arange(spec.num_classes)).astype(np.float64)

    def take(self, rows) -> "Prepared":
        """The pass of the trials ``rows`` (an index or mask on the leading
        axis), built from ``theta[rows]`` and ``y[rows]`` as ``prepare``
        builds it, so its views have the layout, and its products the BLAS
        calls, of a fresh pass over those rows."""
        return Prepared(self.spec, self.theta[rows], self.y[rows])

    def scores(self, x: np.ndarray):
        """The kind's one forward pass over x (..., m, p): its scores, and for
        mlp1 the hidden activations a = tanh(W1 x + b1) (else None). The
        scores are theta . x for linear and binary logistic, the logits W x
        for softmax and W2 a + b2 for mlp1."""
        if self.kind == "logistic":
            return x @ self.wt, None
        if self.kind != "mlp1":
            return _mv(x, self.theta), None
        a = x @ self.w1t                                 # (..., m, h)
        a += self.b1
        np.tanh(a, out=a)
        z = a @ self.w2t
        z += self.b2
        return z, a

    def __call__(self, x: np.ndarray):
        """Per-example parameter gradients g (..., m, param_dim) at x, and
        ``vjp``: row i of ``vjp(v)`` is (d g_i / d x_i)^T v, the mixed
        derivative d/dx (g^T v) in closed form (Pearlmutter's R-operator), one
        reverse pass through g_i . v over this call's forward values. Trial
        axes: theta (B, param_dim), x (B, m, p) and y (B, m) give g (B, m,
        param_dim) and take v (B, param_dim); every contraction is a stacked
        ``np.matmul`` that runs the same BLAS call per trial as the unbatched
        product, so no trial's values depend on the batch it is in."""
        x = _features(self.spec, x, self.y)
        z, a = self.scores(x)
        if self.kind == "linear":
            r = z - self.y
            return r[..., None] * x, partial(_linear_vjp, r, x, self.theta)
        if self.kind == "binary":
            s = _sigmoid(z)
            r = s - self.y
            return r[..., None] * x, partial(_binary_vjp, r, s, x, self.theta)
        probs = _softmax(z)
        dlogits = probs - self.onehot                    # the logit gradient P - e_y
        if self.kind == "logistic":
            grads = (dlogits[..., :, None] * x[..., None, :]).reshape(*x.shape[:-1], -1)
            return grads, partial(_softmax_vjp, x, self.w, probs, dlogits)
        # mlp1: each parameter block's gradient goes straight into its columns
        spec, lead = self.spec, x.shape[:-1]             # (..., m)
        p, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
        grads = np.empty(lead + (spec.param_dim,))
        w1_end, b1_end = h * p, h * p + h
        w2_end = b1_end + c * h
        np.multiply(dlogits[..., :, None], a[..., None, :],
                    out=grads[..., b1_end:w2_end].reshape(*lead, c, h))
        da = dlogits @ self.w2                           # (..., m, h)
        ga = a * a
        np.subtract(1.0, ga, out=ga)                     # 1 - a^2
        dz = da * ga                                     # the b1 gradient; dlogits is b2's
        np.multiply(dz[..., :, None], x[..., None, :],
                    out=grads[..., :w1_end].reshape(*lead, h, p))
        grads[..., w1_end:b1_end] = dz
        grads[..., w2_end:] = dlogits
        return grads, partial(self._mlp1_vjp, x, a, probs, dlogits, da, ga, dz)

    def _mlp1_vjp(self, x, a, probs, dlogits, da, ga, dz, v):
        # s = dz.q1 + dl.q2 with q1 = V1 x + vb1, q2 = V2 a + vb2, where
        # (V1, vb1, V2, vb2) is v in the parameter layout; reverse through it:
        #   r = q2 + (q1 ga) W2^T                    (ds/d dlogits)
        #   glogits = P r - P (P.r)
        #   abar = dl V2 + glogits W2 - 2 a da q1
        #   vjp = dz V1 + (abar ga) W1
        # each in that order, in place over its own temporaries
        v1, vb1, v2, vb2 = _unpack_mlp(self.spec, v)
        q1 = x @ _mt(v1)                                 # (..., m, h)
        q1 += vb1[..., None, :]
        q2 = a @ _mt(v2)                                 # (..., m, c)
        q2 += vb2[..., None, :]
        r = (q1 * ga) @ self.w2t
        np.add(q2, r, out=r)
        pr = np.multiply(probs, r, out=r)
        glogits = probs * pr.sum(axis=-1, keepdims=True)
        np.subtract(pr, glogits, out=glogits)
        abar = dlogits @ v2
        abar += glogits @ self.w2
        t = np.multiply(2.0, a)
        t *= da
        t *= q1
        abar -= t
        abar *= ga
        out = dz @ v1
        out += abar @ self.w1
        return out


def per_example_losses(spec: ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses, shape (m,).

    Leading trial axes are allowed as in a ``Prepared`` pass:
    theta (B, param_dim), x (B, m, p) and y (B, m) give (B, m), each row
    bit-identical to its own unbatched call.
    """
    theta, y = _checked(spec, theta, y)
    z, _ = Prepared(spec, theta).scores(_features(spec, x, y))
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
    return prepare(spec, theta, y)(x)[0]


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


def predict(spec: ModelSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hard class predictions, shape (m,), integer labels."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    z, _ = Prepared(spec, np.asarray(theta, dtype=np.float64)).scores(x)
    if spec.kind == "linear":
        return np.clip(np.rint(z), 0, spec.num_classes - 1).astype(np.int64)
    if spec.kind == "logistic" and spec.num_classes == 2:
        return (z >= 0.0).astype(np.int64)
    return np.argmax(z, axis=-1).astype(np.int64)

