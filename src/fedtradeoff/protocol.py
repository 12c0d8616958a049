"""Four-step distorted-aggregation protocol over an in-memory channel.

Per round: clients decode the downloaded model, compute one full-batch local
gradient each, upload a protected version (one ``protect_batch`` call maps
every trial's (K, d) gradients to its (K, d) uploads), and the server takes a
weighted aggregation step. ``run_batch`` runs many trials' rounds at once on a
leading trial axis, each trial on its own seed. Bookkeeping per round:

* ``delta_up_grad[k]  = ||g_tilde_k - g_k||`` (gradient space, row k's 1-D norm) and
  ``delta_up_param[k] = eta_t * delta_up_grad[k]`` (parameter space).
* ``delta_two_grad    = ||decoded aggregated distorted gradient - true aggregate||``
  and ``delta_two_param = eta_t * delta_two_grad`` -- the one-step gap between
  the decoded protected update and the unprotected update from the same
  decoded state.
* ``shadow_gap        = ||decoded model - from-scratch unprotected model||``
  at the start of the round (diagnostic; zero for none and HE).

``MechanismSpec`` is the one mechanism type: configs serialize it, and
``protect_batch`` and ``run_batch`` take it as it is. Its kinds are ``none``,
``randomization`` and ``he_codec``. Randomization adds Gaussian noise drawn
on stream ``(seed, PROTECT, t, k + 1)`` for client k in round t, or on
``(seed, PROTECT, t, 0)`` for every client when the noise is shared; a run
draws all rounds' noise before round 0, from those same streams.

The HE mechanism is a simulated additively-homomorphic codec under a key
``(perm, offset)``: client k uploads ``g_k[perm] + offset``. Decryption is
exact, so the server keeps no ciphertext: it steps on the true aggregate, the
decoded trajectory is bit-equal to the unprotected one, and the wire view of
the model is ``theta[perm] + units * offset``, where ``units`` starts at 1 and
loses ``eta_t`` times the size-weighted sum of the clients' unit offsets each
round. A run draws its key once, from its seed on stream
``(seed, MECH)``. A model, gradient or update that is not finite ends the run
with ``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError, NumericError, require_bool, require_int, require_number

MECH_KINDS = ("none", "randomization", "he_codec")


@dataclass(frozen=True)
class MechanismSpec:
    """A protection mechanism as configs serialize it.

    ``sigma``, ``shared_noise`` (one delta for all clients) and ``exact_norm``
    (rescale delta to this norm) set randomization; ``offset_scale`` sets the
    he_codec offset, whose key a run draws once from its seed."""
    kind: str = "none"
    sigma: float = 0.0
    shared_noise: bool = False
    offset_scale: float = 1.0
    exact_norm: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MECH_KINDS:
            raise ConfigurationError(f"unknown mechanism kind: {self.kind!r}")
        for name in ("sigma", "offset_scale"):
            require_number(name, getattr(self, name))
        if self.exact_norm is not None:
            require_number("exact_norm", self.exact_norm)
        require_bool("shared_noise", self.shared_noise)
        if self.kind == "randomization" and not 0 <= self.sigma < math.inf:   # NaN fails too
            raise ConfigurationError("sigma must be >= 0 and finite")
        # every kind writes both into the manifest, which must stay strict JSON
        if not math.isfinite(self.sigma):
            raise ConfigurationError("sigma must be finite")
        if not math.isfinite(self.offset_scale):
            raise ConfigurationError(f"offset must be finite: offset_scale is {self.offset_scale}")
        if self.exact_norm is not None and not 0 <= self.exact_norm < math.inf:
            raise ConfigurationError("exact_norm must be >= 0 and finite")


def _he_key(dim: int, g: np.random.Generator,
            offset_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The he_codec key ``(permutation, offset)`` drawn from a run's stream
    ``(seed, MECH)``: a random permutation, then a Gaussian offset of scale
    ``offset_scale`` (all ones when that offset is all zero)."""
    perm = g.permutation(dim)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite offset raises below
        off = offset_scale * g.standard_normal(dim)
    if np.all(off == 0.0):
        off = np.ones(dim)
    if not np.all(np.isfinite(off)):
        raise ConfigurationError("offset must be finite")
    return perm, off


def protect_batch(grads: np.ndarray, mechs: list[MechanismSpec], noise: np.ndarray | None = None,
                  keys: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[np.ndarray, list[list[float]]]:
    """Apply trial b's mechanism to its round's (K, d) gradients ``grads[b]``, for
    mechanisms of one kind: the (B, K, d) wires and each trial's list of
    ``||wire - grad||`` per row. Row b equals trial b as a batch of one, bit
    for bit. Randomization adds ``sigma * noise[b]`` for (B, K, d)
    standard normals, each row rescaled to its trial's ``exact_norm`` when set;
    he_codec encrypts each row of trial b under key ``(perms[b], offsets[b])``
    (``_he_key``) to ``g[perm] + offset``."""
    grads = np.asarray(grads, dtype=np.float64)
    kind = mechs[0].kind
    if kind == "none":
        return grads.copy(), [[0.0] * grads.shape[1] for _ in grads]
    if kind == "he_codec" and keys is None:
        raise ConfigurationError("he_codec requires a key")
    with np.errstate(over="ignore"):          # a huge sigma records ||delta|| = inf
        if kind == "he_codec":
            b, k, _ = grads.shape
            wires = (grads[np.arange(b)[:, None, None], np.arange(k)[:, None], keys[0][:, None]]
                     + keys[1][:, None])
            delta = wires - grads
        else:
            delta = np.array([m.sigma for m in mechs], dtype=np.float64)[:, None, None] * noise
            for mech, rows, zs in zip(mechs, delta, noise):
                if mech.exact_norm is None:
                    continue
                for row, z in zip(rows, zs):          # each row rescaled in place
                    if not np.all(np.isfinite(row)):  # overflowed: take the direction from z
                        row[:] = z
                    n = np.linalg.norm(row)
                    if np.isinf(n):           # rescale the direction, not the overflow
                        row /= np.abs(row).max()
                        n = np.linalg.norm(row)
                    if n > 0:
                        row *= mech.exact_norm / n
            wires = grads + delta
        return wires, [_norms(rows) for rows in delta]


def _norms(rows: np.ndarray) -> list[float]:
    """Each row's 2-norm as ``np.linalg.norm`` of the row alone gives it: the
    square root of the contiguous row's ``dot`` with itself, which a stacked
    (1, d) @ (d, 1) ``np.matmul`` takes for every row at once (norm(axis=-1)
    sums in another order and would move its bits). Callers ignore overflow."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0]).tolist()


def weighted_sum(vectors: np.ndarray | list, sizes: list[int]) -> np.ndarray:
    """Size-weighted sum of a list's items or an array's rows, in fixed client
    order (shared by all trajectories)."""
    if len(vectors) != len(sizes) or not len(vectors):
        raise ConfigurationError("vectors/sizes length mismatch or empty")
    total = float(sum(sizes))
    if total <= 0:
        raise ConfigurationError("total dataset size must be > 0")
    acc = (sizes[0] / total) * vectors[0]
    for v, m in zip(vectors[1:], sizes[1:]):
        acc = acc + (m / total) * v
    return acc


@dataclass
class RoundRecord:
    round_index: int
    eta: float
    theta_decoded: np.ndarray          # model the clients trained on this round
    grads: np.ndarray                  # (K, d) true g_k
    wires: np.ndarray                  # (K, d) observed g_tilde_k
    delta_up_grad: list[float]
    delta_up_param: list[float]
    delta_two_grad: float
    delta_two_param: float
    shadow_gap: float
    theta_next_protected: np.ndarray   # wire view of the model after the update
    theta_next_decoded: np.ndarray     # the model after the update


@dataclass(frozen=True)
class FLRunConfig:
    rounds: int
    learning_rate: float = 0.1
    lr_schedule: str = "constant"      # constant | inv_sqrt
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self) -> None:
        require_int("rounds", self.rounds, 1)
        require_number("learning_rate", self.learning_rate)
        require_number("init_scale", self.init_scale)
        if not 0 < self.learning_rate < math.inf:     # NaN fails too
            raise ConfigurationError("learning rate must be finite and > 0")
        if not 0 <= self.init_scale < math.inf:
            raise ConfigurationError("init_scale must be finite and >= 0")
        if self.lr_schedule not in ("constant", "inv_sqrt"):
            raise ConfigurationError(f"unknown lr schedule: {self.lr_schedule!r}")


@dataclass
class RunResult:
    records: list[RoundRecord]
    theta_final_decoded: np.ndarray    # final model, as the clients decode it
    theta_final_shadow: np.ndarray     # from-scratch unprotected final model
    theta_final_protected: np.ndarray  # wire view of the final model


def _eta_at(config: FLRunConfig, t: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate / math.sqrt(t + 1.0)


def _gradients(model_spec: models.ModelSpec, datasets: list[list[ClientDataset]], n: int):
    """``grads(*thetas)``: the (n, B, K, d) full-batch gradients of the first n
    (B, d) models, row b on each of trial b's K clients. When every client has
    one size, the trials share one stacked call over leading axes (n, B, K), on
    inputs stacked once here; otherwise each model and client takes its own."""
    if len({ds.size for trial in datasets for ds in trial}) > 1:
        return lambda *thetas: np.array([[[models.per_example_grads(
            model_spec, row, ds.x, ds.y).mean(axis=0) for ds in trial]
            for row, trial in zip(th, datasets)] for th in thetas[:n]])
    x, y = (np.array([[[getattr(ds, f) for ds in trial] for trial in datasets]] * n,
                     dtype=np.float64) for f in "xy")
    stacked = np.empty(x.shape[:3] + (model_spec.param_dim,))

    def grads(*thetas):
        stacked[:] = np.array(thetas[:n])[:, :, None]
        return models.per_example_grads(model_spec, stacked, x, y).mean(axis=-2)
    return grads


def run_batch(model_spec: models.ModelSpec, config: FLRunConfig, mechs: list[MechanismSpec],
              datasets: list[list[ClientDataset]], seeds: list[int]) -> list[RunResult]:
    """Execute the protocol for each trial b: mechanism ``mechs[b]`` over the
    client data ``datasets[b]``, its protected and shadow trajectories seeded
    by ``seeds[b]``, and an he_codec run's key drawn from it once. Row b equals
    trial b run as a batch of one, bit for bit.

    The B trials are stacked on a leading axis: one ``_gradients`` call and one
    ``protect_batch`` call per round for all of them. The mechanisms share
    their kind and noise sharing, and the trials their client sizes; sigma,
    ``exact_norm`` and ``offset_scale`` may differ. Every trial's init,
    he_codec key and noise streams are seeded at once (``rng.streams``).
    ``config.seed`` is not read.

    Raises ``NumericError`` when a trial's model, gradient or update is not
    finite, in the first round where one is."""
    for trial in datasets:
        for ds in trial:
            if ds.x.shape[1] != model_spec.input_dim:
                raise ConfigurationError("dataset / model dimension mismatch")
            if ds.size == 0:
                raise ConfigurationError("client dataset is empty")
    sizes, kind, shared = [ds.size for ds in datasets[0]], mechs[0].kind, mechs[0].shared_noise
    if any([ds.size for ds in trial] != sizes for trial in datasets) or any(
            (m.kind, m.shared_noise) != (kind, shared) for m in mechs):
        raise ConfigurationError("stacked runs need one mechanism kind, noise sharing "
                                 "and list of client sizes")
    b, k, d, rounds = len(seeds), len(sizes), model_spec.param_dim, config.rounds
    with np.errstate(over="ignore"):       # an overflowing draw raises below
        theta = np.array([models.init_params(model_spec, g, config.init_scale)
                          for g in rngmod.streams(seeds, [(rngmod.STREAM_INIT,)] * b)])

    keys = None
    if kind == "he_codec":
        perms, offsets = zip(*[_he_key(d, g, m.offset_scale) for m, g in zip(
            mechs, rngmod.streams(seeds, [(rngmod.STREAM_MECH,)] * b))])
        keys = np.array(perms), np.array(offsets)
    units = np.ones(b)                 # offset units in the he_codec wire view of the model
    noise = [None] * rounds
    if kind == "randomization":
        clients = [0] if shared else range(1, k + 1)
        noise = rngmod.normals(
            [s for _ in range(rounds) for s in seeds for _ in clients],
            [(rngmod.STREAM_PROTECT, t, c) for t in range(rounds) for _ in seeds
             for c in clients], d).reshape(rounds, b, -1, d)
        if shared:
            noise = np.repeat(noise, k, axis=2)
    if not np.isfinite(theta).all():
        raise NumericError("run aborted: non-finite model at round 0")
    theta_shadow = theta.copy()
    # only noise moves the model off the shadow; without it one gradient set is both
    gradients = _gradients(model_spec, datasets, 2 if kind == "randomization" else 1)

    records: list[list[RoundRecord]] = [[] for _ in range(b)]
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value raises below
        for t in range(rounds):
            eta = _eta_at(config, t)
            shadow_gap = _norms(theta - theta_shadow)
            stacked = gradients(theta, theta_shadow)
            if not np.isfinite(stacked).all():
                raise NumericError(f"run aborted: non-finite gradient at round {t}: "
                                   "non-finite parameter gradient")
            grads = stacked[0]
            wires, delta_up = protect_batch(grads, mechs, noise[t], keys)

            # the server steps on what it decodes: the noisy wires under
            # randomization, else the true gradients (he_codec decrypts exactly);
            # weighted_sum runs over the client axis, 1
            true_agg = weighted_sum(grads.swapaxes(0, 1), sizes)
            agg = (weighted_sum(wires.swapaxes(0, 1), sizes) if kind == "randomization"
                   else true_agg)
            theta_next = theta - eta * agg
            # without noise the shadow takes the model's step from the model's state
            theta_shadow = (theta_next if len(stacked) == 1 else
                            theta_shadow - eta * weighted_sum(stacked[1].swapaxes(0, 1), sizes))
            d2g = _norms(agg - true_agg)
            if not np.isfinite(theta_next).all():
                raise NumericError(f"run aborted: non-finite update at round {t}")

            if keys is None:
                wire_view = theta_next
            else:
                units = units - eta * weighted_sum([1.0] * k, sizes)
                wire_view = (theta_next[np.arange(b)[:, None], keys[0]]
                             + units[:, None] * keys[1])
            for i, trial in enumerate(records):
                trial.append(RoundRecord(
                    round_index=t,
                    eta=eta,
                    theta_decoded=theta[i],
                    grads=grads[i],
                    wires=wires[i],
                    delta_up_grad=delta_up[i],
                    delta_up_param=[eta * u for u in delta_up[i]],
                    delta_two_grad=d2g[i],
                    delta_two_param=eta * d2g[i],
                    shadow_gap=shadow_gap[i],
                    theta_next_protected=wire_view[i],
                    theta_next_decoded=theta_next[i],
                ))
            theta = theta_next

    return [RunResult(trial, theta[i], theta_shadow[i], trial[-1].theta_next_protected)
            for i, trial in enumerate(records)]


def measure_utility_loss(model_spec: models.ModelSpec, theta: np.ndarray, delta: np.ndarray,
                         train_x: np.ndarray, train_y: np.ndarray, eval_x: np.ndarray,
                         eval_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Utility loss |L_exp(theta + delta) - L_emp(theta)| with a 95% halfwidth.

    L_exp is a Monte-Carlo mean of the per-example loss at theta + delta over
    the n >= 100 fresh draws ``(eval_x, eval_y)``; L_emp the empirical loss at
    theta on the client's rows ``(train_x, train_y)``. Leading trial axes are
    allowed as in ``models.per_example_losses``: theta and delta (B, d),
    train_x (B, m, p) and eval_x (B, n, p) give (B,) losses and halfwidths,
    each one bit-identical to its own unbatched call, whose results are 0-d.

    Raises ``NumericError`` when an L_emp is not finite.
    """
    n_eval = np.shape(eval_x)[-2]
    if n_eval < 100:
        raise ConfigurationError("n_eval must be >= 100")
    theta = np.asarray(theta, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite mean raises below
        l_emp = models.per_example_losses(model_spec, theta, train_x, train_y).mean(axis=-1)
    if not np.isfinite(l_emp).all():
        raise NumericError("non-finite loss")
    per = models.per_example_losses(model_spec, theta + delta, eval_x, eval_y)
    l_exp = per.mean(axis=-1)
    with np.errstate(over="ignore"):          # huge finite losses give halfwidth inf
        half = 1.96 * per.std(ddof=1, axis=-1) / math.sqrt(n_eval)
    return np.abs(l_exp - l_emp), half
