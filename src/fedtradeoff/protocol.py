"""Four-step distorted-aggregation protocol over an in-memory channel.

Per round: clients decode the downloaded model, compute one full-batch local
gradient each, upload a protected version, and the server steps on the mean
of the K uploads (every client holds the same number of rows, so each weighs
1/K). ``run_batch`` runs many trials' rounds at once on a leading trial axis,
each trial on its own seed, and keeps each round's quantities on a leading
round axis of its ``RunResult``, whose ``record(t)`` is round t's
``RoundRecord``. Bookkeeping per round:

* ``delta_up_grad[k]  = ||g_tilde_k - g_k||`` (gradient space, row k's 1-D norm) and
  ``delta_up_param[k] = eta_t * delta_up_grad[k]`` (parameter space).
* ``delta_two_grad    = ||decoded aggregated distorted gradient - true aggregate||``
  and ``delta_two_param = eta_t * delta_two_grad`` -- the one-step gap between
  the decoded protected update and the unprotected update from the same
  decoded state.
* ``shadow_gap        = ||decoded model - from-scratch unprotected model||``
  at the start of the round (diagnostic; zero for none and HE).

``MechanismSpec`` is the one mechanism type: configs serialize it, and
``run_batch`` takes it as it is. Its kinds are ``none``, ``randomization``
and ``he_codec``. Randomization adds Gaussian noise drawn on stream
``(seed, PROTECT, t, k + 1)`` for client k in round t, or on
``(seed, PROTECT, t, 0)`` for every client when the noise is shared; a run
draws all rounds' noise before round 0, from those same streams, and takes
every round's distortion and its norms from it there.

The HE mechanism is a simulated additively-homomorphic codec under a key
``(perm, offset)``: client k uploads ``g_k[perm] + offset``. Decryption is
exact, so the server keeps no ciphertext: it steps on the true aggregate, the
decoded trajectory is bit-equal to the unprotected one, and the wire view of
the model is ``theta[perm] + units * offset``, where ``units`` starts at 1 and
loses ``eta_t`` times the sum of K copies of 1/K, the clients' weighted unit
offsets, each round. A run draws its key once, from its seed on stream
``(seed, MECH)``. A model, gradient or update that is not finite ends the run
with ``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError, NumericError, require_bool, require_int, require_number

MECH_KINDS = ("none", "randomization", "he_codec")
MECH_READS = {"none": (), "randomization": ("sigma", "shared_noise", "exact_norm"),
              "he_codec": ("offset_scale",)}


@dataclass(frozen=True)
class MechanismSpec:
    """A protection mechanism as configs serialize it.

    ``sigma``, ``shared_noise`` (one delta for all clients) and ``exact_norm``
    (rescale delta to this norm) set randomization; ``offset_scale`` sets the
    he_codec offset, whose key a run draws once from its seed. A run (not the
    spec: a sigma sweep's base may hold one) refuses an unread field off its default."""
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

    def check_read(self) -> None:
        """Raise ``ConfigurationError`` on a field off its default that ``MECH_READS`` omits."""
        for f in fields(self)[1:]:                  # every field but kind
            if f.name not in MECH_READS[self.kind] and getattr(self, f.name) != f.default:
                raise ConfigurationError(
                    f"mechanism.{f.name} is not read by a {self.kind} mechanism")


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


def _encrypt(grads: np.ndarray, keys: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """he_codec's wires ``g[perm_b] + offset_b`` of the (..., B, K, d) rows of
    trial b, under the key ``(perms[b], offsets[b])``."""
    b, k, _ = grads.shape[-3:]
    return (grads[..., np.arange(b)[:, None, None], np.arange(k)[:, None], keys[0][:, None]]
            + keys[1][:, None])


def _distortion(mechs: list[MechanismSpec], noise: np.ndarray) -> np.ndarray:
    """Randomization's distortion of trial b's standard normals
    ``noise[..., b, :, :]`` (any leading axes, say rounds): ``sigma * noise``,
    each row rescaled to its trial's ``exact_norm`` when that is set. A row
    whose product overflowed takes its direction from its draw, and one whose
    norm overflows is first divided by its largest magnitude; each row keeps
    the bits of that rescale done to it alone. Callers ignore overflow."""
    delta = np.array([m.sigma for m in mechs])[:, None, None] * noise
    target = np.array([math.nan if m.exact_norm is None else m.exact_norm for m in mechs])
    on = ~np.isnan(target)
    if on.any():
        rows = delta[..., on, :, :]
        over = ~np.isfinite(rows).all(axis=-1)
        rows[over] = noise[..., on, :, :][over]
        n = _norms(rows)
        big = np.isinf(n)
        rows[big] /= np.abs(rows[big]).max(axis=-1, keepdims=True)
        n[big] = _norms(rows[big])
        rows *= np.divide(target[on][:, None], n, out=np.ones_like(n), where=n > 0)[..., None]
        delta[..., on, :, :] = rows
    return delta


def _norms(rows: np.ndarray) -> np.ndarray:
    """Each row's 2-norm as ``np.linalg.norm`` of the row alone gives it: the
    square root of the contiguous row's ``dot`` with itself, which a stacked
    (1, d) @ (d, 1) ``np.matmul`` takes for every row at once (norm(axis=-1)
    sums in another order and would move its bits). Callers ignore overflow."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


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
    """One trial's run of T rounds over K clients and d parameters, each
    quantity stacked on a leading round axis as ``RoundRecord`` names it;
    ``record(t)`` is round t's record."""
    eta: np.ndarray                    # (T,)
    theta_decoded: np.ndarray          # (T + 1, d): each round's model, then the final one
    grads: np.ndarray                  # (T, K, d)
    wires: np.ndarray                  # (T, K, d)
    delta_up_grad: np.ndarray          # (T, K)
    delta_up_param: np.ndarray         # (T, K)
    delta_two_grad: np.ndarray         # (T,)
    delta_two_param: np.ndarray        # (T,)
    shadow_gap: np.ndarray             # (T,)
    theta_protected: np.ndarray        # (T, d): wire view of the model after each round
    theta_final_decoded: np.ndarray    # final model, as the clients decode it
    theta_final_shadow: np.ndarray     # from-scratch unprotected final model
    theta_final_protected: np.ndarray  # wire view of the final model

    @property
    def rounds(self) -> int:
        return len(self.eta)

    def record(self, t: int) -> RoundRecord:
        """Round t (0 <= t < ``rounds``) as a ``RoundRecord``: arrays as views,
        numbers as Python floats."""
        return RoundRecord(t, float(self.eta[t]), self.theta_decoded[t], self.grads[t],
                           self.wires[t], self.delta_up_grad[t].tolist(),
                           self.delta_up_param[t].tolist(), float(self.delta_two_grad[t]),
                           float(self.delta_two_param[t]), float(self.shadow_gap[t]),
                           self.theta_protected[t], self.theta_decoded[t + 1])


def _eta_at(config: FLRunConfig, t: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate / math.sqrt(t + 1.0)


def _gradients(model_spec: models.ModelSpec, datasets: list[list[ClientDataset]], n: int):
    """``grads(out, *thetas)``: writes into ``out[:n]`` the (n, B, K, d)
    full-batch gradients of the first n (B, d) models, row b on each of trial
    b's K clients, all of one size m. Each is numpy's mean over the examples,
    taken as its ``np.add.reduce`` and then a division by m, in one stacked
    pass over leading axes (n, B, K), prepared once here over a buffer that
    each call fills with the models."""
    x, y = (np.array([[[getattr(ds, f) for ds in trial] for trial in datasets]] * n,
                     dtype=np.float64) for f in "xy")
    stacked = np.empty(x.shape[:3] + (model_spec.param_dim,))
    prep, m = models.prepare(model_spec, stacked, y), x.shape[-2]

    def grads(out, *thetas):
        for j, th in enumerate(thetas[:n]):
            stacked[j] = th[:, None]
        np.add.reduce(prep(x)[0], axis=-2, out=out[:n])
        out[:n] /= m
    return grads


def run_batch(model_spec: models.ModelSpec, config: FLRunConfig, mechs: list[MechanismSpec],
              datasets: list[list[ClientDataset]], seeds: list[int]) -> list[RunResult]:
    """Execute the protocol for each trial b: mechanism ``mechs[b]`` over the
    client data ``datasets[b]``, its protected and shadow trajectories seeded
    by ``seeds[b]``, and an he_codec run's key drawn from it once. Row b equals
    trial b run as a batch of one, bit for bit.

    The B trials are stacked on a leading axis, and each round's quantities
    on a leading round axis. The mechanisms share their kind and noise
    sharing, and every client of every trial holds the same number of rows
    (``datagen.generate_batch`` gives each ``per_client_size``); sigma,
    ``exact_norm`` and ``offset_scale`` may differ, each distinct mechanism
    passing ``check_read``. Every trial's init, he_codec key and noise
    streams are seeded at once (``rng.streams``). ``config.seed`` is not read.

    A round does only what depends on the trajectory: one ``_gradients`` call
    for all trials (the model's and, under randomization, the shadow's), the
    wires under randomization, and one multiply of every gradient and wire by
    the weight 1/K, whose K client slices are then added in client order
    (``np.add.accumulate``), the bits of a left-to-right weighted sum.
    Randomization's distortion and its norms depend only on the noise, so
    they are taken for every round before round 0; the he_codec wires, the
    wire views, every norm and every ``eta *`` product after the last round.

    Raises ``NumericError`` when a trial's model, gradient or update is not
    finite, in the first round where one is."""
    for trial in datasets:
        for ds in trial:
            if ds.x.shape[1] != model_spec.input_dim:
                raise ConfigurationError("dataset / model dimension mismatch")
            if ds.size == 0:
                raise ConfigurationError("client dataset is empty")
    kind, shared = mechs[0].kind, mechs[0].shared_noise
    # one client count and one client size over all the trials
    if len({(len(trial), ds.size) for trial in datasets for ds in trial}) > 1 or any(
            (m.kind, m.shared_noise) != (kind, shared) for m in mechs):
        raise ConfigurationError("stacked runs need one mechanism kind, noise sharing "
                                 "and client size")
    for mech in dict.fromkeys(mechs):
        mech.check_read()
    b, k, d, rounds = len(seeds), len(datasets[0]), model_spec.param_dim, config.rounds
    with np.errstate(over="ignore"):       # an overflowing draw raises below
        theta = np.array([models.init_params(model_spec, g, config.init_scale)
                          for g in rngmod.streams(seeds, [(rngmod.STREAM_INIT,)] * b)])

    keys = None
    if kind == "he_codec":
        perms, offsets = zip(*[_he_key(d, g, m.offset_scale) for m, g in zip(
            mechs, rngmod.streams(seeds, [(rngmod.STREAM_MECH,)] * b))])
        keys = np.array(perms), np.array(offsets)
    # only noise moves the model off the shadow; without it one gradient set is both
    noisy = kind == "randomization"
    if noisy:
        clients = [0] if shared else range(1, k + 1)
        noise = rngmod.normals(
            [s for _ in range(rounds) for s in seeds for _ in clients],
            [(rngmod.STREAM_PROTECT, t, c) for t in range(rounds) for _ in seeds
             for c in clients], d).reshape(rounds, b, -1, d)
        if shared:
            noise = np.repeat(noise, k, axis=2)
        with np.errstate(over="ignore"):   # a huge sigma records ||delta|| = inf
            delta = _distortion(mechs, noise)
            delta_up = _norms(delta)
    if not np.isfinite(theta).all():
        raise NumericError("run aborted: non-finite model at round 0")

    etas = [_eta_at(config, t) for t in range(rounds)]
    w = 1.0 / k
    # each round's gradients at the model and the shadow, then its wires
    stack = np.empty((rounds, 3 if noisy else 1, b, k, d))
    thetas = np.empty((rounds + 1, b, d))
    thetas[0] = theta
    shadows, gaps = thetas, None
    if noisy:
        shadows, gaps = thetas.copy(), np.empty((rounds, b, d))
    gradients = _gradients(model_spec, datasets, 2 if noisy else 1)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value raises below
        for t, eta in enumerate(etas):
            now = stack[t]
            gradients(now, thetas[t], shadows[t])
            if not np.isfinite(now[:2]).all():
                raise NumericError(f"run aborted: non-finite gradient at round {t}: "
                                   "non-finite parameter gradient")
            if noisy:
                np.add(now[0], delta[t], out=now[2])
            # the server steps on what it decodes: the noisy wires under
            # randomization, else the true gradients (he_codec decrypts exactly)
            agg = np.add.accumulate(now * w, axis=2)[:, :, -1]
            np.subtract(thetas[t], eta * agg[-1], out=thetas[t + 1])
            if noisy:
                np.subtract(shadows[t], eta * agg[1], out=shadows[t + 1])
                np.subtract(agg[2], agg[0], out=gaps[t])
            if not np.isfinite(thetas[t + 1]).all():
                raise NumericError(f"run aborted: non-finite update at round {t}")

        grads, wires, views = stack[:, 0], stack[:, -1], thetas[1:]
        eta = np.array(etas)
        d2g = shadow_gap = np.zeros((rounds, b))
        if noisy:
            d2g, shadow_gap = _norms(gaps), _norms(thetas[:-1] - shadows[:-1])
        elif kind == "he_codec":
            wires = _encrypt(grads, keys)
            delta_up = _norms(wires - grads)
            # offset units in the wire view: 1, less eta_t times the
            # sum of the clients' weighted unit offsets each round
            step = np.add.accumulate(np.full(k, w))[-1]
            units = np.subtract.accumulate(np.concatenate([[1.0], eta * step]))[1:]
            views = thetas[1:, np.arange(b)[:, None], keys[0]] + units[:, None, None] * keys[1]
        if kind == "none":
            delta_up = np.zeros((rounds, b, k))
        up_param, two_param = eta[:, None, None] * delta_up, eta[:, None] * d2g

    return [RunResult(eta, thetas[:, i], grads[:, i], wires[:, i], delta_up[:, i],
                      up_param[:, i], d2g[:, i], two_param[:, i], shadow_gap[:, i],
                      views[:, i], thetas[-1, i], shadows[-1, i], views[-1, i])
            for i in range(b)]


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
