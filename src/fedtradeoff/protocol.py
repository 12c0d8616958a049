"""Four-step distorted-aggregation protocol over an in-memory channel.

Per round: clients decode the downloaded model, compute one full-batch local
gradient each, upload a protected version (one ``protect`` call maps the
round's (K, d) gradients to its (K, d) uploads), and the server takes a
weighted aggregation step. Bookkeeping per round:

* ``delta_up_grad[k]  = ||g_tilde_k - g_k||`` (gradient space, row k's 1-D norm) and
  ``delta_up_param[k] = eta_t * delta_up_grad[k]`` (parameter space).
* ``delta_two_grad    = ||decoded aggregated distorted gradient - true aggregate||``
  and ``delta_two_param = eta_t * delta_two_grad`` -- the one-step gap between
  the decoded protected update and the unprotected update from the same
  decoded state.
* ``shadow_gap        = ||decoded model - from-scratch unprotected model||``
  at the start of the round (diagnostic; zero for none and HE).

``MechanismSpec`` is the one mechanism type: configs serialize it, and
``protect`` and ``run`` take it as it is. Its kinds are ``none``,
``randomization`` and ``he_codec``. Randomization adds Gaussian noise drawn
on stream ``(seed, PROTECT, t, k + 1)`` for client k in round t, or on
``(seed, PROTECT, t, 0)`` for every client when the noise is shared; ``run``
draws all rounds' noise before round 0, from those same streams.

The HE mechanism is a simulated additively-homomorphic codec under a key
``(perm, offset)``: client k uploads ``g_k[perm] + offset``. Decryption is
exact, so the server keeps no ciphertext: it steps on the true aggregate, the
decoded trajectory is bit-equal to the unprotected one, and the wire view of
the model is ``theta[perm] + units * offset``, where ``units`` starts at 1 and
loses ``eta_t`` times the size-weighted sum of the clients' unit offsets each
round. ``run`` draws the key once per run, from the run's seed on stream
``(seed, MECH)``. A model, gradient or update that is not finite ends the run
with ``NumericError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError, NumericError, require_int

MECH_KINDS = ("none", "randomization", "he_codec")


@dataclass(frozen=True)
class MechanismSpec:
    """A protection mechanism as configs serialize it.

    ``sigma``, ``shared_noise`` (one delta for all clients) and ``exact_norm``
    (rescale delta to this norm) set randomization; ``offset_scale`` sets the
    he_codec offset, whose key ``run`` draws once per run from its seed."""
    kind: str = "none"
    sigma: float = 0.0
    shared_noise: bool = False
    offset_scale: float = 1.0
    exact_norm: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MECH_KINDS:
            raise ConfigurationError(f"unknown mechanism kind: {self.kind!r}")
        if self.kind == "randomization" and not 0 <= self.sigma < math.inf:   # NaN fails too
            raise ConfigurationError("sigma must be >= 0 and finite")
        if self.exact_norm is not None and not 0 <= self.exact_norm < math.inf:
            raise ConfigurationError("exact_norm must be >= 0 and finite")


def _he_key(dim: int, seed: int, offset_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The he_codec key ``(permutation, offset)`` on stream ``(seed, MECH)``: a
    random permutation, then a Gaussian offset of scale ``offset_scale``
    (all ones when that offset is all zero)."""
    g = rngmod.stream(seed, rngmod.STREAM_MECH)
    perm = g.permutation(dim)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite offset raises below
        off = offset_scale * g.standard_normal(dim)
    if np.all(off == 0.0):
        off = np.ones(dim)
    if not np.all(np.isfinite(off)):
        raise ConfigurationError("offset must be finite")
    return perm, off


def protect(grads: np.ndarray, mech: MechanismSpec, noise: np.ndarray | None = None,
            key: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, list[float]]:
    """Apply the mechanism to a round's (K, d) gradients: the (K, d) wires and each
    row's ``||wire - grad||``. Randomization adds ``sigma * noise`` for (K, d) standard
    normals, each row rescaled to ``exact_norm`` when set; he_codec encrypts each row
    under ``key`` (``_he_key``) to ``g[perm] + offset``."""
    grads = np.asarray(grads, dtype=np.float64)
    if mech.kind == "none":
        return grads.copy(), [0.0] * len(grads)
    if mech.kind == "he_codec" and key is None:
        raise ConfigurationError("he_codec requires a key")
    with np.errstate(over="ignore"):          # a huge sigma records ||delta|| = inf
        if mech.kind == "he_codec":
            wires = grads[:, key[0]] + key[1]
            delta = wires - grads
        else:
            delta = mech.sigma * noise
            if mech.exact_norm is not None:
                for row, z in zip(delta, noise):      # each row rescaled in place
                    if not np.all(np.isfinite(row)):  # overflowed: take the direction from z
                        row[:] = z
                    n = np.linalg.norm(row)
                    if np.isinf(n):           # rescale the direction, not the overflow
                        row /= np.abs(row).max()
                        n = np.linalg.norm(row)
                    if n > 0:
                        row *= mech.exact_norm / n
            wires = grads + delta
        # one 1-D norm per row: norm(axis=1) sums in another order and would move its bits
        return wires, [float(np.linalg.norm(row)) for row in delta]


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


def aggregate(vectors: list[np.ndarray], sizes: list[int], theta: np.ndarray,
              eta: float) -> np.ndarray:
    """theta - eta * sum_k (m_k / sum_j m_j) * v_k, summed in client order."""
    return np.asarray(theta, dtype=np.float64) - eta * weighted_sum(vectors, sizes)


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


def _gradients(model_spec: models.ModelSpec, datasets: list[ClientDataset], n: int):
    """``grads(*thetas)``: the (n, K, d) full-batch gradients of the first n
    models on each of the K clients. Clients of one size share one stacked call
    over leading axes (n, K), on inputs stacked once here; others take one call each."""
    if len({ds.size for ds in datasets}) > 1:
        return lambda *thetas: np.array([[models.per_example_grads(
            model_spec, th, ds.x, ds.y).mean(axis=0) for ds in datasets] for th in thetas[:n]])
    x, y = (np.array([[getattr(ds, f) for ds in datasets]] * n, dtype=np.float64) for f in "xy")
    stacked = np.empty((n, len(datasets), model_spec.param_dim))

    def grads(*thetas):
        stacked[:] = np.array(thetas[:n])[:, None]
        return models.per_example_grads(model_spec, stacked, x, y).mean(axis=-2)
    return grads


def run(model_spec: models.ModelSpec, config: FLRunConfig, mech: MechanismSpec,
        datasets: list[ClientDataset]) -> RunResult:
    """Execute the protocol; protected and shadow trajectories share the seed,
    and an he_codec run draws its key from it once. Clients of one size take
    each round's gradients in one stacked call (``_gradients``).

    Raises ``NumericError`` when the model, a gradient or an update is not
    finite."""
    for ds in datasets:
        if ds.x.shape[1] != model_spec.input_dim:
            raise ConfigurationError("dataset / model dimension mismatch")
        if ds.size == 0:
            raise ConfigurationError("client dataset is empty")
    with np.errstate(over="ignore"):       # an overflowing draw raises below
        theta = models.init_params(
            model_spec, rngmod.stream(config.seed, rngmod.STREAM_INIT), config.init_scale)

    sizes, k, d = [ds.size for ds in datasets], len(datasets), model_spec.param_dim
    key = _he_key(d, config.seed, mech.offset_scale) if mech.kind == "he_codec" else None
    units = 1.0                        # offset units in the he_codec wire view of the model
    noise = [None] * config.rounds
    if mech.kind == "randomization":
        clients = [0] if mech.shared_noise else range(1, k + 1)
        noise = rngmod.normals(config.seed, [(rngmod.STREAM_PROTECT, t, c) for t in
                                             range(config.rounds) for c in clients], d)
        noise = noise.reshape(config.rounds, -1, d)
        if mech.shared_noise:
            noise = np.repeat(noise, k, axis=1)
    if not np.isfinite(theta).all():
        raise NumericError("run aborted: non-finite model at round 0")
    theta_shadow = theta.copy()
    # only noise moves the model off the shadow; without it one gradient set is both
    gradients = _gradients(model_spec, datasets, 2 if mech.kind == "randomization" else 1)

    records: list[RoundRecord] = []
    for t in range(config.rounds):
        eta = _eta_at(config, t)
        with np.errstate(over="ignore", invalid="ignore"):
            shadow_gap = float(np.linalg.norm(theta - theta_shadow))
            stacked = gradients(theta, theta_shadow)
        if not np.isfinite(stacked).all():
            raise NumericError(f"run aborted: non-finite gradient at round {t}: "
                               "non-finite parameter gradient")
        grads = stacked[0]
        wires, delta_up = protect(grads, mech, noise[t], key)

        # the server steps on what it decodes: the noisy wires under
        # randomization, else the true gradients (he_codec decrypts exactly)
        true_agg = weighted_sum(grads, sizes)
        with np.errstate(over="ignore", invalid="ignore"):
            agg = weighted_sum(wires, sizes) if mech.kind == "randomization" else true_agg
            theta_next = theta - eta * agg
            theta_shadow = theta_shadow - eta * (
                true_agg if len(stacked) == 1 else weighted_sum(stacked[1], sizes))
            d2g = float(np.linalg.norm(agg - true_agg))
        if not np.isfinite(theta_next).all():
            raise NumericError(f"run aborted: non-finite update at round {t}")

        if key is None:
            wire_view = theta_next
        else:
            units = units - eta * weighted_sum([1.0] * k, sizes)
            wire_view = theta_next[key[0]] + units * key[1]
        records.append(RoundRecord(
            round_index=t,
            eta=eta,
            theta_decoded=theta,
            grads=grads,
            wires=wires,
            delta_up_grad=delta_up,
            delta_up_param=[eta * u for u in delta_up],
            delta_two_grad=d2g,
            delta_two_param=eta * d2g,
            shadow_gap=shadow_gap,
            theta_next_protected=wire_view,
            theta_next_decoded=theta_next,
        ))
        theta = theta_next

    return RunResult(records, theta, theta_shadow, records[-1].theta_next_protected)


def measure_utility_loss(model_spec: models.ModelSpec, theta: np.ndarray,
                         delta: np.ndarray, train: ClientDataset,
                         eval_sampler, n_eval: int = 1000) -> tuple[float, float]:
    """Utility loss |L_exp(theta + delta) - L_emp(theta)| with a 95% halfwidth.

    L_exp is a Monte-Carlo mean of the per-example loss at theta + delta over
    n_eval fresh draws; L_emp the empirical training loss at theta.
    """
    if n_eval < 100:
        raise ConfigurationError("n_eval must be >= 100")
    theta = np.asarray(theta, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    l_emp = models.loss(model_spec, theta, train.x, train.y)
    xs, ys = eval_sampler(n_eval)
    if xs.shape[0] < n_eval:
        raise ConfigurationError("eval sampler exhausted")
    per = models.per_example_losses(model_spec, theta + delta, xs, ys)
    l_exp = float(per.mean())
    with np.errstate(over="ignore"):          # huge finite losses give halfwidth inf
        half = 1.96 * float(per.std(ddof=1)) / math.sqrt(n_eval)
    return abs(l_exp - l_emp), half
