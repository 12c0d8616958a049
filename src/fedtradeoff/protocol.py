"""Four-step distorted-aggregation protocol over an in-memory channel.

Per round: clients decode the downloaded model, compute one full-batch local
gradient each, upload a protected version, and the server takes a weighted
aggregation step. Bookkeeping per round:

* ``delta_up_grad[k]  = ||g_tilde_k - g_k||`` (gradient space) and
  ``delta_up_param[k] = eta_t * delta_up_grad[k]`` (parameter space).
* ``delta_two_grad    = ||decoded aggregated distorted gradient - true aggregate||``
  and ``delta_two_param = eta_t * delta_two_grad`` -- the one-step gap between
  the decoded protected update and the unprotected update from the same
  decoded state.
* ``shadow_gap        = ||decoded model - from-scratch unprotected model||``
  at the start of the round (diagnostic; zero for none and HE).

The HE mechanism is a simulated additively-homomorphic codec: a ciphertext is
``(permuted payload, offset units)``; linear server ops act per component, so
decryption (subtract the tracked offset, invert the permutation) is exact and
the decoded trajectory is bit-equal to the unprotected one, while the
materialized wire bytes (payload + units * offset) differ from the true
gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError, NumericError

MECH_KINDS = ("none", "randomization", "he_codec")


@dataclass(frozen=True)
class ProtectionMechanism:
    kind: str = "none"
    sigma: float = 0.0
    permutation: Optional[np.ndarray] = None   # he_codec: index bijection
    offset: Optional[np.ndarray] = None        # he_codec: additive mask
    shared_noise: bool = False                 # randomization: same delta for all clients
    exact_norm: Optional[float] = None         # randomization: rescale delta to this norm

    def __post_init__(self) -> None:
        if self.kind not in MECH_KINDS:
            raise ConfigurationError(f"unknown mechanism kind: {self.kind!r}")
        if self.kind == "randomization" and self.sigma < 0:
            raise ConfigurationError("sigma must be >= 0")
        if self.exact_norm is not None and self.exact_norm < 0:
            raise ConfigurationError("exact_norm must be >= 0")
        if self.kind == "he_codec":
            if self.permutation is None or self.offset is None:
                raise ConfigurationError("he_codec needs permutation and offset")
            perm = np.asarray(self.permutation)
            if sorted(perm.tolist()) != list(range(perm.shape[0])):
                raise ConfigurationError("permutation must be a bijection on indices")
            if perm.shape[0] != np.asarray(self.offset).shape[0]:
                raise ConfigurationError("permutation/offset length mismatch")
            if not np.all(np.isfinite(self.offset)):
                raise ConfigurationError("offset must be finite")


def no_protection() -> ProtectionMechanism:
    return ProtectionMechanism(kind="none")


def randomization(sigma: float, shared_noise: bool = False) -> ProtectionMechanism:
    return ProtectionMechanism(kind="randomization", sigma=sigma, shared_noise=shared_noise)


def he_codec(permutation: np.ndarray, offset: np.ndarray) -> ProtectionMechanism:
    return ProtectionMechanism(
        kind="he_codec",
        permutation=np.asarray(permutation, dtype=np.int64),
        offset=np.asarray(offset, dtype=np.float64),
    )


def random_he_codec(dim: int, seed: int, offset_scale: float = 1.0) -> ProtectionMechanism:
    """Seeded random permutation plus a nonzero Gaussian offset."""
    g = rngmod.stream(seed, rngmod.STREAM_MECH)
    perm = g.permutation(dim)
    off = offset_scale * g.standard_normal(dim)
    if np.all(off == 0.0):
        off = np.ones(dim)
    return he_codec(perm, off)


@dataclass
class Cipher:
    """Simulated HE ciphertext: payload in the permuted domain + offset units."""
    payload: np.ndarray
    units: float

    def wire(self, mech: ProtectionMechanism) -> np.ndarray:
        """Materialized bytes an eavesdropper sees."""
        return self.payload + self.units * mech.offset


def _apply_perm(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return v[perm]


def _invert_perm(v: np.ndarray, perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    out[perm] = v
    return out


@dataclass
class ProtectedGradient:
    wire: np.ndarray                 # what the server / attacker observes
    delta: np.ndarray                # wire - true gradient
    delta_up_grad: float             # ||delta||
    cipher: Optional[Cipher] = None  # he_codec only: exact homomorphic payload


def protect(g: np.ndarray, mech: ProtectionMechanism,
            rng: np.random.Generator | None = None) -> ProtectedGradient:
    """Apply the mechanism to one client gradient."""
    g = np.asarray(g, dtype=np.float64)
    if mech.kind == "none":
        delta = np.zeros_like(g)
        return ProtectedGradient(wire=g.copy(), delta=delta, delta_up_grad=0.0)
    if mech.kind == "randomization":
        if rng is None:
            raise ConfigurationError("randomization requires an rng")
        delta = mech.sigma * rng.standard_normal(g.shape[0])
        if mech.exact_norm is not None:
            n = np.linalg.norm(delta)
            delta = delta * (mech.exact_norm / n) if n > 0 else delta
        wire = g + delta
        return ProtectedGradient(wire=wire, delta=delta, delta_up_grad=float(np.linalg.norm(delta)))
    cipher = Cipher(payload=_apply_perm(g, mech.permutation), units=1.0)
    wire = cipher.wire(mech)
    delta = wire - g
    return ProtectedGradient(wire=wire, delta=delta,
                             delta_up_grad=float(np.linalg.norm(delta)), cipher=cipher)


def decode(state, mech: ProtectionMechanism) -> np.ndarray:
    """Client-side decode of a downloaded model state.

    none / randomization: identity. he_codec: offset removal (exact, the units
    component is tracked next to the payload) then inverse permutation.
    """
    if mech.kind == "he_codec":
        if not isinstance(state, Cipher):
            raise ConfigurationError("he_codec decode expects a Cipher state")
        return _invert_perm(state.payload, mech.permutation)
    return np.asarray(state, dtype=np.float64)


def client_local_update(model_spec: models.ModelSpec, theta: np.ndarray,
                        dataset: ClientDataset) -> np.ndarray:
    """Full-batch local gradient of client k at the decoded model."""
    if dataset.size == 0:
        raise ConfigurationError("client dataset is empty")
    return models.grad_params(model_spec, theta, dataset.x, dataset.y)


def weighted_sum(vectors: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """Size-weighted sum in fixed client order (shared by all trajectories)."""
    if len(vectors) != len(sizes) or not vectors:
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
    grads: list[np.ndarray]            # true g_k
    wires: list[np.ndarray]            # observed g_tilde_k
    deltas: list[np.ndarray]
    delta_up_grad: list[float]
    delta_up_param: list[float]
    delta_two_grad: float
    delta_two_param: float
    shadow_gap: float
    theta_next_protected: np.ndarray | None = None   # server wire state after update
    theta_next_decoded: np.ndarray | None = None     # its client-side decode


@dataclass(frozen=True)
class FLRunConfig:
    rounds: int
    learning_rate: float = 0.1
    lr_schedule: str = "constant"      # constant | inv_sqrt
    seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be > 0")
        if self.lr_schedule not in ("constant", "inv_sqrt"):
            raise ConfigurationError(f"unknown lr schedule: {self.lr_schedule!r}")


@dataclass
class RunResult:
    records: list[RoundRecord]
    theta_final_decoded: np.ndarray    # Dec(protected final model)
    theta_final_shadow: np.ndarray     # from-scratch unprotected final model
    theta_init: np.ndarray
    theta_final_protected: np.ndarray | None = None   # server-side wire view
    aborted: bool = False
    abort_reason: str = ""


def _eta_at(config: FLRunConfig, t: int) -> float:
    if config.lr_schedule == "constant":
        return config.learning_rate
    return config.learning_rate / math.sqrt(t + 1.0)


def run(model_spec: models.ModelSpec, config: FLRunConfig, mech: ProtectionMechanism,
        datasets: list[ClientDataset], theta_init: np.ndarray | None = None) -> RunResult:
    """Execute the protocol; protected and shadow trajectories share the seed."""
    for ds in datasets:
        if ds.x.shape[1] != model_spec.input_dim:
            raise ConfigurationError("dataset / model dimension mismatch")
    d = model_spec.param_dim
    if theta_init is None:
        theta_init = models.init_params(
            model_spec, rngmod.stream(config.seed, rngmod.STREAM_INIT), config.init_scale)
    theta_init = np.asarray(theta_init, dtype=np.float64)
    if theta_init.shape != (d,):
        raise ConfigurationError("theta_init length != param_dim")
    if mech.kind == "he_codec" and np.asarray(mech.permutation).shape[0] != d:
        raise ConfigurationError("he_codec dimension != param_dim")

    sizes = [ds.size for ds in datasets]
    if mech.kind == "he_codec":
        server_state: Cipher | np.ndarray = Cipher(
            payload=_apply_perm(theta_init, mech.permutation), units=1.0)
    else:
        server_state = theta_init.copy()
    theta_shadow = theta_init.copy()

    records: list[RoundRecord] = []
    for t in range(config.rounds):
        eta = _eta_at(config, t)
        theta_dec = decode(server_state, mech)
        if not np.all(np.isfinite(theta_dec)):
            return RunResult(records, theta_dec, theta_shadow, theta_init,
                             aborted=True, abort_reason=f"non-finite model at round {t}")
        shadow_gap = float(np.linalg.norm(theta_dec - theta_shadow))

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                grads = [client_local_update(model_spec, theta_dec, ds) for ds in datasets]
                shadow_grads = [client_local_update(model_spec, theta_shadow, ds)
                                for ds in datasets]
        except NumericError as exc:
            return RunResult(records, theta_dec, theta_shadow, theta_init,
                             aborted=True, abort_reason=f"non-finite gradient at round {t}: {exc}")
        protected = []
        for k, g in enumerate(grads):
            if mech.kind == "randomization":
                key_client = 0 if mech.shared_noise else k + 1
                prng = rngmod.stream(config.seed, rngmod.STREAM_PROTECT, t, key_client)
            else:
                prng = None
            protected.append(protect(g, mech, prng))

        true_agg = weighted_sum(grads, sizes)
        with np.errstate(over="ignore", invalid="ignore"):
            if mech.kind == "he_codec":
                payload_agg = weighted_sum([p.cipher.payload for p in protected], sizes)
                units_agg = float(weighted_sum(
                    [np.array([p.cipher.units]) for p in protected], sizes)[0])
                decoded_agg = _invert_perm(payload_agg, mech.permutation)
                server_state = Cipher(payload=server_state.payload - eta * payload_agg,
                                      units=server_state.units - eta * units_agg)
            else:
                decoded_agg = weighted_sum([p.wire for p in protected], sizes)
                server_state = server_state - eta * decoded_agg

            theta_shadow = theta_shadow - eta * weighted_sum(shadow_grads, sizes)

        d2g = float(np.linalg.norm(decoded_agg - true_agg))
        final_dec = decode(server_state, mech)
        if mech.kind == "he_codec":
            next_protected = server_state.wire(mech)
        else:
            next_protected = np.asarray(server_state, dtype=np.float64).copy()
        records.append(RoundRecord(
            round_index=t,
            eta=eta,
            theta_decoded=theta_dec,
            grads=grads,
            wires=[p.wire for p in protected],
            deltas=[p.delta for p in protected],
            delta_up_grad=[p.delta_up_grad for p in protected],
            delta_up_param=[eta * p.delta_up_grad for p in protected],
            delta_two_grad=d2g,
            delta_two_param=eta * d2g,
            shadow_gap=shadow_gap,
            theta_next_protected=next_protected,
            theta_next_decoded=final_dec,
        ))

        if not np.all(np.isfinite(final_dec)):
            return RunResult(records, final_dec, theta_shadow, theta_init,
                             aborted=True, abort_reason=f"non-finite update at round {t}")

    last = records[-1]
    return RunResult(records, last.theta_next_decoded, theta_shadow, theta_init,
                     theta_final_protected=last.theta_next_protected)


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
    half = 1.96 * float(per.std(ddof=1)) / math.sqrt(n_eval)
    return abs(l_exp - l_emp), half
