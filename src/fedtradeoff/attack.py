"""Semi-honest server attacker.

Phase 1: gradient inversion. The attacker knows the model, learning setup and
the labels, observes the uploaded (possibly distorted) gradient ``g_obs``, and
minimizes the matching objective

    F(X) = || (1/m) sum_i grad_theta L(theta, X_i, Y_i)  -  g_obs ||^2

over the candidate features ``X``. Its gradient is exact and batched over the
samples: with v = (1/m) sum_i grad_theta L(theta, X_i, Y_i) - g_obs,
dF/dX_i = (2/m) J_i^T v, where J_i is the Jacobian of sample i's parameter
gradient w.r.t. X_i. ``models.per_example_grads_and_vjp`` scores a candidate
with one forward pass and returns every J_i^T v as a deferred VJP over that
pass, so the optimizer runs one forward pass per evaluated candidate: an
accepted candidate's VJP gives the next step's gradient, and a rejected
backtracking candidate never pays for its VJP.

Phase 2: the attacker trains a classifier on the recovered features with the
true labels and scores Risk / AdvRisk plus the PAC sample-complexity formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError


@dataclass(frozen=True)
class AttackConfig:
    iters: int
    optimizer: str = "adam"            # sgd | adam
    step_size: float = 0.05
    init: str = "zeros"                # zeros | gaussian
    init_scale: float = 0.5
    seed: int = 0
    backtracking: bool = False         # sgd only: enforce monotone objective

    def __post_init__(self) -> None:
        if self.iters < 1:
            raise ConfigurationError("iters must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer: {self.optimizer!r}")
        if self.step_size <= 0:
            raise ConfigurationError("step_size must be > 0")
        if self.init not in ("zeros", "gaussian"):
            raise ConfigurationError(f"unknown init: {self.init!r}")


@dataclass
class AttackTrace:
    iterates: list[tuple[int, np.ndarray]]   # (t, X_t) for t = 0..iters_run
    objectives: np.ndarray                   # F at t = 0..iters_run
    final_x: np.ndarray
    iters_run: int
    truncated: bool = False


def _score(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
           g_obs: np.ndarray):
    """F(x), its residual v and the input VJP, all from one forward pass."""
    grads, vjp = models.per_example_grads_and_vjp(spec, theta, x, y)
    v = grads.mean(axis=0) - g_obs
    return float(v @ v), v, vjp


def matching_objective(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray,
                       y: np.ndarray, g_obs: np.ndarray) -> float:
    return _score(spec, theta, x, y, g_obs)[0]


def _grad_objective(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray,
                    y: np.ndarray, g_obs: np.ndarray) -> np.ndarray:
    """dF/dX, shape (m, p): dF/dx_i = (2/m) J_i^T v."""
    _, v, vjp = _score(spec, theta, x, y, g_obs)
    return (2.0 / x.shape[0]) * vjp(v)


def invert_gradient(spec: models.ModelSpec, theta: np.ndarray, g_obs: np.ndarray,
                    labels: np.ndarray, m: int, cfg: AttackConfig,
                    x0: np.ndarray | None = None) -> AttackTrace:
    """Reconstruct the m feature vectors behind an observed batch gradient.

    Every accepted iterate is stored, so leakage is scored afterwards from the
    trace alone. ``x0`` overrides the configured init (diagnostics).
    """
    theta = np.asarray(theta, dtype=np.float64)
    g_obs = np.asarray(g_obs, dtype=np.float64)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if labels.shape[0] != m:
        raise ConfigurationError("label count != m")
    if g_obs.shape != (spec.param_dim,):
        raise ConfigurationError("observed gradient length != param_dim")
    p = spec.input_dim

    g = rngmod.stream(cfg.seed, rngmod.STREAM_ATTACK, 0)
    if x0 is not None:
        x = np.array(x0, dtype=np.float64).reshape(m, p).copy()
    elif cfg.init == "zeros":
        x = np.zeros((m, p))
    else:
        x = cfg.init_scale * g.standard_normal((m, p))

    f, v, vjp = _score(spec, theta, x, labels, g_obs)
    objectives = [f]
    iterates = [(0, x.copy())]
    truncated = False
    step = cfg.step_size
    mom1 = np.zeros_like(x)
    mom2 = np.zeros_like(x)
    b1, b2, eps = 0.9, 0.999, 1e-8
    iters_run = 0

    for t in range(1, cfg.iters + 1):
        grad = (2.0 / x.shape[0]) * vjp(v)
        if cfg.optimizer == "adam":
            mom1 = b1 * mom1 + (1 - b1) * grad
            mom2 = b2 * mom2 + (1 - b2) * grad * grad
            mhat = mom1 / (1 - b1 ** t)
            vhat = mom2 / (1 - b2 ** t)
            x_new = x - step * mhat / (np.sqrt(vhat) + eps)
            f_new, v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)
        else:
            trial = step
            x_new = x - trial * grad
            f_new, v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)
            if cfg.backtracking:
                tries = 0
                while f_new > objectives[-1] and tries < 40:
                    trial *= 0.5
                    x_new = x - trial * grad
                    f_new, v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)
                    tries += 1
                if f_new > objectives[-1]:
                    # stay put, keep monotone
                    x_new, f_new, v_new, vjp_new = x, objectives[-1], v, vjp

        if not (np.all(np.isfinite(x_new)) and np.isfinite(f_new)):
            truncated = True
            break

        x, v, vjp = x_new, v_new, vjp_new
        iters_run = t
        objectives.append(f_new)
        iterates.append((t, x.copy()))

    return AttackTrace(iterates=iterates, objectives=np.asarray(objectives),
                       final_x=x.copy(), iters_run=iters_run, truncated=truncated)


def _checked_originals(trace: AttackTrace, originals: np.ndarray, cap_d: float) -> np.ndarray:
    if cap_d <= 0:
        raise ConfigurationError("D must be > 0")
    originals = np.asarray(originals, dtype=np.float64)
    if originals.shape != trace.final_x.shape:
        raise ConfigurationError(f"originals shape {originals.shape} != "
                                 f"trace shape {trace.final_x.shape}")
    return originals


def privacy_leakage(trace: AttackTrace, originals: np.ndarray, cap_d: float) -> float:
    """Trajectory-averaged leakage: 1 - mean_i mean_t min(||X_{t,i}-X_i||, D)/D.

    Adds one stored iterate at a time, t = 1..T in order. Reducing a stacked
    (T, m) array instead lets numpy sum pairwise, which moves the result by
    ulps when m == 1.
    """
    originals = _checked_originals(trace, originals, cap_d)
    if trace.iters_run < 1:
        raise ConfigurationError("trace has no iterations")
    acc = np.zeros(originals.shape[0])
    for _, x_t in trace.iterates[1:]:             # iterates[0] is the t = 0 init
        dist = np.linalg.norm(x_t - originals, axis=1)
        acc += np.minimum(dist, cap_d) / cap_d
    return float(1.0 - np.mean(acc / trace.iters_run))


def privacy_leakage_final(trace: AttackTrace, originals: np.ndarray, cap_d: float) -> float:
    """Final-iterate leakage: 1 - mean_i min(||X_{T,i}-X_i||, D)/D."""
    originals = _checked_originals(trace, originals, cap_d)
    dist = np.linalg.norm(trace.final_x - originals, axis=1)
    return float(1.0 - np.mean(np.minimum(dist, cap_d) / cap_d))


# ---------------------------------------------------------------------------
# Phase 2


@dataclass
class Classifier:
    spec: models.ModelSpec
    theta: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        return models.predict(self.spec, self.theta, x)


def train_phase2(recovered: ClientDataset, spec: models.ModelSpec, *,
                 epochs: int = 200, lr: float = 0.5, seed: int = 0,
                 init_scale: float = 0.1) -> Classifier:
    """Deterministic full-batch gradient-descent training on recovered data."""
    if recovered.size == 0:
        raise ConfigurationError("recovered dataset is empty")
    theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT), init_scale)
    for _ in range(epochs):
        theta = theta - lr * models.grad_params(spec, theta, recovered.x, recovered.y)
        if not np.all(np.isfinite(theta)):
            raise ConfigurationError("phase-2 training diverged")
    return Classifier(spec=spec, theta=theta)


def risk(h: Classifier, x: np.ndarray, y: np.ndarray) -> float:
    """Misclassification rate of h on the labeled set (labels stand in for c)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigurationError("empty test set")
    pred = h.predict(x)
    return float(np.mean(pred != np.asarray(y).astype(np.int64)))


def adv_risk(h: Classifier, x: np.ndarray, y: np.ndarray, budget: float, *,
             search: str = "random-ball", n_probe: int = 64, steps: int = 10,
             step_size: float | None = None, seed: int = 0) -> float:
    """Lower estimate of the adversarial risk at perturbation budget ``budget``.

    Fraction of test points for which the search finds X within the ball with
    h(X) != label. The center point is always probed, so budget 0 reduces
    exactly to risk(). Probes come from per-point substreams, so growing
    n_probe only extends each point's probe sequence: the estimate is monotone
    non-decreasing in n_probe. Probes scale radially with budget, so for
    half-space classifiers it is monotone in budget as well.
    """
    if budget < 0:
        raise ConfigurationError("budget must be >= 0")
    if search not in ("random-ball", "input-gradient-ascent"):
        raise ConfigurationError(f"unknown search: {search!r}")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    m, p = x.shape
    hits = 0
    for i in range(m):
        if int(h.predict(x[i][None, :])[0]) != int(y[i]):
            hits += 1
            continue
        if budget == 0.0:
            continue
        found = False
        if search == "random-ball":
            g = rngmod.stream(seed, rngmod.STREAM_ATTACK, 1, i)
            for _ in range(n_probe):
                u = g.standard_normal(p)
                radius_frac = g.uniform(0, 1) ** (1.0 / p)
                nu = np.linalg.norm(u)
                if nu == 0:
                    continue
                cand = x[i] + (budget * radius_frac) * u / nu
                if int(h.predict(cand[None, :])[0]) != int(y[i]):
                    found = True
                    break
        else:
            step = step_size if step_size is not None else budget / max(steps, 1)
            cand = x[i].copy()
            for _ in range(steps):
                gi = models.grad_input(h.spec, h.theta, cand, int(y[i]))
                n = np.linalg.norm(gi)
                if n == 0:
                    break
                cand = cand + step * gi / n
                off = cand - x[i]
                d = np.linalg.norm(off)
                if d > budget:
                    cand = x[i] + off * (budget / d)
                if int(h.predict(cand[None, :])[0]) != int(y[i]):
                    found = True
                    break
        if found:
            hits += 1
    return hits / m


def sample_lower_bound(eps: float, delta: float, c_a: float, delta_up: float) -> float:
    """min{2*delta - 1, 1 - eps} * 2^(c_a^2 * delta_up^2); inf on overflow."""
    log2v = log2_sample_lower_bound(eps, delta, c_a, delta_up)
    if log2v > 1020.0:
        return math.inf
    return 2.0 ** log2v


def log2_sample_lower_bound(eps: float, delta: float, c_a: float, delta_up: float) -> float:
    """Base-2 log of sample_lower_bound, safe for huge distortions."""
    if not (0.5 < delta < 1.0):
        raise ConfigurationError("delta must satisfy 0.5 < delta < 1")
    if not (0.0 < eps < 1.0):
        raise ConfigurationError("eps must be in (0, 1)")
    if c_a <= 0:
        raise ConfigurationError("c_a must be > 0")
    if delta_up < 0:
        raise ConfigurationError("delta_up must be >= 0")
    front = min(2.0 * delta - 1.0, 1.0 - eps)
    return math.log2(front) + (c_a * delta_up) ** 2


def not_pac_condition(delta_up: float, m_prot: int, eps: float) -> bool:
    """True iff delta_up > ln(m_prot / (1 - eps))."""
    if not (0.0 < eps < 1.0):
        raise ConfigurationError("eps must be in (0, 1)")
    if m_prot < 1:
        raise ConfigurationError("m_prot must be >= 1")
    return delta_up > math.log(m_prot / (1.0 - eps))


@dataclass
class Phase2Report:
    risk: float
    adv_risk: float
    budget: float
    pac_eps: float
    pac_delta: float
    sample_lower_bound: float
    log2_sample_lower_bound: float
    not_pac_learnable: bool
    search: str
    n_probe: int
    constants_estimated: bool          # False: c_a was unavailable, the bound is NaN

    def validate(self) -> None:
        if not (0.0 <= self.risk <= 1.0 and 0.0 <= self.adv_risk <= 1.0):
            raise ConfigurationError("risk values must lie in [0, 1]")
        if self.budget >= 0 and self.adv_risk < self.risk - 1e-12:
            raise ConfigurationError("adv_risk must dominate risk")


def phase2_report(recovered: ClientDataset, test_x: np.ndarray, test_y: np.ndarray,
                  spec: models.ModelSpec, *, budget: float, pac_eps: float,
                  pac_delta: float, c_a: float, delta_up: float, m_prot: int,
                  epochs: int = 200, lr: float = 0.5, seed: int = 0,
                  search: str = "random-ball", n_probe: int = 64) -> tuple[Classifier, Phase2Report]:
    """Train the phase-2 classifier and assemble its scorecard.

    ``c_a`` is NaN when the constants could not be estimated; the sample lower
    bound is then NaN and ``constants_estimated`` is False.
    """
    h = train_phase2(recovered, spec, epochs=epochs, lr=lr, seed=seed)
    r = risk(h, test_x, test_y)
    ar = adv_risk(h, test_x, test_y, budget, search=search, n_probe=n_probe, seed=seed)
    rep = Phase2Report(
        risk=r, adv_risk=ar, budget=budget, pac_eps=pac_eps, pac_delta=pac_delta,
        sample_lower_bound=sample_lower_bound(pac_eps, pac_delta, c_a, delta_up),
        log2_sample_lower_bound=log2_sample_lower_bound(pac_eps, pac_delta, c_a, delta_up),
        not_pac_learnable=not_pac_condition(delta_up, m_prot, pac_eps),
        search=search, n_probe=n_probe, constants_estimated=not math.isnan(c_a),
    )
    rep.validate()
    return h, rep
