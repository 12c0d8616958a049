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
backtracking candidate never pays for its VJP. ``invert_batch`` runs several
equal-shape inversions in lockstep over a leading trial axis, one stacked
forward pass per step for all of them; ``invert_gradient`` is its one-row case.

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
    # X_t for t = 0..iters_run, shape (iters_run + 1, m, p); the traces of one
    # invert_batch call are views of one array
    trajectory: np.ndarray
    objectives: np.ndarray                   # F at t = 0..iters_run
    final_x: np.ndarray
    iters_run: int
    truncated: bool = False

    @property
    def iterates(self) -> list[tuple[int, np.ndarray]]:
        """(t, X_t) for t = 0..iters_run."""
        return list(enumerate(self.trajectory))


# Bytes one lockstep block may hold: 16 uploads of a 250-step inversion of 16
# points in R^2, with what their callers keep of each trial meanwhile.
_BLOCK_BUDGET = 1 << 20


def lockstep_blocks(items: list, spec: models.ModelSpec, cfg: AttackConfig, m: int,
                    kept_bytes: int = 0) -> list[list]:
    """Consecutive slices of ``items``, one ``invert_batch`` call each.

    An item is one upload of m samples: its inversion stores (iters + 1) m p
    iterates and works on m per-example gradients, and the caller keeps
    ``kept_bytes`` of its trial until the block is scored. A slice takes as many
    items as fit the block budget, and at least one.
    """
    item_bytes = 8 * m * ((cfg.iters + 1) * spec.input_dim + spec.param_dim) + kept_bytes
    rows = max(1, _BLOCK_BUDGET // item_bytes)
    return [items[i:i + rows] for i in range(0, len(items), rows)]


def _score(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
           g_obs: np.ndarray):
    """F(x), its residual v and the input VJP, all from one forward pass.

    Any leading (trial) axes of the arguments are kept: F has their shape."""
    grads, vjp = models.per_example_grads_and_vjp(spec, theta, x, y)
    v = grads.mean(axis=-2) - g_obs
    return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0], v, vjp


def matching_objective(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray,
                       y: np.ndarray, g_obs: np.ndarray) -> float:
    return float(_score(spec, theta, x, y, g_obs)[0])


def _grad_objective(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray,
                    y: np.ndarray, g_obs: np.ndarray) -> np.ndarray:
    """dF/dX, shape (m, p): dF/dx_i = (2/m) J_i^T v."""
    _, v, vjp = _score(spec, theta, x, y, g_obs)
    return (2.0 / x.shape[-2]) * vjp(v)


def invert_gradient(spec: models.ModelSpec, theta: np.ndarray, g_obs: np.ndarray,
                    labels: np.ndarray, m: int, cfg: AttackConfig,
                    x0: np.ndarray | None = None) -> AttackTrace:
    """Reconstruct the m feature vectors behind an observed batch gradient.

    Every accepted iterate is stored, so leakage is scored afterwards from the
    trace alone. ``x0`` overrides the configured init (diagnostics). This is a
    one-row ``invert_batch``.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    if labels.shape[0] != m:
        raise ConfigurationError("label count != m")
    g_obs = np.asarray(g_obs, dtype=np.float64)
    if g_obs.shape != (spec.param_dim,):
        raise ConfigurationError("observed gradient length != param_dim")
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.float64).reshape(1, m, spec.input_dim)
    return invert_batch(spec, np.asarray(theta, dtype=np.float64)[None], g_obs[None],
                        labels[None], cfg, [cfg.seed], x0=x0)[0]


def invert_batch(spec: models.ModelSpec, theta: np.ndarray, g_obs: np.ndarray,
                 labels: np.ndarray, cfg: AttackConfig, seeds,
                 x0: np.ndarray | None = None) -> list[AttackTrace]:
    """``invert_gradient`` for B uploads in lockstep, one trace per row.

    Row b inverts ``g_obs[b]`` (shape (B, param_dim)) observed at ``theta[b]``
    with labels ``labels[b]`` (shape (B, m)), under ``cfg`` with its seed
    replaced by ``seeds[b]``; ``x0`` (B, m, p) overrides the init. Every step
    runs one stacked forward pass for the rows still running. A row that
    truncates leaves the batch, frozen at its last accepted iterate; SGD
    backtracking halves the step of each row that has not yet improved. Row
    b's trace is bit-identical to that of a one-row run.
    """
    return _traces(*_invert_block(spec, theta, g_obs, labels, cfg, seeds, x0))


def _traces(traj: np.ndarray, objectives: np.ndarray, iters_run: np.ndarray,
            truncated: np.ndarray) -> list[AttackTrace]:
    """One trace per row of a block's arrays; the trajectories are views."""
    return [AttackTrace(trajectory=traj[:n + 1, b], objectives=objectives[:n + 1, b].copy(),
                        final_x=traj[n, b].copy(), iters_run=int(n),
                        truncated=bool(truncated[b]))
            for b, n in enumerate(iters_run)]


def _invert_block(spec: models.ModelSpec, theta: np.ndarray, g_obs: np.ndarray,
                  labels: np.ndarray, cfg: AttackConfig, seeds, x0: np.ndarray | None):
    """``invert_batch`` as arrays: the stored iterates (iters + 1, B, m, p),
    a frozen row repeating its last accepted iterate, the objectives
    (iters + 1, B), and each row's ``iters_run`` and ``truncated``."""
    theta = np.asarray(theta, dtype=np.float64)
    g_obs = np.asarray(g_obs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    seeds = list(seeds)
    if (labels.ndim != 2 or len(labels) == 0 or len(seeds) != len(labels)
            or theta.shape != (len(labels), spec.param_dim) or g_obs.shape != theta.shape):
        raise ConfigurationError("invert_batch needs one theta, g_obs, label row "
                                 "and seed per upload")
    n_rows, m = labels.shape
    p = spec.input_dim
    if x0 is not None:
        x = np.array(x0, dtype=np.float64).reshape(n_rows, m, p)
    elif cfg.init == "zeros":
        x = np.zeros((n_rows, m, p))
    else:
        x = np.stack([cfg.init_scale * rngmod.stream(seed, rngmod.STREAM_ATTACK, 0)
                      .standard_normal((m, p)) for seed in seeds])

    # stored iterates and objectives, by step then row
    traj = np.empty((cfg.iters + 1, n_rows, m, p))
    objectives = np.empty((cfg.iters + 1, n_rows))
    iters_run = np.zeros(n_rows, dtype=np.int64)
    truncated = np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)                      # rows still running
    f, v, vjp = _score(spec, theta, x, labels, g_obs)
    traj[0], objectives[0] = x, f
    step = cfg.step_size
    mom1 = np.zeros_like(x)
    mom2 = np.zeros_like(x)
    b1, b2, eps = 0.9, 0.999, 1e-8

    for t in range(1, cfg.iters + 1):
        grad = (2.0 / m) * vjp(v)
        stale = False
        if cfg.optimizer == "adam":
            mom1 = b1 * mom1 + (1 - b1) * grad
            mom2 = b2 * mom2 + (1 - b2) * grad * grad
            mhat = mom1 / (1 - b1 ** t)
            vhat = mom2 / (1 - b2 ** t)
            x_new = x - step * mhat / (np.sqrt(vhat) + eps)
            f_new, v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)
        else:
            x_new = x - step * grad
            f_new, v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)
            if cfg.backtracking:
                trial = np.full(len(live), step)
                tries = 0
                worse = f_new > f
                while worse.any() and tries < 40:
                    trial[worse] *= 0.5
                    x_new[worse] = x[worse] - trial[worse, None, None] * grad[worse]
                    f_new[worse] = _score(spec, theta[worse], x_new[worse],
                                          labels[worse], g_obs[worse])[0]
                    tries += 1
                    worse = f_new > f
                # stay put, keep monotone
                x_new[worse], f_new[worse] = x[worse], f[worse]
                stale = tries > 0             # v_new, vjp_new are of the first candidates

        ok = np.isfinite(x_new).all(axis=(1, 2)) & np.isfinite(f_new)
        if not ok.all():
            truncated[live[~ok]] = True
            live, theta, g_obs, labels = live[ok], theta[ok], g_obs[ok], labels[ok]
            x_new, f_new, mom1, mom2 = x_new[ok], f_new[ok], mom1[ok], mom2[ok]
            if len(live) == 0:
                break
            stale = True
        if stale:
            # one pass over the accepted candidates, for their residuals and VJP
            v_new, vjp_new = _score(spec, theta, x_new, labels, g_obs)[1:]

        x, f, v, vjp = x_new, f_new, v_new, vjp_new
        iters_run[live] = t
        traj[t, live] = x
        objectives[t, live] = f

    for b in np.flatnonzero(truncated):
        traj[iters_run[b] + 1:, b] = traj[iters_run[b], b]
    return traj, objectives, iters_run, truncated


def invert_uploads(spec: models.ModelSpec, cfg: AttackConfig, seeds: list[int],
                   uploads: list[tuple[np.ndarray, np.ndarray, ClientDataset]],
                   cap_d: float) -> tuple[list[np.ndarray], list[float]]:
    """Invert each observed ``(theta, wire, dataset)`` upload with the attack
    seed of the same index, in ``lockstep_blocks``. Returns each upload's
    objectives (F at t = 0..iters_run) and its ``privacy_leakage`` against its
    dataset, scored from the block's arrays; the iterates die with their block."""
    objectives, leakages = [], []
    m = len(uploads[0][2].y)
    for block in lockstep_blocks(list(zip(seeds, uploads)), spec, cfg, m):
        block_seeds, block_uploads = zip(*block)
        thetas, wires, dss = zip(*block_uploads)
        traj, f, iters_run, _ = _invert_block(spec, np.stack(thetas), np.stack(wires),
                                              np.stack([ds.y for ds in dss]), cfg,
                                              block_seeds, None)
        objectives += [f[:n + 1, b].copy() for b, n in enumerate(iters_run)]
        leakages += _leakage(traj, iters_run, np.stack([ds.x for ds in dss]), cap_d)
    return objectives, leakages


def _checked_originals(trace: AttackTrace, originals: np.ndarray, cap_d: float) -> np.ndarray:
    if cap_d <= 0:
        raise ConfigurationError("D must be > 0")
    originals = np.asarray(originals, dtype=np.float64)
    if originals.shape != trace.final_x.shape:
        raise ConfigurationError(f"originals shape {originals.shape} != "
                                 f"trace shape {trace.final_x.shape}")
    return originals


def privacy_leakage(trace: AttackTrace, originals: np.ndarray, cap_d: float) -> float:
    """Trajectory-averaged leakage: 1 - mean_i mean_t min(||X_{t,i}-X_i||, D)/D."""
    originals = _checked_originals(trace, originals, cap_d)
    return _leakage(trace.trajectory[:, None], np.array([trace.iters_run]),
                    originals[None], cap_d)[0]


def _leakage(traj: np.ndarray, iters_run: np.ndarray, originals: np.ndarray,
             cap_d: float) -> list[float]:
    """``privacy_leakage`` of each row b of stored iterates ``traj`` (T + 1, B,
    m, p) over t = 1..iters_run[b], against ``originals[b]``, in one walk.

    Adds one step at a time, t in order, for every row at once; a row past its
    own ``iters_run`` adds zeros. Reducing a stacked (T, m) array instead lets
    numpy sum pairwise, which moves the result by ulps when m == 1.
    """
    if np.any(iters_run < 1):
        raise ConfigurationError("trace has no iterations")
    acc = np.zeros(originals.shape[:2])
    for t in range(1, iters_run.max() + 1):       # traj[0] is the t = 0 init
        dist = np.linalg.norm(traj[t] - originals, axis=-1)
        acc += np.where((iters_run >= t)[:, None], np.minimum(dist, cap_d) / cap_d, 0.0)
    return [float(1.0 - np.mean(row / n)) for row, n in zip(acc, iters_run)]


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
