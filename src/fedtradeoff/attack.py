"""Semi-honest server attacker.

Phase 1: gradient inversion. The attacker knows the model, learning setup and
the labels, observes the uploaded (possibly distorted) gradient ``g_obs``, and
minimizes the matching objective

    F(X) = || (1/m) sum_i grad_theta L(theta, X_i, Y_i)  -  g_obs ||^2

over the candidate features ``X``. Its gradient is exact and batched over the
samples: with v = (1/m) sum_i grad_theta L(theta, X_i, Y_i) - g_obs,
dF/dX_i = (2/m) J_i^T v, where J_i is the Jacobian of sample i's parameter
gradient w.r.t. X_i. An inversion prepares its model and labels once
(``models.prepare``); the prepared pass scores a candidate with one forward
pass and returns every J_i^T v as a deferred VJP over that pass, so the
optimizer runs one forward pass per evaluated candidate: an
accepted candidate's VJP gives the next step's gradient, and a rejected
backtracking candidate never pays for its VJP. ``invert_batch`` runs several
equal-shape inversions in lockstep over a leading trial axis, one stacked
forward pass per step for all of them, and returns one trace per upload.
The loop scores each accepted iterate as it comes: it adds each sample's
clamped distance to the original into a running sum, and once it ends it
takes the final iterates' distances, so a trace carries both of its
leakages. It keeps the iterates themselves only when asked to
(``--dump-trajectory``). ``privacy_leakage`` and ``privacy_leakage_final``
read them off the trace alone.

Phase 2: the attacker trains a classifier on the recovered features with the
true labels and scores Risk / AdvRisk plus the PAC sample-complexity formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models, rng as rngmod
from .datagen import ClientDataset
from .errors import ConfigurationError, NumericError, require_bool, require_int, require_number


@dataclass(frozen=True)
class AttackConfig:
    """A gradient inversion's settings. Only the gaussian init reads ``init_scale``
    and only sgd ``backtracking``: either off its default elsewhere is refused."""
    iters: int
    optimizer: str = "adam"            # sgd | adam
    step_size: float = 0.05
    init: str = "zeros"                # zeros | gaussian
    init_scale: float = 0.5
    seed: int = 0
    backtracking: bool = False         # sgd only: enforce monotone objective

    def __post_init__(self) -> None:
        require_int("iters", self.iters, 1)
        require_number("step_size", self.step_size)
        require_number("init_scale", self.init_scale)
        require_bool("backtracking", self.backtracking)
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigurationError(f"unknown optimizer: {self.optimizer!r}")
        if not 0 < self.step_size < math.inf:         # NaN fails too
            raise ConfigurationError("step_size must be finite and > 0")
        if self.init not in ("zeros", "gaussian"):
            raise ConfigurationError(f"unknown init: {self.init!r}")
        if not 0 <= self.init_scale < math.inf:
            raise ConfigurationError("attack init_scale must be finite and >= 0")
        if self.init != "gaussian" and self.init_scale != 0.5:
            raise ConfigurationError(f"attack.init_scale is not read by a {self.init} init")
        if self.optimizer != "sgd" and self.backtracking:
            raise ConfigurationError(f"attack.backtracking is not read by {self.optimizer}")


@dataclass
class AttackTrace:
    objectives: np.ndarray                   # F at t = 0..iters_run
    final_x: np.ndarray
    iters_run: int
    # sums[i] adds min(||X_{t,i} - x_i||, D) / D over t = 1..iters_run, in t
    # order, and final[i] is min(||final_x_i - x_i||, D) / D, against the
    # originals x and the D the inversion was given
    sums: np.ndarray
    final: np.ndarray
    truncated: bool = False
    # X_t for t = 0..iters_run, shape (iters_run + 1, m, p), when kept; the
    # traces of one invert_batch call are views of one array
    trajectory: np.ndarray | None = None


def _score(prep: models.Prepared, x: np.ndarray, g_obs: np.ndarray):
    """F(x), its residual v and the input VJP, all from one run of the
    prepared pass ``prep`` (``models.prepare``) at x.

    Any leading (trial) axes of the arguments are kept: F has their shape.
    v is ``grads.mean(axis=-2) - g_obs`` bit for bit. numpy's mean is
    ``np.add.reduce`` over the example axis, then a division by m; the
    residual takes those two steps itself, in place, without the wrapper.
    For a gradient length 2 <= P < ``models._NARROW`` it takes the sum by an
    ordered accumulation instead. There numpy's reduce adds the m examples'
    rows one after another, starting from +0.0; the accumulation adds them in
    the same order, and one added 0.0 turns a sum of -0.0 alone into numpy's
    +0.0; it runs no inner loop over the short P axis. At P = 1 numpy folds
    the example axis into its inner loop and sums it pairwise from 8 examples
    on, so the accumulation needs P >= 2. Any P >= 2 keeps the bits, but only
    below ``models._NARROW`` is it the cheaper one: measured at 1 to 256
    trials of 16 examples, it wins at 2 to 4 entries and loses at 6 and 7, so
    both ends keep the reduce."""
    grads, vjp = prep(x)
    m = grads.shape[-2]
    if 2 <= grads.shape[-1] < models._NARROW:
        v = (np.add.accumulate(grads, axis=-2)[..., -1, :] + 0.0) / m - g_obs
    else:
        v = np.add.reduce(grads, axis=-2)
        v /= m
        v -= g_obs
    with np.errstate(over="ignore"):      # F = inf truncates the row
        f = np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]
    return f, v, vjp


def invert_batch(spec: models.ModelSpec, theta: np.ndarray, g_obs: np.ndarray,
                 labels: np.ndarray, cfg: AttackConfig, seeds, originals: np.ndarray,
                 cap_d: float, *, x0: np.ndarray | None = None,
                 keep_trajectory: bool = False) -> list[AttackTrace]:
    """Reconstruct the m feature vectors behind B uploads, in lockstep.

    Row b inverts ``g_obs[b]`` (shape (B, param_dim)) observed at ``theta[b]``
    with labels ``labels[b]`` (shape (B, m)), under ``cfg`` with its init
    drawn at attack seed ``seeds[b]``; ``x0`` (B, m, p) overrides the init.
    The model and labels are prepared once (``models.prepare``), and every
    step runs one stacked forward pass of that pass for the rows still
    running; those rows, and the rows a backtracking step re-scores, run on
    its ``take`` of them. A row that truncates leaves the batch at its last
    accepted iterate (a row whose objective at the init is not finite
    truncates before step 1); SGD backtracking halves the step of each row
    that has not yet improved. Row b's trace equals that of row b run as a
    batch of one, bit for bit.

    Every row's leakage is scored at the one D ``cap_d``, row b's against
    ``originals[b]`` ((B, m, p)): each accepted iterate's clamped distances
    go into the trace's ``sums`` at its step, and the final iterates' into
    its ``final`` once the loop ends. ``keep_trajectory`` also keeps every
    accepted iterate (``attack --dump-trajectory``).
    """
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
        x = np.stack([cfg.init_scale * g.standard_normal((m, p)) for g in rngmod.streams(
            seeds, [(rngmod.STREAM_ATTACK, 0)] * n_rows)])

    originals = np.asarray(originals, dtype=np.float64)
    require_number("D", cap_d)
    if originals.shape != x.shape or not cap_d > 0:
        raise ConfigurationError("invert_batch needs one (m, p) originals per upload "
                                 "and a D > 0")
    # each accepted iterate goes into its row's leakage sums and, kept, into
    # the trajectory (by step then row); a row's trace reads only its steps
    # 0..iters_run
    sums = np.zeros((n_rows, m))
    if keep_trajectory:
        traj = np.empty((cfg.iters + 1, n_rows, m, p))
        traj[0] = x
    final = x.copy()                              # each row's last accepted iterate
    objectives = np.empty((cfg.iters + 1, n_rows))
    iters_run = np.zeros(n_rows, dtype=np.int64)
    prep = models.prepare(spec, theta, labels)   # the model and labels, once
    f, v, vjp = _score(prep, x, g_obs)
    objectives[0] = f
    truncated = ~np.isfinite(f)                   # no step starts from F = inf
    live = np.flatnonzero(~truncated)             # rows still running
    rows = slice(None)                            # live, as a view while every row runs
    if truncated.any():
        rows = live
        prep, g_obs, x = prep.take(live), g_obs[live], x[live]
        f, v, vjp = _score(prep, x, g_obs)
    step = cfg.step_size
    mom1 = np.zeros_like(x)
    mom2 = np.zeros_like(x)

    # no overflow warnings: a candidate that overflows truncates its row, and
    # an accepted or final iterate's distances are clamped at D even when they
    # square to inf
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.iters + 1 if len(live) else 1):
            grad = (2.0 / m) * vjp(v)
            stale = False
            if cfg.optimizer == "adam":
                x_new = _adam_step(x, grad, mom1, mom2, t, step)
            else:
                x_new = x - step * grad
            f_new, v_new, vjp_new = _score(prep, x_new, g_obs)
            if cfg.backtracking:
                trial = np.full(len(live), step)
                tries = 0
                worse = f_new > f
                while worse.any() and tries < 40:
                    trial[worse] *= 0.5
                    x_new[worse] = x[worse] - trial[worse, None, None] * grad[worse]
                    f_new[worse] = _score(prep.take(worse), x_new[worse], g_obs[worse])[0]
                    tries += 1
                    worse = f_new > f
                # stay put, keep monotone
                x_new[worse], f_new[worse] = x[worse], f[worse]
                stale = tries > 0             # v_new, vjp_new are of the first candidates

            ok = np.isfinite(x_new.reshape(len(x_new), -1)).all(axis=1) & np.isfinite(f_new)
            if not ok.all():
                truncated[live[~ok]] = True
                final[live[~ok]] = x[~ok]
                live, prep, g_obs = live[ok], prep.take(ok), g_obs[ok]
                x, x_new, f_new, mom1, mom2 = x[ok], x_new[ok], f_new[ok], mom1[ok], mom2[ok]
                rows = live
                if len(live) == 0:
                    break
                stale = True
            if stale:
                # one pass over the accepted candidates, for their residuals and VJP
                v_new, vjp_new = _score(prep, x_new, g_obs)[1:]

            x, f, v, vjp = x_new, f_new, v_new, vjp_new
            iters_run[rows] = t
            objectives[t, rows] = f
            sums[rows] += _clamped_distances(x, originals[rows], cap_d)
            if keep_trajectory:
                traj[t, rows] = x
        final[rows] = x
        last = _clamped_distances(final, originals, cap_d)

    return [AttackTrace(objectives=objectives[:n + 1, b].copy(), final_x=final[b],
                        iters_run=int(n), sums=sums[b], final=last[b],
                        truncated=bool(truncated[b]),
                        trajectory=traj[:n + 1, b] if keep_trajectory else None)
            for b, n in enumerate(iters_run)]


def _adam_step(x, grad, mom1, mom2, t: int, step: float) -> np.ndarray:
    """Adam's step t (Kingma & Ba 2015) from x: updates the moments in place
    and returns the new iterate, bit for bit as
        mom1 = b1 * mom1 + (1 - b1) * grad
        mom2 = b2 * mom2 + (1 - b2) * grad * grad
        x - step * (mom1 / (1 - b1 ** t)) / (np.sqrt(mom2 / (1 - b2 ** t)) + eps)
    give it: each operation in that order, over reused temporaries."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    mom1 *= b1
    tmp = (1 - b1) * grad
    mom1 += tmp
    mom2 *= b2
    np.multiply(grad, 1 - b2, out=tmp)
    tmp *= grad
    mom2 += tmp
    np.divide(mom2, 1 - b2 ** t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    x_new = mom1 / (1 - b1 ** t)
    x_new *= step
    x_new /= tmp
    return np.subtract(x, x_new, out=x_new)


def _clamped_distances(x: np.ndarray, originals: np.ndarray, cap_d) -> np.ndarray:
    """min(||x_i - originals_i||, D) / D over the last axis; the norm is
    ``np.linalg.norm``'s own sum of squares, ``np.add.reduce(d * d, axis=-1)``,
    without its per-call checks. numpy's pairwise summation adds a run of
    fewer than 8 elements in order, from +0.0, so a last axis that short can
    be summed column by column with its bits; a square is never -0.0, so the
    +0.0 start changes nothing. That walk is taken where
    ``models._by_column`` finds it the cheaper one (it needs its column bound
    to stay at most 8); otherwise numpy's own order is kept by calling it."""
    d = x - originals
    d *= d
    p = d.shape[-1]
    if models._by_column(d.size // p, p):
        s = d[..., 0].copy()
        for j in range(1, p):
            s += d[..., j]
    else:
        s = np.add.reduce(d, axis=-1)
    np.sqrt(s, out=s)
    np.minimum(s, cap_d, out=s)
    s /= cap_d
    return s


def privacy_leakage(trace: AttackTrace) -> float:
    """Trajectory-averaged leakage: 1 - mean_i mean_t min(||X_{t,i}-X_i||, D)/D
    over t = 1..iters_run, from the trace's step-ordered sums."""
    n = trace.iters_run
    if n < 1:
        if trace.truncated:
            raise NumericError("attack diverged at its first step: no iterate to score")
        raise ConfigurationError("trace has no iterations")
    return float(1.0 - np.mean(trace.sums / n))


def privacy_leakage_final(trace: AttackTrace) -> float:
    """Final-iterate leakage: 1 - mean_i min(||X_{T,i}-X_i||, D)/D."""
    return float(1.0 - np.mean(trace.final))


# ---------------------------------------------------------------------------
# Phase 2


def train_phase2(recovered: ClientDataset, spec: models.ModelSpec, *,
                 epochs: int = 200, lr: float = 0.5, seed: int = 0) -> np.ndarray:
    """The parameters of a deterministic full-batch gradient-descent training
    on recovered data: ``theta - lr * per_example_grads(...).mean(axis=0)``
    per epoch, bit for bit. One pass is prepared over the model's own memory,
    which each step updates in place; the mean gradient is numpy's, its
    ``np.add.reduce`` then a division by the row count. Raises ``NumericError`` when a gradient or
    the model is not finite."""
    if recovered.size == 0:
        raise ConfigurationError("recovered dataset is empty")
    theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT), 0.1)
    prep = models.prepare(spec, theta, recovered.y)
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite value raises below
        for _ in range(epochs):
            g = np.add.reduce(prep(recovered.x)[0], axis=0)
            g /= recovered.size
            if not np.isfinite(g).all():
                raise NumericError("phase-2 training diverged: non-finite parameter gradient")
            g *= lr
            theta -= g
            if not np.isfinite(theta).all():
                raise NumericError("phase-2 training diverged: non-finite model")
    return theta


def risk(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Misclassification rate of the classifier ``theta`` on the labeled set
    (labels stand in for c)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise ConfigurationError("empty test set")
    pred = models.predict(spec, theta, x)
    return float(np.mean(pred != np.asarray(y).astype(np.int64)))


_N_PROBE = 64       # adv_risk's probes per point, as phase2_report runs it


def adv_risk(spec: models.ModelSpec, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
             budget: float, *, n_probe: int = _N_PROBE, seed: int = 0) -> float:
    """Lower estimate of the adversarial risk of the classifier ``theta`` at
    perturbation budget ``budget``.

    Fraction of test points for which a random search finds X within the ball
    that ``theta`` labels otherwise. The center point is always probed, so
    budget 0 reduces exactly to risk(). Probes come from per-point
    substreams, so growing n_probe only extends each point's probe sequence:
    the estimate is monotone non-decreasing in n_probe. Probes scale radially with budget, so for
    half-space classifiers it is monotone in budget as well. A budget whose
    probes overflow the classifier's scores is a ``ConfigurationError``.
    """
    if not 0 <= budget < math.inf:
        raise ConfigurationError("budget must be finite and >= 0")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y).astype(np.int64)
    m, p = x.shape
    hits = 0
    try:
        for i in range(m):
            if int(models.predict(spec, theta, x[i][None, :])[0]) != int(y[i]):
                hits += 1
                continue
            if budget == 0.0:
                continue
            g = rngmod.stream(seed, rngmod.STREAM_ATTACK, 1, i)
            with np.errstate(over="raise", invalid="raise"):
                for _ in range(n_probe):
                    u = g.standard_normal(p)
                    radius_frac = g.uniform(0, 1) ** (1.0 / p)
                    nu = np.linalg.norm(u)
                    if nu == 0:
                        continue
                    cand = x[i] + (budget * radius_frac) * u / nu
                    if int(models.predict(spec, theta, cand[None, :])[0]) != int(y[i]):
                        hits += 1
                        break
    except FloatingPointError as exc:
        raise ConfigurationError(f"budget {budget} overflows the classifier's scores") from exc
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
    try:
        return math.log2(front) + (c_a * delta_up) ** 2
    except OverflowError:                  # the square past the largest float
        return math.inf


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
                  seed: int = 0) -> Phase2Report:
    """Train the phase-2 classifier and assemble its scorecard.

    ``c_a`` is NaN when the constants could not be estimated; the sample lower
    bound is then NaN and ``constants_estimated`` is False.
    """
    theta = train_phase2(recovered, spec, seed=seed)
    r = risk(spec, theta, test_x, test_y)
    ar = adv_risk(spec, theta, test_x, test_y, budget, seed=seed)
    rep = Phase2Report(
        risk=r, adv_risk=ar, budget=budget, pac_eps=pac_eps, pac_delta=pac_delta,
        sample_lower_bound=sample_lower_bound(pac_eps, pac_delta, c_a, delta_up),
        log2_sample_lower_bound=log2_sample_lower_bound(pac_eps, pac_delta, c_a, delta_up),
        not_pac_learnable=not_pac_condition(delta_up, m_prot, pac_eps),
        search="random-ball", n_probe=_N_PROBE, constants_estimated=not math.isnan(c_a),
    )
    rep.validate()
    return rep
