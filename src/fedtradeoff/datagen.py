"""Bounded synthetic datasets and empirical estimation of the analysis constants.

The generator draws i.i.d. examples from a truncated class-conditional Gaussian
mixture and maps them with a fixed affine scale into the ball of radius
``diameter_cap / 2`` centered at the origin, so the max pairwise feature
distance never exceeds ``diameter_cap``. Truncation-by-rejection keeps train
and fresh evaluation draws i.i.d. from the *same* distribution, which the
utility-loss measurement requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import models, rng as rngmod
from .errors import ConfigurationError, EstimationError, NumericError

# Raw mixture lives inside radius _RAW_RADIUS with probability ~1; rejection
# beyond it makes the bound exact.
_RAW_RADIUS = 4.0


@dataclass(frozen=True)
class DatasetSpec:
    num_clients: int
    per_client_size: int
    input_dim: int
    num_classes: int = 2
    class_separation: float = 2.0
    diameter_cap: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be >= 1")
        if self.per_client_size < 1:
            raise ConfigurationError("per_client_size must be >= 1")
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ConfigurationError("num_classes must be >= 2")
        if self.diameter_cap <= 0:
            raise ConfigurationError("diameter_cap must be > 0")


@dataclass
class ClientDataset:
    client_id: int
    x: np.ndarray  # (m, p)
    y: np.ndarray  # (m,) integer labels

    @property
    def size(self) -> int:
        return int(self.x.shape[0])


def _class_centers(spec: DatasetSpec) -> np.ndarray:
    """Class centers at +-(separation/2) along seeded orthonormal axes.

    Classes 2j and 2j+1 sit antipodally on axis j (mod p), so any separation
    actually separates them; a fresh random rotation per seed keeps datasets
    distinct across seeds.
    """
    g = rngmod.stream(spec.seed, rngmod.STREAM_DATA, 0, 0)
    p = spec.input_dim
    q, _ = np.linalg.qr(g.standard_normal((p, p)))
    centers = np.empty((spec.num_classes, p))
    for c in range(spec.num_classes):
        sign = 1.0 if c % 2 == 0 else -1.0
        centers[c] = sign * q[:, (c // 2) % p]
    return (spec.class_separation / 2.0) * centers


def _draw_examples(spec: DatasetSpec, g: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    centers = _class_centers(spec)
    scale = (spec.diameter_cap / 2.0) / _RAW_RADIUS
    xs = np.empty((n, spec.input_dim))
    ys = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = int(g.integers(0, spec.num_classes))
        while True:
            raw = centers[label] + g.standard_normal(spec.input_dim)
            if np.linalg.norm(raw) <= _RAW_RADIUS:
                break
        xs[i] = raw * scale
        ys[i] = label
    return xs, ys


def generate(spec: DatasetSpec) -> list[ClientDataset]:
    """K client datasets, fully determined by spec.seed."""
    out = []
    for k in range(spec.num_clients):
        g = rngmod.stream(spec.seed, rngmod.STREAM_DATA, 1, k)
        x, y = _draw_examples(spec, g, spec.per_client_size)
        out.append(ClientDataset(client_id=k, x=x, y=y))
    return out


def fresh_sampler(spec: DatasetSpec, seed: int):
    """Sampler of fresh i.i.d. draws from the same distribution as generate().

    Returns a callable ``f(n) -> (x, y)``; successive calls continue the stream.
    """
    g = rngmod.stream(seed, rngmod.STREAM_EVAL, 0)

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        return _draw_examples(spec, g, n)

    return draw


def diameter(x: np.ndarray) -> float:
    """Exact max pairwise Euclidean distance (O(m^2) scan)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[0] == 0:
        raise ConfigurationError("diameter of an empty dataset")
    best = 0.0
    for i in range(x.shape[0] - 1):
        d = np.linalg.norm(x[i + 1:] - x[i], axis=1).max()
        best = max(best, float(d))
    return best


def log_covering_number(d: int, cap_d: float, lam: float) -> float:
    """Natural log of the covering number (2d)^(2D/lambda^2 + 1)."""
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if cap_d < 0:
        raise ConfigurationError("D must be >= 0")
    if lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return (2.0 * cap_d / (lam * lam) + 1.0) * math.log(2 * d)


def covering_number(d: int, cap_d: float, lam: float) -> float:
    """(2d)^(2D/lambda^2 + 1) as a float; inf if it overflows."""
    logn = log_covering_number(d, cap_d, lam)
    if logn > 700.0:
        return math.inf
    return math.exp(logn)


@dataclass
class ConstantsEstimate:
    """Sampled estimates of the constants the closed-form bounds consume.

    c_a, c_b bracket the data-vs-gradient distance ratio r = ||X1-X2|| /
    ||grad(X1)-grad(X2)|| over same-label pairs; C bounds |loss difference|
    per unit parameter / data movement; M is the max |per-example loss| at
    the probe (trials use the exact M at their realized distortion instead);
    cap_d is the data diameter; c_0 <= c_2 envelope the attack optimizer's
    cumulative gradient-mismatch growth against sqrt(T).
    """
    c_a: float
    c_b: float
    big_c: float
    big_m: float
    cap_d: float
    c_0: float
    c_2: float
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not (0 < self.c_a <= self.c_b):
            raise EstimationError(f"need 0 < c_a <= c_b, got {self.c_a}, {self.c_b}")
        if self.big_c <= 0 or self.big_m <= 0 or self.cap_d <= 0:
            raise EstimationError("C, M, D must be positive")
        if self.c_0 > self.c_2:
            raise EstimationError("need c_0 <= c_2")


def _pair_ratios(model_spec: models.ModelSpec, theta: np.ndarray,
                 datasets: list[ClientDataset], num_pairs: int,
                 g: np.random.Generator) -> tuple[np.ndarray, int]:
    """Sampled ratios r = ||x1-x2|| / ||grad1-grad2|| over same-label pairs."""
    by_label: dict[int, list[np.ndarray]] = {}
    for ds in datasets:
        for xi, yi in zip(ds.x, ds.y):
            by_label.setdefault(int(yi), []).append(xi)
    labels = [lab for lab, pts in by_label.items() if len(pts) >= 2]
    if not labels:
        raise EstimationError("no label class has two examples")
    # Draw every pair first, in loop order, then take all gradients in one call.
    labs, first, second = [], [], []
    for _ in range(num_pairs):
        lab = labels[int(g.integers(0, len(labels)))]
        pts = by_label[lab]
        i, j = g.choice(len(pts), size=2, replace=False)
        labs.append(lab)
        first.append(pts[int(i)])
        second.append(pts[int(j)])
    x12 = np.array(first + second)
    grads = models.per_example_grads(model_spec, theta, x12, np.array(labs + labs))
    dg = np.linalg.norm(grads[:num_pairs] - grads[num_pairs:], axis=1)
    dx = np.linalg.norm(x12[:num_pairs] - x12[num_pairs:], axis=1)
    used = dg != 0.0
    if not used.any():
        raise EstimationError("all sampled pairs had identical gradients")
    return dx[used] / dg[used], int(num_pairs - used.sum())


def attack_mismatch_envelope(objectives: np.ndarray) -> tuple[float, float, float]:
    """(c_0, c_2, c_fit) from an attack's per-iteration objective series.

    The mismatch at iterate t is sqrt(objective_t); the envelope constants are
    the extremes of S_t / sqrt(t) over prefix sums S_t, and c_fit is the
    least-squares constant of S_t ~ c * sqrt(t).
    """
    mism = np.sqrt(np.maximum(np.asarray(objectives, dtype=np.float64), 0.0))
    s = np.cumsum(mism)
    t = np.arange(1, len(s) + 1, dtype=np.float64)
    ratio = s / np.sqrt(t)
    denom = float(np.sum(t))
    c_fit = float(np.sum(np.sqrt(t) * s) / denom) if denom > 0 else 0.0
    return float(ratio.min()), float(ratio.max()), c_fit


def _finite(losses: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(losses)):
        raise NumericError("non-finite loss")
    return losses


def estimate_constants(model_spec: models.ModelSpec, theta_probe: np.ndarray,
                       datasets: list[ClientDataset], *,
                       num_pairs: int = 200, quantile: float = 0.05,
                       delta_budget: float = 1.0, num_deltas: int = 64,
                       attack_objectives: np.ndarray | None = None,
                       seed: int = 0) -> ConstantsEstimate:
    """Sample-estimate (c_a, c_b, C, M, D, c_0, c_2) on the given data.

    ``attack_objectives`` is the per-iteration objective series of a pilot
    attack run; when absent, c_0 = c_2 = 1 placeholders are recorded as such.
    """
    if num_pairs < 2:
        raise ConfigurationError("num_pairs must be >= 2")
    if not (0 <= quantile <= 0.5):
        raise ConfigurationError("quantile must be in [0, 0.5]; 0 = min/max mode")
    theta_probe = np.asarray(theta_probe, dtype=np.float64)
    g = rngmod.stream(seed, rngmod.STREAM_ESTIMATE, 0)

    ratios, skipped = _pair_ratios(model_spec, theta_probe, datasets, num_pairs, g)
    if quantile == 0.0:
        c_a, c_b = float(ratios.min()), float(ratios.max())
    else:
        c_a = float(np.quantile(ratios, quantile))
        c_b = float(np.quantile(ratios, 1.0 - quantile))

    all_x = np.concatenate([ds.x for ds in datasets], axis=0)
    all_y = np.concatenate([ds.y for ds in datasets], axis=0)
    cap_d = diameter(all_x)
    if cap_d == 0.0:
        cap_d = 1.0  # single-point degenerate data; keep D usable

    # C: max |loss diff| per unit movement, parameter side and data side.
    c_theta = 0.0
    base = models.loss(model_spec, theta_probe, all_x, all_y)
    for _ in range(num_deltas):
        d1 = g.standard_normal(model_spec.param_dim)
        d1 *= delta_budget * g.uniform(0.05, 1.0) / np.linalg.norm(d1)
        l1 = models.loss(model_spec, theta_probe + d1, all_x, all_y)
        c_theta = max(c_theta, abs(l1 - base) / float(np.linalg.norm(d1)))
    # Draw every index pair first, in loop order, then score them together.
    n = all_x.shape[0]
    ij = np.array([(g.integers(0, n), g.integers(0, n))
                   for _ in range(min(num_deltas, n * (n - 1) // 2) or 1)], dtype=np.int64)
    dx = np.linalg.norm(all_x[ij[:, 0]] - all_x[ij[:, 1]], axis=1)
    keep = dx != 0.0                     # also drops the i == j draws
    point_losses = _finite(models.per_example_losses(model_spec, theta_probe, all_x, all_y))
    dl = np.abs(point_losses[ij[:, 0]] - point_losses[ij[:, 1]])
    c_data = float(np.max(dl[keep] / dx[keep], initial=0.0))
    big_c = max(c_theta, c_data, 1e-12)
    big_m = max(float(np.max(np.abs(point_losses))), 1e-12)   # M: exact, at the probe

    if attack_objectives is not None and len(attack_objectives) > 0:
        c_0, c_2, c_fit = attack_mismatch_envelope(attack_objectives)
        c_0 = max(c_0, 1e-12)
        c_2 = max(c_2, c_0)
        pilot_note = {"c_fit": c_fit, "pilot_iters": int(len(attack_objectives))}
    else:
        c_0, c_2 = 1.0, 1.0
        pilot_note = {"c_fit": None, "pilot_iters": 0}

    est = ConstantsEstimate(
        c_a=c_a, c_b=c_b, big_c=big_c, big_m=big_m, cap_d=cap_d, c_0=c_0, c_2=c_2,
        meta={
            "num_pairs": num_pairs,
            "pairs_used": int(len(ratios)),
            "pairs_skipped_degenerate": skipped,
            "skip_rate": skipped / num_pairs,
            "quantile": quantile,
            "ratio_median": float(np.median(ratios)),
            "c_theta_side": c_theta,
            "c_data_side": c_data,
            "delta_budget": delta_budget,
            **pilot_note,
        },
    )
    est.validate()
    return est
