"""Closed-form bound evaluators.

Evaluators are pure and total on their precondition domains. Covering numbers
blow up double precision at modest dimensions, so every term involving N is
computed in log domain and saturates to ``inf`` instead of overflowing.

Bound names used across the package and the CLI:

* ``privacy``                -- privacy-leakage upper bound,
* ``utility``                -- utility-loss upper bound (general / randomization),
* ``tradeoff-general``       -- utility/privacy/efficiency trade-off, general
  mechanisms,
* ``tradeoff-randomization`` -- trade-off for the randomization mechanism,
* ``utility-he``             -- utility/efficiency bound for the HE mechanism
  (the general utility bound at zero two-way distortion).

The private-PAC sample size and the attacker sample-complexity lower bound are
plain evaluators (here and in the attack module) with no Monte-Carlo pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field
from typing import Callable

import numpy as np

from .datagen import ConstantsEstimate
from .errors import ConfigurationError

BOUND_NAMES = ("privacy", "utility", "tradeoff-general", "tradeoff-randomization", "utility-he")


def privacy_precondition_threshold(c_2: float, c_b: float, c_a: float, t_rounds: int) -> float:
    """Minimum uplink distortion for the privacy bound to apply: 2*c2*cb/(ca*sqrt(T))."""
    if c_a <= 0 or c_b <= 0 or c_2 <= 0:
        raise ConfigurationError("constants must be positive")
    if t_rounds < 1:
        raise ConfigurationError("T must be >= 1")
    return 2.0 * c_2 * c_b / (c_a * math.sqrt(t_rounds))


def privacy_upper_bound(gamma: float, m: int, c_a: float, cap_d: float,
                        delta_up: float) -> float:
    """1 + sqrt(ln(2/gamma) / (2m)) - (c_a / 2D) * delta_up."""
    if m <= 0:
        raise ConfigurationError("m must be > 0")
    if cap_d <= 0:
        raise ConfigurationError("D must be > 0")
    if not (0.0 < gamma <= 2.0):
        raise ConfigurationError("gamma must be in (0, 2] so ln(2/gamma) >= 0")
    if c_a <= 0:
        raise ConfigurationError("c_a must be > 0")
    if delta_up < 0:
        raise ConfigurationError("delta_up must be >= 0")
    return 1.0 + math.sqrt(math.log(2.0 / gamma) / (2.0 * m)) - (c_a / (2.0 * cap_d)) * delta_up


def _m_term_of(big_m: float, d: int, cap_d: float, eta: float,
               m: float) -> Callable[[float], float]:
    """lambda -> M * sqrt((2 N ln 2 + 2 ln(1/eta)) / m) with N in log domain.

    The arguments are checked and the lambda-free logs taken once, so a search
    over lambda pays only for the lambda-dependent part."""
    if big_m <= 0:
        raise ConfigurationError("M must be > 0")
    if m <= 0:
        raise ConfigurationError("sample size must be > 0")
    if not (0.0 < eta <= 1.0):
        raise ConfigurationError("eta must be in (0, 1]")
    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if cap_d < 0:
        raise ConfigurationError("D must be >= 0")
    log_2d, log_2ln2 = math.log(2 * d), math.log(2.0 * math.log(2.0))
    b = math.log(2.0 * math.log(1.0 / eta)) if eta < 1.0 else None
    log_m_term, log_m = math.log(big_m), math.log(m)

    def term(lam: float) -> float:
        # log N as in datagen.log_covering_number
        a = log_2ln2 + (2.0 * cap_d / (lam * lam) + 1.0) * log_2d
        val_log = log_m_term + 0.5 * ((a if b is None else _logaddexp(a, b)) - log_m)
        if val_log > 700.0:
            return math.inf
        return math.exp(val_log)
    return term


_LN2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """``np.logaddexp`` of two floats in numpy's own operations, without the
    ufunc call: log1p and exp of libm, as numpy's scalar loop takes them."""
    if x == y:
        return x + _LN2
    if x > y:
        return x + math.log1p(math.exp(y - x))
    return y + math.log1p(math.exp(x - y))


def _utility_bound_of(big_c: float, delta_two: float, big_m: float, d: int, cap_d: float,
                      eta: float, m: float) -> Callable[[float], float]:
    """lambda -> C*lambda + C*delta_two + M*sqrt((2 N ln2 + 2 ln(1/eta)) / m), its
    lambda-free arguments checked once."""
    if big_c <= 0:
        raise ConfigurationError("C must be > 0")
    if delta_two < 0:
        raise ConfigurationError("delta_two must be >= 0")
    m_term = _m_term_of(big_m, d, cap_d, eta, m)
    return lambda lam: (big_c * lam + big_c * delta_two) + m_term(lam)


def utility_upper_bound(big_c: float, lam: float, delta_two: float, big_m: float,
                        d: int, cap_d: float, eta: float, m: int) -> float:
    """C*lambda + C*delta_two + M*sqrt((2 N ln2 + 2 ln(1/eta)) / m)."""
    if lam <= delta_two:
        raise ConfigurationError("lambda must exceed delta_two")
    return _utility_bound_of(big_c, delta_two, big_m, d, cap_d, eta, m)(lam)


def he_utility_upper_bound(big_c: float, lam: float, big_m: float, d: int,
                           cap_d: float, eta: float, m: int) -> float:
    """HE mechanism bound: C*lambda + M*sqrt(...), i.e. zero two-way distortion."""
    if lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return _utility_bound_of(big_c, 0.0, big_m, d, cap_d, eta, m)(lam)


def minimize_utility_lambda(big_c: float, delta_two: float, big_m: float, d: int,
                            cap_d: float, eta: float, m: int) -> tuple[float, float]:
    """(lambda*, rhs*) minimizing the utility bound over lambda > delta_two.

    Coarse log grid to bracket the minimum, then golden-section refinement.
    """
    lo = delta_two + max(1e-9, 1e-9 * delta_two)
    lam_hi = max(10.0 * (cap_d + 1.0), 4.0 * delta_two + 1.0)
    # every lambda tried exceeds delta_two
    f = _utility_bound_of(big_c, delta_two, big_m, d, cap_d, eta, m)

    # expand hi until the grid minimum is interior
    for _ in range(20):
        grid = np.geomspace(lo, lam_hi, 64).tolist()
        vals = [f(lam) for lam in grid]
        i = int(np.argmin(vals))
        if i < len(grid) - 1:
            break
        lam_hi *= 4.0
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    e = a + phi * (b - a)
    fc, fe = f(c), f(e)
    for _ in range(120):
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + phi * (b - a)
            fe = f(e)
        if b - a < 1e-12 * max(1.0, b):
            break
    lam_best = c if fc <= fe else e
    lam_best = max(lam_best, lo)
    return float(lam_best), float(f(lam_best))


@dataclass
class BoundInputs:
    """Everything the trade-off evaluators consume.

    Per-client quantities are arrays of length K; gamma broadcasts from a
    scalar. ``big_l`` is the general trade-off's explicit Theta-constant
    (default 1); ``rho`` the randomization trade-off's constant.
    """
    constants: ConstantsEstimate
    eta: float
    lam: float
    gamma: np.ndarray
    eps_p: np.ndarray
    eps_e: np.ndarray
    delta_up: np.ndarray
    delta_two: float
    num_clients: int
    d: int
    t_rounds: int
    rho: float = 1.0
    big_l: float = 1.0

    def __post_init__(self) -> None:
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=np.float64),
                                     (self.num_clients,)).copy()
        self.eps_p = np.asarray(self.eps_p, dtype=np.float64)
        self.eps_e = np.asarray(self.eps_e, dtype=np.float64)
        self.delta_up = np.asarray(self.delta_up, dtype=np.float64)
        for name, arr in (("eps_p", self.eps_p), ("eps_e", self.eps_e),
                          ("delta_up", self.delta_up)):
            if arr.shape != (self.num_clients,):
                raise ConfigurationError(f"{name} must have length K")
        if np.any(self.eps_e < 1):
            raise ConfigurationError("every eps_e must be >= 1")
        if not (0.0 < self.eta <= 1.0):
            raise ConfigurationError("eta must be in (0, 1]")
        if np.any(self.gamma <= 0) or np.any(self.gamma > 1):
            raise ConfigurationError("gamma must be in (0, 1]")

    def probability_budget(self) -> float:
        """1 - eta - sum_k gamma_k; the claim is vacuous when <= 0."""
        return 1.0 - self.eta - float(self.gamma.sum())


def _client_average_term(inputs: BoundInputs) -> float:
    """(1/K) sum_k [ (2D/c_a)(1 - eps_p_k) + (2D/c_a) sqrt(ln(1/gamma_k)/eps_e_k) ]."""
    c = inputs.constants
    coef = 2.0 * c.cap_d / c.c_a
    total = 0.0
    for k in range(inputs.num_clients):
        total += coef * (1.0 - inputs.eps_p[k])
        total += coef * math.sqrt(math.log(1.0 / inputs.gamma[k]) / inputs.eps_e[k])
    return total / inputs.num_clients


def _tradeoff(inputs: BoundInputs, client: int, coefficient: float) -> float:
    """coefficient * (the client-average term) + the M term of ``client``."""
    if not (0 <= client < inputs.num_clients):
        raise ConfigurationError("client index out of range")
    if np.any(inputs.eps_e <= 0):
        raise ConfigurationError("eps_e must be positive")
    c = inputs.constants
    head = coefficient * _client_average_term(inputs)
    tail = _m_term_of(c.big_m, inputs.d, c.cap_d, inputs.eta, float(inputs.eps_e[client]))
    if inputs.lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return head + tail(inputs.lam)


def tradeoff_general(inputs: BoundInputs, client: int = 0) -> float:
    """General-mechanism trade-off rhs for the designated client: coefficient C * L."""
    if not inputs.big_l > 0:                       # NaN fails too
        raise ConfigurationError("big_l must be > 0")
    return _tradeoff(inputs, client, inputs.constants.big_c * inputs.big_l)


def tradeoff_randomization(inputs: BoundInputs, client: int = 0) -> float:
    """Randomization trade-off rhs: coefficient (2 + rho) * C, L elided."""
    if not inputs.rho > 0:                         # NaN fails too
        raise ConfigurationError("rho must be > 0")
    return _tradeoff(inputs, client, (2.0 + inputs.rho) * inputs.constants.big_c)


def private_pac_sample_size(alpha: float, eps_p: float, c_2: float, eta: float,
                            constant_factor: float = 1.0) -> float:
    """Theta(ln(1/eta) / (alpha - c_2 (1 - eps_p))^2) with an explicit constant."""
    if constant_factor <= 0:
        raise ConfigurationError("constant_factor must be > 0")
    if not (0.0 < eta <= 1.0):
        raise ConfigurationError("eta must be in (0, 1]")
    gap = alpha - c_2 * (1.0 - eps_p)
    if gap <= 0:
        raise ConfigurationError("alpha must exceed c_2 * (1 - eps_p)")
    return constant_factor * math.log(1.0 / eta) / (gap * gap)


@dataclass
class BoundReport:
    """Outcome of evaluating / Monte-Carlo-checking one bound."""
    bound_name: str
    rhs_value: float
    measured_value: float
    precondition_ok: bool
    holds: bool
    trials: int = 1
    violations: int = 0
    n_vacuous: int = 0
    fraction_holding: float = 1.0
    fraction_holding_checked: float | None = None
    confidence: float | None = None
    slack: float | None = None
    vacuous: bool = False
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)
