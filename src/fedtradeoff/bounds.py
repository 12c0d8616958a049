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


def _m_term_row(big_m: float, d: float, cap_d: float, eta: float, m: float) -> tuple:
    """One row's arguments of the M term, checked, and its lambda-free logs,
    taken with libm: log M, log m, log 2d, 2D and log(2 ln(1/eta)) (-inf at
    eta = 1, where logaddexp leaves the covering term as it is)."""
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
    b = math.log(2.0 * math.log(1.0 / eta)) if eta < 1.0 else -math.inf
    return math.log(big_m), math.log(m), math.log(2 * d), 2.0 * cap_d, b


def _rows(*args) -> list[np.ndarray]:
    """The arguments as float arrays of their broadcast shape, the rows' shape."""
    return np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in args))


def _m_term_logs(big_m, d, cap_d, eta, m) -> np.ndarray:
    """The (5, *rows) lambda-free logs of the M term (``_m_term_row``) for rows
    of arguments, each a float or an array of the rows' shape; every row is
    checked, in row order."""
    args = _rows(big_m, d, cap_d, eta, m)
    logs = [_m_term_row(*row) for row in zip(*(a.ravel().tolist() for a in args))]
    return np.array(logs, dtype=np.float64).reshape(-1, 5).T.reshape(5, *args[0].shape)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` of libm (a ``math`` function) at each element of x. numpy's SIMD
    exp and log1p need not round as libm does, and the bounds keep libm's bits."""
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def _log(x: float) -> float:
    """libm's log, -inf at 0."""
    return math.log(x) if x else -math.inf


def _m_term_log(logs: np.ndarray, w) -> tuple:
    """(log of the M term, a, logaddexp(a, b), t) at w = 2D / lambda^2 for the
    rows of ``logs`` (``_m_term_logs``), where a = log(2 N ln 2) with log N =
    (w + 1) log 2d, b = log(2 ln(1/eta)) and t = exp(-|a - b|). logaddexp is
    taken as numpy's scalar loop takes it, with libm's log1p and exp."""
    log_m_term, log_m, log_2d, _, b = logs
    a = math.log(2.0 * math.log(2.0)) + (w + 1.0) * log_2d
    t = _libm(math.exp, -np.abs(a - b))
    lae = np.maximum(a, b) + _libm(math.log1p, t)
    return log_m_term + 0.5 * (lae - log_m), a, lae, t


def _m_term(logs: np.ndarray, lam) -> np.ndarray:
    """M * sqrt((2 N ln 2 + 2 ln(1/eta)) / m) with N in log domain at lam, for
    the rows of ``logs`` (``_m_term_logs``, shaped to broadcast against lam).
    Each value is the one-row scalar formula's bit for bit: numpy's arithmetic
    rounds as Python's does, and the exponentials are libm's."""
    # past lam = 2^512, lam^2 overflows and 2D / lam^2 is 0; beside the 1 it
    # is added to, it is 0 anyway for any D below 2^970
    with np.errstate(over="ignore"):
        w = logs[3] / (lam * lam)
    val_log = _m_term_log(logs, w)[0]
    return np.where(val_log > 700.0, math.inf, _libm(math.exp, np.minimum(val_log, 700.0)))


def _utility_consts(big_c, delta_two, big_m, d, cap_d, eta, m) -> np.ndarray:
    """The (7, *rows) lambda-free values of the utility bound for rows of
    arguments as in ``_m_term_logs``: C, C*delta_two, then the M term's logs.
    Every row is checked, C and delta_two first."""
    args = _rows(big_c, delta_two, big_m, d, cap_d, eta, m)
    big_c, delta_two = args[:2]
    for c, two in zip(big_c.ravel().tolist(), delta_two.ravel().tolist()):
        if c <= 0:
            raise ConfigurationError("C must be > 0")
        if two < 0:
            raise ConfigurationError("delta_two must be >= 0")
    with np.errstate(over="ignore"):     # past the largest float, the bound is inf
        c_delta = big_c * delta_two
    return np.concatenate([big_c[None], c_delta[None], _m_term_logs(*args[2:])])


def _utility_bound(consts: np.ndarray, lam) -> np.ndarray:
    """C*lambda + C*delta_two + M*sqrt((2 N ln2 + 2 ln(1/eta)) / m) at lam, for the
    rows of ``consts`` (``_utility_consts``, shaped to broadcast against lam)."""
    with np.errstate(over="ignore"):     # past the largest float, the bound is inf
        return (consts[0] * lam + consts[1]) + _m_term(consts[2:], lam)


def _slope(k: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi, dphi/du) at u = 1/lambda^2 for the rows of ``k``: the M term's logs
    (``_m_term_logs``), then K = 2D log 2d and log K - log C. The bound's slope
    is C - h, h = T s K / lambda^3 with T the M term and s = exp(a - logaddexp(a,
    b)) its logaddexp weight; phi = log h - log C rises with u, and is finite
    wherever log T is. dphi/du overflows to inf for lambda above about 1.1e154."""
    val_log, a, lae, t = _m_term_log(k[:5], k[3] * u)
    s = np.where(a >= k[4], 1.0, t) / (1.0 + t)
    with np.errstate(over="ignore"):
        return (val_log + (a - lae) + 1.5 * _libm(_log, u) + k[6],
                k[5] * (1.0 - 0.5 * s) + 1.5 / u)


# the bracket tops below which quadrupling keeps the top's square finite
_TOP_CAP = 2.0 ** 510


def minimize_utility_lambda(big_c, delta_two, big_m, d, cap_d, eta, m
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(lambda*, rhs*) minimizing the utility bound f over lambda > delta_two, for
    rows of arguments searched in lockstep: each argument a float or an array
    of the rows' shape, and lambda* and rhs* arrays of that shape.

    f is convex, so lambda* is ``lo`` (just above delta_two) where f' >= 0 there
    and otherwise the root of f' (``_slope``), found by safeguarded Newton steps
    in u = 1/lambda^2 (Numerical Recipes' rtsafe) in a bracket whose top is
    first max(10 (D + 1), 4 delta_two + 1), taken below 2^512 (where its
    square overflows) and not below lo, then quadrupled until f' > 0 there (at
    most 20 times, and not past 2^512; a row still unbracketed takes that
    top). Each row is frozen once its step is 1e-14 relative (at most 60
    steps) and equals its one-row search bit for bit, on any numpy dispatch:
    the arithmetic is correctly rounded and the logs and exps libm's.
    """
    args = _rows(big_c, delta_two, big_m, d, cap_d, eta, m)
    consts = _utility_consts(*args).reshape(7, -1)
    delta_two, cap_d = args[1].ravel(), args[4].ravel()
    # Python's max(x, y) is y only when y > x
    lo = delta_two + np.where(1e-9 * delta_two > 1e-9, 1e-9 * delta_two, 1e-9)
    top, alt = 10.0 * (cap_d + 1.0), 4.0 * delta_two + 1.0
    top = np.maximum(np.minimum(np.where(alt > top, alt, top), np.nextafter(2.0 ** 512, 0)), lo)
    big_k = consts[5] * consts[4]
    k = np.concatenate([consts[2:], big_k[None],
                        (_libm(_log, big_k) - _libm(math.log, consts[0]))[None]])

    # phi at lo and at the first top, then at the top's end of each bracket.
    # Past 2^512 a square overflows to inf, its u to 0 and phi there to -inf:
    # a row whose lo is that large has lambda* = lo, and its overflows are
    # silenced
    lam = lo.copy()
    with np.errstate(over="ignore", divide="ignore"):
        u_pos, u = 1.0 / np.square(np.stack([lo, top]))
        (f_lo, f), (_, df) = _slope(k[:, None], np.stack([u_pos, u]))
    rows = np.flatnonzero(f_lo > 0)
    grow = rows[~(f[rows] < 0)]
    for _ in range(20):
        move = grow[top[grow] < _TOP_CAP]
        if not move.size:
            break
        top[move] *= 4.0
        u[move] = 1.0 / np.square(top[move])
        f[move], df[move] = _slope(k[:, move], u[move])
        grow = grow[~(f[grow] < 0)]
    lam[grow] = top[grow]
    rows = rows[np.isin(rows, grow, invert=True)]

    # Newton from the top's end. A step that leaves the bracket, or scales u
    # by more than 16 (where log u dominates phi, Newton crawls), or whose
    # slope overflowed (a step of 0), takes the bracket's geometric midpoint.
    # A row leaves (rows, k and its state) once its step is 1e-14 relative or
    # its 60th
    k, u, f, df, u_neg, u_pos = k[:, rows], u[rows], f[rows], df[rows], u[rows], u_pos[rows]
    for i in range(60):
        if not rows.size:
            break
        step = u - f / df
        newton = ((step >= u_neg) & (step <= u_pos) & (step <= 16.0 * u) & (16.0 * step >= u)
                  & (df < math.inf))
        step = np.where(newton, step, np.sqrt(u_neg) * np.sqrt(u_pos))
        done = (np.abs(step - u) <= 1e-14 * step) | (i == 59)
        u = step
        if np.count_nonzero(done):
            lam[rows[done]] = 1.0 / np.sqrt(u[done])
            left = ~done
            rows, k, u, u_neg, u_pos = (v[..., left] for v in (rows, k, u, u_neg, u_pos))
        if rows.size:
            f, df = _slope(k, u)
            below = f < 0
            u_neg, u_pos = np.where(below, u, u_neg), np.where(below, u_pos, u)
    lam = np.where(lo > lam, lo, lam)
    return lam.reshape(args[0].shape), _utility_bound(consts, lam).reshape(args[0].shape)


@dataclass
class BoundInputs:
    """What the trade-off formulas read.

    ``eps_p`` and ``eps_e`` hold one entry per client, K of them; gamma
    broadcasts from a scalar. ``big_l`` is the general trade-off's explicit
    Theta-constant (default 1); ``rho`` the randomization trade-off's constant.
    """
    constants: ConstantsEstimate
    eta: float
    lam: float
    gamma: np.ndarray
    eps_p: np.ndarray
    eps_e: np.ndarray
    d: int
    rho: float = 1.0
    big_l: float = 1.0

    def __post_init__(self) -> None:
        self.eps_p = np.asarray(self.eps_p, dtype=np.float64)
        self.eps_e = np.asarray(self.eps_e, dtype=np.float64)
        self.gamma = np.broadcast_to(np.asarray(self.gamma, dtype=np.float64),
                                     self.eps_p.shape).copy()
        if self.eps_e.shape != self.eps_p.shape:
            raise ConfigurationError("eps_e must have length K")
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
    for k in range(len(inputs.eps_p)):
        total += coef * (1.0 - inputs.eps_p[k])
        total += coef * math.sqrt(math.log(1.0 / inputs.gamma[k]) / inputs.eps_e[k])
    return total / len(inputs.eps_p)


def _tradeoff(inputs: BoundInputs, client: int, coefficient: float) -> float:
    """coefficient * (the client-average term) + the M term of ``client``."""
    if not (0 <= client < len(inputs.eps_p)):
        raise ConfigurationError("client index out of range")
    if np.any(inputs.eps_e <= 0):
        raise ConfigurationError("eps_e must be positive")
    c = inputs.constants
    head = coefficient * _client_average_term(inputs)
    logs = _m_term_logs(c.big_m, inputs.d, c.cap_d, inputs.eta, float(inputs.eps_e[client]))
    if inputs.lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return head + float(_m_term(logs, inputs.lam))


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
