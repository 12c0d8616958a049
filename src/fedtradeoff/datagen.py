"""Bounded synthetic datasets and empirical estimation of the analysis constants.

The generator draws i.i.d. examples from a truncated class-conditional Gaussian
mixture and maps them with a fixed scale into the ball of radius
``diameter_cap / 2`` at the origin, so no two feature vectors lie more than
``diameter_cap`` apart. Train and fresh evaluation draws come from the *same*
distribution, as the utility-loss measurement requires. Both draw whole arrays
per call in the order of data stream v3 (``_draw_examples``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import models, rng as rngmod
from .errors import (ConfigurationError, EstimationError, FedTradeoffError, NumericError,
                     require_int, require_number)

# Raw mixture lives inside radius _RAW_RADIUS with probability ~1; rejection
# beyond it makes the bound exact.
_RAW_RADIUS = 4.0
# Class centers lie at most 3 standard deviations outside _RAW_RADIUS. Farther
# out a row seldom lands inside it: generating 2 clients of 16 rows in 3
# dimensions took 7 s at separation 16 and over 20 s at 20.
_MAX_SEPARATION = 2 * (_RAW_RADIUS + 3.0)

# Largest diameter cap D: the bounds and the clamped distances square D or
# distances up to it, and D^2 <= 1e300 stays finite. At 1e154 the utility
# bound's constants overflowed.
_MAX_DIAMETER = 1e150

# Least probability that a drawn row lands inside _RAW_RADIUS. A redraw pass
# keeps about 1 - P of the rows still outside, so n rows take about ln(n) / P
# passes: at 1e-4, 60,000 for 400 rows. Generating 2 clients of 16 rows at
# separation 2 took 0.9 s at input_dim 40 (P = 1.8e-4) and over 20 s at 50
# (P = 8e-7); separation 14 keeps P >= 1e-4 up to input_dim 8.
_MIN_INSIDE = 1e-4

# The one byte budget: what a stacked temporary may take (the diameter scan's
# block of pairwise differences; a chunk of estimate rows, of their pair
# gradients or perturbed-model forward values, or of a utility side's draws),
# and what a lockstep block of trials may hold (experiment._lockstep_blocks).
_BLOCK_BYTES = 1 << 20

# Parameter moves an estimate scores for C's parameter side; also the most
# point pairs of its data side.
_NUM_DELTAS = 64


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
        for name, least in (("num_clients", 1), ("per_client_size", 1), ("input_dim", 1),
                            ("num_classes", 2)):
            require_int(name, getattr(self, name), least)
        for name in ("class_separation", "diameter_cap"):
            require_number(name, getattr(self, name))
        if not 0 <= self.class_separation <= _MAX_SEPARATION:     # NaN fails too
            raise ConfigurationError(
                f"class_separation must be between 0 and {_MAX_SEPARATION:g}")
        if not 0 < self.diameter_cap <= _MAX_DIAMETER:
            raise ConfigurationError(
                f"diameter_cap must be finite and > 0, at most {_MAX_DIAMETER:g}")
        inside = _inside_probability(self.input_dim, self.class_separation)
        if not inside >= _MIN_INSIDE:
            raise ConfigurationError(
                f"input_dim {self.input_dim} at class_separation {self.class_separation:g}: "
                f"a row lands inside the truncation radius with probability "
                f"{inside:.2g}, below {_MIN_INSIDE:g}")


@functools.cache
def _inside_probability(input_dim: int, separation: float) -> float:
    """P(||c + z|| <= _RAW_RADIUS) for z ~ N(0, I_p) and ||c|| = separation / 2:
    the noncentral chi-square CDF at _RAW_RADIUS^2, summed as a Poisson mixture
    of central ones (Johnson, Kotz and Balakrishnan, Continuous Univariate
    Distributions, vol. 2, 1995, ch. 29)."""
    half_nc, z = (separation / 2.0) ** 2 / 2.0, _RAW_RADIUS ** 2 / 2.0
    total, j = 0.0, 0
    while True:
        log_weight = -half_nc - math.lgamma(j + 1.0) + (j * math.log(half_nc) if j else 0.0)
        term = math.exp(log_weight) * _lower_gamma(input_dim / 2.0 + j, z)
        total += term
        if not half_nc or (j >= half_nc and term <= 1e-17 * total):
            return total
        j += 1


def _lower_gamma(a: float, z: float) -> float:
    """The regularized lower incomplete gamma P(a, z), by its power series."""
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        n += 1
        term *= z / (a + n)
        total += term
    return total * math.exp(a * math.log(z) - z - math.lgamma(a + 1.0))


@dataclass
class ClientDataset:
    client_id: int
    x: np.ndarray  # (m, p)
    y: np.ndarray  # (m,) integer labels
    # class centers of the mixture the rows were drawn from, when known: a
    # fresh sampler of the same law takes them instead of a second QR
    centers: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return int(self.x.shape[0])


def _class_centers_batch(spec: DatasetSpec, gens) -> np.ndarray:
    """The (n, num_classes, p) class centers of spec's mixture at each of n seeds,
    from their streams ``gens``: +-(separation/2) along orthonormal axes, the Q
    of the QR of a (p, p) normal draw from the stream, the n draws factored in
    one stacked ``np.linalg.qr``.

    Classes 2j and 2j+1 sit antipodally on axis j (mod p), so any separation
    actually separates them; a fresh random rotation per seed keeps datasets
    distinct across seeds.
    """
    p = spec.input_dim
    q, _ = np.linalg.qr(np.array([g.standard_normal((p, p)) for g in gens]))
    c = np.arange(spec.num_classes)
    centers = np.where(c % 2 == 0, 1.0, -1.0)[:, None] * q[..., (c // 2) % p].swapaxes(-1, -2)
    return (spec.class_separation / 2.0) * centers


def _draw_examples(spec: DatasetSpec, centers: np.ndarray, g: np.random.Generator,
                   n: int) -> tuple[np.ndarray, np.ndarray]:
    """n examples in data stream v3's order: n labels, an (n, p) normal array, then
    pass by pass a fresh normal row per row outside _RAW_RADIUS, in row order."""
    y = g.integers(0, spec.num_classes, n)
    raw = centers[y] + g.standard_normal((n, spec.input_dim))
    out = np.flatnonzero(np.linalg.norm(raw, axis=1) > _RAW_RADIUS)
    while out.size:
        raw[out] = centers[y[out]] + g.standard_normal((out.size, spec.input_dim))
        out = out[np.linalg.norm(raw[out], axis=1) > _RAW_RADIUS]
    return raw * ((spec.diameter_cap / 2.0) / _RAW_RADIUS), y


def generate_batch(spec: DatasetSpec, seeds: list[int]) -> list[list[ClientDataset]]:
    """K client datasets for each seed, fully determined by it; each carries the
    mixture's class centers. Row b equals ``seeds[b]`` run as a batch of one,
    bit for bit; ``spec.seed`` is not read.

    Every stream is seeded at once (``rng.streams``): each seed's class
    centers from ``(seed, DATA, 0, 0)``, their QRs stacked, then client k's
    rows from ``(seed, DATA, 1, k)`` in data stream v3's order."""
    k = spec.num_clients
    gens = rngmod.streams(list(seeds) + [s for s in seeds for _ in range(k)],
                          [(rngmod.STREAM_DATA, 0, 0)] * len(seeds)
                          + [(rngmod.STREAM_DATA, 1, j) for _ in seeds for j in range(k)])
    return [[ClientDataset(j, *_draw_examples(spec, centers, next(gens), spec.per_client_size),
                           centers=centers) for j in range(k)]
            for centers in _class_centers_batch(spec, itertools.islice(gens, len(seeds)))]


def fresh_draws(spec: DatasetSpec, seeds: list[int], centers: list, n: int):
    """Yield n fresh i.i.d. draws ``(x, y)`` from spec's mixture with class
    centers c, for each seed s and its centers c in turn: one data stream v3
    batch from the stream ``(s, STREAM_EVAL, 0)``. Draw b equals seed b's as a
    batch of one, bit for bit; every stream is seeded at once (``rng.streams``).
    A None c is spec's class centers at s (``generate_batch``'s at s), from
    its own stream ``(s, DATA, 0, 0)``."""
    gens = rngmod.streams(seeds, [(rngmod.STREAM_EVAL, 0)] * len(seeds))
    for seed, c, g in zip(seeds, centers, gens):
        if c is None:
            c = _class_centers_batch(spec, [rngmod.stream(seed, rngmod.STREAM_DATA, 0, 0)])[0]
        yield _draw_examples(spec, c, g, n)


def _diameters(x: np.ndarray) -> np.ndarray:
    """Each row's exact max pairwise Euclidean distance, for (B, n, p) points.

    Every point is scanned against every point of its row, in tiles of at most
    ``_BLOCK_BYTES`` of differences and sums: whole rows, or one row's points
    in blocks when a row does not fit. A pair seen twice or a finite point
    against itself does not move the max, as (a - b)^2 == (b - a)^2; a NaN
    coordinate makes its row's diameter NaN. The squared
    distance is ``np.linalg.norm``'s sum of squares, ``np.add.reduce(d * d,
    axis=-1)``, summed column by column below 8 coordinates, where numpy's
    pairwise sum adds in order (``attack._clamped_distances``); its max is
    taken before the one sqrt, which is monotone and correctly rounded, so
    the bits are those of the max of the norms."""
    b, n, p = x.shape
    best = np.zeros(b)
    point = 8 * n * (p + 1)                      # one point against its row
    for rows in _chunks(b, n * point):
        xr = x[rows]
        for pts in _chunks(n, len(xr) * point):
            if p < 8:                            # (c, q, n) squares, column by column
                s = np.subtract(xr[:, pts, None, 0], xr[:, None, :, 0])
                s *= s
                d = np.empty_like(s)
                for j in range(1, p):
                    np.subtract(xr[:, pts, None, j], xr[:, None, :, j], out=d)
                    d *= d
                    s += d
            else:
                d = xr[:, pts, None, :] - xr[:, None, :, :]      # (c, q, n, p)
                d *= d
                s = np.add.reduce(d, axis=-1)
            best[rows] = np.maximum(best[rows], s.max(axis=(1, 2)))
    return np.sqrt(best)


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


class _Pools(NamedTuple):
    """Each row's same-label pools: its labels with two or more points, in order
    of first appearance in the row, each pool its points in order."""
    count: np.ndarray       # (B,) pools of each row
    sizes: np.ndarray       # (B, P) points of each pool; P the most pools of a row
    starts: np.ndarray      # (B, P) where each pool starts in its row's members
    members: np.ndarray     # (B, n) the row's pools one after another
    # a row's unused pool slots and members are 0


def _label_pools(y: np.ndarray) -> _Pools:
    """The pools of every row of (B, n) labels, from one stable argsort."""
    b, n = y.shape
    order = np.argsort(y, axis=-1, kind="stable")
    ys = np.take_along_axis(y, order, axis=-1)
    head = np.ones((b, n), dtype=bool)
    head[:, 1:] = ys[:, 1:] != ys[:, :-1]
    start = np.flatnonzero(head)                 # each label's first slot in order, flat
    size = np.diff(start, append=b * n)
    keep = size >= 2
    start, size = start[keep], size[keep]
    row = start // n
    by = np.argsort(row * n + order.ravel()[start])   # by row, then first appearance
    start, size, row = start[by], size[by], row[by]
    count = np.bincount(row, minlength=b)
    slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)
    sizes = np.zeros((b, count.max(initial=0)), dtype=np.int64)
    sizes[row, slot] = size
    starts = np.cumsum(sizes, axis=-1) - sizes
    pool = np.repeat(np.arange(len(size)), size)    # each pooled point's pool
    step = np.arange(len(pool)) - np.repeat(np.cumsum(size) - size, size)
    members = np.zeros((b, n), dtype=np.int64)
    members[row[pool], starts[row, slot][pool] + step] = order.ravel()[start[pool] + step]
    return _Pools(count, sizes, starts, members)


def attack_mismatch_envelope(objectives: np.ndarray):
    """(c_0, c_2, c_fit), each an (R,) array, from an (R, T) stack of attacks'
    per-iteration objective series of one length; row r's values are those
    of series r alone, bit for bit.

    The mismatch at iterate t is sqrt(objective_t); the envelope constants are
    the extremes of S_t / sqrt(t) over prefix sums S_t, and c_fit is the
    least-squares constant of S_t ~ c * sqrt(t).
    """
    mism = np.sqrt(np.maximum(np.asarray(objectives, dtype=np.float64), 0.0))
    s = np.cumsum(mism, axis=-1)
    t = np.arange(1, s.shape[-1] + 1, dtype=np.float64)
    ratio = s / np.sqrt(t)
    c_0, c_2 = ratio.min(axis=-1), ratio.max(axis=-1)
    c_fit = np.sum(np.sqrt(t) * s, axis=-1) / float(np.sum(t))
    return c_0, c_2, c_fit


class Probe(NamedTuple):
    """One row of ``estimate_constants_batch``, what varies per trial: the model
    and client data the constants are estimated at, C's parameter-move budget,
    the pilot attack's objectives and the estimate stream's seed."""
    theta_probe: np.ndarray
    datasets: list[ClientDataset]
    delta_budget: float = 1.0
    attack_objectives: np.ndarray | None = None
    seed: int = 0


def constants_of(row: ConstantsEstimate | FedTradeoffError | None
                 ) -> ConstantsEstimate | None:
    """A row of ``estimate_constants_batch``: its estimate, or its error raised;
    None (no estimate, NaN bound columns) passes through."""
    if isinstance(row, FedTradeoffError):
        raise row
    return row


def _row_bytes(model_spec: models.ModelSpec, n: int, num_pairs: int) -> int:
    """Bytes ``estimate_constants_batch`` holds for a row of n points until its
    chunk is scored; its stacked model calls take at most ``_BLOCK_BYTES`` more."""
    p, d = model_spec.input_dim, model_spec.param_dim
    return 8 * ((n + 2 * num_pairs) * (p + 3) + _NUM_DELTAS * (2 * d + 4))


class _Drawn(NamedTuple):
    """A chunk's drawn rows, stacked: their batch indices and probes, inputs,
    and every draw of their estimate streams."""
    index: list[int]
    probes: list[Probe]
    theta: np.ndarray       # (B, d)
    x: np.ndarray           # (B, n, p): each row's clients' rows
    y: np.ndarray           # (B, n)
    pairs: np.ndarray       # (B, 2 num_pairs): first rows, then second rows
    moves: np.ndarray       # (B, _NUM_DELTAS, d) parameter-move normals
    scales: np.ndarray      # (B, _NUM_DELTAS)
    ij: np.ndarray          # (B, k, 2) point pairs of C's data side


def _chunks(count: int, item_bytes: int):
    """Slices of ``range(count)`` of at most ``_BLOCK_BYTES`` of items each."""
    step = max(1, _BLOCK_BYTES // item_bytes)
    return (slice(s, s + step) for s in range(0, count, step))


def estimate_constants_batch(model_spec: models.ModelSpec, probes: list[Probe],
                             num_pairs: int, quantile: float
                             ) -> list[ConstantsEstimate | FedTradeoffError]:
    """Sample-estimate (c_a, c_b, C, M, D, c_0, c_2) at each probe of one
    config, from ``num_pairs`` pairs and the ratios' ``quantile`` (0 = min/max
    mode): row i is its estimate or the package error it meets, which fails
    that row alone. Row i equals ``probes[i]`` run as a batch of one, bit for
    bit. A pair count below 2, a quantile outside [0, 0.5], or probes of more
    than one data size raise ``ConfigurationError`` before any stream is drawn.

    A probe's ``attack_objectives`` is the per-iteration objective series of
    a pilot attack run; when absent, c_0 = c_2 = 1 placeholders are recorded
    as such.

    Each row draws every sample from its own stream ``(seed,
    STREAM_ESTIMATE, 0)``, all seeded at once (``rng.streams``), as whole
    arrays in this order (estimate stream v2): the ``num_pairs`` pair labels,
    their first indices, their second indices; the ``_NUM_DELTAS`` x
    param_dim parameter-move normals, then their ``_NUM_DELTAS`` scales in
    [0.05, 1) of ``delta_budget``; then the (k, 2) index pairs of the data
    side of C. A pair takes a label uniformly among those with two or more
    points, in order of first appearance in the data, then an ordered pair
    of distinct points of that label uniformly: the first index uniform over
    the label's points, the second uniform over the others (``_draw_chunk``).

    Rows are drawn and scored in probe order, in chunks of at most
    ``_BLOCK_BYTES`` of rows, which no row's draws outlive. A chunk's rows are
    drawn and scored together (``_draw_chunk``): only each row's generator
    calls run per row. Their pair gradients, point losses and perturbed-model
    losses run in stacked model calls of at most ``_BLOCK_BYTES`` each, their
    quantiles in one ``np.quantile`` per used-pair count, their diameters in
    one scan (``_diameters``) and their attack envelopes in one call per
    series length. A model call's values of a row do not depend on the rows
    stacked with it (``models.Prepared``)."""
    require_int("num_pairs", num_pairs, 2)
    if not 0 <= quantile <= 0.5:                    # NaN fails too
        raise ConfigurationError("quantile must be in [0, 0.5]; 0 = min/max mode")
    sizes = {sum(ds.size for ds in probe.datasets) for probe in probes}
    if len(sizes) > 1:
        raise ConfigurationError(
            f"the probes of one estimate hold one data size, not {sorted(sizes)}")
    out: list = [None] * len(probes)
    gens = rngmod.streams([probe.seed for probe in probes],
                          [(rngmod.STREAM_ESTIMATE, 0)] * len(probes))
    row = _row_bytes(model_spec, max(sizes, default=0), num_pairs)
    for chunk in _chunks(len(probes), row):
        drawn, failed = _draw_chunk(
            model_spec, dict(zip(range(len(probes))[chunk], probes[chunk])), num_pairs, gens)
        for i, exc in failed.items():
            out[i] = exc
        if drawn is not None:
            for i, est in zip(drawn.index,
                              _estimate_chunk(model_spec, drawn, num_pairs, quantile)):
                out[i] = est
    return out


def _draw_chunk(model_spec: models.ModelSpec, probes: dict[int, Probe], num_pairs: int, gens
                ) -> tuple[_Drawn | None, dict[int, FedTradeoffError]]:
    """A chunk's rows (``probes``, by batch index), stacked and drawn, each from
    its stream, the next of ``gens`` in probe order.

    The rows' label pools are built at once (``_label_pools``). Then each row
    takes estimate stream v2's six draws, in probe order: its pairs' labels,
    first and second indices, the parameter-move normals and scales, and C's
    data-side index pairs. After the draws, each pair's second index skips its
    first and both are looked up in the pools, for every row at once. Returns
    the drawn rows (None when every row failed) and the error of each row that
    failed, which takes no draw: a move budget not > 0, or no label with two
    points."""
    ids = list(probes)
    y = np.array([np.concatenate([ds.y for ds in probes[i].datasets], axis=0) for i in ids])
    pools = _label_pools(y)
    failed: dict[int, FedTradeoffError] = {}
    for i, count in zip(ids, pools.count.tolist()):
        if not probes[i].delta_budget > 0:              # NaN fails too
            failed[i] = ConfigurationError("delta_budget must be > 0")
        elif not count:
            failed[i] = EstimationError("no label class has two examples")
    keep = [b for b, i in enumerate(ids) if i not in failed]
    if not keep:
        return None, failed
    y, pools, index = y[keep], _Pools(*(a[keep] for a in pools)), [ids[b] for b in keep]
    rows = [probes[i] for i in index]
    b, n = y.shape
    drawn = _Drawn(index, rows,
                   np.array([np.asarray(probe.theta_probe, dtype=np.float64) for probe in rows]),
                   np.array([np.concatenate([ds.x for ds in probe.datasets], axis=0)
                             for probe in rows]), y,
                   None, np.empty((b, _NUM_DELTAS, model_spec.param_dim)),
                   np.empty((b, _NUM_DELTAS)),
                   np.empty((b, min(_NUM_DELTAS, n * (n - 1) // 2) or 1, 2), dtype=np.int64))
    k, first, second = np.empty((3, b, num_pairs), dtype=np.int64)
    at = dict(zip(index, range(b)))
    # gens last: zip stops at the chunk's end without taking the next stream
    for i, g in zip(ids, gens):
        if i not in at:
            continue
        r = at[i]
        k[r] = g.integers(0, pools.count[r], num_pairs)
        high = pools.sizes[r, k[r]]
        first[r] = g.integers(0, high)
        second[r] = g.integers(0, high - 1)
        g.standard_normal(out=drawn.moves[r])
        drawn.scales[r] = g.uniform(0.05, 1.0, _NUM_DELTAS)
        drawn.ij[r] = g.integers(0, n, size=drawn.ij.shape[1:])
    second += second >= first                       # skip the first point
    row = np.arange(b)[:, None]
    start = pools.starts[row, k]
    return drawn._replace(pairs=pools.members[
        row, np.concatenate([start + first, start + second], axis=1)]), failed


def _estimate_chunk(spec: models.ModelSpec, rows: _Drawn, num_pairs: int,
                    quantile: float) -> list[ConstantsEstimate | FedTradeoffError]:
    """The estimates of a chunk's drawn rows. Every row is scored, silently (a
    stage may overflow on a row that fails anyway); each row then takes the
    first error it would meet as a batch of one, in that order. The diameters
    are taken of the rows that pass the checks before them."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        used, ratios, brackets = _pair_ratios(spec, rows, quantile)
        point, base, norms, moved_loss, c_theta, c_data = _loss_sides(spec, rows)
    checks = np.array([used.any(axis=-1), np.isfinite(point).all(axis=-1) & np.isfinite(base),
                       np.isfinite(norms).all(axis=-1), np.isfinite(moved_loss).all(axis=-1)])
    passed = checks.all(axis=0)
    cap_d = np.zeros(len(passed))
    cap_d[passed] = _diameters(rows.x[passed])
    big_m = np.abs(point).max(axis=-1).tolist()                  # M: exact, at the probe
    envelopes = _envelopes(rows.probes)
    out = []
    for k, (probe, (any_used, finite_point, finite_move, finite_moved)) in enumerate(
            zip(rows.probes, checks.T.tolist())):
        try:
            if not any_used:
                raise EstimationError("all sampled pairs had identical gradients")
            if not finite_point:
                raise NumericError("non-finite loss")
            if not finite_move:
                raise NumericError("non-finite parameter move")
            if not finite_moved:
                raise NumericError("non-finite loss")
            out.append(_assemble(probe, num_pairs, quantile, ratios[k], brackets[k], envelopes[k],
                                 float(cap_d[k]), float(c_theta[k]), float(c_data[k]), big_m[k]))
        except FedTradeoffError as exc:
            out.append(exc)
    return out


def _envelopes(probes: list[Probe]) -> list[tuple[float, float, float] | None]:
    """Each probe's ``attack_mismatch_envelope``, one call per series length;
    None for a probe without a series."""
    by_length: dict[int, list[int]] = {}
    for k, probe in enumerate(probes):
        if probe.attack_objectives is not None and len(probe.attack_objectives) > 0:
            by_length.setdefault(len(probe.attack_objectives), []).append(k)
    out: list = [None] * len(probes)
    for ks in by_length.values():
        series = np.array([probes[k].attack_objectives for k in ks], dtype=np.float64)
        for k, env in zip(ks, zip(*(a.tolist() for a in attack_mismatch_envelope(series)))):
            out[k] = env
    return out


def _pair_ratios(spec: models.ModelSpec, rows: _Drawn, quantile: float):
    """Each row's used-pair mask, ratios r = ||x1 - x2|| / ||grad1 - grad2|| over
    its same-label pairs, and (c_a, c_b, median) of the rows with a ratio."""
    x, y, pairs = rows.x, rows.y, rows.pairs
    b, num_pairs = pairs.shape[0], pairs.shape[1] // 2
    dg, dx = np.empty((b, num_pairs)), np.empty((b, num_pairs))
    # a pair's two rows, labels and gradients, and the gradients' temporaries
    item = 8 * 2 * num_pairs * (spec.input_dim + 2 * spec.param_dim + 4)
    at = np.arange(b)[:, None]
    for s in _chunks(b, item):
        x12 = x[at[s], pairs[s]]
        grads = models.per_example_grads(spec, rows.theta[s], x12, y[at[s], pairs[s]])
        dg[s] = np.linalg.norm(grads[:, :num_pairs] - grads[:, num_pairs:], axis=-1)
        dx[s] = np.linalg.norm(x12[:, :num_pairs] - x12[:, num_pairs:], axis=-1)
    used = dg != 0.0
    ratios = [dx[j][used[j]] / dg[j][used[j]] for j in range(b)]
    by_count: dict[int, list[int]] = {}
    for j, r in enumerate(ratios):
        if r.size:
            by_count.setdefault(r.size, []).append(j)
    brackets = {}
    for js in by_count.values():
        r = np.array([ratios[j] for j in js])
        lo, hi = ((r.min(axis=-1), r.max(axis=-1)) if quantile == 0.0
                  else np.quantile(r, [quantile, 1.0 - quantile], axis=-1))
        brackets.update(zip(js, zip(lo.tolist(), hi.tolist(),
                                    np.median(r, axis=-1).tolist())))
    return used, ratios, brackets


def _loss_sides(spec: models.ModelSpec, rows: _Drawn):
    """Each row's point losses, their mean, parameter-move norms, perturbed-model
    losses, and the parameter and data sides of C: max |loss diff| per unit
    movement."""
    theta, x, y = rows.theta, rows.x, rows.y
    b, n, d = len(x), x.shape[1], spec.param_dim
    point = models.per_example_losses(spec, theta, x, y)          # (B, n)
    base = point.mean(axis=-1)
    budget = np.array([probe.delta_budget for probe in rows.probes])[:, None]
    moves = rows.moves * (budget * rows.scales
                          / np.linalg.norm(rows.moves, axis=-1))[..., None]
    norms = np.linalg.norm(moves, axis=-1)
    moved = (theta[:, None, :] + moves).reshape(-1, d)
    owner = np.repeat(np.arange(b), moves.shape[1])
    moved_loss = np.empty(len(moved))
    # a model's rows, labels and forward values: about three copies of each layer
    item = 8 * n * (spec.input_dim + 2 + 3 * (spec.hidden_dim + spec.num_classes))
    for s in _chunks(len(moved), item):
        moved_loss[s] = models.per_example_losses(
            spec, moved[s], x[owner[s]], y[owner[s]]).mean(axis=-1)
    moved_loss = moved_loss.reshape(moves.shape[:2])
    c_theta = (np.abs(moved_loss - base[:, None]) / norms).max(axis=-1, initial=0.0)
    at = np.arange(b)[:, None]
    i, j = rows.ij.transpose(2, 0, 1)                             # (B, k) each
    gap = np.linalg.norm(x[at, i] - x[at, j], axis=-1)
    dl = np.abs(point[at, i] - point[at, j])
    # gap 0 also drops the i == j draws
    c_data = np.divide(dl, gap, out=np.zeros_like(dl), where=gap != 0.0).max(
        axis=-1, initial=0.0)
    return point, base, norms, moved_loss, c_theta, c_data


def _assemble(probe: Probe, num_pairs: int, quantile: float, ratios: np.ndarray,
              bracket: tuple[float, float, float], envelope: tuple[float, float, float] | None,
              cap_d: float, c_theta: float, c_data: float, big_m: float) -> ConstantsEstimate:
    """A row's estimate from its scored parts; its floors leave only c_a <= c_b to fail."""
    c_a, c_b, median = bracket
    if not 0 < c_a <= c_b:
        raise EstimationError(f"need 0 < c_a <= c_b, got {c_a}, {c_b}")
    skipped = num_pairs - len(ratios)
    if envelope is not None:
        c_0, c_2, c_fit = envelope
        c_0 = max(c_0, 1e-12)
        c_2 = max(c_2, c_0)
        pilot_note = {"c_fit": c_fit, "pilot_iters": int(len(probe.attack_objectives))}
    else:
        c_0, c_2 = 1.0, 1.0
        pilot_note = {"c_fit": None, "pilot_iters": 0}
    return ConstantsEstimate(
        c_a=c_a, c_b=c_b, big_c=max(c_theta, c_data, 1e-12), big_m=max(big_m, 1e-12),
        cap_d=cap_d or 1.0,   # 0 for single-point degenerate data; keep D usable
        c_0=c_0, c_2=c_2,
        meta={
            "num_pairs": num_pairs,
            "pairs_used": int(len(ratios)),
            "pairs_skipped_degenerate": skipped,
            "skip_rate": skipped / num_pairs,
            "quantile": quantile,
            "ratio_median": median,
            "c_theta_side": c_theta,
            "c_data_side": c_data,
            "delta_budget": probe.delta_budget,
            **pilot_note,
        },
    )
