"""Experiment configuration, the one trial runner and the bound sides.

One trial = generate data and run the protocol (``simulate_batch``), keep what
scoring reads of the run (``Observed``), invert the uploads the trial lists,
estimate its constants at ``trial_probe``, and score it. ``run_trials`` runs
trials stage-wise in lockstep blocks, with one ``simulate_batch``, one
``attack.invert_batch`` and one ``score_block`` (the one scoring stage, the
CLI ``attack``'s too) per block, and is the only inverter of simulated
uploads. A scorer takes a whole block: sweeps and ``attack`` score with
``score_trials`` (one ``TrialRow`` per trial), the bound verifier with each
bound's outcome function.

``privacy_outcomes`` and ``utility_outcomes`` score a block's bound sides,
each once, and every bound reads C, c_a and c_b from the one estimate at
``trial_probe``.

Per-trial seeds are derived splittably from the master seed, so trials are
independent and appending trials never changes existing ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, asdict, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import attack as attackmod
from . import bounds as boundsmod
from . import datagen, models, protocol
from . import rng as rngmod
from .errors import (ConfigurationError, EstimationError, FedTradeoffError, NumericError,
                     require_int, require_number)
from .protocol import MechanismSpec


@dataclass
class ExperimentConfig:
    dataset: datagen.DatasetSpec
    model: models.ModelSpec
    fl: protocol.FLRunConfig
    mechanism: MechanismSpec
    attack: attackmod.AttackConfig
    master_seed: int = 0
    n_eval: int = 400
    num_pairs: int = 120
    quantile: float = 0.05
    gamma: float = 0.1
    eta: float = 0.1
    attack_round: int = 0
    attack_client: int = 0

    def __post_init__(self) -> None:
        for name, least in (("master_seed", 0), ("attack_round", 0), ("attack_client", 0),
                            ("n_eval", 1), ("num_pairs", 1)):
            require_int(name, getattr(self, name), least)
        for name in ("quantile", "gamma", "eta"):
            require_number(name, getattr(self, name))
        # the scorers' own checks, made when the config is built; NaN fails each
        if self.n_eval < 100:
            raise ConfigurationError("n_eval must be >= 100")
        if not 0 <= self.quantile <= 0.5:
            raise ConfigurationError("quantile must be in [0, 0.5]; 0 = min/max mode")
        if not 0 < self.gamma <= 2:
            raise ConfigurationError("gamma must be in (0, 2] so ln(2/gamma) >= 0")
        if not 0 < self.eta <= 1:
            raise ConfigurationError("eta must be in (0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    def experiment_id(self) -> str:
        """Short stable digest of (config, master_seed); the results-row key."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Inverse of ``to_dict``; unknown top-level keys are ignored."""
        try:
            specs = dict(
                dataset=datagen.DatasetSpec(**d["dataset"]),
                model=models.ModelSpec(**d["model"]),
                fl=protocol.FLRunConfig(**d["fl"]),
                mechanism=MechanismSpec(**d["mechanism"]),
                attack=attackmod.AttackConfig(**d["attack"]),
            )
            scalars = {f.name: d[f.name] for f in fields(ExperimentConfig)
                       if f.name in d and f.name not in specs}
            return ExperimentConfig(**specs, **scalars)
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"bad experiment config: {exc}") from exc


@dataclass
class TrialRow:
    """One (trial, sweep point) result; the canonical results-CSV row."""
    experiment_id: str
    sweep_axis: str
    sweep_value: float
    trial_index: int
    seed: int
    mechanism: str
    sigma: float
    eps_p: float
    eps_p_final: float
    eps_u: float
    eps_u_halfwidth: float
    eps_e: int
    delta_up_grad: float
    delta_up_param: float
    delta_two_grad: float
    delta_two_param: float
    privacy_rhs: float
    privacy_precond_ok: bool
    privacy_holds: bool
    utility_rhs: float
    utility_lambda: float
    utility_holds: bool
    c_a: float
    c_b: float
    big_c: float
    big_m: float
    cap_d: float
    c_0: float
    c_2: float
    pair_skip_rate: float

    def as_list(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]


TrialRow.FIELDS = tuple(f.name for f in fields(TrialRow))


def exact_big_m(model_spec: models.ModelSpec, theta: np.ndarray, delta: np.ndarray,
                x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_Z |loss(theta + delta, Z)| over the protected client's training points
    (x, y), at least 1e-12 (a NaN maximum gives 1e-12). Leading trial axes as
    in ``models.per_example_losses`` give one M per trial."""
    top = np.abs(models.per_example_losses(model_spec, theta + delta, x, y)).max(axis=-1)
    return np.where(top > 1e-12, top, 1e-12)


def simulate_batch(trials: list[tuple[ExperimentConfig, int]]) -> list[tuple]:
    """Each ``(config, seed)`` trial's seeded datasets and the protocol run over
    them, ``(datasets, result)``; row b equals trial b run as a batch of one,
    bit for bit. Every trial's data comes from one ``datagen.generate_batch``
    and every run from one stacked ``protocol.run_batch``. The trials share
    their model, dataset spec and FL config, and their mechanisms share kind
    and noise sharing (``_lockstep_blocks`` puts only such trials in one
    block).

    Raises ``NumericError`` when a trial's run diverges."""
    config, seeds = trials[0][0], [seed for _, seed in trials]
    shared = (config.model, config.dataset, config.fl)
    if any((cfg.model, cfg.dataset, cfg.fl) != shared for cfg, _ in trials):
        raise ConfigurationError("stacked trials need one model, dataset spec and FL config")
    datasets = datagen.generate_batch(config.dataset, seeds)
    results = protocol.run_batch(config.model, config.fl, [cfg.mechanism for cfg, _ in trials],
                                 datasets, seeds)
    return list(zip(datasets, results))


class Observed(NamedTuple):
    """What scoring reads of one trial's simulation: its data, every client's
    upload in the attacked round, and the final models (``from_round``)."""
    datasets: list[datagen.ClientDataset]
    theta_round: np.ndarray        # decoded model of the attacked round
    wires: np.ndarray              # (K, d): each client's upload in that round
    delta_up_grad: list[float]     # and its distortions
    delta_up_param: list[float]
    delta_two_grad: float
    delta_two_param: float
    theta_shadow: np.ndarray       # final shadow model
    theta_decoded: np.ndarray      # final decoded model
    two_way: float                 # ||delta||: two_way_distortion of the final models

    @classmethod
    def from_round(cls, rec: protocol.RoundRecord, datasets: list[datagen.ClientDataset],
                   theta_shadow: np.ndarray, theta_decoded: np.ndarray) -> "Observed":
        """The attacked round's record ``rec``, the data and the final models."""
        return cls(datasets, rec.theta_decoded, rec.wires, rec.delta_up_grad,
                   rec.delta_up_param, rec.delta_two_grad, rec.delta_two_param,
                   theta_shadow, theta_decoded, two_way_distortion(theta_decoded, theta_shadow))


def two_way_distortion(theta_decoded: np.ndarray, theta_shadow: np.ndarray) -> float:
    """||delta||, the final decoded model's distance from the final shadow;
    inf when it overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(theta_decoded - theta_shadow))


def _observed(config: ExperimentConfig, datasets: list[datagen.ClientDataset],
              result: protocol.RunResult) -> Observed:
    if not (0 <= config.attack_round < len(result.records)):
        raise ConfigurationError(f"attack_round {config.attack_round} outside run")
    if not (0 <= config.attack_client < len(datasets)):
        raise ConfigurationError(f"attack_client {config.attack_client} out of range")
    return Observed.from_round(result.records[config.attack_round], datasets,
                               result.theta_final_shadow, result.theta_final_decoded)


@dataclass
class TrialOutcome:
    """One side of a bound in one trial: the measured quantity, the bound's rhs,
    whether its stated precondition applied, and the values behind the rhs."""
    measured: float
    rhs: float
    precondition_ok: bool
    extras: dict = field(default_factory=dict)


def privacy_outcomes(block: list[tuple], seen: list[Observed], traces: list[list],
                     ests: list[datagen.ConstantsEstimate | FedTradeoffError | None]
                     ) -> list[TrialOutcome]:
    """The attacked client's leakage vs the privacy bound, for each observed
    ``(config, seed, kw)`` trial of ``block`` at its constants ``ests[i]``;
    the privacy bound's scorer.

    ``traces[i]`` holds the one inversion of that client's upload in the
    observed round. Trials are scored in order, and an error ``ests[i]`` is
    raised before trial i's leakage is scored. With ``ests[i]`` None the
    threshold, rhs and constants are NaN and the precondition fails."""
    out = []
    for (config, _, _), observed, (trace,), est in zip(block, seen, traces, ests):
        est = datagen.constants_of(est)
        client = config.attack_client
        target, delta_up = observed.datasets[client], observed.delta_up_grad[client]
        eps_p = attackmod.privacy_leakage(trace)
        if est is None:
            threshold = rhs = c_a = c_b = c_2 = skip_rate = float("nan")
        else:
            threshold = boundsmod.privacy_precondition_threshold(
                est.c_2, est.c_b, est.c_a, config.attack.iters)
            rhs = boundsmod.privacy_upper_bound(config.gamma, target.size, est.c_a,
                                                config.dataset.diameter_cap, delta_up)
            c_a, c_b, c_2, skip_rate = est.c_a, est.c_b, est.c_2, est.meta["skip_rate"]
        out.append(TrialOutcome(
            measured=eps_p, rhs=rhs, precondition_ok=bool(delta_up >= threshold),
            extras={"delta_up": delta_up, "threshold": threshold, "c_a": c_a, "c_b": c_b,
                    "c_2": c_2, "pair_skip_rate": skip_rate}))
    return out


def utility_outcomes(block: list[tuple], seen: list[Observed],
                     ests: list[datagen.ConstantsEstimate | FedTradeoffError | None]
                     ) -> list[tuple[TrialOutcome, float]]:
    """The attacked client's utility loss vs the utility bound at the minimizing
    lambda, ``(outcome, halfwidth of the loss)``, for each observed
    ``(config, seed, kw)`` trial of ``block`` at its constants ``ests[i]``.

    The loss is that of the final decoded model against the final shadow, on
    the trial's ``n_eval`` fresh draws (``datagen.fresh_draws``). The bound's C
    is the estimate's; an error estimate is raised once the loss and the
    two-way distortion ||delta|| are taken. M is exact at the final decoded
    model; D is the configured cap. A NaN C (estimate None) gives NaN lambda
    and rhs; an infinite ||delta|| raises ``NumericError``.

    The trials share their model, dataset spec and ``n_eval``, as a lockstep
    block's do. Their draws, losses and M are taken in stacked calls over
    chunks of at most ``datagen._BLOCK_BYTES``, whatever the block's size
    (``_lockstep_blocks`` does not charge them), and their lambdas in one
    lockstep ``bounds.minimize_utility_lambda``; each row equals its one-trial
    block bit for bit. A block of one raises its trial's first failing check
    in the order above; a larger block raises some failing trial's error."""
    config = block[0][0]
    model, n = config.model, config.n_eval
    targets = [o.datasets[cfg.attack_client] for (cfg, _, _), o in zip(block, seen)]
    theta = np.array([o.theta_shadow for o in seen])
    delta = np.array([o.theta_decoded for o in seen]) - theta
    draws = datagen.fresh_draws(config.dataset, [seed for _, seed, _ in block],
                                [t.centers for t in targets], n)
    loss, half, big_m = (np.empty(len(block)) for _ in range(3))
    # a trial's draws and rows, labels and forward values: about three copies of each layer
    item = 8 * (n + targets[0].size) * (model.input_dim + 2
                                        + 3 * (model.hidden_dim + model.num_classes))
    for s in datagen._chunks(len(block), item):
        x, y = (np.array([getattr(t, f) for t in targets[s]]) for f in "xy")
        xs, ys = map(np.array, zip(*itertools.islice(draws, len(targets[s]))))
        loss[s], half[s] = protocol.measure_utility_loss(model, theta[s], delta[s], x, y, xs, ys)
        big_m[s] = exact_big_m(model, theta[s], delta[s], x, y)

    big_c = np.full(len(block), np.nan)
    for i, (o, est) in enumerate(zip(seen, ests)):
        if not np.isfinite(o.two_way):
            raise NumericError("non-finite two-way distortion")
        est = datagen.constants_of(est)
        if est is not None:
            big_c[i] = est.big_c
    two_way = np.array([o.two_way for o in seen])
    cap_d = config.dataset.diameter_cap
    lam, rhs = np.full(len(block), np.nan), np.full(len(block), np.nan)
    rows = np.flatnonzero(~np.isnan(big_c))
    if rows.size:
        lam[rows], rhs[rows] = boundsmod.minimize_utility_lambda(
            big_c[rows], two_way[rows], big_m[rows], model.param_dim, cap_d,
            np.array([cfg.eta for cfg, _, _ in block])[rows],
            np.array([t.size for t in targets])[rows])
    return [(TrialOutcome(measured=eps_u, rhs=r, precondition_ok=lam_i > delta_two,
                          extras={"lambda": lam_i, "delta_two": delta_two, "big_c": c,
                                  "big_m": m, "cap_d": cap_d}), h)
            for eps_u, h, r, lam_i, delta_two, c, m in zip(
                loss.tolist(), half.tolist(), rhs.tolist(), lam.tolist(), two_way.tolist(),
                big_c.tolist(), big_m.tolist())]


def trial_probe(config: ExperimentConfig, seed: int, observed: Observed,
                traces: list[attackmod.AttackTrace]) -> datagen.Probe:
    """A trial's one constants probe, for every bound: the attacked round's
    model over every client's data, C's parameter moves up to max(1, 2 ||delta||)
    (1 when ||delta|| is not finite, which its scorer raises on), and the first
    inversion's objectives when the trial inverts an upload."""
    delta_two = observed.two_way
    budget = max(1.0, 2.0 * delta_two) if math.isfinite(delta_two) else 1.0
    return datagen.Probe(observed.theta_round, observed.datasets,
                         num_pairs=config.num_pairs, quantile=config.quantile,
                         delta_budget=budget,
                         attack_objectives=traces[0].objectives[1:] if traces else None,
                         seed=seed)


def score_trials(block: list[tuple], seen: list[Observed], traces: list[list],
                 ests: list[datagen.ConstantsEstimate | FedTradeoffError]) -> list[TrialRow]:
    """Score each observed ``(config, seed, kw)`` trial of ``block`` to its
    ``TrialRow``: leakage, utility loss, constants, bounds; ``kw`` holds the
    row's ``sweep_axis``, ``sweep_value``, ``trial_index`` and
    ``experiment_id``.

    ``traces[i]`` holds the one inversion of trial i's ``config.attack_client``
    upload in the observed round, with ``config.attack.iters`` iterations.
    Both bounds take their constants from ``ests[i]``: an ``EstimationError``
    (no usable pair, e.g. single-sample clients) gives NaN bound columns, any
    other error is raised. ``experiment_id`` defaults to the trial config's
    digest; sweeps stamp their base config's digest on every row so one sweep
    stays one experiment. Every trial's privacy side is scored before the
    block's utility sides (``utility_outcomes``)."""
    ests = [None if isinstance(est, EstimationError) else est for est in ests]
    privacy = privacy_outcomes(block, seen, traces, ests)
    utility = utility_outcomes(block, seen, ests)
    return [_trial_row(cfg, seed, o, ts[0], est, p, u, half, **kw)
            for (cfg, seed, kw), o, ts, est, p, (u, half)
            in zip(block, seen, traces, ests, privacy, utility)]


def _trial_row(config: ExperimentConfig, seed: int, observed: Observed,
               trace: attackmod.AttackTrace, est: datagen.ConstantsEstimate | None,
               privacy: TrialOutcome, utility: TrialOutcome, half: float, *,
               sweep_axis: str = "none", sweep_value: float = 0.0, trial_index: int = 0,
               experiment_id: str | None = None) -> TrialRow:
    client = config.attack_client
    target = observed.datasets[client]
    consts = privacy.extras
    cap_d, c_0 = (float("nan"),) * 2 if est is None else (est.cap_d, est.c_0)
    return TrialRow(
        experiment_id=experiment_id or config.experiment_id(),
        sweep_axis=sweep_axis, sweep_value=sweep_value, trial_index=trial_index,
        seed=seed, mechanism=config.mechanism.kind, sigma=config.mechanism.sigma,
        eps_p=privacy.measured,
        eps_p_final=attackmod.privacy_leakage_final(trace),
        eps_u=utility.measured, eps_u_halfwidth=half, eps_e=target.size,
        delta_up_grad=observed.delta_up_grad[client],
        delta_up_param=observed.delta_up_param[client],
        delta_two_grad=observed.delta_two_grad, delta_two_param=observed.delta_two_param,
        privacy_rhs=privacy.rhs, privacy_precond_ok=privacy.precondition_ok,
        privacy_holds=bool(privacy.precondition_ok and privacy.measured <= privacy.rhs),
        utility_rhs=utility.rhs, utility_lambda=utility.extras["lambda"],
        utility_holds=bool(not np.isnan(utility.rhs) and utility.measured <= utility.rhs),
        c_a=consts["c_a"], c_b=consts["c_b"], big_c=utility.extras["big_c"],
        big_m=utility.extras["big_m"],
        cap_d=cap_d, c_0=c_0, c_2=consts["c_2"], pair_skip_rate=consts["pair_skip_rate"],
    )


def attacked_client(config: ExperimentConfig) -> tuple[int, ...]:
    """The uploads a trial inverts by default: the attacked client's."""
    return (config.attack_client,)


# (m, p) arrays an inversion that keeps no trajectory holds per upload
# whatever its iteration count: the iterate, its candidate, the gradient,
# Adam's two moments, the originals, the final iterate, and one for the
# (m,) leakage sums and final distances
_LOOP_ARRAYS = 8


def _lockstep_blocks(trials: list[tuple], inverted=attacked_client) -> list[list[tuple]]:
    """Consecutive slices of ``trials``, one ``simulate_batch``, one
    ``invert_batch`` and one ``score_block`` call each.

    A block holds trials of one shape (equal model, attack config, dataset spec,
    FL config, mechanism kind and noise sharing, and ``n_eval``) and takes as many as
    fit ``datagen._BLOCK_BYTES``, at least one. Each trial is charged its own bytes:
    its stacked run's (n, K, m, d) per-example gradients for n gradient sets a
    round (2 under randomization, whose shadow takes its own) and, per round,
    its n gradient sets, wires, noise and 4 model vectors; for each listed
    upload the inversion's ``_LOOP_ARRAYS`` (m, p) arrays and its m
    per-example gradients; and its ``Observed``. The inversion keeps no
    trajectory, and scoring chunks its own temporaries (constants rows, the
    utility side) within the same budget, so neither is charged."""
    blocks, held, last = [], 0, None
    for trial in trials:
        config = trial[0]
        model, k, m = config.model, config.dataset.num_clients, config.dataset.per_client_size
        p, d, mech = model.input_dim, model.param_dim, config.mechanism
        n = 2 if mech.kind == "randomization" else 1
        shape = (model, config.attack, config.dataset, config.fl, mech.kind, mech.shared_noise,
                 config.n_eval)
        cost = (8 * d * (n * k * m + config.fl.rounds * ((n + 2) * k + 4))
                + len(inverted(config)) * 8 * m * (_LOOP_ARRAYS * p + d)
                + 8 * (k * m * (p + 1) + (k + 3) * d))
        if shape != last or held + cost > datagen._BLOCK_BYTES:
            blocks.append([])
            held, last = 0, shape
        blocks[-1].append(trial)
        held += cost
    return blocks


def run_trials(trials: list[tuple], score, *, inverted=attacked_client) -> list:
    """The results of each ``(config, seed, kw)`` trial, in order: ``score(block,
    seen, traces, ests)`` lists them for a block of such trials (``score_block``).

    ``inverted(config)`` lists the clients whose uploads in the attacked round
    a trial inverts: by default the attacked client, none for the utility
    bounds, every client for the trade-offs.

    Trials run stage-wise in the lockstep blocks ``_lockstep_blocks`` plans
    (trials of one shape within ``datagen._BLOCK_BYTES``): observe them in one
    ``simulate_batch``, invert every listed upload of the block in one
    ``attack.invert_batch`` (a trial's j-th upload with attack seed
    ``seed + j``, its leakage summed as it runs against that client's data
    at the trial's ``diameter_cap``, so its trace scores itself), then score
    them, traces in listed order, in one ``score_block``; the traces and
    estimates die with the block. A block that raises reruns one trial at a
    time, so the error raised is the one a serial run meets first: that of
    the first failing trial, whatever stage it fails in. This is the only
    place a simulated upload is inverted."""
    rows = []
    for block in _lockstep_blocks(trials, inverted):
        try:
            rows += _run_block(score, inverted, block)
        except Exception:
            if len(block) > 1:
                for trial in block:
                    _run_block(score, inverted, [trial])
            raise
    return rows


def _run_block(score, inverted, block: list[tuple]) -> list:
    seen = [_observed(cfg, *sim) for (cfg, _, _), sim in
            zip(block, simulate_batch([(cfg, seed) for cfg, seed, _ in block]))]
    clients = [tuple(inverted(cfg)) for cfg, _, _ in block]
    uploads = [(cfg, o, k, seed + j) for (cfg, seed, _), o, ks in zip(block, seen, clients)
               for j, k in enumerate(ks)]
    inversions = iter(attackmod.invert_batch(
        block[0][0].model, np.stack([o.theta_round for _, o, _, _ in uploads]),
        np.stack([o.wires[k] for _, o, k, _ in uploads]),
        np.stack([o.datasets[k].y for _, o, k, _ in uploads]),
        block[0][0].attack, [s for _, _, _, s in uploads],
        np.stack([o.datasets[k].x for _, o, k, _ in uploads]),
        [cfg.dataset.diameter_cap for cfg, _, _, _ in uploads]) if uploads else ())
    traces = [list(itertools.islice(inversions, len(ks))) for ks in clients]
    return score_block(score, block, seen, traces)


def score_block(score, block: list[tuple], seen: list[Observed], traces: list[list]) -> list:
    """``score(block, seen, traces, ests)`` of the observed ``(config, seed, kw)``
    trials of ``block``, one result per trial in order, each trial's
    ``ests[i]`` its ``trial_probe``'s row of one
    ``datagen.estimate_constants_batch`` (the estimate, or the error it
    raised); the scoring stage of ``run_trials`` and of the CLI's ``attack``."""
    ests = datagen.estimate_constants_batch(block[0][0].model, [
        trial_probe(cfg, seed, o, ts) for (cfg, seed, _), o, ts in zip(block, seen, traces)])
    return score(block, seen, traces, ests)


SWEEP_AXES = ("sigma", "m", "T", "delta_up")


def _config_for_sweep_value(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    if axis in ("m", "T") and not float(value).is_integer():     # NaN and inf too
        raise ConfigurationError(f"{axis} sweep values must be whole numbers, got {value}")
    if axis == "sigma":
        mech = MechanismSpec(kind="randomization", sigma=float(value),
                             shared_noise=config.mechanism.shared_noise)
        return replace(config, mechanism=mech)
    if axis == "m":
        ds = replace(config.dataset, per_client_size=int(value))
        return replace(config, dataset=ds)
    if axis == "T":
        atk = replace(config.attack, iters=int(value))
        return replace(config, attack=atk)
    # delta_up, the last of SWEEP_AXES, which run_sweep checks
    mech = MechanismSpec(kind="randomization", sigma=1.0,
                         shared_noise=config.mechanism.shared_noise, exact_norm=float(value))
    return replace(config, mechanism=mech)


def run_sweep(config: ExperimentConfig, axis: str, values: list[float],
              trials: int) -> tuple[list[TrialRow], dict]:
    """Cross product of axis values x trials; fixed row order; summary stats."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis: {axis!r}")
    if len(values) < 2:
        raise ConfigurationError("need at least 2 axis values")
    require_int("trials", trials, 1)

    base_id = config.experiment_id()
    configs = [_config_for_sweep_value(config, axis, value) for value in values]
    rows = run_trials([
        (configs[si], seed, dict(sweep_axis=axis, sweep_value=float(value), trial_index=ti,
                                 experiment_id=base_id))
        for si, value in enumerate(values)
        for ti, seed in enumerate(rngmod.trial_seeds(config.master_seed, si, trials))],
        score_trials)

    summary = summarize_sweep(axis, values, rows)
    return rows, summary


def summarize_sweep(axis: str, values: list[float], rows: list[TrialRow]) -> dict:
    from scipy import stats

    medians = []
    for v in values:
        eps = [r.eps_p for r in rows if r.sweep_value == float(v)]
        medians.append(float(np.median(eps)))
    non_increasing = all(medians[i + 1] <= medians[i] + 1e-12
                         for i in range(len(medians) - 1))
    xs = [r.sweep_value for r in rows]
    ys = [r.eps_p for r in rows]
    if any(all(v == vs[0] for v in vs) for vs in (xs, ys)):
        rho = pval = float("nan")       # scipy's answer to constant input, minus its warning
    else:
        rho, pval = stats.spearmanr(xs, ys)
    return {
        "axis": axis,
        "values": [float(v) for v in values],
        "median_eps_p": medians,
        "median_eps_p_non_increasing": bool(non_increasing),
        "spearman_rho": float(rho),
        "spearman_p": float(pval),
        "median_privacy_rhs": [
            float(np.median([r.privacy_rhs for r in rows if r.sweep_value == float(v)]))
            for v in values
        ],
    }
