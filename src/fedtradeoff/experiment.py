"""Experiment configuration, the one trial runner and the bound sides.

One trial = generate data and run the protocol (``simulate_batch``), keep what
scoring reads of the run (``Observed``), invert the uploads the trial lists,
estimate its constants at ``trial_probe``, and score it. ``run_trials`` runs
the trials of one config, each a ``(seed, mechanism, kw)``, stage-wise in
lockstep blocks, with one ``simulate_batch``, one ``invert_block`` and one
``score_block`` per block. The last two are the one inversion stage and the
one scoring stage: the CLI ``attack`` runs its stored upload through both,
as a trial of one. A scorer takes the config and a whole block: sweeps and
``attack`` score with ``score_trials`` (one ``TrialRow`` per trial), the
bound verifier with each bound's outcome function.

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
                            ("n_eval", 1), ("num_pairs", 2)):
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
        # the model scores each of the data's labels as a class of its own
        if self.dataset.num_classes != self.model.num_classes:
            raise ConfigurationError(
                f"dataset.num_classes {self.dataset.num_classes} differs from "
                f"model.num_classes {self.model.num_classes}")

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


def simulate_batch(config: ExperimentConfig, seeds: list[int],
                   mechs: list[MechanismSpec]) -> list[tuple]:
    """Each trial's seeded datasets and the protocol run over them, ``(datasets,
    result)``, for trial b run at ``seeds[b]`` under ``mechs[b]`` and the
    config's model, dataset spec and FL config; row b equals trial b run as a
    batch of one, bit for bit. Every trial's data comes from one
    ``datagen.generate_batch`` and every run from one stacked
    ``protocol.run_batch``, whose mechanisms share kind and noise sharing.

    Raises ``NumericError`` when a trial's run diverges."""
    datasets = datagen.generate_batch(config.dataset, seeds)
    return list(zip(datasets, protocol.run_batch(config.model, config.fl, mechs, datasets, seeds)))


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


def _observed(config: ExperimentConfig, sims: list[tuple]) -> list[Observed]:
    """The ``Observed`` of each ``simulate_batch`` row of ``config``'s trials."""
    if not 0 <= config.attack_round < config.fl.rounds:
        raise ConfigurationError(f"attack_round {config.attack_round} outside run")
    if not 0 <= config.attack_client < config.dataset.num_clients:
        raise ConfigurationError(f"attack_client {config.attack_client} out of range")
    return [Observed.from_round(result.record(config.attack_round), datasets,
                                result.theta_final_shadow, result.theta_final_decoded)
            for datasets, result in sims]


@dataclass
class TrialOutcome:
    """One side of a bound in one trial: the measured quantity, the bound's rhs,
    whether its stated precondition applied, and the values behind the rhs."""
    measured: float
    rhs: float
    precondition_ok: bool
    extras: dict = field(default_factory=dict)


def privacy_outcomes(config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                     traces: list[list],
                     ests: list[datagen.ConstantsEstimate | FedTradeoffError | None]
                     ) -> list[TrialOutcome]:
    """The attacked client's leakage vs the privacy bound, for each observed
    ``(seed, mechanism, kw)`` trial of ``config`` in ``block`` at its constants
    ``ests[i]``; the privacy bound's scorer.

    ``traces[i]`` holds the one inversion of that client's upload in the
    observed round. Trials are scored in order, and an error ``ests[i]`` is
    raised before trial i's leakage is scored. With ``ests[i]`` None the
    threshold, rhs and constants are NaN and the precondition fails."""
    client, iters, gamma = config.attack_client, config.attack.iters, config.gamma
    cap_d = config.dataset.diameter_cap
    out = []
    for observed, (trace,), est in zip(seen, traces, ests):
        est = datagen.constants_of(est)
        target, delta_up = observed.datasets[client], observed.delta_up_grad[client]
        eps_p = attackmod.privacy_leakage(trace)
        if est is None:
            threshold = rhs = c_a = c_b = c_2 = skip_rate = float("nan")
        else:
            threshold = boundsmod.privacy_precondition_threshold(est.c_2, est.c_b, est.c_a, iters)
            rhs = boundsmod.privacy_upper_bound(gamma, target.size, est.c_a, cap_d, delta_up)
            c_a, c_b, c_2, skip_rate = est.c_a, est.c_b, est.c_2, est.meta["skip_rate"]
        out.append(TrialOutcome(
            measured=eps_p, rhs=rhs, precondition_ok=bool(delta_up >= threshold),
            extras={"delta_up": delta_up, "threshold": threshold, "c_a": c_a, "c_b": c_b,
                    "c_2": c_2, "pair_skip_rate": skip_rate}))
    return out


def utility_outcomes(config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                     ests: list[datagen.ConstantsEstimate | FedTradeoffError | None]
                     ) -> list[tuple[TrialOutcome, float]]:
    """The attacked client's utility loss vs the utility bound at the minimizing
    lambda, ``(outcome, halfwidth of the loss)``, for each observed
    ``(seed, mechanism, kw)`` trial of ``config`` in ``block`` at its constants
    ``ests[i]``.

    The loss is that of the final decoded model against the final shadow, on
    the trial's ``n_eval`` fresh draws (``datagen.fresh_draws``). The bound's C
    is the estimate's; an error estimate is raised once the loss and the
    two-way distortion ||delta|| are taken. M is exact at the final decoded
    model; D is the configured cap. A NaN C (estimate None) gives NaN lambda
    and rhs; an infinite ||delta|| raises ``NumericError``.

    The trials' draws, losses and M are taken in stacked calls over chunks of
    at most ``datagen._BLOCK_BYTES``, whatever the block's size
    (``_lockstep_blocks`` does not charge them), and their lambdas in one
    lockstep ``bounds.minimize_utility_lambda``; each row equals its one-trial
    block bit for bit. A block of one raises its trial's first failing check
    in the order above; a larger block raises some failing trial's error."""
    model, n, cap_d = config.model, config.n_eval, config.dataset.diameter_cap
    targets = [o.datasets[config.attack_client] for o in seen]
    theta = np.array([o.theta_shadow for o in seen])
    delta = np.array([o.theta_decoded for o in seen]) - theta
    draws = datagen.fresh_draws(config.dataset, [seed for seed, _, _ in block],
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
    lam, rhs = np.full(len(block), np.nan), np.full(len(block), np.nan)
    rows = np.flatnonzero(~np.isnan(big_c))
    if rows.size:
        lam[rows], rhs[rows] = boundsmod.minimize_utility_lambda(
            big_c[rows], two_way[rows], big_m[rows], model.param_dim, cap_d, config.eta,
            np.array([t.size for t in targets])[rows])
    return [(TrialOutcome(measured=eps_u, rhs=r, precondition_ok=lam_i > delta_two,
                          extras={"lambda": lam_i, "delta_two": delta_two, "big_c": c,
                                  "big_m": m, "cap_d": cap_d}), h)
            for eps_u, h, r, lam_i, delta_two, c, m in zip(
                loss.tolist(), half.tolist(), rhs.tolist(), lam.tolist(), two_way.tolist(),
                big_c.tolist(), big_m.tolist())]


def trial_probe(seed: int, observed: Observed,
                traces: list[attackmod.AttackTrace]) -> datagen.Probe:
    """A trial's one constants probe, for every bound: the attacked round's
    model over every client's data, C's parameter moves up to max(1, 2 ||delta||)
    (1 when ||delta|| is not finite, which its scorer raises on), and the first
    inversion's objectives when the trial inverts an upload."""
    delta_two = observed.two_way
    budget = max(1.0, 2.0 * delta_two) if math.isfinite(delta_two) else 1.0
    return datagen.Probe(observed.theta_round, observed.datasets, delta_budget=budget,
                         attack_objectives=traces[0].objectives[1:] if traces else None,
                         seed=seed)


def score_trials(config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                 traces: list[list], ests: list[datagen.ConstantsEstimate | FedTradeoffError]
                 ) -> list[TrialRow]:
    """Score each observed ``(seed, mechanism, kw)`` trial of ``config`` in
    ``block`` to its ``TrialRow``: leakage, utility loss, constants, bounds;
    ``kw`` holds the row's ``sweep_axis``, ``sweep_value``, ``trial_index`` and
    ``experiment_id``.

    ``traces[i]`` holds the one inversion of trial i's ``config.attack_client``
    upload in the observed round, with ``config.attack.iters`` iterations.
    Both bounds take their constants from ``ests[i]``: an ``EstimationError``
    (no usable pair, e.g. single-sample clients) gives NaN bound columns, any
    other error is raised. ``experiment_id`` defaults to the config's digest;
    sweeps stamp their base config's digest on every row so one sweep stays
    one experiment. Every trial's privacy side is scored before the block's
    utility sides (``utility_outcomes``)."""
    ests = [None if isinstance(est, EstimationError) else est for est in ests]
    privacy = privacy_outcomes(config, block, seen, traces, ests)
    utility = utility_outcomes(config, block, seen, ests)
    client, default_id = config.attack_client, config.experiment_id()
    return [_trial_row(client, seed, mech, o, ts[0], est, p, u, half,
                       **{"experiment_id": default_id, **kw})
            for (seed, mech, kw), o, ts, est, p, (u, half)
            in zip(block, seen, traces, ests, privacy, utility)]


def _trial_row(client: int, seed: int, mech: MechanismSpec, observed: Observed,
               trace: attackmod.AttackTrace, est: datagen.ConstantsEstimate | None,
               privacy: TrialOutcome, utility: TrialOutcome, half: float, *,
               experiment_id: str, sweep_axis: str = "none", sweep_value: float = 0.0,
               trial_index: int = 0) -> TrialRow:
    target = observed.datasets[client]
    consts = privacy.extras
    cap_d, c_0 = (float("nan"),) * 2 if est is None else (est.cap_d, est.c_0)
    return TrialRow(
        experiment_id=experiment_id,
        sweep_axis=sweep_axis, sweep_value=sweep_value, trial_index=trial_index,
        seed=seed, mechanism=mech.kind, sigma=mech.sigma,
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


# (m, p) arrays an inversion that keeps no trajectory holds per upload
# whatever its iteration count: the iterate, its candidate, the gradient,
# Adam's two moments, the originals, the final iterate, and one for the
# (m,) leakage sums and final distances
_LOOP_ARRAYS = 8


def _lockstep_blocks(config: ExperimentConfig, trials: list[tuple],
                     inverted: tuple[int, ...]) -> list[list[tuple]]:
    """Consecutive slices of ``config``'s ``trials``, one ``simulate_batch``, one
    ``invert_block`` and one ``score_block`` call each: as many trials as fit
    ``datagen._BLOCK_BYTES``, at least one. Every trial costs the same bytes:
    its stacked run's (n, K, m, d) per-example gradients for n gradient sets a
    round (2 under randomization, whose shadow takes its own) and, per round,
    its n gradient sets, wires, noise and 4 model vectors; for each
    ``inverted`` upload the inversion's ``_LOOP_ARRAYS`` (m, p) arrays and its
    m per-example gradients; and its ``Observed``. The inversion keeps no
    trajectory, and scoring chunks its own temporaries (constants rows, the
    utility side) within the same budget, so neither is charged."""
    model, k, m = config.model, config.dataset.num_clients, config.dataset.per_client_size
    p, d = model.input_dim, model.param_dim
    n = 2 if trials[0][1].kind == "randomization" else 1
    cost = (8 * d * (n * k * m + config.fl.rounds * ((n + 2) * k + 4))
            + len(inverted) * 8 * m * (_LOOP_ARRAYS * p + d)
            + 8 * (k * m * (p + 1) + (k + 3) * d))
    size = max(1, datagen._BLOCK_BYTES // cost)
    return [trials[i:i + size] for i in range(0, len(trials), size)]


def run_trials(config: ExperimentConfig, trials: list[tuple], score, *,
               inverted: tuple[int, ...] | None = None) -> list:
    """The results of each ``(seed, mechanism, kw)`` trial of ``config``, in
    order: ``score(config, block, seen, traces, ests)`` lists them for a block
    of such trials (``score_block``). A trial runs under its own mechanism,
    which shares its kind and noise sharing with every other trial's; the
    config's own mechanism is not read.

    ``inverted`` lists the clients whose uploads in the attacked round every
    trial inverts: by default ``(config.attack_client,)``, ``()`` for the
    utility bounds, every client for the trade-offs.

    Trials run stage-wise in the lockstep blocks ``_lockstep_blocks`` plans
    (fixed slices within ``datagen._BLOCK_BYTES``): observe them in one
    ``simulate_batch``, invert every listed upload of the block in one
    ``invert_block``, then score them, traces in listed order, in one
    ``score_block``; the traces and estimates die with the block. A block
    that raises reruns one trial at a time, so the error raised is the one a
    serial run meets first: that of the first failing trial, whatever stage
    it fails in."""
    inverted = (config.attack_client,) if inverted is None else tuple(inverted)
    rows = []
    for block in _lockstep_blocks(config, trials, inverted):
        try:
            rows += _run_block(config, score, inverted, block)
        except Exception:
            if len(block) > 1:
                for trial in block:
                    _run_block(config, score, inverted, [trial])
            raise
    return rows


def _run_block(config: ExperimentConfig, score, inverted: tuple[int, ...],
               block: list[tuple]) -> list:
    seeds = [seed for seed, _, _ in block]
    seen = _observed(config, simulate_batch(config, seeds, [mech for _, mech, _ in block]))
    return score_block(score, config, block, seen, invert_block(config, seen, seeds, inverted))


def invert_block(config: ExperimentConfig, seen: list[Observed], seeds: list[int],
                 inverted: tuple[int, ...], keep_trajectory: bool = False) -> list[list]:
    """Each observed trial's traces, one per upload in its attacked round
    that ``inverted`` lists, in that order, from one ``attack.invert_batch``:
    trial i's j-th upload is inverted under ``config.attack`` with attack
    seed ``seeds[i] + j`` and scored as it runs against that client's data at
    the config's ``diameter_cap``. The inversion stage of ``run_trials`` and
    of the CLI's ``attack``; ``keep_trajectory`` keeps every accepted iterate."""
    n = len(inverted)
    uploads = [(o, k) for o in seen for k in inverted]
    traces = attackmod.invert_batch(
        config.model, np.stack([o.theta_round for o, _ in uploads]),
        np.stack([o.wires[k] for o, k in uploads]),
        np.stack([o.datasets[k].y for o, k in uploads]), config.attack,
        [seed + j for seed in seeds for j in range(n)],
        np.stack([o.datasets[k].x for o, k in uploads]), config.dataset.diameter_cap,
        keep_trajectory=keep_trajectory) if uploads else []
    return [traces[i * n:(i + 1) * n] for i in range(len(seen))]


def score_block(score, config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                traces: list[list]) -> list:
    """``score(config, block, seen, traces, ests)`` of the observed ``(seed,
    mechanism, kw)`` trials of ``config`` in ``block``, one result per trial in
    order, each trial's ``ests[i]`` its ``trial_probe``'s row of one
    ``datagen.estimate_constants_batch`` at the config's pair count and
    quantile (the estimate, or the error it raised); the scoring stage of
    ``run_trials`` and of the CLI's ``attack``."""
    ests = datagen.estimate_constants_batch(config.model, [
        trial_probe(seed, o, ts) for (seed, _, _), o, ts in zip(block, seen, traces)],
        config.num_pairs, config.quantile)
    return score(config, block, seen, traces, ests)


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
    if len(set(map(float, values))) < len(values):        # -0.0 repeats 0.0
        raise ConfigurationError(f"axis values must differ as floats, got {values}")
    require_int("trials", trials, 1)

    base_id = config.experiment_id()
    configs = [_config_for_sweep_value(config, axis, value) for value in values]
    runs = [[(seed, configs[si].mechanism, dict(sweep_axis=axis, sweep_value=float(value),
                                                trial_index=ti, experiment_id=base_id))
             for ti, seed in enumerate(rngmod.trial_seeds(config.master_seed, si, trials))]
            for si, value in enumerate(values)]
    # one run_trials call per run of consecutive values whose configs differ
    # only in the mechanism: a whole sigma or delta_up sweep, one m or T value
    rows = []
    for shared, group in itertools.groupby(
            zip(configs, runs), lambda c_r: replace(c_r[0], mechanism=configs[0].mechanism)):
        rows += run_trials(shared, [trial for _, run in group for trial in run], score_trials)

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
