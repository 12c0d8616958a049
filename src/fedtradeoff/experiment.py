"""Experiment configuration and the end-to-end single-trial pipeline.

One trial = generate data, run the protocol, invert a client's uploaded
gradient, measure leakage / utility loss, estimate the analysis constants on
the trial's own data, and evaluate the bound formulas. The Monte-Carlo bound
verifier and the sweep harness both run this pipeline with per-trial seeds
derived splittably from the master seed, so trials are independent and
appending trials never changes existing ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, asdict, fields, replace
from typing import NamedTuple

import numpy as np

from . import attack as attackmod
from . import bounds as boundsmod
from . import datagen, models, protocol
from . import rng as rngmod
from .errors import ConfigurationError, EstimationError, NumericError

@dataclass(frozen=True)
class MechanismSpec:
    """Serializable mechanism description; materialized per run."""
    kind: str = "none"
    sigma: float = 0.0
    shared_noise: bool = False
    offset_scale: float = 1.0
    exact_norm: float | None = None

    def build(self, param_dim: int, seed: int) -> protocol.ProtectionMechanism:
        if self.kind == "none":
            return protocol.no_protection()
        if self.kind == "randomization":
            return protocol.ProtectionMechanism(
                kind="randomization", sigma=self.sigma,
                shared_noise=self.shared_noise, exact_norm=self.exact_norm)
        if self.kind == "he_codec":
            return protocol.random_he_codec(param_dim, seed, self.offset_scale)
        raise ConfigurationError(f"unknown mechanism kind: {self.kind!r}")


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
                datasets: list[datagen.ClientDataset]) -> float:
    """max_Z |loss(theta + delta, Z)| over the protected training points."""
    worst = 0.0
    for ds in datasets:
        per = models.per_example_losses(model_spec, theta + delta, ds.x, ds.y)
        worst = max(worst, float(np.max(np.abs(per))))
    return max(worst, 1e-12)


def try_estimate(model_spec, theta, datasets, **kw) -> datagen.ConstantsEstimate | None:
    """Constants estimate, or None when the data admits no usable pair
    (e.g. single-sample clients); callers emit NaN bound columns then."""
    try:
        return datagen.estimate_constants(model_spec, theta, datasets, **kw)
    except EstimationError:
        return None


def simulate(model: models.ModelSpec, dataset: datagen.DatasetSpec,
             fl: protocol.FLRunConfig, mech: protocol.ProtectionMechanism, seed: int):
    """Seeded datasets and the protocol run over them; ``(datasets, result)``.

    Raises ``NumericError`` when the run aborted (diverged)."""
    datasets = datagen.generate(replace(dataset, seed=seed))
    result = protocol.run(model, replace(fl, seed=seed), mech, datasets)
    if result.aborted:
        raise NumericError(f"run aborted: {result.abort_reason}")
    return datasets, result


def score_trial(config: ExperimentConfig, seed: int,
                datasets: list[datagen.ClientDataset], client: int,
                theta_round: np.ndarray, distortions: tuple,
                trace: attackmod.AttackTrace, theta_shadow: np.ndarray,
                theta_decoded: np.ndarray, iters: int, *,
                sweep_axis: str = "none", sweep_value: float = 0.0,
                trial_index: int = 0, experiment_id: str | None = None) -> TrialRow:
    """Score one inverted upload: leakage, utility loss, constants, bounds.

    ``theta_round`` is the decoded model of the attacked round and
    ``distortions`` its ``(delta_up_grad, delta_up_param, delta_two_grad,
    delta_two_param)`` for ``client``; ``trace`` inverted that client's upload
    with ``iters`` iterations. The utility loss is that of the final decoded
    model against the final shadow. ``experiment_id`` defaults to this
    config's digest; sweeps stamp their base config's digest on every row so
    one sweep stays one experiment.
    """
    ds_spec = replace(config.dataset, seed=seed)
    cap_d = ds_spec.diameter_cap
    target = datasets[client]
    delta_up, delta_up_param, delta_two_grad, delta_two_param = distortions
    eps_p = attackmod.privacy_leakage(trace, target.x, cap_d)
    eps_p_final = attackmod.privacy_leakage_final(trace, target.x, cap_d)

    delta_model = theta_decoded - theta_shadow
    sampler = datagen.fresh_sampler(ds_spec, seed)
    eps_u, half = protocol.measure_utility_loss(
        config.model, theta_shadow, delta_model, target, sampler, config.n_eval)

    est = try_estimate(
        config.model, theta_round, datasets,
        num_pairs=config.num_pairs, quantile=config.quantile,
        attack_objectives=trace.objectives[1:], seed=seed)

    delta_two_final = float(np.linalg.norm(delta_model))
    big_m = exact_big_m(config.model, theta_shadow, delta_model, [target])
    nan = float("nan")
    if est is not None:
        privacy_rhs = boundsmod.privacy_upper_bound(config.gamma, target.size, est.c_a,
                                                 cap_d, delta_up)
        threshold = boundsmod.privacy_precondition_threshold(
            est.c_2, est.c_b, est.c_a, iters)
        privacy_ok = bool(delta_up >= threshold)
        lam, utility_rhs = boundsmod.minimize_utility_lambda(
            est.big_c, delta_two_final, big_m, config.model.param_dim, cap_d,
            config.eta, target.size)
        consts = (est.c_a, est.c_b, est.big_c, est.cap_d, est.c_0, est.c_2,
                  est.meta["skip_rate"])
    else:
        privacy_rhs, privacy_ok, lam, utility_rhs = nan, False, nan, nan
        consts = (nan,) * 7

    return TrialRow(
        experiment_id=experiment_id or config.experiment_id(),
        sweep_axis=sweep_axis, sweep_value=sweep_value, trial_index=trial_index,
        seed=seed, mechanism=config.mechanism.kind, sigma=config.mechanism.sigma,
        eps_p=eps_p, eps_p_final=eps_p_final, eps_u=eps_u, eps_u_halfwidth=half,
        eps_e=target.size,
        delta_up_grad=delta_up, delta_up_param=delta_up_param,
        delta_two_grad=delta_two_grad, delta_two_param=delta_two_param,
        privacy_rhs=privacy_rhs, privacy_precond_ok=privacy_ok,
        privacy_holds=bool(privacy_ok and eps_p <= privacy_rhs),
        utility_rhs=utility_rhs, utility_lambda=lam,
        utility_holds=bool(not np.isnan(utility_rhs) and eps_u <= utility_rhs),
        c_a=consts[0], c_b=consts[1], big_c=consts[2], big_m=big_m, cap_d=consts[3],
        c_0=consts[4], c_2=consts[5], pair_skip_rate=consts[6],
    )


def run_trial(config: ExperimentConfig, trial_seed: int, *,
              sweep_axis: str = "none", sweep_value: float = 0.0,
              trial_index: int = 0, experiment_id: str | None = None) -> TrialRow:
    """Full pipeline for one seeded trial: simulate, invert, ``score_trial``."""
    return _run_trials([(config, trial_seed, dict(
        sweep_axis=sweep_axis, sweep_value=sweep_value, trial_index=trial_index,
        experiment_id=experiment_id))])[0]


def run_in_blocks(run_block, blocks: list[list]) -> list:
    """``run_block``'s results for each block, in order. A block that raises
    runs again one item at a time, so the error raised is the one a serial run
    meets first: that of the first failing item, whatever stage it fails in.
    When no item fails alone, the block's own error is raised."""
    results = []
    for block in blocks:
        try:
            results += run_block(block)
        except Exception:
            if len(block) > 1:
                for item in block:
                    run_block([item])
            raise
    return results


class _Observed(NamedTuple):
    """What ``score_trial`` reads of one trial's simulation."""
    datasets: list[datagen.ClientDataset]
    theta_round: np.ndarray        # decoded model of the attacked round
    wire: np.ndarray               # the attacked client's upload in that round
    distortions: tuple
    theta_shadow: np.ndarray       # final shadow model
    theta_decoded: np.ndarray      # final decoded model


def _observe(config: ExperimentConfig, seed: int) -> _Observed:
    """Simulate one trial; the run's other rounds and clients are dropped."""
    mech = config.mechanism.build(config.model.param_dim, seed)
    datasets, result = simulate(config.model, config.dataset, config.fl, mech, seed)
    if not (0 <= config.attack_round < len(result.records)):
        raise ConfigurationError(f"attack_round {config.attack_round} outside run")
    client = config.attack_client
    if not (0 <= client < len(datasets)):
        raise ConfigurationError(f"attack_client {client} out of range")
    rec = result.records[config.attack_round]
    distortions = (rec.delta_up_grad[client], rec.delta_up_param[client],
                   rec.delta_two_grad, rec.delta_two_param)
    return _Observed(datasets, rec.theta_decoded, rec.wires[client], distortions,
                     result.theta_final_shadow, result.theta_final_decoded)


def _lockstep_blocks(trials: list[tuple]) -> list[list[tuple]]:
    """Consecutive trials whose inversions can share one ``invert_batch``
    (equal model, attack config seed aside, and m), cut by
    ``attack.lockstep_blocks`` with the bytes of each trial's ``_Observed``."""
    def shape(trial):
        config = trial[0]
        return config.model, replace(config.attack, seed=0), config.dataset.per_client_size

    blocks = []
    for (model, attack, m), group in itertools.groupby(trials, key=shape):
        group = list(group)
        clients = max(config.dataset.num_clients for config, _, _ in group)
        kept = 8 * (clients * m * (model.input_dim + 1) + 4 * model.param_dim)
        blocks += attackmod.lockstep_blocks(group, model, attack, m, kept)
    return blocks


def _run_trials(trials: list[tuple]) -> list[TrialRow]:
    """Rows of ``(config, seed, row_kwargs)`` trials, in order, run in lockstep blocks."""
    return run_in_blocks(_run_block, _lockstep_blocks(trials))


def _run_block(block: list[tuple]) -> list[TrialRow]:
    """Stage-wise: simulate the block's trials in order, invert the attacked
    uploads together (each trial seed is its attack seed), then ``score_trial``
    each one. The traces die with the call."""
    config = block[0][0]
    seen = [_observe(cfg, seed) for cfg, seed, _ in block]
    traces = attackmod.invert_batch(
        config.model, np.stack([o.theta_round for o in seen]),
        np.stack([o.wire for o in seen]),
        np.stack([o.datasets[cfg.attack_client].y for (cfg, _, _), o in zip(block, seen)]),
        config.attack, [seed for _, seed, _ in block])
    return [score_trial(cfg, seed, o.datasets, cfg.attack_client, o.theta_round,
                        o.distortions, trace, o.theta_shadow, o.theta_decoded,
                        cfg.attack.iters, **kw)
            for (cfg, seed, kw), o, trace in zip(block, seen, traces)]


SWEEP_AXES = ("sigma", "m", "T", "delta_up")


def _config_for_sweep_value(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
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
    if axis == "delta_up":
        mech = MechanismSpec(kind="randomization", sigma=1.0,
                             shared_noise=config.mechanism.shared_noise,
                             exact_norm=float(value))
        return replace(config, mechanism=mech)
    raise ConfigurationError(f"unknown sweep axis: {axis!r}")


def run_sweep(config: ExperimentConfig, axis: str, values: list[float],
              trials: int) -> tuple[list[TrialRow], dict]:
    """Cross product of axis values x trials; fixed row order; summary stats."""
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"unknown sweep axis: {axis!r}")
    if len(values) < 2:
        raise ConfigurationError("need at least 2 axis values")
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")

    base_id = config.experiment_id()
    configs = [_config_for_sweep_value(config, axis, value) for value in values]
    rows = _run_trials([
        (configs[si], rngmod.trial_seed(config.master_seed, si, ti),
         dict(sweep_axis=axis, sweep_value=float(value), trial_index=ti,
              experiment_id=base_id))
        for si, value in enumerate(values) for ti in range(trials)])

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
