"""Monte-Carlo verification of the probabilistic bounds.

Each supported bound has a trial pipeline that draws fresh data with an
independent seed, runs the relevant slice of the protocol/attack machinery,
measures the bounded quantity, evaluates the bound's rhs from constants
estimated on that trial's own data, and records whether the bound held and
whether its stated precondition applied.

Accounting: trials whose precondition fails are vacuous -- the bound claims
nothing there -- so they are counted separately and never count as violations.
The headline fraction is 1 - violations / trials; the conditional fraction
among precondition-satisfying trials is reported next to it. The holds flag
compares the headline fraction against the stated confidence minus a
two-standard-error binomial slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, field, replace
from functools import partial

import numpy as np

from . import attack as attackmod
from . import bounds as boundsmod
from . import datagen, models, protocol
from . import rng as rngmod
from .errors import ConfigurationError
from .experiment import exact_big_m, run_in_blocks, simulate


@dataclass(frozen=True)
class VerifyScenario:
    """Shared shape of all verification pipelines; bound-specific knobs noted."""
    dataset: datagen.DatasetSpec
    model: models.ModelSpec
    attack: attackmod.AttackConfig
    sigma: float = 0.3                 # randomization strength
    shared_noise: bool = False
    gamma: float = 0.1                 # per-client confidence (privacy side)
    eta: float = 0.1                   # utility-side confidence
    rho: float = 1.0                   # randomization trade-off constant
    big_l: float = 1.0                 # general trade-off Theta-constant
    fl_rounds: int = 3
    learning_rate: float = 0.2
    n_eval: int = 400
    num_pairs: int = 120
    quantile: float = 0.05
    offset_scale: float = 1.0          # HE codec offset magnitude

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialOutcome:
    measured: float
    rhs: float
    precondition_ok: bool
    extras: dict = field(default_factory=dict)


def _simulate(scenario: VerifyScenario, trial_seed: int,
              mech: protocol.ProtectionMechanism, rounds: int):
    fl_cfg = protocol.FLRunConfig(rounds=rounds, learning_rate=scenario.learning_rate)
    datasets, result = simulate(scenario.model, scenario.dataset, fl_cfg, mech, trial_seed)
    return replace(scenario.dataset, seed=trial_seed), datasets, result


def _privacy_trials(scenario: VerifyScenario, seeds: list[int]) -> list[TrialOutcome]:
    """Client 0's round-0 upload: leakage vs the privacy bound, per seed, in
    lockstep blocks of seeds."""
    m = scenario.dataset.per_client_size
    kept = 8 * (m * (scenario.model.input_dim + 1) + 2 * scenario.model.param_dim)
    return run_in_blocks(partial(_privacy_block, scenario), attackmod.lockstep_blocks(
        seeds, scenario.model, scenario.attack, m, kept))


def _privacy_block(scenario: VerifyScenario, seeds: list[int]) -> list[TrialOutcome]:
    """Stage-wise: simulate each trial in seed order, keeping client 0's
    round-0 model, upload, data and distortion; invert the uploads together;
    then score each trial."""
    seen = []
    for seed in seeds:
        _, datasets, result = _simulate(scenario, seed, protocol.randomization(scenario.sigma),
                                        rounds=1)
        rec = result.records[0]
        seen.append((rec.theta_decoded, rec.wires[0], datasets[0], rec.delta_up_grad[0]))
    objectives, leakages = attackmod.invert_uploads(
        scenario.model, scenario.attack, seeds, [obs[:3] for obs in seen],
        scenario.dataset.diameter_cap)
    return [_privacy_outcome(scenario, seed, theta, ds, delta_up, f, eps_p)
            for seed, (theta, _, ds, delta_up), f, eps_p
            in zip(seeds, seen, objectives, leakages)]


def _privacy_outcome(scenario: VerifyScenario, trial_seed: int, theta: np.ndarray,
                     ds: datagen.ClientDataset, delta_up: float, objectives: np.ndarray,
                     eps_p: float) -> TrialOutcome:
    est = datagen.estimate_constants(
        scenario.model, theta, [ds], num_pairs=scenario.num_pairs,
        quantile=scenario.quantile, attack_objectives=objectives[1:],
        seed=trial_seed)
    threshold = boundsmod.privacy_precondition_threshold(
        est.c_2, est.c_b, est.c_a, scenario.attack.iters)
    rhs = boundsmod.privacy_upper_bound(scenario.gamma, ds.size, est.c_a,
                                        scenario.dataset.diameter_cap, delta_up)
    return TrialOutcome(measured=eps_p, rhs=rhs,
                        precondition_ok=bool(delta_up >= threshold),
                        extras={"delta_up": delta_up, "threshold": threshold,
                                "c_a": est.c_a, "c_b": est.c_b, "c_2": est.c_2,
                                "pair_skip_rate": est.meta["skip_rate"]})


def _trial_privacy_bound(scenario: VerifyScenario, trial_seed: int) -> TrialOutcome:
    return _privacy_trials(scenario, [trial_seed])[0]


def _utility_side(scenario: VerifyScenario, trial_seed: int,
                  ds_spec: datagen.DatasetSpec, datasets: list[datagen.ClientDataset],
                  result: protocol.RunResult, theta_probe: np.ndarray):
    """Client 0's measured utility loss vs the utility bound at the minimizing
    lambda, with the constants estimated at ``theta_probe``.

    Returns the outcome and the estimate, its M and D replaced by the exact
    ones the bound used."""
    target = datasets[0]
    theta = result.theta_final_shadow
    delta_model = result.theta_final_decoded - theta
    delta_two = float(np.linalg.norm(delta_model))

    sampler = datagen.fresh_sampler(ds_spec, trial_seed)
    eps_u, _ = protocol.measure_utility_loss(
        scenario.model, theta, delta_model, target, sampler, scenario.n_eval)

    est = datagen.estimate_constants(
        scenario.model, theta_probe, datasets, num_pairs=scenario.num_pairs,
        quantile=scenario.quantile, delta_budget=max(1.0, 2.0 * delta_two),
        seed=trial_seed)
    est = replace(est, big_m=exact_big_m(scenario.model, theta, delta_model, [target]),
                  cap_d=ds_spec.diameter_cap)
    lam, rhs = boundsmod.minimize_utility_lambda(
        est.big_c, delta_two, est.big_m, scenario.model.param_dim,
        est.cap_d, scenario.eta, target.size)
    outcome = TrialOutcome(measured=eps_u, rhs=rhs, precondition_ok=lam > delta_two,
                           extras={"lambda": lam, "delta_two": delta_two,
                                   "big_c": est.big_c, "big_m": est.big_m,
                                   "cap_d": est.cap_d})
    return outcome, est


def _utility_trial(scenario: VerifyScenario, trial_seed: int,
                   mech: protocol.ProtectionMechanism) -> TrialOutcome:
    """Measured utility loss vs the utility bound at the minimizing lambda."""
    ds_spec, datasets, result = _simulate(scenario, trial_seed, mech, scenario.fl_rounds)
    return _utility_side(scenario, trial_seed, ds_spec, datasets, result,
                         result.theta_final_shadow)[0]


def _trial_utility_bound(scenario: VerifyScenario, trial_seed: int) -> TrialOutcome:
    return _utility_trial(scenario, trial_seed,
                          protocol.randomization(scenario.sigma, scenario.shared_noise))


def _trial_he_utility_bound(scenario: VerifyScenario, trial_seed: int) -> TrialOutcome:
    mech = protocol.random_he_codec(scenario.model.param_dim, trial_seed,
                                    scenario.offset_scale)
    out = _utility_trial(scenario, trial_seed, mech)
    if out.extras["delta_two"] != 0.0:
        raise ConfigurationError("HE run produced nonzero two-way distortion")
    return out


def _trial_tradeoff(scenario: VerifyScenario, trial_seed: int,
                    randomized_formula: bool) -> TrialOutcome:
    mech = protocol.randomization(scenario.sigma, scenario.shared_noise)
    ds_spec, datasets, result = _simulate(scenario, trial_seed, mech, scenario.fl_rounds)
    rec = result.records[0]
    k_clients = len(datasets)
    eps_p = np.array(attackmod.invert_uploads(
        scenario.model, scenario.attack, [trial_seed + k for k in range(k_clients)],
        [(rec.theta_decoded, rec.wires[k], ds) for k, ds in enumerate(datasets)],
        ds_spec.diameter_cap)[1])

    util, est = _utility_side(scenario, trial_seed, ds_spec, datasets, result,
                              rec.theta_decoded)
    lam = util.extras["lambda"]
    inputs = boundsmod.BoundInputs(
        constants=est, eta=scenario.eta, lam=lam, gamma=scenario.gamma,
        eps_p=eps_p, eps_e=np.array([float(d.size) for d in datasets]),
        delta_up=np.array(rec.delta_up_grad), delta_two=util.extras["delta_two"],
        num_clients=k_clients, d=scenario.model.param_dim,
        t_rounds=scenario.attack.iters, rho=scenario.rho, big_l=scenario.big_l)
    budget = inputs.probability_budget()
    if randomized_formula:
        rhs = boundsmod.tradeoff_randomization(inputs, client=0)
    else:
        rhs = boundsmod.tradeoff_general(inputs, client=0)
    return TrialOutcome(measured=util.measured, rhs=rhs, precondition_ok=budget > 0.0,
                        extras={"probability_budget": budget, "lambda": lam})


def _trial_tradeoff_general(scenario: VerifyScenario, trial_seed: int) -> TrialOutcome:
    return _trial_tradeoff(scenario, trial_seed, randomized_formula=False)


def _trial_tradeoff_randomization(scenario: VerifyScenario, trial_seed: int) -> TrialOutcome:
    return _trial_tradeoff(scenario, trial_seed, randomized_formula=True)


def _each(trial):
    """A one-seed pipeline as a pipeline over a list of seeds."""
    def run(scenario: VerifyScenario, seeds: list[int]) -> list[TrialOutcome]:
        return [trial(scenario, seed) for seed in seeds]
    return run


# Each maps (scenario, seeds) to the seeds' outcomes, in seed order.
_PIPELINES = {
    "privacy": _privacy_trials,
    "utility": _each(_trial_utility_bound),
    "tradeoff-general": _each(_trial_tradeoff_general),
    "tradeoff-randomization": _each(_trial_tradeoff_randomization),
    "utility-he": _each(_trial_he_utility_bound),
}


def stated_confidence(bound_name: str, scenario: VerifyScenario) -> float:
    if bound_name == "privacy":
        return 1.0 - scenario.gamma
    if bound_name in ("utility", "utility-he"):
        return 1.0 - scenario.eta
    k = scenario.dataset.num_clients
    return 1.0 - scenario.eta - k * scenario.gamma


def verify_bound(bound_name: str, scenario: VerifyScenario, trials: int,
                 master_seed: int = 0) -> boundsmod.BoundReport:
    """Run the bound's pipeline `trials` times and score the violation rate."""
    if bound_name not in _PIPELINES:
        raise ConfigurationError(f"unknown bound name: {bound_name!r}; "
                                 f"expected one of {sorted(_PIPELINES)}")
    if trials < 100:
        raise ConfigurationError("trials must be >= 100")
    pipeline = _PIPELINES[bound_name]
    seeds = [rngmod.trial_seed(master_seed, 0, i) for i in range(trials)]

    outcomes = pipeline(scenario, seeds)

    confidence = stated_confidence(bound_name, scenario)
    vacuous_claim = confidence <= 0.0
    violations = sum(1 for o in outcomes if o.precondition_ok and o.measured > o.rhs)
    n_vacuous = sum(1 for o in outcomes if not o.precondition_ok)
    n_checked = trials - n_vacuous
    fraction = 1.0 - violations / trials
    fraction_checked = (1.0 - violations / n_checked) if n_checked > 0 else None
    slack = 2.0 * math.sqrt(abs(confidence) * (1.0 - abs(confidence)) / trials) \
        if 0.0 < confidence < 1.0 else 0.0
    holds = bool(vacuous_claim or fraction >= confidence - slack)

    constants_snapshot = {}
    for key in outcomes[0].extras:
        vals = [o.extras[key] for o in outcomes
                if isinstance(o.extras.get(key), (int, float))]
        if vals:
            constants_snapshot[key] = float(np.median(vals))

    return boundsmod.BoundReport(
        bound_name=bound_name,
        rhs_value=float(np.median([o.rhs for o in outcomes])),
        measured_value=float(np.median([o.measured for o in outcomes])),
        precondition_ok=n_vacuous == 0,
        holds=holds,
        trials=trials,
        violations=violations,
        n_vacuous=n_vacuous,
        fraction_holding=fraction,
        fraction_holding_checked=fraction_checked,
        confidence=confidence,
        slack=slack,
        vacuous=vacuous_claim,
        notes={
            "scenario": scenario.to_dict(),
            "master_seed": master_seed,
            "constants_snapshot_median": constants_snapshot,
            "tradeoff_m_term_indexing": "evaluated for fixed client 0 with that "
                                     "client's M and eps_e; the head term averages over clients",
        },
    )
