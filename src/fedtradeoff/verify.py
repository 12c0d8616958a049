"""Monte-Carlo verification of the probabilistic bounds.

A bound's trials are ``experiment`` trials of one config:
``VerifyScenario.experiment_config`` gives it, and ``trial_outcomes`` runs
one trial per seed under its mechanism in one ``experiment.run_trials`` call,
with the bound's outcome function as the scorer. Privacy trials invert client
0's round-0 upload, trade-off trials every client's, utility trials none.
Each scorer takes the config and a lockstep block: the privacy scorer is
``experiment.privacy_outcomes``, the others take the block's
``experiment.utility_outcomes``, the sides ``score_trials`` uses too, at each
trial's one estimate at ``experiment.trial_probe``.

Accounting: trials whose precondition fails are vacuous -- the bound claims
nothing there -- so they are counted separately and never count as violations.
The headline fraction is 1 - violations / trials; the conditional fraction
among precondition-satisfying trials is reported next to it. The holds flag
compares the headline fraction against the stated confidence minus a
two-standard-error binomial slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, replace
from functools import partial

import numpy as np

from . import attack as attackmod
from . import bounds as boundsmod
from . import datagen, models, protocol
from . import rng as rngmod
from .errors import ConfigurationError, require_int
from .experiment import (ExperimentConfig, MechanismSpec, Observed, TrialOutcome,
                         privacy_outcomes, run_trials, utility_outcomes)


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

    def __post_init__(self) -> None:
        for name in ("rho", "big_l"):               # NaN fails too
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    def experiment_config(self, bound_name: str) -> ExperimentConfig:
        """The config of ``bound_name``'s trials. The privacy bound reads client
        0's round-0 upload, so its run is one round long and its noise is never
        shared; rho and L stay here, as constants of the trade-off formulas."""
        mech = MechanismSpec("randomization", self.sigma, self.shared_noise)
        rounds = self.fl_rounds
        if bound_name == "privacy":
            mech, rounds = MechanismSpec("randomization", self.sigma), 1
        elif bound_name == "utility-he":
            mech = MechanismSpec("he_codec", offset_scale=self.offset_scale)
        return ExperimentConfig(
            dataset=self.dataset, model=self.model,
            fl=protocol.FLRunConfig(rounds, self.learning_rate), mechanism=mech,
            attack=self.attack, n_eval=self.n_eval, num_pairs=self.num_pairs,
            quantile=self.quantile, gamma=self.gamma, eta=self.eta)


def _utility_outcomes(config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                      traces: list[list], ests: list) -> list[TrialOutcome]:
    """Each trial's measured utility loss vs the utility bound."""
    return [out for out, _ in utility_outcomes(config, block, seen, ests)]


def _tradeoff_outcomes(scenario: VerifyScenario, randomized_formula: bool,
                       config: ExperimentConfig, block: list[tuple], seen: list[Observed],
                       traces: list[list[attackmod.AttackTrace]], ests: list) -> list[TrialOutcome]:
    """Each trial's client-0 utility loss vs a trade-off bound, from every
    client's round-0 leakage (``traces[i][k]`` inverted trial i's client k)."""
    eps_p = [[attackmod.privacy_leakage(trace) for trace in ts] for ts in traces]
    formula = (boundsmod.tradeoff_randomization if randomized_formula
               else boundsmod.tradeoff_general)
    eta, gamma, dim = config.eta, config.gamma, config.model.param_dim
    outs = []
    for obs, est, leak, (util, _) in zip(seen, ests, eps_p,
                                         utility_outcomes(config, block, seen, ests)):
        lam = util.extras["lambda"]
        inputs = boundsmod.BoundInputs(
            constants=replace(est, big_m=util.extras["big_m"], cap_d=util.extras["cap_d"]),
            eta=eta, lam=lam, gamma=gamma, eps_p=np.array(leak),
            eps_e=np.array([float(d.size) for d in obs.datasets]), d=dim, rho=scenario.rho,
            big_l=scenario.big_l)
        budget = inputs.probability_budget()
        outs.append(TrialOutcome(measured=util.measured, rhs=formula(inputs, client=0),
                                 precondition_ok=budget > 0.0,
                                 extras={"probability_budget": budget, "lambda": lam}))
    return outs


def trial_outcomes(bound_name: str, scenario: VerifyScenario,
                   seeds: list[int]) -> list[TrialOutcome]:
    """One trial of ``bound_name`` per seed, all of one config, run through
    ``experiment.run_trials``; their outcomes in seed order."""
    if bound_name not in boundsmod.BOUND_NAMES:
        raise ConfigurationError(f"unknown bound name: {bound_name!r}; "
                                 f"expected one of {sorted(boundsmod.BOUND_NAMES)}")
    config = scenario.experiment_config(bound_name)
    trials = [(seed, config.mechanism, {}) for seed in seeds]
    if bound_name == "privacy":
        return run_trials(config, trials, privacy_outcomes)
    if bound_name.startswith("tradeoff"):
        score = partial(_tradeoff_outcomes, scenario, bound_name == "tradeoff-randomization")
        return run_trials(config, trials, score, inverted=range(config.dataset.num_clients))
    return run_trials(config, trials, _utility_outcomes, inverted=())


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
    require_int("master_seed", master_seed, 0)
    require_int("trials", trials, 100)              # 100.0 and NaN fail too
    seeds = rngmod.trial_seeds(master_seed, 0, trials)

    outcomes = trial_outcomes(bound_name, scenario, seeds)

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
