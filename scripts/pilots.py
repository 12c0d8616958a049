#!/usr/bin/env python3
"""Pre-registered pilot runs behind the statistical thresholds in the tests.

Each pilot uses seed ranges disjoint from the corresponding test's evaluation
seeds. Run this script to reproduce the numbers that were frozen:

  pilot 1  single-sample linear inversion, seeds 0..19      -> locked: final
           leakage >= 0.95 must hold in >= 90% of fresh seeds (observed 20/20
           at 1.0; trajectory-average 10th percentile 0.9866 -> locked 0.95).
  pilot 2  sigma sweep (mlp1 harness), 10 trials            -> locked: medians
           non-increasing + Spearman rho <= 0, p < 0.05 (observed medians
           0.806 .. 0.185, rho -0.825, p 1.7e-13).
  pilot 3  noise-floor attack vs random-init baseline       -> locked: one-sided
           Mann-Whitney p(attack < baseline) must be > 0.05 (observed 1.0).
  pilot 4  phase-2 training accuracy on separable data      -> locked: >= 0.95
           (observed min 1.000 over 20 seeds).
  pilot 5  utility loss under large distortion, 50 seeds    -> locked: >= 45/50
           (observed 50/50 at 20 GD steps, distortion norm 10).
  pilot 6  privacy-bound scenario calibration               -> locked scenario:
           sigma=0.6, T=250, adam 0.15 gaussian-init, quantile 0.1 (observed:
           precondition satisfied in 35/40 trials, zero violations).
"""

import numpy as np
from scipy import stats

from fedtradeoff import (attack, datagen, experiment, models, protocol,
                         rng as rngmod, verify)


def pilot_single_sample_inversion():
    spec = models.ModelSpec("linear", 2)
    finals, trajs = [], []
    for seed in range(20):
        g = rngmod.stream(seed, 50)
        theta = 0.4 * g.standard_normal(2)
        while True:
            x = g.standard_normal(2)
            if np.linalg.norm(x) <= 1.0:
                break
        y = np.array([1.0])
        g_true = models.per_example_grads(spec, theta, x[None, :], y).mean(axis=0)
        cfg = attack.AttackConfig(iters=400, optimizer="adam", step_size=0.05, init="zeros")
        tr, = attack.invert_batch(spec, theta[None], g_true[None], y[None], cfg, [seed],
                                  x[None, None, :], 2.0)
        finals.append(attack.privacy_leakage_final(tr))
        trajs.append(attack.privacy_leakage(tr))
    print(f"pilot 1: eps_p_final min {min(finals):.4f}, "
          f"traj-avg q10 {np.quantile(trajs, 0.1):.4f} -> thresholds 0.95 / 0.95")


def pilot_sigma_sweep():
    config = experiment.ExperimentConfig(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=4, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="mlp1", input_dim=2, hidden_dim=8, num_classes=2),
        fl=protocol.FLRunConfig(rounds=1, learning_rate=0.2),
        mechanism=experiment.MechanismSpec(kind="randomization", sigma=0.0),
        attack=attack.AttackConfig(iters=300, optimizer="adam", step_size=0.1,
                                   init="gaussian"),
        master_seed=0, n_eval=200, num_pairs=60, quantile=0.1)
    _, summary = experiment.run_sweep(config, "sigma", [0.0, 0.05, 0.1, 0.2, 0.5],
                                      trials=10)
    print(f"pilot 2: medians {[round(v, 3) for v in summary['median_eps_p']]}, "
          f"rho {summary['spearman_rho']:.3f}, p {summary['spearman_p']:.2e}")


def pilot_noise_floor():
    spec = models.ModelSpec("logistic", 2)
    atk_err, base_err = [], []
    for seed in range(30):
        g = rngmod.stream(seed, 60)
        theta = 0.5 * g.standard_normal(2)
        while True:
            x = g.standard_normal(2)
            if np.linalg.norm(x) <= 1.0:
                break
        y = np.array([1])
        g_true = models.per_example_grads(spec, theta, x[None, :], y).mean(axis=0)
        wire = g_true + 20.0 * rngmod.stream(seed, 61).standard_normal(g_true.shape[0])
        cfg = attack.AttackConfig(iters=100, optimizer="adam", step_size=0.05,
                                  init="gaussian")
        tr, = attack.invert_batch(spec, theta[None], wire[None], y[None], cfg, [seed],
                                  x[None, None, :], 2.0)
        atk_err.append(np.linalg.norm(tr.final_x[0] - x))
        base_err.append(np.linalg.norm(0.5 * rngmod.stream(seed, 62).standard_normal(2) - x))
    p = stats.mannwhitneyu(atk_err, base_err, alternative="less").pvalue
    print(f"pilot 3: p(attack < baseline) = {p:.3f} -> locked p > 0.05")


def pilot_phase2_accuracy():
    spec = models.ModelSpec("logistic", 2)
    accs = []
    for seed in range(20):
        (ds,), = datagen.generate_batch(datagen.DatasetSpec(
            num_clients=1, per_client_size=40, input_dim=2, num_classes=2,
            class_separation=6.0, diameter_cap=4.0), [seed])
        theta = attack.train_phase2(ds, spec, epochs=400, lr=0.5, seed=0)
        accs.append(1.0 - attack.risk(spec, theta, ds.x, ds.y))
    print(f"pilot 4: min accuracy {min(accs):.4f} -> locked 0.95")


def pilot_utility_monotone():
    spec = models.ModelSpec("logistic", 2)
    wins = 0
    for seed in range(50):
        dss = datagen.DatasetSpec(num_clients=1, per_client_size=24, input_dim=2,
                                  num_classes=2, class_separation=4.0, diameter_cap=3.0)
        (ds,), = datagen.generate_batch(dss, [seed])
        th = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT), 0.3)
        for _ in range(20):
            th = th - 0.5 * models.per_example_grads(spec, th, ds.x, ds.y).mean(axis=0)
        u = rngmod.stream(seed, 63).standard_normal(2)
        big = 10.0 * u / np.linalg.norm(u)
        xs, ys = next(datagen.fresh_draws(dss, [seed + 100], [ds.centers], 400))
        e0, _ = protocol.measure_utility_loss(spec, th, np.zeros(2), ds.x, ds.y, xs, ys)
        e1, _ = protocol.measure_utility_loss(spec, th, big, ds.x, ds.y, xs, ys)
        wins += (e1 >= e0)
    print(f"pilot 5: {wins}/50 -> locked >= 45/50")


def pilot_privacy_bound_scenario():
    scenario = verify.VerifyScenario(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=16, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
        attack=attack.AttackConfig(iters=250, optimizer="adam", step_size=0.15,
                                   init="gaussian"),
        sigma=0.6, gamma=0.1, num_pairs=150, quantile=0.1)
    outs = verify.trial_outcomes("privacy", scenario, [7000 + i for i in range(40)])
    ok = [o for o in outs if o.precondition_ok]
    viol = sum(1 for o in ok if o.measured > o.rhs)
    print(f"pilot 6: precondition {len(ok)}/40, violations {viol}")


if __name__ == "__main__":
    pilot_single_sample_inversion()
    pilot_sigma_sweep()
    pilot_noise_floor()
    pilot_phase2_accuracy()
    pilot_utility_monotone()
    pilot_privacy_bound_scenario()
