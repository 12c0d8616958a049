"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
criterion asserts its stated tolerance and runtime cap. Statistical thresholds
were locked from pre-registered pilot runs on disjoint seeds.
"""

import hashlib
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (covering_number, finite_diff_check, grad_params, he_utility_upper_bound,
                      invert_one, records, utility_upper_bound, weighted_sum)
from fedtradeoff import (attack, bounds, datagen, experiment, models, protocol,
                         rng as rngmod, verify)


def gate(num, ok, desc, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} [{tag}] {desc}{' -- ' + detail if detail else ''}")
    assert ok, f"criterion {num}: {desc} -- {detail}"


def run_cli(args, threads="1"):
    env = dict(os.environ)
    env["FEDTRADEOFF_THREADS"] = threads
    return subprocess.run([sys.executable, "-m", "fedtradeoff.cli", *args],
                          capture_output=True, text=True, env=env)


def dir_hashes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_01_gradient_correctness():
    t0 = time.perf_counter()
    specs = [models.ModelSpec("linear", 4),
             models.ModelSpec("logistic", 4, num_classes=3),
             models.ModelSpec("mlp1", 4, hidden_dim=6, num_classes=3)]
    worst = 0.0
    for spec in specs:
        for seed in range(20):
            g = rngmod.stream(seed, 901)
            theta = 0.7 * g.standard_normal(spec.param_dim)
            x = g.standard_normal((8, 4))
            y = (g.standard_normal(8) if spec.kind == "linear"
                 else g.integers(0, spec.num_classes, 8))
            worst = max(worst, finite_diff_check(spec, theta, x, y, 1e-5))
    elapsed = time.perf_counter() - t0
    gate(1, worst <= 1e-5 and elapsed < 10.0,
         "analytic gradients match central finite differences (3 kinds x 20 draws)",
         f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_protocol_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ["train", "--mech", "rand", "--sigma", "0.2", "--seed", "17",
            "--rounds", "4"]
    hashes = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = str(tmp_path / name)
        r = run_cli(base + ["--out", out], threads=threads)
        assert r.returncode == 0, r.stderr
        hashes.append(dir_hashes(out))
    elapsed = time.perf_counter() - t0
    gate(2, hashes[0] == hashes[1] == hashes[2] and elapsed < 30.0,
         "train twice with same config/seed is hash-identical at 1 and 4 threads",
         f"{elapsed:.1f}s")


def test_criterion_03_he_fidelity():
    t0 = time.perf_counter()
    model = models.ModelSpec("logistic", 3)
    ok = True
    seeds = list(range(50))
    ds_spec = datagen.DatasetSpec(num_clients=3, per_client_size=8, input_dim=3,
                                  num_classes=2, class_separation=2.0, diameter_cap=2.0)
    cfg = protocol.FLRunConfig(rounds=6, learning_rate=0.3)
    for res in protocol.run_batch(model, cfg, [protocol.MechanismSpec("he_codec")] * 50,
                                  datagen.generate_batch(ds_spec, seeds), seeds):
        for rec in records(res):
            ok &= rec.delta_two_grad == 0.0 and rec.delta_two_param == 0.0
            ok &= rec.shadow_gap == 0.0
            ok &= all(d > 0.0 for d in rec.delta_up_grad)
        ok &= bool(np.array_equal(res.theta_final_decoded, res.theta_final_shadow))
    elapsed = time.perf_counter() - t0
    gate(3, ok and elapsed < 120.0,
         "HE: delta_two exactly 0 every round, decoded trajectory bit-equal to "
         "shadow, delta_up > 0 (50 seeded runs)", f"{elapsed:.1f}s")


def test_criterion_04_randomization_equality():
    model = models.ModelSpec("logistic", 3)
    worst = 0.0
    seeds = list(range(20))
    ds_spec = datagen.DatasetSpec(num_clients=3, per_client_size=8, input_dim=3,
                                  num_classes=2, class_separation=2.0, diameter_cap=2.0)
    cfg = protocol.FLRunConfig(rounds=5, learning_rate=0.25)
    mech = protocol.MechanismSpec("randomization", 0.3, shared_noise=True)
    for res in protocol.run_batch(model, cfg, [mech] * 20,
                                  datagen.generate_batch(ds_spec, seeds), seeds):
        for rec in records(res):
            for k in range(3):
                worst = max(worst, abs(rec.delta_two_grad - rec.delta_up_grad[k]))
                worst = max(worst, abs(rec.delta_two_param - rec.delta_up_param[k]))
    gate(4, worst <= 1e-12,
         "shared per-round delta: delta_two equals delta_up within 1e-12 every "
         "round (both spaces)", f"worst gap {worst:.2e}")


def test_criterion_05_privacy_bound_empirical_validity():
    t0 = time.perf_counter()
    scenario = verify.VerifyScenario(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=16, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
        attack=attack.AttackConfig(iters=250, optimizer="adam", step_size=0.15,
                                   init="gaussian"),
        sigma=0.6, gamma=0.1, num_pairs=150, quantile=0.1)
    report = verify.verify_bound("privacy", scenario, trials=200, master_seed=42)
    elapsed = time.perf_counter() - t0
    floor = 0.9 - 2.0 * math.sqrt(0.09 / 200)
    gate(5, report.fraction_holding >= floor and elapsed < 1200.0,
         "privacy-leakage bound holds empirically (gamma=0.1, 200 trials)",
         f"fraction {report.fraction_holding:.4f} >= {floor:.4f}, "
         f"vacuous {report.n_vacuous} excluded+counted, {elapsed:.0f}s")


def test_criterion_06_utility_bound_empirical_validity():
    t0 = time.perf_counter()
    scenario = verify.VerifyScenario(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=32, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
        attack=attack.AttackConfig(iters=20, optimizer="adam", step_size=0.05),
        sigma=0.3, eta=0.1, fl_rounds=3, learning_rate=0.2, n_eval=400)
    report = verify.verify_bound("utility", scenario, trials=200, master_seed=43)
    elapsed = time.perf_counter() - t0
    violation_fraction = report.violations / report.trials
    ceiling = 0.1 + 2.0 * math.sqrt(0.1 * 0.9 / 200)
    gate(6, violation_fraction <= ceiling and elapsed < 1200.0,
         "utility-loss bound holds empirically (eta=0.1, minimizer lambda, 200 trials)",
         f"violation fraction {violation_fraction:.4f} <= {ceiling:.4f}, {elapsed:.0f}s")


def test_criterion_07_attack_efficacy_floor():
    # thresholds locked by the pre-registered 20-seed pilot (seeds 0..19, all 1.0);
    # evaluation runs disjoint seeds 100..129
    t0 = time.perf_counter()
    spec = models.ModelSpec("linear", 2)
    cap_d = 2.0
    hits = 0
    for seed in range(100, 130):
        g = rngmod.stream(seed, 50)
        theta = 0.4 * g.standard_normal(2)
        while True:
            x = g.standard_normal(2)
            if np.linalg.norm(x) <= 1.0:
                break
        y = np.array([1.0])
        g_true = grad_params(spec, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=400, optimizer="adam", step_size=0.05, init="zeros")
        tr = invert_one(spec, theta, g_true, y, cfg, x[None, :], cap_d, seed=seed)
        hits += attack.privacy_leakage_final(tr) >= 0.95
    elapsed = time.perf_counter() - t0
    gate(7, hits >= 27 and elapsed < 300.0,
         "unprotected single-sample linear inversion reaches eps_p_final >= 0.95 "
         "in >= 90% of 30 seeds", f"{hits}/30, {elapsed:.0f}s")


def test_criterion_08_privacy_monotonicity():
    t0 = time.perf_counter()
    config = experiment.ExperimentConfig(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=4, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="mlp1", input_dim=2, hidden_dim=8, num_classes=2),
        fl=protocol.FLRunConfig(rounds=1, learning_rate=0.2),
        mechanism=experiment.MechanismSpec(kind="randomization", sigma=0.0),
        attack=attack.AttackConfig(iters=300, optimizer="adam", step_size=0.1,
                                   init="gaussian"),
        master_seed=7, n_eval=200, num_pairs=60, quantile=0.1)
    rows, summary = experiment.run_sweep(config, "sigma",
                                         [0.0, 0.05, 0.1, 0.2, 0.5], trials=30)
    elapsed = time.perf_counter() - t0
    ok = (summary["median_eps_p_non_increasing"]
          and summary["spearman_rho"] <= 0.0
          and summary["spearman_p"] < 0.05)
    gate(8, ok,
         "sigma sweep: median eps_p non-increasing, Spearman rho <= 0 with p < 0.05",
         f"medians {[round(v, 3) for v in summary['median_eps_p']]}, "
         f"rho {summary['spearman_rho']:.3f}, p {summary['spearman_p']:.2e}, "
         f"{elapsed:.0f}s")


def test_criterion_09_formula_unit_suite():
    t0 = time.perf_counter()
    checks = []
    # covering numbers
    checks.append(covering_number(1, 2.0, 2.0) == 4.0)
    checks.append(covering_number(2, 2.0, 1.0) == 1024.0)
    checks.append(covering_number(3, 0.0, 1.5) == 6.0)
    # privacy upper bound
    checks.append(bounds.privacy_upper_bound(2.0, 5, 1.0, 1.0, 1.0) == 0.5)
    checks.append(bounds.privacy_upper_bound(2.0, 5, 1.0, 1.0, 0.0) == 1.0)
    checks.append(abs(bounds.privacy_upper_bound(2 * math.exp(-2), 2, 2.0, 1.0, 1.0)
                      - math.sqrt(0.5)) < 1e-12)
    # attacker sample lower bound
    checks.append(attack.sample_lower_bound(0.5, 0.75, 1.0, 2.0) == 8.0)
    checks.append(attack.sample_lower_bound(0.5, 0.75, 1.0, 0.0) == 0.5)
    try:
        attack.sample_lower_bound(0.5, 0.5, 1.0, 1.0)
        checks.append(False)
    except Exception:
        checks.append(True)
    # not-PAC condition
    checks.append(attack.not_pac_condition(5.0, 10, 0.9) is True)
    checks.append(attack.not_pac_condition(0.0, 10, 0.5) is False)
    checks.append(attack.not_pac_condition(0.1, 1, 1e-9) is True)
    # private PAC sample size
    checks.append(abs(bounds.private_pac_sample_size(0.6, 0.0, 0.5, math.exp(-1))
                      - 100.0) < 1e-6)
    checks.append(bounds.private_pac_sample_size(1.0, 0.5, 1.0, 1.0) == 0.0)
    try:
        bounds.private_pac_sample_size(0.5, 0.0, 0.5, 0.1)
        checks.append(False)
    except Exception:
        checks.append(True)
    # aggregation: the server's step, theta - eta * weighted_sum(uploads, sizes)
    agg = np.zeros(2) - 1.0 * weighted_sum([np.array([1.0, 0.0]),
                                                     np.array([0.0, 1.0])], [3, 3])
    checks.append(np.array_equal(agg, np.array([-0.5, -0.5])))
    gsingle = np.array([2.0, -1.0])
    checks.append(np.allclose(
        np.ones(2) - 0.1 * weighted_sum([gsingle], [5]),
        np.ones(2) - 0.1 * gsingle, rtol=0, atol=0))
    # eps_p edge cases: an inversion started at the target, observing the
    # target's own gradient, stays there
    x0 = np.array([[0.0, 0.0]])
    spec1, theta1, y1 = models.ModelSpec("linear", 2), np.array([0.3, -0.2]), np.array([1.0])
    for target, expected in ((x0, 1.0), (np.array([[2.0, 0.0]]), 0.0),
                             (np.array([[1.0, 0.0]]), 0.5)):
        tr = invert_one(
            spec1, theta1, grad_params(spec1, theta1, target, y1), y1,
            attack.AttackConfig(iters=2, optimizer="sgd", step_size=0.1), x0, 2.0, x0=target)
        checks.append(attack.privacy_leakage(tr) == expected)
    # AdvRisk(0) == Risk
    (ds,), = datagen.generate_batch(datagen.DatasetSpec(
        num_clients=1, per_client_size=20, input_dim=2, num_classes=2,
        class_separation=6.0, diameter_cap=4.0), [6])
    spec2 = models.ModelSpec("logistic", 2)
    theta2 = attack.train_phase2(ds, spec2, epochs=150, lr=0.5, seed=0)
    checks.append(attack.adv_risk(spec2, theta2, ds.x, ds.y, 0.0, seed=1)
                  == attack.risk(spec2, theta2, ds.x, ds.y))
    elapsed = time.perf_counter() - t0
    gate(9, all(checks) and elapsed < 5.0,
         "every closed-form example passes as a unit check",
         f"{sum(checks)}/{len(checks)} checks, {elapsed:.2f}s")


def test_criterion_10_bound_evaluator_cross_checks():
    g = np.random.default_rng(12)
    bitwise_ok = True
    for _ in range(1000):
        c_const = float(g.uniform(0.01, 5.0))
        lam = float(g.uniform(0.05, 5.0))
        m_const = float(g.uniform(0.01, 5.0))
        d = int(g.integers(1, 40))
        cap = float(g.uniform(0.1, 5.0))
        eta = float(g.uniform(0.01, 1.0))
        m = int(g.integers(1, 10**6))
        a = utility_upper_bound(c_const, lam, 0.0, m_const, d, cap, eta, m)
        b = he_utility_upper_bound(c_const, lam, m_const, d, cap, eta, m)
        bitwise_ok &= (a == b)

    rel_ok = True
    worst_rel = 0.0
    for trial in range(200):
        k = int(g.integers(1, 5))
        est = datagen.ConstantsEstimate(
            c_a=float(g.uniform(0.1, 3.0)), c_b=3.5, big_c=float(g.uniform(0.1, 2.0)),
            big_m=float(g.uniform(0.1, 3.0)), cap_d=float(g.uniform(0.5, 4.0)),
            c_0=0.5, c_2=1.0)
        kwargs = dict(
            constants=est, eta=float(g.uniform(0.05, 0.9)),
            lam=float(g.uniform(0.5, 3.0)), gamma=float(g.uniform(0.01, 0.2)),
            eps_p=g.uniform(0.0, 1.0, k), eps_e=g.uniform(1.0, 100.0, k), d=4)
        g.uniform(0.0, 1.0, k)      # the dropped delta_up's draw, so later tuples stay
        rand_inp = bounds.BoundInputs(rho=1e-12, big_l=1.0, **kwargs)
        gen_inp = bounds.BoundInputs(rho=1.0, big_l=2.0, **kwargs)
        a = bounds.tradeoff_randomization(rand_inp)
        b = bounds.tradeoff_general(gen_inp)
        if np.isfinite(a) and np.isfinite(b):
            rel = abs(a - b) / max(abs(a), abs(b))
            worst_rel = max(worst_rel, rel)
            rel_ok &= rel <= 1e-9
    gate(10, bitwise_ok and rel_ok,
         "HE bound == general bound at zero two-way distortion (bit-for-bit, 1000 "
         "tuples); randomization bound at rho->0 matches general with C*L -> 2C",
         f"worst relative gap {worst_rel:.2e}")
