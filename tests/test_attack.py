import json
import math
import os

import numpy as np
import pytest
from scipy import stats

from fedtradeoff import attack, cli, datagen, experiment, models, protocol, rng as rngmod
from fedtradeoff.errors import ConfigurationError

LINEAR = models.ModelSpec("linear", 2)
LOGISTIC = models.ModelSpec("logistic", 2)
CAP_D = 2.0


def fd_grad_objective(spec, theta, x, y, g_obs, fd_step=1e-5):
    """Oracle for attack._grad_objective: central differences of each sample's
    parameter gradient over its input coordinates, contracted with v."""
    m, p = x.shape
    v = models.per_example_grads(spec, theta, x, y).mean(axis=0) - g_obs
    out = np.empty((m, p))
    for i in range(m):
        yi = y[i:i + 1]
        base = x[i]
        h = fd_step * (1.0 + np.abs(base))
        for j in range(p):
            xp = base.copy(); xp[j] += h[j]
            xm = base.copy(); xm[j] -= h[j]
            gp = models.per_example_grads(spec, theta, xp[None, :], yi)[0]
            gm = models.per_example_grads(spec, theta, xm[None, :], yi)[0]
            out[i, j] = 2.0 * float(v @ ((gp - gm) / (2.0 * h[j] * m)))
    return out


def single_sample_instance(seed, label=1.0, theta_scale=0.4):
    """theta, x (in the radius-1 ball), y for the canonical inversion scenario."""
    g = rngmod.stream(seed, 50)
    theta = theta_scale * g.standard_normal(2)
    while True:
        x = g.standard_normal(2)
        if np.linalg.norm(x) <= 1.0:
            break
    return theta, x, np.array([label])


class TestInvertGradient:
    def test_true_init_is_stationary_with_zero_objective(self):
        theta, x, y = single_sample_instance(3)
        g_true = models.grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=20, optimizer="sgd", step_size=0.1, seed=0)
        tr = attack.invert_gradient(LINEAR, theta, g_true, y, 1, cfg, x0=x[None, :])
        assert tr.objectives[0] == 0.0
        assert np.array_equal(tr.final_x, x[None, :])
        assert np.all(tr.objectives == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_single_sample_linear_recovery(self, seed):
        # threshold locked from a 20-seed pilot: every seed reached 1.0
        theta, x, y = single_sample_instance(seed)
        g_true = models.grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=400, optimizer="adam", step_size=0.05,
                                  init="zeros", seed=seed)
        tr = attack.invert_gradient(LINEAR, theta, g_true, y, 1, cfg,
                                    originals=x[None, :], cap_d=CAP_D)
        assert attack.privacy_leakage_final(tr, x[None, :], CAP_D) >= 0.95

    def test_closed_form_linear_gradient_matches_finite_differences(self):
        # dual-route check: analytic dF/dX vs central differences on F
        g = rngmod.stream(4, 51)
        theta = g.standard_normal(2)
        x = g.standard_normal((3, 2))
        y = g.standard_normal(3)
        g_obs = g.standard_normal(2)
        analytic = attack._grad_objective(LINEAR, theta, x, y, g_obs)
        h = 1e-6
        for i in range(3):
            for j in range(2):
                xp = x.copy(); xp[i, j] += h
                xm = x.copy(); xm[i, j] -= h
                num = (attack.matching_objective(LINEAR, theta, xp, y, g_obs)
                       - attack.matching_objective(LINEAR, theta, xm, y, g_obs)) / (2 * h)
                assert analytic[i, j] == pytest.approx(num, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("spec", [
        models.ModelSpec("linear", 3),
        models.ModelSpec("logistic", 3),
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("logistic", 3, num_classes=4),
        models.ModelSpec("mlp1", 2, hidden_dim=8),
        models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3),
    ], ids=lambda s: f"{s.kind}-p{s.input_dim}-h{s.hidden_dim}-c{s.num_classes}")
    @pytest.mark.parametrize("seed", range(4))
    def test_exact_gradient_matches_finite_difference_oracle(self, spec, seed):
        g = rngmod.stream(seed, 52)
        theta = g.standard_normal(spec.param_dim)
        x = g.standard_normal((5, spec.input_dim))
        y = g.integers(0, spec.num_classes, 5).astype(np.float64)
        g_obs = g.standard_normal(spec.param_dim)
        exact = attack._grad_objective(spec, theta, x, y, g_obs)
        oracle = fd_grad_objective(spec, theta, x, y, g_obs)
        assert np.max(np.abs(exact - oracle)) <= 1e-7 * np.max(np.abs(oracle))

    def test_sgd_backtracking_monotone(self):
        theta, x, y = single_sample_instance(9)
        g_true = models.grad_params(LOGISTIC, theta, x[None, :], np.array([1]))
        cfg = attack.AttackConfig(iters=60, optimizer="sgd", step_size=0.5,
                                  init="gaussian", backtracking=True, seed=9)
        tr = attack.invert_gradient(LOGISTIC, theta, g_true, np.array([1]), 1, cfg)
        assert np.all(np.diff(tr.objectives) <= 1e-15)

    def test_heavy_noise_no_better_than_baseline(self):
        # two-sample oracle locked from a 30-seed pilot (p was 1.0)
        atk_err, base_err = [], []
        for seed in range(30):
            theta, x, _ = single_sample_instance(seed, theta_scale=0.5)
            y = np.array([1])
            g_true = models.grad_params(LOGISTIC, theta, x[None, :], y)
            prot = protocol.protect(g_true, protocol.randomization(20.0),
                                    rngmod.stream(seed, 61))
            cfg = attack.AttackConfig(iters=100, optimizer="adam", step_size=0.05,
                                      init="gaussian", seed=seed)
            tr = attack.invert_gradient(LOGISTIC, theta, prot.wire, y, 1, cfg)
            atk_err.append(np.linalg.norm(tr.final_x[0] - x))
            guess = 0.5 * rngmod.stream(seed, 62).standard_normal(2)
            base_err.append(np.linalg.norm(guess - x))
        res = stats.mannwhitneyu(atk_err, base_err, alternative="less")
        assert res.pvalue > 0.05

    def test_strided_trace_streaming_leakage_matches_full(self):
        theta, x, y = single_sample_instance(5)
        g_true = models.grad_params(LINEAR, theta, x[None, :], y)
        full_cfg = attack.AttackConfig(iters=50, optimizer="adam", step_size=0.05,
                                       seed=5, keep_every=1)
        strided_cfg = attack.AttackConfig(iters=50, optimizer="adam", step_size=0.05,
                                          seed=5, keep_every=7)
        full = attack.invert_gradient(LINEAR, theta, g_true, y, 1, full_cfg,
                                      originals=x[None, :], cap_d=CAP_D)
        strided = attack.invert_gradient(LINEAR, theta, g_true, y, 1, strided_cfg,
                                         originals=x[None, :], cap_d=CAP_D)
        a = attack.privacy_leakage(full, x[None, :], CAP_D)
        b = attack.privacy_leakage(strided, x[None, :], CAP_D)
        assert a == pytest.approx(b, rel=1e-12)
        assert len(strided.iterates) < len(full.iterates)

    def test_strided_trace_wrong_originals_rejected(self):
        theta, x, y = single_sample_instance(6)
        g_true = models.grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=20, optimizer="adam", step_size=0.05,
                                  seed=6, keep_every=5)
        tr = attack.invert_gradient(LINEAR, theta, g_true, y, 1, cfg,
                                    originals=x[None, :], cap_d=CAP_D)
        with pytest.raises(ConfigurationError):
            attack.privacy_leakage(tr, x[None, :] + 1.0, CAP_D)

    def test_label_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            attack.invert_gradient(LINEAR, np.zeros(2), np.zeros(2), np.zeros(3), 1,
                                   attack.AttackConfig(iters=1))


def make_trace(points_over_time, final):
    """Synthetic trace: points_over_time[t] is the (m, p) iterate at step t+1."""
    iterates = [(0, points_over_time[0] * 0.0)]
    iterates += [(t + 1, p) for t, p in enumerate(points_over_time)]
    return attack.AttackTrace(iterates=iterates,
                              objectives=np.zeros(len(points_over_time) + 1),
                              final_x=final, iters_run=len(points_over_time), stride=1)


class TestPrivacyLeakage:
    def test_exact_recovery_gives_one(self):
        x = np.array([[0.3, 0.4]])
        tr = make_trace([x.copy(), x.copy(), x.copy()], x.copy())
        assert attack.privacy_leakage(tr, x, CAP_D) == 1.0

    def test_distance_cap_gives_zero(self):
        x = np.array([[0.0, 0.0]])
        far = np.array([[CAP_D, 0.0]])
        tr = make_trace([far, far], far)
        assert attack.privacy_leakage(tr, x, CAP_D) == 0.0

    def test_half_distance_gives_half(self):
        x = np.array([[0.0, 0.0]])
        mid = np.array([[CAP_D / 2, 0.0]])
        tr = make_trace([mid, mid], mid)
        assert attack.privacy_leakage(tr, x, CAP_D) == 0.5

    def test_clamped_into_unit_interval(self):
        x = np.array([[0.0, 0.0]])
        vfar = np.array([[100.0, 0.0]])
        tr = make_trace([vfar], vfar)
        assert attack.privacy_leakage(tr, x, CAP_D) == 0.0
        assert 0.0 <= attack.privacy_leakage_final(tr, x, CAP_D) <= 1.0

    def test_bad_cap_rejected(self):
        x = np.array([[0.0, 0.0]])
        tr = make_trace([x], x)
        with pytest.raises(ConfigurationError):
            attack.privacy_leakage(tr, x, 0.0)

    def test_t1_matches_hand_recomputation(self):
        theta, x, y = single_sample_instance(8)
        g_true = models.grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=1, optimizer="adam", step_size=0.05, seed=8)
        tr = attack.invert_gradient(LINEAR, theta, g_true, y, 1, cfg)
        x1 = dict(tr.iterates)[1]
        expected = 1.0 - min(np.linalg.norm(x1[0] - x), CAP_D) / CAP_D
        assert attack.privacy_leakage(tr, x[None, :], CAP_D) == pytest.approx(expected)


def separable_dataset(seed=3, m=40):
    spec = datagen.DatasetSpec(num_clients=1, per_client_size=m, input_dim=2,
                               num_classes=2, class_separation=6.0, diameter_cap=4.0,
                               seed=seed)
    return datagen.generate(spec)[0]


class TestPhase2:
    def test_training_accuracy_on_originals(self):
        # locked from a 20-seed pilot: min accuracy 0.975
        ds = separable_dataset()
        h = attack.train_phase2(ds, LOGISTIC, epochs=400, lr=0.5, seed=0)
        assert attack.risk(h, ds.x, ds.y) <= 0.05

    def test_zero_epochs_is_initialization(self):
        ds = separable_dataset()
        h = attack.train_phase2(ds, LOGISTIC, epochs=0, lr=0.5, seed=4)
        init = models.init_params(LOGISTIC, rngmod.stream(4, rngmod.STREAM_INIT), 0.1)
        assert np.array_equal(h.theta, init)

    def test_deterministic(self):
        ds = separable_dataset()
        h1 = attack.train_phase2(ds, LOGISTIC, epochs=100, lr=0.5, seed=2)
        h2 = attack.train_phase2(ds, LOGISTIC, epochs=100, lr=0.5, seed=2)
        assert np.array_equal(h1.theta, h2.theta)

    def test_risk_constant_classifier_balanced(self):
        h = attack.Classifier(LOGISTIC, np.array([0.0, 0.0]))  # predicts class 1 always
        x = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        assert attack.risk(h, x, y) == 0.5

    def test_risk_zero_when_no_disagreement(self):
        h = attack.Classifier(LOGISTIC, np.array([1.0, 0.0]))
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        assert attack.risk(h, x, y) == 0.0


class TestAdvRisk:
    def setup_method(self):
        self.ds = separable_dataset(seed=5)
        self.h = attack.train_phase2(self.ds, LOGISTIC, epochs=400, lr=0.5, seed=0)

    def test_zero_budget_equals_risk_exactly(self):
        r = attack.risk(self.h, self.ds.x, self.ds.y)
        ar = attack.adv_risk(self.h, self.ds.x, self.ds.y, 0.0, seed=1)
        assert ar == r

    def test_monotone_in_n_probe(self):
        vals = [attack.adv_risk(self.h, self.ds.x, self.ds.y, 1.0, n_probe=n, seed=2)
                for n in (4, 16, 64)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_monotone_in_budget_for_halfspace(self):
        vals = [attack.adv_risk(self.h, self.ds.x, self.ds.y, b, n_probe=32, seed=3)
                for b in (0.0, 0.5, 1.5, 4.0)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_diameter_budget_approaches_one(self):
        big = datagen.diameter(self.ds.x) + 1.0
        ar = attack.adv_risk(self.h, self.ds.x, self.ds.y, big, n_probe=400, seed=4)
        assert ar >= 0.95

    def test_dominates_risk(self):
        r = attack.risk(self.h, self.ds.x, self.ds.y)
        ar = attack.adv_risk(self.h, self.ds.x, self.ds.y, 0.3, seed=5)
        assert ar >= r

    def test_margin_flip_under_gradient_ascent(self):
        # closed-form distance to a linear boundary: |theta.x| / ||theta||
        theta = np.array([1.5, -0.8])
        h = attack.Classifier(LOGISTIC, theta)
        x = np.array([0.6, 0.9])
        label = int(theta @ x >= 0)
        margin = abs(theta @ x) / np.linalg.norm(theta)
        below = attack.adv_risk(h, x[None, :], np.array([label]), 0.9 * margin,
                                search="input-gradient-ascent", steps=20, seed=0)
        above = attack.adv_risk(h, x[None, :], np.array([label]), 1.1 * margin,
                                search="input-gradient-ascent", steps=20, seed=0)
        assert below == 0.0 and above == 1.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            attack.adv_risk(self.h, self.ds.x, self.ds.y, -0.1)


class TestPacFormulas:
    def test_sample_lower_bound_example(self):
        assert attack.sample_lower_bound(0.5, 0.75, 1.0, 2.0) == 8.0

    def test_zero_distortion_collapses_exponent(self):
        assert attack.sample_lower_bound(0.5, 0.75, 1.0, 0.0) == 0.5

    def test_delta_half_rejected(self):
        with pytest.raises(ConfigurationError):
            attack.sample_lower_bound(0.5, 0.5, 1.0, 1.0)

    def test_log_variant_safe_for_huge_distortion(self):
        assert attack.sample_lower_bound(0.5, 0.75, 2.0, 100.0) == math.inf
        assert np.isfinite(attack.log2_sample_lower_bound(0.5, 0.75, 2.0, 100.0))

    def test_not_pac_condition_examples(self):
        assert attack.not_pac_condition(5.0, 10, 0.9) is True       # ln 100 ~ 4.605
        assert attack.not_pac_condition(0.0, 10, 0.5) is False
        assert attack.not_pac_condition(0.1, 1, 1e-9) is True       # threshold -> 0

    def test_phase2_report_assembles(self):
        ds = separable_dataset(seed=6, m=20)
        h, rep = attack.phase2_report(ds, ds.x, ds.y, LOGISTIC, budget=0.5,
                                      pac_eps=0.1, pac_delta=0.9, c_a=1.0,
                                      delta_up=1.0, m_prot=20, epochs=200, seed=1)
        assert 0.0 <= rep.risk <= rep.adv_risk <= 1.0
        assert rep.sample_lower_bound == pytest.approx(
            min(0.8, 0.9) * 2.0 ** 1.0)
        assert rep.constants_estimated

    def test_cli_phase2_without_constants_reports_nan(self, monkeypatch, tmp_path):
        run_dir, out = str(tmp_path / "run"), str(tmp_path / "atk")
        assert cli.main(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                         "--samples", "6", "--rounds", "2", "--out", run_dir]) == 0
        monkeypatch.setattr(experiment, "try_estimate", lambda *a, **kw: None)
        assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--iters", "10",
                         "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9"]) == 0
        with open(os.path.join(out, "phase2.json")) as fh:
            rep = json.load(fh)
        assert math.isnan(rep["sample_lower_bound"])
        assert math.isnan(rep["log2_sample_lower_bound"])
        assert rep["constants_estimated"] is False
