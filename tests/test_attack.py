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


def two_pass_invert_gradient(spec, theta, g_obs, labels, m, cfg, originals, cap_d, x0=None):
    """Reference copy of the optimizer loop before the forward pass was shared:
    every step recomputes v with _grad_objective and scores each candidate with
    matching_objective. Returns the trace and how often backtracking stayed put."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    p = spec.input_dim
    g = rngmod.stream(cfg.seed, rngmod.STREAM_ATTACK, 0)
    if x0 is not None:
        x = x0.copy()
    elif cfg.init == "zeros":
        x = np.zeros((m, p))
    else:
        x = cfg.init_scale * g.standard_normal((m, p))
    sums, last = np.zeros(m), np.zeros(m)
    objectives = [attack.matching_objective(spec, theta, x, labels, g_obs)]
    iterates = [(0, x.copy())]
    truncated, stays, iters_run = False, 0, 0
    mom1, mom2 = np.zeros_like(x), np.zeros_like(x)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, cfg.iters + 1):
        grad = attack._grad_objective(spec, theta, x, labels, g_obs)
        if cfg.optimizer == "adam":
            mom1 = b1 * mom1 + (1 - b1) * grad
            mom2 = b2 * mom2 + (1 - b2) * grad * grad
            mhat = mom1 / (1 - b1 ** t)
            vhat = mom2 / (1 - b2 ** t)
            x_new = x - cfg.step_size * mhat / (np.sqrt(vhat) + eps)
            f_new = attack.matching_objective(spec, theta, x_new, labels, g_obs)
        else:
            trial = cfg.step_size
            x_new = x - trial * grad
            f_new = attack.matching_objective(spec, theta, x_new, labels, g_obs)
            if cfg.backtracking:
                tries = 0
                while f_new > objectives[-1] and tries < 40:
                    trial *= 0.5
                    x_new = x - trial * grad
                    f_new = attack.matching_objective(spec, theta, x_new, labels, g_obs)
                    tries += 1
                if f_new > objectives[-1]:
                    x_new, f_new = x, objectives[-1]
                    stays += 1
        if not (np.all(np.isfinite(x_new)) and np.isfinite(f_new)):
            truncated = True
            break
        x = x_new
        iters_run = t
        objectives.append(f_new)
        dist = np.linalg.norm(x - originals, axis=1)
        last = np.minimum(dist, cap_d) / cap_d
        sums += last
        if t % cfg.keep_every == 0 or t == cfg.iters:
            iterates.append((t, x.copy()))
    if iterates[-1][0] != iters_run:
        iterates.append((iters_run, x.copy()))
    trace = attack.AttackTrace(iterates=iterates, objectives=np.asarray(objectives),
                               final_x=x.copy(), iters_run=iters_run, stride=cfg.keep_every,
                               truncated=truncated, leakage_sums=sums, leakage_final=last)
    return trace, stays


def rewalk_leakage(trace, originals, cap_d):
    """1 - mean_i mean_t min(||X_{t,i}-X_i||, D)/D over a stride-1 trajectory."""
    acc = np.zeros(originals.shape[0])
    for t, x_t in trace.iterates[1:]:
        acc += np.minimum(np.linalg.norm(x_t - originals, axis=1), cap_d) / cap_d
    return float(1.0 - np.mean(acc / trace.iters_run))


def attack_instance(spec, seed, m=3):
    """theta, originals, labels and their exact batch gradient."""
    g = rngmod.stream(seed, 53)
    theta = g.standard_normal(spec.param_dim)
    x = g.standard_normal((m, spec.input_dim))
    y = g.integers(0, spec.num_classes, m).astype(np.float64)
    return theta, x, y, models.grad_params(spec, theta, x, y)


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

    @pytest.mark.parametrize("spec", [
        models.ModelSpec("linear", 3),
        models.ModelSpec("logistic", 3),
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3),
    ], ids=lambda s: f"{s.kind}-c{s.num_classes}")
    @pytest.mark.parametrize("optimizer, step_size, backtracking", [
        ("adam", 0.1, False),
        ("sgd", 0.3, False),
        ("sgd", 0.5, True),
        # from next to the truth, even the 40th halving overshoots: stays put
        ("sgd", 1e16, True),
    ], ids=["adam", "sgd", "sgd-backtracking", "sgd-backtracking-stay-put"])
    @pytest.mark.parametrize("keep_every", [1, 7])
    def test_shared_forward_pass_matches_two_pass_loop(self, spec, optimizer, step_size,
                                                       backtracking, keep_every):
        theta, x, y, g_true = attack_instance(spec, seed=keep_every)
        cfg = attack.AttackConfig(iters=30, optimizer=optimizer, step_size=step_size,
                                  init="gaussian", seed=4, keep_every=keep_every,
                                  backtracking=backtracking)
        x0 = x + 0.01 * rngmod.stream(keep_every, 54).standard_normal(x.shape) \
            if step_size > 1.0 else None
        # the huge steps overflow exp() in the sigmoid branch np.where discards
        with np.errstate(over="ignore", invalid="ignore"):
            got = attack.invert_gradient(spec, theta, g_true, y, 3, cfg, originals=x,
                                         cap_d=CAP_D, x0=x0)
            want, stays = two_pass_invert_gradient(spec, theta, g_true, y, 3, cfg, x, CAP_D, x0)
        assert (stays > 0) == (step_size > 1.0)
        assert np.array_equal(got.objectives, want.objectives)
        assert [t for t, _ in got.iterates] == [t for t, _ in want.iterates]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.iterates, want.iterates))
        assert np.array_equal(got.final_x, want.final_x)
        assert np.array_equal(got.leakage_sums, want.leakage_sums)
        assert np.array_equal(got.leakage_final, want.leakage_final)
        assert (got.iters_run, got.truncated) == (want.iters_run, want.truncated)

    @pytest.mark.parametrize("optimizer, step_size", [("adam", 0.1), ("sgd", 1e16)])
    def test_each_step_reuses_the_accepted_iterates_forward_pass(self, monkeypatch,
                                                                  optimizer, step_size):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3)
        theta, x, y, g_true = attack_instance(spec, seed=5)
        fused = models.per_example_grads_and_vjp
        passes, vjp_points = [], []

        def recording(*args):
            grads, vjp = fused(*args)
            point = np.array(args[2])
            passes.append(point)

            def recorded_vjp(v):
                vjp_points.append(point)
                return vjp(v)
            return grads, recorded_vjp

        monkeypatch.setattr(models, "per_example_grads_and_vjp", recording)
        cfg = attack.AttackConfig(iters=12, optimizer=optimizer, step_size=step_size,
                                  seed=5, backtracking=optimizer == "sgd")
        x0 = x + 0.01 * rngmod.stream(5, 54).standard_normal(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = attack.invert_gradient(spec, theta, g_true, y, 3, cfg, x0=x0)
        # one VJP per step, taken from the pass of the iterate the step starts at
        assert len(vjp_points) == tr.iters_run == cfg.iters
        for (_, x_t), point in zip(tr.iterates, vjp_points):
            assert np.array_equal(x_t, point)
        if optimizer == "adam":
            assert len(passes) == cfg.iters + 1     # one pass per evaluated iterate
        else:
            assert np.all(tr.objectives == tr.objectives[0])   # stayed put throughout

    def test_stride_one_leakage_uses_streaming_sums_exactly(self):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3)
        theta, x, y, g_true = attack_instance(spec, seed=2)
        cfg = attack.AttackConfig(iters=40, optimizer="adam", step_size=0.1,
                                  init="gaussian", seed=2)
        tr = attack.invert_gradient(spec, theta, g_true, y, 3, cfg, originals=x, cap_d=CAP_D)
        assert tr.has_full_trajectory()
        assert attack.privacy_leakage(tr, x, CAP_D) == rewalk_leakage(tr, x, CAP_D)
        # other originals or another D: the stored trajectory is re-walked
        other = x + 0.25
        assert attack.privacy_leakage(tr, other, CAP_D) == rewalk_leakage(tr, other, CAP_D)
        assert attack.privacy_leakage(tr, x, 3.0) == rewalk_leakage(tr, x, 3.0)

    def test_strided_trace_other_cap_rejected(self):
        spec = models.ModelSpec("logistic", 3)
        theta, x, y, g_true = attack_instance(spec, seed=3)
        cfg = attack.AttackConfig(iters=20, optimizer="adam", step_size=0.05,
                                  seed=3, keep_every=5)
        tr = attack.invert_gradient(spec, theta, g_true, y, 3, cfg, originals=x, cap_d=CAP_D)
        assert attack.privacy_leakage(tr, x, CAP_D) == float(1.0 - np.mean(tr.leakage_sums / 20))
        with pytest.raises(ConfigurationError):
            attack.privacy_leakage(tr, x, 3.0)

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
