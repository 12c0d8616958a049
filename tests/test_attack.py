import json
import math
import os
from dataclasses import replace

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
    matching_objective. It also streams the per-sample leakage sums in the loop,
    as the attack once did. Returns the trace, how often backtracking stayed
    put, and the streamed (sums, last) over t = 1..iters_run."""
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
        iterates.append((t, x.copy()))
    trace = attack.AttackTrace(trajectory=np.stack([x_t for _, x_t in iterates]),
                               objectives=np.asarray(objectives),
                               final_x=x.copy(), iters_run=iters_run, truncated=truncated)
    return trace, stays, (sums, last)


def assert_matches_two_pass(spec, theta, g_obs, labels, originals, m, cfg, x0):
    """invert_gradient equals the two-pass loop bit for bit, every iterate
    included, and its stored trajectory scores the leakage the loop streamed.
    Returns the trace and the oracle's stay-put count."""
    # the huge steps overflow exp() in the sigmoid branch np.where discards
    with np.errstate(over="ignore", invalid="ignore"):
        got = attack.invert_gradient(spec, theta, g_obs, labels, m, cfg, x0=x0)
        want, stays, (sums, last) = two_pass_invert_gradient(
            spec, theta, g_obs, labels, m, cfg, originals, CAP_D, x0)
    assert [t for t, _ in got.iterates] == list(range(got.iters_run + 1))
    assert_same_trace(got, want)
    assert (attack.privacy_leakage(got, originals, CAP_D)
            == float(1.0 - np.mean(sums / got.iters_run)))
    assert attack.privacy_leakage_final(got, originals, CAP_D) == float(1.0 - np.mean(last))
    return got, stays


def assert_same_trace(got, want):
    """Bit-identical traces: every iterate, objective and final_x, iters_run, truncated."""
    assert [t for t, _ in got.iterates] == [t for t, _ in want.iterates]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got.iterates, want.iterates))
    assert np.array_equal(got.objectives, want.objectives)
    assert np.array_equal(got.final_x, want.final_x)
    assert (got.iters_run, got.truncated) == (want.iters_run, want.truncated)


def rewalk_leakage(trace, originals, cap_d):
    """1 - mean_i mean_t min(||X_{t,i}-X_i||, D)/D over the stored trajectory."""
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
        tr = attack.invert_gradient(LINEAR, theta, g_true, y, 1, cfg)
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
    @pytest.mark.parametrize("m", [1, 3])
    def test_shared_forward_pass_matches_two_pass_loop(self, spec, optimizer, step_size,
                                                       backtracking, m):
        theta, x, y, g_true = attack_instance(spec, seed=m, m=m)
        cfg = attack.AttackConfig(iters=30, optimizer=optimizer, step_size=step_size,
                                  init="gaussian", seed=4, backtracking=backtracking)
        x0 = x + 0.01 * rngmod.stream(m, 54).standard_normal(x.shape) \
            if step_size > 1.0 else None
        got, stays = assert_matches_two_pass(spec, theta, g_true, y, x, m, cfg, x0)
        assert (stays > 0) == (step_size > 1.0)
        assert not got.truncated

    @pytest.mark.parametrize("m", [1, 3])
    def test_truncated_run_matches_two_pass_loop(self, m):
        # a linear model's plain-SGD iterates grow without bound and overflow
        theta, x, y, g_true = attack_instance(LINEAR, seed=m, m=m)
        cfg = attack.AttackConfig(iters=30, optimizer="sgd", step_size=1e4,
                                  init="gaussian", seed=4)
        got, _ = assert_matches_two_pass(LINEAR, theta, g_true, y, x, m, cfg, None)
        assert got.truncated and 1 <= got.iters_run < cfg.iters

    @pytest.mark.parametrize("optimizer, step_size", [("adam", 0.1), ("sgd", 1e16)])
    def test_each_step_reuses_the_accepted_iterates_forward_pass(self, monkeypatch,
                                                                  optimizer, step_size):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3)
        theta, x, y, g_true = attack_instance(spec, seed=5)
        fused = models.per_example_grads_and_vjp
        passes, vjp_points = [], []

        def recording(*args):
            grads, vjp = fused(*args)
            point = np.array(args[2]).reshape(x.shape)    # a one-row batch
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

    def test_leakage_rewalks_the_trajectory_for_any_originals_and_cap(self):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3)
        theta, x, y, g_true = attack_instance(spec, seed=2)
        cfg = attack.AttackConfig(iters=40, optimizer="adam", step_size=0.1,
                                  init="gaussian", seed=2)
        tr = attack.invert_gradient(spec, theta, g_true, y, 3, cfg)
        assert [t for t, _ in tr.iterates] == list(range(41))
        assert attack.privacy_leakage(tr, x, CAP_D) == rewalk_leakage(tr, x, CAP_D)
        other = x + 0.25
        assert attack.privacy_leakage(tr, other, CAP_D) == rewalk_leakage(tr, other, CAP_D)
        assert attack.privacy_leakage(tr, x, 3.0) == rewalk_leakage(tr, x, 3.0)

    def test_label_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            attack.invert_gradient(LINEAR, np.zeros(2), np.zeros(2), np.zeros(3), 1,
                                   attack.AttackConfig(iters=1))


def scaled_linear_row(seed, scale, m=3):
    """A linear-model upload (theta, x, y, g_obs, seed) with theta scaled down."""
    theta, x, y, _ = attack_instance(LINEAR, seed=seed, m=m)
    theta = scale * theta
    return theta, x, y, models.grad_params(LINEAR, theta, x, y), seed


def count_fp_errors(fn):
    """fn() and how many numpy ufunc calls in it raised a floating-point error."""
    events = []
    old = np.seterrcall(lambda kind, flag: events.append(kind))
    try:
        with np.errstate(all="call"):
            result = fn()
    finally:
        np.seterrcall(old)
    return result, len(events)


class TestInvertBatch:
    """Every row of a lockstep batch is the inversion its own one-row run gives."""

    @staticmethod
    def check_rows(spec, cfg, rows, x0=None):
        """Invert ``(theta, x, y, g_obs, seed)`` rows as one batch; check each row
        against its one-row run and, through that, the two-pass loop."""
        thetas, xs, ys, gs, seeds = zip(*rows)
        traces = attack.invert_batch(spec, np.stack(thetas), np.stack(gs), np.stack(ys), cfg,
                                     seeds, x0=x0)
        leakages = [None] * len(rows)
        if x0 is None:
            # invert_uploads runs the same block and scores it from its arrays
            uploads = [(theta, g, datagen.ClientDataset(0, x, y))
                       for theta, x, y, g in zip(thetas, xs, ys, gs)]
            objectives, leakages = attack.invert_uploads(spec, cfg, list(seeds), uploads,
                                                         CAP_D)
            for f, got in zip(objectives, traces):
                assert np.array_equal(f, got.objectives)
        m = len(ys[0])
        for b, got in enumerate(traces):
            row_cfg = replace(cfg, seed=seeds[b])
            row_x0 = None if x0 is None else x0[b]
            with np.errstate(over="ignore"):     # a truncating row overflows alone too
                one = attack.invert_gradient(spec, thetas[b], gs[b], ys[b], m, row_cfg,
                                             x0=row_x0)
            assert_same_trace(got, one)
            if leakages[b] is not None:
                assert leakages[b] == attack.privacy_leakage(one, xs[b], CAP_D)
            assert (attack.privacy_leakage_final(got, xs[b], CAP_D)
                    == attack.privacy_leakage_final(one, xs[b], CAP_D))
            assert_matches_two_pass(spec, thetas[b], gs[b], ys[b], xs[b], m, row_cfg, row_x0)
        return traces

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
        ("sgd", 1e16, True),
    ], ids=["adam", "sgd", "sgd-backtracking", "sgd-backtracking-stay-put"])
    def test_rows_equal_their_one_row_runs(self, spec, optimizer, step_size, backtracking):
        rows = [(*attack_instance(spec, seed=s), s) for s in (3, 7, 11)]
        cfg = attack.AttackConfig(iters=30, optimizer=optimizer, step_size=step_size,
                                  init="gaussian", backtracking=backtracking)
        x0 = None
        if step_size > 1.0:
            # row 0 starts next to the truth and stays put; the others start farther off
            x0 = np.stack([x + scale * rngmod.stream(s, 54).standard_normal(x.shape)
                           for (_, x, _, _, s), scale in zip(rows, (0.01, 0.5, 0.5))])
        traces = self.check_rows(spec, cfg, rows, x0)
        assert not any(tr.truncated for tr in traces)
        if step_size > 1.0:
            assert np.all(traces[0].objectives == traces[0].objectives[0])

    def test_truncated_rows_freeze_while_the_others_run(self):
        # plain SGD at step 1e4 on a linear model: two rows overflow (after 3 and
        # 4 steps), the two with the smallest theta keep moving to the end
        rows = [scaled_linear_row(seed, scale)
                for seed, scale in ((0, 1e-3), (1, 1e-3), (3, 1e-3), (1, 3e-3))]
        cfg = attack.AttackConfig(iters=30, optimizer="sgd", step_size=1e4, init="gaussian")
        with np.errstate(over="ignore"):
            traces = self.check_rows(LINEAR, cfg, rows)
        assert [tr.truncated for tr in traces] == [True, False, True, False]
        assert len({tr.iters_run for tr in traces}) == 3
        assert all(tr.objectives[-1] != tr.objectives[1] for tr in traces[1::2])
        # a frozen row computes nothing more: the batch raises exactly the
        # floating-point errors of the truncating rows' own runs
        _, in_batch = count_fp_errors(lambda: attack.invert_batch(
            LINEAR, np.stack([r[0] for r in rows]), np.stack([r[3] for r in rows]),
            np.stack([r[2] for r in rows]), cfg, [r[4] for r in rows]))
        alone = [count_fp_errors(lambda: attack.invert_gradient(
            LINEAR, theta, g, y, 3, replace(cfg, seed=seed)))[1]
            for theta, _, y, g, seed in rows]
        assert in_batch == sum(alone) and alone[0] > 0 and alone[1] == 0

    def test_frozen_rows_repeat_their_last_accepted_iterate(self):
        rows = [scaled_linear_row(seed, scale) for seed, scale in ((0, 1e-3), (1, 1e-3))]
        cfg = attack.AttackConfig(iters=30, optimizer="sgd", step_size=1e4, init="gaussian")
        thetas, _, ys, gs, seeds = zip(*rows)
        with np.errstate(over="ignore"):
            traj, _, iters_run, truncated = attack._invert_block(
                LINEAR, np.stack(thetas), np.stack(gs), np.stack(ys), cfg, seeds, None)
        assert list(truncated) == [True, False] and iters_run[0] < cfg.iters
        assert np.all(traj[iters_run[0]:, 0] == traj[iters_run[0], 0])

    def test_mismatched_rows_rejected(self):
        theta, _, y, g = attack_instance(LINEAR, seed=1)
        cfg = attack.AttackConfig(iters=2)
        with pytest.raises(ConfigurationError):
            attack.invert_batch(LINEAR, theta[None], g[None], y[None], cfg, [0, 1])
        with pytest.raises(ConfigurationError):
            attack.invert_batch(LINEAR, theta[None], g[None], y, cfg, [0])


class TestLockstepBlocks:
    @pytest.mark.parametrize("budget, kept, want", [
        (1, 0, [[0], [1], [2], [3], [4]]),
        (2 * 768, 0, [[0, 1], [2, 3], [4]]),       # an upload holds 768 bytes
        (2 * 768 + 767, 0, [[0, 1], [2, 3], [4]]),
        (3 * 768, 384, [[0, 1], [2, 3], [4]]),     # and its caller keeps 384
        (1 << 20, 0, [[0, 1, 2, 3, 4]]),
    ])
    def test_consecutive_slices_within_the_budget(self, monkeypatch, budget, kept, want):
        # 8 bytes x m x ((iters + 1) p + d) = 8 x 4 x (11 x 2 + 2)
        monkeypatch.setattr(attack, "_BLOCK_BUDGET", budget)
        cfg = attack.AttackConfig(iters=10)
        assert attack.lockstep_blocks(list(range(5)), LOGISTIC, cfg, 4, kept) == want


def make_trace(points_over_time, final):
    """Synthetic trace: points_over_time[t] is the (m, p) iterate at step t+1."""
    return attack.AttackTrace(
        trajectory=np.stack([points_over_time[0] * 0.0, *points_over_time]),
        objectives=np.zeros(len(points_over_time) + 1),
        final_x=final, iters_run=len(points_over_time))


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

    @pytest.mark.parametrize("shape", ["columns", "rows", "transposed"])
    @pytest.mark.parametrize("score", [attack.privacy_leakage, attack.privacy_leakage_final],
                             ids=["trajectory", "final"])
    def test_wrongly_shaped_originals_rejected(self, shape, score):
        # an (m, 2) trace must not broadcast against (m, 1), (m - 1, 2) or (2, m) originals
        x = np.array([[0.3, 0.4], [1.0, -0.5], [0.0, 0.2]])
        tr = make_trace([x + 0.1, x + 0.05], x + 0.05)
        bad = {"columns": x[:, :1], "rows": x[:2], "transposed": x.T}[shape]
        with pytest.raises(ConfigurationError):
            score(tr, bad, CAP_D)

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
