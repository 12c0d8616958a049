import itertools
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import (PAIRWISE_BLOCK, assert_same_bits, grad_objective, grad_params,
                      invert_one, matching_objective, rewalk_leakage, spread_values)
from fedtradeoff import attack, cli, datagen, experiment, models, rng as rngmod
from fedtradeoff.errors import ConfigurationError, EstimationError, NumericError

LINEAR = models.ModelSpec("linear", 2)
LOGISTIC = models.ModelSpec("logistic", 2)
CAP_D = 2.0


def fd_grad_objective(spec, theta, x, y, g_obs, fd_step=1e-5):
    """Oracle for ``grad_objective``: central differences of each sample's
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


def two_pass_invert(spec, theta, g_obs, labels, m, cfg, seed, originals, cap_d, x0=None):
    """Reference copy of the optimizer loop before the forward pass was shared,
    at attack seed ``seed``: every step recomputes v with ``grad_objective``
    and scores each candidate with ``matching_objective``. It also adds the
    per-sample leakage sums in the loop and takes the final iterate's
    distances after it, as the attack does. Returns the trace, with every
    iterate, and how often backtracking stayed put."""
    labels = np.atleast_1d(np.asarray(labels, dtype=np.float64))
    p = spec.input_dim
    g = rngmod.stream(seed, rngmod.STREAM_ATTACK, 0)
    if x0 is not None:
        x = x0.copy()
    elif cfg.init == "zeros":
        x = np.zeros((m, p))
    else:
        x = cfg.init_scale * g.standard_normal((m, p))
    sums = np.zeros(m)
    objectives = [matching_objective(spec, theta, x, labels, g_obs)]
    iterates = [(0, x.copy())]
    truncated, stays, iters_run = False, 0, 0
    mom1, mom2 = np.zeros_like(x), np.zeros_like(x)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, cfg.iters + 1):
        grad = grad_objective(spec, theta, x, labels, g_obs)
        if cfg.optimizer == "adam":
            mom1 = b1 * mom1 + (1 - b1) * grad
            mom2 = b2 * mom2 + (1 - b2) * grad * grad
            mhat = mom1 / (1 - b1 ** t)
            vhat = mom2 / (1 - b2 ** t)
            x_new = x - cfg.step_size * mhat / (np.sqrt(vhat) + eps)
            f_new = matching_objective(spec, theta, x_new, labels, g_obs)
        else:
            trial = cfg.step_size
            x_new = x - trial * grad
            f_new = matching_objective(spec, theta, x_new, labels, g_obs)
            if cfg.backtracking:
                tries = 0
                while f_new > objectives[-1] and tries < 40:
                    trial *= 0.5
                    x_new = x - trial * grad
                    f_new = matching_objective(spec, theta, x_new, labels, g_obs)
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
        sums += np.minimum(np.linalg.norm(x - originals, axis=1), cap_d) / cap_d
        iterates.append((t, x.copy()))
    final = np.minimum(np.linalg.norm(x - originals, axis=1), cap_d) / cap_d
    trace = attack.AttackTrace(trajectory=np.stack([x_t for _, x_t in iterates]),
                               objectives=np.asarray(objectives), final_x=x.copy(),
                               iters_run=iters_run, sums=sums, final=final,
                               truncated=truncated)
    return trace, stays


def assert_matches_two_pass(spec, theta, g_obs, labels, originals, m, cfg, seed, x0):
    """A one-row inversion at attack seed ``seed`` equals the two-pass loop
    bit for bit, every kept iterate and both leakage sums included. Returns
    the trace and the oracle's stay-put count."""
    # the huge steps overflow exp() in the sigmoid branch np.where discards
    with np.errstate(over="ignore", invalid="ignore"):
        got = invert_one(spec, theta, g_obs, labels, cfg, originals, CAP_D, seed=seed,
                         x0=x0, keep_trajectory=True)
        want, stays = two_pass_invert(
            spec, theta, g_obs, labels, m, cfg, seed, originals, CAP_D, x0)
    assert len(got.trajectory) == got.iters_run + 1
    assert_same_trace(got, want)
    assert (attack.privacy_leakage(got)
            == float(1.0 - np.mean(want.sums / got.iters_run)))
    assert attack.privacy_leakage_final(got) == float(1.0 - np.mean(want.final))
    return got, stays


def assert_same_trace(got, want):
    """Bit-identical traces: every kept iterate, objective, final_x, both
    leakage sums, iters_run and truncated."""
    assert (got.trajectory is None) == (want.trajectory is None)
    if got.trajectory is not None:
        assert np.array_equal(got.trajectory, want.trajectory)
    assert np.array_equal(got.objectives, want.objectives)
    assert np.array_equal(got.final_x, want.final_x)
    assert np.array_equal(got.sums, want.sums)
    assert np.array_equal(got.final, want.final)
    assert (got.iters_run, got.truncated) == (want.iters_run, want.truncated)


def attack_instance(spec, seed, m=3):
    """theta, originals, labels and their exact batch gradient."""
    g = rngmod.stream(seed, 53)
    theta = g.standard_normal(spec.param_dim)
    x = g.standard_normal((m, spec.input_dim))
    y = g.integers(0, spec.num_classes, m).astype(np.float64)
    return theta, x, y, grad_params(spec, theta, x, y)


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
        g_true = grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=20, optimizer="sgd", step_size=0.1)
        tr = invert_one(LINEAR, theta, g_true, y, cfg, x[None, :], CAP_D, x0=x[None, :])
        assert tr.objectives[0] == 0.0
        assert np.array_equal(tr.final_x, x[None, :])
        assert np.all(tr.objectives == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_single_sample_linear_recovery(self, seed):
        # threshold locked from a 20-seed pilot: every seed reached 1.0
        theta, x, y = single_sample_instance(seed)
        g_true = grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=400, optimizer="adam", step_size=0.05, init="zeros")
        tr = invert_one(LINEAR, theta, g_true, y, cfg, x[None, :], CAP_D, seed=seed)
        assert attack.privacy_leakage_final(tr) >= 0.95

    def test_closed_form_linear_gradient_matches_finite_differences(self):
        # dual-route check: analytic dF/dX vs central differences on F
        g = rngmod.stream(4, 51)
        theta = g.standard_normal(2)
        x = g.standard_normal((3, 2))
        y = g.standard_normal(3)
        g_obs = g.standard_normal(2)
        analytic = grad_objective(LINEAR, theta, x, y, g_obs)
        h = 1e-6
        for i in range(3):
            for j in range(2):
                xp = x.copy(); xp[i, j] += h
                xm = x.copy(); xm[i, j] -= h
                num = (matching_objective(LINEAR, theta, xp, y, g_obs)
                       - matching_objective(LINEAR, theta, xm, y, g_obs)) / (2 * h)
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
        exact = grad_objective(spec, theta, x, y, g_obs)
        oracle = fd_grad_objective(spec, theta, x, y, g_obs)
        assert np.max(np.abs(exact - oracle)) <= 1e-7 * np.max(np.abs(oracle))

    def test_sgd_backtracking_monotone(self):
        theta, x, y = single_sample_instance(9)
        g_true = grad_params(LOGISTIC, theta, x[None, :], np.array([1]))
        cfg = attack.AttackConfig(iters=60, optimizer="sgd", step_size=0.5,
                                  init="gaussian", backtracking=True)
        tr = invert_one(LOGISTIC, theta, g_true, np.array([1]), cfg, x[None, :], CAP_D, seed=9)
        assert np.all(np.diff(tr.objectives) <= 1e-15)

    def test_heavy_noise_no_better_than_baseline(self):
        # two-sample oracle locked from a 30-seed pilot (p was 1.0)
        atk_err, base_err = [], []
        for seed in range(30):
            theta, x, _ = single_sample_instance(seed, theta_scale=0.5)
            y = np.array([1])
            g_true = grad_params(LOGISTIC, theta, x[None, :], y)
            wire = g_true + 20.0 * rngmod.stream(seed, 61).standard_normal(g_true.shape[0])
            cfg = attack.AttackConfig(iters=100, optimizer="adam", step_size=0.05,
                                      init="gaussian")
            tr = invert_one(LOGISTIC, theta, wire, y, cfg, x[None, :], CAP_D, seed=seed)
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
                                  init="gaussian", backtracking=backtracking)
        x0 = x + 0.01 * rngmod.stream(m, 54).standard_normal(x.shape) \
            if step_size > 1.0 else None
        got, stays = assert_matches_two_pass(spec, theta, g_true, y, x, m, cfg, 4, x0)
        assert (stays > 0) == (step_size > 1.0)
        assert not got.truncated

    @pytest.mark.parametrize("m", [1, 3])
    def test_truncated_run_matches_two_pass_loop(self, m):
        # a linear model's plain-SGD iterates grow without bound and overflow
        theta, x, y, g_true = attack_instance(LINEAR, seed=m, m=m)
        cfg = attack.AttackConfig(iters=30, optimizer="sgd", step_size=1e4, init="gaussian")
        got, _ = assert_matches_two_pass(LINEAR, theta, g_true, y, x, m, cfg, 4, None)
        assert got.truncated and 1 <= got.iters_run < cfg.iters

    @pytest.mark.parametrize("optimizer, step_size", [("adam", 0.1), ("sgd", 1e16)])
    def test_each_step_reuses_the_accepted_iterates_forward_pass(self, monkeypatch,
                                                                  optimizer, step_size):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3)
        theta, x, y, g_true = attack_instance(spec, seed=5)
        fused = models.Prepared.__call__
        passes, vjp_points = [], []

        def recording(prep, x_run):
            grads, vjp = fused(prep, x_run)
            point = np.array(x_run).reshape(x.shape)      # a one-row batch
            passes.append(point)

            def recorded_vjp(v):
                vjp_points.append(point)
                return vjp(v)
            return grads, recorded_vjp

        monkeypatch.setattr(models.Prepared, "__call__", recording)
        cfg = attack.AttackConfig(iters=12, optimizer=optimizer, step_size=step_size,
                                  backtracking=optimizer == "sgd")
        x0 = x + 0.01 * rngmod.stream(5, 54).standard_normal(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = invert_one(spec, theta, g_true, y, cfg, x, CAP_D, seed=5, x0=x0,
                            keep_trajectory=True)
        # one VJP per step, taken from the pass of the iterate the step starts at
        assert len(vjp_points) == tr.iters_run == cfg.iters
        for x_t, point in zip(tr.trajectory, vjp_points):
            assert np.array_equal(x_t, point)
        if optimizer == "adam":
            assert len(passes) == cfg.iters + 1     # one pass per evaluated iterate
        else:
            assert np.all(tr.objectives == tr.objectives[0])   # stayed put throughout

    @pytest.mark.parametrize("spec, optimizer, step_size", [
        (models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=3), "adam", 0.1),
        (models.ModelSpec("logistic", 2), "sgd", 0.5),
        # plain SGD overflows: the trace truncates before its last step
        (LINEAR, "sgd", 1e4),
    ], ids=["mlp1-adam", "logistic-sgd", "linear-truncated"])
    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_leakage_rewalks_the_trajectory_for_any_originals_and_cap(self, spec, optimizer,
                                                                       step_size, m):
        theta, x, y, g_true = attack_instance(spec, seed=2, m=m)
        if step_size > 1.0:
            theta = 1e-3 * theta
            g_true = grad_params(spec, theta, x, y)
        cfg = attack.AttackConfig(iters=40, optimizer=optimizer, step_size=step_size,
                                  init="gaussian")
        for originals in (x, x + 0.25):
            for cap_d in (CAP_D, 0.7):
                with np.errstate(over="ignore"):
                    tr = invert_one(spec, theta, g_true, y, cfg, originals, cap_d, seed=2,
                                    keep_trajectory=True)
                assert tr.truncated == (step_size > 1.0)
                assert 1 <= tr.iters_run and len(tr.trajectory) == tr.iters_run + 1
                assert (attack.privacy_leakage(tr), attack.privacy_leakage_final(tr)) \
                    == rewalk_leakage(tr.trajectory, originals, cap_d)

    def test_label_count_mismatch(self):
        # three labels for one original
        with pytest.raises(ConfigurationError):
            invert_one(LINEAR, np.zeros(2), np.zeros(2), np.zeros(3),
                       attack.AttackConfig(iters=1), np.zeros((1, 2)), CAP_D)


def scaled_linear_row(seed, scale, m=3):
    """A linear-model upload (theta, x, y, g_obs, seed) with theta scaled down."""
    theta, x, y, _ = attack_instance(LINEAR, seed=seed, m=m)
    theta = scale * theta
    return theta, x, y, grad_params(LINEAR, theta, x, y), seed


def assert_kept_as_not_kept(spec, cfg, rows, x0=None):
    """Invert ``(theta, x, y, g_obs, seed)`` rows twice in lockstep, each
    against its x, keeping the trajectory once, at each of three D: every row
    ends and scores bit for bit alike, and the kept trajectory, walked
    test-side, scores what the loop summed. Returns the kept traces at the
    last D."""
    thetas, xs, ys, gs, seeds = map(np.stack, zip(*rows))
    for cap_d in (0.7, 1.3, CAP_D):
        args = (spec, thetas, gs, ys, cfg, seeds, xs, cap_d)
        with np.errstate(over="ignore", invalid="ignore"):
            kept = attack.invert_batch(*args, x0=x0, keep_trajectory=True)
            not_kept = attack.invert_batch(*args, x0=x0)
        for got, want, x in zip(not_kept, kept, xs):
            assert got.trajectory is None and len(want.trajectory) == want.iters_run + 1
            assert_same_trace(got, replace(want, trajectory=None))
            if got.iters_run:
                assert (attack.privacy_leakage(got), attack.privacy_leakage_final(got)) \
                    == rewalk_leakage(want.trajectory, x, cap_d)
    return kept


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
                                     seeds, np.stack(xs), CAP_D, x0=x0)
        m = len(ys[0])
        for b, got in enumerate(traces):
            row_x0 = None if x0 is None else x0[b]
            with np.errstate(over="ignore"):     # a truncating row overflows alone too
                one = invert_one(spec, thetas[b], gs[b], ys[b], cfg, xs[b], CAP_D,
                                 seed=seeds[b], x0=row_x0)
            assert_same_trace(got, one)
            assert_matches_two_pass(spec, thetas[b], gs[b], ys[b], xs[b], m, cfg, seeds[b],
                                    row_x0)
        assert_kept_as_not_kept(spec, cfg, rows, x0)
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
    @pytest.mark.parametrize("m", [1, 3])
    def test_keeping_the_trajectory_changes_nothing_else(self, spec, optimizer, step_size,
                                                         backtracking, m):
        rows = [(*attack_instance(spec, seed=s, m=m), s) for s in (3, 7, 11)]
        cfg = attack.AttackConfig(iters=30, optimizer=optimizer, step_size=step_size,
                                  init="gaussian", backtracking=backtracking)
        assert_kept_as_not_kept(spec, cfg, rows)

    def test_truncated_rows_freeze_while_the_others_run(self, monkeypatch):
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
        # a frozen row computes nothing more. Each row is scored at its init,
        # at its candidate of each step it runs (for a truncated row, up to
        # and including the one that overflowed, its last score), and once
        # more at each step where another row truncated while it ran on (the
        # stale re-score of the rows left). The candidates are scored
        # silently: no floating-point error escapes the loop, though two rows
        # overflow
        scored = []
        real = attack._score

        def recording(prep, x, g_obs):
            out = real(prep, x, g_obs)
            scored.append((prep.theta, np.array(out[0])))
            return out

        monkeypatch.setattr(attack, "_score", recording)
        _, errors = count_fp_errors(lambda: attack.invert_batch(
            LINEAR, np.stack([r[0] for r in rows]), np.stack([r[3] for r in rows]),
            np.stack([r[2] for r in rows]), cfg, [r[4] for r in rows],
            np.stack([r[1] for r in rows]), CAP_D))
        assert errors == 0
        cuts = [tr.iters_run + 1 for tr in traces if tr.truncated]
        for (theta, *_), tr in zip(rows, traces):
            mine = [f[(t == theta).all(axis=1)] for t, f in scored
                    if (t == theta).all(axis=1).any()]
            steps = tr.iters_run + tr.truncated
            assert len(mine) == 1 + steps + sum(cut <= tr.iters_run for cut in cuts)
            assert np.isfinite(mine[-1]).all() != tr.truncated

    @pytest.mark.parametrize("c, seeds, cuts", [
        (2, (0, 1, 6, 7), [None, 16, 4, 18]),
        (3, (3, 4, 5, 7), [None, 4, 12, None]),
    ], ids=["mlp1-c2", "mlp1-c3"])
    def test_mlp1_rows_truncating_mid_run_equal_their_one_row_runs(self, c, seeds, cuts):
        # Adam at step 1e307 carries some rows' iterates past the float range,
        # each at its own step, while the others run to the end: the rows left
        # run on the prepared pass's take of them
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=c)
        rows = [(*attack_instance(spec, seed=s), s) for s in seeds]
        cfg = attack.AttackConfig(iters=30, optimizer="adam", step_size=1e307, init="gaussian")
        with np.errstate(over="ignore", invalid="ignore"):
            traces = self.check_rows(spec, cfg, rows)
        assert [tr.iters_run if tr.truncated else None for tr in traces] == cuts

    @pytest.mark.parametrize("c", [2, 3])
    def test_mlp1_backtracking_rescores_some_rows_as_run_alone(self, c, monkeypatch):
        spec = models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=c)
        rows = [(*attack_instance(spec, seed=s), s) for s in (3, 7, 11, 13)]
        cfg = attack.AttackConfig(iters=30, optimizer="sgd", step_size=2.0, init="gaussian",
                                  backtracking=True)
        taken = []
        real = models.Prepared.take

        def recording(prep, which):
            part = real(prep, which)
            taken.append((len(prep.theta), len(part.theta)))
            return part

        monkeypatch.setattr(models.Prepared, "take", recording)
        traces = self.check_rows(spec, cfg, rows)
        assert not any(tr.truncated for tr in traces)
        # in the four-row batch, backtracking re-scored some rows but not all
        assert any(0 < n < 4 for live, n in taken if live == 4)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_a_row_overflowing_at_its_init_truncates_before_step_1(self, optimizer):
        # the middle row's wire is 1e200: its objective at the init is inf, so it
        # takes no step (and warns nowhere) while the rows around it run on
        rows = [(*attack_instance(LOGISTIC, seed=s), s) for s in (3, 7, 11)]
        theta, x, y, g, seed = rows[1]
        rows[1] = (theta, x, y, g + 1e200, seed)
        thetas, xs, ys, gs, seeds = zip(*rows)
        cfg = attack.AttackConfig(iters=20, optimizer=optimizer, step_size=0.1,
                                  init="gaussian")
        traces = attack.invert_batch(LOGISTIC, np.stack(thetas), np.stack(gs), np.stack(ys),
                                     cfg, seeds, np.stack(xs), CAP_D)
        bad = traces[1]
        assert (bad.iters_run, bad.truncated, bad.objectives.tolist()) == (0, True, [math.inf])
        for b in (0, 2):
            one = invert_one(LOGISTIC, thetas[b], gs[b], ys[b], cfg, xs[b], CAP_D,
                             seed=seeds[b])
            assert_same_trace(traces[b], one)
            assert one.iters_run == cfg.iters
        # a trace without iterates is a divergence when it truncated, else malformed
        with pytest.raises(NumericError, match="diverged at its first step"):
            attack.privacy_leakage(bad)
        kept = assert_kept_as_not_kept(LOGISTIC, cfg, rows)
        assert len(kept[1].trajectory) == 1
        with pytest.raises(NumericError, match="diverged at its first step"):
            attack.privacy_leakage(kept[1])
        with pytest.raises(ConfigurationError, match="no iterations"):
            attack.privacy_leakage(replace(bad, truncated=False))

    def test_mismatched_rows_rejected(self):
        theta, x, y, g = attack_instance(LINEAR, seed=1)
        cfg = attack.AttackConfig(iters=2)
        with pytest.raises(ConfigurationError):
            attack.invert_batch(LINEAR, theta[None], g[None], y[None], cfg, [0, 1], x[None],
                                CAP_D)
        with pytest.raises(ConfigurationError):
            attack.invert_batch(LINEAR, theta[None], g[None], y, cfg, [0], x[None], CAP_D)
        # one D for the batch: a list of them, 0, NaN or no number is rejected too
        for originals, cap_d in ((x, CAP_D), (x[None, :2], CAP_D), (x[None], [CAP_D]),
                                 (x[None], np.array([CAP_D])), (x[None], 0.0),
                                 (x[None], -1.0), (x[None], math.nan), (x[None], True),
                                 (x[None], "2.0")):
            with pytest.raises(ConfigurationError):
                attack.invert_batch(LINEAR, theta[None], g[None], y[None], cfg, [0],
                                    originals, cap_d)


def textbook_adam(x, grad, mom1, mom2, t, step):
    # the Adam update as the textbook lines write it, with fresh temporaries
    b1, b2, eps = 0.9, 0.999, 1e-8
    mom1 = b1 * mom1 + (1 - b1) * grad
    mom2 = b2 * mom2 + (1 - b2) * grad * grad
    mhat = mom1 / (1 - b1 ** t)
    vhat = mom2 / (1 - b2 ** t)
    return x - step * mhat / (np.sqrt(vhat) + eps), mom1, mom2


def reduce_clamped_distances(x, originals, cap_d):
    # the clamped distances through numpy's own sum over the last axis
    d = x - originals
    return np.minimum(np.sqrt(np.add.reduce(d * d, axis=-1)), cap_d) / cap_d


def score_residual(grads, g_obs):
    """``attack._score``'s residual v for the given per-example gradients."""
    with np.errstate(all="ignore"):
        return attack._score(lambda _: (grads, None), None, g_obs)[1]


# both sides of models._NARROW and of numpy's 8-element pairwise block
SHORT_AXES = [1, 2, 3, 4, 5, 6, 7, 8, 12]
LEADS = [(1,), (5,), (2, 3)]                   # B = 1, B = 5, two trial axes
# (decades, share of special values): finite draws show a summation order
SPREADS = [(1, 0.0), (1, 0.25), (300, 0.0), (300, 0.25)]


@pytest.mark.usefixtures("column_gate")
class TestStepKernels:
    """Each rewritten part of an inversion step gives the bits of the numpy
    expression it replaces, on either side of each threshold, with values
    over +-300 decades, signed zeros, infinities, NaN and subnormals."""

    @pytest.mark.parametrize("n", SHORT_AXES)
    def test_residual_equals_numpy_mean(self, n):
        # at n = 1 numpy sums 8 or more examples pairwise, not in order
        rng = np.random.default_rng([n, 1])
        for m, lead, (decades, share) in itertools.product([1, 3, 16], LEADS, SPREADS):
            grads = spread_values(rng, lead + (m, n), decades, share)
            g_obs = spread_values(rng, lead + (n,), decades, share)
            with np.errstate(all="ignore"):
                want = grads.mean(axis=-2) - g_obs
            assert_same_bits(score_residual(grads, g_obs), want)

    @pytest.mark.parametrize("n", SHORT_AXES)
    def test_a_column_of_negative_zeros_sums_to_positive_zero(self, n):
        # numpy's sum starts from +0.0, so -0.0 alone sums to +0.0; so does v
        for lead in [(), *LEADS]:
            grads = np.full(lead + (4, n), -0.0)
            v = score_residual(grads, np.zeros(lead + (n,)))
            assert_same_bits(v, np.zeros(lead + (n,)))
            assert_same_bits(v, grads.mean(axis=-2) - 0.0)

    @pytest.mark.parametrize("p", SHORT_AXES)
    def test_clamped_distances_equal_numpy_reduce(self, p):
        rng = np.random.default_rng([p, 2])
        for lead, (decades, share) in itertools.product([(), *LEADS], SPREADS):
            x, originals = (spread_values(rng, lead + (7, p), decades, share)
                            for _ in range(2))
            caps = [CAP_D, 1e-300, 1e300, np.inf]     # 1e300 clamps no finite sum
            if lead:
                caps.append(10.0 ** rng.uniform(0, 3, lead + (1,)))   # one D per row
            for cap_d in caps:
                with np.errstate(all="ignore"):
                    assert_same_bits(attack._clamped_distances(x, originals, cap_d),
                                     reduce_clamped_distances(x, originals, cap_d))

    @pytest.mark.parametrize("p", SHORT_AXES)
    def test_adam_step_equals_the_textbook_lines(self, p):
        rng = np.random.default_rng([p, 3])
        for lead, decades in itertools.product(LEADS, [1, 300]):
            shape = lead + (4, p)
            x = spread_values(rng, shape, decades)
            mom1, mom2 = np.zeros(shape), np.zeros(shape)
            want1, want2 = mom1.copy(), mom2.copy()
            for t, step, share in [(1, 0.15, 0.0), (2, 0.15, 0.25), (3, 1e-300, 0.0),
                                   (250, 12.0, 0.25)]:
                grad = spread_values(rng, shape, decades, share)
                with np.errstate(all="ignore"):
                    got = attack._adam_step(x, grad, mom1, mom2, t, step)
                    want, want1, want2 = textbook_adam(x, grad, want1, want2, t, step)
                assert_same_bits(got, want)
                assert_same_bits(mom1, want1)
                assert_same_bits(mom2, want2)
                x = np.where(np.isfinite(got), got, x)    # keep later steps informative


def test_column_gate_stays_inside_numpys_pairwise_block():
    # a wider column-by-column distance sum would change its bits
    assert 2 <= models._NARROW <= PAIRWISE_BLOCK


def stationary_trace(point, originals, cap_d, iters=2):
    """A one-sample linear inversion started at ``point`` that observes the
    point's own gradient: the objective and its gradient are 0 there, so every
    iterate is ``point``, scored against ``originals`` at ``cap_d``."""
    theta, y = np.array([0.3, -0.2]), np.array([1.0])
    g_obs = grad_params(LINEAR, theta, point, y)
    cfg = attack.AttackConfig(iters=iters, optimizer="sgd", step_size=0.1)
    tr = invert_one(LINEAR, theta, g_obs, y, cfg, originals, cap_d, x0=point,
                    keep_trajectory=True)
    assert np.all(tr.trajectory == point) and tr.iters_run == iters
    return tr


class TestPrivacyLeakage:
    def test_exact_recovery_gives_one(self):
        x = np.array([[0.3, 0.4]])
        tr = stationary_trace(x.copy(), x, CAP_D, iters=3)
        assert attack.privacy_leakage(tr) == 1.0

    def test_distance_cap_gives_zero(self):
        x = np.array([[0.0, 0.0]])
        far = np.array([[CAP_D, 0.0]])
        tr = stationary_trace(far, x, CAP_D)
        assert attack.privacy_leakage(tr) == 0.0

    def test_half_distance_gives_half(self):
        x = np.array([[0.0, 0.0]])
        mid = np.array([[CAP_D / 2, 0.0]])
        tr = stationary_trace(mid, x, CAP_D)
        assert attack.privacy_leakage(tr) == 0.5

    def test_clamped_into_unit_interval(self):
        x = np.array([[0.0, 0.0]])
        vfar = np.array([[100.0, 0.0]])
        tr = stationary_trace(vfar, x, CAP_D, iters=1)
        assert attack.privacy_leakage(tr) == 0.0
        assert 0.0 <= attack.privacy_leakage_final(tr) <= 1.0

    def test_distance_that_squares_to_inf_clamps_without_a_warning(self):
        # ||x - x'||^2 = 1e320 overflows; the distance is clamped at D, at
        # every accepted iterate and at the final one
        x = np.array([[1e160, 0.0]])
        tr = stationary_trace(np.array([[0.0, 0.0]]), x, CAP_D)
        assert attack.privacy_leakage(tr) == attack.privacy_leakage_final(tr) == 0.0

    def test_bad_cap_rejected(self):
        x = np.array([[0.0, 0.0]])
        with pytest.raises(ConfigurationError):
            stationary_trace(x, x, 0.0)

    @pytest.mark.parametrize("shape", ["columns", "rows", "transposed"])
    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "not-kept"])
    def test_wrongly_shaped_originals_rejected(self, shape, keep):
        # an (m, 2) inversion must not broadcast against (m, 1), (m - 1, 2) or
        # (2, m) originals
        theta, x, y, g = attack_instance(LINEAR, seed=1)
        bad = {"columns": x[:, :1], "rows": x[:2], "transposed": x.T}[shape]
        with pytest.raises(ConfigurationError):
            invert_one(LINEAR, theta, g, y, attack.AttackConfig(iters=2), bad, CAP_D,
                       keep_trajectory=keep)

    def test_t1_matches_hand_recomputation(self):
        theta, x, y = single_sample_instance(8)
        g_true = grad_params(LINEAR, theta, x[None, :], y)
        cfg = attack.AttackConfig(iters=1, optimizer="adam", step_size=0.05)
        tr = invert_one(LINEAR, theta, g_true, y, cfg, x[None, :], CAP_D, seed=8,
                        keep_trajectory=True)
        x1 = tr.trajectory[1]
        expected = 1.0 - min(np.linalg.norm(x1[0] - x), CAP_D) / CAP_D
        assert attack.privacy_leakage(tr) == pytest.approx(expected)


def separable_dataset(seed=3, m=40):
    spec = datagen.DatasetSpec(num_clients=1, per_client_size=m, input_dim=2,
                               num_classes=2, class_separation=6.0, diameter_cap=4.0)
    (ds,), = datagen.generate_batch(spec, [seed])
    return ds


class TestPhase2:
    def test_training_accuracy_on_originals(self):
        # locked from a 20-seed pilot: min accuracy 0.975
        ds = separable_dataset()
        theta = attack.train_phase2(ds, LOGISTIC, epochs=400, lr=0.5, seed=0)
        assert attack.risk(LOGISTIC, theta, ds.x, ds.y) <= 0.05

    def test_zero_epochs_is_initialization(self):
        ds = separable_dataset()
        theta = attack.train_phase2(ds, LOGISTIC, epochs=0, lr=0.5, seed=4)
        init = models.init_params(LOGISTIC, rngmod.stream(4, rngmod.STREAM_INIT), 0.1)
        assert np.array_equal(theta, init)

    def test_deterministic(self):
        ds = separable_dataset()
        theta1 = attack.train_phase2(ds, LOGISTIC, epochs=100, lr=0.5, seed=2)
        theta2 = attack.train_phase2(ds, LOGISTIC, epochs=100, lr=0.5, seed=2)
        assert np.array_equal(theta1, theta2)

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, models.ModelSpec("logistic", 2, num_classes=3),
                                      models.ModelSpec("mlp1", 2, hidden_dim=4, num_classes=3)],
                             ids=lambda s: f"{s.kind}{s.num_classes}")
    def test_equals_the_grad_params_loop(self, spec):
        ds = separable_dataset(m=12)
        theta = models.init_params(spec, rngmod.stream(5, rngmod.STREAM_INIT), 0.1)
        for _ in range(60):
            theta = theta - 0.3 * grad_params(spec, theta, ds.x, ds.y)
        assert_same_bits(attack.train_phase2(ds, spec, epochs=60, lr=0.3, seed=5), theta)

    def test_overflowing_scores_train_without_warning(self):
        # theta . x overflows from the second epoch on, but the sigmoid keeps
        # every gradient finite; the suite turns the warning into an error
        ds = separable_dataset()
        huge = datagen.ClientDataset(0, 1e160 * ds.x, ds.y[::-1].copy())   # not separable
        assert np.all(np.isfinite(attack.train_phase2(huge, LOGISTIC, epochs=20)))

    @pytest.mark.parametrize("spec, scale, lr, message", [
        (LINEAR, 1e160, 0.5, "non-finite parameter gradient"),    # r * x overflows
        (LOGISTIC, 100.0, 1e308, "non-finite model"),             # lr * g overflows
    ], ids=["gradient", "model"])
    def test_divergence_is_a_numeric_error(self, spec, scale, lr, message):
        ds = separable_dataset()
        rows = datagen.ClientDataset(0, scale * ds.x, ds.y[::-1].copy())
        with pytest.raises(NumericError, match=f"^phase-2 training diverged: {message}$"):
            attack.train_phase2(rows, spec, lr=lr)

    def test_risk_constant_classifier_balanced(self):
        theta = np.array([0.0, 0.0])       # predicts class 1 always
        x = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        assert attack.risk(LOGISTIC, theta, x, y) == 0.5

    def test_risk_zero_when_no_disagreement(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        assert attack.risk(LOGISTIC, np.array([1.0, 0.0]), x, y) == 0.0


class TestAdvRisk:
    def setup_method(self):
        self.ds = separable_dataset(seed=5)
        theta = attack.train_phase2(self.ds, LOGISTIC, epochs=400, lr=0.5, seed=0)
        self.scored = (LOGISTIC, theta, self.ds.x, self.ds.y)   # the classifier and its test set

    def test_zero_budget_equals_risk_exactly(self):
        r = attack.risk(*self.scored)
        ar = attack.adv_risk(*self.scored, 0.0, seed=1)
        assert ar == r

    def test_monotone_in_n_probe(self):
        vals = [attack.adv_risk(*self.scored, 1.0, n_probe=n, seed=2)
                for n in (4, 16, 64)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_monotone_in_budget_for_halfspace(self):
        vals = [attack.adv_risk(*self.scored, b, n_probe=32, seed=3)
                for b in (0.0, 0.5, 1.5, 4.0)]
        assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))

    def test_diameter_budget_approaches_one(self):
        big = datagen._diameters(self.ds.x[None])[0] + 1.0
        ar = attack.adv_risk(*self.scored, big, n_probe=400, seed=4)
        assert ar >= 0.95

    def test_dominates_risk(self):
        r = attack.risk(*self.scored)
        ar = attack.adv_risk(*self.scored, 0.3, seed=5)
        assert ar >= r

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            attack.adv_risk(*self.scored, -0.1)

    @pytest.mark.parametrize("budget, message", [
        (math.nan, "budget must be finite and >= 0"),
        (math.inf, "budget must be finite and >= 0"),
        # finite, but its probes overflow the classifier's scores
        (1e308, "overflows the classifier's scores"),
    ])
    def test_non_finite_or_overflowing_budget_rejected(self, budget, message):
        with pytest.raises(ConfigurationError, match=message):
            attack.adv_risk(*self.scored, budget)


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

    @pytest.mark.parametrize("delta_up", [1e154, 1e300, math.inf])
    def test_overflowing_distortion_is_infinite(self, delta_up):
        # (c_a delta_up)^2 past the largest float once raised OverflowError,
        # a traceback from attack --phase2
        assert attack.log2_sample_lower_bound(0.5, 0.75, 2.0, delta_up) == math.inf
        assert attack.sample_lower_bound(0.5, 0.75, 2.0, delta_up) == math.inf

    def test_not_pac_condition_examples(self):
        assert attack.not_pac_condition(5.0, 10, 0.9) is True       # ln 100 ~ 4.605
        assert attack.not_pac_condition(0.0, 10, 0.5) is False
        assert attack.not_pac_condition(0.1, 1, 1e-9) is True       # threshold -> 0

    def test_phase2_report_assembles(self):
        ds = separable_dataset(seed=6, m=20)
        rep = attack.phase2_report(ds, ds.x, ds.y, LOGISTIC, budget=0.5, pac_eps=0.1,
                                   pac_delta=0.9, c_a=1.0, delta_up=1.0, m_prot=20, seed=1)
        assert 0.0 <= rep.risk <= rep.adv_risk <= 1.0
        assert rep.sample_lower_bound == pytest.approx(
            min(0.8, 0.9) * 2.0 ** 1.0)
        assert rep.constants_estimated

    def test_cli_phase2_without_constants_reports_nan(self, monkeypatch, tmp_path):
        run_dir, out = str(tmp_path / "run"), str(tmp_path / "atk")
        assert cli.main(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                         "--samples", "6", "--rounds", "2", "--out", run_dir]) == 0
        monkeypatch.setattr(datagen, "estimate_constants_batch", lambda spec, probes, *_: [
            EstimationError("no usable pair") for _ in probes])
        assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--iters", "10",
                         "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9"]) == 0
        with open(os.path.join(out, "phase2.json")) as fh:
            rep = json.load(fh)
        assert math.isnan(rep["sample_lower_bound"])
        assert math.isnan(rep["log2_sample_lower_bound"])
        assert rep["constants_estimated"] is False
