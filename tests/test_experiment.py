import math
import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from conftest import fresh_sampler, invert_one, records
from fedtradeoff import attack, bounds, cli, datagen, experiment, models, protocol, verify
from fedtradeoff import rng as rngmod
from fedtradeoff.errors import ConfigurationError, EstimationError, NumericError


def simulate(config, *seeds):
    """``simulate_batch`` of ``config``'s trials at ``seeds``, each under the
    config's own mechanism."""
    return experiment.simulate_batch(config, list(seeds), [config.mechanism] * len(seeds))


def observe(config, seed):
    """A trial's ``Observed``, simulated as a batch of one."""
    return experiment._observed(config, simulate(config, seed))[0]


def run_one(config, seed, score=None, **kw):
    """``run_trials`` of the one trial of ``config`` at ``seed`` under the
    config's own mechanism, scored by ``score_trials`` unless ``score`` is given."""
    return experiment.run_trials(config, [(seed, config.mechanism, {})],
                                 score or experiment.score_trials, **kw)


def base_config(**kw):
    cfg = dict(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=8, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
        fl=protocol.FLRunConfig(rounds=1, learning_rate=0.2),
        mechanism=experiment.MechanismSpec(kind="randomization", sigma=0.3),
        attack=attack.AttackConfig(iters=40, optimizer="adam", step_size=0.1,
                                   init="gaussian"),
        master_seed=3, n_eval=200, num_pairs=80, quantile=0.1,
    )
    cfg.update(kw)
    return experiment.ExperimentConfig(**cfg)


class TestConfigRoundtrip:
    def test_to_from_dict(self):
        cfg = base_config()
        again = experiment.ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_bad_dict_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.ExperimentConfig.from_dict({"dataset": {}})

    def test_unknown_top_level_keys_ignored(self):
        cfg = base_config(attack_round=1, gamma=0.2)
        # rho and big_l: fields of earlier versions, still in old config files
        for extra in ({"comment": "ignored", "schema": 7}, {"rho": 0.5, "big_l": 2.0}):
            d = {**cfg.to_dict(), **extra}
            assert experiment.ExperimentConfig.from_dict(d) == cfg


class TestOverflowIsWarningClean:
    """Overflows the pipeline records as inf raise no RuntimeWarning, which the
    suite's filter would turn into an error."""

    def test_huge_sigma_records_infinite_distortion(self):
        cfg = base_config(mechanism=experiment.MechanismSpec(kind="randomization",
                                                             sigma=1e200))
        seed = rngmod.trial_seed(3, 0, 0)
        (_, result), = simulate(cfg, seed)
        assert result.record(0).delta_up_grad == [math.inf]
        # the attack objective overflows at its init, so the trial cannot be scored
        with pytest.raises(NumericError, match="attack diverged at its first step"):
            run_one(cfg, seed)

    def test_huge_final_model_records_infinite_halfwidth(self):
        # learning rate 40 on a linear model: the final model is huge but finite
        cfg = base_config(model=models.ModelSpec(kind="linear", input_dim=2),
                          fl=protocol.FLRunConfig(rounds=250, learning_rate=40.0))
        row, = run_one(cfg, rngmod.trial_seed(3, 0, 0))
        assert math.isfinite(row.eps_u) and row.eps_u > 1e180
        assert row.eps_u_halfwidth == math.inf


class TestRunTrial:
    def test_row_fields_sane(self):
        row, = run_one(base_config(), 5)
        assert 0.0 <= row.eps_p <= 1.0
        assert 0.0 <= row.eps_p_final <= 1.0
        assert row.eps_u >= 0.0
        assert row.eps_e == 8
        assert row.delta_up_grad > 0.0
        assert row.utility_lambda > 0.0

    def test_reproducible(self):
        a, = run_one(base_config(), 5)
        b, = run_one(base_config(), 5)
        assert a == b

    def test_single_sample_degrades_to_nan_bounds(self):
        cfg = base_config(dataset=datagen.DatasetSpec(
            num_clients=1, per_client_size=1, input_dim=2, num_classes=2,
            class_separation=2.0, diameter_cap=2.0, seed=0))
        row, = run_one(cfg, 9)
        assert 0.0 <= row.eps_p <= 1.0
        assert np.isnan(row.privacy_rhs) and not row.privacy_precond_ok
        assert not row.privacy_holds and not row.utility_holds

    def test_diverged_run_is_numeric_error(self):
        cfg = base_config(model=models.ModelSpec(kind="linear", input_dim=2),
                          fl=protocol.FLRunConfig(rounds=80, learning_rate=1e8))
        with pytest.raises(NumericError, match="run aborted"):
            run_one(cfg, 1)

    def test_holds_implies_precondition(self):
        for seed in range(6):
            row, = run_one(base_config(), seed)
            if row.privacy_holds:
                assert row.privacy_precond_ok


class TestSimulate:
    def test_seed_overrides_spec_seeds(self):
        cfg = base_config(fl=protocol.FLRunConfig(rounds=2, learning_rate=0.2),
                          mechanism=experiment.MechanismSpec("randomization", 0.3))

        def run(ds_seed, fl_seed):
            (datasets, result), = simulate(
                replace(cfg, dataset=replace(cfg.dataset, seed=ds_seed),
                        fl=replace(cfg.fl, seed=fl_seed)), 5)
            return ([(d.x.tolist(), d.y.tolist()) for d in datasets],
                    result.theta_final_decoded.tolist(),
                    result.theta_final_shadow.tolist())

        assert run(0, 0) == run(11, 12)
        (_, other), = simulate(cfg, 6)
        assert run(0, 0)[1] != other.theta_final_decoded.tolist()

    def test_diverged_run_raises(self):
        cfg = base_config(model=models.ModelSpec(kind="linear", input_dim=2),
                          fl=protocol.FLRunConfig(rounds=80, learning_rate=1e8))
        with pytest.raises(NumericError, match="run aborted"):
            simulate(replace(cfg, mechanism=experiment.MechanismSpec()), 1)


def stacked_config(model, mechanism, clients, schedule, sigma=None):
    """A two-round config of the lockstep tests; ``sigma`` overrides the
    mechanism's."""
    if sigma is not None:
        mechanism = replace(mechanism, sigma=sigma)
    return base_config(
        dataset=datagen.DatasetSpec(num_clients=clients, per_client_size=5, input_dim=3,
                                    num_classes=model.num_classes, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=model, mechanism=mechanism,
        fl=protocol.FLRunConfig(rounds=2, learning_rate=0.3, lr_schedule=schedule))


def assert_same_simulation(got, want):
    """Two ``simulate_batch`` rows bit for bit: data, every round record, final models."""
    (got_ds, got_run), (want_ds, want_run) = got, want
    for a, b in zip(got_ds, want_ds, strict=True):
        assert (a.client_id, a.x.tobytes(), a.y.tobytes(), a.centers.tobytes()) == (
            b.client_id, b.x.tobytes(), b.y.tobytes(), b.centers.tobytes())
    for a, b in zip(records(got_run), records(want_run), strict=True):
        for f in ("round_index", "eta", "delta_up_grad", "delta_up_param", "delta_two_grad",
                  "delta_two_param", "shadow_gap"):
            assert repr(getattr(a, f)) == repr(getattr(b, f)), f
        for f in ("theta_decoded", "grads", "wires", "theta_next_protected",
                  "theta_next_decoded"):
            assert getattr(a, f).tobytes() == getattr(b, f).tobytes(), f
    for f in ("theta_final_decoded", "theta_final_shadow", "theta_final_protected"):
        assert getattr(got_run, f).tobytes() == getattr(want_run, f).tobytes(), f


STACKED_MODELS = [models.ModelSpec("linear", 3), models.ModelSpec("logistic", 3),
                  models.ModelSpec("logistic", 3, num_classes=3),
                  models.ModelSpec("mlp1", 3, hidden_dim=4, num_classes=3)]
STACKED_MECHS = {
    "none": experiment.MechanismSpec(),
    "rand": experiment.MechanismSpec("randomization", 0.3),
    "shared": experiment.MechanismSpec("randomization", 0.3, shared_noise=True),
    "exact-norm": experiment.MechanismSpec("randomization", 0.3, exact_norm=0.7),
    "he": experiment.MechanismSpec("he_codec", offset_scale=0.5),
}


class TestSimulateBatch:
    """A lockstep block's stacked simulation gives each trial its run as a batch of
    one."""

    @pytest.mark.parametrize("schedule", ["constant", "inv_sqrt"])
    @pytest.mark.parametrize("clients", [1, 3])
    @pytest.mark.parametrize("mech_name", list(STACKED_MECHS))
    @pytest.mark.parametrize("model", STACKED_MODELS, ids=lambda m: f"{m.kind}{m.num_classes}")
    def test_each_trial_equals_its_one_trial_run(self, model, mech_name, clients, schedule):
        config = stacked_config(model, STACKED_MECHS[mech_name], clients, schedule)
        # seven trials: enough streams to take the batched seeding
        seeds = [rngmod.trial_seed(3, 0, i) for i in range(7)]
        got = simulate(config, *seeds)
        for sim, seed in zip(got, seeds, strict=True):
            assert_same_simulation(sim, simulate(config, seed)[0])

    @pytest.mark.parametrize("mech_name", ["rand", "shared", "exact-norm"])
    def test_mixed_sigmas_in_one_block(self, mech_name):
        # the sigma sweep's trials differ in sigma (and the delta_up sweep's in
        # exact_norm) yet share one block
        config = stacked_config(models.ModelSpec("logistic", 3), STACKED_MECHS[mech_name], 3,
                                "constant")
        mechs = [replace(config.mechanism, sigma=sigma)
                 for sigma in (0.0, 0.05, 0.3, 2.0, 0.0, 1.0)]
        if mech_name == "exact-norm":
            mechs = [replace(mech, exact_norm=0.2 * i) for i, mech in enumerate(mechs)]
        seeds = [rngmod.trial_seed(3, 0, i) for i in range(len(mechs))]
        assert len(experiment._lockstep_blocks(
            config, [(seed, mech, {}) for seed, mech in zip(seeds, mechs)], (0,))) == 1
        for sim, seed, mech in zip(experiment.simulate_batch(config, seeds, mechs), seeds, mechs,
                                   strict=True):
            assert_same_simulation(sim, simulate(replace(config, mechanism=mech), seed)[0])

    def test_trials_of_another_shape_are_refused(self):
        config = base_config()
        with pytest.raises(ConfigurationError, match="one mechanism kind"):
            experiment.simulate_batch(config, [1, 2],
                                      [config.mechanism, experiment.MechanismSpec()])

    def test_diverging_trial_mid_block_raises_the_serial_message(self):
        # the middle trial's sigma overflows its first update at this seed (as
        # in the sweep test above); its neighbours run in the same block
        config = base_config()
        seeds = [rngmod.trial_seed(3, 1, i) for i in range(3)]
        mechs = [experiment.MechanismSpec("randomization", sigma) for sigma in (0.3, 1e308, 0.3)]
        trials = [(seed, mech, {}) for seed, mech in zip(seeds, mechs)]
        assert len(experiment._lockstep_blocks(config, trials, (0,))) == 1
        with pytest.raises(NumericError) as serial:
            experiment.simulate_batch(config, seeds[1:2], mechs[1:2])
        with pytest.raises(NumericError) as stacked:
            experiment.simulate_batch(config, seeds, mechs)
        with pytest.raises(NumericError) as blocked:
            experiment.run_trials(config, trials, experiment.score_trials)
        assert str(stacked.value) == str(blocked.value) == str(serial.value) == (
            "run aborted: non-finite update at round 0")


class TestSweep:
    def test_m_axis_rhs_column_decreases(self):
        rows, summary = experiment.run_sweep(base_config(), "m", [8, 16, 32, 64],
                                             trials=8)
        med = summary["median_privacy_rhs"]
        assert all(med[i + 1] < med[i] for i in range(len(med) - 1))

    def test_delta_up_axis_sets_exact_norms(self):
        rows, _ = experiment.run_sweep(base_config(), "delta_up", [0.2, 0.8],
                                       trials=3)
        for row in rows:
            assert row.delta_up_grad == pytest.approx(row.sweep_value, rel=1e-12)

    def test_row_order_fixed_and_appending_trials_stable(self):
        rows_small, _ = experiment.run_sweep(base_config(), "sigma", [0.0, 0.3],
                                             trials=2)
        rows_big, _ = experiment.run_sweep(base_config(), "sigma", [0.0, 0.3],
                                           trials=3)
        # first trials are bit-identical: trial seeds are addressed, not enumerated
        by_key_small = {(r.sweep_value, r.trial_index): r for r in rows_small}
        by_key_big = {(r.sweep_value, r.trial_index): r for r in rows_big}
        for key, row in by_key_small.items():
            assert by_key_big[key] == row
        assert [(r.sweep_value, r.trial_index) for r in rows_small] == \
            [(0.0, 0), (0.0, 1), (0.3, 0), (0.3, 1)]

    @pytest.mark.parametrize("axis", ["m", "T"])
    @pytest.mark.parametrize("value", [1.5, float("nan"), float("inf")])
    def test_non_whole_count_rejected_before_any_trial(self, monkeypatch, axis, value):
        seen = []
        monkeypatch.setattr(experiment, "simulate_batch", lambda *args: seen.append(args))
        with pytest.raises(ConfigurationError, match="must be whole numbers"):
            experiment.run_sweep(base_config(), axis, [4, value], trials=1)
        assert seen == []

    def test_whole_float_count_is_an_int(self):
        config = experiment._config_for_sweep_value(base_config(), "m", 4.0)
        assert config.dataset.per_client_size == 4
        assert type(config.dataset.per_client_size) is int
        config = experiment._config_for_sweep_value(base_config(), "T", 7.0)
        assert type(config.attack.iters) is int and config.attack.iters == 7

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.run_sweep(base_config(), "lr", [0.1, 0.2], trials=2)

    @pytest.mark.parametrize("values, eps_p", [([0.0, 0.0], [0.2, 0.5, 0.1, 0.9]),
                                               ([0.0, 0.3], [0.4] * 4)],
                             ids=["constant-axis", "constant-eps-p"])
    def test_constant_input_gives_nan_correlation(self, values, eps_p):
        # scipy's answer, without the ConstantInputWarning that the suite's
        # filter would raise
        blank = experiment.TrialRow(*[0.0] * len(experiment.TrialRow.FIELDS))
        rows = [replace(blank, sweep_value=values[i // 2], eps_p=e)
                for i, e in enumerate(eps_p)]
        summary = experiment.summarize_sweep("sigma", values, rows)
        assert math.isnan(summary["spearman_rho"]) and math.isnan(summary["spearman_p"])

    def test_too_few_values_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.run_sweep(base_config(), "sigma", [0.1], trials=2)

    @pytest.mark.parametrize("axis, values", [
        ("sigma", [0.1, 0.1]), ("sigma", [-0.0, 0.0]), ("m", [4, 8, 4.0]), ("T", [3, 3]),
        ("delta_up", [0.5, 0.2, 0.5])], ids=["sigma", "sigma-signed-zero", "m", "T", "delta_up"])
    def test_repeated_value_rejected_before_any_trial(self, monkeypatch, axis, values):
        # a repeated value's points share their sweep_value and trial indices,
        # so its summary medians would pool both points' rows
        seen = []
        monkeypatch.setattr(experiment, "simulate_batch", lambda *args: seen.append(args))
        with pytest.raises(ConfigurationError, match="axis values must differ as floats"):
            experiment.run_sweep(base_config(), axis, values, trials=2)
        assert seen == []


# a trial of lockstep_config holds, for each upload, 8 x m x (8 p + d)
# = 8 x 4 x (8 x 2 + 2) bytes, the inversion's 8 (m, p) arrays and its
# per-example gradients; and what the runner keeps of it: its stacked run's
# 8 d (n k m + rounds ((n + 2) k + 4)) = 8 x 2 x (2 x 4 + 8 rounds) bytes (n = 2
# gradient sets under randomization) and its Observed's
# 8 x (k m (p + 1) + (k + 3) d) = 160 bytes. The constants estimator bounds its
# own rows, so they are not charged.
UPLOAD = 576


def kept(rounds=1):
    return 16 * (8 + 8 * rounds) + 160


def lockstep_config(rounds=1, iters=10):
    return base_config(dataset=datagen.DatasetSpec(num_clients=1, per_client_size=4,
                                                   input_dim=2, num_classes=2,
                                                   class_separation=2.0, diameter_cap=2.0,
                                                   seed=0),
                       fl=protocol.FLRunConfig(rounds=rounds, learning_rate=0.2),
                       attack=attack.AttackConfig(iters=iters), num_pairs=30)


def planned(config, inverted=(0,), n=5):
    """The seeds of each block ``_lockstep_blocks`` plans for n trials of
    ``config`` at seeds 0..n-1."""
    return [[seed for seed, _, _ in block] for block in experiment._lockstep_blocks(
        config, [(i, config.mechanism, {}) for i in range(n)], inverted)]


class TestLockstepBlocks:
    @pytest.mark.parametrize("budget, uploads, rounds, want", [
        (1, 1, 1, [[0], [1], [2], [3], [4]]),
        (2 * (UPLOAD + kept()), 1, 1, [[0, 1], [2, 3], [4]]),
        (3 * (UPLOAD + kept()) - 1, 1, 1, [[0, 1], [2, 3], [4]]),
        # each trial is charged its stacked run: three one-round trials fit,
        # two three-round ones
        (3 * (UPLOAD + kept()), 1, 3, [[0, 1], [2, 3], [4]]),
        (1 << 20, 1, 1, [[0, 1, 2, 3, 4]]),
        # and each upload it inverts
        (3 * (2 * UPLOAD + kept()) - 1, 2, 1, [[0, 1], [2, 3], [4]]),
        # trials without uploads are charged what the runner keeps of them
        (5 * kept(), 0, 1, [[0, 1, 2, 3, 4]]),
    ], ids=["one-byte", "two-trials", "two-trials-and-a-byte-short-of-three",
            "own-stacked-run", "default-budget", "two-uploads", "no-uploads"])
    def test_consecutive_slices_within_the_budget(self, monkeypatch, budget, uploads, rounds,
                                                  want):
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", budget)
        assert planned(lockstep_config(rounds), tuple(range(uploads))) == want

    def test_plan_does_not_grow_with_the_iterations(self, monkeypatch):
        # no trajectory is stored, so a 1000-step inversion costs a 10-step one's bytes
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", 2 * (UPLOAD + kept()))
        assert [planned(lockstep_config(iters=iters)) for iters in (10, 1000)] == [
            [[0, 1], [2, 3], [4]]] * 2

    def test_one_gradient_set_a_round_without_noise(self, monkeypatch):
        # the shadow takes its own gradient set only under randomization: without
        # noise a trial holds 8 d k m = 64 bytes less, and 8 d k = 16 less a round
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", 2 * (UPLOAD + kept() - 80))
        config = lockstep_config()
        assert planned(config) == [[0], [1], [2], [3], [4]]
        assert planned(replace(config, mechanism=experiment.MechanismSpec())) == [
            [0, 1], [2, 3], [4]]


MLP1_SWEEP = ["--model", "mlp1", "--hidden", "8", "--input-dim", "2", "--samples", "4",
              "--rounds", "1", "--iters", "5", "--step-size", "0.1"]


class TestBlockPlans:
    """Each sweep axis and a 150-trial verify simulate the blocks they did when
    a block was the consecutive trials of one shape that fit the budget."""

    @pytest.mark.parametrize("budget, argv, sizes", [
        # scripts/artifact_digests.py's 150-trial sigma sweep, at 5 steps an inversion
        (1 << 20, ["sweep", "--axis", "sigma", "--values", "0,0.05,0.1,0.2,0.5",
                   "--trials", "30", *MLP1_SWEEP], [79, 71]),
        # an m or T sweep cuts at each value; an m value's trials cost their own bytes
        (6000, ["sweep", "--axis", "m", "--values", "4,8,16", "--trials", "5", "--iters", "5",
                "--rounds", "1"], [3, 2, 2, 2, 1, 1, 1, 1, 1, 1]),
        (12000, ["sweep", "--axis", "T", "--values", "5,10", "--trials", "5", "--rounds", "1"],
         [2, 2, 1, 2, 2, 1]),
        # a delta_up sweep's blocks, like a sigma sweep's, run across its values
        (20000, ["sweep", "--axis", "delta_up", "--values", "0.5,2", "--trials", "5",
                 "--iters", "5", "--rounds", "1"], [3, 3, 3, 1]),
        (1 << 20, ["verify", "--bound", "privacy", "--trials", "150", "--iters", "5",
                   "--samples", "8"], [150]),
        (100000, ["verify", "--bound", "utility", "--trials", "150", "--samples", "8"],
         [111, 39]),
    ], ids=["sigma-mlp1", "m", "T", "delta-up", "verify-privacy", "verify-utility"])
    def test_simulated_seeds_per_block(self, monkeypatch, tmp_path, budget, argv, sizes):
        calls = []
        real = experiment.simulate_batch

        def recording(config, seeds, mechs):
            calls.append(list(seeds))
            return real(config, seeds, mechs)

        monkeypatch.setattr(experiment, "simulate_batch", recording)
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", budget)
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 0
        if argv[0] == "sweep":
            seeds = [seed for si in range(len(argv[4].split(","))) for seed in
                     rngmod.trial_seeds(cli.default_config().master_seed, si, int(argv[6]))]
        else:
            seeds = rngmod.trial_seeds(0, 0, 150)
        ends = np.cumsum([0] + sizes)
        assert calls == [seeds[a:b] for a, b in zip(ends[:-1], ends[1:])]


class TestLockstepSweep:
    """Sweeps invert equal-shape trials in lockstep; each row stays that of its
    trial run alone."""

    @pytest.mark.parametrize("axis, values", [("sigma", [0.0, 0.3]), ("m", [4, 8]),
                                              ("T", [10, 25])])
    def test_rows_equal_per_trial_runs(self, axis, values):
        config = base_config()
        rows, _ = experiment.run_sweep(config, axis, values, trials=3)
        want = []
        for si, v in enumerate(values):
            value_config = experiment._config_for_sweep_value(config, axis, v)
            want += [experiment.run_trials(value_config, [(
                rngmod.trial_seed(config.master_seed, si, ti), value_config.mechanism,
                dict(sweep_axis=axis, sweep_value=float(v), trial_index=ti,
                     experiment_id=config.experiment_id()))], experiment.score_trials)[0]
                for ti in range(3)]
        # repr is NaN-aware, so equal reprs mean equal cells
        assert [repr(r.as_list()) for r in rows] == [repr(r.as_list()) for r in want]

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    def test_divergence_inside_a_block_raises_at_the_first_failing_seed(
            self, monkeypatch, one_row_blocks):
        # sigma = 1e308 makes every trial of the second value abort in round 0,
        # after the first value's trials ran in the same block
        config = base_config()
        if one_row_blocks:
            monkeypatch.setattr(datagen, "_BLOCK_BYTES", 1)
        assert len(planned(config, n=6)) == (6 if one_row_blocks else 1)
        calls = []
        real = experiment.simulate_batch

        def recording(config, seeds, mechs):
            calls.append(list(seeds))
            return real(config, seeds, mechs)

        monkeypatch.setattr(experiment, "simulate_batch", recording)
        with pytest.raises(NumericError, match="run aborted: non-finite update at round 0"):
            experiment.run_sweep(config, "sigma", [0.3, 1e308], trials=3)
        seeds = [rngmod.trial_seed(config.master_seed, si, ti)
                 for si in range(2) for ti in range(3)]
        # the block's stacked run fails; then its trials run alone, and no
        # trial after the first failing one is simulated
        assert calls == ([] if one_row_blocks else [seeds]) + [[s] for s in seeds[:4]]

    @pytest.mark.parametrize("stage", ["invert", "score"])
    def test_an_earlier_seed_failing_later_in_the_pipeline_raises_first(
            self, monkeypatch, stage):
        # trial (0, 1) fails when inverted or scored, trial (1, 0) when
        # simulated; a serial run meets trial (0, 1)'s error first
        config = base_config()
        early = rngmod.trial_seed(config.master_seed, 0, 1)
        invert, score = attack.invert_batch, experiment.score_trials

        def failing_invert(spec, theta, g_obs, labels, cfg, seeds, *args, **kw):
            if early in seeds:
                raise ConfigurationError("invert failed")
            return invert(spec, theta, g_obs, labels, cfg, seeds, *args, **kw)

        def failing_score(config, block, *args):
            if early in [seed for seed, _, _ in block]:
                raise ConfigurationError("score failed")
            return score(config, block, *args)

        if stage == "invert":
            monkeypatch.setattr(attack, "invert_batch", failing_invert)
        else:
            monkeypatch.setattr(experiment, "score_trials", failing_score)
        with pytest.raises(ConfigurationError, match=f"{stage} failed"):
            experiment.run_sweep(config, "sigma", [0.3, 1e308, 0.5], trials=3)


    def test_a_block_that_fails_only_in_lockstep_raises(self, monkeypatch):
        invert = attack.invert_batch

        def failing_invert(spec, theta, g_obs, labels, cfg, seeds, *args, **kw):
            if len(seeds) > 1:
                raise ConfigurationError("lockstep failed")
            return invert(spec, theta, g_obs, labels, cfg, seeds, *args, **kw)

        monkeypatch.setattr(attack, "invert_batch", failing_invert)
        with pytest.raises(ConfigurationError, match="lockstep failed"):
            experiment.run_sweep(base_config(), "sigma", [0.0, 0.3], trials=2)


def three_client_config():
    return base_config(dataset=datagen.DatasetSpec(
        num_clients=3, per_client_size=8, input_dim=2, num_classes=2,
        class_separation=2.0, diameter_cap=2.0, seed=0))


class TestRunTrialsInverter:
    """run_trials inverts exactly the uploads ``inverted`` lists, each as its own
    one-upload inversion would, its leakage summed against that client's data."""

    def test_listed_uploads_inverted_in_order_with_seed_plus_j(self):
        config = three_client_config()
        seen = []

        def score(config, block, observed, traces, ests):
            seen.extend(zip([seed for seed, _, _ in block], observed, traces))
            return [seed for seed, _, _ in block]

        seeds = [11, 12]
        assert experiment.run_trials(config, [(s, config.mechanism, {}) for s in seeds], score,
                                     inverted=(2, 0)) == seeds
        for seed, observed, traces in seen:
            assert len(traces) == 2
            for j, (k, got) in enumerate(zip((2, 0), traces)):
                want = invert_one(
                    config.model, observed.theta_round, observed.wires[k],
                    observed.datasets[k].y, config.attack, observed.datasets[k].x,
                    config.dataset.diameter_cap, seed=seed + j)
                assert got.trajectory is None
                assert np.array_equal(got.objectives, want.objectives)
                assert np.array_equal(got.final_x, want.final_x)
                assert np.array_equal(got.sums, want.sums)
                assert np.array_equal(got.final, want.final)

    def test_no_listed_upload_inverts_nothing(self, monkeypatch):
        def no_invert(*args, **kw):
            raise AssertionError("an upload was inverted")

        monkeypatch.setattr(attack, "invert_batch", no_invert)
        config = three_client_config()
        got = experiment.run_trials(config, [(s, config.mechanism, {}) for s in (1, 2)],
                                    lambda config, block, seen, traces, ests:
                                    [len(t) for t in traces], inverted=())
        assert got == [0, 0]


class TestBoundSides:
    """The privacy and utility sides score_trials and verify share."""

    @staticmethod
    def observed_and_trace(config, seed):
        observed = observe(config, seed)
        k = config.attack_client
        trace = invert_one(
            config.model, observed.theta_round, observed.wires[k], observed.datasets[k].y,
            config.attack, observed.datasets[k].x, config.dataset.diameter_cap, seed=seed)
        return observed, trace

    def test_verify_outcome_is_the_shared_one(self):
        assert verify.TrialOutcome is experiment.TrialOutcome

    def test_privacy_without_estimate_is_nan_and_fails_precondition(self):
        config = base_config()
        observed, trace = self.observed_and_trace(config, 5)
        got, = experiment.privacy_outcomes(config, [(5, config.mechanism, {})], [observed],
                                           [[trace]], [None])
        assert got.measured == attack.privacy_leakage(trace)
        assert got.extras["delta_up"] == observed.delta_up_grad[0] > 0.0
        assert np.isnan(got.rhs) and not got.precondition_ok
        for key in ("threshold", "c_a", "c_b", "c_2", "pair_skip_rate"):
            assert np.isnan(got.extras[key]), key

    def test_privacy_scores_trials_in_order_up_to_an_estimate_error(self, monkeypatch):
        # trial 0's leakage is scored; trial 1's error is raised before its leakage
        config = base_config()
        observed, trace = self.observed_and_trace(config, 5)
        scored = []
        real = attack.privacy_leakage
        monkeypatch.setattr(attack, "privacy_leakage", lambda t: scored.append(t) or real(t))
        with pytest.raises(NumericError, match="estimate failed"):
            experiment.privacy_outcomes(config, [(5, config.mechanism, {})] * 3, [observed] * 3,
                                        [[trace]] * 3,
                                        [None, NumericError("estimate failed"), None])
        assert len(scored) == 1

    def test_utility_with_nan_c_keeps_the_measured_loss(self):
        config = base_config()
        observed, _ = self.observed_and_trace(config, 5)
        (got, half), = experiment.utility_outcomes(config, [(5, config.mechanism, {})],
                                                   [observed], [None])
        row, = run_one(config, 5)
        # the loss and its halfwidth do not depend on C
        assert (got.measured, half) == (row.eps_u, row.eps_u_halfwidth)
        assert got.extras["delta_two"] == float(
            np.linalg.norm(observed.theta_decoded - observed.theta_shadow))
        assert got.extras["big_m"] == row.big_m
        assert np.isnan(got.rhs) and np.isnan(got.extras["lambda"])
        assert not got.precondition_ok

    def test_an_estimate_error_is_raised_in_each_sides_order(self, monkeypatch):
        # privacy raises it before scoring the leakage; utility after the loss
        # and the ||delta|| checks
        config = base_config()
        observed, trace = self.observed_and_trace(config, 5)
        failed = NumericError("estimate failed")
        with monkeypatch.context() as patch:
            patch.setattr(attack, "privacy_leakage", lambda *a: pytest.fail("leakage scored"))
            with pytest.raises(NumericError, match="estimate failed"):
                experiment.privacy_outcomes(config, [(5, config.mechanism, {})], [observed],
                                            [[trace]], [failed])
        with pytest.raises(NumericError, match="estimate failed"):
            experiment.utility_outcomes(config, [(5, config.mechanism, {})], [observed],
                                        [failed])
        # a logistic loss stays finite at 1e160, ||delta||^2 does not
        decoded = observed.theta_shadow + 1e160
        diverged = observed._replace(theta_decoded=decoded, two_way=experiment.two_way_distortion(
            decoded, observed.theta_shadow))
        with pytest.raises(NumericError, match="non-finite two-way distortion"):
            experiment.utility_outcomes(config, [(5, config.mechanism, {})], [diverged], [failed])

        def no_loss(*args):
            raise ConfigurationError("loss failed")

        monkeypatch.setattr(protocol, "measure_utility_loss", no_loss)
        with pytest.raises(ConfigurationError, match="loss failed"):
            experiment.utility_outcomes(config, [(5, config.mechanism, {})], [observed],
                                        [failed])


def reference_utility(config, seed, observed, est):
    """One trial's utility side from its parts, as each trial was scored before
    a block's trials were stacked: its own fresh sampler, loss Monte Carlo, M
    and one-row lambda search."""
    target = observed.datasets[config.attack_client]
    theta = observed.theta_shadow
    delta = observed.theta_decoded - theta
    xs, ys = fresh_sampler(config.dataset, seed, target.centers)(config.n_eval)
    eps_u, half = map(float, protocol.measure_utility_loss(
        config.model, theta, delta, target.x, target.y, xs, ys))
    delta_two = float(np.linalg.norm(observed.theta_decoded - observed.theta_shadow))
    if not math.isfinite(delta_two):
        raise NumericError("non-finite two-way distortion")
    est = datagen.constants_of(est)
    c = math.nan if est is None else est.big_c
    big_m = float(experiment.exact_big_m(config.model, theta, delta, target.x, target.y))
    cap_d = config.dataset.diameter_cap
    lam, rhs = (math.nan, math.nan) if math.isnan(c) else map(
        float, bounds.minimize_utility_lambda(c, delta_two, big_m, config.model.param_dim,
                                              cap_d, config.eta, target.size))
    return experiment.TrialOutcome(
        measured=eps_u, rhs=rhs, precondition_ok=lam > delta_two,
        extras={"lambda": lam, "delta_two": delta_two, "big_c": c, "big_m": big_m,
                "cap_d": cap_d}), half


class TestStackedUtilitySide:
    """``utility_outcomes`` takes a block's utility sides stacked: each row is
    its trial's own utility side, bit for bit."""

    @staticmethod
    def block(model, n=5, **kw):
        """A config, n observed trials of it, their sigma varying, and their
        estimates."""
        dataset = replace(base_config().dataset, num_classes=model.num_classes)
        config = base_config(model=model, dataset=dataset, **kw)
        block = [(rngmod.trial_seed(4, 0, i),
                  experiment.MechanismSpec("randomization", 0.1 + 0.2 * (i % 4)), {})
                 for i in range(n)]
        seen = experiment._observed(config, experiment.simulate_batch(
            config, [seed for seed, _, _ in block], [mech for _, mech, _ in block]))
        ests = datagen.estimate_constants_batch(model, [
            experiment.trial_probe(seed, o, []) for (seed, _, _), o in zip(block, seen)],
            config.num_pairs, config.quantile)
        return config, block, seen, ests

    @staticmethod
    def assert_rows_equal_reference(config, block, seen, ests):
        got = experiment.utility_outcomes(config, block, seen, ests)
        want = [reference_utility(config, seed, o, est)
                for (seed, _, _), o, est in zip(block, seen, ests)]
        assert repr(got) == repr(want)          # NaN-aware
        return got

    @pytest.mark.parametrize("model", [
        models.ModelSpec("linear", 2), models.ModelSpec("logistic", 2),
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("mlp1", 2, hidden_dim=4)], ids=lambda m: f"{m.kind}-c{m.num_classes}")
    def test_rows_equal_their_trials_alone(self, model):
        config, block, seen, ests = self.block(model)
        assert all(isinstance(est, datagen.ConstantsEstimate) for est in ests)
        # a NaN C (no estimate) in mid-block: NaN lambda and rhs, the loss kept
        ests[2] = None
        got = self.assert_rows_equal_reference(config, block, seen, ests)
        assert math.isnan(got[2][0].rhs) and not math.isnan(got[2][0].measured)
        assert all(math.isfinite(out.rhs) for i, (out, _) in enumerate(got) if i != 2)

    @pytest.mark.parametrize("eta", [0.05, 1.0])
    def test_rows_at_the_configs_eta(self, eta):
        # eta = 1 drops the confidence term from the bound's M term
        config, block, seen, ests = self.block(models.ModelSpec("logistic", 2), n=3, eta=eta)
        got = self.assert_rows_equal_reference(config, block, seen, ests)
        assert all(math.isfinite(out.rhs) for out, _ in got)

    def test_datasets_without_centers_take_them_at_the_trial_seed(self):
        # as a dataset read from a run directory, whose mixture centers are unknown
        config, block, seen, ests = self.block(models.ModelSpec("logistic", 2), n=3)
        seen = [o._replace(datasets=[replace(ds, centers=None) for ds in o.datasets])
                for o in seen]
        want = self.block(models.ModelSpec("logistic", 2), n=3)
        assert repr(experiment.utility_outcomes(*want)) == repr(
            self.assert_rows_equal_reference(config, block, seen, ests))

    def test_a_block_that_spans_chunks(self, monkeypatch):
        config, block, seen, ests = self.block(models.ModelSpec("mlp1", 2, hidden_dim=4), n=7)
        spans = []
        real = datagen._chunks

        def recording(count, item_bytes):
            spans.append(list(real(count, item_bytes)))
            return spans[-1]

        # room for three trials a chunk: chunks of 3, 3 and 1
        monkeypatch.setattr(datagen, "_chunks", recording)
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", 3 * 8 * (200 + 8) * (2 + 2 + 3 * (4 + 2)))
        self.assert_rows_equal_reference(config, block, seen, ests)
        assert [(s.start, s.stop) for s in spans[-1]] == [(0, 3), (3, 6), (6, 9)]

    def test_an_estimation_error_row_raises_it(self):
        # verify's utility bound raises a row's estimation error (score_trials
        # gives that row NaN columns), once the losses are taken
        config, block, seen, ests = self.block(models.ModelSpec("logistic", 2), n=3)
        ests[1] = EstimationError("all sampled pairs had identical gradients")
        with pytest.raises(EstimationError, match="identical gradients"):
            experiment.utility_outcomes(config, block, seen, ests)
        rows = experiment.score_trials(
            config, block, seen, [[invert_one(
                config.model, o.theta_round, o.wires[0], o.datasets[0].y, config.attack,
                o.datasets[0].x, config.dataset.diameter_cap, seed=seed)]
                for (seed, _, _), o in zip(block, seen)],
            ests)
        want = [reference_utility(config, seed, o, None if i == 1 else est)
                for i, ((seed, _, _), o, est) in enumerate(zip(block, seen, ests))]
        assert repr([(r.eps_u, r.eps_u_halfwidth, r.utility_rhs, r.utility_lambda, r.big_c,
                      r.big_m) for r in rows]) == repr([
            (u.measured, half, u.rhs, u.extras["lambda"], u.extras["big_c"], u.extras["big_m"])
            for u, half in want])
        assert math.isnan(rows[1].utility_rhs) and not math.isnan(rows[0].utility_rhs)

    def test_an_infinite_distortion_mid_block_raises_the_serial_error(self):
        # sigma 1e160 keeps every logistic loss finite, but ||delta||^2 overflows
        config = base_config(mechanism=experiment.MechanismSpec("randomization", 0.3))
        trials = [(rngmod.trial_seed(5, 0, i), experiment.MechanismSpec("randomization", sigma),
                   {}) for i, sigma in enumerate((0.3, 1e160, 0.3))]
        assert len(experiment._lockstep_blocks(config, trials, ())) == 1
        with pytest.raises(NumericError) as serial:
            experiment.run_trials(config, trials[1:2], verify._utility_outcomes, inverted=())
        assert experiment.run_trials(config, trials[::2], verify._utility_outcomes,
                                     inverted=())
        with pytest.raises(NumericError) as blocked:
            experiment.run_trials(config, trials, verify._utility_outcomes, inverted=())
        assert str(blocked.value) == str(serial.value) == "non-finite two-way distortion"


class TestOneProbe:
    """Every bound reads its constants from the one estimate at trial_probe."""

    def test_verify_sides_read_run_trials_constants(self):
        # one round: the privacy and utility bounds run one config
        scenario = verify.VerifyScenario(
            dataset=datagen.DatasetSpec(num_clients=2, per_client_size=8, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
            attack=attack.AttackConfig(iters=40, optimizer="adam", step_size=0.1),
            sigma=0.3, fl_rounds=1, n_eval=200, num_pairs=80, quantile=0.1)
        config = scenario.experiment_config("privacy")
        assert config == scenario.experiment_config("utility")
        row, = run_one(config, 7)
        privacy, = verify.trial_outcomes("privacy", scenario, [7])
        utility, = verify.trial_outcomes("utility", scenario, [7])
        assert (row.c_a, row.c_b, row.privacy_rhs) == (
            privacy.extras["c_a"], privacy.extras["c_b"], privacy.rhs)
        assert (row.big_c, row.utility_rhs) == (utility.extras["big_c"], utility.rhs)

    @pytest.mark.parametrize("delta_two, budget", [
        (0.0, 1.0), (0.25, 1.0), (0.5, 1.0), (0.75, 1.5), (3.0, 6.0),
        # an overflowing ||delta||, which the utility side raises on
        (math.inf, 1.0)])
    def test_move_budget_is_twice_the_distortion_at_least_one(self, delta_two, budget):
        config = base_config()
        d = config.model.param_dim
        shadow, decoded = np.zeros(d), np.r_[delta_two, np.zeros(d - 1)]
        observed = observe(config, 5)._replace(
            theta_shadow=shadow, theta_decoded=decoded,
            two_way=experiment.two_way_distortion(decoded, shadow))
        assert experiment.trial_probe(5, observed, []) == datagen.Probe(
            observed.theta_round, observed.datasets, delta_budget=budget, seed=5)


class TestSerialTrials:
    """Trials run serially: FEDTRADEOFF_THREADS, which earlier versions read,
    neither changes a result nor starts a thread."""

    def test_threads_variable_has_no_effect(self, monkeypatch):
        scenario = verify.VerifyScenario(
            dataset=datagen.DatasetSpec(num_clients=1, per_client_size=4, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
            attack=attack.AttackConfig(iters=10, optimizer="adam", step_size=0.1),
            sigma=0.2, fl_rounds=1, n_eval=100, num_pairs=30, quantile=0.1)

        def results():
            # repr is NaN-aware, so equal reprs mean equal results
            return repr((experiment.run_sweep(base_config(), "sigma", [0.0, 0.3], 2),
                         verify.verify_bound("utility-he", scenario, 100).to_dict()))

        def no_start(thread):
            raise AssertionError("a trial loop started a thread")

        monkeypatch.delenv("FEDTRADEOFF_THREADS", raising=False)
        expected = results()
        monkeypatch.setenv("FEDTRADEOFF_THREADS", "4")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        assert results() == expected
