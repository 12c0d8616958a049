import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from fedtradeoff import attack, datagen, experiment, models, protocol, verify
from fedtradeoff import rng as rngmod
from fedtradeoff.errors import ConfigurationError, NumericError


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


class TestRunTrial:
    def test_row_fields_sane(self):
        row = experiment.run_trial(base_config(), trial_seed=5)
        assert 0.0 <= row.eps_p <= 1.0
        assert 0.0 <= row.eps_p_final <= 1.0
        assert row.eps_u >= 0.0
        assert row.eps_e == 8
        assert row.delta_up_grad > 0.0
        assert row.utility_lambda > 0.0

    def test_reproducible(self):
        a = experiment.run_trial(base_config(), trial_seed=5)
        b = experiment.run_trial(base_config(), trial_seed=5)
        assert a == b

    def test_single_sample_degrades_to_nan_bounds(self):
        cfg = base_config(dataset=datagen.DatasetSpec(
            num_clients=1, per_client_size=1, input_dim=2, num_classes=2,
            class_separation=2.0, diameter_cap=2.0, seed=0))
        row = experiment.run_trial(cfg, trial_seed=9)
        assert 0.0 <= row.eps_p <= 1.0
        assert np.isnan(row.privacy_rhs) and not row.privacy_precond_ok
        assert not row.privacy_holds and not row.utility_holds

    def test_diverged_run_is_numeric_error(self):
        cfg = base_config(model=models.ModelSpec(kind="linear", input_dim=2),
                          fl=protocol.FLRunConfig(rounds=80, learning_rate=1e8))
        with pytest.raises(NumericError, match="run aborted"):
            experiment.run_trial(cfg, trial_seed=1)

    def test_holds_implies_precondition(self):
        for seed in range(6):
            row = experiment.run_trial(base_config(), trial_seed=seed)
            if row.privacy_holds:
                assert row.privacy_precond_ok


class TestSimulate:
    def test_seed_overrides_spec_seeds(self):
        cfg = base_config(fl=protocol.FLRunConfig(rounds=2, learning_rate=0.2))
        mech = protocol.randomization(0.3)

        def run(ds_seed, fl_seed):
            datasets, result = experiment.simulate(
                cfg.model, replace(cfg.dataset, seed=ds_seed),
                replace(cfg.fl, seed=fl_seed), mech, seed=5)
            return ([(d.x.tolist(), d.y.tolist()) for d in datasets],
                    result.theta_final_decoded.tolist(),
                    result.theta_final_shadow.tolist())

        assert run(0, 0) == run(11, 12)
        assert run(0, 0)[1] != experiment.simulate(
            cfg.model, cfg.dataset, cfg.fl, mech, seed=6)[1].theta_final_decoded.tolist()

    def test_diverged_run_raises(self):
        cfg = base_config(model=models.ModelSpec(kind="linear", input_dim=2),
                          fl=protocol.FLRunConfig(rounds=80, learning_rate=1e8))
        with pytest.raises(NumericError, match="run aborted"):
            experiment.simulate(cfg.model, cfg.dataset, cfg.fl,
                                protocol.no_protection(), seed=1)


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

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.run_sweep(base_config(), "lr", [0.1, 0.2], trials=2)

    def test_too_few_values_rejected(self):
        with pytest.raises(ConfigurationError):
            experiment.run_sweep(base_config(), "sigma", [0.1], trials=2)


class TestLockstepSweep:
    """Sweeps invert equal-shape trials in lockstep; rows stay those of run_trial."""

    @pytest.mark.parametrize("axis, values", [("sigma", [0.0, 0.3]), ("m", [4, 8]),
                                              ("T", [10, 25])])
    def test_rows_equal_per_trial_runs(self, axis, values):
        config = base_config()
        rows, _ = experiment.run_sweep(config, axis, values, trials=3)
        want = [experiment.run_trial(
                    experiment._config_for_sweep_value(config, axis, v),
                    rngmod.trial_seed(config.master_seed, si, ti), sweep_axis=axis,
                    sweep_value=float(v), trial_index=ti, experiment_id=config.experiment_id())
                for si, v in enumerate(values) for ti in range(3)]
        # repr is NaN-aware, so equal reprs mean equal cells
        assert [repr(r.as_list()) for r in rows] == [repr(r.as_list()) for r in want]

    @pytest.mark.parametrize("one_row_blocks", [False, True])
    def test_divergence_inside_a_block_raises_at_the_first_failing_seed(
            self, monkeypatch, one_row_blocks):
        # sigma = inf makes every trial of the second value abort in round 0,
        # after the first value's trials ran in the same block
        config = base_config()
        if one_row_blocks:
            monkeypatch.setattr(attack, "_BLOCK_BUDGET", 1)
        assert len(experiment._lockstep_blocks(
            [(config, 0, {})] * 6)) == (6 if one_row_blocks else 1)
        seen = []
        real = experiment.simulate

        def recording(model, dataset, fl, mech, seed):
            seen.append(seed)
            return real(model, dataset, fl, mech, seed)

        monkeypatch.setattr(experiment, "simulate", recording)
        with pytest.raises(NumericError, match="run aborted: non-finite update at round 0"):
            experiment.run_sweep(config, "sigma", [0.3, float("inf")], trials=3)
        # no trial after the first failing one is simulated
        assert seen[-1] == rngmod.trial_seed(config.master_seed, 1, 0)
        assert set(seen) == {rngmod.trial_seed(config.master_seed, si, ti)
                             for si, ti in ((0, 0), (0, 1), (0, 2), (1, 0))}

    @pytest.mark.parametrize("stage", ["invert", "score"])
    def test_an_earlier_seed_failing_later_in_the_pipeline_raises_first(
            self, monkeypatch, stage):
        # trial (0, 1) fails when inverted or scored, trial (1, 0) when
        # simulated; a serial run meets trial (0, 1)'s error first
        config = base_config()
        early = rngmod.trial_seed(config.master_seed, 0, 1)
        invert, score = attack.invert_batch, experiment.score_trial

        def failing_invert(spec, theta, g_obs, labels, cfg, seeds, x0=None):
            if early in seeds:
                raise ConfigurationError("invert failed")
            return invert(spec, theta, g_obs, labels, cfg, seeds, x0)

        def failing_score(config, seed, *args, **kw):
            if seed == early:
                raise ConfigurationError("score failed")
            return score(config, seed, *args, **kw)

        if stage == "invert":
            monkeypatch.setattr(attack, "invert_batch", failing_invert)
        else:
            monkeypatch.setattr(experiment, "score_trial", failing_score)
        with pytest.raises(ConfigurationError, match=f"{stage} failed"):
            experiment.run_sweep(config, "sigma", [0.3, float("inf"), 0.5], trials=3)


    def test_a_block_that_fails_only_in_lockstep_raises(self, monkeypatch):
        invert = attack.invert_batch

        def failing_invert(spec, theta, g_obs, labels, cfg, seeds, x0=None):
            if len(seeds) > 1:
                raise ConfigurationError("lockstep failed")
            return invert(spec, theta, g_obs, labels, cfg, seeds, x0)

        monkeypatch.setattr(attack, "invert_batch", failing_invert)
        with pytest.raises(ConfigurationError, match="lockstep failed"):
            experiment.run_sweep(base_config(), "sigma", [0.0, 0.3], trials=2)


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
