import numpy as np
import pytest

from fedtradeoff import attack, datagen, experiment, models, protocol
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


class TestParallelMap:
    class RecordingPool:
        """Stands in for ThreadPoolExecutor: records the worker count and maps
        in the calling thread, so no thread is started."""
        sizes: list = []

        def __init__(self, max_workers):
            self.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    @pytest.mark.parametrize("threads, cpus, n_jobs, workers", [
        ("8", 2, 5, 2),         # capped by the CPU count
        ("8", 16, 3, 3),        # capped by the job count
        ("3", 16, 5, 3),        # the env var when it is the smallest
        ("1", 16, 5, None),     # serial: no pool
        ("8", 1, 5, None),      # one CPU: no pool
        ("8", None, 5, None),   # CPU count unknown: no pool
    ])
    def test_worker_count_capped(self, monkeypatch, threads, cpus, n_jobs, workers):
        monkeypatch.setattr(self.RecordingPool, "sizes", [])
        monkeypatch.setattr(experiment, "ThreadPoolExecutor", self.RecordingPool)
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv(experiment.THREADS_ENV, threads)
        jobs = list(range(n_jobs))
        assert experiment.parallel_map(lambda j: j * j, jobs) == [j * j for j in jobs]
        assert self.RecordingPool.sizes == ([] if workers is None else [workers])

    def test_threads_keep_job_order(self, monkeypatch):
        monkeypatch.setenv(experiment.THREADS_ENV, "2")
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
        jobs = list(range(6))
        assert experiment.parallel_map(str, jobs) == [str(j) for j in jobs]
