
import numpy as np
import pytest

from conftest import fresh_sampler, grad_params, invert_one, protect_rows
from fedtradeoff import attack, bounds, datagen, experiment, models, protocol, verify
from fedtradeoff import rng as rngmod
from fedtradeoff.errors import ConfigurationError, NumericError


def tiny_scenario(**kw):
    base = dict(
        dataset=datagen.DatasetSpec(num_clients=1, per_client_size=4, input_dim=2,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
        attack=attack.AttackConfig(iters=10, optimizer="adam", step_size=0.1,
                                   init="gaussian"),
        sigma=0.0, gamma=0.1, eta=0.1, fl_rounds=1, n_eval=100, num_pairs=30,
        quantile=0.1,
    )
    base.update(kw)
    return verify.VerifyScenario(**base)


def hand_built_privacy_trial(scenario, trial_seed):
    """Oracle: the privacy pipeline with client 0's round-0 upload rebuilt by
    hand (data, init, gradient, protection on its stream), outside the protocol.
    The constants pool every client's data; C's move budget enters no privacy
    extra, so the default stands."""
    ds_spec = scenario.dataset
    datasets, = datagen.generate_batch(ds_spec, [trial_seed])
    ds = datasets[0]
    theta = models.init_params(scenario.model, rngmod.stream(trial_seed, rngmod.STREAM_INIT))
    g = grad_params(scenario.model, theta, ds.x, ds.y)
    z = rngmod.stream(trial_seed, rngmod.STREAM_PROTECT, 0, 1).standard_normal((1, 1, g.shape[0]))
    ((wire,),), ((delta_up,),) = protect_rows(
        g[None, None], [protocol.MechanismSpec("randomization", scenario.sigma)], z)
    trace = invert_one(scenario.model, theta, wire, ds.y, scenario.attack, ds.x,
                       ds_spec.diameter_cap, seed=trial_seed)
    eps_p = attack.privacy_leakage(trace)
    row, = datagen.estimate_constants_batch(scenario.model, [datagen.Probe(
        theta, datasets, attack_objectives=trace.objectives[1:], seed=trial_seed)],
        scenario.num_pairs, scenario.quantile)
    est = datagen.constants_of(row)
    threshold = bounds.privacy_precondition_threshold(
        est.c_2, est.c_b, est.c_a, scenario.attack.iters)
    rhs = bounds.privacy_upper_bound(scenario.gamma, ds.size, est.c_a,
                                     ds_spec.diameter_cap, delta_up)
    return verify.TrialOutcome(measured=eps_p, rhs=rhs,
                               precondition_ok=bool(delta_up >= threshold),
                               extras={"delta_up": delta_up, "threshold": threshold,
                                       "c_a": est.c_a, "c_b": est.c_b, "c_2": est.c_2,
                                       "pair_skip_rate": est.meta["skip_rate"]})


class TestPrivacyTrialFromSimulate:
    @pytest.mark.parametrize("clients", [1, 3])
    @pytest.mark.parametrize("seed", [5, 2024])
    def test_equals_hand_built_round_zero(self, clients, seed):
        sc = tiny_scenario(
            dataset=datagen.DatasetSpec(num_clients=clients, per_client_size=6, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            sigma=0.4, fl_rounds=3, learning_rate=0.3)
        got = verify.trial_outcomes("privacy", sc, [seed])[0]
        want = hand_built_privacy_trial(sc, seed)
        assert got.extras["delta_up"] > 0.0
        assert repr(got) == repr(want)


def hand_built_utility_trial(scenario, trial_seed, mech):
    """Oracle: the utility pipeline on a protocol run whose data, mechanism and
    run config are built here, with M computed here from its definition and C
    estimated at the round-0 model, without attack objectives."""
    ds_spec = scenario.dataset
    datasets, = datagen.generate_batch(ds_spec, [trial_seed])
    fl = protocol.FLRunConfig(rounds=scenario.fl_rounds, learning_rate=scenario.learning_rate)
    result, = protocol.run_batch(scenario.model, fl, [mech], [datasets], [trial_seed])
    target = datasets[0]
    theta = result.theta_final_shadow
    delta_model = result.theta_final_decoded - theta
    delta_two = float(np.linalg.norm(delta_model))
    eps_u, _ = map(float, protocol.measure_utility_loss(
        scenario.model, theta, delta_model, target.x, target.y,
        *fresh_sampler(ds_spec, trial_seed, target.centers)(scenario.n_eval)))
    theta0 = models.init_params(scenario.model, rngmod.stream(trial_seed, rngmod.STREAM_INIT))
    row, = datagen.estimate_constants_batch(scenario.model, [datagen.Probe(
        theta0, datasets, delta_budget=max(1.0, 2.0 * delta_two), seed=trial_seed)],
        scenario.num_pairs, scenario.quantile)
    est = datagen.constants_of(row)
    losses = models.per_example_losses(scenario.model, theta + delta_model, target.x, target.y)
    big_m = max(float(np.max(np.abs(losses))), 1e-12)
    lam, rhs = map(float, bounds.minimize_utility_lambda(
        est.big_c, delta_two, big_m, scenario.model.param_dim, ds_spec.diameter_cap,
        scenario.eta, target.size))
    return verify.TrialOutcome(measured=eps_u, rhs=rhs, precondition_ok=lam > delta_two,
                               extras={"lambda": lam, "delta_two": delta_two,
                                       "big_c": est.big_c, "big_m": big_m,
                                       "cap_d": ds_spec.diameter_cap})


class TestUtilityTrialFromSimulate:
    @pytest.mark.parametrize("bound", ["utility", "utility-he"])
    @pytest.mark.parametrize("clients", [1, 2])
    @pytest.mark.parametrize("seed", [5, 2024])
    def test_equals_hand_built_run(self, bound, clients, seed):
        sc = tiny_scenario(
            dataset=datagen.DatasetSpec(num_clients=clients, per_client_size=6, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            sigma=0.4, fl_rounds=3, learning_rate=0.3, offset_scale=0.5)
        if bound == "utility":
            mech = protocol.MechanismSpec("randomization", sc.sigma)
        else:
            mech = protocol.MechanismSpec("he_codec", offset_scale=sc.offset_scale)
        got, = verify.trial_outcomes(bound, sc, [seed])
        want = hand_built_utility_trial(sc, seed, mech)
        assert (got.extras["delta_two"] > 0.0) == (bound == "utility")
        assert repr(got) == repr(want)


    def test_one_class_centers_qr_per_trial(self, monkeypatch):
        # the fresh sampler reuses the centers its trial's data was drawn with,
        # and the block's trials share one stacked QR
        seen = []
        real = datagen._class_centers_batch

        def counting(spec, gens):
            gens = list(gens)
            seen.append(len(gens))
            return real(spec, gens)

        monkeypatch.setattr(datagen, "_class_centers_batch", counting)
        verify.trial_outcomes("utility", tiny_scenario(sigma=0.4, fl_rounds=2), [5, 6, 7])
        assert seen == [3]


def record_block_rows(monkeypatch):
    """The row count of every lockstep inversion from here on."""
    rows = []
    real = attack.invert_batch

    def recording(spec, theta, *args, **kw):
        rows.append(len(theta))
        return real(spec, theta, *args, **kw)
    monkeypatch.setattr(attack, "invert_batch", recording)
    return rows


class TestLockstepBlocks:
    """Inverting trials in lockstep blocks of any size changes no report."""

    @pytest.mark.parametrize("bound, clients, budget, want_rows", [
        ("privacy", 1, 1, [1] * 100),
        # a trial's inverted upload of 8 x 4 x (8 x 2 + 2) bytes, its stacked
        # run's 8 x 2 x (2 x 4 + 1 x (4 x 1 + 4)) and its Observed's 160
        ("privacy", 1, 75 * (576 + 256 + 160), [75, 25]),
        # a trial's 3 uploads of 8 x 4 x (8 x 2 + 2) bytes each: over the budget,
        # yet never split over blocks
        ("tradeoff-general", 3, 2 * 576, [3] * 100),
    ])
    def test_report_independent_of_block_size(self, monkeypatch, bound, clients, budget,
                                               want_rows):
        sc = tiny_scenario(
            dataset=datagen.DatasetSpec(num_clients=clients, per_client_size=4, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            sigma=0.4, gamma=0.02)
        rows = record_block_rows(monkeypatch)
        default = verify.verify_bound(bound, sc, 100).to_dict()
        assert rows == ([100] if bound == "privacy" else [300])
        rows.clear()
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", budget)
        assert verify.verify_bound(bound, sc, 100).to_dict() == default
        assert rows == want_rows

    @pytest.mark.parametrize("bound, scenario", [
        # the privacy-verify and utility-verify benchmark scenarios
        ("privacy", dict(dataset=datagen.DatasetSpec(num_clients=1, per_client_size=16,
                                                     input_dim=2),
                         attack=attack.AttackConfig(iters=250, optimizer="adam",
                                                    step_size=0.15, init="gaussian"),
                         sigma=0.6, num_pairs=150, quantile=0.1)),
        ("utility", dict(dataset=datagen.DatasetSpec(num_clients=1, per_client_size=32,
                                                     input_dim=2),
                         attack=attack.AttackConfig(iters=20, optimizer="adam",
                                                    step_size=0.05),
                         sigma=0.3, fl_rounds=3, learning_rate=0.2, n_eval=400,
                         num_pairs=120, quantile=0.05)),
    ], ids=["privacy-verify", "utility-verify"])
    def test_benchmark_scenarios_run_as_one_block(self, bound, scenario):
        # the constants estimator bounds its own rows, so 100 trials' stacked
        # runs, uploads and Observed fit one block of the 1 MiB budget
        config = tiny_scenario(**scenario).experiment_config(bound)
        inverted = (config.attack_client,) if bound == "privacy" else ()
        assert datagen._BLOCK_BYTES == 1 << 20
        blocks = experiment._lockstep_blocks(
            config, [(i, config.mechanism, {}) for i in range(100)], inverted)
        assert [len(block) for block in blocks] == [100]

    def test_first_failing_seed_raises_whatever_stage_it_fails_in(self, monkeypatch):
        # seed 2 fails when scored, seed 5 when simulated; all share one block,
        # and a serial run meets seed 2's error first
        sc = tiny_scenario(sigma=0.4)
        seeds = [rngmod.trial_seed(0, 0, i) for i in range(100)]
        estimate, simulate = datagen.estimate_constants_batch, experiment.simulate_batch

        def failing_estimate(spec, probes, num_pairs, quantile):
            # seed 2's row fails, and only that row
            return [NumericError("estimate failed at seed 2") if probe.seed == seeds[2]
                    else row
                    for probe, row in zip(probes, estimate(spec, probes, num_pairs, quantile))]

        def failing_simulate(config, trial_seeds, mechs):
            if seeds[5] in trial_seeds:
                raise NumericError("run aborted at seed 5")
            return simulate(config, trial_seeds, mechs)

        monkeypatch.setattr(datagen, "estimate_constants_batch", failing_estimate)
        monkeypatch.setattr(experiment, "simulate_batch", failing_simulate)
        rows = record_block_rows(monkeypatch)
        with pytest.raises(NumericError, match="estimate failed at seed 2"):
            verify.verify_bound("privacy", sc, 100)
        # the block stops at seed 5's simulation; seeds 0..2 then run alone
        assert rows == [1, 1, 1]


class TestVerifyBound:
    def test_unknown_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            verify.verify_bound("no-such-bound", tiny_scenario(), 100)

    def test_min_trials_enforced(self):
        with pytest.raises(ConfigurationError, match="trials must be an integer >= 100"):
            verify.verify_bound("privacy", tiny_scenario(), 50)

    @pytest.mark.parametrize("bound", ["utility", "privacy"])
    def test_n_eval_below_100_is_refused_before_any_trial_runs(self, monkeypatch, bound):
        # the utility loss needs 100 draws; the check once came after a whole
        # block was simulated and estimated, and the privacy bound never made it
        monkeypatch.setattr(experiment, "simulate_batch",
                            lambda *args: pytest.fail("a trial was simulated"))
        with pytest.raises(ConfigurationError, match="n_eval must be >= 100"):
            verify.verify_bound(bound, tiny_scenario(n_eval=50), 100)

    @pytest.mark.parametrize("trials, master_seed", [(100, -1), (100, 0.5), (100.0, 0),
                                                     (float("nan"), 0)])
    def test_seed_and_trials_must_be_integers(self, trials, master_seed):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            verify.verify_bound("privacy", tiny_scenario(), trials, master_seed=master_seed)

    def test_diverged_run_is_numeric_error(self):
        scenario = tiny_scenario(model=models.ModelSpec(kind="linear", input_dim=2),
                                 fl_rounds=80, learning_rate=1e8)
        with pytest.raises(NumericError, match="run aborted"):
            verify.verify_bound("utility", scenario, 100)

    def test_huge_finite_model_non_finite_loss_is_numeric_error(self):
        # learning rate 40 for 250 rounds: the linear model stays finite, but
        # ||delta|| overflows; the utility loss, measured first, raises cleanly
        scenario = verify.VerifyScenario(
            dataset=datagen.DatasetSpec(1, 16, 3), model=models.ModelSpec("linear", 3),
            attack=attack.AttackConfig(iters=10), fl_rounds=250, learning_rate=40.0,
            n_eval=100)
        with pytest.raises(NumericError, match="non-finite loss"):
            verify.trial_outcomes("utility", scenario, [0])

    def test_overflowing_two_way_distortion_is_numeric_error(self):
        # learning rate 1e160: the logistic losses stay finite, ||delta||^2 does not
        scenario = verify.VerifyScenario(
            dataset=datagen.DatasetSpec(1, 16, 3), model=models.ModelSpec("logistic", 3),
            attack=attack.AttackConfig(iters=10), fl_rounds=3, learning_rate=1e160,
            n_eval=100)
        with pytest.raises(NumericError, match="non-finite two-way distortion"):
            verify.trial_outcomes("utility", scenario, [0])
        with pytest.raises(NumericError, match="non-finite two-way distortion"):
            config = scenario.experiment_config("utility")
            experiment.run_trials(config, [(0, config.mechanism, {})], experiment.score_trials)

    def test_privacy_bound_sigma_zero_always_holds(self):
        # delta_up = 0 -> rhs >= 1 >= eps_p; vacuous trials count as non-violations
        report = verify.verify_bound("privacy", tiny_scenario(sigma=0.0), 100)
        assert report.violations == 0
        assert report.fraction_holding == 1.0
        assert report.holds
        assert report.n_vacuous == 100       # threshold > 0 = delta_up everywhere
        assert report.fraction_holding_checked is None

    def test_he_utility_bound_delta_two_zero_and_holds(self):
        report = verify.verify_bound("utility-he", tiny_scenario(), 100)
        assert report.violations == 0
        assert report.holds
        assert report.n_vacuous == 0

    def test_report_roundtrips_to_dict(self):
        report = verify.verify_bound("utility-he", tiny_scenario(), 100)
        d = report.to_dict()
        assert d["bound_name"] == "utility-he"
        assert d["trials"] == 100
        assert 0.0 <= d["fraction_holding"] <= 1.0

    def test_vacuous_probability_budget_flagged(self):
        sc = tiny_scenario(
            dataset=datagen.DatasetSpec(num_clients=3, per_client_size=4, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            gamma=0.4, eta=0.2, sigma=0.2)
        report = verify.verify_bound("tradeoff-randomization", sc, 100)
        assert report.vacuous
        assert report.holds          # nothing claimed, nothing violated
        assert report.confidence < 0

    def test_determinism_across_thread_counts(self, monkeypatch):
        sc = tiny_scenario(sigma=0.2)
        monkeypatch.setenv("FEDTRADEOFF_THREADS", "1")
        a = verify.verify_bound("utility-he", sc, 100)
        monkeypatch.setenv("FEDTRADEOFF_THREADS", "4")
        b = verify.verify_bound("utility-he", sc, 100)
        assert a.to_dict() == b.to_dict()

    def test_he_trial_equals_unprotected_utility_trial(self):
        # zero two-way distortion makes the HE check the plain no-protection
        # generalization check
        sc_he = tiny_scenario()
        sc_plain = tiny_scenario(sigma=0.0)
        for seed in (11, 22, 33):
            a, = verify.trial_outcomes("utility-he", sc_he, [seed])
            b, = verify.trial_outcomes("utility", sc_plain, [seed])
            assert a.measured == b.measured
            assert a.rhs == b.rhs

    def test_constants_snapshot_in_notes(self):
        report = verify.verify_bound("utility-he", tiny_scenario(), 100)
        snap = report.notes["constants_snapshot_median"]
        assert "big_c" in snap and "big_m" in snap

    def test_stated_confidence(self):
        sc = tiny_scenario(gamma=0.1, eta=0.2)
        assert verify.stated_confidence("privacy", sc) == pytest.approx(0.9)
        assert verify.stated_confidence("utility", sc) == pytest.approx(0.8)
        sc3 = tiny_scenario(
            dataset=datagen.DatasetSpec(num_clients=3, per_client_size=4, input_dim=2,
                                        num_classes=2, class_separation=2.0,
                                        diameter_cap=2.0, seed=0),
            gamma=0.1, eta=0.2)
        assert verify.stated_confidence("tradeoff-general", sc3) == pytest.approx(1 - 0.2 - 0.3)
