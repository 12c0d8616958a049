from dataclasses import replace

import numpy as np
import pytest

from fedtradeoff import attack, bounds, datagen, models, protocol, verify
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
    hand (data, init, gradient, protection on its stream), outside the protocol."""
    ds_spec = replace(scenario.dataset, seed=trial_seed)
    ds = datagen.generate(ds_spec)[0]
    theta = models.init_params(scenario.model, rngmod.stream(trial_seed, rngmod.STREAM_INIT))
    g = models.grad_params(scenario.model, theta, ds.x, ds.y)
    prot = protocol.protect(g, protocol.randomization(scenario.sigma),
                            rngmod.stream(trial_seed, rngmod.STREAM_PROTECT, 0, 1))
    trace = attack.invert_gradient(
        scenario.model, theta, prot.wire, ds.y, ds.size,
        replace(scenario.attack, seed=trial_seed))
    eps_p = attack.privacy_leakage(trace, ds.x, ds_spec.diameter_cap)
    est = datagen.estimate_constants(
        scenario.model, theta, [ds], num_pairs=scenario.num_pairs,
        quantile=scenario.quantile, attack_objectives=trace.objectives[1:],
        seed=trial_seed)
    delta_up = prot.delta_up_grad
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
        got = verify._trial_privacy_bound(sc, seed)
        want = hand_built_privacy_trial(sc, seed)
        assert got.extras["delta_up"] > 0.0
        assert repr(got) == repr(want)


def record_block_rows(monkeypatch):
    """The row count of every lockstep inversion from here on."""
    rows = []
    real = attack._invert_block

    def recording(spec, theta, *args):
        rows.append(len(theta))
        return real(spec, theta, *args)
    monkeypatch.setattr(attack, "_invert_block", recording)
    return rows


class TestLockstepBlocks:
    """Inverting trials in lockstep blocks of any size changes no report."""

    @pytest.mark.parametrize("bound, clients, budget, want_rows", [
        ("privacy", 1, 1, [1] * 100),
        ("privacy", 1, (1 << 20) // 15, [78, 22]),
        # a trial's 3 clients split over two blocks: 2 x 8 x 4 x (11 x 2 + 2) bytes
        ("tradeoff-general", 3, 2 * 768, [2, 1] * 100),
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
        assert rows == ([100] if bound == "privacy" else [3] * 100)
        rows.clear()
        monkeypatch.setattr(attack, "_BLOCK_BUDGET", budget)
        assert verify.verify_bound(bound, sc, 100).to_dict() == default
        assert rows == want_rows

    def test_first_failing_seed_raises_whatever_stage_it_fails_in(self, monkeypatch):
        # seed 2 fails when scored, seed 5 when simulated; all share one block,
        # and a serial run meets seed 2's error first
        sc = tiny_scenario(sigma=0.4)
        seeds = [rngmod.trial_seed(0, 0, i) for i in range(100)]
        estimate, simulate = datagen.estimate_constants, verify.simulate

        def failing_estimate(*args, seed, **kw):
            if seed == seeds[2]:
                raise NumericError("estimate failed at seed 2")
            return estimate(*args, seed=seed, **kw)

        def failing_simulate(model, dataset, fl, mech, seed):
            if seed == seeds[5]:
                raise NumericError("run aborted at seed 5")
            return simulate(model, dataset, fl, mech, seed)

        monkeypatch.setattr(datagen, "estimate_constants", failing_estimate)
        monkeypatch.setattr(verify, "simulate", failing_simulate)
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
        with pytest.raises(ConfigurationError):
            verify.verify_bound("privacy", tiny_scenario(), 50)

    def test_diverged_run_is_numeric_error(self):
        scenario = tiny_scenario(model=models.ModelSpec(kind="linear", input_dim=2),
                                 fl_rounds=80, learning_rate=1e8)
        with pytest.raises(NumericError, match="run aborted"):
            verify.verify_bound("utility", scenario, 100)

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
            a = verify._trial_he_utility_bound(sc_he, seed)
            b = verify._trial_utility_bound(sc_plain, seed)
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
