import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import (assert_same_bits, grad_params, mean_loss, protect_rows, records,
                      run_rounds, weighted_sum)
from fedtradeoff import datagen, models, protocol, rng as rngmod
from fedtradeoff.errors import ConfigurationError, NumericError


MODEL = models.ModelSpec("logistic", 3)


def make_datasets(seed=42, num_clients=3, m=8):
    spec = datagen.DatasetSpec(num_clients=num_clients, per_client_size=m, input_dim=3,
                               num_classes=2, class_separation=2.0, diameter_cap=2.0)
    return spec, datagen.generate_batch(spec, [seed])[0]


def round_zero(datasets, model=MODEL, mech=protocol.MechanismSpec()):
    """Record of round 0 of a one-round run over ``datasets`` on seed 3,
    unprotected unless ``mech`` is given."""
    res, = protocol.run_batch(model, protocol.FLRunConfig(rounds=1), [mech], [datasets], [3])
    return res.record(0)


class TestClientLocalUpdate:
    def test_single_example_equals_grad_params(self):
        _, datasets = make_datasets(m=1)
        ds = datasets[0]
        rec = round_zero([ds])
        assert np.array_equal(rec.grads[0],
                              grad_params(MODEL, rec.theta_decoded, ds.x, ds.y))

    def test_duplicated_dataset_same_gradient(self):
        _, datasets = make_datasets(m=4)
        ds = datasets[0]
        dup = datagen.ClientDataset(client_id=0, x=np.vstack([ds.x, ds.x]),
                                    y=np.concatenate([ds.y, ds.y]))
        a = round_zero([ds]).grads[0]
        b = round_zero([dup]).grads[0]
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_matches_per_example_mean_loop(self):
        _, datasets = make_datasets(m=8)
        ds = datasets[0]
        rec = round_zero([ds])
        acc = np.zeros(3)
        for i in range(8):      # independent brute-force mean
            acc += grad_params(MODEL, rec.theta_decoded, ds.x[i][None, :], ds.y[i:i + 1])
        assert np.allclose(rec.grads[0], acc / 8, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("sizes", [[0], [4, 0]])
    def test_empty_client_dataset_is_a_config_error(self, sizes):
        _, datasets = make_datasets(num_clients=len(sizes), m=4)
        cut = [datagen.ClientDataset(ds.client_id, ds.x[:m], ds.y[:m])
               for ds, m in zip(datasets, sizes)]
        with pytest.raises(ConfigurationError, match="^client dataset is empty$"):
            round_zero(cut)

    @pytest.mark.parametrize("sizes", [[4, 3], [3, 4]])
    def test_clients_of_two_sizes_are_a_config_error(self, sizes):
        # every client holds per_client_size rows, so the step weighs each 1/K
        _, datasets = make_datasets(num_clients=2, m=4)
        cut = [datagen.ClientDataset(ds.client_id, ds.x[:m], ds.y[:m])
               for ds, m in zip(datasets, sizes)]
        with pytest.raises(ConfigurationError, match="noise sharing and client size$"):
            round_zero(cut)

    @pytest.mark.parametrize("other", [dict(m=5), dict(num_clients=2)], ids=["size", "count"])
    def test_trials_of_two_shapes_are_a_config_error(self, other):
        _, first = make_datasets(m=4)
        _, second = make_datasets(**{"m": 4, **other})
        with pytest.raises(ConfigurationError, match="noise sharing and client size$"):
            protocol.run_batch(MODEL, protocol.FLRunConfig(rounds=1),
                               [protocol.MechanismSpec()] * 2, [first, second], [3, 4])


class TestProtect:
    """Each mechanism's distortion, as ``run_batch`` takes it: ``_distortion``,
    ``_encrypt`` and ``_norms`` on hand-built rows (their callers ignore
    overflow), and one-round runs where overflow must pass without a warning."""

    def test_none_and_sigma_zero(self):
        _, datasets = make_datasets()
        for mech in (protocol.MechanismSpec(), protocol.MechanismSpec("randomization", 0.0)):
            rec = round_zero(datasets, mech=mech)
            assert rec.delta_up_grad == [0.0] * 3 and np.array_equal(rec.wires, rec.grads)

    def test_he_identity_perm_unit_offset(self):
        g = np.array([[1.0, -2.0, 0.5]])
        wires = protocol._encrypt(g[None], (np.arange(3)[None], np.array([[1.0, 0.0, 0.0]])))
        assert protocol._norms(wires - g).tolist() == [[1.0]]
        assert np.array_equal(wires[0], g + np.array([1.0, 0.0, 0.0]))

    def test_randomization_chi_square(self):
        # E ||delta||^2 = d sigma^2 = 1.0 for sigma=0.1, d=100
        z = rngmod.stream(1, 99).standard_normal((1, 10000, 100))
        mech = protocol.MechanismSpec("randomization", 0.1)
        delta_up = protocol._norms(protocol._distortion([mech], z))
        assert abs(np.mean(delta_up ** 2) - 1.0) <= 0.03

    def test_exact_norm(self):
        mech = protocol.MechanismSpec(kind="randomization", sigma=1.0, exact_norm=0.7)
        z = rngmod.stream(3, 4).standard_normal(5)
        delta = protocol._distortion([mech], z[None, None])
        assert protocol._norms(delta)[0, 0] == pytest.approx(0.7, rel=1e-12)
        # a finite norm rescales the draw itself
        assert np.array_equal(delta[0, 0], z * (0.7 / np.linalg.norm(z)))

    def test_exact_norm_rows_equal_hand_built_rows(self):
        # one block through every branch of the per-row rescale: sigma * z
        # overflows, its norm overflows, it is finite, it is zero
        sigma, target = 1e308, 2.0
        z = np.array([[2.0, -0.5, 0.1, 1.0, -3.0],
                      [1.0, -0.5, 0.25, 1.5, 0.75],
                      [1e-200, -3e-200, 2e-200, 0.0, 5e-201],
                      [0.0, 0.0, 0.0, 0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(sigma * z[0]))
            assert np.isinf(np.linalg.norm(sigma * z[1]))
            deltas = [z[0] * (target / np.linalg.norm(z[0]))]
            d = sigma * z[1]
            d = d / np.abs(d).max()
            deltas.append(d * (target / np.linalg.norm(d)))
        d = sigma * z[2]
        deltas += [d * (target / np.linalg.norm(d)), sigma * z[3]]
        mech = protocol.MechanismSpec(kind="randomization", sigma=sigma, exact_norm=target)
        with np.errstate(over="ignore"):
            (delta,) = protocol._distortion([mech], z[None])
            delta_up = protocol._norms(delta).tolist()
        assert_same_bits(delta, np.array(deltas))
        assert delta_up == [float(np.linalg.norm(dk)) for dk in deltas]
        assert delta_up[:3] == pytest.approx([target] * 3, rel=1e-15) and delta_up[3] == 0.0

    @pytest.mark.parametrize("exact_norm", [None, 2.0])
    def test_huge_sigma_records_infinite_norm_without_warning(self, exact_norm):
        _, datasets = make_datasets()
        mech = protocol.MechanismSpec(kind="randomization", sigma=1e200,
                                      exact_norm=exact_norm)
        rec = round_zero(datasets, mech=mech)
        assert np.all(np.isfinite(rec.wires))
        if exact_norm is None:
            assert rec.delta_up_grad == [math.inf] * 3

    @pytest.mark.parametrize("sigma", [1e155, 1e300])
    def test_exact_norm_holds_when_the_raw_norm_overflows(self, sigma):
        # ||delta|| is inf at these sigmas; the rescale keeps the direction
        _, datasets = make_datasets()
        mech = protocol.MechanismSpec(kind="randomization", sigma=sigma, exact_norm=2.0)
        rec = round_zero(datasets, mech=mech)
        assert rec.delta_up_grad == pytest.approx([2.0] * 3, rel=1e-15)
        assert np.all(np.isfinite(rec.wires))

    @pytest.mark.parametrize("exact_norm", [None, 2.0])
    @pytest.mark.parametrize("sigma", [1e308, 1.7e308])
    def test_overflowing_draw_without_warning(self, sigma, exact_norm):
        # sigma * z overflows some entries; the rescale takes z's direction,
        # and without one the server's step is not finite
        _, datasets = make_datasets()
        z = rngmod.stream(3, rngmod.STREAM_PROTECT, 0, 1).standard_normal(3)   # client 0's
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(sigma * z))
        mech = protocol.MechanismSpec(kind="randomization", sigma=sigma,
                                      exact_norm=exact_norm)
        if exact_norm is None:
            with np.errstate(over="ignore"):
                assert protocol._norms(protocol._distortion([mech], z[None, None]))[0, 0] \
                    == math.inf
            with pytest.raises(NumericError, match="^run aborted: non-finite update at round 0$"):
                round_zero(datasets, mech=mech)
        else:
            rec = round_zero(datasets, mech=mech)
            assert np.all(np.isfinite(rec.wires))
            assert rec.delta_up_grad[0] == pytest.approx(2.0)
            assert np.array_equal(rec.wires[0], rec.grads[0] + z * (2.0 / np.linalg.norm(z)))


class TestAggregate:
    """The server's step, theta - eta * weighted_sum(uploads, sizes), as
    ``run_batch`` takes it."""

    def test_equal_sizes_unweighted_mean(self):
        out = np.zeros(2) - 1.0 * weighted_sum(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [3, 3])
        assert np.array_equal(out, np.array([-0.5, -0.5]))

    def test_single_client_plain_sgd(self):
        g = np.array([2.0, -1.0])
        out = np.array([1.0, 1.0]) - 0.1 * weighted_sum([g], [5])
        assert np.allclose(out, np.array([1.0, 1.0]) - 0.1 * g, rtol=0, atol=0)

    def test_matches_weighted_mean_loop(self):
        g = rngmod.stream(8, 1)
        vecs = [g.standard_normal(4) for _ in range(3)]
        sizes = [1, 2, 3]
        out = np.zeros(4) - 1.0 * weighted_sum(vecs, sizes)
        expected = -sum((m / 6.0) * v for v, m in zip(vecs, sizes))
        assert np.allclose(out, expected, rtol=1e-12, atol=1e-15)

    def test_weights_sum_to_one(self):
        ones = [np.ones(3)] * 4
        out = weighted_sum(ones, [2, 5, 1, 9])
        assert np.allclose(out, np.ones(3), rtol=1e-12, atol=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            weighted_sum([np.zeros(2)], [1, 2])


class TestRun:
    def test_none_mechanism_shadow_identical(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=5, learning_rate=0.3)
        res, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [1])
        for rec in records(res):
            assert rec.delta_two_grad == 0.0
            assert rec.shadow_gap == 0.0
            assert all(d == 0.0 for d in rec.delta_up_grad)
        assert np.array_equal(res.theta_final_decoded, res.theta_final_shadow)

    def test_he_zero_two_way_and_bit_equal_shadow(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=6, learning_rate=0.3)
        he = protocol.MechanismSpec("he_codec")
        res, = protocol.run_batch(MODEL, cfg, [he], [datasets], [1])
        for rec in records(res):
            assert rec.delta_two_grad == 0.0
            assert rec.delta_two_param == 0.0
            assert rec.shadow_gap == 0.0
            assert all(d > 0.0 for d in rec.delta_up_grad)
        assert np.array_equal(res.theta_final_decoded, res.theta_final_shadow)

    def test_he_single_round_k1_eta1_reproduces_unprotected(self):
        _, datasets = make_datasets(num_clients=1)
        cfg = protocol.FLRunConfig(rounds=1, learning_rate=1.0)
        res, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec("he_codec")], [datasets],
                                  [2])
        plain, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [2])
        assert np.array_equal(res.theta_final_decoded, plain.theta_final_decoded)
        assert res.record(0).delta_two_grad == 0.0

    def test_protected_final_view(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.3)
        plain, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [1])
        assert np.array_equal(plain.theta_final_protected, plain.theta_final_decoded)
        he, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec("he_codec")], [datasets],
                                 [1])
        assert np.all(np.isfinite(he.theta_final_protected))
        assert not np.allclose(he.theta_final_protected, he.theta_final_decoded)

    def test_shared_noise_delta_two_equals_delta_up(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=6, learning_rate=0.25)
        mech = protocol.MechanismSpec("randomization", 0.2, shared_noise=True)
        res, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [4])
        for rec in records(res):
            for k in range(len(datasets)):
                assert rec.delta_two_grad == pytest.approx(rec.delta_up_grad[k], abs=1e-12)
                assert rec.delta_two_param == pytest.approx(rec.delta_up_param[k], abs=1e-12)

    def test_randomization_delta_two_is_aggregate_delta_norm(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=4, learning_rate=0.25)
        mech = protocol.MechanismSpec("randomization", 0.3)
        res, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [12])
        sizes = [d.size for d in datasets]
        for rec in records(res):
            agg_delta = weighted_sum(rec.wires - rec.grads, sizes)
            assert rec.delta_two_grad == pytest.approx(
                float(np.linalg.norm(agg_delta)), abs=1e-12)

    def test_delta_up_is_wire_minus_grad_norm(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.25)
        mech = protocol.MechanismSpec("randomization", 0.4)
        res, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [5])
        for rec in records(res):
            for k in range(len(datasets)):
                direct = float(np.linalg.norm(rec.wires[k] - rec.grads[k]))
                assert rec.delta_up_grad[k] == pytest.approx(direct, rel=1e-12)
                assert rec.delta_up_param[k] == pytest.approx(rec.eta * direct, rel=1e-12)

    def test_sigma_zero_identical_to_none(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=4, learning_rate=0.3)
        a, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [6])
        b, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec("randomization", 0.0)],
                                [datasets], [6])
        for ra, rb in zip(records(a), records(b)):
            assert np.array_equal(ra.theta_decoded, rb.theta_decoded)
            assert ra.delta_two_grad == rb.delta_two_grad == 0.0
            for wa, wb in zip(ra.wires, rb.wires):
                assert np.array_equal(wa, wb)

    def test_bit_reproducible(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=5, learning_rate=0.3)
        mech = protocol.MechanismSpec("randomization", 0.3)
        a, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [7])
        b, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [7])
        assert np.array_equal(a.theta_final_decoded, b.theta_final_decoded)
        for ra, rb in zip(records(a), records(b)):
            assert np.array_equal(ra.theta_decoded, rb.theta_decoded)

    @pytest.mark.parametrize("x, fl, message", [
        # the initial draw times init_scale overflows
        ([[10.0, 10.0]], dict(init_scale=1.5e308), "non-finite model at round 0"),
        # the residual times x overflows
        ([[1e200, 1e200]], {},
         "non-finite gradient at round 0: non-finite parameter gradient"),
        # a finite gradient times eta overflows
        ([[10.0, 10.0]], dict(learning_rate=1e308), "non-finite update at round 0"),
    ], ids=["model", "gradient", "update"])
    def test_divergence_raises(self, x, fl, message):
        spec = models.ModelSpec("linear", 2)
        ds = datagen.ClientDataset(client_id=0, x=np.array(x), y=np.array([0.0]))
        cfg = protocol.FLRunConfig(rounds=2, **fl)
        with pytest.raises(NumericError, match=f"^run aborted: {message}$"):
            protocol.run_batch(spec, cfg, [protocol.MechanismSpec()], [[ds]], [1])

    def test_inv_sqrt_schedule(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=4, learning_rate=0.4, lr_schedule="inv_sqrt")
        res, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [8])
        etas = [rec.eta for rec in records(res)]
        assert etas == pytest.approx([0.4 / np.sqrt(t + 1) for t in range(4)])


class TestFLRunConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("init_scale", math.nan, "init_scale must be finite and >= 0"),
        ("init_scale", math.inf, "init_scale must be finite and >= 0"),
        ("init_scale", -math.inf, "init_scale must be finite and >= 0"),
        ("init_scale", -0.5, "init_scale must be finite and >= 0"),
        ("learning_rate", math.nan, "learning rate must be finite and > 0"),
        ("learning_rate", math.inf, "learning rate must be finite and > 0"),
        ("learning_rate", 0.0, "learning rate must be finite and > 0"),
    ])
    def test_bad_value_is_a_config_error(self, field, value, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            protocol.FLRunConfig(rounds=2, **{field: value})

    def test_zero_init_scale_starts_at_the_origin(self):
        _, datasets = make_datasets()
        cfg = protocol.FLRunConfig(rounds=1, init_scale=0.0)
        res, = protocol.run_batch(MODEL, cfg, [protocol.MechanismSpec()], [datasets], [0])
        assert np.array_equal(res.record(0).theta_decoded, np.zeros(3))


RUN_MODELS = [models.ModelSpec("linear", 3), models.ModelSpec("logistic", 3),
              models.ModelSpec("logistic", 3, num_classes=3),
              models.ModelSpec("mlp1", 3, hidden_dim=4, num_classes=3)]
RUN_MECHS = {
    "none": protocol.MechanismSpec(),
    "he": protocol.MechanismSpec("he_codec", offset_scale=0.5),
    "rand": protocol.MechanismSpec("randomization", 0.3),
    "shared": protocol.MechanismSpec("randomization", 0.3, shared_noise=True),
    "exact-norm": protocol.MechanismSpec("randomization", 0.3, exact_norm=0.8),
}


class TestRoundsMatchPerClientReference:
    """Every round of ``run_batch`` equals the per-client computation bit for bit:
    one ``grad_params`` call per client and trajectory, and the noise of
    client k in round t drawn from its own ``rng.stream``. Clients of more
    than one size are refused, whatever the model and mechanism."""

    @pytest.mark.parametrize("sizes", ["equal", "unequal"])
    @pytest.mark.parametrize("mech_name", list(RUN_MECHS))
    @pytest.mark.parametrize("num_clients", [1, 2, 7])
    @pytest.mark.parametrize("model", RUN_MODELS, ids=lambda m: f"{m.kind}{m.num_classes}")
    def test_bit_identical(self, model, num_clients, mech_name, sizes):
        mech = RUN_MECHS[mech_name]
        spec = datagen.DatasetSpec(num_clients=num_clients, per_client_size=9, input_dim=3,
                                   num_classes=model.num_classes, class_separation=2.0,
                                   diameter_cap=2.0)
        datasets, = datagen.generate_batch(spec, [21])
        if sizes == "unequal":
            datasets = [datagen.ClientDataset(ds.client_id, ds.x[:9 - k], ds.y[:9 - k])
                        for k, ds in enumerate(datasets)]
        seed = 17
        cfg = protocol.FLRunConfig(rounds=4, learning_rate=0.3)
        if num_clients > 1 and sizes == "unequal":
            with pytest.raises(ConfigurationError, match="noise sharing and client size$"):
                protocol.run_batch(model, cfg, [mech], [datasets], [seed])
            return
        res, = protocol.run_batch(model, cfg, [mech], [datasets], [seed])
        keys = None
        if mech_name == "he":
            perm, offset = protocol._he_key(model.param_dim,
                                            rngmod.stream(seed, rngmod.STREAM_MECH), 0.5)
            keys = perm[None], offset[None]
        sizes = [ds.size for ds in datasets]
        shadow = res.record(0).theta_decoded
        for t, rec in enumerate(records(res)):
            assert rec.shadow_gap == float(np.linalg.norm(rec.theta_decoded - shadow))
            wires = []
            for k, ds in enumerate(datasets):
                g = grad_params(model, rec.theta_decoded, ds.x, ds.y)
                z = None
                if mech.kind == "randomization":
                    client = 0 if mech.shared_noise else k + 1
                    z = rngmod.stream(seed, rngmod.STREAM_PROTECT, t, client).standard_normal(
                        model.param_dim)
                # a block of one: a row must not depend on the rest of its block
                ((wire,),), ((delta_up,),) = protect_rows(
                    g[None, None], [mech], None if z is None else z[None, None], keys)
                assert np.array_equal(rec.grads[k], g)
                assert np.array_equal(rec.wires[k], wire)
                assert rec.delta_up_grad[k] == delta_up
                wires.append(wire if mech.kind == "randomization" else g)
            step = rec.eta * weighted_sum(wires, sizes)
            assert np.array_equal(rec.theta_next_decoded, rec.theta_decoded - step)
            shadow = shadow - rec.eta * weighted_sum(
                [grad_params(model, shadow, ds.x, ds.y) for ds in datasets], sizes)
        assert np.array_equal(res.theta_final_shadow, shadow)


# three trials' mechanisms of each kind, a batch of one taking the first.
# The exact-norm rows: sigma * z stays finite for the first trial, its norm
# overflows for the second, and the product itself for the third, whose
# mechanism sets no exact_norm beside two that do
ORACLE_MECHS = {
    "none": [protocol.MechanismSpec()] * 3,
    "rand": [protocol.MechanismSpec("randomization", s) for s in (0.3, 0.0, 1.5)],
    "shared": [protocol.MechanismSpec("randomization", s, shared_noise=True)
               for s in (0.3, 0.7, 0.05)],
    "exact-norm": [protocol.MechanismSpec("randomization", 0.3, exact_norm=0.8),
                   protocol.MechanismSpec("randomization", 1e155, exact_norm=2.0),
                   protocol.MechanismSpec("randomization", 0.2)],
    "exact-norm-overflow": [protocol.MechanismSpec("randomization", 1.7e308, exact_norm=0.5),
                            protocol.MechanismSpec("randomization", 0.3, exact_norm=0.8),
                            protocol.MechanismSpec("randomization", 1e155, exact_norm=2.0)],
    "he": [protocol.MechanismSpec("he_codec", offset_scale=s) for s in (0.5, 2.0, 0.0)],
}


def assert_same_record(got, want):
    """Two ``RoundRecord``s field by field, bit for bit and of one type."""
    for f in fields(protocol.RoundRecord):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert type(a) is type(b), f.name
        assert_same_bits(a, b)


class TestRunBatchEqualsTheRoundLoop:
    """``run_batch``'s stacked per-round arrays give, through ``record(t)``,
    the records of the per-round loop (``conftest.run_rounds``) bit for bit,
    and the same final models. The loop weighs clients by size, but
    ``run_batch`` refuses clients of more than one size."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("sizes", ["equal", "unequal"])
    @pytest.mark.parametrize("schedule", ["constant", "inv_sqrt"])
    @pytest.mark.parametrize("mech_name", list(ORACLE_MECHS))
    @pytest.mark.parametrize("model", [MODEL, models.ModelSpec("mlp1", 3, hidden_dim=4,
                                                               num_classes=3)],
                             ids=lambda m: m.kind)
    def test_records_equal_the_round_loop(self, model, mech_name, schedule, sizes, batch):
        spec = datagen.DatasetSpec(num_clients=3, per_client_size=7, input_dim=3,
                                   num_classes=model.num_classes, class_separation=2.0,
                                   diameter_cap=2.0)
        seeds = [31, 5, 2024][:batch]
        datasets = datagen.generate_batch(spec, seeds)
        cfg = protocol.FLRunConfig(rounds=5, learning_rate=0.4, lr_schedule=schedule)
        mechs = ORACLE_MECHS[mech_name][:batch]
        if sizes == "unequal":
            datasets = [[datagen.ClientDataset(ds.client_id, ds.x[:7 - 2 * k], ds.y[:7 - 2 * k])
                         for k, ds in enumerate(trial)] for trial in datasets]
            with pytest.raises(ConfigurationError, match="noise sharing and client size$"):
                protocol.run_batch(model, cfg, mechs, datasets, seeds)
            return
        got = protocol.run_batch(model, cfg, mechs, datasets, seeds)
        want = run_rounds(model, cfg, mechs, datasets, seeds)
        for res, (recs, decoded, shadow, protected) in zip(got, want, strict=True):
            assert res.rounds == len(recs)
            for t, rec in enumerate(recs):
                assert_same_record(res.record(t), rec)
            assert_same_bits(res.theta_final_decoded, decoded)
            assert_same_bits(res.theta_final_shadow, shadow)
            assert_same_bits(res.theta_final_protected, protected)

    @pytest.mark.parametrize("lr, message", [
        (1.2e3, "non-finite update at round 57"),
        (1e4, "non-finite gradient at round 49: non-finite parameter gradient"),
    ], ids=["update", "gradient"])
    def test_overflow_raises_in_the_loop_round(self, lr, message):
        # the step's component along x grows by about 200 lr a round
        spec = models.ModelSpec("linear", 2)
        ds = datagen.ClientDataset(client_id=0, x=np.array([[10.0, 10.0]]), y=np.array([0.0]))
        cfg = protocol.FLRunConfig(rounds=200, learning_rate=lr)
        mech = [protocol.MechanismSpec("randomization", 0.1)]
        with pytest.raises(NumericError) as want:
            run_rounds(spec, cfg, mech, [[ds]], [1])
        assert str(want.value) == f"run aborted: {message}"
        with pytest.raises(NumericError, match=f"^{want.value}$"):
            protocol.run_batch(spec, cfg, mech, [[ds]], [1])


def old_codec_key(dim, seed, offset_scale):
    """Test-side copy of the draws of the removed seeded HE-codec factory: the
    key every he_codec run was built with, at its trial seed."""
    g = rngmod.stream(seed, rngmod.STREAM_MECH)
    perm = g.permutation(dim)
    off = offset_scale * g.standard_normal(dim)
    if np.all(off == 0.0):
        off = np.ones(dim)
    return perm, off


class TestHEKey:
    # at K = 7 the size weights sum to 0.9999999999999998, not 1
    @pytest.mark.parametrize("num_clients", [2, 7])
    @pytest.mark.parametrize("seed", [4, 2024])
    def test_run_key_is_the_old_codec_at_the_run_seed(self, seed, num_clients):
        _, datasets = make_datasets(num_clients=num_clients)
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.3)
        mech = protocol.MechanismSpec("he_codec", offset_scale=0.5)
        res, = protocol.run_batch(MODEL, cfg, [mech], [datasets], [seed])
        perm, offset = old_codec_key(MODEL.param_dim, seed, 0.5)
        # the old ciphertext view of each round's server state: payload + units * offset,
        # the units tracked through each round's size-weighted aggregation
        sizes = [ds.size for ds in datasets]
        units = 1.0
        for rec in records(res):
            for g, wire in zip(rec.grads, rec.wires):
                assert np.array_equal(wire, g[perm] + offset)
            units = units - rec.eta * float(
                weighted_sum([np.array([1.0])] * len(sizes), sizes)[0])
            want = rec.theta_next_decoded[perm] + units * offset
            assert np.array_equal(rec.theta_next_protected, want)
        assert np.array_equal(res.theta_final_protected, want)


class TestMeasureUtilityLoss:
    def test_replay_with_zero_delta_is_zero(self):
        spec, datasets = make_datasets(m=8)
        ds = datasets[0]
        theta = np.array([0.2, -0.1, 0.4])
        # the replayed draws present the full training set 100 times
        eps, half = protocol.measure_utility_loss(
            MODEL, theta, np.zeros(3), ds.x, ds.y, np.tile(ds.x, (100, 1)), np.tile(ds.y, 100))
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_fresh_draws_match_brute_force_recomputation(self):
        spec, datasets = make_datasets(m=8)
        ds = datasets[0]
        theta = np.array([0.2, -0.1, 0.4])
        xs, ys = next(datagen.fresh_draws(spec, [77], [ds.centers], 300))
        eps, _ = protocol.measure_utility_loss(MODEL, theta, np.zeros(3), ds.x, ds.y, xs, ys)
        l_exp = np.mean([mean_loss(MODEL, theta, xs[i][None, :], ys[i:i + 1])
                         for i in range(300)])
        l_emp = mean_loss(MODEL, theta, ds.x, ds.y)
        assert eps == pytest.approx(abs(l_exp - l_emp), rel=1e-10)

    def test_distortion_grows_utility_loss(self):
        # locked from a 50-seed pilot: 50/50 at these settings
        spec2 = models.ModelSpec("logistic", 2)
        wins = 0
        for seed in range(50):
            dss = datagen.DatasetSpec(num_clients=1, per_client_size=24, input_dim=2,
                                      class_separation=4.0, diameter_cap=3.0)
            (ds1,), = datagen.generate_batch(dss, [seed])
            th = models.init_params(spec2, rngmod.stream(seed, rngmod.STREAM_INIT), 0.3)
            for _ in range(20):
                th = th - 0.5 * grad_params(spec2, th, ds1.x, ds1.y)
            u = rngmod.stream(seed, 63).standard_normal(2)
            big = 10.0 * u / np.linalg.norm(u)
            xs, ys = next(datagen.fresh_draws(dss, [seed + 100], [ds1.centers], 400))
            e0, _ = protocol.measure_utility_loss(spec2, th, np.zeros(2), ds1.x, ds1.y, xs, ys)
            e1, _ = protocol.measure_utility_loss(spec2, th, big, ds1.x, ds1.y, xs, ys)
            wins += (e1 >= e0)
        assert wins >= 45

    def test_n_eval_minimum(self):
        _, datasets = make_datasets()
        with pytest.raises(ConfigurationError):
            protocol.measure_utility_loss(MODEL, np.zeros(3), np.zeros(3), datasets[0].x,
                                          datasets[0].y, np.zeros((50, 3)), np.zeros(50))
