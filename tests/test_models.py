import itertools

import numpy as np
import pytest

from conftest import (assert_same_bits, finite_diff_check, grad_params, mean_loss,
                      spread_values)
from fedtradeoff import models, rng as rngmod
from fedtradeoff.errors import ConfigurationError


def draw_batch(spec, seed, m=8, theta_scale=0.7):
    g = rngmod.stream(seed, 999)
    theta = theta_scale * g.standard_normal(spec.param_dim)
    x = g.standard_normal((m, spec.input_dim))
    if spec.kind == "linear":
        y = g.standard_normal(m)
    else:
        y = g.integers(0, spec.num_classes, m)
    return theta, x, y


class TestParamDim:
    def test_linear(self):
        assert models.ModelSpec("linear", 5).param_dim == 5

    def test_logistic_binary(self):
        assert models.ModelSpec("logistic", 4).param_dim == 4

    def test_logistic_multiclass(self):
        assert models.ModelSpec("logistic", 4, num_classes=3).param_dim == 12

    def test_mlp1(self):
        spec = models.ModelSpec("mlp1", 4, hidden_dim=6, num_classes=3)
        assert spec.param_dim == 6 * 4 + 6 + 3 * 6 + 3

    def test_bad_specs(self):
        with pytest.raises(ConfigurationError):
            models.ModelSpec("conv", 3)
        with pytest.raises(ConfigurationError):
            models.ModelSpec("linear", 0)
        with pytest.raises(ConfigurationError):
            models.ModelSpec("mlp1", 3, hidden_dim=0)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    def test_hidden_width_only_for_mlp1(self, kind):
        # a width no pass reads would only move the experiment id
        with pytest.raises(ConfigurationError,
                           match=f"^hidden_dim must be 0 for a {kind} model, not 5$"):
            models.ModelSpec(kind, 3, hidden_dim=5)


class TestLinearClosedForm:
    # L = 0.5 (theta.x - y)^2 with theta=(1,1), x=(1,2), y=0: residual 3
    def test_loss(self):
        spec = models.ModelSpec("linear", 2)
        assert mean_loss(spec, np.array([1.0, 1.0]),
                         np.array([[1.0, 2.0]]), np.array([0.0])) == 4.5

    def test_grad_params(self):
        spec = models.ModelSpec("linear", 2)
        g = grad_params(spec, np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([0.0]))
        assert np.array_equal(g, np.array([3.0, 6.0]))


class TestLogisticClosedForm:
    def test_zero_weights_gives_ln2(self):
        spec = models.ModelSpec("logistic", 3)
        x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0], [0.0, 0.1, -4.0]])
        y = np.array([0, 1, 1])
        assert mean_loss(spec, np.zeros(3), x, y) == pytest.approx(np.log(2), abs=1e-15)

    def test_zero_weights_multiclass_gives_lnc(self):
        spec = models.ModelSpec("logistic", 2, num_classes=5)
        x = np.array([[1.0, -1.0]])
        assert mean_loss(spec, np.zeros(10), x, np.array([3])) == pytest.approx(np.log(5))

    def test_binary_grad_at_zero(self):
        # (sigmoid(0) - 1) * x = -0.5 x
        spec = models.ModelSpec("logistic", 3)
        x = np.array([[2.0, 4.0, 6.0]])
        g = grad_params(spec, np.zeros(3), x, np.array([1]))
        assert np.allclose(g, -0.5 * x[0], atol=0, rtol=0)


ALL_SPECS = [
    models.ModelSpec("linear", 4),
    models.ModelSpec("logistic", 4),
    models.ModelSpec("logistic", 3, num_classes=4),
    models.ModelSpec("mlp1", 4, hidden_dim=6, num_classes=3),
]


class TestFiniteDifferences:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.param_dim}")
    def test_param_gradients_match(self, spec):
        worst = 0.0
        for seed in range(20):
            theta, x, y = draw_batch(spec, seed)
            worst = max(worst, finite_diff_check(spec, theta, x, y, 1e-5))
        assert worst <= 1e-5

    def test_linear_is_exact_to_rounding(self):
        spec = models.ModelSpec("linear", 3)
        theta, x, y = draw_batch(spec, 0)
        assert finite_diff_check(spec, theta, x, y, 1e-5) <= 1e-8


def mlp1_loss_straight_line(theta, x, y, p, h, c):
    """Independently coded forward pass: plain loops, log-sum-exp by hand."""
    import math
    i = 0
    w1 = [[theta[i + r * p + s] for s in range(p)] for r in range(h)]; i += h * p
    b1 = [theta[i + r] for r in range(h)]; i += h
    w2 = [[theta[i + r * h + s] for s in range(h)] for r in range(c)]; i += c * h
    b2 = [theta[i + r] for r in range(c)]
    total = 0.0
    for xi, yi in zip(x, y):
        hid = [math.tanh(sum(w1[r][s] * xi[s] for s in range(p)) + b1[r])
               for r in range(h)]
        logits = [sum(w2[r][s] * hid[s] for s in range(h)) + b2[r]
                  for r in range(c)]
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(z - mx) for z in logits))
        total += lse - logits[int(yi)]
    return total / len(x)


class TestMlpReferenceOracle:
    def test_loss_matches_straight_line_evaluation(self):
        spec = models.ModelSpec("mlp1", 4, hidden_dim=6, num_classes=3)
        for seed in range(5):
            theta, x, y = draw_batch(spec, seed, m=8)
            ref = mlp1_loss_straight_line(theta, x, y, 4, 6, 3)
            assert mean_loss(spec, theta, x, y) == pytest.approx(ref, rel=1e-12)


class TestBatchSemantics:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_loss_permutation_invariant(self, spec):
        theta, x, y = draw_batch(spec, 3)
        perm = rngmod.stream(1, 1).permutation(x.shape[0])
        assert mean_loss(spec, theta, x, y) == pytest.approx(
            mean_loss(spec, theta, x[perm], y[perm]), rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_batch_grad_is_mean_of_singles(self, spec):
        theta, x, y = draw_batch(spec, 5)
        batch = grad_params(spec, theta, x, y)
        singles = np.mean([grad_params(spec, theta, x[i][None, :], y[i:i + 1])
                           for i in range(x.shape[0])], axis=0)
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_bit_identical_recomputation(self, spec):
        theta, x, y = draw_batch(spec, 7)
        a = grad_params(spec, theta, x, y)
        b = grad_params(spec, theta, x, y)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("m", [1, 8, 37])
    def test_stacked_losses_equal_per_theta_calls(self, spec, m):
        rows = [draw_batch(spec, seed, m=m) for seed in range(5)]
        thetas, xs, ys = (np.stack(parts) for parts in zip(*rows))
        _, x0, y0 = rows[0]
        own = models.per_example_losses(spec, thetas, xs, ys)
        shared = models.per_example_losses(spec, thetas, np.broadcast_to(x0, xs.shape),
                                           np.broadcast_to(y0, ys.shape))
        assert own.shape == shared.shape == (5, m)
        own_means, shared_means = own.mean(axis=-1), shared.mean(axis=-1)
        for b, (theta, x, y) in enumerate(rows):
            assert np.array_equal(own[b], models.per_example_losses(spec, theta, x, y))
            assert np.array_equal(shared[b], models.per_example_losses(spec, theta, x0, y0))
            # row means too: each row is summed in the order of an unbatched call
            assert own_means[b] == mean_loss(spec, theta, x, y)
            assert shared_means[b] == mean_loss(spec, theta, x0, y0)

    def test_dimension_mismatch_rejected(self):
        spec = models.ModelSpec("linear", 3)
        with pytest.raises(ConfigurationError):
            models.per_example_losses(spec, np.zeros(3), np.ones((2, 4)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            models.per_example_losses(spec, np.zeros(4), np.ones((2, 3)), np.zeros(2))

    def test_empty_batch_rejected(self):
        spec = models.ModelSpec("linear", 3)
        with pytest.raises(ConfigurationError):
            models.per_example_losses(spec, np.zeros(3), np.empty((0, 3)), np.empty(0))

    @pytest.mark.parametrize("spec", ALL_SPECS[1:], ids=lambda s: s.kind)
    def test_losses_nonnegative(self, spec):
        theta, x, y = draw_batch(spec, 11)
        assert mean_loss(spec, theta, x, y) >= 0.0


def earlier_losses(spec, theta, x, y):
    """``per_example_losses`` as each kind wrote its own forward pass out."""
    mv = lambda a, v: np.matmul(a, v[..., None])[..., 0]
    mt = lambda a: a.swapaxes(-1, -2)
    if spec.kind == "linear":
        r = mv(x, theta) - y
        return 0.5 * r * r
    if spec.kind == "logistic" and spec.num_classes == 2:
        z = mv(x, theta)
        return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    yi = y.astype(np.int64)
    if spec.kind == "logistic":
        w = theta.reshape(*theta.shape[:-1], spec.num_classes, spec.input_dim)
        logits = x @ mt(w)
    else:
        w1, b1, w2, b2 = unpack_mlp1(spec, theta)
        a = np.tanh(x @ mt(w1) + b1[..., None, :])
        logits = a @ mt(w2) + b2[..., None, :]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return -np.take_along_axis(logp, yi[..., None], axis=-1)[..., 0]


def earlier_predict(spec, theta, x):
    """``predict`` as it wrote each kind's forward pass out, for 2-D x."""
    if spec.kind == "linear":
        return np.clip(np.rint(x @ theta), 0, spec.num_classes - 1).astype(np.int64)
    if spec.kind == "logistic" and spec.num_classes == 2:
        return (x @ theta >= 0.0).astype(np.int64)
    if spec.kind == "logistic":
        w = theta.reshape(spec.num_classes, spec.input_dim)
        return np.argmax(x @ w.T, axis=1).astype(np.int64)
    w1, b1, w2, b2 = unpack_mlp1(spec, theta)
    a = np.tanh(x @ w1.T + b1)
    return np.argmax(a @ w2.T + b2, axis=1).astype(np.int64)


def unpack_mlp1(spec, theta):
    p, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    lead = theta.shape[:-1]
    cuts = np.cumsum([h * p, h, c * h])
    w1, b1, w2, b2 = np.split(theta, cuts, axis=-1)
    return w1.reshape(*lead, h, p), b1, w2.reshape(*lead, c, h), b2


class TestOneForwardPass:
    """``predict`` and ``per_example_losses`` share each kind's forward pass,
    and give what the kinds' separate formulas gave, bit for bit."""

    @pytest.mark.parametrize("spec", ALL_SPECS + [models.ModelSpec("linear", 3, num_classes=5)],
                             ids=lambda s: f"{s.kind}-{s.num_classes}")
    def test_equal_to_the_separate_formulas(self, spec):
        rows = [draw_batch(spec, seed, m=7, theta_scale=2.0) for seed in range(6)]
        for theta, x, y in rows:
            assert np.array_equal(models.per_example_losses(spec, theta, x, y),
                                  earlier_losses(spec, theta, x, y))
            pred = models.predict(spec, theta, x)
            assert pred.dtype == np.int64
            assert np.array_equal(pred, earlier_predict(spec, theta, x))
            assert np.array_equal(models.predict(spec, theta, x[2]),
                                  earlier_predict(spec, theta, x[2][None, :]))
        # leading trial axes
        thetas, xs, ys = (np.stack(parts) for parts in zip(*rows))
        assert np.array_equal(models.per_example_losses(spec, thetas, xs, ys),
                              earlier_losses(spec, thetas, xs, ys))

    def test_binary_score_of_exactly_zero(self):
        spec = models.ModelSpec("logistic", 2)
        theta = np.array([1.0, -1.0])
        x = np.array([[0.5, 0.5], [0.0, 0.0], [-3.0, -3.0], [1.0, 0.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert models.predict(spec, theta, x).tolist() == [1, 1, 1, 1]
        assert earlier_predict(spec, theta, x).tolist() == [1, 1, 1, 1]
        losses = models.per_example_losses(spec, theta, x, y)
        assert np.array_equal(losses, earlier_losses(spec, theta, x, y))
        assert losses[:3].tolist() == [np.log1p(1.0)] * 3


def _sigmoid_two_branch(z):
    # the earlier formula: exp in both np.where branches
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))


class TestSigmoid:
    def test_large_logits_raise_no_floating_point_error(self):
        # underflow of exp(-800) to 0 is the exact limit; overflow and 0*inf are not
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            s = models._sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert np.array_equal(s, [0.0, 0.5, 1.0])

    def test_bit_identical_to_two_branch_formula(self):
        z = np.concatenate([np.linspace(-800.0, 800.0, 20001),
                            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 709.8, -709.8],
                            np.random.default_rng(0).normal(scale=30.0, size=5000)])
        got = models._sigmoid(z)
        assert np.array_equal(got.view(np.uint64), _sigmoid_two_branch(z).view(np.uint64))


def broadcast_linear_vjp(r, x, theta, v):
    # the linear VJP as one broadcast expression
    return r[..., None] * v[..., None, :] + models._mv(x, v)[..., None] * theta[..., None, :]


def broadcast_binary_vjp(s, y, x, theta, v):
    # the binary VJP as one broadcast expression, recomputing s - y
    return ((s - y)[..., None] * v[..., None, :]
            + (s * (1.0 - s) * models._mv(x, v))[..., None] * theta[..., None, :])


# both sides of models._NARROW and of numpy's 8-element pairwise block
SHORT_AXES = [1, 2, 3, 4, 5, 6, 7, 8, 12]
# unbatched, B = 1, B = 4, two trial axes; values over 1 and 300 decades
LEADS_AND_DECADES = list(itertools.product([(), (1,), (4,), (2, 3)], [1, 300]))


@pytest.mark.usefixtures("column_gate")
class TestShortAxisKernels:
    """The column-by-column kernels give the bits of the broadcast products
    they replace, on either side of ``models._NARROW``."""

    @pytest.mark.parametrize("n", SHORT_AXES)
    def test_outer_equals_the_broadcast_product(self, n):
        rng = np.random.default_rng([n, 0])
        for lead, decades in LEADS_AND_DECADES:
            a = spread_values(rng, lead + (5,), decades)
            b = spread_values(rng, lead + (n,), decades)
            a[..., 0], b[..., 0] = -0.0, 3.0     # -0.0 products, kept as -0.0
            b_row = b[(0,) * len(lead)]          # one b row broadcast over a's lead
            with np.errstate(all="ignore"):
                assert_same_bits(models._outer(a, b), a[..., None] * b[..., None, :])
                assert_same_bits(models._outer(a, b_row), a[..., None] * b_row[..., None, :])

    @pytest.mark.parametrize("p", SHORT_AXES)
    def test_vjps_equal_their_broadcast_formulas(self, p):
        rng = np.random.default_rng([p, 1])
        m = 6
        for lead, decades in LEADS_AND_DECADES:
            x, theta, v = (spread_values(rng, lead + shape, decades)
                           for shape in [(m, p), (p,), (p,)])
            r, s = spread_values(rng, lead + (m,), decades), rng.random(lead + (m,))
            s[..., :2] = [0.0, 1.0]
            y = rng.integers(0, 2, lead + (m,)).astype(float)
            with np.errstate(all="ignore"):
                assert_same_bits(models._linear_vjp(r, x, theta, v),
                                 broadcast_linear_vjp(r, x, theta, v))
                assert_same_bits(models._binary_vjp(s - y, s, x, theta, v),
                                 broadcast_binary_vjp(s, y, x, theta, v))

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("p", SHORT_AXES)
    def test_vjp_of_a_forward_pass_equals_the_broadcast_formula(self, kind, p):
        spec = models.ModelSpec(kind, p)
        theta, x, y = draw_batch(spec, p, m=5, theta_scale=2.0)
        v = rngmod.stream(p, 998).standard_normal(p)
        _, vjp = models.prepare(spec, theta, y)(x)
        z = models._mv(x, theta)
        want = (broadcast_linear_vjp(z - y, x, theta, v) if kind == "linear"
                else broadcast_binary_vjp(models._sigmoid(z), y, x, theta, v))
        assert_same_bits(vjp(v), want)


def earlier_grads_and_vjp(spec, theta, x, y):
    """A ``Prepared`` pass's gradients and VJP as they were written before the
    pass was prepared: every temporary fresh, and mlp1's four gradient blocks
    concatenated."""
    mt = lambda a: a.swapaxes(-1, -2)
    if spec.kind == "linear":
        r = models._mv(x, theta) - y
        return r[..., None] * x, lambda v: broadcast_linear_vjp(r, x, theta, v)
    if spec.kind == "logistic" and spec.num_classes == 2:
        s = models._sigmoid(models._mv(x, theta))
        return (s - y)[..., None] * x, lambda v: broadcast_binary_vjp(s, y, x, theta, v)
    lead = x.shape[:-1]
    if spec.kind == "logistic":
        w = theta.reshape(*theta.shape[:-1], spec.num_classes, spec.input_dim)
        z = x @ mt(w)
    else:
        w1, b1, w2, b2 = unpack_mlp1(spec, theta)
        a = np.tanh(x @ mt(w1) + b1[..., None, :])
        z = a @ mt(w2) + b2[..., None, :]
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=-1, keepdims=True)
    d = probs - (y.astype(np.int64)[..., None] == np.arange(spec.num_classes))
    if spec.kind == "logistic":
        def softmax_vjp(v):
            vm = v.reshape(w.shape)
            pu = probs * (x @ mt(vm))
            return d @ vm + (pu - probs * pu.sum(axis=-1, keepdims=True)) @ w
        return (d[..., :, None] * x[..., None, :]).reshape(*lead, -1), softmax_vjp
    gw2 = d[..., :, None] * a[..., None, :]
    da = d @ w2
    ga = 1.0 - a * a
    dz = da * ga
    gw1 = dz[..., :, None] * x[..., None, :]
    grads = np.concatenate([gw1.reshape(*lead, -1), dz, gw2.reshape(*lead, -1), d], axis=-1)

    def mlp1_vjp(v):
        v1, vb1, v2, vb2 = unpack_mlp1(spec, v)
        q1 = x @ mt(v1) + vb1[..., None, :]
        q2 = a @ mt(v2) + vb2[..., None, :]
        r = q2 + (q1 * ga) @ mt(w2)
        pr = probs * r
        glogits = pr - probs * pr.sum(axis=-1, keepdims=True)
        abar = d @ v2 + glogits @ w2 - 2.0 * a * da * q1
        return dz @ v1 + (abar * ga) @ w1
    return grads, mlp1_vjp


def assert_bitwise(got, want):
    """Equal shapes and every bit equal, NaN payloads and signed zeros too."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


PREPARED_SPECS = [
    models.ModelSpec("linear", 3),
    models.ModelSpec("logistic", 3),
    models.ModelSpec("logistic", 2, num_classes=3),
    models.ModelSpec("mlp1", 3, hidden_dim=5, num_classes=2),
    models.ModelSpec("mlp1", 2, hidden_dim=4, num_classes=3),
    # more inputs than hidden units
    models.ModelSpec("mlp1", 4, hidden_dim=3, num_classes=2),
]


def prepared_instance(spec, rng, lead, decades, m=6, n_x=3):
    """theta, labels, ``n_x`` candidate x and two v over ``decades`` decades.
    A tenth of the x entries are signed zeros, infinities, NaN or subnormals;
    theta and v are finite, each with a -0.0 and a subnormal, so that most
    examples stay finite through the pass."""
    theta, *vs = (spread_values(rng, lead + (spec.param_dim,), decades, share=0.0)
                  for _ in range(3))
    for a in (theta, *vs):
        a[..., :2] = [-0.0, 5e-324]
    y = (spread_values(rng, lead + (m,), decades) if spec.kind == "linear"
         else rng.integers(0, spec.num_classes, lead + (m,)).astype(float))
    xs = [spread_values(rng, lead + (m, spec.input_dim), decades, share=0.1)
          for _ in range(n_x)]
    return theta, y, xs, vs


# unbatched, B = 1, B = 4, two trial axes; values over 1 and 20 decades
PREPARED_LEADS_AND_DECADES = list(itertools.product([(), (1,), (4,), (2, 3)], [1, 20]))


@pytest.mark.usefixtures("column_gate")
class TestPreparedPass:
    """A pass prepared once from (spec, theta, y) and run on many x gives at
    each x what a freshly prepared pass and the earlier,
    out-of-place formulas give, bit for bit."""

    @pytest.mark.parametrize("spec", PREPARED_SPECS,
                             ids=lambda s: f"{s.kind}-p{s.input_dim}-c{s.num_classes}")
    def test_one_pass_over_many_x_equals_fresh_calls(self, spec):
        rng = np.random.default_rng([spec.param_dim, spec.num_classes, 5])
        finite = []
        for lead, decades in PREPARED_LEADS_AND_DECADES:
            theta, y, xs, vs = prepared_instance(spec, rng, lead, decades)
            prep = models.prepare(spec, theta, y)
            with np.errstate(all="ignore"):
                runs = [prep(x) for x in xs]      # every pass first, then the VJPs
                for x, (grads, vjp) in zip(xs, runs):
                    finite.append(np.isfinite(vjp(vs[0])).mean())
                    fresh, fresh_vjp = models.prepare(spec, theta, y)(x)
                    earlier, earlier_vjp = earlier_grads_and_vjp(spec, theta, x, y)
                    assert_bitwise(grads, fresh)
                    assert_bitwise(grads, earlier)
                    for v in vs + vs:             # a VJP leaves its saved values as they were
                        assert_bitwise(vjp(v), fresh_vjp(v))
                        assert_bitwise(vjp(v), earlier_vjp(v))
        assert np.median(finite) > 0.5            # the values keep most rounding visible

    @pytest.mark.parametrize("spec", PREPARED_SPECS,
                             ids=lambda s: f"{s.kind}-p{s.input_dim}-c{s.num_classes}")
    def test_taken_rows_equal_those_rows_prepared(self, spec):
        rng = np.random.default_rng([spec.param_dim, spec.num_classes, 6])
        theta, y, (x,), (v, _) = prepared_instance(spec, rng, (5,), 1, n_x=1)
        prep = models.prepare(spec, theta, y)
        for rows in (np.array([0, 2, 3]), np.array([False, True, False, False, True])):
            with np.errstate(all="ignore"):
                grads, vjp = prep.take(rows)(x[rows])
                want, want_vjp = models.prepare(spec, theta[rows], y[rows])(x[rows])
                assert_bitwise(grads, want)
                assert_bitwise(vjp(v[rows]), want_vjp(v[rows]))

    @pytest.mark.parametrize("spec", PREPARED_SPECS,
                             ids=lambda s: f"{s.kind}-p{s.input_dim}-c{s.num_classes}")
    def test_values_written_into_theta_are_the_next_calls(self, spec):
        # a training loop prepares once and steps theta in place
        rng = np.random.default_rng([spec.param_dim, spec.num_classes, 7])
        for lead, decades in PREPARED_LEADS_AND_DECADES:
            theta, y, xs, vs = prepared_instance(spec, rng, lead, decades)
            buffer = theta.copy()
            prep = models.prepare(spec, buffer, y)
            for x, new in zip(xs, [theta, *vs]):
                buffer[...] = new
                with np.errstate(all="ignore"):
                    grads, vjp = prep(x)
                    fresh, fresh_vjp = models.prepare(spec, new, y)(x)
                    assert_bitwise(grads, fresh)
                    assert_bitwise(vjp(vs[0]), fresh_vjp(vs[0]))

    def test_shapes_checked_once_and_per_x(self):
        spec = models.ModelSpec("mlp1", 2, hidden_dim=3)
        theta, y = np.zeros((4, spec.param_dim)), np.zeros((4, 5))
        with pytest.raises(ConfigurationError, match="param vector shape"):
            models.prepare(spec, theta[:3], y)
        with pytest.raises(ConfigurationError, match="non-empty"):
            models.prepare(spec, theta, y[:, :0])
        prep = models.prepare(spec, theta, y)
        with pytest.raises(ConfigurationError, match="feature dim"):
            prep(np.zeros((4, 5, 3)))
        with pytest.raises(ConfigurationError, match="count mismatch"):
            prep(np.zeros((4, 6, 2)))
