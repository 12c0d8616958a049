import numpy as np
import pytest

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


class TestLinearClosedForm:
    # L = 0.5 (theta.x - y)^2 with theta=(1,1), x=(1,2), y=0: residual 3
    def test_loss(self):
        spec = models.ModelSpec("linear", 2)
        assert models.loss(spec, np.array([1.0, 1.0]),
                           np.array([[1.0, 2.0]]), np.array([0.0])) == 4.5

    def test_grad_params(self):
        spec = models.ModelSpec("linear", 2)
        g = models.grad_params(spec, np.array([1.0, 1.0]),
                               np.array([[1.0, 2.0]]), np.array([0.0]))
        assert np.array_equal(g, np.array([3.0, 6.0]))

    def test_grad_input(self):
        spec = models.ModelSpec("linear", 2)
        g = models.grad_input(spec, np.array([1.0, 1.0]), np.array([1.0, 2.0]), 0.0)
        assert np.array_equal(g, np.array([3.0, 3.0]))


class TestLogisticClosedForm:
    def test_zero_weights_gives_ln2(self):
        spec = models.ModelSpec("logistic", 3)
        x = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0], [0.0, 0.1, -4.0]])
        y = np.array([0, 1, 1])
        assert models.loss(spec, np.zeros(3), x, y) == pytest.approx(np.log(2), abs=1e-15)

    def test_zero_weights_multiclass_gives_lnc(self):
        spec = models.ModelSpec("logistic", 2, num_classes=5)
        x = np.array([[1.0, -1.0]])
        assert models.loss(spec, np.zeros(10), x, np.array([3])) == pytest.approx(np.log(5))

    def test_binary_grad_at_zero(self):
        # (sigmoid(0) - 1) * x = -0.5 x
        spec = models.ModelSpec("logistic", 3)
        x = np.array([[2.0, 4.0, 6.0]])
        g = models.grad_params(spec, np.zeros(3), x, np.array([1]))
        assert np.allclose(g, -0.5 * x[0], atol=0, rtol=0)

    def test_input_grad_at_zero_weights_is_zero(self):
        spec = models.ModelSpec("logistic", 3)
        g = models.grad_input(spec, np.zeros(3), np.array([1.0, 2.0, 3.0]), 1)
        assert np.array_equal(g, np.zeros(3))


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
            worst = max(worst, models.finite_diff_check(spec, theta, x, y, 1e-5))
        assert worst <= 1e-5

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{s.param_dim}")
    def test_input_gradients_match(self, spec):
        worst = 0.0
        for seed in range(20):
            theta, x, y = draw_batch(spec, seed, m=1)
            worst = max(worst, models.finite_diff_check_input(spec, theta, x[0], y[0], 1e-5))
        assert worst <= 1e-5

    def test_linear_is_exact_to_rounding(self):
        spec = models.ModelSpec("linear", 3)
        theta, x, y = draw_batch(spec, 0)
        assert models.finite_diff_check(spec, theta, x, y, 1e-5) <= 1e-8

    def test_zero_step_rejected(self):
        spec = models.ModelSpec("linear", 2)
        with pytest.raises(ConfigurationError):
            models.finite_diff_check(spec, np.zeros(2), np.ones((1, 2)), np.zeros(1), 0.0)


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
            assert models.loss(spec, theta, x, y) == pytest.approx(ref, rel=1e-12)


class TestBatchSemantics:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_loss_permutation_invariant(self, spec):
        theta, x, y = draw_batch(spec, 3)
        perm = rngmod.stream(1, 1).permutation(x.shape[0])
        assert models.loss(spec, theta, x, y) == pytest.approx(
            models.loss(spec, theta, x[perm], y[perm]), rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_batch_grad_is_mean_of_singles(self, spec):
        theta, x, y = draw_batch(spec, 5)
        batch = models.grad_params(spec, theta, x, y)
        singles = np.mean([models.grad_params(spec, theta, x[i][None, :], y[i:i + 1])
                           for i in range(x.shape[0])], axis=0)
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
    def test_bit_identical_recomputation(self, spec):
        theta, x, y = draw_batch(spec, 7)
        a = models.grad_params(spec, theta, x, y)
        b = models.grad_params(spec, theta, x, y)
        assert np.array_equal(a, b)
        ga = models.grad_input(spec, theta, x[0], y[0])
        gb = models.grad_input(spec, theta, x[0], y[0])
        assert np.array_equal(ga, gb)

    def test_dimension_mismatch_rejected(self):
        spec = models.ModelSpec("linear", 3)
        with pytest.raises(ConfigurationError):
            models.loss(spec, np.zeros(3), np.ones((2, 4)), np.zeros(2))
        with pytest.raises(ConfigurationError):
            models.loss(spec, np.zeros(4), np.ones((2, 3)), np.zeros(2))

    def test_empty_batch_rejected(self):
        spec = models.ModelSpec("linear", 3)
        with pytest.raises(ConfigurationError):
            models.loss(spec, np.zeros(3), np.empty((0, 3)), np.empty(0))

    @pytest.mark.parametrize("spec", ALL_SPECS[1:], ids=lambda s: s.kind)
    def test_losses_nonnegative(self, spec):
        theta, x, y = draw_batch(spec, 11)
        assert models.loss(spec, theta, x, y) >= 0.0


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


def _binary_grad_input_scalar(theta, x, y):
    # the earlier binary-logistic grad_input: a scalar two-exp sigmoid
    z = float(x @ theta)
    s = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    return (s - y) * theta


class TestGradInputSigmoid:
    def test_binary_bit_identical_to_scalar_formula(self):
        # one feature and theta = 1, so the logit is the grid value itself
        spec = models.ModelSpec("logistic", 1)
        theta = np.array([1.0])
        z = np.concatenate([np.linspace(-800.0, 800.0, 2001),
                            [0.0, -0.0, 709.8, -709.8]])
        for zi in z:
            for y in (0, 1):
                got = models.grad_input(spec, theta, np.array([zi]), y)
                want = _binary_grad_input_scalar(theta, np.array([zi]), float(y))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (zi, y)
