import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (assert_same_bits, golden_minimize_utility_lambda, he_utility_upper_bound,
                      utility_upper_bound)
from fedtradeoff import bounds, datagen
from fedtradeoff.errors import ConfigurationError


class TestPrivacyUpperBound:
    def test_gamma_two_kills_log_term(self):
        assert bounds.privacy_upper_bound(2.0, 5, 1.0, 1.0, 1.0) == 0.5

    def test_zero_distortion(self):
        assert bounds.privacy_upper_bound(2.0, 5, 1.0, 1.0, 0.0) == 1.0

    def test_substitution_example(self):
        v = bounds.privacy_upper_bound(2 * math.exp(-2), 2, 2.0, 1.0, 1.0)
        assert v == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(ConfigurationError):
            bounds.privacy_upper_bound(0.1, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            bounds.privacy_upper_bound(0.1, 5, 1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            bounds.privacy_upper_bound(2.5, 5, 1.0, 1.0, 1.0)

    @given(gamma=st.floats(0.01, 1.99), m=st.integers(1, 10**6),
           c_a=st.floats(0.01, 10.0), cap=st.floats(0.1, 10.0),
           d1=st.floats(0.0, 10.0), d2=st.floats(0.0, 10.0))
    def test_strictly_decreasing_in_distortion(self, gamma, m, c_a, cap, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        if hi - lo > 1e-9 * (1.0 + hi):    # separation beyond float granularity
            assert (bounds.privacy_upper_bound(gamma, m, c_a, cap, hi)
                    < bounds.privacy_upper_bound(gamma, m, c_a, cap, lo))

    @given(gamma=st.floats(0.01, 1.99), m1=st.integers(1, 10**6),
           m2=st.integers(1, 10**6), c_a=st.floats(0.01, 10.0),
           cap=st.floats(0.1, 10.0), dup=st.floats(0.0, 10.0))
    def test_strictly_decreasing_in_one_over_m(self, gamma, m1, m2, c_a, cap, dup):
        lo, hi = min(m1, m2), max(m1, m2)
        if hi > lo * 1.001:
            assert (bounds.privacy_upper_bound(gamma, hi, c_a, cap, dup)
                    < bounds.privacy_upper_bound(gamma, lo, c_a, cap, dup))

    def test_precondition_threshold(self):
        assert bounds.privacy_precondition_threshold(2.0, 3.0, 1.5, 16) == \
            pytest.approx(2 * 2.0 * 3.0 / (1.5 * 4.0))


class TestUtilityUpperBound:
    def test_spec_substitution(self):
        # d=1, D=2, lam=2 -> N=4; eta=1 kills the ln term
        c_const, m_const, m = 1.3, 2.0, 50
        v = utility_upper_bound(c_const, 2.0, 0.0, m_const, 1, 2.0, 1.0, m)
        assert v == pytest.approx(2 * c_const + m_const * math.sqrt(8 * math.log(2) / m),
                                  rel=1e-12)

    def test_large_m_limit_is_linear_part(self):
        v = utility_upper_bound(2.0, 1.0, 0.5, 1.0, 2, 1.0, 0.5, 10**12)
        assert v == pytest.approx(2.0 * 1.0 + 2.0 * 0.5, rel=1e-4)

    def test_lambda_must_exceed_delta_two(self):
        with pytest.raises(ConfigurationError):
            utility_upper_bound(1.0, 0.5, 0.5, 1.0, 2, 1.0, 0.5, 10)

    def test_monotone_decreasing_in_m(self):
        vals = [utility_upper_bound(1.0, 1.0, 0.2, 1.0, 3, 2.0, 0.1, m)
                for m in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]

    def test_monotone_increasing_in_delta_two(self):
        vals = [utility_upper_bound(1.0, 1.0, d2, 1.0, 3, 2.0, 0.1, 100)
                for d2 in (0.0, 0.3, 0.6)]
        assert vals[0] < vals[1] < vals[2]

    def test_overflow_safe(self):
        # tiny lambda -> astronomically large covering number -> inf, no crash
        v = utility_upper_bound(1.0, 1e-3, 0.0, 1.0, 10, 10.0, 0.1, 100)
        assert v == math.inf

    def test_he_equals_general_at_zero_bitwise_sampled(self):
        g = np.random.default_rng(0)
        for _ in range(1000):
            c_const = float(g.uniform(0.01, 5.0))
            lam = float(g.uniform(0.05, 5.0))
            m_const = float(g.uniform(0.01, 5.0))
            d = int(g.integers(1, 40))
            cap = float(g.uniform(0.1, 5.0))
            eta = float(g.uniform(0.01, 1.0))
            m = int(g.integers(1, 10**6))
            a = utility_upper_bound(c_const, lam, 0.0, m_const, d, cap, eta, m)
            b = he_utility_upper_bound(c_const, lam, m_const, d, cap, eta, m)
            assert a == b  # bit-for-bit

    # (C, lambda, ||delta||, M, d, D, eta, m) and the bounds at those arguments
    PINNED = [
        ((1.0, 1.0, 0.0, 1.0, 2, 2.0, 0.1, 32), 7.671231604745007, 7.671231604745007),
        ((0.5, 2.0, 0.3, 0.8, 2, 2.0, 1.0, 32), 1.816043688926158, 1.666043688926158),
        ((1.3, 0.7, 0.2, 2.0, 5, 1.0, 0.05, 100), 82.97537262074567, 82.71537262074567),
        ((2.0, 1e-3, 0.0, 1.0, 10, 10.0, 0.1, 100), math.inf, math.inf),
        ((0.02, 5.0, 4.5, 3.0, 8, 3.0, 0.9, 7), 7.656416975160837, 7.566416975160836),
        ((4.0, 1e-9, 0.0, 0.01, 1, 0.0, 1.0, 1), 0.016651096223153965, 0.016651096223153965),
        ((1e-6, 242.0, 0.0, 5.0, 10, 1.0, 0.05, 10**6), 0.029276543412452626,
         0.029276543412452626),
        ((0.3, 5.61, 5.0, 2.5, 42, 4.0, 0.5, 1000), 4.6841133519473885, 3.1841133519473894),
    ]

    @pytest.mark.parametrize("args, general, he", PINNED)
    def test_pinned_values(self, args, general, he):
        c_const, lam, _, m_const, d, cap, eta, m = args
        assert utility_upper_bound(*args) == general
        assert he_utility_upper_bound(c_const, lam, m_const, d, cap, eta, m) == he

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.1, 0.1, 1.0, 2, 2.0, 0.1, 32), "lambda must exceed delta_two"),
        ((0.0, 1.0, 0.1, 1.0, 2, 2.0, 0.1, 32), "C must be > 0"),
        ((1.0, 1.0, -0.1, 1.0, 2, 2.0, 0.1, 32), "delta_two must be >= 0"),
        ((1.0, 1.0, 0.1, 0.0, 2, 2.0, 0.1, 32), "M must be > 0"),
        ((1.0, 1.0, 0.1, 1.0, 2, 2.0, 0.1, 0), "sample size must be > 0"),
        ((1.0, 1.0, 0.1, 1.0, 2, 2.0, 1.5, 32), "eta must be in (0, 1]"),
        ((1.0, 1.0, 0.1, 1.0, 2, 2.0, 0.0, 32), "eta must be in (0, 1]"),
        ((1.0, 1.0, 0.1, 1.0, 0, 2.0, 0.1, 32), "d must be >= 1"),
        ((1.0, 1.0, 0.1, 1.0, 2, -1.0, 0.1, 32), "D must be >= 0"),
        # the first failing check is reported
        ((0.0, 0.05, 0.1, 1.0, 2, 2.0, 0.1, 32), "lambda must exceed delta_two"),
        ((0.0, 1.0, 0.1, 0.0, 2, 2.0, 0.1, 32), "C must be > 0"),
        ((1.0, 1.0, 0.1, 0.0, 2, -1.0, 0.1, 32), "M must be > 0"),
    ])
    def test_error_messages(self, args, message):
        with pytest.raises(ConfigurationError) as exc:
            utility_upper_bound(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("args, message", [
        ((1.0, 0.0, 1.0, 2, 2.0, 0.1, 32), "lambda must be > 0"),
        ((1.0, -1.0, 1.0, 2, 2.0, 0.1, 32), "lambda must be > 0"),
        ((0.0, 1.0, 1.0, 2, 2.0, 0.1, 32), "C must be > 0"),
        ((1.0, 1.0, 0.0, 2, 2.0, 0.1, 32), "M must be > 0"),
        ((1.0, 1.0, 1.0, 2, 2.0, 0.1, 0), "sample size must be > 0"),
        ((1.0, 1.0, 1.0, 2, 2.0, 1.5, 32), "eta must be in (0, 1]"),
        ((1.0, 1.0, 1.0, 0, 2.0, 0.1, 32), "d must be >= 1"),
        ((1.0, 1.0, 1.0, 2, -1.0, 0.1, 32), "D must be >= 0"),
        ((0.0, 0.0, 1.0, 2, 2.0, 0.1, 32), "lambda must be > 0"),
        ((0.0, 1.0, 0.0, 2, 2.0, 0.1, 32), "C must be > 0"),
    ])
    def test_he_error_messages(self, args, message):
        with pytest.raises(ConfigurationError) as exc:
            he_utility_upper_bound(*args)
        assert str(exc.value) == message


class TestLambdaMinimizer:
    def test_minimizer_respects_constraint_and_beats_grid(self):
        c_const, d2, m_const, d, cap, eta, m = 1.0, 0.3, 2.0, 4, 2.0, 0.1, 200
        lam, rhs = bounds.minimize_utility_lambda(c_const, d2, m_const, d, cap, eta, m)
        assert lam > d2
        for probe in np.geomspace(d2 + 1e-6, 50.0, 200):
            assert rhs <= utility_upper_bound(
                c_const, float(probe), d2, m_const, d, cap, eta, m) + 1e-9

    def test_zero_distortion_case(self):
        lam, rhs = bounds.minimize_utility_lambda(0.5, 0.0, 1.0, 2, 1.0, 0.1, 50)
        assert lam > 0 and np.isfinite(rhs)

    @pytest.mark.parametrize("args, want", [
        # (C, ||delta||, M, d, D, eta, m): results of the root search
        ((1.0, 0.0, 1.0, 2, 2.0, 0.1, 32), (1.7497685152159927, 2.847032872206904)),
        ((0.5, 0.3, 0.8, 2, 2.0, 1.0, 32), (1.9641636517622618, 1.8153442947143916)),
        # the bracket's top is quadrupled 3 and 2 times
        ((1e-9, 0.1, 1.0, 2, 2.0, 0.1, 32), (1194.92016883862, 0.5632054532026994)),
        ((1e-6, 0.0, 5.0, 10, 1.0, 0.05, 100), (242.75186458448667, 2.9036963377375633)),
        # log of the M term above 700 at every lambda: f falls over all 20
        # quadruplings of the top, 30 * 4^20, and the rhs is infinite
        ((2.0, 0.1, 1e305, 2, 2.0, 0.1, 32), (32985348833280.0, math.inf)),
        ((1.1, 0.05, 0.7, 2, 2.0, 0.1, 32), (1.6036245110552965, 2.7156873835108737)),
        ((0.3, 5.0, 2.5, 42, 4.0, 0.5, 1000), (5.610951756603774, 4.68411325189661)),
        # D = 0: the slope is C > 0 everywhere, and lambda is lo
        ((4.0, 0.0, 0.01, 1, 0.0, 1.0, 1), (1e-09, 0.016651096223153965)),
        ((0.02, 0.001, 3.0, 8, 3.0, 0.9, 7), (16.58025836177593, 5.860458847229151)),
    ])
    def test_pinned_minimum(self, args, want):
        assert bounds.minimize_utility_lambda(*args) == want

    def test_top_stops_growing_before_its_square_overflows(self):
        # the top, 1e151 at D = 1e150, is quadrupled 5 times to 1.024e154 and
        # taken as lambda: a sixth time its square would overflow (a
        # RuntimeWarning, which the suite's filter raises), and its slope at
        # lambda = inf would be NaN
        lam, rhs = bounds.minimize_utility_lambda(1e-10, 0.0, 1e300, 1000, 1e150, 1.0, 1)
        assert lam == 1e151 * 4.0 ** 5
        assert math.isfinite(rhs)
        # beside it, a row whose top never nears the cap keeps its one-row result
        lam, rhs = bounds.minimize_utility_lambda([1e-10, 1e-9], [0.0, 0.1], [1e300, 1.0],
                                                  [1000, 2], [1e150, 2.0], [1.0, 0.1], [1, 32])
        assert (lam[1], rhs[1]) == (1194.92016883862, 0.5632054532026994)

    @pytest.mark.parametrize("delta_two", [1e154, 1e300])
    def test_distortion_past_the_square_root_of_the_largest_float(self, delta_two):
        # the first top, 4 ||delta|| + 1, squares to inf (at 1e300 lo does
        # too): the slope there once warned of an overflow and a division by
        # zero, though phi(lo) < 0 makes lo the answer
        args = (1.0, delta_two, 1.5, 3, 2.0, 0.1, 16)
        lo = delta_two + 1e-9 * delta_two
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, rhs = bounds.minimize_utility_lambda(*args)
            assert lam == lo
            assert rhs == utility_upper_bound(args[0], lo, *args[1:])
        # beside a row that searches, each keeps its one-row result
        both = bounds.minimize_utility_lambda(*zip(args, (1.1, 0.05, 0.7, 2, 2.0, 0.1, 32)))
        assert [tuple(v.tolist()) for v in both] == [
            (lo, 1.6036245110552965), (rhs, 2.7156873835108737)]

    def test_first_top_past_the_square_root_of_the_largest_float(self):
        # the first top, 4 ||delta|| + 1 = 4e154, squares past the largest
        # float: taken as it is, u = 0 there, Newton starts from it (inf / inf)
        # and lambda is inf. Taken below 2^512, it stays above lo = 1.000000001e154
        args = (1e-300, 1e154, 1e300, 1000, 1e150, 1.0, 1)
        lo, top = 1e154 + 1e-9 * 1e154, np.nextafter(2.0 ** 512, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, rhs = bounds.minimize_utility_lambda(*args)
        assert lo <= lam <= top
        assert rhs == utility_upper_bound(args[0], float(lam), *args[1:])

    @pytest.mark.parametrize("big_c, delta_two", [(1e200, 1e200), (1e300, 1e8)],
                             ids=["product", "sum"])
    def test_linear_terms_past_the_largest_float(self, big_c, delta_two):
        # C ||delta||, then C lambda + C ||delta||, overflow: the rhs is inf,
        # as it is where the M term overflows, and once warned of the overflow
        args = (big_c, delta_two, 1.0, 2, 2.0, 0.1, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, rhs = bounds.minimize_utility_lambda(*args)
            assert rhs == math.inf == utility_upper_bound(big_c, float(lam), *args[1:])
        assert lam == delta_two + 1e-9 * delta_two

    # (C, ||delta||, M, d, D, eta, m) whose bracket's top is quadrupled 14
    # times, to 4.92e146 * 4^14 = 1.32e154, where dphi/du = ... + 1.5 / u
    # overflows: at the first C the slope is negative there too, so lambda is
    # that top; at the second it is positive, and Newton took a step of
    # f / inf = 0 there and stopped at the top, not at the root
    SLOPE_OVERFLOW = (0.0, 8.047892612148732e+235, 343, 4.9245500639647645e+144,
                      0.23356824100058138, 493663793)

    @pytest.mark.parametrize("big_c", [2.609754543573839e-138, 2.2947266569290642e-83],
                             ids=["unbracketed", "bracketed"])
    def test_slope_past_the_largest_float(self, big_c):
        row = (big_c, *self.SLOPE_OVERFLOW)
        top = (10.0 * (row[4] + 1.0)) * 4.0 ** 14
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, _ = bounds.minimize_utility_lambda(*row)
        if big_c < 1e-100:
            assert lam == top and self.log_h_over_c(*row, top) > 0
        else:
            assert top / 4.0 < lam < top
            assert (self.log_h_over_c(*row, lam * (1 - 1e-9)) >= 0
                    >= self.log_h_over_c(*row, lam * (1 + 1e-9)))

    @settings(derandomize=True)
    @given(st.lists(st.tuples(
        *[st.floats(-300, 300).map(lambda e: 10.0 ** e)] * 3, st.integers(1, 1000),
        st.one_of(st.just(0.0), st.floats(-300, 150).map(lambda e: 10.0 ** e)),
        st.one_of(st.just(1.0), st.floats(1e-300, 1.0)), st.integers(1, 10 ** 9)),
        min_size=1, max_size=5))
    def test_rows_over_the_whole_float_range(self, rows):
        # C, ||delta|| and M from 1e-300 to 1e300, D from 0 to the largest
        # diameter cap: no warning, lambda in [lo, the capped top], the rhs
        # the bound's at lambda, and each row its one-row search
        args = [np.array(col) for col in zip(*rows)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, rhs = bounds.minimize_utility_lambda(*args)
            alone = [bounds.minimize_utility_lambda(*row) for row in rows]
        for row, got, value, one in zip(rows, lam.tolist(), rhs.tolist(), alone):
            lo = row[1] + max(1e-9, 1e-9 * row[1])
            assert lo <= got <= max(lo, np.nextafter(2.0 ** 512, 0)), row
            assert value == utility_upper_bound(row[0], got, *row[1:]), row
            assert (got, value) == tuple(map(float, one)), row

    @staticmethod
    def argument_rows(n=2400, seed=25):
        """n seeded (C, ||delta||, M, d, D, eta, m) rows: C down to 1e-10 (tops
        quadrupled several times), ||delta|| = 0 in a fifth of them, eta = 1 in a
        fifth, D = 0 and an infinite rhs (M = 1e305) now and then."""
        rng = np.random.default_rng(seed)
        big_m = 10.0 ** rng.uniform(-3, 3, n)
        big_m[rng.random(n) < 0.02] = 1e305
        return (10.0 ** rng.uniform(-10, 1, n),
                np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-4, 1, n)),
                big_m, rng.integers(1, 60, n),
                np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0, 5, n)),
                np.where(rng.random(n) < 0.2, 1.0, rng.uniform(0.01, 1, n)),
                rng.integers(1, 2000, n))

    # rows far outside any scenario's: C and M down to 1e-300 with M/C up to
    # 1e110, ||delta|| up to 1e100 and D up to the largest diameter cap, so
    # brackets up to 160 decades wide in lambda
    EXTREME = tuple(np.array(c, dtype=np.float64) for c in zip(*(
        (c, delta_two, m_term, d, cap_d, eta, m)
        for (c, m_term), delta_two, d, cap_d, eta, m in itertools.product(
            ((1e-300, 1e-300), (1e-300, 1e-190), (1e-10, 1e100), (1e10, 1e-300)),
            (0.0, 1e-300, 1e50, 1e100), (1, 1000), (1e-300, 1.0, 1e60, datagen._MAX_DIAMETER),
            (1e-300, 1.0), (1, 10**9)))))

    def test_lockstep_rows_equal_the_scalar_search(self):
        # the search of each row alone
        args = self.argument_rows()
        want = [tuple(map(float, bounds.minimize_utility_lambda(*row)))
                for row in zip(*(a.tolist() for a in args))]
        assert sum(math.isinf(rhs) for _, rhs in want) > 0
        for block in (2400, 37):          # one block, and blocks that end mid-set
            got = []
            for s in range(0, len(want), block):
                lam, rhs = bounds.minimize_utility_lambda(*(a[s:s + block] for a in args))
                got += zip(lam.tolist(), rhs.tolist())
            assert got == want, block
        # one-row blocks, of floats and of one-element arrays
        for i in range(0, len(want), 24):
            row = [a[i] for a in args]
            for lam, rhs in (bounds.minimize_utility_lambda(*map(float, row)),
                             bounds.minimize_utility_lambda(*(a[i:i + 1] for a in args))):
                assert (lam.shape, rhs.shape) in (((), ()), ((1,), (1,)))
                assert (lam.item(), rhs.item()) == want[i], i

    def test_no_worse_than_the_golden_section(self):
        args = self.argument_rows()
        lam, rhs = bounds.minimize_utility_lambda(*args)
        want = np.array([golden_minimize_utility_lambda(*row)[1]
                         for row in zip(*(a.tolist() for a in args))])
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(rhs), finite) and (~finite).sum() == 53
        assert np.all(rhs[finite] <= want[finite] * (1.0 + 1e-14))
        assert np.all(lam > args[1])

    @staticmethod
    def log_h_over_c(big_c, delta_two, big_m, d, cap_d, eta, m, lam):
        """log(h / C) at lam, test-side in closed form: the bound's slope is
        C - h with h = T s 2D log(2d) / lam^3, T its M term and s the weight
        of log N in logaddexp(log(2 N ln 2), log(2 ln(1/eta))). -inf at D = 0."""
        if cap_d == 0:
            return -math.inf
        a = math.log(2.0 * math.log(2.0)) + (2.0 * cap_d / lam ** 2 + 1.0) * math.log(2 * d)
        b = math.log(2.0 * math.log(1.0 / eta)) if eta < 1.0 else -math.inf
        lae = max(a, b) + math.log1p(math.exp(-abs(a - b)))
        log_t = math.log(big_m) + 0.5 * (lae - math.log(m))
        return (log_t + (a - lae) + math.log(2.0 * cap_d * math.log(2 * d))
                - 3.0 * math.log(lam) - math.log(big_c))

    def test_slope_changes_sign_across_lambda(self):
        args = [np.concatenate(pair) for pair in zip(self.argument_rows(), self.EXTREME)]
        lam, _ = bounds.minimize_utility_lambda(*args)
        kinds = {"root": 0, "lo": 0, "top": 0}
        for row, got in zip(zip(*(a.tolist() for a in args)), lam.tolist()):
            delta_two, cap_d = row[1], row[4]
            lo = delta_two + max(1e-9, 1e-9 * delta_two)
            top = max(10.0 * (cap_d + 1.0), 4.0 * delta_two + 1.0) * 4.0 ** 20
            if got == lo and self.log_h_over_c(*row, lo) <= 0:
                kinds["lo"] += 1           # f' >= 0 at lo
            elif got == top and self.log_h_over_c(*row, top) >= 0:
                kinds["top"] += 1          # f' <= 0 over all the search tried
            else:
                assert (self.log_h_over_c(*row, got * (1 - 1e-9)) >= 0
                        >= self.log_h_over_c(*row, got * (1 + 1e-9))), row
                kinds["root"] += 1
        assert min(kinds.values()) > 50, kinds

    def test_expansions_and_newton_steps(self, monkeypatch):
        # every 6th row alone, its _slope calls counted: one at lo and the
        # first top, one per quadrupled top, then one per Newton step but the last
        calls, slope = [], bounds._slope
        monkeypatch.setattr(bounds, "_slope", lambda k, u: calls.append(1) or slope(k, u))
        grown, steps = set(), set()
        for row in zip(*(a[::6].tolist() for a in self.argument_rows())):
            calls.clear()
            bounds.minimize_utility_lambda(*row)
            lo = row[1] + max(1e-9, 1e-9 * row[1])
            if self.log_h_over_c(*row, lo) <= 0:
                assert len(calls) == 1     # lambda at lo
                continue
            top = max(10.0 * (row[4] + 1.0), 4.0 * row[1] + 1.0)
            g = next((g for g in range(21) if self.log_h_over_c(*row, top * 4.0 ** g) < 0), None)
            grown.add(g)
            if g is None:
                assert len(calls) == 21    # every top tried, and no Newton step
            else:
                steps.add(len(calls) - g)
        assert grown >= {0, 1, 2, 3, None}
        assert min(steps) >= 2 and max(steps) <= 12 and len(steps) >= 5, steps

    def test_a_row_of_bad_arguments_fails_the_block(self):
        with pytest.raises(ConfigurationError, match="M must be > 0"):
            bounds.minimize_utility_lambda([1.0, 1.0], 0.1, [1.0, 0.0], 2, 2.0, 0.1, 32)

    @pytest.mark.parametrize("args, message", [
        ((0.0, 0.1, 1.0, 2, 2.0, 0.1, 32), "C must be > 0"),
        ((1.0, -0.1, 1.0, 2, 2.0, 0.1, 32), "delta_two must be >= 0"),
        ((1.0, 0.1, 0.0, 2, 2.0, 0.1, 32), "M must be > 0"),
        ((1.0, 0.1, 1.0, 2, 2.0, 0.1, 0), "sample size must be > 0"),
        ((1.0, 0.1, 1.0, 2, 2.0, 1.5, 32), "eta must be in"),
        ((1.0, 0.1, 1.0, 0, 2.0, 0.1, 32), "d must be >= 1"),
        ((1.0, 0.1, 1.0, 2, -1.0, 0.1, 32), "D must be >= 0"),
    ])
    def test_arguments_checked_as_the_bound_checks_them(self, args, message):
        with pytest.raises(ConfigurationError, match=message):
            bounds.minimize_utility_lambda(*args)


# numpy's dispatch targets above X86_V3, switched off for a second process
ABOVE_X86_V3 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

DISPATCH_CHILD = """
import sys
import warnings
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from fedtradeoff import bounds
args = np.load(sys.argv[1])
lam, rhs = bounds.minimize_utility_lambda(*(args[f"arr_{i}"] for i in range(7)))
np.savez(sys.argv[2], lam=lam, rhs=rhs, x86_v4=__cpu_features__["X86_V4"])
"""


def test_search_keeps_its_bits_at_a_lower_numpy_dispatch(tmp_path):
    # numpy's SIMD exp and log round differently at X86_V4 and at X86_V3; the
    # search takes only libm's and correctly rounded arithmetic
    from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatched

    if "X86_V4" not in dispatched:
        pytest.skip(f"numpy does not dispatch X86_V4 here ({' '.join(dispatched)})")
    args = TestLambdaMinimizer.argument_rows()
    np.savez(tmp_path / "args.npz", *args)
    off = " ".join(target for target in ABOVE_X86_V3 if target in dispatched)
    subprocess.run([sys.executable, "-c", DISPATCH_CHILD, str(tmp_path / "args.npz"),
                    str(tmp_path / "out.npz")], check=True, timeout=120,
                   env=dict(os.environ, NPY_DISABLE_CPU_FEATURES=off))
    got = np.load(tmp_path / "out.npz")
    assert not got["x86_v4"]
    lam, rhs = bounds.minimize_utility_lambda(*args)
    assert_same_bits(got["lam"], lam)
    assert_same_bits(got["rhs"], rhs)


def make_inputs(k=3, gamma=0.05, eta=0.1, lam=1.0, rho=1.0, big_l=1.0,
                eps_p=None, eps_e=None, big_m=1.5, cap_d=2.0):
    est = datagen.ConstantsEstimate(c_a=1.2, c_b=2.5, big_c=0.8, big_m=big_m,
                                    cap_d=cap_d, c_0=0.5, c_2=1.0)
    return bounds.BoundInputs(
        constants=est, eta=eta, lam=lam, gamma=gamma,
        eps_p=np.array(eps_p if eps_p is not None else [0.5] * k),
        eps_e=np.array(eps_e if eps_e is not None else [20.0] * k), d=4, rho=rho, big_l=big_l)


class TestTradeoffs:
    def test_head_vanishes_with_full_leakage_and_gamma_one(self):
        inp = make_inputs(k=1, gamma=1.0, eps_p=[1.0])
        expected_tail = float(bounds._m_term(bounds._m_term_logs(1.5, 4, 2.0, 0.1, 20.0), 1.0))
        assert bounds.tradeoff_general(inp) == pytest.approx(expected_tail, rel=1e-12)
        assert bounds.tradeoff_randomization(inp) == pytest.approx(expected_tail, rel=1e-12)

    def test_doubling_eps_e_decreases_rhs(self):
        a = bounds.tradeoff_general(make_inputs(eps_e=[20.0] * 3))
        b = bounds.tradeoff_general(make_inputs(eps_e=[40.0] * 3))
        assert b < a

    def test_matches_independent_arithmetic(self):
        # spreadsheet-style recomputation with scalar arithmetic
        inp = make_inputs(k=2, gamma=0.1, eta=0.2, lam=1.5, big_l=1.3,
                          eps_p=[0.4, 0.7], eps_e=[10.0, 30.0])
        c = inp.constants
        coef = 2.0 * c.cap_d / c.c_a
        head = 0.0
        for k in range(2):
            head += coef * (1 - inp.eps_p[k]) + coef * math.sqrt(
                math.log(1 / inp.gamma[k]) / inp.eps_e[k])
        head *= c.big_c * 1.3 / 2
        n_cover = (2 * 4) ** (2 * c.cap_d / 1.5 ** 2 + 1)
        tail = c.big_m * math.sqrt((2 * n_cover * math.log(2)
                                    + 2 * math.log(1 / 0.2)) / 10.0)
        assert bounds.tradeoff_general(inp, client=0) == pytest.approx(head + tail,
                                                                       rel=1e-9)

    def test_randomization_matches_independent_arithmetic(self):
        inp = make_inputs(k=2, gamma=0.1, eta=0.2, lam=1.5, rho=0.7,
                          eps_p=[0.4, 0.7], eps_e=[10.0, 30.0])
        c = inp.constants
        coef = 2.0 * c.cap_d / c.c_a
        head = 0.0
        for k in range(2):
            head += coef * (1 - inp.eps_p[k]) + coef * math.sqrt(
                math.log(1 / inp.gamma[k]) / inp.eps_e[k])
        head *= (2.0 + 0.7) * c.big_c / 2
        n_cover = (2 * 4) ** (2 * c.cap_d / 1.5 ** 2 + 1)
        tail = c.big_m * math.sqrt((2 * n_cover * math.log(2)
                                    + 2 * math.log(1 / 0.2)) / 10.0)
        assert bounds.tradeoff_randomization(inp, client=0) == pytest.approx(
            head + tail, rel=1e-9)

    def test_rho_to_zero_matches_general_with_cl_as_2c(self):
        inp_rand = make_inputs(rho=1e-12)
        inp_gen = make_inputs(big_l=2.0)
        a = bounds.tradeoff_randomization(inp_rand)
        b = bounds.tradeoff_general(inp_gen)
        assert a == pytest.approx(b, rel=1e-9)

    def test_rho_positive_required(self):
        with pytest.raises(ConfigurationError):
            bounds.tradeoff_randomization(make_inputs(rho=-1.0))

    def test_probability_budget_vacuous_flag(self):
        inp = make_inputs(k=3, gamma=0.4, eta=0.2)
        assert inp.probability_budget() < 0

    # make_inputs arguments, then each client's general and randomization rhs
    @pytest.mark.parametrize("kw, general, randomization", [
        ({}, [73.85632780823762] * 3, [78.58711584034694] * 3),
        (dict(k=1, gamma=1.0, eps_p=[1.0]), [71.49093379218297], [71.49093379218297]),
        (dict(k=2, gamma=0.1, eta=0.2, lam=1.5, big_l=1.3, rho=0.7, eps_p=[0.4, 0.7],
              eps_e=[10.0, 30.0]),
         [12.938214981154708, 8.683711809897728], [16.031086793824652, 11.77658362256767]),
        (dict(k=4, gamma=[0.01, 0.2, 0.5, 1.0], eta=1.0, lam=0.2, big_l=2.0, rho=1e-12,
              eps_p=[0.0, 0.25, 0.9, 1.3], eps_e=[1.0, 2.0, 50.0, 7.0]),
         [7.129569886958932e+45, 5.041367214012063e+45, 1.0082734428024099e+45,
          2.6947241251068763e+45],
         [7.129569886958932e+45, 5.041367214012063e+45, 1.0082734428024099e+45,
          2.6947241251068763e+45]),
        (dict(lam=0.05, big_m=1e300, cap_d=4.0), [math.inf] * 3, [math.inf] * 3),
    ])
    def test_pinned_values(self, kw, general, randomization):
        inp = make_inputs(**kw)
        assert [bounds.tradeoff_general(inp, c) for c in range(len(general))] == general
        assert [bounds.tradeoff_randomization(inp, c)
                for c in range(len(randomization))] == randomization

    @pytest.mark.parametrize("kw, changed, client, general, randomization", [
        ({}, {}, 3, "client index out of range", "client index out of range"),
        ({}, {}, -1, "client index out of range", "client index out of range"),
        (dict(big_m=0.0), {}, 0, "M must be > 0", "M must be > 0"),
        ({}, dict(d=0), 0, "d must be >= 1", "d must be >= 1"),
        (dict(cap_d=-1.0), {}, 0, "D must be >= 0", "D must be >= 0"),
        (dict(lam=0.0), {}, 0, "lambda must be > 0", "lambda must be > 0"),
        (dict(lam=-1.0), {}, 0, "lambda must be > 0", "lambda must be > 0"),
        ({}, dict(eta=1.5), 0, "eta must be in (0, 1]", "eta must be in (0, 1]"),
        (dict(big_m=0.0, lam=0.0), {}, 0, "M must be > 0", "M must be > 0"),
        (dict(rho=0.0), {}, 0, None, "rho must be > 0"),
        (dict(rho=-1.0), {}, 5, "client index out of range", "rho must be > 0"),
        (dict(rho=math.nan), {}, 0, None, "rho must be > 0"),
        (dict(big_l=math.nan), {}, 0, "big_l must be > 0", None),
        (dict(big_l=-1.0), {}, 0, "big_l must be > 0", None),
        ({}, dict(eps_e=np.array([0.0, 20.0, 20.0])), 0, "eps_e must be positive",
         "eps_e must be positive"),
    ])
    def test_error_messages(self, kw, changed, client, general, randomization):
        # changed: fields set after construction, past BoundInputs' own checks
        inp = make_inputs(**kw)
        for name, value in changed.items():
            setattr(inp, name, value)
        for formula, message in ((bounds.tradeoff_general, general),
                                 (bounds.tradeoff_randomization, randomization)):
            if message is None:
                formula(inp, client)
                continue
            with pytest.raises(ConfigurationError) as exc:
                formula(inp, client)
            assert str(exc.value) == message

    def test_eps_e_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            make_inputs(eps_e=[0.5] * 3)


class TestPrivatePacSampleSize:
    def test_example_hundred(self):
        # gap 0.1, eta = e^-1 -> ln(1/eta) = 1 -> 100
        v = bounds.private_pac_sample_size(0.6, 0.0, 0.5, math.exp(-1))
        assert v == pytest.approx(100.0, rel=1e-9)

    def test_eta_one_degenerate_zero(self):
        assert bounds.private_pac_sample_size(1.0, 0.5, 1.0, 1.0) == 0.0

    def test_boundary_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            bounds.private_pac_sample_size(0.5, 0.0, 0.5, 0.1)

    def test_constant_factor_scales(self):
        a = bounds.private_pac_sample_size(0.6, 0.0, 0.5, 0.5, constant_factor=1.0)
        b = bounds.private_pac_sample_size(0.6, 0.0, 0.5, 0.5, constant_factor=3.0)
        assert b == pytest.approx(3 * a, rel=1e-12)
