import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fedtradeoff import datagen, experiment, models, rng as rngmod
from fedtradeoff.errors import ConfigurationError, EstimationError


def small_spec(seed=0, **kw):
    base = dict(num_clients=1, per_client_size=4, input_dim=2, num_classes=2,
                class_separation=2.0, diameter_cap=2.0, seed=seed)
    base.update(kw)
    return datagen.DatasetSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a = datagen.generate(small_spec(seed=7))
        b = datagen.generate(small_spec(seed=7))
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x) and np.array_equal(da.y, db.y)

    def test_distinct_seeds_differ(self):
        a = datagen.generate(small_spec(seed=7))[0]
        b = datagen.generate(small_spec(seed=8))[0]
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("seed", range(10))
    def test_diameter_capped(self, seed):
        spec = small_spec(seed=seed, num_clients=3, per_client_size=20, diameter_cap=1.5)
        datasets = datagen.generate(spec)
        allx = np.concatenate([d.x for d in datasets])
        assert datagen.diameter(allx) <= spec.diameter_cap

    def test_label_marginal_balanced_when_unseparated(self):
        spec = small_spec(seed=11, per_client_size=10000, class_separation=0.0)
        ds = datagen.generate(spec)[0]
        assert abs(np.mean(ds.y == 0) - 0.5) <= 0.02

    def test_client_count_and_sizes(self):
        datasets = datagen.generate(small_spec(num_clients=4, per_client_size=6))
        assert [d.client_id for d in datasets] == [0, 1, 2, 3]
        assert all(d.size == 6 for d in datasets)

    def test_fresh_sampler_same_distribution_support(self):
        spec = small_spec(seed=3, per_client_size=50)
        draw = datagen.fresh_sampler(spec, seed=3)
        x, y = draw(200)
        assert x.shape == (200, 2)
        assert np.all(np.linalg.norm(x, axis=1) <= spec.diameter_cap / 2 + 1e-12)


class TestDiameter:
    def test_single_point(self):
        assert datagen.diameter(np.array([[1.0, 2.0]])) == 0.0

    def test_three_four_five(self):
        assert datagen.diameter(np.array([[0.0, 0.0], [3.0, 4.0]])) == 5.0

    def test_matches_brute_force(self):
        g = rngmod.stream(5, 123)
        x = g.standard_normal((100, 3))
        best = 0.0
        for i in range(100):           # independent double loop
            for j in range(100):
                best = max(best, float(np.sqrt(np.sum((x[i] - x[j]) ** 2))))
        assert datagen.diameter(x) == pytest.approx(best, rel=0, abs=0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            datagen.diameter(np.empty((0, 2)))


class TestCoveringNumber:
    def test_examples(self):
        assert datagen.covering_number(1, 2.0, 2.0) == 4.0
        assert datagen.covering_number(2, 2.0, 1.0) == 1024.0
        assert datagen.covering_number(3, 0.0, 1.5) == 6.0

    def test_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            datagen.covering_number(2, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            datagen.covering_number(2, 1.0, -1.0)

    def test_log_variant_consistent(self):
        v = datagen.covering_number(3, 1.7, 0.8)
        assert math.log(v) == pytest.approx(datagen.log_covering_number(3, 1.7, 0.8), rel=1e-12)

    def test_overflow_goes_inf(self):
        assert datagen.covering_number(10, 50.0, 0.01) == math.inf
        assert np.isfinite(datagen.log_covering_number(10, 50.0, 0.01))

    @given(d=st.integers(1, 50), cap=st.floats(0.0, 20.0), lam=st.floats(0.05, 10.0),
           lam2=st.floats(0.05, 10.0))
    def test_monotone_in_lambda(self, d, cap, lam, lam2):
        lo, hi = min(lam, lam2), max(lam, lam2)
        assert (datagen.log_covering_number(d, cap, hi)
                <= datagen.log_covering_number(d, cap, lo) + 1e-12)

    @given(d=st.integers(1, 50), d2=st.integers(1, 50), cap=st.floats(0.0, 20.0),
           lam=st.floats(0.05, 10.0))
    def test_monotone_in_dim(self, d, d2, cap, lam):
        lo, hi = min(d, d2), max(d, d2)
        assert (datagen.log_covering_number(lo, cap, lam)
                <= datagen.log_covering_number(hi, cap, lam) + 1e-12)

    @given(cap=st.floats(0.0, 20.0), cap2=st.floats(0.0, 20.0), d=st.integers(1, 50),
           lam=st.floats(0.05, 10.0))
    def test_monotone_in_cap(self, cap, cap2, d, lam):
        lo, hi = min(cap, cap2), max(cap, cap2)
        assert (datagen.log_covering_number(d, lo, lam)
                <= datagen.log_covering_number(d, hi, lam) + 1e-12)


def scalar_estimate(model_spec, theta, datasets, num_pairs, quantile, delta_budget,
                    num_deltas, seed):
    """Oracle for estimate_constants: its sampling loops, one point at a time,
    drawing from the generator in the same order."""
    g = rngmod.stream(seed, rngmod.STREAM_ESTIMATE, 0)
    by_label = {}
    for ds in datasets:
        for xi, yi in zip(ds.x, ds.y):
            by_label.setdefault(int(yi), []).append(xi)
    labels = [lab for lab, pts in by_label.items() if len(pts) >= 2]
    ratios, skipped = [], 0
    for _ in range(num_pairs):
        lab = labels[int(g.integers(0, len(labels)))]
        pts = by_label[lab]
        i, j = g.choice(len(pts), size=2, replace=False)
        x1, x2 = pts[int(i)], pts[int(j)]
        g1 = models.per_example_grads(model_spec, theta, x1[None, :], np.array([lab]))[0]
        g2 = models.per_example_grads(model_spec, theta, x2[None, :], np.array([lab]))[0]
        dg = float(np.linalg.norm(g1 - g2))
        if dg == 0.0:
            skipped += 1
            continue
        ratios.append(float(np.linalg.norm(x1 - x2)) / dg)
    all_x = np.concatenate([ds.x for ds in datasets])
    all_y = np.concatenate([ds.y for ds in datasets])
    c_theta = 0.0
    base = models.loss(model_spec, theta, all_x, all_y)
    for _ in range(num_deltas):
        d1 = g.standard_normal(model_spec.param_dim)
        d1 *= delta_budget * g.uniform(0.05, 1.0) / np.linalg.norm(d1)
        l1 = models.loss(model_spec, theta + d1, all_x, all_y)
        c_theta = max(c_theta, abs(l1 - base) / float(np.linalg.norm(d1)))
    c_data = 0.0
    n = all_x.shape[0]
    for _ in range(min(num_deltas, n * (n - 1) // 2) or 1):
        i, j = int(g.integers(0, n)), int(g.integers(0, n))
        if i == j:
            continue
        dx = float(np.linalg.norm(all_x[i] - all_x[j]))
        if dx == 0.0:
            continue
        li = models.loss(model_spec, theta, all_x[i][None, :], all_y[i:i + 1])
        lj = models.loss(model_spec, theta, all_x[j][None, :], all_y[j:j + 1])
        c_data = max(c_data, abs(li - lj) / dx)
    big_m = max(abs(models.loss(model_spec, theta, xi[None, :], np.array([yi])))
                for xi, yi in zip(all_x, all_y))
    ratios = np.asarray(ratios)
    return {
        "c_a": float(np.quantile(ratios, quantile)),
        "c_b": float(np.quantile(ratios, 1.0 - quantile)),
        "big_c": max(c_theta, c_data, 1e-12), "big_m": max(big_m, 1e-12),
        "ratio_median": float(np.median(ratios)), "c_theta_side": c_theta,
        "c_data_side": c_data, "skip_rate": skipped / num_pairs,
        "pairs_used": len(ratios), "pairs_skipped_degenerate": skipped,
    }


class TestEstimateConstants:
    def _spec_and_data(self, seed=0, m=24):
        spec = models.ModelSpec("logistic", 2)
        datasets = datagen.generate(small_spec(seed=seed, per_client_size=m))
        theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT))
        return spec, theta, datasets

    def test_identical_points_estimation_error(self):
        spec = models.ModelSpec("logistic", 2)
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        ds = datagen.ClientDataset(client_id=0, x=x, y=np.array([1, 1]))
        with pytest.raises(EstimationError):
            datagen.estimate_constants(spec, np.array([0.3, -0.2]), [ds], num_pairs=10)

    def test_bracket_property_minmax_mode(self):
        # quantile 0 = min/max: every sampled ratio lies in [c_a, c_b]
        spec, theta, datasets = self._spec_and_data(seed=2)
        est = datagen.estimate_constants(spec, theta, datasets, num_pairs=100,
                                         quantile=0.0, seed=2)
        assert 0 < est.c_a <= est.meta["ratio_median"] <= est.c_b

    def test_quantile_bracket_contains_median(self):
        spec, theta, datasets = self._spec_and_data(seed=3)
        est = datagen.estimate_constants(spec, theta, datasets, num_pairs=200,
                                         quantile=0.05, seed=3)
        assert est.c_a <= est.meta["ratio_median"] <= est.c_b

    def test_median_ratio_matches_brute_force_loop(self):
        # recompute the ratio set with an independently coded loop
        spec, theta, datasets = self._spec_and_data(seed=4)
        est = datagen.estimate_constants(spec, theta, datasets, num_pairs=50,
                                         quantile=0.05, seed=4)
        by_label = {}
        for xi, yi in zip(datasets[0].x, datasets[0].y):
            by_label.setdefault(int(yi), []).append(xi)
        ratios = []
        for lab, pts in by_label.items():
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    g1 = models.grad_params(spec, theta, pts[i][None, :], np.array([lab]))
                    g2 = models.grad_params(spec, theta, pts[j][None, :], np.array([lab]))
                    dg = np.linalg.norm(g1 - g2)
                    if dg > 0:
                        ratios.append(np.linalg.norm(pts[i] - pts[j]) / dg)
        assert min(ratios) <= est.meta["ratio_median"] <= max(ratios)

    def test_widening_bracket_with_more_pairs(self):
        spec, theta, datasets = self._spec_and_data(seed=5)
        small = datagen.estimate_constants(spec, theta, datasets, num_pairs=20,
                                           quantile=0.0, seed=5)
        large = datagen.estimate_constants(spec, theta, datasets, num_pairs=400,
                                           quantile=0.0, seed=5)
        assert large.c_a <= small.c_a + 1e-12
        assert large.c_b >= small.c_b - 1e-12

    def test_invariant_ordering(self):
        spec, theta, datasets = self._spec_and_data(seed=6)
        est = datagen.estimate_constants(spec, theta, datasets, seed=6)
        assert 0 < est.c_a <= est.c_b
        assert est.big_c > 0 and est.big_m > 0 and est.cap_d > 0
        assert est.c_0 <= est.c_2

    def test_skip_rate_recorded(self):
        spec, theta, datasets = self._spec_and_data(seed=7)
        est = datagen.estimate_constants(spec, theta, datasets, num_pairs=40, seed=7)
        assert 0.0 <= est.meta["skip_rate"] < 1.0
        assert est.meta["pairs_used"] + est.meta["pairs_skipped_degenerate"] == 40

    @pytest.mark.parametrize("spec", [
        models.ModelSpec("linear", 2),
        models.ModelSpec("logistic", 2),
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("mlp1", 2, hidden_dim=4),
    ], ids=lambda s: f"{s.kind}-c{s.num_classes}")
    @pytest.mark.parametrize("seed", range(3))
    def test_batched_matches_scalar_loops(self, spec, seed):
        # every point appears twice, so some pairs are degenerate and skipped
        ds = datagen.generate(small_spec(seed=seed, per_client_size=6,
                                         num_classes=spec.num_classes))[0]
        ds = datagen.ClientDataset(0, np.concatenate([ds.x, ds.x]),
                                   np.concatenate([ds.y, ds.y]))
        theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT))
        kw = dict(num_pairs=60, quantile=0.1, delta_budget=1.5, num_deltas=24, seed=seed)
        est = datagen.estimate_constants(spec, theta, [ds], **kw)
        want = scalar_estimate(spec, theta, [ds], **kw)
        assert want["pairs_skipped_degenerate"] > 0
        got = {"c_a": est.c_a, "c_b": est.c_b, "big_c": est.big_c, "big_m": est.big_m,
               **{k: est.meta[k] for k in ("ratio_median", "c_theta_side", "c_data_side",
                                           "skip_rate", "pairs_used",
                                           "pairs_skipped_degenerate")}}
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
        assert est.cap_d == datagen.diameter(ds.x)
        assert (est.c_0, est.c_2) == (1.0, 1.0)
        assert est.big_m == experiment.exact_big_m(spec, theta, np.zeros(spec.param_dim), [ds])

    def test_envelope_constants_from_series(self):
        objectives = np.array([4.0, 1.0, 0.25, 0.04])
        c0, c2, cfit = datagen.attack_mismatch_envelope(objectives)
        s = np.cumsum(np.sqrt(objectives))
        ratios = s / np.sqrt(np.arange(1, 5))
        assert c0 == pytest.approx(ratios.min())
        assert c2 == pytest.approx(ratios.max())
        assert c0 <= cfit <= c2
