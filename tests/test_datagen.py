import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (assert_same_bits, covering_number, fresh_sampler, grad_params,
                      log_covering_number, mean_loss, row_scan_diameter, sample_pairs)
from fedtradeoff import datagen, experiment, models, rng as rngmod
from fedtradeoff.errors import ConfigurationError, EstimationError, NumericError


def small_spec(**kw):
    base = dict(num_clients=1, per_client_size=4, input_dim=2, num_classes=2,
                class_separation=2.0, diameter_cap=2.0)
    base.update(kw)
    return datagen.DatasetSpec(**base)


class TestGenerate:
    def test_deterministic(self):
        a, = datagen.generate_batch(small_spec(), [7])
        b, = datagen.generate_batch(small_spec(), [7])
        for da, db in zip(a, b):
            assert np.array_equal(da.x, db.x) and np.array_equal(da.y, db.y)

    def test_distinct_seeds_differ(self):
        (a,), (b,) = datagen.generate_batch(small_spec(), [7, 8])
        assert not np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("seed", range(10))
    def test_diameter_capped(self, seed):
        spec = small_spec(num_clients=3, per_client_size=20, diameter_cap=1.5)
        datasets, = datagen.generate_batch(spec, [seed])
        allx = np.concatenate([d.x for d in datasets])
        assert datagen._diameters(allx[None])[0] <= spec.diameter_cap

    def test_label_marginal_balanced_when_unseparated(self):
        spec = small_spec(per_client_size=10000, class_separation=0.0)
        (ds,), = datagen.generate_batch(spec, [11])
        assert abs(np.mean(ds.y == 0) - 0.5) <= 0.02

    def test_client_count_and_sizes(self):
        datasets, = datagen.generate_batch(small_spec(num_clients=4, per_client_size=6), [0])
        assert [d.client_id for d in datasets] == [0, 1, 2, 3]
        assert all(d.size == 6 for d in datasets)

    def test_fresh_draws_same_distribution_support(self):
        spec = small_spec(per_client_size=50)
        x, y = next(datagen.fresh_draws(spec, [3], [None], 200))
        assert x.shape == (200, 2)
        assert np.all(np.linalg.norm(x, axis=1) <= spec.diameter_cap / 2 + 1e-12)


def per_example_draws(spec, centers, g, n):
    """The per-example rejection loop data stream v3 replaced: a label, then
    normal vectors around its center until one lies inside the raw radius."""
    xs = np.empty((n, spec.input_dim))
    ys = np.empty(n, dtype=np.int64)
    for i in range(n):
        label = int(g.integers(0, spec.num_classes))
        while True:
            raw = centers[label] + g.standard_normal(spec.input_dim)
            if np.linalg.norm(raw) <= datagen._RAW_RADIUS:
                break
        xs[i] = raw * ((spec.diameter_cap / 2.0) / datagen._RAW_RADIUS)
        ys[i] = label
    return xs, ys


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestDataStreamV3:
    # p = 3, 4 classes at separation 5: about 12% of first normal draws fall
    # outside the raw radius and are redrawn
    SPEC = datagen.DatasetSpec(num_clients=1, per_client_size=20000, input_dim=3,
                               num_classes=4, class_separation=5.0)

    def test_same_law_as_the_per_example_loop(self):
        n = self.SPEC.per_client_size
        (ds,), = datagen.generate_batch(self.SPEC, [0])
        x, y = ds.x, ds.y
        ox, oy = per_example_draws(self.SPEC, ds.centers, rngmod.stream(1, 999), n)
        for c in range(self.SPEC.num_classes):
            f, of = np.mean(y == c), np.mean(oy == c)
            pooled = (f + of) / 2
            assert abs(f - of) <= 4 * math.sqrt(pooled * (1 - pooled) * 2 / n), c
            a, b = x[y == c], ox[oy == c]
            se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
            assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 4 * se), c

    def test_redraws_happen_at_this_separation(self):
        g = rngmod.stream(2, 999)
        y = g.integers(0, self.SPEC.num_classes, self.SPEC.per_client_size)
        centers = datagen._class_centers_batch(
            self.SPEC, [rngmod.stream(0, rngmod.STREAM_DATA, 0, 0)])[0]
        raw = centers[y] + g.standard_normal((len(y), self.SPEC.input_dim))
        assert 0.10 < np.mean(np.linalg.norm(raw, axis=1) > datagen._RAW_RADIUS) < 0.14

    @pytest.mark.parametrize("cap", [2.0, 0.5])      # raw-to-ball scales 1/4 and 1/16 are exact
    @pytest.mark.parametrize("separation", [0.0, 5.0, 8.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_row_inside_the_ball(self, cap, separation, seed):
        spec = datagen.DatasetSpec(num_clients=3, per_client_size=500, input_dim=3,
                                   num_classes=4, class_separation=separation,
                                   diameter_cap=cap)
        xs = [ds.x for ds in datagen.generate_batch(spec, [seed])[0]] + [
            next(datagen.fresh_draws(spec, [seed], [None], n))[0] for n in (1, 700)]
        for x in xs:
            assert np.all(np.linalg.norm(x, axis=1) <= cap / 2)

    def test_pinned_draws(self):
        # a silent change of the draw order moves these digests
        spec = datagen.DatasetSpec(num_clients=2, per_client_size=32, input_dim=3,
                                   num_classes=4, class_separation=5.0)
        datasets, = datagen.generate_batch(spec, [0])
        assert digest(*[a for ds in datasets for a in (ds.x, ds.y)]) == (
            "44cec56a8f4ccbcdfc0ca7b5906c67cf7224927e368e2e70e36def73148a17dc")
        assert digest(*next(datagen.fresh_draws(spec, [0], [None], 400))) == (
            "3474649d2adca4123ad2dabf266bfcbd156519429a2b53ac744401dd0410311d")


def diameter(x):
    """The max pairwise distance of one row of (m, p) points, as a batch of one."""
    return datagen._diameters(np.asarray(x, dtype=np.float64)[None])[0]


class TestDiameter:
    def test_single_point(self):
        assert diameter([[1.0, 2.0]]) == 0.0

    def test_three_four_five(self):
        assert diameter([[0.0, 0.0], [3.0, 4.0]]) == 5.0

    def test_matches_brute_force(self):
        g = rngmod.stream(5, 123)
        x = g.standard_normal((100, 3))
        best = 0.0
        for i in range(100):           # independent double loop
            for j in range(100):
                best = max(best, float(np.sqrt(np.sum((x[i] - x[j]) ** 2))))
        assert diameter(x) == pytest.approx(best, rel=0, abs=0)

    @pytest.mark.parametrize("m", [1, 2, 17, 300])
    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_bit_identical_to_the_row_scan(self, m, p):
        x = rngmod.stream(m, p, 124).standard_normal((m, p)) * 10.0 ** np.arange(-3, p - 3)
        assert diameter(x) == row_scan_diameter(x)
        dup = np.concatenate([x, x[::-1]])               # every point twice
        assert diameter(dup) == row_scan_diameter(dup) == row_scan_diameter(x)
        assert diameter(np.repeat(x[:1], 5, axis=0)) == 0.0

    def test_blocks_cover_every_pair(self, monkeypatch):
        x = rngmod.stream(5, 125).standard_normal((40, 3))
        want = diameter(x)
        for budget in (1, 8 * 40 * 3, 8 * 40 * 3 * 7):   # 1, 1 and 7 rows per block
            monkeypatch.setattr(datagen, "_BLOCK_BYTES", budget)
            assert diameter(x) == want


class TestCoveringNumber:
    def test_examples(self):
        assert covering_number(1, 2.0, 2.0) == 4.0
        assert covering_number(2, 2.0, 1.0) == 1024.0
        assert covering_number(3, 0.0, 1.5) == 6.0

    def test_bad_lambda(self):
        with pytest.raises(ConfigurationError):
            covering_number(2, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            covering_number(2, 1.0, -1.0)

    def test_log_variant_consistent(self):
        v = covering_number(3, 1.7, 0.8)
        assert math.log(v) == pytest.approx(log_covering_number(3, 1.7, 0.8), rel=1e-12)

    def test_overflow_goes_inf(self):
        assert covering_number(10, 50.0, 0.01) == math.inf
        assert np.isfinite(log_covering_number(10, 50.0, 0.01))

    @given(d=st.integers(1, 50), cap=st.floats(0.0, 20.0), lam=st.floats(0.05, 10.0),
           lam2=st.floats(0.05, 10.0))
    def test_monotone_in_lambda(self, d, cap, lam, lam2):
        lo, hi = min(lam, lam2), max(lam, lam2)
        assert (log_covering_number(d, cap, hi)
                <= log_covering_number(d, cap, lo) + 1e-12)

    @given(d=st.integers(1, 50), d2=st.integers(1, 50), cap=st.floats(0.0, 20.0),
           lam=st.floats(0.05, 10.0))
    def test_monotone_in_dim(self, d, d2, cap, lam):
        lo, hi = min(d, d2), max(d, d2)
        assert (log_covering_number(lo, cap, lam)
                <= log_covering_number(hi, cap, lam) + 1e-12)

    @given(cap=st.floats(0.0, 20.0), cap2=st.floats(0.0, 20.0), d=st.integers(1, 50),
           lam=st.floats(0.05, 10.0))
    def test_monotone_in_cap(self, cap, cap2, d, lam):
        lo, hi = min(cap, cap2), max(cap, cap2)
        assert (log_covering_number(d, lo, lam)
                <= log_covering_number(d, hi, lam) + 1e-12)


def estimate(model_spec, theta, datasets, num_pairs=200, quantile=0.05, **options):
    """The estimate at one probe, a batch of one; its error raised."""
    row, = datagen.estimate_constants_batch(
        model_spec, [datagen.Probe(theta, datasets, **options)], num_pairs, quantile)
    return datagen.constants_of(row)


def scalar_estimate(model_spec, theta, datasets, num_pairs, quantile, delta_budget,
                    num_deltas, seed):
    """Oracle for an estimate row: its scoring loops, one point at a time,
    over the same array draws from the generator (estimate stream v2)."""
    g = rngmod.stream(seed, rngmod.STREAM_ESTIMATE, 0)
    by_label = {}
    for ds in datasets:
        for xi, yi in zip(ds.x, ds.y):
            by_label.setdefault(int(yi), []).append(xi)
    labels = [lab for lab, pts in by_label.items() if len(pts) >= 2]
    ratios, skipped = [], 0
    ks = g.integers(0, len(labels), num_pairs)
    sizes = np.array([len(by_label[lab]) for lab in labels])[ks]
    firsts = g.integers(0, sizes)
    seconds = g.integers(0, sizes - 1)
    for k, i, j in zip(ks, firsts, seconds):
        lab = labels[k]
        pts = by_label[lab]
        x1, x2 = pts[i], pts[j + (j >= i)]
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
    base = mean_loss(model_spec, theta, all_x, all_y)
    normals = g.standard_normal((num_deltas, model_spec.param_dim))
    scales = g.uniform(0.05, 1.0, num_deltas)
    for d1, u in zip(normals, scales):
        d1 = d1 * (delta_budget * u / np.linalg.norm(d1))
        l1 = mean_loss(model_spec, theta + d1, all_x, all_y)
        c_theta = max(c_theta, abs(l1 - base) / float(np.linalg.norm(d1)))
    c_data = 0.0
    n = all_x.shape[0]
    for i, j in g.integers(0, n, size=(min(num_deltas, n * (n - 1) // 2) or 1, 2)):
        if i == j:
            continue
        dx = float(np.linalg.norm(all_x[i] - all_x[j]))
        if dx == 0.0:
            continue
        li = mean_loss(model_spec, theta, all_x[i][None, :], all_y[i:i + 1])
        lj = mean_loss(model_spec, theta, all_x[j][None, :], all_y[j:j + 1])
        c_data = max(c_data, abs(li - lj) / dx)
    big_m = max(abs(mean_loss(model_spec, theta, xi[None, :], np.array([yi])))
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
        datasets, = datagen.generate_batch(small_spec(per_client_size=m), [seed])
        theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT))
        return spec, theta, datasets

    def test_identical_points_estimation_error(self):
        spec = models.ModelSpec("logistic", 2)
        x = np.array([[0.5, 0.5], [0.5, 0.5]])
        ds = datagen.ClientDataset(client_id=0, x=x, y=np.array([1, 1]))
        with pytest.raises(EstimationError):
            estimate(spec, np.array([0.3, -0.2]), [ds], num_pairs=10)

    def test_bracket_property_minmax_mode(self):
        # quantile 0 = min/max: every sampled ratio lies in [c_a, c_b]
        spec, theta, datasets = self._spec_and_data(seed=2)
        est = estimate(spec, theta, datasets, num_pairs=100, quantile=0.0, seed=2)
        assert 0 < est.c_a <= est.meta["ratio_median"] <= est.c_b

    def test_quantile_bracket_contains_median(self):
        spec, theta, datasets = self._spec_and_data(seed=3)
        est = estimate(spec, theta, datasets, num_pairs=200, quantile=0.05, seed=3)
        assert est.c_a <= est.meta["ratio_median"] <= est.c_b

    def test_median_ratio_matches_brute_force_loop(self):
        # recompute the ratio set with an independently coded loop
        spec, theta, datasets = self._spec_and_data(seed=4)
        est = estimate(spec, theta, datasets, num_pairs=50, quantile=0.05, seed=4)
        by_label = {}
        for xi, yi in zip(datasets[0].x, datasets[0].y):
            by_label.setdefault(int(yi), []).append(xi)
        ratios = []
        for lab, pts in by_label.items():
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    g1 = grad_params(spec, theta, pts[i][None, :], np.array([lab]))
                    g2 = grad_params(spec, theta, pts[j][None, :], np.array([lab]))
                    dg = np.linalg.norm(g1 - g2)
                    if dg > 0:
                        ratios.append(np.linalg.norm(pts[i] - pts[j]) / dg)
        assert min(ratios) <= est.meta["ratio_median"] <= max(ratios)

    def test_widening_bracket_with_more_pairs(self):
        spec, theta, datasets = self._spec_and_data(seed=5)
        small = estimate(spec, theta, datasets, num_pairs=20, quantile=0.0, seed=5)
        large = estimate(spec, theta, datasets, num_pairs=400, quantile=0.0, seed=5)
        assert large.c_a <= small.c_a + 1e-12
        assert large.c_b >= small.c_b - 1e-12

    def test_invariant_ordering(self):
        spec, theta, datasets = self._spec_and_data(seed=6)
        est = estimate(spec, theta, datasets, seed=6)
        assert 0 < est.c_a <= est.c_b
        assert est.big_c > 0 and est.big_m > 0 and est.cap_d > 0
        assert est.c_0 <= est.c_2

    def test_floors_leave_only_the_ratio_bracket_to_check(self):
        # C and M are floored at 1e-12, a zero D is taken as 1 and c_2 is
        # raised to c_0, so an estimate can fail only 0 < c_a <= c_b
        probe = datagen.Probe(np.zeros(3), [], attack_objectives=np.ones(4))

        def assemble(bracket, parts):
            return datagen._assemble(probe, 10, 0.05, np.ones(10), bracket, (0.5, 0.25, 0.1),
                                     *parts)
        est = assemble((1.0, 2.0, 1.5), (0.0, 0.0, 0.0, 0.0))
        assert (est.big_c, est.big_m, est.cap_d, est.c_0, est.c_2) == (
            1e-12, 1e-12, 1.0, 0.5, 0.5)
        est = assemble((1.0, 2.0, 1.5), (math.nan,) * 4)       # NaN parts pass as they are
        assert all(math.isnan(v) for v in (est.big_c, est.big_m, est.cap_d))
        for bracket in ((0.0, 1.0, 0.5), (math.nan, 1.0, 1.0), (2.0, 1.0, 1.5)):
            with pytest.raises(EstimationError, match="need 0 < c_a <= c_b"):
                assemble(bracket, (1.0, 1.0, 1.0, 1.0))

    def test_skip_rate_recorded(self):
        spec, theta, datasets = self._spec_and_data(seed=7)
        est = estimate(spec, theta, datasets, num_pairs=40, seed=7)
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
        (ds,), = datagen.generate_batch(
            small_spec(per_client_size=6, num_classes=spec.num_classes), [seed])
        ds = datagen.ClientDataset(0, np.concatenate([ds.x, ds.x]),
                                   np.concatenate([ds.y, ds.y]))
        theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT))
        kw = dict(num_pairs=60, quantile=0.1, delta_budget=1.5, seed=seed)
        est = estimate(spec, theta, [ds], **kw)
        want = scalar_estimate(spec, theta, [ds], num_deltas=datagen._NUM_DELTAS, **kw)
        assert want["pairs_skipped_degenerate"] > 0
        got = {"c_a": est.c_a, "c_b": est.c_b, "big_c": est.big_c, "big_m": est.big_m,
               **{k: est.meta[k] for k in ("ratio_median", "c_theta_side", "c_data_side",
                                           "skip_rate", "pairs_used",
                                           "pairs_skipped_degenerate")}}
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=0), key
        assert est.cap_d == diameter(ds.x)
        assert (est.c_0, est.c_2) == (1.0, 1.0)
        assert est.big_m == experiment.exact_big_m(spec, theta, np.zeros(spec.param_dim),
                                                   ds.x, ds.y)

    def test_pinned_v2_estimate(self):
        # estimate stream v2 at logistic, seed 0, on data stream v3's data: a
        # silent change of the draw order or of the scoring arithmetic moves this repr
        spec, theta, datasets = self._spec_and_data(seed=0)
        est = estimate(spec, theta, datasets, seed=0)
        assert repr(est) == (
            "ConstantsEstimate(c_a=1.9730635063329232, c_b=2.8886442424914773, "
            "big_c=4.947852398304605, big_m=0.8136677050466931, "
            "cap_d=1.68962109179969, c_0=1.0, c_2=1.0, meta={'num_pairs': 200, "
            "'pairs_used': 200, 'pairs_skipped_degenerate': 0, 'skip_rate': 0.0, "
            "'quantile': 0.05, 'ratio_median': 2.3664105812401046, "
            "'c_theta_side': 0.15002250354021882, 'c_data_side': 4.947852398304605, "
            "'delta_budget': 1.0, 'c_fit': None, 'pilot_iters': 0})")

    @pytest.mark.parametrize("spec", [
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("mlp1", 2, hidden_dim=4),
    ], ids=lambda s: s.kind)
    def test_chunked_parameter_side_equals_one_stack(self, spec, monkeypatch):
        ds, = datagen.generate_batch(
            small_spec(per_client_size=10, num_classes=spec.num_classes), [1])
        theta = models.init_params(spec, rngmod.stream(1, rngmod.STREAM_INIT))
        want = estimate(spec, theta, ds, num_pairs=20, seed=1)
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", 1)   # one perturbed model per chunk
        got = estimate(spec, theta, ds, num_pairs=20, seed=1)
        assert repr(got) == repr(want)

    def test_non_finite_perturbed_loss_raises(self):
        spec = models.ModelSpec("linear", 2)
        # finite moves of norm < 1e150 whose squared residuals overflow
        ds = datagen.ClientDataset(0, 1e10 * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                                   np.array([1, 1, 0]))
        with pytest.raises(NumericError, match="non-finite loss"):
            estimate(spec, np.array([0.3, -0.2]), [ds], delta_budget=1e150)

    @pytest.mark.parametrize("budget", [1e308, math.inf])
    def test_overflowing_parameter_move_raises(self, budget):
        # the moves' scales overflow: no RuntimeWarning, a NumericError
        spec, theta, datasets = self._spec_and_data()
        with pytest.raises(NumericError, match="non-finite parameter move"):
            estimate(spec, theta, datasets, delta_budget=budget)

    @pytest.mark.parametrize("budget", [0.0, -1.0, math.nan])
    def test_budget_not_positive_rejected(self, budget):
        spec, theta, datasets = self._spec_and_data()
        with pytest.raises(ConfigurationError, match="delta_budget must be > 0"):
            estimate(spec, theta, datasets, delta_budget=budget)

    def test_envelope_constants_from_series(self):
        objectives = np.array([4.0, 1.0, 0.25, 0.04])
        (c0,), (c2,), (cfit,) = datagen.attack_mismatch_envelope(objectives[None])
        s = np.cumsum(np.sqrt(objectives))
        ratios = s / np.sqrt(np.arange(1, 5))
        assert c0 == pytest.approx(ratios.min())
        assert c2 == pytest.approx(ratios.max())
        assert c0 <= cfit <= c2


def draw_rows(labels, num_pairs, seeds, separate=False, **options):
    """``datagen._draw_chunk`` on one-client rows of the given labels (a linear
    model on one feature, every point at 0), row r at seed ``seeds[r]`` with
    ``options[key][r]`` for each probe option given. Returns the drawn rows,
    the failed rows' errors, every drawn row's (rows, slot) and the streams; with
    ``separate``, each stream is a Generator of its own (``rng.stream``), not
    ``rng.streams``' shared one, so a stream's state after the draws shows
    what was drawn from it."""
    spec = models.ModelSpec("linear", 1)
    probes = {r: datagen.Probe(np.zeros(spec.param_dim),
                               [datagen.ClientDataset(0, np.zeros((len(y), 1)), np.array(y))],
                               seed=seed, **{key: values[r] for key, values in options.items()})
              for r, (y, seed) in enumerate(zip(labels, seeds))}
    keys = [(rngmod.STREAM_ESTIMATE, 0)] * len(seeds)
    gens = ([rngmod.stream(seed, *key) for seed, key in zip(seeds, keys)] if separate
            else rngmod.streams(seeds, keys))
    drawn, failed = datagen._draw_chunk(spec, probes, num_pairs, iter(gens))
    at = {i: (drawn, b) for b, i in enumerate(drawn.index)} if drawn else {}
    return drawn, failed, at, gens


def oracle_draws(y, num_pairs, seed, d):
    """Estimate stream v2's draws of one row, taken per row: the pairs (first
    rows, then second rows), the parameter-move normals and scales, and C's
    data-side index pairs, for d parameters."""
    g = rngmod.stream(seed, rngmod.STREAM_ESTIMATE, 0)
    pairs = np.concatenate(sample_pairs(np.asarray(y), num_pairs, g))
    n = len(y)
    return (pairs, g.standard_normal((datagen._NUM_DELTAS, d)),
            g.uniform(0.05, 1.0, datagen._NUM_DELTAS),
            g.integers(0, n, size=(min(datagen._NUM_DELTAS, n * (n - 1) // 2) or 1, 2)))


class TestSamplePairs:
    """The stacked pair draws (``_label_pools`` and ``_draw_chunk``) against
    the per-row sampler they replaced (``conftest.sample_pairs``)."""

    @given(rows=st.integers(2, 40).flatmap(lambda n: st.lists(
               st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=1, max_size=7)),
           num_pairs=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_pairs_share_a_label_and_are_distinct(self, rows, num_pairs, seed):
        seeds = [seed + r for r in range(len(rows))]
        _, failed, at, _ = draw_rows(rows, num_pairs, seeds)
        for r, labels in enumerate(rows):
            y = np.array(labels)
            counts = np.bincount(y)
            if counts.max() < 2:
                assert r not in at
                assert str(failed[r]) == "no label class has two examples"
                continue
            group, b = at[r]
            first, second = np.split(group.pairs[b], 2)
            assert first.shape == second.shape == (num_pairs,)
            assert np.all(y[first] == y[second])
            assert np.all(first != second)
            assert np.all(counts[y[first]] >= 2)
            assert np.array_equal(group.pairs[b], oracle_draws(y, num_pairs, seeds[r], 1)[0])

    def test_ordered_pairs_are_uniform(self):
        # one label of 3 points: the 6 ordered pairs come up equally often
        group, _, _, _ = draw_rows([[0, 0, 0]], 60000, [127])
        first, second = np.split(group.pairs[0], 2)
        counts = np.bincount(3 * first + second, minlength=9)
        assert list(np.flatnonzero(counts)) == [1, 2, 3, 5, 6, 7]
        assert np.all(np.abs(counts[counts > 0] - 10000) < 400)   # > 4 sd


class TestStackedPools:
    # rows of one shape; the two bad rows sit mid-chunk
    LABELS = [
        [3, 0, 7, 0, 3, 7, 7, 3],    # first-appearance order 3, 0, 7: not sorted
        [1, 1, 1, 1, 1, 1, 2, 2],    # ragged label counts
        [0, 1, 2, 3, 4, 5, 6, 7],    # no label with two points
        [5, 2, 2, 9, 2, 5, 4, 2],    # labels 9 and 4 with one point each
        [6, 6, 0, 0, 0, 0, 0, 0],    # a move budget not > 0
        [2, 1, 0, 2, 1, 0, 0, 1],
        [4, 4, 4, 4, 4, 4, 4, 4],
    ]
    BUDGET = [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    SEEDS = [11, 12, 13, 14, 15, 16, 17]

    def test_pools_in_order_of_first_appearance(self):
        count, sizes, starts, members = datagen._label_pools(np.array(self.LABELS))
        assert count.tolist() == [3, 2, 0, 2, 2, 3, 1]
        assert sizes.tolist()[0] == [3, 2, 3] and members[0].tolist() == [0, 4, 7, 1, 3, 2, 5, 6]
        assert sizes.tolist()[3] == [2, 4, 0] and members[3, :6].tolist() == [0, 5, 1, 2, 4, 7]
        assert sizes.tolist()[1] == [6, 2, 0] and starts.tolist()[1] == [0, 6, 8]
        assert members[6].tolist() == list(range(8))

    @pytest.mark.parametrize("separate", [False, True], ids=["shared-stream", "own-streams"])
    def test_draws_equal_the_per_row_oracle(self, separate):
        drawn, failed, at, gens = draw_rows(self.LABELS, 40, self.SEEDS, separate,
                                            delta_budget=self.BUDGET)
        assert drawn.index == [0, 1, 3, 5, 6]
        assert {i: str(e) for i, e in failed.items()} == {
            2: "no label class has two examples", 4: "delta_budget must be > 0"}
        for r in drawn.index:
            group, b = at[r]
            want = oracle_draws(self.LABELS[r], 40, self.SEEDS[r], 1)
            for got, expected in zip((group.pairs[b], group.moves[b], group.scales[b],
                                      group.ij[b]), want):
                assert_same_bits(got, expected)
        if separate:
            # a failed row takes no draw from its stream, a drawn row some
            for r, g in enumerate(gens):
                untouched = rngmod.stream(self.SEEDS[r], rngmod.STREAM_ESTIMATE, 0)
                assert (g.bit_generator.state == untouched.bit_generator.state) == (r in failed)


class TestStackedDiameters:
    """``_diameters`` against the per-row block scan it replaced, bit for bit."""

    @pytest.mark.parametrize("p", [1, 2, 3, 7, 8, 12])
    def test_rows_equal_the_row_scan(self, p, monkeypatch):
        g = rngmod.stream(p, 128)
        x = g.standard_normal((6, 9, p)) * 10.0 ** g.uniform(-3, 3, (6, 9, p))
        x[1, 5:] = x[1, :4]                          # duplicate points
        x[2] = x[2, 0]                               # one point, nine times
        x[3] = np.where(x[3] < 0, -1e150, 1e150) * g.uniform(0.5, 1.0, (9, p))
        x[4, :, 0] = 1e150
        want = [row_scan_diameter(row) for row in x]
        assert want[2] == 0.0 and want[3] > 1e150
        assert_same_bits(datagen._diameters(x), want)
        assert_same_bits(datagen._diameters(x[:, :1]), np.zeros(6))     # single points
        # budgets that cut the rows into chunks, and one row's points into blocks
        point = 8 * 9 * (p + 1)
        for budget in (1, 4 * point, 9 * point, 2 * 9 * point + 1, 5 * 9 * point):
            monkeypatch.setattr(datagen, "_BLOCK_BYTES", budget)
            assert_same_bits(datagen._diameters(x), want)
            assert diameter(x[5]) == want[5]


class TestStackedEnvelopes:
    @pytest.mark.parametrize("length", [1, 2, 7, 8, 9, 64, 251])
    def test_each_row_equals_its_own_series(self, length):
        def one_series(objectives):        # the envelope of one 1-D series, as once taken
            s = np.cumsum(np.sqrt(np.maximum(objectives, 0.0)))
            t = np.arange(1, len(s) + 1, dtype=np.float64)
            ratio = s / np.sqrt(t)
            return ratio.min(), ratio.max(), np.sum(np.sqrt(t) * s) / float(np.sum(t))
        g = rngmod.stream(length, 129)
        series = g.standard_normal((6, length)) ** 2 * 10.0 ** g.uniform(-8, 8, (6, length))
        series[0, ::3] = -1.0                        # clipped to 0
        series[1] = 0.0
        stacked = datagen.attack_mismatch_envelope(series)
        for r, row in enumerate(series):
            alone = datagen.attack_mismatch_envelope(row[None])
            assert_same_bits([a[r] for a in stacked], [a[0] for a in alone])
            assert_same_bits([a[r] for a in stacked], one_series(row))

    def test_rows_of_each_length_stacked(self):
        probes = [datagen.Probe(None, [], attack_objectives=obj) for obj in (
            np.linspace(4.0, 1.0, 8), None, np.linspace(3.0, 0.5, 5), np.array([]),
            np.linspace(2.0, 1.0, 8))]
        got = datagen._envelopes(probes)
        assert got[1] is None and got[3] is None
        for probe, env in zip(probes, got):
            if env is not None:
                alone = datagen.attack_mismatch_envelope(probe.attack_objectives[None])
                assert env == tuple(a[0] for a in alone)


class TestEstimateConstantsBatch:
    """Every row of a stacked estimate is the estimate its probe gives as a batch
    of one, and a row that fails fails alone."""

    @staticmethod
    def check_rows(spec, probes, num_pairs, quantile=0.05):
        rows = datagen.estimate_constants_batch(spec, probes, num_pairs, quantile)
        assert len(rows) == len(probes)
        for probe, got in zip(probes, rows):
            want, = datagen.estimate_constants_batch(spec, [probe], num_pairs, quantile)
            assert type(got) is type(want)
            # repr is exact for floats and NaN-aware; an error's repr is its message
            assert repr(got) == repr(want)
        return rows

    @pytest.mark.parametrize("spec", [
        models.ModelSpec("linear", 2),
        models.ModelSpec("logistic", 2),
        models.ModelSpec("logistic", 2, num_classes=3),
        models.ModelSpec("mlp1", 2, hidden_dim=4),
    ], ids=lambda s: f"{s.kind}-c{s.num_classes}")
    @pytest.mark.parametrize("clients", [1, 2])
    @pytest.mark.parametrize("quantile", [0.0, 0.05])
    def test_rows_equal_their_one_row_runs(self, spec, clients, quantile):
        probes = []
        for seed, budget in enumerate([1.0, 0.3, 2.5, 7.0]):
            datasets, = datagen.generate_batch(
                small_spec(num_clients=clients, per_client_size=6, num_classes=spec.num_classes),
                [seed])
            theta = models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT))
            probes.append(datagen.Probe(
                theta, datasets, delta_budget=budget, seed=seed,
                attack_objectives=np.linspace(4.0, 1.0, 8) if seed % 2 else None))
        # mid-block, a row whose points all coincide: every pair's gradients
        # are equal
        same = [datagen.ClientDataset(ds.client_id, np.full_like(ds.x, 0.3), ds.y)
                for ds in probes[0].datasets]
        probes.insert(2, probes[0]._replace(datasets=same, seed=9))
        rows = self.check_rows(spec, probes, 20, quantile)
        assert [type(r).__name__ for r in rows] == (
            ["ConstantsEstimate"] * 2 + ["EstimationError"] + ["ConstantsEstimate"] * 2)
        assert str(rows[2]) == "all sampled pairs had identical gradients"

    def test_each_failing_row_fails_alone(self):
        spec = models.ModelSpec("logistic", 2)
        datasets, = datagen.generate_batch(small_spec(per_client_size=12), [1])
        theta = models.init_params(spec, rngmod.stream(1, rngmod.STREAM_INIT))
        good = datagen.Probe(theta, datasets, seed=1)
        # twelve points, as the others, each of a label of its own
        lone = datagen.ClientDataset(0, np.arange(24.0).reshape(12, 2) / 24, np.arange(12))
        probes = [
            good,
            good._replace(delta_budget=math.inf),         # its moves overflow
            good._replace(delta_budget=0.0),               # a bad setting
            good._replace(datasets=[lone]),                # no label with two points
            good._replace(theta_probe=np.full(2, np.nan)),  # its losses are NaN
            good._replace(seed=2),
        ]
        rows = self.check_rows(spec, probes, 30)
        assert [type(r).__name__ for r in rows] == [
            "ConstantsEstimate", "NumericError", "ConfigurationError", "EstimationError",
            "NumericError", "ConstantsEstimate"]
        assert [str(r) for r in rows[1:5]] == [
            "non-finite parameter move", "delta_budget must be > 0",
            "no label class has two examples", "non-finite loss"]

    def test_chunked_stages_equal_one_stack(self, monkeypatch):
        spec = models.ModelSpec("mlp1", 2, hidden_dim=4, num_classes=3)
        probes = [datagen.Probe(
            models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT)),
            datagen.generate_batch(small_spec(per_client_size=10, num_classes=3), [seed])[0],
            seed=seed) for seed in range(4)]
        scored = []
        real = datagen._estimate_chunk

        def recording(model_spec, rows, num_pairs, quantile):
            scored.append(len(rows.index))
            return real(model_spec, rows, num_pairs, quantile)

        monkeypatch.setattr(datagen, "_estimate_chunk", recording)
        want = datagen.estimate_constants_batch(spec, probes, 20, 0.05)
        assert scored == [4]                              # one chunk
        scored.clear()
        monkeypatch.setattr(datagen, "_BLOCK_BYTES", 1)   # one row, one model per call
        assert repr(datagen.estimate_constants_batch(spec, probes, 20, 0.05)) == repr(want)
        assert scored == [1] * 4


class TestOneConfigPerCall:
    """A call's settings and data size are checked once, before any stream is
    seeded or drawn: a bad one raises for the whole call."""

    @pytest.mark.parametrize("sizes, num_pairs, quantile, message", [
        ([6, 6, 8, 6], 20, 0.05, r"one data size, not \[6, 8\]"),
        ([6, 6], 1, 0.05, "num_pairs must be an integer >= 2"),
        ([6, 6], 20.0, 0.05, "num_pairs must be an integer >= 2"),
        ([6, 6], 20, 0.7, r"quantile must be in \[0, 0.5\]"),
        ([6, 6], 20, -0.1, r"quantile must be in \[0, 0.5\]"),
        ([6, 6], 20, math.nan, r"quantile must be in \[0, 0.5\]"),
    ], ids=["two-sizes", "one-pair", "float-pairs", "quantile-0.7", "quantile-negative",
            "quantile-nan"])
    def test_bad_call_raises_before_any_draw(self, monkeypatch, sizes, num_pairs, quantile,
                                             message):
        spec = models.ModelSpec("logistic", 2)
        probes = [datagen.Probe(models.init_params(spec, rngmod.stream(seed, rngmod.STREAM_INIT)),
                                datagen.generate_batch(small_spec(per_client_size=m), [seed])[0],
                                seed=seed)
                  for seed, m in enumerate(sizes)]
        seeded = []
        monkeypatch.setattr(rngmod, "streams", lambda *args: seeded.append(args))
        monkeypatch.setattr(rngmod, "stream", lambda *args: seeded.append(args))
        with pytest.raises(ConfigurationError, match=message):
            datagen.estimate_constants_batch(spec, probes, num_pairs, quantile)
        assert seeded == []


class TestInputDimBound:
    """Specs whose rows almost never land inside the truncation radius are
    rejected; the rest draw as before."""

    @pytest.mark.parametrize("input_dim, separation", [(60, 2.0), (50, 2.0), (9, 14.0),
                                                       (20, 12.0), (10**6, 0.0)])
    def test_rejected(self, input_dim, separation):
        with pytest.raises(ConfigurationError, match="inside the truncation radius"):
            small_spec(input_dim=input_dim, class_separation=separation)

    @pytest.mark.parametrize("input_dim, separation", [(40, 2.0), (8, 14.0), (3, 14.0),
                                                       (1, 0.0)])
    def test_accepted(self, input_dim, separation):
        (ds,), = datagen.generate_batch(
            small_spec(input_dim=input_dim, class_separation=separation), [0])
        assert np.all(np.linalg.norm(ds.x, axis=1) <= 1.0)

    def test_inside_probability_is_the_noncentral_chi_square_cdf(self):
        stats = pytest.importorskip("scipy.stats")
        for p, sep in [(1, 0.0), (3, 5.0), (8, 14.0), (40, 2.0), (50, 2.0)]:
            want = stats.ncx2.cdf(16.0, p, (sep / 2) ** 2) if sep else stats.chi2.cdf(16.0, p)
            assert datagen._inside_probability(p, sep) == pytest.approx(want, rel=1e-12)


def test_generated_datasets_carry_the_centers_a_sampler_reuses(monkeypatch):
    spec = small_spec(num_clients=2, num_classes=4)
    datasets, = datagen.generate_batch(spec, [4])
    assert all(ds.centers is datasets[0].centers for ds in datasets)
    want = next(datagen.fresh_draws(spec, [4], [None], 300))
    monkeypatch.setattr(datagen, "_class_centers_batch", None)     # no second QR
    got = next(datagen.fresh_draws(spec, [4], [datasets[0].centers], 300))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_fresh_draws_rows_equal_the_sampler_oracle():
    # a seed's draws are those of its own sampler; without centers, at the
    # centers its data was generated with
    spec = small_spec(num_classes=3)
    seeds = [3, 4, 5]
    centers = [ds[0].centers for ds in datagen.generate_batch(spec, seeds)]
    given = [centers[0], None, centers[2]]
    for (x, y), seed, c in zip(datagen.fresh_draws(spec, seeds, given, 150), seeds, centers):
        want = fresh_sampler(spec, seed, c)(150)
        assert_same_bits(x, want[0])
        assert np.array_equal(y, want[1])
