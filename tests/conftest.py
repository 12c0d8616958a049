import contextlib
import io
import json
import math
import os
import signal
import subprocess
import traceback

import numpy as np
import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "ci", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The few CLI tests that need a process of their own run ``python -m
# fedtradeoff.cli`` in a subprocess: let it import the package from this
# checkout's src/ as the test process does.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def run_cli_in_process(args, env_extra=None, timeout=None):
    """``cli.main(args)`` in this process, reported as ``subprocess.run`` with
    ``capture_output=True, text=True`` reports a ``python -m fedtradeoff.cli``
    run: a ``CompletedProcess`` with the exit code and the captured stdout and
    stderr.

    ``os.environ`` (updated with ``env_extra``) and the working directory
    are restored afterwards. ``SystemExit`` maps to its code; an
    exception that escapes ``main`` maps to exit 1 with its traceback on
    stderr, as the interpreter would. The suite's warning filter applies here
    as ``PYTHONWARNINGS`` would in a subprocess. A run longer than ``timeout``
    seconds raises ``subprocess.TimeoutExpired``.
    """
    from fedtradeoff import cli

    out, err = io.StringIO(), io.StringIO()
    env, here = dict(os.environ), os.getcwd()

    def expire(signum, frame):
        raise subprocess.TimeoutExpired(args, timeout)

    previous = signal.signal(signal.SIGALRM, expire) if timeout else None
    try:
        os.environ.update(env_extra or {})
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, timeout)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except subprocess.TimeoutExpired:
                raise
            except Exception:          # noqa: BLE001 -- what the interpreter would print
                traceback.print_exc()
                code = 1
    finally:
        if timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        os.chdir(here)
        os.environ.clear()
        os.environ.update(env)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def covering_number(d: int, cap_d: float, lam: float) -> float:
    """(2d)^(2D/lambda^2 + 1) as a float; inf if it overflows."""
    logn = log_covering_number(d, cap_d, lam)
    if logn > 700.0:
        return math.inf
    return math.exp(logn)


def log_covering_number(d: int, cap_d: float, lam: float) -> float:
    """Natural log of the covering number (2d)^(2D/lambda^2 + 1), the closed
    form that ``bounds._m_term_log`` takes in log domain."""
    from fedtradeoff.errors import ConfigurationError

    if d < 1:
        raise ConfigurationError("d must be >= 1")
    if cap_d < 0:
        raise ConfigurationError("D must be >= 0")
    if lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return (2.0 * cap_d / (lam * lam) + 1.0) * math.log(2 * d)


def utility_upper_bound(big_c, lam, delta_two, big_m, d, cap_d, eta, m) -> float:
    """C*lambda + C*delta_two + M*sqrt((2 N ln2 + 2 ln(1/eta)) / m) at one row,
    from the bounds' own evaluator (``bounds._utility_bound``)."""
    from fedtradeoff import bounds
    from fedtradeoff.errors import ConfigurationError

    if lam <= delta_two:
        raise ConfigurationError("lambda must exceed delta_two")
    consts = bounds._utility_consts(big_c, delta_two, big_m, d, cap_d, eta, m)
    return float(bounds._utility_bound(consts, lam))


def he_utility_upper_bound(big_c, lam, big_m, d, cap_d, eta, m) -> float:
    """The HE mechanism's bound C*lambda + M*sqrt(...): the utility bound at
    zero two-way distortion."""
    from fedtradeoff import bounds
    from fedtradeoff.errors import ConfigurationError

    if lam <= 0:
        raise ConfigurationError("lambda must be > 0")
    return float(bounds._utility_bound(bounds._utility_consts(
        big_c, 0.0, big_m, d, cap_d, eta, m), lam))


def golden_minimize_utility_lambda(big_c, delta_two, big_m, d, cap_d, eta, m):
    """The lambda search that ``bounds.minimize_utility_lambda``'s root search
    replaced, kept as its accuracy oracle: a 64-point log grid from just above
    delta_two, its top quadrupled until the grid minimum is interior, then
    golden section until the bracket is 1e-12 relative, in Python scalar steps
    over the bound's closed form with libm's exponentials (its grid's points
    are numpy's)."""
    log_2d, log_2ln2 = math.log(2 * d), math.log(2.0 * math.log(2.0))
    b = math.log(2.0 * math.log(1.0 / eta)) if eta < 1.0 else None
    log_m_term, log_m = math.log(big_m), math.log(m)

    def logaddexp(x, y):
        if x == y:
            return x + math.log(2.0)
        if x > y:
            return x + math.log1p(math.exp(y - x))
        return y + math.log1p(math.exp(x - y))

    def f(lam):
        a = log_2ln2 + (2.0 * cap_d / (lam * lam) + 1.0) * log_2d
        val_log = log_m_term + 0.5 * ((a if b is None else logaddexp(a, b)) - log_m)
        return (big_c * lam + big_c * delta_two) + (
            math.inf if val_log > 700.0 else math.exp(val_log))

    lo = delta_two + max(1e-9, 1e-9 * delta_two)
    lam_hi = max(10.0 * (cap_d + 1.0), 4.0 * delta_two + 1.0)
    for _ in range(20):
        grid = np.geomspace(lo, lam_hi, 64).tolist()
        i = int(np.argmin([f(lam) for lam in grid]))
        if i < len(grid) - 1:
            break
        lam_hi *= 4.0
    a, b_ = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, e = b_ - phi * (b_ - a), a + phi * (b_ - a)
    fc, fe = f(c), f(e)
    for _ in range(120):
        if fc <= fe:
            b_, e, fe = e, c, fc
            c = b_ - phi * (b_ - a)
            fc = f(c)
        else:
            a, c, fc = c, e, fe
            e = a + phi * (b_ - a)
            fe = f(e)
        if b_ - a < 1e-12 * max(1.0, b_):
            break
    lam_best = max(c if fc <= fe else e, lo)
    return float(lam_best), float(f(lam_best))


def spread_values(rng, shape, decades, share=0.25):
    """Normal draws scaled over +-``decades`` decades, a ``share`` of them
    replaced by +-0.0, +-inf, NaN, subnormals and the smallest normals."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-decades, decades, shape)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        -1e-310, 2.2250738585072014e-308])
    mask = rng.random(shape) < share
    x[mask] = rng.choice(special, int(mask.sum()))
    return x


def assert_same_bits(got, want):
    """Equal shapes, NaN at the same places, and every other value equal bit
    for bit (so +0.0 and -0.0 differ)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def rewalk_leakage(trajectory, originals, cap_d):
    """(eps_p, eps_p_final) of a kept trajectory X_0..X_n, walked test-side:
    1 - mean_i mean_t min(||X_{t,i} - x_i||, D) / D over t = 1..n, summed in t
    order, and the same at X_n alone."""
    acc = np.zeros(len(originals))
    for x_t in trajectory[1:]:
        acc += np.minimum(np.linalg.norm(x_t - originals, axis=1), cap_d) / cap_d
    last = np.minimum(np.linalg.norm(trajectory[-1] - originals, axis=1), cap_d) / cap_d
    return float(1.0 - np.mean(acc / (len(trajectory) - 1))), float(1.0 - np.mean(last))


def mean_loss(spec, theta, x, y):
    """Mean per-example loss of one batch, as a float."""
    from fedtradeoff import models

    return float(models.per_example_losses(spec, theta, x, y).mean())


def grad_params(spec, theta, x, y):
    """Gradient of the mean batch loss w.r.t. the flattened parameters,
    ``per_example_grads(...).mean(axis=0)``; raises ``NumericError`` when it
    is not finite. The suite's oracle for a batch's gradient."""
    from fedtradeoff import models
    from fedtradeoff.errors import NumericError

    g = models.per_example_grads(spec, theta, x, y).mean(axis=0)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite parameter gradient")
    return g


def invert_one(spec, theta, g_obs, labels, cfg, originals, cap_d, *, seed=0, x0=None,
               keep_trajectory=False):
    """The trace of one upload's inversion: ``attack.invert_batch`` on one
    row, the gradient ``g_obs`` observed at ``theta`` with its (m,) ``labels``
    and (m, p) ``originals``, at attack seed ``seed`` and, when given, from
    the (m, p) init ``x0``."""
    from fedtradeoff import attack

    return attack.invert_batch(
        spec, np.asarray(theta)[None], np.asarray(g_obs)[None], np.atleast_1d(labels)[None],
        cfg, [seed], np.asarray(originals)[None], cap_d,
        x0=None if x0 is None else np.asarray(x0)[None], keep_trajectory=keep_trajectory)[0]


def finite_diff_check(spec, theta, x, y, step=1e-5):
    """Max relative error between the analytic parameter gradient
    (``grad_params``) and central differences of ``mean_loss``, per
    coordinate |analytic - central| / (|analytic| + step)."""
    theta = np.asarray(theta, dtype=np.float64)
    analytic = grad_params(spec, theta, x, y)
    worst = 0.0
    for j in range(theta.shape[0]):
        tp = theta.copy(); tp[j] += step
        tm = theta.copy(); tm[j] -= step
        num = (mean_loss(spec, tp, x, y) - mean_loss(spec, tm, x, y)) / (2.0 * step)
        worst = max(worst, abs(analytic[j] - num) / (abs(analytic[j]) + step))
    return worst


def matching_objective(spec, theta, x, y, g_obs):
    """The attack's matching objective at one upload, F(x) = ||(1/m) sum_i
    grad_theta L(theta, x_i, y_i) - g_obs||^2, from ``attack._score``'s one
    forward pass."""
    from fedtradeoff import attack, models

    return float(attack._score(models.prepare(spec, theta, y), x, g_obs)[0])


def grad_objective(spec, theta, x, y, g_obs):
    """dF/dX of ``matching_objective``, shape (m, p): dF/dx_i = (2/m) J_i^T v."""
    from fedtradeoff import attack, models

    _, v, vjp = attack._score(models.prepare(spec, theta, y), x, g_obs)
    return (2.0 / x.shape[-2]) * vjp(v)


def fresh_sampler(spec, seed, centers=None):
    """A sampler ``f(n) -> (x, y)`` of fresh draws from spec's mixture with
    class ``centers`` (None: its centers at ``seed``, from the stream ``(seed,
    DATA, 0, 0)``): successive calls continue the one stream ``(seed,
    STREAM_EVAL, 0)``, each as one data stream v3 batch of n rows, so
    ``f(200)`` twice does not give the rows of ``f(400)``. Its first call is
    ``datagen.fresh_draws``' draw at that seed."""
    from fedtradeoff import datagen, rng

    if centers is None:
        centers = datagen._class_centers_batch(spec, [rng.stream(seed, rng.STREAM_DATA, 0, 0)])[0]
    g = rng.stream(seed, rng.STREAM_EVAL, 0)
    return lambda n: datagen._draw_examples(spec, centers, g, n)


def sample_pairs(y, num_pairs, g):
    """Index arrays (first, second) of ``num_pairs`` same-label pairs of rows,
    drawn from g per row: the estimator's own per-row pair sampler before its
    label pools were stacked, kept as the oracle of estimate stream v2's first
    three draws.

    A pair takes a label uniformly among those with two or more rows (in order
    of first appearance in ``y``), then an ordered pair of distinct rows of
    that label uniformly: the first index uniform, the second uniform over the
    others. Draws all labels, then all first, then all second indices.
    """
    from fedtradeoff.errors import EstimationError

    labels, seen_at = np.unique(y, return_index=True)
    pools = [np.flatnonzero(y == lab) for lab in labels[np.argsort(seen_at)]]
    pools = [pool for pool in pools if len(pool) >= 2]
    if not pools:
        raise EstimationError("no label class has two examples")
    sizes = np.array([len(pool) for pool in pools])
    starts = np.cumsum(sizes) - sizes
    members = np.concatenate(pools)
    k = g.integers(0, len(pools), num_pairs)
    i = g.integers(0, sizes[k])
    j = g.integers(0, sizes[k] - 1)
    j += j >= i                                    # skip the first point
    return members[starts[k] + i], members[starts[k] + j]


def row_scan_diameter(x):
    """The max pairwise distance of (m, p) points, one point at a time against
    every point after it, ``np.linalg.norm`` over the differences: the
    per-point loop the estimator's stacked diameter scan replaced."""
    best = 0.0
    for i in range(x.shape[0] - 1):
        best = max(best, float(np.linalg.norm(x[i + 1:] - x[i], axis=1).max()))
    return best


# numpy's pairwise summation adds a run of fewer than this many elements in
# order: the widest last axis a column-by-column sum may walk with its bits
PAIRWISE_BLOCK = 8


@pytest.fixture(params=["gated", "by-column"])
def column_gate(request, monkeypatch):
    """Runs a test twice: with ``models._NARROW`` and ``models._ROWS`` as they
    are, which send small arrays to numpy's own call, and with the gate open
    to every last axis shorter than ``PAIRWISE_BLOCK``, over any row count,
    so every width whose bits a column walk keeps is checked."""
    from fedtradeoff import models

    if request.param == "by-column":
        monkeypatch.setattr(models, "_NARROW", PAIRWISE_BLOCK)
        monkeypatch.setattr(models, "_ROWS", 0)


def weighted_sum(vectors, sizes):
    """Size-weighted sum of a list's items or an array's rows, in fixed client
    order: ``(m_0 / n) v_0 + (m_1 / n) v_1 + ...`` added left to right, the
    server's aggregation step. ``protocol.run_batch`` takes it as one
    multiply by the size weights and then the K client slices added in
    order, with these bits."""
    from fedtradeoff.errors import ConfigurationError

    if len(vectors) != len(sizes) or not len(vectors):
        raise ConfigurationError("vectors/sizes length mismatch or empty")
    total = float(sum(sizes))
    if total <= 0:
        raise ConfigurationError("total dataset size must be > 0")
    acc = (sizes[0] / total) * vectors[0]
    for v, m in zip(vectors[1:], sizes[1:]):
        acc = acc + (m / total) * v
    return acc


def _row_norms(rows):
    """Each row's ``np.linalg.norm``, as a list, one row at a time."""
    return [float(np.linalg.norm(row)) for row in rows]


def protect_rows(grads, mechs, noise=None, keys=None):
    """One round's protection of the (B, K, d) gradients ``grads``, trial b
    under ``mechs[b]``, as the per-round loop took it: randomization adds
    ``sigma * noise``, each row rescaled to ``exact_norm`` in its own loop
    pass, and he_codec encrypts under ``keys``. Returns the (B, K, d) wires and
    each trial's list of ``||wire - grad||``."""
    grads = np.asarray(grads, dtype=np.float64)
    kind = mechs[0].kind
    if kind == "none":
        return grads.copy(), [[0.0] * grads.shape[1] for _ in grads]
    with np.errstate(over="ignore"):
        if kind == "he_codec":
            b, k, _ = grads.shape
            wires = (grads[np.arange(b)[:, None, None], np.arange(k)[:, None], keys[0][:, None]]
                     + keys[1][:, None])
            delta = wires - grads
        else:
            delta = np.array([m.sigma for m in mechs], dtype=np.float64)[:, None, None] * noise
            for mech, rows, zs in zip(mechs, delta, noise):
                if mech.exact_norm is None:
                    continue
                for row, z in zip(rows, zs):
                    if not np.all(np.isfinite(row)):
                        row[:] = z
                    n = np.linalg.norm(row)
                    if np.isinf(n):
                        row /= np.abs(row).max()
                        n = np.linalg.norm(row)
                    if n > 0:
                        row *= mech.exact_norm / n
            wires = grads + delta
        return wires, [_row_norms(rows) for rows in delta]


def run_rounds(model_spec, config, mechs, datasets, seeds):
    """``protocol.run_batch`` as a per-round loop: each round's gradients by
    ``per_example_grads(...).mean``, one ``protect_rows`` call, three
    ``weighted_sum`` calls and a ``RoundRecord`` per trial, every norm and
    ``eta *`` product taken in the round. Returns each trial's ``(records,
    theta_final_decoded, theta_final_shadow, theta_final_protected)``, and
    raises what the loop raises, in the round where it does."""
    from fedtradeoff import models, protocol, rng as rngmod
    from fedtradeoff.errors import NumericError

    sizes, kind, shared = [ds.size for ds in datasets[0]], mechs[0].kind, mechs[0].shared_noise
    b, k, d, rounds = len(seeds), len(sizes), model_spec.param_dim, config.rounds
    with np.errstate(over="ignore"):
        theta = np.array([models.init_params(model_spec, g, config.init_scale)
                          for g in rngmod.streams(seeds, [(rngmod.STREAM_INIT,)] * b)])
    keys = None
    if kind == "he_codec":
        perms, offsets = zip(*[protocol._he_key(d, g, m.offset_scale) for m, g in zip(
            mechs, rngmod.streams(seeds, [(rngmod.STREAM_MECH,)] * b))])
        keys = np.array(perms), np.array(offsets)
    units = np.ones(b)
    noise = [None] * rounds
    if kind == "randomization":
        clients = [0] if shared else range(1, k + 1)
        noise = rngmod.normals(
            [s for _ in range(rounds) for s in seeds for _ in clients],
            [(rngmod.STREAM_PROTECT, t, c) for t in range(rounds) for _ in seeds
             for c in clients], d).reshape(rounds, b, -1, d)
        if shared:
            noise = np.repeat(noise, k, axis=2)
    if not np.isfinite(theta).all():
        raise NumericError("run aborted: non-finite model at round 0")
    theta_shadow = theta.copy()
    n = 2 if kind == "randomization" else 1

    def gradients(*thetas):
        return np.array([[[models.per_example_grads(model_spec, row, ds.x, ds.y).mean(axis=0)
                           for ds in trial] for row, trial in zip(th, datasets)]
                         for th in thetas[:n]])

    records = [[] for _ in range(b)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(rounds):
            eta = protocol._eta_at(config, t)
            shadow_gap = _row_norms(theta - theta_shadow)
            stacked = gradients(theta, theta_shadow)
            if not np.isfinite(stacked).all():
                raise NumericError(f"run aborted: non-finite gradient at round {t}: "
                                   "non-finite parameter gradient")
            grads = stacked[0]
            wires, delta_up = protect_rows(grads, mechs, noise[t], keys)
            true_agg = weighted_sum(grads.swapaxes(0, 1), sizes)
            agg = (weighted_sum(wires.swapaxes(0, 1), sizes) if kind == "randomization"
                   else true_agg)
            theta_next = theta - eta * agg
            theta_shadow = (theta_next if n == 1 else
                            theta_shadow - eta * weighted_sum(stacked[1].swapaxes(0, 1), sizes))
            d2g = _row_norms(agg - true_agg)
            if not np.isfinite(theta_next).all():
                raise NumericError(f"run aborted: non-finite update at round {t}")
            if keys is None:
                wire_view = theta_next
            else:
                units = units - eta * weighted_sum([1.0] * k, sizes)
                wire_view = (theta_next[np.arange(b)[:, None], keys[0]]
                             + units[:, None] * keys[1])
            for i, trial in enumerate(records):
                trial.append(protocol.RoundRecord(
                    t, eta, theta[i], grads[i], wires[i], delta_up[i],
                    [eta * u for u in delta_up[i]], d2g[i], eta * d2g[i], shadow_gap[i],
                    wire_view[i], theta_next[i]))
            theta = theta_next
    return [(trial, theta[i], theta_shadow[i], trial[-1].theta_next_protected)
            for i, trial in enumerate(records)]


def records(result):
    """Every round of a ``protocol.RunResult`` as its ``RoundRecord``."""
    return [result.record(t) for t in range(result.rounds)]


def round_record_to_dict(rec):
    """A ``RoundRecord`` as its roundlog/v1 object: ``"round"``, then each
    field, arrays as lists of floats."""
    from fedtradeoff import io as iomod

    return {"round": rec.round_index,
            **{k: np.asarray(getattr(rec, k), dtype=np.float64).tolist() if "d" in shape
               else getattr(rec, k) for k, shape in iomod._ROUND_SHAPES.items()}}


def write_round_log_by_record(path, result):
    """The round log of a ``protocol.RunResult`` written record by record, as
    ``canonical_json`` of each ``round_record_to_dict``: the byte oracle of
    ``io.write_round_log``."""
    from fedtradeoff import io as iomod

    with open(path, "w") as fh:
        for rec in records(result):
            fh.write(iomod.canonical_json(round_record_to_dict(rec)) + "\n")


def read_round_dicts(path):
    """Each round's object of a round log: ``json.loads`` of each line that
    ``io.read_round_log`` checked."""
    from fedtradeoff import io as iomod

    return [json.loads(line) for line in iomod.read_round_log(path)]
