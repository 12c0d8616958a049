import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fedtradeoff import attack as attackmod, cli, datagen, io as iomod, models, protocol
from fedtradeoff.errors import ConfigurationError
from fedtradeoff.experiment import (ExperimentConfig, MechanismSpec, TrialRow, run_trials,
                                   score_trials)

from conftest import (read_round_dicts, records, rewalk_leakage, round_record_to_dict,
                      run_cli_in_process as run_cli, weighted_sum, write_round_log_by_record)


def run_cli_process(args, env_extra=None):
    """``python -m fedtradeoff.cli args`` in a subprocess of its own: for the
    entry point itself (one test per exit code), a cross-process determinism
    check and the ``PYTHONWARNINGS`` test; the other CLI tests run in-process."""
    # the suite's own warning filter, which pytest applies only in its process
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning", **(env_extra or {})}
    return subprocess.run([sys.executable, "-m", "fedtradeoff.cli", *args],
                          capture_output=True, text=True, env=env)


def file_hash(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dir_hashes(path):
    return {name: file_hash(os.path.join(path, name))
            for name in sorted(os.listdir(path))}


def sample_row():
    return TrialRow(
        experiment_id="abc123def456",
        sweep_axis="sigma", sweep_value=0.1, trial_index=2, seed=123,
        mechanism="randomization", sigma=0.1, eps_p=0.5, eps_p_final=0.9,
        eps_u=0.01, eps_u_halfwidth=0.002, eps_e=16, delta_up_grad=0.3,
        delta_up_param=0.06, delta_two_grad=0.2, delta_two_param=0.04,
        privacy_rhs=1.0, privacy_precond_ok=True, privacy_holds=True, utility_rhs=2.5,
        utility_lambda=1.1, utility_holds=True, c_a=1.0, c_b=2.0, big_c=0.5,
        big_m=1.5, cap_d=2.0, c_0=0.4, c_2=1.2, pair_skip_rate=0.0)


class TestIO:
    def test_dataset_csv_roundtrip(self, tmp_path):
        spec = datagen.DatasetSpec(num_clients=2, per_client_size=5, input_dim=3)
        datasets, = datagen.generate_batch(spec, [3])
        path = str(tmp_path / "d.csv")
        iomod.write_datasets(path, datasets)
        back = iomod.read_datasets(path)
        for a, b in zip(datasets, back):
            assert a.client_id == b.client_id
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -2.5e-17, np.pi])
        path = str(tmp_path / "v.csv")
        iomod.write_vector(path, v)
        assert np.array_equal(iomod.read_vector(path), v)

    def test_round_log_roundtrip(self, tmp_path):
        spec = datagen.DatasetSpec(num_clients=2, per_client_size=4, input_dim=2)
        datasets, = datagen.generate_batch(spec, [1])
        model = models.ModelSpec("logistic", 2)
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.2)
        res, = protocol.run_batch(model, cfg, [MechanismSpec("randomization", 0.1)], [datasets],
                                  [1])
        path = str(tmp_path / "r.jsonl")
        iomod.write_round_log(path, res)
        back = read_round_dicts(path)
        assert len(back) == 3
        for rec, row in zip(records(res), back):
            assert np.array_equal(np.array(row["theta_decoded"]), rec.theta_decoded)
            assert row["delta_two_grad"] == rec.delta_two_grad
            assert np.array_equal(np.array(row["wires"][1]), rec.wires[1])
            # and back to the record, bit for bit
            again = iomod.round_record_from_dict(row)
            assert round_record_to_dict(again) == round_record_to_dict(rec)
            assert again.wires.tobytes() == rec.wires.tobytes()

    def test_round_log_names_the_line_of_a_bad_byte(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"round": 0}\n\xff\n{"round": 2}\n')
        with pytest.raises(ConfigurationError, match=r"r\.jsonl, line 2: 'utf-8' codec"):
            iomod.read_round_log(str(path))

    def test_round_log_supports_update_audit(self, tmp_path):
        # the emitted log carries enough to re-derive the server update exactly
        spec = datagen.DatasetSpec(num_clients=3, per_client_size=4, input_dim=2)
        datasets, = datagen.generate_batch(spec, [2])
        model = models.ModelSpec("logistic", 2)
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.3)
        res, = protocol.run_batch(model, cfg, [MechanismSpec()], [datasets], [2])
        path = str(tmp_path / "r.jsonl")
        iomod.write_round_log(path, res)
        sizes = [d.size for d in datasets]
        for row in read_round_dicts(path):
            rebuilt = np.array(row["theta_decoded"]) - row["eta"] * weighted_sum(
                [np.array(w) for w in row["wires"]], sizes)
            assert np.array_equal(rebuilt, np.array(row["theta_next_decoded"]))

    def test_results_csv_roundtrip(self, tmp_path):
        row = sample_row()
        nan = float("nan")
        # NaN columns, as when the constants could not be estimated, and both bools
        degraded = replace(row, privacy_rhs=nan, privacy_precond_ok=False,
                           privacy_holds=False, utility_rhs=nan, utility_lambda=nan,
                           utility_holds=True, c_a=nan, c_b=nan, big_c=nan, cap_d=nan,
                           c_0=nan, c_2=nan, pair_skip_rate=nan)
        for original in (row, degraded):
            path = str(tmp_path / "results.csv")
            iomod.write_results(path, [original])
            back = iomod.read_results(path)
            assert len(back) == 1
            # repr is NaN-aware and tells True from 1.0 and 16 from 16.0
            assert [repr(v) for v in back[0].as_list()] == \
                [repr(v) for v in original.as_list()]


    def test_results_header_is_results_v1(self, tmp_path):
        # FIELDS follows the dataclass: reordering or renaming a field changes
        # the on-disk results/v1 format, which this pins.
        path = str(tmp_path / "results.csv")
        iomod.write_results(path, [])
        with open(path) as fh:
            assert fh.read() == (
                "experiment_id,sweep_axis,sweep_value,trial_index,seed,mechanism,sigma,"
                "eps_p,eps_p_final,eps_u,eps_u_halfwidth,eps_e,delta_up_grad,"
                "delta_up_param,delta_two_grad,delta_two_param,privacy_rhs,"
                "privacy_precond_ok,privacy_holds,utility_rhs,utility_lambda,"
                "utility_holds,c_a,c_b,big_c,big_m,cap_d,c_0,c_2,pair_skip_rate\n")

    @pytest.mark.parametrize("edit", [lambda line: line + ",9.9",
                                      lambda line: line.rsplit(",", 1)[0]],
                             ids=["long", "short"])
    def test_results_row_cell_count_checked(self, tmp_path, edit):
        # a row with an extra or a missing cell is rejected, not silently
        # truncated or failed with a TypeError
        path = tmp_path / "results.csv"
        iomod.write_results(str(path), [sample_row(), sample_row()])
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, edit(second)]) + "\n")
        with pytest.raises(ConfigurationError, match="31 cells|29 cells"):
            iomod.read_results(str(path))

    def test_results_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        swapped = list(TrialRow.FIELDS)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        path.write_text(",".join(swapped) + "\n")
        with pytest.raises(ConfigurationError, match="header mismatch"):
            iomod.read_results(str(path))


# floats at the edges of the files' spelling: the non-finite (json's NaN and
# Infinity, repr's nan and inf), both zeros, subnormals, and both sides of
# repr's switches to exponent form at 1e16 and 1e-5
EDGE_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
               2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0,
               1.0000000000000002e16, 1e-05, 9.999999999999999e-06, 1.0000000000000001e-05,
               0.0001, 1e22, 0.1]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def run_results(draw):
    """A ``protocol.RunResult`` of T <= 4 rounds, K <= 3 clients and d <= 3
    parameters whose every number is drawn, its wire views those of the
    decoded models, drawn, or the decoded models with one zero of the other
    sign."""
    t, k, d = (draw(st.integers(1, n)) for n in (4, 3, 3))

    def drawn(*shape):
        return draw(arrays(np.float64, shape, elements=FLOATS))
    theta = drawn(t + 1, d)
    views = draw(st.sampled_from(["decoded", "drawn", "zero-sign"]))
    protected = drawn(t, d) if views == "drawn" else theta[1:].copy()
    if views == "zero-sign":
        r, c, sign = draw(st.integers(0, t - 1)), draw(st.integers(0, d - 1)), draw(st.booleans())
        theta[r + 1, c], protected[r, c] = (0.0, -0.0) if sign else (-0.0, 0.0)
    return protocol.RunResult(drawn(t), theta, drawn(t, k, d), drawn(t, k, d), drawn(t, k),
                              drawn(t, k), drawn(t), drawn(t), drawn(t), protected, theta[-1],
                              drawn(d), protected[-1])


def assert_writes_the_records_bytes(result):
    """``io.write_round_log`` writes the bytes of ``write_round_log_by_record``."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.jsonl"), os.path.join(tmp, "want.jsonl")
        iomod.write_round_log(got, result)
        write_round_log_by_record(want, result)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


class TestRoundLogBytes:
    """The round log written from a run's stacked arrays is, byte for byte,
    the one written record by record."""

    @settings(derandomize=True)
    @given(result=run_results())
    def test_drawn_runs(self, result):
        assert_writes_the_records_bytes(result)

    def test_a_zero_of_the_other_sign_is_spelled_as_its_own(self):
        theta = np.array([[1.0, 0.0], [0.0, -0.0]])
        protected = np.array([[-0.0, 0.0]])
        ones = np.ones((1, 1, 2))
        result = protocol.RunResult(np.ones(1), theta, ones, ones, np.ones((1, 1)),
                                    np.ones((1, 1)), np.ones(1), np.ones(1), np.ones(1),
                                    protected, theta[-1], theta[-1], protected[-1])
        assert_writes_the_records_bytes(result)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.jsonl")
            iomod.write_round_log(path, result)
            row, = read_round_dicts(path)
        assert [repr(v) for v in row["theta_next_protected"]] == ["-0.0", "0.0"]

    @pytest.mark.parametrize("mech, schedule", [
        (MechanismSpec(), "constant"),
        (MechanismSpec("randomization", 0.3), "constant"),
        (MechanismSpec("randomization", 0.3, shared_noise=True), "constant"),
        (MechanismSpec("randomization", 1e154), "constant"),
        (MechanismSpec("he_codec"), "constant"),
        (MechanismSpec("he_codec"), "inv_sqrt"),
        (MechanismSpec("randomization", 0.3), "inv_sqrt"),
    ], ids=["none", "randomization", "shared-noise", "randomization-overflowing",
            "he-codec", "he-codec-inv-sqrt", "randomization-inv-sqrt"])
    @pytest.mark.parametrize("kind, classes", [("logistic", 2), ("mlp1", 3)])
    def test_protocol_runs(self, mech, schedule, kind, classes):
        spec = datagen.DatasetSpec(num_clients=3, per_client_size=4, input_dim=2,
                                   num_classes=classes)
        datasets, = datagen.generate_batch(spec, [5])
        model = models.ModelSpec(kind, 2, hidden_dim=3 if kind == "mlp1" else 0,
                                 num_classes=classes)
        cfg = protocol.FLRunConfig(rounds=4, learning_rate=0.2, lr_schedule=schedule)
        result, = protocol.run_batch(model, cfg, [mech], [datasets], [5])
        assert_writes_the_records_bytes(result)


class TestCsvBytes:
    """The CSV writers spell each float as its ``repr``, one row of cells a line."""

    @settings(derandomize=True)
    @given(vec=arrays(np.float64, st.integers(0, 6), elements=FLOATS))
    def test_vector(self, vec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.csv")
            iomod.write_vector(path, vec)
            with open(path) as fh:
                assert fh.read() == "".join(repr(float(v)) + "\n" for v in vec)

    @settings(derandomize=True)
    @given(trajectory=st.tuples(*(st.integers(1, 3),) * 3).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FLOATS)))
    def test_trajectory(self, trajectory):
        trace = attackmod.AttackTrace(objectives=np.zeros(len(trajectory)),
                                      final_x=trajectory[-1], iters_run=len(trajectory) - 1,
                                      sums=np.zeros(len(trajectory[0])),
                                      final=np.zeros(len(trajectory[0])),
                                      trajectory=trajectory)
        m, p = trajectory.shape[1:]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            iomod.write_trajectory(path, trace)
            with open(path) as fh:
                assert fh.read() == "iteration,sample," + ",".join(
                    f"x{j}" for j in range(p)) + "\n" + "".join(
                    ",".join([str(t), str(i)] + [repr(float(v)) for v in x_t[i]]) + "\n"
                    for t, x_t in enumerate(trajectory) for i in range(m))

    @settings(derandomize=True)
    @given(x=st.tuples(st.integers(1, 4), st.integers(1, 3)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=FLOATS)))
    def test_datasets(self, x):
        y = np.arange(len(x)) % 2
        datasets = [datagen.ClientDataset(client_id=0, x=x, y=y),
                    datagen.ClientDataset(client_id=1, x=x[::-1], y=y)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            iomod.write_datasets(path, datasets)
            with open(path) as fh:
                assert fh.read() == "client_id," + "".join(
                    f"x{j}," for j in range(x.shape[1])) + "label\n" + "".join(
                    ",".join([str(ds.client_id)] + [repr(float(v)) for v in xi]
                             + [str(int(yi))]) + "\n"
                    for ds in datasets for xi, yi in zip(ds.x, ds.y))


class TestTrainCLI:
    def test_deterministic_hash_and_thread_invariance(self, tmp_path):
        base = ["train", "--mech", "none", "--seed", "11", "--rounds", "3"]
        runs = {}
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = str(tmp_path / name)
            r = run_cli(base + ["--out", out], env_extra={"FEDTRADEOFF_THREADS": threads})
            assert r.returncode == 0, r.stderr
            runs[name] = dir_hashes(out)
        assert runs["a"] == runs["b"] == runs["c"]

    def test_he_emits_zero_delta_two(self, tmp_path):
        out = str(tmp_path / "he")
        r = run_cli(["train", "--mech", "he", "--seed", "3", "--rounds", "4",
                     "--out", out])
        assert r.returncode == 0, r.stderr
        rows = read_round_dicts(os.path.join(out, "rounds.jsonl"))
        assert all(row["delta_two_grad"] == 0.0 for row in rows)
        assert all(row["delta_two_param"] == 0.0 for row in rows)
        assert all(min(row["delta_up_grad"]) > 0.0 for row in rows)

    def test_rand_sigma_zero_matches_none(self, tmp_path):
        out_none = str(tmp_path / "none")
        out_rand = str(tmp_path / "rand0")
        assert run_cli(["train", "--mech", "none", "--seed", "5",
                        "--out", out_none]).returncode == 0
        assert run_cli(["train", "--mech", "rand", "--sigma", "0", "--seed", "5",
                        "--out", out_rand]).returncode == 0
        for name in ("rounds.jsonl", "datasets.csv", "model_final_decoded.csv",
                     "model_final_shadow.csv"):
            assert file_hash(os.path.join(out_none, name)) == \
                file_hash(os.path.join(out_rand, name))


class TestMain:
    def test_parser_built_once_per_process(self, tmp_path):
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit) as usage:       # --out missing
            cli.main(["train"])
        assert usage.value.code == 1
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["train", "--mech", "rand", "--rounds", "2", "--seed", "4",
                             "--out", str(out)]) == 0
        assert cli.build_parser.cache_info().misses == 1
        assert dir_hashes(outs[0]) == dir_hashes(outs[1])


class TestLoadConfig:
    def load(self, argv):
        return cli._load_config(cli.build_parser().parse_args(["train", "--out", "o", *argv]))

    def test_each_flag_sets_its_fields(self):
        cfg = self.load(["--mech", "rand", "--sigma", "0.2", "--shared-noise", "--rounds", "4",
                         "--lr", "0.3", "--seed", "8", "--clients", "3", "--samples", "5",
                         "--input-dim", "4", "--model", "mlp1", "--hidden", "6",
                         "--iters", "9", "--step-size", "0.7", "--optimizer", "sgd"])
        assert cfg.mechanism == MechanismSpec("randomization", 0.2, shared_noise=True)
        assert (cfg.fl.rounds, cfg.fl.learning_rate, cfg.master_seed) == (4, 0.3, 8)
        assert (cfg.dataset.num_clients, cfg.dataset.per_client_size,
                cfg.dataset.input_dim) == (3, 5, 4)
        assert (cfg.model.kind, cfg.model.input_dim, cfg.model.hidden_dim) == ("mlp1", 4, 6)
        assert (cfg.attack.iters, cfg.attack.step_size, cfg.attack.optimizer) == \
            (9, 0.7, "sgd")

    def test_absent_flags_keep_the_config_file(self, tmp_path):
        config = cli.default_config().to_dict()
        config["mechanism"].update(kind="randomization", sigma=0.4, shared_noise=True)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert self.load(["--config", str(path)]).to_dict() == config


class TestAttackCLI:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out = str(tmp_path / "run")
        r = run_cli(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                     "--samples", "6", "--rounds", "2", "--out", out])
        assert r.returncode == 0, r.stderr
        return out

    def test_attack_produces_results(self, run_dir, tmp_path):
        out = str(tmp_path / "atk")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "20"])
        assert r.returncode == 0, r.stderr
        rows = iomod.read_results(os.path.join(out, "results.csv"))
        assert len(rows) == 1
        assert 0.0 <= rows[0].eps_p <= 1.0

    def test_inversion_that_overflows_truncates_without_a_warning(self, tmp_path):
        # plain SGD on the linear model: its seventh candidate overflows, which
        # truncates the run after six steps. Under the suite's
        # error::RuntimeWarning filter the overflow once escaped as a
        # traceback (exit 1) and wrote no --out
        run_dir, out = str(tmp_path / "run"), str(tmp_path / "atk")
        r = run_cli(["train", "--model", "linear", "--optimizer", "sgd", "--step-size", "50",
                     "--seed", "13", "--out", run_dir])
        assert r.returncode == 0, r.stderr
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "attack.jsonl")) as fh:
            head = json.loads(fh.readline())
        assert head["truncated"] is True and head["iters_run"] == 6

    def test_missing_artifacts_exit_1(self, tmp_path):
        r = run_cli(["attack", "--run-dir", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")])
        assert r.returncode == 1

    @pytest.mark.parametrize("index", [["--round", "-1"], ["--client", "-1"],
                                       ["--round", "2"], ["--client", "5"]])
    def test_round_or_client_outside_run_exit_1(self, run_dir, tmp_path, index):
        # a negative index must not wrap around to the last round or client
        out = str(tmp_path / "o")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "5", *index])
        assert r.returncode == 1
        where = "log (have 2)" if index[0] == "--round" else "artifacts"
        assert r.stderr == f"config error: {index[0][2:]} {index[1]} not in {where}\n"
        assert not os.path.exists(os.path.join(out, "results.csv"))

    def test_manifest_with_keep_every_exit_1(self, run_dir, tmp_path):
        # attack.keep_every was removed; a manifest that still carries it is stale
        path = os.path.join(run_dir, "manifest.json")
        manifest = iomod.read_manifest(path)
        manifest["config"]["attack"]["keep_every"] = 1
        with open(path, "w") as fh:
            json.dump(manifest, fh)
        out = str(tmp_path / "o")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "5"])
        assert r.returncode == 1
        assert "config error" in r.stderr and "keep_every" in r.stderr
        assert "Traceback" not in r.stderr
        assert not os.path.exists(os.path.join(out, "results.csv"))

    @pytest.mark.parametrize("name, damage", [
        ("manifest.json", lambda text: text[:len(text) // 2]),
        ("manifest.json", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "config"})),
        ("rounds.jsonl", lambda text: text.replace("\n", "\n{\"round\": \n", 1)),
        ("model_final_shadow.csv", lambda text: text.replace("\n", "\nnot-a-number\n", 1)),
        ("datasets.csv", lambda text: text.replace("\n0,", "\nzero,", 1)),
        *[("manifest.json", lambda text, seed=seed: json.dumps(
            {**json.loads(text), "master_seed": seed})) for seed in (-1, None, 1.5, "7", True)],
        # the attacked round's line is not a round record
        ("rounds.jsonl", lambda text: '{"round": 0}\n' + text.split("\n", 1)[1]),
        ("rounds.jsonl", lambda text: '[1, 2]\n' + text.split("\n", 1)[1]),
        ("rounds.jsonl", lambda text: json.dumps(
            {**json.loads(text.split("\n", 1)[0]), "wires": [[1.0]]}) + text[text.index("\n"):]),
        # files that parse, but whose sizes do not fit the others
        ("datasets.csv", lambda text: "".join(
            line for line in text.splitlines(True) if not line.startswith("1,"))),
        ("model_final_shadow.csv", lambda text: text.split("\n", 1)[1]),
        ("model_final_decoded.csv", lambda text: text + "0.5\n"),
        # datasets that parse and fit the uploads, but not the manifest: client
        # 0's rows relabelled as client 7 (client 0's upload was once inverted
        # against client 1's data), one of client 0's rows deleted, and a label
        # outside the manifest's two classes
        ("datasets.csv", lambda text: text.replace("\n0,", "\n7,")),
        ("datasets.csv", lambda text: text.replace(
            next(line for line in text.splitlines(True) if line.startswith("0,")), "", 1)),
        ("datasets.csv", lambda text: text.replace(",0\n", ",5\n", 1)),
        # bytes that are not UTF-8: a whole file, and one byte opening a line
        # inside the first 8 KiB a text read decodes at once
        ("rounds.jsonl", lambda text: b"\xff\xfe x\n"),
        ("rounds.jsonl", lambda text: text.replace("\n", "\n\udcff", 1).encode(
            "utf-8", "surrogateescape")),
        ("datasets.csv", lambda text: b"\xff"),
        ("datasets.csv", lambda text: text.replace("\n", "\n\udcff", 2).encode(
            "utf-8", "surrogateescape")),
        # a round log that parses but disagrees with its manifest: its lines
        # out of order, and one round short
        ("rounds.jsonl", lambda text: "".join(reversed(text.splitlines(True)))),
        ("rounds.jsonl", lambda text: "".join(text.splitlines(True)[:-1])),
        # a line the attack does not score is still checked, and named: the
        # last of the two rounds' lines cut short, with round 0 attacked
        ("rounds.jsonl, line 2", lambda text: "".join(text.splitlines(True)[:-1])
         + text.splitlines()[-1][:40] + "\n"),
    ], ids=["manifest-truncated", "manifest-without-config", "round-log-bad-line",
            "vector-non-numeric", "datasets-non-numeric", "master-seed-negative",
            "master-seed-null", "master-seed-float", "master-seed-string", "master-seed-bool",
            "round-log-without-keys", "round-log-not-an-object", "round-log-misshapen-wires",
            "datasets-one-client-short", "shadow-one-short", "decoded-one-long",
            "datasets-client-relabelled", "datasets-one-row-short", "datasets-label-5",
            "round-log-not-utf8", "round-log-bad-byte-line-2", "datasets-not-utf8",
            "datasets-bad-byte-row-2", "round-log-reversed", "round-log-one-round-short",
            "round-log-unscored-line-malformed"])
    def test_damaged_run_dir_exit_1(self, run_dir, tmp_path, name, damage):
        # name is the damaged file, and what stderr must say of it when that
        # is more than its name
        path = os.path.join(run_dir, name.split(",")[0])
        with open(path) as fh:
            text = fh.read()
        damaged = damage(text)
        with open(path, "wb" if isinstance(damaged, bytes) else "w") as fh:
            fh.write(damaged)
        out = tmp_path / "o"
        r = run_cli(["attack", "--run-dir", run_dir, "--out", str(out), "--iters", "5"])
        assert r.returncode == 1
        assert "config error" in r.stderr and name in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_append_under_another_header_exit_1(self, run_dir, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        results = out / "results.csv"
        results.write_text("a,b\n1,2\n")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", str(out), "--iters", "5",
                     "--append"])
        assert r.returncode == 1
        assert "config error: results header mismatch" in r.stderr
        assert results.read_text() == "a,b\n1,2\n"

    def test_pac_delta_half_precondition_exit_1(self, run_dir, tmp_path):
        r = run_cli(["attack", "--run-dir", run_dir, "--out", str(tmp_path / "o"),
                     "--iters", "10", "--phase2", "--pac-delta", "0.5"])
        assert r.returncode == 1

    def test_non_finite_or_overflowing_adv_budget_exit_1(self, run_dir, tmp_path):
        # NaN once scored an adv_risk, inf and 1e308 warned from inside a matmul
        for budget in ("nan", "inf", "1e308"):
            r = run_cli(["attack", "--run-dir", run_dir, "--out", str(tmp_path / budget),
                         "--iters", "10", "--phase2", f"--adv-budget={budget}"])
            assert r.returncode == 1, (budget, r.stderr)
            assert "config error: budget" in r.stderr
            assert "Traceback" not in r.stderr and "RuntimeWarning" not in r.stderr

    @pytest.mark.parametrize("flag", [["--adv-budget=nan"], ["--pac-eps=nan"],
                                      ["--pac-delta", "2"]],
                             ids=["adv-budget-nan", "pac-eps-nan", "pac-delta-2"])
    def test_phase2_error_leaves_out_as_it_was(self, run_dir, tmp_path, flag):
        # attack once wrote its files, and appended its row, before phase 2 failed
        fresh = str(tmp_path / "fresh")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", fresh, "--iters", "10",
                     "--phase2", *flag])
        assert r.returncode == 1 and "config error:" in r.stderr, r.stderr
        assert not os.path.exists(fresh)
        earlier = str(tmp_path / "earlier")
        assert run_cli(["attack", "--run-dir", run_dir, "--out", earlier,
                        "--iters", "10"]).returncode == 0
        before = dir_hashes(earlier)
        r = run_cli(["attack", "--run-dir", run_dir, "--out", earlier, "--iters", "10",
                     "--append", "--phase2", *flag])
        assert r.returncode == 1 and "config error:" in r.stderr, r.stderr
        assert dir_hashes(earlier) == before

    @pytest.fixture(scope="class")
    def fuzz_run(self, tmp_path_factory):
        """A two-client, two-round run and one attack's --out on it."""
        root = tmp_path_factory.mktemp("fuzz")
        run, earlier = str(root / "run"), str(root / "earlier")
        assert run_cli(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                        "--samples", "6", "--rounds", "2", "--clients", "2",
                        "--out", run]).returncode == 0
        assert run_cli(["attack", "--run-dir", run, "--out", earlier, "--iters", "2",
                        "--phase2"]).returncode == 0
        return run, earlier

    @pytest.mark.parametrize("flag, value", [
        (flag, value) for flag in ["round", "client", "iters", "pac-eps", "pac-delta", "adv-budget"]
        for value in ["0", "-1", "nan", "inf", "1e300", "1", "3"]])
    def test_numeric_flag_value_runs_or_exits_cleanly(self, fuzz_run, tmp_path, flag, value):
        # each numeric attack flag, set to each value, with phase 2 (which
        # reads the last three): the run exits 0, or 1 with a config error (or
        # the parser's usage error), with no traceback. A run that fails
        # leaves a fresh --out absent, and an earlier --out as it was
        run, earlier = fuzz_run
        args = ["attack", "--run-dir", run, "--iters", "2", "--phase2", f"--{flag}={value}"]
        out = tmp_path / "fresh"
        r = run_cli([*args, "--out", str(out)])
        last = r.stderr.strip().splitlines()[-1] if r.stderr.strip() else ""
        assert "Traceback" not in r.stderr
        assert r.returncode == 0 or (r.returncode == 1 and last.startswith(
            ("config error:", f"error: argument --{flag}"))), r.stderr
        if r.returncode:
            assert not out.exists()
            shutil.copytree(earlier, tmp_path / "earlier")
            before = dir_hashes(tmp_path / "earlier")
            assert run_cli([*args, "--out", str(tmp_path / "earlier"), "--append"]).returncode == 1
            assert dir_hashes(tmp_path / "earlier") == before

    def test_phase2_report_written(self, run_dir, tmp_path):
        out = str(tmp_path / "p2")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "10",
                     "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9"])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "phase2.json")) as fh:
            rep = json.load(fh)
        assert 0.0 <= rep["risk"] <= rep["adv_risk"] <= 1.0


@st.composite
def attacked_runs(draw):
    """A small config of each model kind and mechanism, and the (round, client)
    that ``attack`` inverts in its run."""
    kind, classes = draw(st.sampled_from([("linear", 2), ("logistic", 2), ("logistic", 3),
                                          ("mlp1", 2)]))
    k, m, p, rounds = (draw(st.integers(*span)) for span in ((1, 3), (2, 5), (1, 3), (1, 3)))
    optimizer, backtracking = draw(st.sampled_from([("adam", False), ("sgd", False),
                                                    ("sgd", True)]))
    mechanism = MechanismSpec(kind=draw(st.sampled_from(["none", "randomization", "he_codec"])),
                              sigma=draw(st.sampled_from([0.0, 0.1, 1.0])),
                              shared_noise=draw(st.booleans()))
    base = cli.default_config()
    config = replace(
        base,
        dataset=replace(base.dataset, num_clients=k, per_client_size=m, input_dim=p,
                        num_classes=classes),
        model=models.ModelSpec(kind, p, hidden_dim=3 if kind == "mlp1" else 0,
                               num_classes=classes),
        fl=replace(base.fl, rounds=rounds),
        mechanism=mechanism if mechanism.kind == "randomization" else MechanismSpec(
            mechanism.kind),      # the other kinds read neither sigma nor shared_noise
        attack=replace(base.attack, iters=draw(st.integers(1, 6)), optimizer=optimizer,
                       backtracking=backtracking, step_size=0.1,
                       init=draw(st.sampled_from(["zeros", "gaussian"]))),
        master_seed=draw(st.integers(0, 2**16)), num_pairs=20, n_eval=100)
    return config, draw(st.integers(0, rounds - 1)), draw(st.integers(0, k - 1))


def row_bits(row):
    """A results row's fields, each float as its bits and NaN as "nan"."""
    return [("nan" if math.isnan(v) else np.float64(v).view(np.uint64))
            if isinstance(v, float) else v for v in row.as_list()]


class TestAttackMatchesRunTrial:
    """``attack`` on a trained run scores the upload as a trial of ``run_trials``
    does."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        run_dir = str(tmp_path_factory.mktemp("run"))
        assert cli.main(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                         "--samples", "6", "--rounds", "3", "--out", run_dir]) == 0
        manifest = iomod.read_manifest(os.path.join(run_dir, "manifest.json"))
        return run_dir, ExperimentConfig.from_dict(manifest["config"]), manifest["master_seed"]

    @pytest.mark.parametrize("rnd,client,extra", [(0, 0, []), (2, 1, ["--phase2"]),
                                                  (1, 1, ["--dump-trajectory"])])
    def test_attack_row_equals_run_trial(self, trained, tmp_path, rnd, client, extra):
        run_dir, config, seed = trained
        out = str(tmp_path / "atk")
        assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--round", str(rnd),
                         "--client", str(client), *extra]) == 0
        got = iomod.read_results(os.path.join(out, "results.csv"))[0]
        want, = run_trials(replace(config, attack_round=rnd, attack_client=client),
                           [(seed, config.mechanism, {})], score_trials)
        # the attack row keys on the manifest config, whose attacked (round, client)
        # is (0, 0)
        assert got.sweep_axis == "attack"
        assert got.experiment_id == config.experiment_id()
        skip = {"sweep_axis"} | ({"experiment_id"} if (rnd, client) != (0, 0) else set())
        for name in TrialRow.FIELDS:
            if name in skip:
                continue
            a, b = getattr(got, name), getattr(want, name)
            assert a == b or (np.isnan(a) and np.isnan(b)), name
        if "--dump-trajectory" in extra:
            # the dumped iterates, walked against the client's rows, score the row
            with open(os.path.join(out, "trajectory.csv")) as fh:
                rows = [[float(cell) for cell in line.split(",")] for line in fh.readlines()[1:]]
            originals = iomod.read_datasets(os.path.join(run_dir, "datasets.csv"))[client].x
            m = len(originals)
            trajectory = np.array([row[2:] for row in rows]).reshape(-1, *originals.shape)
            assert len(trajectory) == config.attack.iters + 1
            assert [row[:2] for row in rows] == [[t, i] for t in range(len(trajectory))
                                                 for i in range(m)]
            assert rewalk_leakage(trajectory, originals, config.dataset.diameter_cap) == (
                got.eps_p, got.eps_p_final)

    @settings(derandomize=True)
    @given(run=attacked_runs())
    def test_attack_row_is_the_run_trials_row(self, run):
        # over small drawn configs: the row ``attack`` writes is, bit for bit,
        # the row run_trials scores for the attacked (round, client)
        config, rnd, client = run
        with tempfile.TemporaryDirectory() as tmp:
            path, run_dir, out = (os.path.join(tmp, name) for name in ("c.json", "run", "atk"))
            with open(path, "w") as fh:
                json.dump(config.to_dict(), fh)
            assert cli.main(["train", "--config", path, "--out", run_dir]) == 0
            assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--round", str(rnd),
                             "--client", str(client)]) == 0
            got, = iomod.read_results(os.path.join(out, "results.csv"))
        want, = run_trials(replace(config, attack_round=rnd, attack_client=client),
                           [(config.master_seed, config.mechanism, dict(
                               sweep_axis="attack", experiment_id=config.experiment_id()))],
                           score_trials)
        assert row_bits(got) == row_bits(want)

    def test_iters_keeps_manifest_experiment_id(self, trained, tmp_path):
        run_dir, config, _ = trained
        out = str(tmp_path / "atk")
        assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--iters", "7"]) == 0
        row = iomod.read_results(os.path.join(out, "results.csv"))[0]
        assert row.experiment_id == config.experiment_id()
        assert row.experiment_id != replace(
            config, attack=replace(config.attack, iters=7)).experiment_id()


# the config's float leaves, each of which takes an int but not a bool
NUMBER_LEAVES = [
    ("dataset", "class_separation"), ("dataset", "diameter_cap"),
    ("fl", "learning_rate"), ("fl", "init_scale"),
    ("mechanism", "sigma"), ("mechanism", "offset_scale"), ("mechanism", "exact_norm"),
    ("attack", "step_size"), ("attack", "init_scale"),
    (None, "quantile"), (None, "gamma"), (None, "eta"),
]


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["attack", "--run-dir", "run", "--iters", str(10 ** 21)],
        ["verify", "--bound", "privacy", "--trials", "100", "--iters", str(10 ** 21)],
        ["verify", "--bound", "privacy", "--trials", "100", "--samples", str(10 ** 21)],
        ["train", "--rounds", str(10 ** 21)],
        ["sweep", "--axis", "T", "--values", "1,1e300"],
        ["sweep", "--axis", "m", "--values", "1,1e300"],
        ["sweep", "--axis", "sigma", "--values", "0,1", "--trials", str(10 ** 21)],
    ], ids=["attack-iters", "verify-iters", "verify-samples", "train-rounds", "sweep-T",
            "sweep-m", "sweep-trials"])
    def test_count_beyond_numpys_index_range_exit_1(self, tmp_path, monkeypatch, args):
        # once an uncaught ValueError or OverflowError from numpy; no count
        # between about 1e7 and 2**63 is tried, as it would allocate that much
        monkeypatch.chdir(tmp_path)
        if args[0] == "attack":
            assert cli.main(["train", "--samples", "4", "--rounds", "1", "--out", "run"]) == 0
        r = run_cli([*args, "--out", "o"])
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("config error:") and "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [
        ["train", "--model", "logistic", "--hidden", "5", "--rounds", "2", "--seed", "3"],
        ["train", "--model", "linear", "--hidden", "1"],
        ["sweep", "--axis", "sigma", "--values", "0,1", "--hidden", "4"],
        ["estimate-constants", "--hidden", "4"],
        ["verify", "--bound", "utility", "--trials", "100", "--hidden", "4"],
        ["attack", "--run-dir", "run"],
    ], ids=["train-logistic", "train-linear", "sweep", "estimate-constants", "verify",
            "attack"])
    def test_hidden_width_off_mlp1_exit_1(self, tmp_path, monkeypatch, args):
        # once taken and ignored: only the manifest, and so the experiment id, moved
        monkeypatch.chdir(tmp_path)
        if args[0] == "attack":
            assert cli.main(["train", "--samples", "4", "--rounds", "1", "--out", "run"]) == 0
            manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
            manifest["config"]["model"]["hidden_dim"] = 5
            (tmp_path / "run" / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli([*args, "--out", "o"])
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("config error: hidden_dim must be 0 for a ")
        assert "Traceback" not in r.stderr
        assert not (tmp_path / "o").exists()

    def test_numeric_divergence_exit_2(self, tmp_path):
        r = run_cli_process(["train", "--model", "linear", "--lr", "1e8", "--rounds", "80",
                             "--seed", "1", "--out", str(tmp_path / "div")])
        assert r.returncode == 2

    def test_attack_diverged_at_first_step_exit_2(self, tmp_path):
        # sigma = 1e200 overflows the attack objective at its init; a subprocess
        # under PYTHONWARNINGS, so a warning fails it outside pytest's filter too
        r = run_cli_process(["sweep", "--axis", "sigma", "--values", "0,1e200",
                             "--trials", "1", "--out", str(tmp_path / "s")])
        assert r.returncode == 2, r.stderr
        assert "numeric error: attack diverged at its first step" in r.stderr
        assert "Traceback" not in r.stderr
        assert "RuntimeWarning" not in r.stderr

    def test_huge_finite_model_non_finite_loss_exit_2(self, tmp_path):
        # learning rate 60 for 300 rounds: the linear model stays finite, but its
        # squared residuals overflow in the utility loss
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0.3,0.5", "--trials", "1",
                     "--model", "linear", "--lr", "60", "--rounds", "300", "--seed", "3",
                     "--out", str(tmp_path / "s")])
        assert r.returncode == 2, r.stderr
        assert "numeric error: non-finite loss" in r.stderr
        assert "RuntimeWarning" not in r.stderr

    @pytest.mark.parametrize("bound, flag", [
        ("tradeoff-general", "--big-l=nan"), ("tradeoff-general", "--big-l=-1"),
        ("tradeoff-general", "--big-l=inf"), ("tradeoff-randomization", "--rho=nan"),
        ("tradeoff-randomization", "--rho=-1"),
    ], ids=["big-l-nan", "big-l-negative", "big-l-inf", "rho-nan", "rho-negative"])
    def test_bad_tradeoff_constant_exit_1(self, tmp_path, bound, flag):
        # a NaN constant once gave a NaN rhs, which counted as holding
        r = run_cli(["verify", "--bound", bound, "--trials", "100", "--clients", "2",
                     "--samples", "4", "--iters", "5", "--rounds", "1", "--n-eval", "100",
                     flag, "--out", str(tmp_path / "v")])
        name = flag[2:flag.index("=")].replace("-", "_")
        assert r.returncode == 1, r.stderr
        assert f"config error: {name} must be finite and > 0" in r.stderr
        assert "Traceback" not in r.stderr

    # (dataset.num_classes, model kind, model.num_classes): a label the model
    # has no class for. The first two once trained and then died in attack
    # with an IndexError; the third trained on label 2 as the target y = 2
    CLASS_MISMATCHES = [(4, "logistic", 3), (3, "mlp1", 2), (3, "logistic", 2)]

    @staticmethod
    def class_config(tmp_path, classes, kind, model_classes):
        cfg = cli.default_config().to_dict()
        cfg["dataset"]["num_classes"] = classes
        cfg["model"].update(kind=kind, num_classes=model_classes,
                            hidden_dim=3 if kind == "mlp1" else 0)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    @pytest.mark.parametrize("classes, kind, model_classes", CLASS_MISMATCHES)
    @pytest.mark.parametrize("command", [
        ["train"], ["sweep", "--axis", "sigma", "--values", "0", "--trials", "1"],
        ["estimate-constants"]])
    def test_labels_the_model_has_no_class_for_exit_1(self, tmp_path, command, classes, kind,
                                                      model_classes):
        out = tmp_path / "o"
        r = run_cli([*command, "--config", self.class_config(tmp_path, classes, kind,
                                                             model_classes), "--out", str(out)])
        assert r.returncode == 1, r.stderr
        assert (f"config error: dataset.num_classes {classes} differs from "
                f"model.num_classes {model_classes}") in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("classes, kind, model_classes", CLASS_MISMATCHES)
    def test_attack_on_a_manifest_of_mismatched_classes_exit_1(self, tmp_path, classes, kind,
                                                               model_classes):
        # the run trained with matching classes, its manifest then edited
        run_dir, out = tmp_path / "run", tmp_path / "atk"
        assert run_cli(["train", "--config", self.class_config(
            tmp_path, classes, kind, classes), "--out", str(run_dir)]).returncode == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["config"]["model"]["num_classes"] = model_classes
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        r = run_cli(["attack", "--run-dir", str(run_dir), "--out", str(out), "--iters", "5"])
        assert r.returncode == 1, r.stderr
        assert "config error: dataset.num_classes" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    def test_bad_sweep_value_exit_1(self, tmp_path):
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0,abc", "--trials", "2",
                     "--out", str(tmp_path / "s")])
        assert r.returncode == 1
        assert "config error" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("mechanism, args, message", [
        ({"kind": "bogus"}, ["train"], "unknown mechanism kind"),
        ({"kind": "randomization", "sigma": -1.0}, ["train"], "sigma must be >= 0"),
        ({"kind": "randomization", "exact_norm": -1.0}, ["train"], "exact_norm must be >= 0"),
        # written as JSON Infinity
        ({"kind": "he_codec", "offset_scale": float("inf")}, ["train"], "offset must be finite"),
        ({}, ["sweep", "--axis", "sigma", "--values=-1,0", "--trials", "1"],
         "sigma must be >= 0"),
        ({}, ["train", "--mech", "rand", "--sigma", "nan"], "sigma must be >= 0"),
        # written as JSON NaN
        ({"kind": "randomization", "exact_norm": float("nan")}, ["train"],
         "exact_norm must be >= 0"),
        # once a run aborted at round 0, exit 2
        ({"kind": "randomization", "sigma": float("inf")}, ["train"],
         "sigma must be >= 0 and finite"),
        ({"kind": "randomization", "exact_norm": float("inf")}, ["train"],
         "exact_norm must be >= 0 and finite"),
    ], ids=["kind-bogus", "sigma-negative", "exact-norm-negative", "offset-scale-infinite",
            "sweep-sigma-negative", "sigma-nan", "exact-norm-nan", "sigma-inf",
            "exact-norm-inf"])
    def test_bad_mechanism_exit_1(self, tmp_path, mechanism, args, message):
        config = cli.default_config().to_dict()
        config["mechanism"].update(mechanism)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        r = run_cli([*args, "--config", str(path), "--out", str(tmp_path / "o")])
        assert r.returncode == 1, r.stderr
        assert f"config error: {message}" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("args, mechanism, message", [
        (["--mech", "none", "--sigma", "nan"], {}, "sigma must be finite"),
        (["--mech", "he", "--sigma", "inf"], {}, "sigma must be finite"),
        # written as JSON NaN
        ([], {"kind": "randomization", "offset_scale": float("nan")}, "offset must be finite"),
        ([], {"kind": "none", "offset_scale": float("nan")}, "offset must be finite"),
    ], ids=["none-sigma-nan", "he-sigma-inf", "randomization-offset-nan", "none-offset-nan"])
    def test_non_finite_mechanism_value_writes_no_manifest(self, tmp_path, args, mechanism,
                                                           message):
        # once each of these exited 0 and wrote NaN or Infinity into
        # manifest.json, which a strict JSON parser rejects
        config = cli.default_config().to_dict()
        config["mechanism"].update(mechanism)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        r = run_cli(["train", *args, "--config", str(path), "--out", str(tmp_path / "o")])
        assert r.returncode == 1, r.stderr
        assert f"config error: {message}" in r.stderr
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("init_scale", float("nan"), "init_scale must be finite and >= 0"),
        ("init_scale", float("inf"), "init_scale must be finite and >= 0"),
        ("init_scale", -0.5, "init_scale must be finite and >= 0"),
        ("learning_rate", float("nan"), "learning rate must be finite and > 0"),
        ("learning_rate", float("inf"), "learning rate must be finite and > 0"),
    ], ids=["init-scale-nan", "init-scale-inf", "init-scale-negative", "lr-nan", "lr-inf"])
    def test_bad_fl_value_exit_1(self, tmp_path, field, value, message):
        config = cli.default_config().to_dict()
        config["fl"][field] = value          # NaN and inf written as JSON NaN / Infinity
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        r = run_cli(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert r.returncode == 1, r.stderr
        assert f"config error: {message}" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("section, field, value, message", [
        # a redraw loop that did not end, then NaN that passed as a separation
        ("dataset", "class_separation", 20.0, "class_separation must be between 0 and 14"),
        ("dataset", "class_separation", float("inf"),
         "class_separation must be between 0 and 14"),
        ("dataset", "class_separation", float("nan"),
         "class_separation must be between 0 and 14"),
        ("dataset", "class_separation", -1.0, "class_separation must be between 0 and 14"),
        ("dataset", "diameter_cap", float("nan"), "diameter_cap must be finite and > 0"),
        # D^2 overflowed in the bounds and the clamped distances
        ("dataset", "diameter_cap", 1e154, "diameter_cap must be finite and > 0, at most 1e+150"),
        (None, "master_seed", -1, "master_seed must be an integer >= 0"),
        (None, "master_seed", float("nan"), "master_seed must be an integer >= 0"),
        (None, "attack_round", 0.0, "attack_round must be an integer >= 0"),
        (None, "attack_client", -1, "attack_client must be an integer >= 0"),
        # a float or NaN where an int is due, once an uncaught TypeError or accepted
        ("fl", "rounds", 2.0, "rounds must be an integer >= 1"),
        ("fl", "rounds", float("nan"), "rounds must be an integer >= 1"),
        ("attack", "iters", 20.0, "iters must be an integer >= 1"),
        ("attack", "iters", float("nan"), "iters must be an integer >= 1"),
        (None, "n_eval", 400.0, "n_eval must be an integer >= 1"),
        (None, "n_eval", float("nan"), "n_eval must be an integer >= 1"),
        (None, "n_eval", 0, "n_eval must be an integer >= 1"),
        (None, "n_eval", 99, "n_eval must be >= 100"),
        (None, "num_pairs", 120.0, "num_pairs must be an integer >= 2"),
        (None, "num_pairs", float("nan"), "num_pairs must be an integer >= 2"),
        # once checked only where a trial's constants are estimated, so train took it
        (None, "num_pairs", 1, "num_pairs must be an integer >= 2"),
        ("dataset", "num_clients", 2.0, "num_clients must be an integer >= 1"),
        ("dataset", "per_client_size", 8.0, "per_client_size must be an integer >= 1"),
        ("dataset", "num_classes", 2.0, "num_classes must be an integer >= 2"),
        ("model", "input_dim", 2.0, "input_dim must be an integer >= 1"),
        ("model", "hidden_dim", 4.0, "hidden_dim must be an integer >= 0"),
        # once a diverged attack, exit 2
        ("attack", "step_size", float("nan"), "step_size must be finite and > 0"),
        ("attack", "step_size", float("inf"), "step_size must be finite and > 0"),
        ("attack", "init_scale", float("nan"), "attack init_scale must be finite and >= 0"),
        # a redraw loop that did not end: rows outside the radius at 60 dimensions
        ("dataset", "input_dim", 60, "input_dim 60 at class_separation 2: a row lands "
                                     "inside the truncation radius with probability "
                                     "1.4e-09, below 0.0001"),
        # once checked only where a trial is scored, so train took them
        (None, "quantile", float("nan"), "quantile must be in [0, 0.5]"),
        (None, "quantile", 0.6, "quantile must be in [0, 0.5]"),
        (None, "gamma", float("nan"), "gamma must be in (0, 2]"),
        (None, "gamma", 0.0, "gamma must be in (0, 2]"),
        (None, "eta", float("nan"), "eta must be in (0, 1]"),
        (None, "eta", 1.5, "eta must be in (0, 1]"),
        # once read by truthiness: "false" ran with every client's noise row equal
        ("mechanism", "shared_noise", "false", "shared_noise must be true or false"),
        ("mechanism", "shared_noise", 0, "shared_noise must be true or false"),
        ("mechanism", "shared_noise", None, "shared_noise must be true or false"),
        ("attack", "backtracking", "x", "backtracking must be true or false"),
        ("attack", "backtracking", [], "backtracking must be true or false"),
        ("attack", "backtracking", {}, "backtracking must be true or false"),
        ("attack", "backtracking", None, "backtracking must be true or false"),
    ] + [
        # once taken as 1.0 or 0.0
        (section, field, value, f"{field} must be a number")
        for section, field in NUMBER_LEAVES for value in (True, False)
    ], ids=["separation-20", "separation-inf", "separation-nan", "separation-negative",
            "diameter-nan", "diameter-1e154", "seed-negative", "seed-nan", "attack-round-float",
            "attack-client-negative", "rounds-float", "rounds-nan", "iters-float",
            "iters-nan", "n-eval-float", "n-eval-nan", "n-eval-0", "n-eval-99",
            "num-pairs-float", "num-pairs-nan", "num-pairs-1",
            "num-clients-float", "per-client-size-float", "num-classes-float",
            "model-input-dim-float", "hidden-dim-float", "step-size-nan", "step-size-inf",
            "attack-init-scale-nan", "input-dim-60", "quantile-nan", "quantile-0.6",
            "gamma-nan", "gamma-0", "eta-nan", "eta-1.5",
            "shared-noise-string", "shared-noise-0", "shared-noise-null", "backtracking-x",
            "backtracking-list", "backtracking-dict", "backtracking-null",
            ] + [f"{section or 'top'}-{field}-{value}".replace("_", "-").lower()
                 for section, field in NUMBER_LEAVES for value in (True, False)])
    def test_bad_config_value_exit_1(self, tmp_path, section, field, value, message):
        config = cli.default_config().to_dict()
        (config[section] if section else config)[field] = value
        path, out = tmp_path / "config.json", tmp_path / "o"
        path.write_text(json.dumps(config))
        r = run_cli(["train", "--config", str(path), "--out", str(out)], timeout=10)
        assert r.returncode == 1, r.stderr
        assert f"config error: {message}" in r.stderr
        assert "Traceback" not in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("section, field, good, bad", [
        ("mechanism", "shared_noise", True, "true"),
        ("attack", "backtracking", True, 1),
        ("attack", "step_size", 1, True),            # an int is a number, a bool is not
        ("mechanism", "exact_norm", None, True),     # null: no rescaling
    ], ids=["shared-noise", "backtracking", "step-size", "exact-norm"])
    def test_leaf_takes_its_json_type_only(self, tmp_path, section, field, good, bad):
        config = cli.default_config().to_dict()
        config["mechanism"]["kind"] = "randomization"
        config["attack"]["optimizer"] = "sgd"
        path = tmp_path / "config.json"
        for value, code in ((good, 0), (bad, 1)):
            config[section][field] = value
            path.write_text(json.dumps(config))
            out = tmp_path / f"o-{code}"
            r = run_cli(["train", "--config", str(path), "--out", str(out)])
            assert r.returncode == code, r.stderr
            assert out.exists() == (code == 0)
        manifest = json.loads((tmp_path / "o-0" / "manifest.json").read_text())
        echoed = manifest["config"][section][field]
        assert echoed == good and type(echoed) is type(good)

    def test_every_numeric_config_value_runs_or_exits_1(self, tmp_path, capsys):
        # each numeric leaf of the default config, under each mechanism kind, set
        # to each value below: train runs, or exits 1 with a config error; never
        # exit 2 or an uncaught exception
        base = cli.default_config().to_dict()

        def numeric(section):
            return [name for name, v in section.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)]
        leaves = [(None, name) for name in numeric(base)] + [
            (key, name) for key, section in base.items() if isinstance(section, dict)
            for name in numeric(section)]
        path, out = tmp_path / "config.json", str(tmp_path / "o")
        bad = []
        for kind in protocol.MECH_KINDS:
            for section, name in leaves:
                for value in (float("nan"), float("inf"), -float("inf"), -1, 0, 2.5,
                              datagen._MAX_DIAMETER):
                    config = json.loads(json.dumps(base))
                    config["mechanism"]["kind"] = kind
                    (config[section] if section else config)[name] = value
                    path.write_text(json.dumps(config))
                    case = (kind, section, name, value)
                    try:
                        rc = cli.main(["train", "--config", str(path), "--out", out])
                    except Exception as exc:      # noqa: BLE001 -- the case under test
                        bad.append((*case, repr(exc)))
                        continue
                    err = capsys.readouterr().err
                    if not (rc == 0 or (rc == 1 and err.startswith("config error:"))):
                        bad.append((*case, rc, err))
        assert len(leaves) == 28
        assert bad == []

    def test_every_exact_norm_runs_or_exits_1(self, tmp_path, capsys):
        # exact_norm is null by default, so the test above never sets it: null
        # and each value below, under each mechanism kind, on a one-round run
        config = cli.default_config().to_dict()
        config["fl"]["rounds"] = 1
        path, out = tmp_path / "config.json", str(tmp_path / "o")
        codes = {}
        for kind in protocol.MECH_KINDS:
            config["mechanism"]["kind"] = kind
            for value in (None, float("nan"), float("inf"), -float("inf"), -1, 0, 2.5,
                          datagen._MAX_DIAMETER):
                config["mechanism"]["exact_norm"] = value
                path.write_text(json.dumps(config))
                codes[kind, value] = cli.main(["train", "--config", str(path), "--out", out])
                err = capsys.readouterr().err
                assert codes[kind, value] == 0 or (
                    codes[kind, value] == 1 and err.startswith("config error:")), err
        assert all(codes[kind, None] == 0 for kind in protocol.MECH_KINDS)
        assert codes["randomization", 2.5] == 0 and codes["randomization", -1] == 1

    def test_every_config_leaf_at_a_non_numeric_value_exits_1(self, tmp_path, capsys):
        # each leaf of the default config set to each JSON value below: train
        # exits 1 with a config error and leaves no --out, except where the
        # value is one the leaf takes (a bool leaf at false, exact_norm at
        # null) or the leaf is a seed that train does not read
        base = cli.default_config().to_dict()
        leaves = [(None, name) for name, v in base.items() if not isinstance(v, dict)] + [
            (key, name) for key, section in base.items() if isinstance(section, dict)
            for name in section]
        values = ["x", None, [], {}, "1", True, False, [1]]
        path = tmp_path / "config.json"
        ran, bad = set(), []
        for i, (section, name) in enumerate(leaves):
            for j, value in enumerate(values):
                config = json.loads(json.dumps(base))
                (config[section] if section else config)[name] = value
                path.write_text(json.dumps(config))
                out = tmp_path / f"o-{i}-{j}"
                case = (section, name, json.dumps(value))
                try:
                    rc = cli.main(["train", "--config", str(path), "--out", str(out)])
                except Exception as exc:      # noqa: BLE001 -- the case under test
                    bad.append((*case, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if rc == 0:
                    ran.add(case)
                elif not (rc == 1 and err.startswith("config error:") and not out.exists()):
                    bad.append((*case, rc, err))
        assert len(leaves) == 36
        assert bad == []
        # true is refused: the default none mechanism and adam read neither
        assert ran == {(section, "seed", json.dumps(value))
                       for section in ("dataset", "fl", "attack") for value in values} | {
            ("mechanism", "shared_noise", "false"), ("attack", "backtracking", "false"),
            ("mechanism", "exact_norm", "null")}

    def test_malformed_config_json_exit_1(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{"dataset": {')
        r = run_cli_process(["train", "--config", str(bad), "--out", str(tmp_path / "t")])
        assert r.returncode == 1
        assert "config error" in r.stderr
        assert "Traceback" not in r.stderr

    def test_config_not_utf8_exit_1(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_bytes(b'{"dataset": "\xff\xfe"}')
        r = run_cli(["train", "--config", str(bad), "--out", str(tmp_path / "t")])
        assert r.returncode == 1
        assert "config error" in r.stderr
        assert "Traceback" not in r.stderr

    def test_threads_variable_not_read(self, tmp_path):
        # earlier versions rejected a non-integer FEDTRADEOFF_THREADS
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0,0.3", "--trials", "1",
                     "--samples", "4", "--iters", "5", "--rounds", "1",
                     "--out", str(tmp_path / "s")],
                    env_extra={"FEDTRADEOFF_THREADS": "abc"})
        assert r.returncode == 0, r.stderr

    def test_io_error_exit_3(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        r = run_cli_process(["train", "--mech", "none", "--seed", "1",
                             "--out", str(blocker / "sub")])
        assert r.returncode == 3


class TestAttackPipelineQuality:
    def test_unprotected_single_sample_linear_attack_high_leakage(self, tmp_path):
        # threshold locked from the 20-seed pilot (10th percentile 0.98)
        run_dir = str(tmp_path / "run")
        out = str(tmp_path / "atk")
        r = run_cli(["train", "--mech", "none", "--model", "linear", "--samples", "1",
                     "--input-dim", "2", "--clients", "1", "--seed", "0",
                     "--rounds", "1", "--out", run_dir])
        assert r.returncode == 0, r.stderr
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "400"])
        assert r.returncode == 0, r.stderr
        rows = iomod.read_results(os.path.join(out, "results.csv"))
        assert rows[0].eps_p >= 0.95

    def test_attack_summary_and_trajectory_artifacts(self, tmp_path):
        run_dir = str(tmp_path / "run")
        out = str(tmp_path / "atk")
        assert run_cli(["train", "--mech", "rand", "--sigma", "0.1", "--seed", "2",
                        "--samples", "4", "--rounds", "1",
                        "--out", run_dir]).returncode == 0
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "15",
                     "--dump-trajectory"])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "attack.jsonl")) as fh:
            lines = [json.loads(l) for l in fh if l.strip()]
        assert lines[0]["iters_run"] == 15
        assert all("objective" in rec for rec in lines[1:])
        with open(os.path.join(out, "trajectory.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert header[:2] == ["iteration", "sample"]


class TestSweepCLI:
    def test_empty_values_exit_1(self, tmp_path):
        r = run_cli(["sweep", "--axis", "sigma", "--values", "", "--trials", "2",
                     "--out", str(tmp_path / "s")])
        assert r.returncode == 1

    def test_single_value_exit_1(self, tmp_path):
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0.1", "--trials", "2",
                     "--out", str(tmp_path / "s")])
        assert r.returncode == 1

    @pytest.mark.parametrize("axis, values", [
        ("m", "1.5,4"), ("T", "2.7,4"), ("m", "nan,4"), ("T", "nan,4"), ("m", "inf,4"),
        ("T", "inf,4")], ids=["m-1.5", "T-2.7", "m-nan", "T-nan", "m-inf", "T-inf"])
    def test_non_whole_count_value_exit_1(self, tmp_path, axis, values):
        # m and T were once truncated by int(), and NaN or inf raised from it
        out = str(tmp_path / "s")
        r = run_cli(["sweep", "--axis", axis, f"--values={values}", "--trials", "1",
                     "--samples", "4", "--iters", "5", "--rounds", "1", "--out", out])
        assert r.returncode == 1, r.stderr
        assert f"config error: {axis} sweep values must be whole numbers" in r.stderr
        assert "Traceback" not in r.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("axis, values", [
        ("sigma", "0.1,0.1"), ("sigma", "-0,0"), ("m", "4,4"), ("T", "3,2,3.0"),
        ("delta_up", "0.5,0.5")], ids=["sigma", "sigma-signed-zero", "m", "T", "delta_up"])
    def test_repeated_value_exit_1(self, tmp_path, axis, values):
        # a repeated value once ran both points and pooled their rows in its
        # medians; results.csv could not tell the rows apart
        out = str(tmp_path / "s")
        r = run_cli(["sweep", "--axis", axis, f"--values={values}", "--trials", "2",
                     "--samples", "4", "--iters", "2", "--rounds", "1", "--out", out])
        assert r.returncode == 1, r.stderr
        assert "config error: axis values must differ as floats" in r.stderr
        assert "Traceback" not in r.stderr
        assert not os.path.exists(out)

    FUZZ_ARGS = ["--trials", "1", "--samples", "4", "--iters", "2", "--rounds", "1"]

    @pytest.fixture(scope="class")
    def earlier_sweep(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("sweep") / "earlier")
        assert run_cli(["sweep", "--axis", "sigma", "--values", "0,0.1", *self.FUZZ_ARGS,
                        "--out", out]).returncode == 0
        return out

    @pytest.mark.parametrize("axis", ["sigma", "m", "T", "delta_up"])
    @pytest.mark.parametrize("values", ["", "1", "nan,1", "inf,1", "-1,1", "1e300,1", "0,3",
                                        "a,b"])
    def test_bad_values_run_or_exit_cleanly(self, earlier_sweep, tmp_path, axis, values):
        # each axis over each value list: the sweep exits 0, 1 with a config
        # error, or 2 with a numeric error (a first attack step that is not
        # finite, at sigma or delta_up 1e300), with no traceback. A run that
        # fails leaves a fresh --out absent, and an earlier --out as it was
        args = ["sweep", "--axis", axis, f"--values={values}", *self.FUZZ_ARGS]
        out = tmp_path / "fresh"
        r = run_cli([*args, "--out", str(out)])
        last = r.stderr.strip().splitlines()[-1] if r.stderr.strip() else ""
        assert "Traceback" not in r.stderr
        assert (r.returncode == 0
                or (r.returncode == 1 and last.startswith("config error:"))
                or (r.returncode == 2 and last.startswith("numeric error:"))), r.stderr
        if r.returncode:
            assert not out.exists()
            shutil.copytree(earlier_sweep, tmp_path / "earlier")
            before = dir_hashes(tmp_path / "earlier")
            assert run_cli([*args, "--out", str(tmp_path / "earlier")]).returncode == r.returncode
            assert dir_hashes(tmp_path / "earlier") == before

    def test_small_sweep_runs_and_roundtrips(self, tmp_path):
        out = str(tmp_path / "s")
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0,0.3", "--trials", "2",
                     "--samples", "4", "--iters", "10", "--rounds", "1",
                     "--out", out, "--seed", "1"])
        assert r.returncode == 0, r.stderr
        rows = iomod.read_results(os.path.join(out, "results.csv"))
        assert len(rows) == 4
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "timings.csv"))
        with open(os.path.join(out, "curves.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "axis,value,median_eps_p,median_privacy_rhs"
        assert len(lines) == 3

    def test_sweep_thread_invariance(self, tmp_path):
        args = ["sweep", "--axis", "sigma", "--values", "0,0.3", "--trials", "2",
                "--samples", "4", "--iters", "10", "--rounds", "1", "--seed", "4"]
        out1, out4 = str(tmp_path / "t1"), str(tmp_path / "t4")
        assert run_cli_process(args + ["--out", out1],
                               env_extra={"FEDTRADEOFF_THREADS": "1"}).returncode == 0
        assert run_cli_process(args + ["--out", out4],
                               env_extra={"FEDTRADEOFF_THREADS": "4"}).returncode == 0
        assert file_hash(os.path.join(out1, "results.csv")) == \
            file_hash(os.path.join(out4, "results.csv"))


class TestVerifyCLI:
    def test_unknown_bound_exit_1(self, tmp_path):
        r = run_cli(["verify", "--bound", "no-such-bound", "--trials", "100",
                     "--out", str(tmp_path / "v")])
        assert r.returncode == 1

    def test_negative_seed_is_a_config_error(self, tmp_path):
        r = run_cli(["verify", "--bound", "privacy", "--trials", "100", "--seed", "-1",
                     "--out", str(tmp_path / "v")])
        assert r.returncode == 1
        assert "config error: master_seed must be an integer >= 0" in r.stderr
        assert "Traceback" not in r.stderr

    def test_holding_bound_exit_0_with_report(self, tmp_path):
        out = str(tmp_path / "v")
        r = run_cli(["verify", "--bound", "utility-he", "--trials", "100",
                     "--samples", "4", "--iters", "5", "--rounds", "1",
                     "--n-eval", "100", "--out", out])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "report_utility-he.json")) as fh:
            rep = json.load(fh)
        assert rep["holds"] is True
        assert rep["violations"] == 0
        assert rep["trials"] == 100

    def test_vacuous_budget_warns_exit_0(self, tmp_path):
        out = str(tmp_path / "v")
        r = run_cli(["verify", "--bound", "tradeoff-randomization", "--trials", "100",
                     "--clients", "3", "--gamma", "0.4", "--eta", "0.2",
                     "--samples", "4", "--iters", "5", "--rounds", "1",
                     "--n-eval", "100", "--out", out])
        assert r.returncode == 0, r.stderr
        assert "vacuous" in (r.stderr + r.stdout).lower()

    def test_bound_failure_maps_to_exit_4(self, monkeypatch, tmp_path):
        from fedtradeoff import bounds as boundsmod
        from fedtradeoff import cli, verify as verifymod

        def fake_verify(bound_name, scenario, trials, master_seed=0):
            return boundsmod.BoundReport(
                bound_name=bound_name, rhs_value=1.0, measured_value=2.0,
                precondition_ok=True, holds=False, trials=trials, violations=trials,
                fraction_holding=0.0, confidence=0.9, slack=0.01)

        monkeypatch.setattr(verifymod, "verify_bound", fake_verify)
        rc = cli.main(["verify", "--bound", "privacy", "--trials", "100",
                       "--out", str(tmp_path / "v")])
        assert rc == 4

    @pytest.mark.parametrize("flag, value", [
        (flag, value)
        for flag in ["sigma", "gamma", "eta", "rho", "big-l", "samples", "input-dim", "iters",
                     "step-size", "rounds", "n-eval", "diameter", "clients"]
        for value in ["0", "-1", "nan", "inf", "1e300"]]
        # the largest diameter cap, and where the utility bound once overflowed
        + [("diameter", f"{datagen._MAX_DIAMETER:g}"), ("diameter", "1e154")])
    def test_numeric_flag_value_runs_or_exits_cleanly(self, tmp_path, flag, value):
        # each numeric verify flag, set to each value, on a small trade-off
        # verify (it reads every one of them): the run exits 0 or 4, 1 with a
        # config error (or the parser's usage error), or 2 with a numeric
        # error, with no traceback; a run that exits 1 or 2 leaves no --out
        out = tmp_path / "v"
        r = run_cli(["verify", "--bound", "tradeoff-randomization", "--trials", "100",
                     "--samples", "4", "--iters", "2", "--rounds", "1", "--n-eval", "100",
                     "--out", str(out), f"--{flag}={value}"])
        last = r.stderr.strip().splitlines()[-1] if r.stderr.strip() else ""
        assert "Traceback" not in r.stderr
        assert (r.returncode in (0, 4)
                or (r.returncode == 1 and last.startswith(
                    ("config error:", f"error: argument --{flag}")))
                or (r.returncode == 2 and last.startswith("numeric error:"))), r.stderr
        assert r.returncode not in (1, 2) or not out.exists()


class TestEstimateConstantsCLI:
    def test_probe_follows_config_init_scale(self, tmp_path):
        # the probe is the protocol's initial model, so fl.init_scale moves it
        cfg = cli.default_config()
        cfg = replace(cfg, fl=replace(cfg.fl, init_scale=0.1))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        c_a = {}
        for name, extra in (("default", []), ("small", ["--config", str(path)])):
            out = str(tmp_path / name)
            rc = cli.main(["estimate-constants", "--samples", "12", "--iters", "15",
                           "--seed", "3", "--out", out, *extra])
            assert rc == 0
            with open(os.path.join(out, "constants.json")) as fh:
                c_a[name] = json.load(fh)["c_a"]
        assert c_a["default"] != c_a["small"]

    def test_pilot_is_client_0_unprotected_round_0(self, tmp_path):
        # the pilot inverts client 0's unprotected round-0 gradient, whatever
        # mechanism, round and client the config attacks
        cfg = cli.default_config()
        attacked = replace(cfg, mechanism=MechanismSpec("randomization", sigma=0.5),
                           attack_round=2, attack_client=1)
        plain = replace(cfg, mechanism=MechanismSpec("none"), attack_round=0, attack_client=0)
        written = []
        for name, config in (("attacked", attacked), ("plain", plain)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config.to_dict()))
            out = tmp_path / name
            assert cli.main(["estimate-constants", "--config", str(path), "--out", str(out)]) == 0
            written.append((out / "constants.json").read_bytes())
        assert written[0] == written[1]

    def test_writes_constants_json(self, tmp_path):
        out = str(tmp_path / "c")
        r = run_cli(["estimate-constants", "--samples", "12", "--iters", "15",
                     "--seed", "3", "--out", out])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "constants.json")) as fh:
            doc = json.load(fh)
        assert 0 < doc["c_a"] <= doc["c_b"]
        assert doc["c_0"] <= doc["c_2"]
        assert "skip_rate" in doc["meta"]

    def test_every_numeric_config_value_runs_or_exits_cleanly(self, tmp_path, capsys):
        # each numeric leaf of the default config, set to each value below: the
        # pilot runs, exits 1 with a config error or 2 with a numeric error, and
        # a failing run leaves no --out; never an uncaught exception. The pilot
        # replaces the mechanism, so one kind stands for them all
        base = cli.default_config().to_dict()

        def numeric(section):
            return [name for name, v in section.items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)]
        leaves = [(None, name) for name in numeric(base)] + [
            (key, name) for key, section in base.items() if isinstance(section, dict)
            for name in numeric(section)]
        path, out = tmp_path / "config.json", tmp_path / "o"
        bad = []
        for section, name in leaves:
            for value in (float("nan"), float("inf"), -float("inf"), -1, 0, 2.5):
                config = json.loads(json.dumps(base))
                (config[section] if section else config)[name] = value
                path.write_text(json.dumps(config))
                case = (section, name, value)
                try:
                    rc = cli.main(["estimate-constants", "--config", str(path),
                                   "--out", str(out)])
                except Exception as exc:      # noqa: BLE001 -- the case under test
                    bad.append((*case, repr(exc)))
                    continue
                err = capsys.readouterr().err
                clean = ((rc == 1 and err.startswith("config error:"))
                         or (rc == 2 and err.startswith("numeric error:")))
                if rc == 0:
                    shutil.rmtree(out)
                elif not clean or out.exists():
                    bad.append((*case, rc, err, out.exists()))
        assert len(leaves) == 28
        assert bad == []


# each mechanism field that a kind does not read, at a value off its default
UNREAD_MECHANISM = [("none", "sigma", 0.5), ("none", "shared_noise", True),
                    ("none", "offset_scale", 2.0), ("none", "exact_norm", 1.0),
                    ("randomization", "offset_scale", 2.0), ("he_codec", "sigma", 0.5),
                    ("he_codec", "shared_noise", True), ("he_codec", "exact_norm", 1.0)]
UNREAD_IDS = [f"{kind}-{field}".replace("_", "-") for kind, field, _ in UNREAD_MECHANISM]


class TestUnreadValuesRefused:
    """A value that a run would not read is a config error (exit 1, no
    ``--out``): a mechanism field off its default under a kind that does not
    read it, ``init_scale`` off the gaussian init, ``backtracking`` off sgd,
    ``attack``'s phase-2 flags without ``--phase2`` and the flags whose values
    ``estimate-constants``' pilot would overwrite."""

    @staticmethod
    def assert_refused(r, message, out):
        assert r.returncode == 1, r.stderr
        assert r.stderr.strip().splitlines()[-1] == message
        assert not os.path.exists(out)

    @staticmethod
    def config_file(tmp_path, **sections):
        config = cli.default_config().to_dict()
        for section, leaves in sections.items():
            config[section].update(leaves)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    @pytest.mark.parametrize("kind, field, value", UNREAD_MECHANISM, ids=UNREAD_IDS)
    def test_train(self, tmp_path, kind, field, value):
        path = self.config_file(tmp_path, mechanism={"kind": kind, field: value})
        out = tmp_path / "o"
        r = run_cli(["train", "--config", path, "--out", str(out)])
        self.assert_refused(r, f"config error: mechanism.{field} is not read by a {kind} "
                               "mechanism", out)

    def test_train_sigma_without_mech(self, tmp_path):
        # it once ran unprotected, its results row reading sigma=0.5
        out = tmp_path / "o"
        self.assert_refused(run_cli(["train", "--sigma", "0.5", "--out", str(out)]),
                            "config error: mechanism.sigma is not read by a none mechanism", out)

    @pytest.mark.parametrize("axis, values", [("m", "4,8"), ("T", "2,3")])
    def test_sweep_whose_base_mechanism_runs(self, tmp_path, axis, values):
        out = tmp_path / "o"
        r = run_cli(["sweep", "--axis", axis, "--values", values, "--trials", "2",
                     "--iters", "2", "--rounds", "1", "--shared-noise", "--out", str(out)])
        self.assert_refused(
            r, "config error: mechanism.shared_noise is not read by a none mechanism", out)

    @pytest.mark.parametrize("axis, values", [("sigma", "0,0.2"), ("delta_up", "0.5,2")])
    def test_sweep_that_replaces_the_base_mechanism_reads_its_shared_noise(self, tmp_path, axis,
                                                                          values):
        base = ["sweep", "--axis", axis, "--values", values, "--trials", "2", "--iters", "2",
                "--rounds", "1", "--clients", "3"]
        results = {}
        for name, extra in (("own", []), ("shared", ["--shared-noise"])):
            r = run_cli([*base, *extra, "--out", str(tmp_path / name)])
            assert r.returncode == 0, r.stderr
            results[name] = (tmp_path / name / "results.csv").read_text()
        assert results["own"] != results["shared"]

    @pytest.mark.parametrize("attack, message", [
        ({"init": "zeros", "init_scale": 7.0}, "attack.init_scale is not read by a zeros init"),
        ({"optimizer": "adam", "backtracking": True}, "attack.backtracking is not read by adam"),
    ], ids=["init-scale-zeros", "backtracking-adam"])
    def test_train_attack_setting(self, tmp_path, attack, message):
        path, out = self.config_file(tmp_path, attack=attack), tmp_path / "o"
        self.assert_refused(run_cli(["train", "--config", path, "--out", str(out)]),
                            f"config error: {message}", out)

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """A run, a copy of it whose manifest holds each unread mechanism
        value, and an attack's --out on the run."""
        root = tmp_path_factory.mktemp("unread")
        run, earlier = root / "run", root / "earlier"
        assert run_cli(["train", "--seed", "2", "--samples", "6", "--rounds", "2",
                        "--out", str(run)]).returncode == 0
        assert run_cli(["attack", "--run-dir", str(run), "--out", str(earlier),
                        "--iters", "2"]).returncode == 0
        for kind, field, value in UNREAD_MECHANISM:
            # what train wrote when it took the value: the same run files
            edited = root / f"{kind}-{field}"
            shutil.copytree(run, edited)
            manifest = json.loads((edited / "manifest.json").read_text())
            manifest["config"]["mechanism"].update(kind=kind, **{field: value})
            (edited / "manifest.json").write_text(json.dumps(manifest))
        return root

    def assert_attack_refused(self, tmp_path, run_dir, flags, message):
        args = ["attack", "--run-dir", run_dir, "--iters", "2", *flags]
        self.assert_refused(run_cli([*args, "--out", str(tmp_path / "fresh")]), message,
                            tmp_path / "fresh")
        earlier = tmp_path / "earlier"
        shutil.copytree(os.path.join(os.path.dirname(run_dir), "earlier"), earlier)
        before = dir_hashes(earlier)
        assert run_cli([*args, "--out", str(earlier), "--append"]).returncode == 1
        assert dir_hashes(earlier) == before

    @pytest.mark.parametrize("kind, field, value", UNREAD_MECHANISM, ids=UNREAD_IDS)
    def test_attack_on_a_manifest_that_holds_one(self, run, tmp_path, kind, field, value):
        self.assert_attack_refused(
            tmp_path, str(run / f"{kind}-{field}"), [],
            f"config error: mechanism.{field} is not read by a {kind} mechanism")

    @pytest.mark.parametrize("flag", ["--adv-budget=0.3", "--pac-eps=0.2", "--pac-delta=0.8"])
    def test_attack_phase2_flag_without_phase2(self, run, tmp_path, flag):
        self.assert_attack_refused(
            tmp_path, str(run / "run"), [flag],
            f"config error: {flag.split('=')[0]} is not read without --phase2")

    @pytest.mark.parametrize("flag", [["--mech", "rand"], ["--sigma", "0.2"], ["--shared-noise"],
                                      ["--rounds", "2"], ["--lr", "0.3"]],
                             ids=["mech", "sigma", "shared-noise", "rounds", "lr"])
    def test_estimate_constants_flag_its_pilot_overwrites(self, tmp_path, flag):
        out = tmp_path / "o"
        r = run_cli(["estimate-constants", "--samples", "6", "--iters", "2", *flag,
                     "--out", str(out)])
        self.assert_refused(r, f"error: unrecognized arguments: {' '.join(flag)}", out)


class TestEveryLeafActs:
    """The dead-knob guard: each mechanism and attack leaf, set off its default
    under each value of the leaves that decide whether it is read, changes what
    ``train`` and then ``attack`` write, or ``train`` refuses it as not read."""

    # the leaves that decide which others are read, and their values
    SELECTORS = {"mechanism": {"kind": protocol.MECH_KINDS},
                 "attack": {"init": ("zeros", "gaussian"), "optimizer": ("adam", "sgd")}}
    # every other leaf's value off its default, which acts where it is read:
    # randomization runs at sigma 0.2, and sgd at a step that backtracking halves
    ACTING = {"mechanism": {"sigma": 0.5, "shared_noise": True, "offset_scale": 2.0,
                            "exact_norm": 1.0},
              "attack": {"iters": 2, "step_size": 0.5, "init_scale": 1.5, "backtracking": True}}
    # read by nothing, like dataset.seed and fl.seed: the three go together,
    # re-pinning experiment_id (ROADMAP item 1)
    EXEMPT = {"attack": {"seed"}}

    def outputs(self, tmp_path, config):
        """train's exit code and stderr, and what its rounds.jsonl and attack's
        results.csv hold, but for the row's echoes of the config: the
        experiment_id and sigma columns."""
        path, run, atk = (tmp_path / name for name in ("config.json", "run", "atk"))
        for old in (run, atk):
            shutil.rmtree(old, ignore_errors=True)
        path.write_text(json.dumps(config))
        r = run_cli(["train", "--config", str(path), "--out", str(run)])
        if r.returncode:
            return r.returncode, r.stderr, None
        a = run_cli(["attack", "--run-dir", str(run), "--out", str(atk)])
        assert a.returncode == 0, a.stderr
        rows = [line.split(",") for line in (atk / "results.csv").open()]
        kept = [j for j, name in enumerate(rows[0]) if name not in ("experiment_id", "sigma")]
        return 0, "", ((run / "rounds.jsonl").read_bytes(),
                       [[row[j] for j in kept] for row in rows])

    def test_every_mechanism_and_attack_leaf_acts_or_is_refused(self, tmp_path):
        base = cli.default_config().to_dict()
        base["model"]["kind"] = "linear"
        base["fl"]["rounds"] = 2
        base["attack"]["iters"] = 10
        base.update(n_eval=100, num_pairs=20)
        assert base["dataset"]["num_clients"] == 2
        dead, refused = [], set()
        for section, selectors in self.SELECTORS.items():
            assert set(base[section]) == (set(selectors) | set(self.ACTING[section])
                                          | self.EXEMPT.get(section, set()))
            for chosen in itertools.product(*selectors.values()):
                config = json.loads(json.dumps(base))
                config[section].update(zip(selectors, chosen))
                if config["mechanism"]["kind"] == "randomization":
                    config["mechanism"]["sigma"] = 0.2
                if config["attack"]["optimizer"] == "sgd":
                    config["attack"]["step_size"] = 50.0
                rc, err, default = self.outputs(tmp_path, config)
                assert rc == 0, err
                for leaf, value in self.ACTING[section].items():
                    case = json.loads(json.dumps(config))
                    case[section][leaf] = value
                    rc, err, got = self.outputs(tmp_path, case)
                    if rc == 1 and "is not read" in err:
                        refused.add((*chosen, leaf))
                    elif rc or got == default:
                        dead.append((section, *chosen, leaf, rc, err))
        assert dead == []
        assert refused == {(kind, field) for kind, field, _ in UNREAD_MECHANISM} | {
            ("zeros", optimizer, "init_scale") for optimizer in ("adam", "sgd")} | {
            (init, "adam", "backtracking") for init in ("zeros", "gaussian")}
