import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fedtradeoff import cli, datagen, io as iomod, models, protocol
from fedtradeoff.errors import ConfigurationError
from fedtradeoff.experiment import ExperimentConfig, TrialRow, run_trial


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fedtradeoff.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


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
        spec = datagen.DatasetSpec(num_clients=2, per_client_size=5, input_dim=3, seed=3)
        datasets = datagen.generate(spec)
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
        spec = datagen.DatasetSpec(num_clients=2, per_client_size=4, input_dim=2, seed=1)
        datasets = datagen.generate(spec)
        model = models.ModelSpec("logistic", 2)
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.2, seed=1)
        res = protocol.run(model, cfg, protocol.randomization(0.1), datasets)
        path = str(tmp_path / "r.jsonl")
        iomod.write_round_log(path, res.records)
        back = iomod.read_round_log(path)
        assert len(back) == 3
        for rec, row in zip(res.records, back):
            assert np.array_equal(np.array(row["theta_decoded"]), rec.theta_decoded)
            assert row["delta_two_grad"] == rec.delta_two_grad
            assert np.array_equal(np.array(row["wires"][1]), rec.wires[1])

    def test_round_log_supports_update_audit(self, tmp_path):
        # the emitted log carries enough to re-derive the server update exactly
        from fedtradeoff import protocol as proto
        spec = datagen.DatasetSpec(num_clients=3, per_client_size=4, input_dim=2, seed=2)
        datasets = datagen.generate(spec)
        model = models.ModelSpec("logistic", 2)
        cfg = protocol.FLRunConfig(rounds=3, learning_rate=0.3, seed=2)
        res = protocol.run(model, cfg, protocol.no_protection(), datasets)
        path = str(tmp_path / "r.jsonl")
        iomod.write_round_log(path, res.records)
        sizes = [d.size for d in datasets]
        for row in iomod.read_round_log(path):
            rebuilt = proto.aggregate([np.array(w) for w in row["wires"]], sizes,
                                      np.array(row["theta_decoded"]), row["eta"])
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
        rows = iomod.read_round_log(os.path.join(out, "rounds.jsonl"))
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
        assert "not in" in r.stderr
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
    ], ids=["manifest-truncated", "manifest-without-config", "round-log-bad-line",
            "vector-non-numeric", "datasets-non-numeric"])
    def test_damaged_run_dir_exit_1(self, run_dir, tmp_path, name, damage):
        path = os.path.join(run_dir, name)
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(damage(text))
        r = run_cli(["attack", "--run-dir", run_dir, "--out", str(tmp_path / "o"),
                     "--iters", "5"])
        assert r.returncode == 1
        assert "config error" in r.stderr and name in r.stderr
        assert "Traceback" not in r.stderr

    def test_pac_delta_half_precondition_exit_1(self, run_dir, tmp_path):
        r = run_cli(["attack", "--run-dir", run_dir, "--out", str(tmp_path / "o"),
                     "--iters", "10", "--phase2", "--pac-delta", "0.5"])
        assert r.returncode == 1

    def test_phase2_report_written(self, run_dir, tmp_path):
        out = str(tmp_path / "p2")
        r = run_cli(["attack", "--run-dir", run_dir, "--out", out, "--iters", "10",
                     "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9"])
        assert r.returncode == 0, r.stderr
        with open(os.path.join(out, "phase2.json")) as fh:
            rep = json.load(fh)
        assert 0.0 <= rep["risk"] <= rep["adv_risk"] <= 1.0


class TestAttackMatchesRunTrial:
    """``attack`` on a trained run scores the upload as ``run_trial`` does."""

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
        want = run_trial(replace(config, attack_round=rnd, attack_client=client), seed)
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

    def test_iters_keeps_manifest_experiment_id(self, trained, tmp_path):
        run_dir, config, _ = trained
        out = str(tmp_path / "atk")
        assert cli.main(["attack", "--run-dir", run_dir, "--out", out, "--iters", "7"]) == 0
        row = iomod.read_results(os.path.join(out, "results.csv"))[0]
        assert row.experiment_id == config.experiment_id()
        assert row.experiment_id != replace(
            config, attack=replace(config.attack, iters=7)).experiment_id()


class TestExitCodes:
    def test_numeric_divergence_exit_2(self, tmp_path):
        r = run_cli(["train", "--model", "linear", "--lr", "1e8", "--rounds", "80",
                     "--seed", "1", "--out", str(tmp_path / "div")])
        assert r.returncode == 2

    def test_bad_sweep_value_exit_1(self, tmp_path):
        r = run_cli(["sweep", "--axis", "sigma", "--values", "0,abc", "--trials", "2",
                     "--out", str(tmp_path / "s")])
        assert r.returncode == 1
        assert "config error" in r.stderr
        assert "Traceback" not in r.stderr

    def test_malformed_config_json_exit_1(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text('{"dataset": {')
        r = run_cli(["train", "--config", str(bad), "--out", str(tmp_path / "t")])
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
        r = run_cli(["train", "--mech", "none", "--seed", "1",
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
        assert run_cli(args + ["--out", out1],
                       env_extra={"FEDTRADEOFF_THREADS": "1"}).returncode == 0
        assert run_cli(args + ["--out", out4],
                       env_extra={"FEDTRADEOFF_THREADS": "4"}).returncode == 0
        assert file_hash(os.path.join(out1, "results.csv")) == \
            file_hash(os.path.join(out4, "results.csv"))


class TestVerifyCLI:
    def test_unknown_bound_exit_1(self, tmp_path):
        r = run_cli(["verify", "--bound", "no-such-bound", "--trials", "100",
                     "--out", str(tmp_path / "v")])
        assert r.returncode == 1

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
