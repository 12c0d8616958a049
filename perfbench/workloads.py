"""The four benchmark workloads.

Each workload drives ``fedtradeoff`` through its public functions only, one
*unit* at a time. A unit is a fixed amount of work with its own seeds:

* ``privacy-verify``   -- ``verify.verify_bound("privacy", ...)``, 100 trials
  (the least the verifier accepts), on the acceptance-criterion-05 scenario.
* ``utility-verify``   -- ``verify.verify_bound("utility", ...)``, 100 trials,
  on the criterion-06 scenario.
* ``sigma-sweep-mlp1`` -- ``experiment.run_sweep`` over sigma in
  {0, 0.05, 0.1, 0.2, 0.5} with 2 trials per value, on the criterion-08 config.
* ``cli-train-attack`` -- 4 pairs of in-process ``cli.main`` calls
  (``train`` then ``attack --phase2 --dump-trajectory``), a fresh seed per pair.

Unit ``i`` of a run with workload seed ``s`` uses master seed
``acceptance + 1000 * s + i`` (pair seeds ``100000 * s + 4 * i + j`` for the
CLI), so ``--seed 0`` reproduces the acceptance seeds and no two units repeat
work. Every unit checks its own output and returns the bytes that feed the
output digest. Modules are looked up on every call (``ft.verify.verify_bound``)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass

# Workload seeds that later claims must also hold on; keep them out of tuning.
HELD_OUT_SEED = {
    "privacy-verify": 101,
    "utility-verify": 102,
    "sigma-sweep-mlp1": 103,
    "cli-train-attack": 104,
}


@dataclass
class Unit:
    trials: int
    failed: int          # trials whose output check failed
    blob: bytes          # deterministic outputs, hashed into the run's digest
    note: str = ""


def canonical(obj) -> bytes:
    """Sorted-key JSON with shortest-roundtrip floats; numpy scalars as Python."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True,
                      default=lambda o: o.item() if hasattr(o, "item") else str(o)
                      ).encode()


class Workload:
    name = ""
    acceptance_seed = 0
    # End-to-end runs use one worker (FEDTRADEOFF_THREADS=1); the traced
    # runs' cpu_per_wall pass uses this many.
    parallel_workers = 1
    unit_trials = 0
    imports_scipy = False

    def __init__(self, ft, seed: int, smoke: bool, workdir: str):
        """``ft`` is the imported package; ``workdir`` an empty scratch
        directory the caller removes."""
        self.ft, self.seed, self.smoke, self.workdir = ft, seed, smoke, workdir

    def master_seed(self, index: int) -> int:
        return self.acceptance_seed + 1000 * self.seed + index

    def unit(self, index: int) -> Unit:
        raise NotImplementedError


def _verify_unit(report) -> Unit:
    ok = bool(report.holds) and not report.vacuous
    return Unit(trials=report.trials, failed=0 if ok else report.trials,
                blob=canonical(report.to_dict()),
                note="" if ok else f"holds={report.holds} vacuous={report.vacuous}")


class PrivacyVerify(Workload):
    name = "privacy-verify"
    acceptance_seed = 42
    unit_trials = 100

    def __init__(self, ft, seed: int, smoke: bool, workdir: str):
        super().__init__(ft, seed, smoke, workdir)
        self.scenario = ft.verify.VerifyScenario(
            dataset=ft.datagen.DatasetSpec(num_clients=1, per_client_size=16, input_dim=2,
                                           num_classes=2, class_separation=2.0,
                                           diameter_cap=2.0, seed=0),
            model=ft.models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
            attack=ft.attack.AttackConfig(iters=5 if smoke else 250, optimizer="adam",
                                          step_size=0.15, init="gaussian"),
            sigma=0.6, gamma=0.1, num_pairs=150, quantile=0.1)

    def unit(self, index: int) -> Unit:
        report = self.ft.verify.verify_bound("privacy", self.scenario, self.unit_trials,
                                             master_seed=self.master_seed(index))
        return _verify_unit(report)


class UtilityVerify(Workload):
    name = "utility-verify"
    acceptance_seed = 43
    unit_trials = 100

    def __init__(self, ft, seed: int, smoke: bool, workdir: str):
        super().__init__(ft, seed, smoke, workdir)
        self.scenario = ft.verify.VerifyScenario(
            dataset=ft.datagen.DatasetSpec(num_clients=1, per_client_size=8 if smoke else 32,
                                           input_dim=2, num_classes=2, class_separation=2.0,
                                           diameter_cap=2.0, seed=0),
            model=ft.models.ModelSpec(kind="logistic", input_dim=2, num_classes=2),
            attack=ft.attack.AttackConfig(iters=20, optimizer="adam", step_size=0.05),
            sigma=0.3, eta=0.1, fl_rounds=3, learning_rate=0.2,
            n_eval=100 if smoke else 400)

    def unit(self, index: int) -> Unit:
        report = self.ft.verify.verify_bound("utility", self.scenario, self.unit_trials,
                                             master_seed=self.master_seed(index))
        return _verify_unit(report)


class SigmaSweep(Workload):
    name = "sigma-sweep-mlp1"
    acceptance_seed = 7
    # End to end, two workers were too unsteady on a 2-CPU host: five runs'
    # trials_per_s spread 0.18 of their median, against 0.08 at one worker.
    # The parallel map is still exercised, for cpu_per_wall, in traced runs.
    parallel_workers = 2
    values = (0.0, 0.05, 0.1, 0.2, 0.5)
    trials_per_value = 2
    unit_trials = len(values) * trials_per_value
    imports_scipy = True     # run_sweep's summary imports scipy.stats

    def __init__(self, ft, seed: int, smoke: bool, workdir: str):
        super().__init__(ft, seed, smoke, workdir)
        self.base = dict(
            dataset=ft.datagen.DatasetSpec(num_clients=1, per_client_size=4, input_dim=2,
                                           num_classes=2, class_separation=2.0,
                                           diameter_cap=2.0, seed=0),
            model=ft.models.ModelSpec(kind="mlp1", input_dim=2, hidden_dim=8, num_classes=2),
            fl=ft.protocol.FLRunConfig(rounds=1, learning_rate=0.2),
            mechanism=ft.experiment.MechanismSpec(kind="randomization", sigma=0.0),
            attack=ft.attack.AttackConfig(iters=10 if smoke else 300, optimizer="adam",
                                          step_size=0.1, init="gaussian"),
            n_eval=200, num_pairs=60, quantile=0.1)

    def unit(self, index: int) -> Unit:
        ft = self.ft
        config = ft.experiment.ExperimentConfig(**self.base,
                                                master_seed=self.master_seed(index))
        rows, summary = ft.experiment.run_sweep(config, "sigma", list(self.values),
                                                trials=self.trials_per_value)
        # Checks that hold on every correct run. The eps_p trend over sigma
        # is statistical: at 2 trials per value even its end points can invert
        # (NOTES.md), so acceptance criterion 08 checks it at 30 trials.
        problems = []
        if len(rows) != self.unit_trials:
            problems.append(f"{len(rows)} rows")

        def medians(field):
            return [statistics.median(getattr(r, field) for r in rows if r.sweep_value == v)
                    for v in self.values]
        if not all(math.isclose(a, b, rel_tol=1e-12)
                   for a, b in zip(medians("eps_p"), summary["median_eps_p"])):
            problems.append("summary medians differ from the rows")
        if not all(0.0 <= r.eps_p <= 1.0 for r in rows):
            problems.append("eps_p outside [0, 1]")
        distortion = medians("delta_up_grad")
        if distortion[0] != 0.0 or any(b <= a for a, b in zip(distortion, distortion[1:])):
            problems.append(f"median delta_up_grad does not rise with sigma: {distortion}")
        blob = canonical({"rows": [r.as_list() for r in rows], "summary": summary})
        return Unit(trials=self.unit_trials, failed=self.unit_trials if problems else 0,
                    blob=blob, note="; ".join(problems))


class CliTrainAttack(Workload):
    name = "cli-train-attack"
    acceptance_seed = 0
    pairs = 4
    unit_trials = pairs
    train_files = ("manifest.json", "rounds.jsonl", "datasets.csv",
                   "model_final_decoded.csv", "model_final_protected.csv",
                   "model_final_shadow.csv")
    attack_files = ("results.csv", "attack.jsonl", "trajectory.csv", "phase2.json",
                    "timings.csv")
    volatile = ("timings.csv",)        # wall-clock sidecar, outside the digest

    def __init__(self, ft, seed: int, smoke: bool, workdir: str):
        super().__init__(ft, seed, smoke, workdir)
        self.rounds = 5 if smoke else 200
        self.iters = 5 if smoke else 20

    def pair_seed(self, index: int, j: int) -> int:
        return 100000 * self.seed + self.pairs * index + j

    def unit(self, index: int) -> Unit:
        h = hashlib.sha256()
        problems = []
        for j in range(self.pairs):
            s = self.pair_seed(index, j)
            run_dir = os.path.join(self.workdir, f"run-{s}")
            out_dir = os.path.join(self.workdir, f"attack-{s}")
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                rc_train = self.ft.cli.main([
                    "train", "--mech", "rand", "--sigma", "0.2", "--clients", "4",
                    "--rounds", str(self.rounds), "--seed", str(s), "--out", run_dir])
                rc_attack = self.ft.cli.main([
                    "attack", "--run-dir", run_dir, "--out", out_dir,
                    "--round", str(self.rounds - 1), "--iters", str(self.iters),
                    "--phase2", "--dump-trajectory"])
            files = [os.path.join(run_dir, f) for f in self.train_files] + \
                    [os.path.join(out_dir, f) for f in self.attack_files]
            missing = [f for f in files if not os.path.isfile(f)]
            if rc_train != 0 or rc_attack != 0 or missing:
                problems.append(f"seed {s}: train={rc_train} attack={rc_attack} "
                                f"missing={[os.path.basename(f) for f in missing]} "
                                f"{captured.getvalue().strip()[-200:]}")
                continue
            for f in files:
                if os.path.basename(f) not in self.volatile:
                    with open(f, "rb") as fh:
                        h.update(os.path.basename(f).encode() + b"\0" + fh.read())
        return Unit(trials=self.pairs, failed=len(problems), blob=h.digest(),
                    note="; ".join(problems))


WORKLOADS = {w.name: w for w in (PrivacyVerify, UtilityVerify, SigmaSweep, CliTrainAttack)}
