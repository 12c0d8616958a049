#!/usr/bin/env python3
"""Digest every artifact of a fixed set of CLI runs.

Usage: python scripts/artifact_digests.py OUT_DIR [SRC]
       python scripts/artifact_digests.py --compare SRC_A SRC_B
       python scripts/artifact_digests.py --dispatch-compare [SRC]

Writes the config files below into OUT_DIR, then runs the commands below with
the package under SRC (default: this checkout's ``src/``), each one a fresh
``python -m fedtradeoff.cli`` process with working directory OUT_DIR, and
prints ``sha256  relative/path`` for every file they wrote, sorted by path.
The wall-clock ``timings.csv`` sidecars are skipped: they are outside the
reproducibility contract.

``--compare`` runs the command list against two source trees (say, a change
and an unpacked ``git archive`` of its parent), each in a fresh temporary
directory, and prints only the files whose digests differ (or that only one
tree wrote), then the counts of differing and identical files. It exits 1
when any file differs or a command fails, so it can gate a script. Under each
``.json``, ``.jsonl`` or ``.csv`` file both trees wrote, it names what differs:
the dotted keys of the JSON leaves (a list index or JSONL line shows as ``*``)
or the CSV columns.

``--dispatch-compare`` runs the command list twice against one source tree
(default: this checkout's ``src/``): at numpy's default CPU dispatch, and with
``NPY_DISABLE_CPU_FEATURES`` switching off X86_V4 and the AVX-512 targets
above it. It prints and exits as ``--compare`` does, so its count is the
number of files whose bits depend on numpy's dispatch. When numpy does not
dispatch X86_V4 on this host, it says so and exits 0 without running anything.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SWEEP_MLP1 = ["--model", "mlp1", "--hidden", "8", "--input-dim", "2", "--samples", "4",
              "--rounds", "1", "--iters", "300", "--step-size", "0.1"]

# the config files the commands read, written under OUT_DIR before they run
# and not digested. Five classes over three clients of six rows: at master
# seed 0 label 0 has one example, and the labels first appear in the order
# 4, 2, 1, 3, 0, which the estimator's label pools keep
CONFIGS = {
    "configs/five-classes.json": {
        "dataset": {"num_clients": 3, "per_client_size": 6, "input_dim": 3, "num_classes": 5,
                    "class_separation": 2.0, "diameter_cap": 2.0, "seed": 0},
        "model": {"kind": "logistic", "input_dim": 3, "hidden_dim": 0, "num_classes": 5},
        "fl": {"rounds": 1, "learning_rate": 0.2, "lr_schedule": "constant", "seed": 0,
               "init_scale": 0.5},
        "mechanism": {"kind": "none", "sigma": 0.0, "shared_noise": False,
                      "offset_scale": 1.0, "exact_norm": None},
        "attack": {"iters": 40, "optimizer": "adam", "step_size": 0.05, "init": "gaussian",
                   "init_scale": 0.5, "seed": 0, "backtracking": False},
        "master_seed": 0, "n_eval": 400, "num_pairs": 120, "quantile": 0.05, "gamma": 0.1,
        "eta": 0.1, "attack_round": 0, "attack_client": 0,
    },
    # an mlp1 whose attack runs plain SGD with backtracking, at a step its
    # 60 steps halve 85 times
    "configs/mlp1-backtracking.json": {
        "dataset": {"num_clients": 2, "per_client_size": 6, "input_dim": 3, "num_classes": 3,
                    "class_separation": 2.0, "diameter_cap": 2.0, "seed": 0},
        "model": {"kind": "mlp1", "input_dim": 3, "hidden_dim": 5, "num_classes": 3},
        "fl": {"rounds": 2, "learning_rate": 0.2, "lr_schedule": "constant", "seed": 0,
               "init_scale": 0.5},
        "mechanism": {"kind": "none", "sigma": 0.0, "shared_noise": False,
                      "offset_scale": 1.0, "exact_norm": None},
        "attack": {"iters": 60, "optimizer": "sgd", "step_size": 20.0, "init": "gaussian",
                   "init_scale": 0.5, "seed": 0, "backtracking": True},
        "master_seed": 3, "n_eval": 400, "num_pairs": 120, "quantile": 0.05, "gamma": 0.1,
        "eta": 0.1, "attack_round": 0, "attack_client": 0,
    },
    # the estimator's min/max mode (quantile 0) at the fewest pairs it takes
    "configs/min-max.json": {
        "dataset": {"num_clients": 2, "per_client_size": 6, "input_dim": 2, "num_classes": 2,
                    "class_separation": 2.0, "diameter_cap": 2.0, "seed": 0},
        "model": {"kind": "logistic", "input_dim": 2, "hidden_dim": 0, "num_classes": 2},
        "fl": {"rounds": 2, "learning_rate": 0.2, "lr_schedule": "constant", "seed": 0,
               "init_scale": 0.5},
        "mechanism": {"kind": "none", "sigma": 0.0, "shared_noise": False,
                      "offset_scale": 1.0, "exact_norm": None},
        "attack": {"iters": 40, "optimizer": "adam", "step_size": 0.05, "init": "gaussian",
                   "init_scale": 0.5, "seed": 0, "backtracking": False},
        "master_seed": 1, "n_eval": 400, "num_pairs": 2, "quantile": 0.0, "gamma": 0.1,
        "eta": 0.1, "attack_round": 0, "attack_client": 0,
    },
    # a step that shrinks as 1/sqrt(t + 1), under noise rescaled to an exact
    # norm: at sigma 1e154 some rows' squared norms overflow and take the
    # rescale of their direction, and the others scale their finite norm
    "configs/inv-sqrt-exact-norm.json": {
        "dataset": {"num_clients": 3, "per_client_size": 6, "input_dim": 3, "num_classes": 2,
                    "class_separation": 2.0, "diameter_cap": 2.0, "seed": 0},
        "model": {"kind": "logistic", "input_dim": 3, "hidden_dim": 0, "num_classes": 2},
        "fl": {"rounds": 6, "learning_rate": 0.4, "lr_schedule": "inv_sqrt", "seed": 0,
               "init_scale": 0.5},
        "mechanism": {"kind": "randomization", "sigma": 1e154, "shared_noise": False,
                      "offset_scale": 1.0, "exact_norm": 0.5},
        "attack": {"iters": 60, "optimizer": "adam", "step_size": 0.05, "init": "gaussian",
                   "init_scale": 0.5, "seed": 0, "backtracking": False},
        "master_seed": 4, "n_eval": 400, "num_pairs": 120, "quantile": 0.05, "gamma": 0.1,
        "eta": 0.1, "attack_round": 0, "attack_client": 0,
    },
}

COMMANDS = [
    # the README's train / attack examples, then an appended second attack row
    ["train", "--mech", "rand", "--sigma", "0.2", "--seed", "7", "--out", "runs/a"],
    ["attack", "--run-dir", "runs/a", "--out", "runs/a-attack", "--iters", "200",
     "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9", "--dump-trajectory"],
    ["attack", "--run-dir", "runs/a", "--out", "runs/a-attack", "--iters", "200",
     "--round", "3", "--client", "1", "--append"],
    # one noise draw per round shared by every client
    ["train", "--mech", "rand", "--shared-noise", "--sigma", "0.2", "--clients", "3",
     "--seed", "9", "--out", "runs/shared"],
    # randomization noise of one key, then of 21 keys: both sides of the
    # break-even where rng.normals stops calling rng.stream per key
    ["train", "--mech", "rand", "--clients", "1", "--rounds", "1", "--seed", "11",
     "--out", "runs/rand-k1"],
    ["train", "--mech", "rand", "--clients", "7", "--rounds", "3", "--seed", "12",
     "--out", "runs/rand-k7"],
    # the HE codec: wire view differs from the decoded model
    ["train", "--mech", "he", "--seed", "5", "--out", "runs/he"],
    # seven equal clients, whose size weights sum to 0.9999999999999998
    ["train", "--mech", "he", "--clients", "7", "--rounds", "3", "--seed", "5",
     "--out", "runs/he-k7"],
    # its last client's upload in its last round, through phase 2
    ["attack", "--run-dir", "runs/he-k7", "--out", "runs/he-k7-attack", "--round", "2",
     "--client", "6", "--phase2"],
    ["attack", "--run-dir", "runs/he", "--out", "runs/he-attack", "--iters", "50",
     "--phase2", "--dump-trajectory"],
    # a kept trajectory that truncates: plain SGD on the linear model
    # overflows after 6 of its 80 steps
    ["train", "--model", "linear", "--optimizer", "sgd", "--step-size", "50", "--seed", "13",
     "--out", "runs/linear-sgd"],
    ["attack", "--run-dir", "runs/linear-sgd", "--out", "runs/linear-sgd-attack",
     "--dump-trajectory"],
    # phase 2's linear predictions, on an inversion stopped before its step overflows
    ["attack", "--run-dir", "runs/linear-sgd", "--out", "runs/linear-sgd-phase2", "--iters", "2",
     "--phase2"],
    # the mlp1 inversion's backtracking re-scores, then an mlp1 inversion that
    # truncates mid-run: Adam at step 3e307 overflows after 61 of its 80 steps
    ["train", "--config", "configs/mlp1-backtracking.json", "--out", "runs/mlp1-sgd"],
    ["attack", "--run-dir", "runs/mlp1-sgd", "--out", "runs/mlp1-sgd-attack",
     "--dump-trajectory"],
    # phase 2's argmax over three classes
    ["attack", "--run-dir", "runs/mlp1-sgd", "--out", "runs/mlp1-sgd-phase2", "--phase2"],
    ["train", "--model", "mlp1", "--hidden", "5", "--input-dim", "3", "--step-size", "3e307",
     "--seed", "2", "--out", "runs/mlp1-truncated"],
    ["attack", "--run-dir", "runs/mlp1-truncated", "--out", "runs/mlp1-truncated-attack",
     "--dump-trajectory"],
    ["train", "--config", "configs/inv-sqrt-exact-norm.json", "--out", "runs/inv-sqrt-exact-norm"],
    ["attack", "--run-dir", "runs/inv-sqrt-exact-norm", "--out",
     "runs/inv-sqrt-exact-norm-attack", "--round", "5", "--client", "2", "--phase2"],
    # noise whose uploads' norms overflow: json's Infinity in the round log,
    # then an attack whose lambda search starts past 2^512 and whose sample
    # lower bound is infinite
    ["train", "--mech", "rand", "--sigma", "1e154", "--rounds", "3", "--seed", "1",
     "--out", "runs/rand-overflow"],
    ["attack", "--run-dir", "runs/rand-overflow", "--out", "runs/rand-overflow-attack",
     "--phase2", "--dump-trajectory"],
    ["estimate-constants", "--samples", "24", "--out", "runs/constants"],
    ["estimate-constants", "--config", "configs/five-classes.json",
     "--out", "runs/constants-five-classes"],
    ["estimate-constants", "--config", "configs/min-max.json", "--out", "runs/constants-min-max"],
    ["sweep", "--config", "configs/min-max.json", "--axis", "sigma", "--values", "0,0.5",
     "--trials", "3", "--out", "runs/sweep-min-max"],
    # every bound at the least trial count verify accepts, each as one lockstep
    # block of 100 trials whose constants rows take two estimator chunks (73
    # and 27 trials here, 70 and 30 at two clients); the utility bound's
    # utility side takes four (31, 31, 31 and 7 trials)
    ["verify", "--bound", "privacy", "--trials", "100", "--sigma", "0.6", "--iters", "250",
     "--step-size", "0.15", "--out", "runs/verify"],
    # the privacy bound at K > 1, estimated on every client's data
    ["verify", "--bound", "privacy", "--clients", "2", "--trials", "100", "--sigma", "0.6",
     "--iters", "250", "--step-size", "0.15", "--out", "runs/verify-k2"],
    *[["verify", "--bound", bound, "--trials", "100", "--clients", "2", "--out", "runs/verify"]
      for bound in ("utility", "utility-he", "tradeoff-general", "tradeoff-randomization")],
    # every verify flag that falls back to the scenario's default, set
    ["verify", "--bound", "tradeoff-randomization", "--trials", "100", "--clients", "2",
     "--rho", "0.5", "--big-l", "2", "--gamma", "0.05", "--eta", "0.2",
     "--out", "runs/verify-flags"],
    # a stated confidence of 1 - 0.1 - 2 * 0.45 = 0: the vacuous budget's exit 0
    ["verify", "--bound", "tradeoff-general", "--trials", "100", "--clients", "2",
     "--gamma", "0.45", "--out", "runs/verify-vacuous"],
    # 150 trials of one shape: the command that crosses a lockstep block cut
    # (blocks of 79 and 71 trials)
    ["sweep", "--axis", "sigma", "--values", "0,0.05,0.1,0.2,0.5", "--trials", "30",
     *SWEEP_MLP1, "--out", "runs/sweep-sigma"],
    ["sweep", "--axis", "m", "--values", "4,8,16", "--trials", "5", "--out", "runs/sweep-m"],
    # one attack length per axis value; plain SGD whose step overflows some rows
    ["sweep", "--axis", "T", "--values", "50,100", "--trials", "5", "--out", "runs/sweep-T"],
    ["sweep", "--axis", "sigma", "--values", "0,0.5", "--trials", "6", "--model", "linear",
     "--optimizer", "sgd", "--step-size", "12", "--out", "runs/sweep-sgd"],
    # the randomization rescaled to an exact upload norm
    ["sweep", "--axis", "delta_up", "--values", "0.5,2", "--trials", "5",
     "--out", "runs/sweep-delta-up"],
    # seven rows at once through protect's per-row rescale
    ["sweep", "--axis", "delta_up", "--values", "0.5,2", "--trials", "2", "--clients", "7",
     "--out", "runs/sweep-delta-up-k7"],
    # one stacked run per block: shared noise over three clients and four
    # rounds, six trials in one block (enough streams for the batched seeding)
    ["sweep", "--axis", "sigma", "--values", "0,0.2", "--trials", "3", "--shared-noise",
     "--clients", "3", "--rounds", "4", "--out", "runs/sweep-shared"],
    # and six he_codec trials a block, each drawing its own key
    ["sweep", "--axis", "m", "--values", "4,8", "--trials", "6", "--mech", "he",
     "--clients", "3", "--rounds", "3", "--out", "runs/sweep-m-he"],
    # two points a client: the fourth row's points have two labels, so its
    # constants row fails in a block of estimates that succeed (NaN columns)
    ["sweep", "--axis", "sigma", "--values", "0,0.1", "--trials", "4", "--clients", "1",
     "--samples", "2", "--iters", "20", "--out", "runs/sweep-nan-row"],
    # distortions that throw every iterate of every row past D, so every
    # eps_p is 0: a constant input to the rank correlation, NaN rho and p
    ["sweep", "--axis", "delta_up", "--values", "1e3,1e4", "--trials", "2", "--samples", "4",
     "--iters", "5", "--rounds", "1", "--optimizer", "sgd", "--step-size", "10",
     "--out", "runs/sweep-constant"],
    # both sides of the inversion step's short-axis kernels, for the binary
    # logistic and the linear VJP, each over a block of at least 512 rows
    # (1,600 in the verifies, exactly 512 in the sweeps): one feature (numpy's
    # mean over examples sums pairwise there), three (the widest the kernels
    # walk column by column), four (the narrowest they leave to numpy) and
    # eight (numpy's own pairwise sums from 8 columns on)
    *[["verify", "--bound", "privacy", "--trials", "100", "--iters", "40", "--input-dim", dim,
       "--out", f"runs/verify-dim{dim}"] for dim in ("1", "3", "4", "8")],
    *[["sweep", "--axis", "sigma", "--values", "0,0.5", "--trials", "16", "--model", "linear",
       "--input-dim", dim, "--out", f"runs/sweep-linear-dim{dim}"] for dim in ("1", "3", "4", "8")],
]

EXIT_BOUND_FAILED = 4      # a verify report is still written


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# numpy's dispatch targets that --dispatch-compare switches off, when dispatched
ABOVE_X86_V3 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def digests(out: str, src: str, env_extra: dict | None = None) -> dict[str, str] | None:
    """{relative path: sha256} of every file the commands write under ``out``
    with the package under ``src``, and ``env_extra`` set in their
    environment; None (and a message) when one fails."""
    for rel, doc in CONFIGS.items():
        os.makedirs(os.path.dirname(os.path.join(out, rel)), exist_ok=True)
        with open(os.path.join(out, rel), "w") as fh:
            json.dump(doc, fh)
    env = dict(os.environ, **(env_extra or {}), PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "fedtradeoff.cli", *cmd], cwd=out,
                              env=env, capture_output=True, text=True)
        if proc.returncode not in (0, EXIT_BOUND_FAILED):
            sys.stderr.write(f"failed ({proc.returncode}) under {src}: {' '.join(cmd)}\n"
                             f"{proc.stderr}")
            return None
    paths = sorted(os.path.relpath(os.path.join(root, name), out)
                   for root, _, names in os.walk(out) for name in names
                   if name != "timings.csv"
                   and os.path.relpath(os.path.join(root, name), out) not in CONFIGS)
    return {rel: sha256(os.path.join(out, rel)) for rel in paths}


def _leaves(doc, path=()):
    """(path, repr) of every leaf of a JSON document; dict keys and list
    indices make up the path."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _leaves(value, path + (index,))
    else:
        yield path, repr(doc)          # repr tells NaN apart from other floats


def _cells(path: str) -> dict | None:
    """{path: repr} of a file's leaves: a JSON document's, each JSONL line's under
    its line index, or each CSV cell's as (row, column); None for other files.
    A CSV whose first row holds a number has no header, and names columns by
    position."""
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            return dict(_leaves(json.load(fh)))
        if path.endswith(".jsonl"):
            return dict(_leaves([json.loads(line) for line in fh]))
        if not path.endswith(".csv"):
            return None
        rows = list(csv.reader(fh))

    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True
    if rows and not any(is_number(cell) for cell in rows[0]):
        header, rows = rows[0], rows[1:]
    else:
        header = [f"column {j}" for j in range(max(map(len, rows), default=0))]
    return {(i, header[j] if j < len(header) else f"column {j}"): cell
            for i, row in enumerate(rows) for j, cell in enumerate(row)}


def differing_keys(path_a: str, path_b: str) -> list[str] | None:
    """The dotted keys or columns in which two versions of a file differ, list
    indices shown as ``*``; None when the file is not JSON, JSONL or CSV."""
    a, b = _cells(path_a), _cells(path_b)
    if a is None:
        return None
    return sorted({".".join("*" if isinstance(part, int) else part for part in key)
                   .removeprefix("*.")
                   for key in a.keys() | b.keys() if a.get(key) != b.get(key)})


def compare(src_a: str, src_b: str, env_b: dict | None = None) -> int:
    """Digest the command list's files with the package under ``src_a``, then
    under ``src_b`` with ``env_b`` set; print the differing files and the
    counts, and return 1 when any file differs or a command fails."""
    with tempfile.TemporaryDirectory() as tmp:
        out_a, out_b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        a = digests(out_a, src_a)
        b = None if a is None else digests(out_b, src_b, env_b)
        if b is None:
            return 1
        differ = sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))
        for rel in differ:
            print(f"{a.get(rel, '-'):64}  {b.get(rel, '-'):64}  {rel}")
            keys = (rel in a and rel in b
                    and differing_keys(os.path.join(out_a, rel), os.path.join(out_b, rel)))
            if keys:
                print("    differ in: " + ", ".join(keys))
    print(f"{len(differ)} differ, {len(a.keys() | b.keys()) - len(differ)} identical")
    return 1 if differ else 0


def dispatch_compare(src: str) -> int:
    """``compare`` of one tree against itself with numpy's X86_V4 dispatch and
    the targets above it switched off in the second run."""
    from numpy._core._multiarray_umath import __cpu_dispatch__ as dispatched

    if "X86_V4" not in dispatched:
        print(f"skipped: numpy does not dispatch X86_V4 here ({' '.join(dispatched)})")
        return 0
    off = " ".join(t for t in ABOVE_X86_V3 if t in dispatched)
    print(f"NPY_DISABLE_CPU_FEATURES={off!r} in the second run")
    return compare(src, src, {"NPY_DISABLE_CPU_FEATURES": off})


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(*(os.path.abspath(src) for src in argv[1:]))
    if len(argv) in (1, 2) and argv[0] == "--dispatch-compare":
        return dispatch_compare(os.path.abspath(argv[1]) if len(argv) == 2 else SRC)
    if len(argv) not in (1, 2) or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 1
    src = os.path.abspath(argv[1]) if len(argv) == 2 else SRC
    found = digests(os.path.abspath(argv[0]), src)
    if found is None:
        return 1
    for rel, digest in found.items():
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
