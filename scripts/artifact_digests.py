#!/usr/bin/env python3
"""Digest every artifact of a fixed set of CLI runs.

Usage: python scripts/artifact_digests.py OUT_DIR [SRC]

Runs the commands below with the package under SRC (default: this checkout's
``src/``), each one a fresh ``python -m fedtradeoff.cli`` process with working
directory OUT_DIR, then prints ``sha256  relative/path`` for every file they
wrote, sorted by path. The wall-clock ``timings.csv`` sidecars are skipped:
they are outside the reproducibility contract. Running this command list
against two source trees (say, a change and an unpacked ``git archive`` of
its parent) and diffing the outputs shows which artifacts the change moved.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SWEEP_MLP1 = ["--model", "mlp1", "--hidden", "8", "--input-dim", "2", "--samples", "4",
              "--rounds", "1", "--iters", "300", "--step-size", "0.1"]

COMMANDS = [
    # the README's train / attack examples, then an appended second attack row
    ["train", "--mech", "rand", "--sigma", "0.2", "--seed", "7", "--out", "runs/a"],
    ["attack", "--run-dir", "runs/a", "--out", "runs/a-attack", "--iters", "200",
     "--phase2", "--pac-eps", "0.1", "--pac-delta", "0.9", "--dump-trajectory"],
    ["attack", "--run-dir", "runs/a", "--out", "runs/a-attack", "--iters", "200",
     "--round", "3", "--client", "1", "--append"],
    # the HE codec: wire view differs from the decoded model
    ["train", "--mech", "he", "--seed", "5", "--out", "runs/he"],
    ["attack", "--run-dir", "runs/he", "--out", "runs/he-attack", "--iters", "50",
     "--phase2", "--dump-trajectory"],
    ["estimate-constants", "--samples", "24", "--out", "runs/constants"],
    # every bound at the least trial count verify accepts
    ["verify", "--bound", "privacy", "--trials", "100", "--sigma", "0.6", "--iters", "250",
     "--step-size", "0.15", "--out", "runs/verify"],
    *[["verify", "--bound", bound, "--trials", "100", "--clients", "2", "--out", "runs/verify"]
      for bound in ("utility", "utility-he", "tradeoff-general", "tradeoff-randomization")],
    ["sweep", "--axis", "sigma", "--values", "0,0.05,0.1,0.2,0.5", "--trials", "30",
     *SWEEP_MLP1, "--out", "runs/sweep-sigma"],
    ["sweep", "--axis", "m", "--values", "4,8,16", "--trials", "5", "--out", "runs/sweep-m"],
    # one attack length per axis value; plain SGD whose step overflows some rows
    ["sweep", "--axis", "T", "--values", "50,100", "--trials", "5", "--out", "runs/sweep-T"],
    ["sweep", "--axis", "sigma", "--values", "0,0.5", "--trials", "6", "--model", "linear",
     "--optimizer", "sgd", "--step-size", "12", "--out", "runs/sweep-sgd"],
]

EXIT_BOUND_FAILED = 4      # a verify report is still written


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 1
    out = os.path.abspath(argv[0])
    src = os.path.abspath(argv[1]) if len(argv) == 2 else SRC
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for cmd in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "fedtradeoff.cli", *cmd], cwd=out,
                              env=env, capture_output=True, text=True)
        if proc.returncode not in (0, EXIT_BOUND_FAILED):
            sys.stderr.write(f"failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
            return 1
    paths = sorted(os.path.relpath(os.path.join(root, name), out)
                   for root, _, names in os.walk(out) for name in names
                   if name != "timings.csv")
    for rel in paths:
        print(f"{sha256(os.path.join(out, rel))}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
