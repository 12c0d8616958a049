"""Run every workload of BENCHMARK.json and check the benchmark itself.

    python3 perfbench/suite.py [--smoke] [--seed N]

For each workload: one untraced run and two traced runs of ``run.py``. Prints
one table of every end-to-end metric with its unit, plus ``failed_share``.
Fails (exit 1) when

* a run exits non-zero or its metric names or units differ from BENCHMARK.json;
* the two traced runs give different call counts;
* the traced and untraced runs give different output digests;
* without ``--smoke``, any run reports ``correct: false``.

``--smoke`` runs every workload at minimal size (the shrunk scenarios of
``run.py --size smoke``); it checks the plumbing, not the outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int, args) -> tuple[dict, dict]:
    """One run.py invocation: (last-line result, full record)."""
    size = "smoke" if args.smoke else "full"
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--size", size]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{args.seed}-trace{trace}" + ("-smoke" if args.smoke else "")
    with open(os.path.join(HERE, ".out", name + ".json")) as fh:
        return result, json.load(fh)


def check_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got == want:
        return []
    return [f"{where}: metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    args.seconds = 1 if args.smoke else bench["run_seconds"]

    problems, rows = [], []
    for w in (w["name"] for w in bench["workloads"]):
        try:
            plain, plain_rec = run(w, 0, args)
            traced = [run(w, 1, args) for _ in range(2)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            problems.append(str(exc))
            continue
        problems += check_metrics(plain, bench["end_to_end"], f"{w} trace=0")
        for i, (res, rec) in enumerate(traced):
            problems += check_metrics(res, bench["per_layer"], f"{w} trace=1 run {i + 1}")
            if rec["digest"] != plain_rec["digest"]:
                problems.append(f"{w}: traced digest {rec['digest']} != untraced "
                                f"{plain_rec['digest']}")
        if traced[0][1]["counts"] != traced[1][1]["counts"]:
            diff = {k for k in traced[0][1]["counts"].keys() | traced[1][1]["counts"].keys()
                    if traced[0][1]["counts"].get(k) != traced[1][1]["counts"].get(k)}
            problems.append(f"{w}: call counts differ between traced runs: {sorted(diff)}")
        if not args.smoke:
            for label, res in [("trace=0", plain)] + [("trace=1", r) for r, _ in traced]:
                if not res["correct"]:
                    problems.append(f"{w} {label}: correct=false")
        for metric, entry in plain["metrics"].items():
            rows.append((w, metric, f"{entry['value']:.6g}", entry["unit"]))
        rows.append((w, "failed_share", f"{plain['failed'] / plain['attempted']:.6g}",
                     "ratio"))
        rows.append((w, "digest", plain_rec["digest"][:16],
                     plain_rec["digest_vs_reference"]))

    widths = [max(len(r[i]) for r in rows) if rows else 0 for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(n) for c, n in zip(r, widths)))
    for msg in problems:
        print(f"FAIL {msg}")
    print("suite: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
