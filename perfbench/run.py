"""Benchmark of the fedtradeoff simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the simulator is imported from ``src/``.
Workloads are defined in ``workloads.py`` and explained in ``NOTES.md``.

``--trace 0`` repeats units of the workload at one worker for S seconds (at
least one unit) and reports the end-to-end metrics: ``trials_per_s`` (median
over units), ``setup_s`` (median over fresh processes that only set up) and
``peak_rss_mb``. Both timings are in reference seconds (``calibration.py``);
the wall-clock figures are printed next to them.

``--trace 1`` runs unit 0 three ways -- untraced at the workload's
``parallel_workers``, untraced at one worker, traced at one worker -- and
reports the per-layer metrics. Its output check fails unless all three give
the same output digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
repeat every metric with its unit, plus ``failed_share``, the output digest
and the environment. A full record (and, when traced, the spans) is written
to ``perfbench/.out/``.
"""

import os
import sys

# Pinned before numpy loads, so FEDTRADEOFF_THREADS is the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
sys.path.insert(0, HERE)

from calibration import SpeedSampler, kernel_seconds, speed_factor  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, Unit  # noqa: E402

THREADS_ENV = "FEDTRADEOFF_THREADS"
SETUP_PROBES = 5

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit. Names ending in .calls/.s/.self_s are read
# from the span totals of the function before the suffix.
PER_LAYER_UNITS = {
    "models.per_example_grads.calls": "count",
    "models.per_example_grads.s": "s",
    "attack.invert_gradient.s": "s",
    "attack.invert_gradient.self_s": "s",
    "attack.invert_gradient.iters": "count",
    "attack.invert_gradient.truncated": "count",
    "models.loss.calls": "count",
    "models.loss.s": "s",
    "models.grad_params.calls": "count",
    "datagen.estimate_constants.s": "s",
    "datagen.estimate_constants.self_s": "s",
    "datagen.estimate_constants.pairs_used_ratio": "ratio",
    "datagen.generate.s": "s",
    "datagen.sampler.s": "s",
    "datagen.sampler.rows": "count",
    "protocol.measure_utility_loss.s": "s",
    "protocol.run.s": "s",
    "protocol.run.self_s": "s",
    "protocol.run.rounds": "count",
    "protocol.protect.calls": "count",
    "rng.stream.calls": "count",
    "rng.stream.s": "s",
    "io.write.s": "s",
    "io.read.s": "s",
    "io.bytes_written": "B",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "attack.phase2_report.s": "s",
    "attack.adv_risk.s": "s",
    "bounds.minimize_utility_lambda.s": "s",
    "experiment.exact_big_m.s": "s",
    "experiment.run_sweep.cpu_per_wall": "ratio",
    "verify.verify_bound.cpu_per_wall": "ratio",
    "verify.verify_bound.self_s": "s",
    "experiment.run_trial.self_s": "s",
    "trace.overhead_ratio": "ratio",
}
COUNTERS = ("attack.invert_gradient.iters", "attack.invert_gradient.truncated",
            "datagen.sampler.rows", "protocol.run.rounds", "io.bytes_written")


def parse_args(argv):
    p = argparse.ArgumentParser(description="fedtradeoff benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 gives the acceptance-test master seeds")
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every scenario for the self-check")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_program():
    init = os.path.join(SRC, "fedtradeoff", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: simulator sources not found at {init}")
    sys.path.insert(0, SRC)
    import fedtradeoff
    if os.path.abspath(fedtradeoff.__file__) != init:
        raise SystemExit(f"perfbench: imported fedtradeoff from {fedtradeoff.__file__}, "
                         f"not {init}")
    for layer in LAYERS:
        importlib.import_module(f"fedtradeoff.{layer}")
    return fedtradeoff


def setup(args, workdir):
    """Everything before the first timed call; what ``setup_s`` measures."""
    ft = load_program()
    cls = WORKLOADS[args.workload]
    if cls.imports_scipy:
        import scipy.stats  # noqa: F401
    return cls(ft, args.seed, args.size == "smoke", workdir)


@dataclass
class Pass:
    units: int = 0
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    digest: str = "none"
    notes: list = field(default_factory=list)
    # per unit that returned: (trials, wall seconds, reference seconds)
    timings: list = field(default_factory=list)


def run_units(workload, workers: int, seconds: float, sampler=None) -> Pass:
    """Units 0, 1, ... until ``seconds`` have passed; always at least one.
    With a ``SpeedSampler`` each unit's time is also taken in reference
    seconds, from the kernel samples that fell inside it."""
    os.environ[THREADS_ENV] = str(workers)
    out = Pass()
    cpu0 = os.times()
    start = time.perf_counter()
    while True:
        first_sample = len(sampler.samples) if sampler else 0
        t0 = time.perf_counter()
        try:
            unit = workload.unit(out.units)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            unit = Unit(trials=workload.unit_trials, failed=workload.unit_trials,
                        blob=b"", note=f"unit {out.units} raised")
        else:
            dt = time.perf_counter() - t0
            if sampler:
                samples = sampler.samples[first_sample:] or [kernel_seconds()]
                ref = dt * speed_factor(samples)
            else:
                ref = float("nan")
            out.timings.append((unit.trials, dt, ref))
            if out.units == 0:
                out.digest = hashlib.sha256(unit.blob).hexdigest()
        out.attempted += unit.trials
        out.failed += unit.failed
        if unit.note:
            out.notes.append(unit.note)
        out.units += 1
        if time.perf_counter() - start >= seconds:
            break
    out.wall = time.perf_counter() - start
    cpu1 = os.times()
    out.cpu = sum(cpu1[:4]) - sum(cpu0[:4])   # user + system, self + children
    return out


def setup_seconds(args) -> tuple[float, float]:
    """Median time from process start to a finished setup over fresh
    processes: (reference seconds, wall seconds). Each probe runs pinned to
    the CPU on which this process samples the kernel meanwhile."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    ref, wall = [], []
    try:
        with SpeedSampler() as sampler:
            for _ in range(SETUP_PROBES):
                first_sample = len(sampler.samples)
                t0 = time.monotonic()
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                                      cwd=ROOT, check=True)
                wall.append(float(proc.stdout.split()[-1]) - t0)
                samples = sampler.samples[first_sample:] or [kernel_seconds()]
                ref.append(wall[-1] * speed_factor(samples))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(ref), statistics.median(wall)


# exec keeps the children's peak of the process image it replaced (a shell
# that ran a command first), so only a peak above this start value is ours.
CHILDREN_RSS_AT_START = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if children <= CHILDREN_RSS_AT_START:
        children = 0
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children) / 1024.0


def layer_metrics(summary: dict, first: Pass, base_wall: float, traced: Pass) -> dict:
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    counters = summary["counters"]
    values = {}
    for name in PER_LAYER_UNITS:
        fn, _, suffix = name.rpartition(".")
        if name == "datagen.estimate_constants.pairs_used_ratio":
            attempted = counters.get("datagen.estimate_constants.pairs_attempted", 0)
            values[name] = (counters.get("datagen.estimate_constants.pairs_used", 0)
                            / attempted if attempted else 0.0)
        elif name == "trace.overhead_ratio":
            values[name] = traced.wall / base_wall
        elif name in COUNTERS:
            values[name] = counters.get(name, 0)
        elif suffix == "calls":
            values[name] = calls.get(fn, 0)
        elif suffix == "self_s":
            values[name] = self_s.get(fn, 0.0)
        elif suffix == "cpu_per_wall":
            values[name] = first.cpu / first.wall if calls.get(fn) else 0.0
        elif name in ("io.write.s", "io.read.s"):
            prefix = name[:-2] + "_"
            values[name] = sum(v for k, v in total.items() if k.startswith(prefix))
        elif suffix == "s":
            values[name] = total.get(fn, 0.0)
    return values


def environment(workload, args) -> dict:
    cpu_model = platform.machine()    # platform.processor() would fork a child
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        **versions,
        "workers": workload.parallel_workers if args.trace else 1,
        "workload_seed": args.seed,
        "held_out_seed": HELD_OUT_SEED[args.workload],
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def against_reference(kind: str, args, value) -> str:
    """'matched' or 'changed' against the value recorded for this workload
    seed in reference.json, 'unreferenced' when none is recorded."""
    if args.size != "full":
        return "unreferenced"
    try:
        with open(os.path.join(HERE, "reference.json")) as fh:
            recorded = json.load(fh)[kind][args.workload][str(args.seed)]
    except (OSError, KeyError):
        return "unreferenced"
    return "matched" if recorded == value else "changed"


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = setup(args, workdir)
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            return 0
        record = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "trace": args.trace, "env": environment(workload, args)}
        if args.trace:
            result = traced_run(workload, record)
            record["counts_vs_reference"] = against_reference("counts", args,
                                                              record["counts"])
        else:
            result = untraced_run(workload, args, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["digest_vs_reference"] = against_reference("digests", args, record["digest"])
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "full":
        name += f"-{args.size}"
    with open(os.path.join(OUT, name + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} units={record['units']}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    print(f"output digest (unit 0): {record['digest']} "
          f"[{record['digest_vs_reference']} vs recorded seed digest]")
    if args.trace:
        print(f"call counts: {record['counts_vs_reference']} vs recorded seed counts")
    for note in record["notes"]:
        print(f"check failed: {note}")
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"wall_trials_per_s = {record['wall_trials_per_s']:.6g} 1/s (wall clock, "
              f"not speed-calibrated)")
        print(f"wall_setup_s = {record['wall_setup_s']:.6g} s (wall clock, "
              f"not speed-calibrated)")
    share = result["failed"] / result["attempted"]
    print(f"failed_share = {share:.6g} ratio "
          f"({result['failed']} of {result['attempted']} trials)")
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_run(workload, args, record) -> dict:
    with SpeedSampler() as sampler:
        run = run_units(workload, 1, args.seconds, sampler)
    rss = peak_rss_mb()          # before the setup probes add children
    setup_s, setup_wall_s = setup_seconds(args)
    def median_rate(column):
        return statistics.median(u[0] / u[column] for u in run.timings) if run.timings else 0.0
    record.update(units=run.units, digest=run.digest, notes=run.notes,
                  unit_timings=run.timings, wall_s=run.wall, cpu_s=run.cpu,
                  kernel_samples=len(sampler.samples),
                  wall_trials_per_s=median_rate(1), wall_setup_s=setup_wall_s)
    values = {"trials_per_s": median_rate(2), "setup_s": setup_s, "peak_rss_mb": rss}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in values.items()}}


def traced_run(workload, record) -> dict:
    first = run_units(workload, workload.parallel_workers, 0.0)
    base = first if workload.parallel_workers == 1 else run_units(workload, 1, 0.0)
    tracer = Tracer()
    tracer.install(workload.ft)
    try:
        traced = run_units(workload, 1, 0.0)
    finally:
        tracer.remove()
    summary = tracer.summary()
    passes = (first, base, traced) if base is not first else (first, traced)
    digests = {p.digest for p in passes}
    notes = [n for p in passes for n in p.notes]
    if len(digests) != 1:
        notes.append(f"traced and untraced digests differ: {sorted(digests)}")
    counts = dict(summary["calls"])
    counts.update({k: summary["counters"].get(k, 0) for k in COUNTERS})
    record.update(units=1, digest=traced.digest, notes=notes,
                  walls={"untraced_workers": first.wall, "untraced_1": base.wall,
                         "traced_1": traced.wall},
                  counts=counts, trace=summary,
                  spans=[list(s) for s in tracer.spans])
    values = layer_metrics(summary, first, base.wall, traced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and len(digests) == 1 and "none" not in digests
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                        for k, v in values.items()}}


if __name__ == "__main__":
    sys.exit(main())
