"""Command-line harness.

Subcommands: ``train``, ``attack``, ``verify``, ``sweep``, ``estimate-constants``.

Configuration comes from ``--config`` (a JSON file matching
``ExperimentConfig.to_dict``) with individual flags overriding file values.
Exit codes: 0 success, 1 configuration/usage error, 2 numeric error, 3 I/O
error, 4 bound check failed. Trials run in a fixed order; their gradient
inversions run in lockstep blocks, and every trial's outputs are those of its
inversion run alone, so outputs depend only on the configuration and the
master seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, replace

from . import attack as attackmod
from . import datagen, io as iomod, models, protocol, verify as verifymod
from .errors import ConfigurationError, FedTradeoffError, NumericError
from .experiment import (SWEEP_AXES, ExperimentConfig, MechanismSpec, Observed, invert_block,
                         run_sweep, run_trials, score_block, score_trials, simulate_batch)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_BOUND_FAILED = 4

_MECH_ALIASES = {"none": "none", "rand": "randomization", "randomization": "randomization",
                 "he": "he_codec", "he_codec": "he_codec"}

# each common config flag (by dest: --input-dim is input_dim), its add_argument
# options and the ExperimentConfig.to_dict field(s) it overrides. Every flag is
# None when absent (or not offered), so the config file's value stands.
_CONFIG_FLAGS = {
    "mech": (dict(choices=sorted(_MECH_ALIASES)), ["mechanism.kind"]),
    "sigma": (dict(type=float), ["mechanism.sigma"]),
    "shared_noise": (dict(action="store_true", default=None), ["mechanism.shared_noise"]),
    "rounds": (dict(type=int), ["fl.rounds"]),
    "lr": (dict(type=float), ["fl.learning_rate"]),
    "seed": (dict(type=int), ["master_seed"]),
    "clients": (dict(type=int), ["dataset.num_clients"]),
    "samples": (dict(type=int, help="per-client training set size"),
                ["dataset.per_client_size"]),
    "input_dim": (dict(type=int), ["dataset.input_dim", "model.input_dim"]),
    "model": (dict(choices=models.VALID_KINDS), ["model.kind"]),
    "hidden": (dict(type=int), ["model.hidden_dim"]),
    "iters": (dict(type=int, help="attack iterations"), ["attack.iters"]),
    "step_size": (dict(type=float), ["attack.step_size"]),
    "optimizer": (dict(choices=("sgd", "adam")), ["attack.optimizer"]),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are configuration errors (exit 1)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def default_config() -> ExperimentConfig:
    return ExperimentConfig(
        dataset=datagen.DatasetSpec(num_clients=2, per_client_size=16, input_dim=3,
                                    num_classes=2, class_separation=2.0,
                                    diameter_cap=2.0, seed=0),
        model=models.ModelSpec(kind="logistic", input_dim=3, num_classes=2),
        fl=protocol.FLRunConfig(rounds=5, learning_rate=0.2),
        mechanism=MechanismSpec(kind="none"),
        attack=attackmod.AttackConfig(iters=80, optimizer="adam", step_size=0.05),
        master_seed=0,
    )


def _load_config(args) -> ExperimentConfig:
    cfg = default_config()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise ConfigurationError(f"bad JSON in {args.config}: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
    d = cfg.to_dict()
    for flag, (_, paths) in _CONFIG_FLAGS.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag == "mech":
            value = _MECH_ALIASES[value]
        for path in paths:
            section, _, name = path.rpartition(".")
            (d[section] if section else d)[name] = value
    return ExperimentConfig.from_dict(d)


def cmd_train(args) -> int:
    config = _load_config(args)
    seed = config.master_seed
    (datasets, result), = simulate_batch(config, [seed], [config.mechanism])

    os.makedirs(args.out, exist_ok=True)
    iomod.write_json(os.path.join(args.out, "manifest.json"),
                     {"schemas": iomod.SCHEMAS, "config": config.to_dict(), "master_seed": seed})
    iomod.write_round_log(os.path.join(args.out, "rounds.jsonl"), result)
    iomod.write_datasets(os.path.join(args.out, "datasets.csv"), datasets)
    for view in ("decoded", "protected", "shadow"):
        iomod.write_vector(os.path.join(args.out, f"model_final_{view}.csv"),
                           getattr(result, f"theta_final_{view}"))
    print(f"train: wrote {result.rounds} rounds to {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    given = [f for f in ("adv_budget", "pac_eps", "pac_delta") if getattr(args, f) is not None]
    if given and not args.phase2:
        raise ConfigurationError(f"--{given[0].replace('_', '-')} is not read without --phase2")
    run_dir = args.run_dir
    needed = ["manifest.json", "rounds.jsonl", "datasets.csv",
              "model_final_decoded.csv", "model_final_shadow.csv"]
    missing = [n for n in needed if not os.path.exists(os.path.join(run_dir, n))]
    if missing:
        raise ConfigurationError(f"missing run artifacts in {run_dir}: {missing}")
    manifest = iomod.read_manifest(os.path.join(run_dir, "manifest.json"))
    config = ExperimentConfig.from_dict(manifest["config"])
    config.mechanism.check_read()       # the row scores it as the trial's mechanism
    seed = manifest["master_seed"]
    datasets = iomod.read_datasets(os.path.join(run_dir, "datasets.csv"))
    spec = config.dataset
    if ([ds.client_id for ds in datasets] != list(range(spec.num_clients))
            or any(ds.x.shape != (spec.per_client_size, spec.input_dim)
                   or ds.y.min() < 0 or ds.y.max() >= spec.num_classes for ds in datasets)):
        raise ConfigurationError(f"datasets.csv in {run_dir} does not match its manifest's "
                                 f"{spec}")
    log = os.path.join(run_dir, "rounds.jsonl")
    lines = iomod.read_round_log(log)     # every line checked, only --round's parsed
    if len(lines) != config.fl.rounds:
        raise ConfigurationError(f"bad round log {log}: {len(lines)} rounds, not its "
                                 f"manifest's fl.rounds {config.fl.rounds}")
    if not (0 <= args.round < len(lines)):
        raise ConfigurationError(f"round {args.round} not in log (have {len(lines)})")
    if not (0 <= args.client < len(datasets)):
        raise ConfigurationError(f"client {args.client} not in artifacts")
    try:
        rec = iomod.round_record_from_dict(json.loads(lines[args.round]))
        if rec.round_index != args.round:
            raise ConfigurationError(f"its record is round {rec.round_index}")
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad round log {log}, round {args.round}: {exc}") from exc
    target = datasets[args.client]
    shadow, decoded = (iomod.read_vector(os.path.join(run_dir, f"model_final_{view}.csv"))
                       for view in ("shadow", "decoded"))
    k, d = len(datasets), config.model.param_dim
    if (rec.wires.shape, shadow.shape, decoded.shape) != ((k, d), (d,), (d,)):
        raise ConfigurationError(
            f"run artifacts in {run_dir} do not match: {k} clients in datasets.csv and {d} "
            f"model parameters, uploads {rec.wires.shape} in rounds.jsonl, final models "
            f"{shadow.shape} in model_final_shadow.csv, {decoded.shape} in model_final_decoded.csv")
    observed = Observed.from_round(rec, datasets, shadow, decoded)

    # inverted and scored as a trial of run_trials is; the row keeps the
    # manifest config's experiment_id, even with --iters
    scored = replace(config, attack_client=args.client)
    if args.iters is not None:
        scored = replace(scored, attack=replace(config.attack, iters=args.iters))
    t0 = time.perf_counter()
    (trace,), = invert_block(scored, [observed], [seed], (args.client,),
                             keep_trajectory=args.dump_trajectory)
    wall = time.perf_counter() - t0
    row, = score_block(score_trials, scored, [(seed, config.mechanism, dict(
        sweep_axis="attack", experiment_id=config.experiment_id()))], [observed], [[trace]])
    rep = None
    if args.phase2:         # before the first write: a phase-2 error leaves --out as it was
        recovered = datagen.ClientDataset(client_id=target.client_id,
                                          x=trace.final_x, y=target.y)
        budget = (args.adv_budget if args.adv_budget is not None
                  else 0.25 * config.dataset.diameter_cap)
        rep = attackmod.phase2_report(
            recovered, target.x, target.y, config.model, budget=budget,
            pac_eps=0.1 if args.pac_eps is None else args.pac_eps,
            pac_delta=0.9 if args.pac_delta is None else args.pac_delta,
            c_a=row.c_a, delta_up=row.delta_up_grad, m_prot=target.size, seed=seed)

    os.makedirs(args.out, exist_ok=True)
    iomod.write_results(os.path.join(args.out, "results.csv"), [row], append=args.append)
    iomod.write_timings(os.path.join(args.out, "timings.csv"),
                        [("attack", 0.0, 0, wall)])
    iomod.write_attack_summary(os.path.join(args.out, "attack.jsonl"), trace)
    if args.dump_trajectory:
        iomod.write_trajectory(os.path.join(args.out, "trajectory.csv"), trace)
    if rep is not None:
        iomod.write_json(os.path.join(args.out, "phase2.json"), asdict(rep))
    print(f"attack: eps_p={row.eps_p:.4f} eps_p_final={row.eps_p_final:.4f} -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    # a flag left out keeps VerifyScenario's default
    optional = dict(sigma=args.sigma, gamma=args.gamma, eta=args.eta, rho=args.rho,
                    big_l=args.big_l, fl_rounds=args.rounds, n_eval=args.n_eval)
    scenario = verifymod.VerifyScenario(
        dataset=datagen.DatasetSpec(
            num_clients=args.clients, per_client_size=args.samples,
            input_dim=args.input_dim, num_classes=2, class_separation=2.0,
            diameter_cap=args.diameter, seed=0),
        model=models.ModelSpec(kind=args.model, input_dim=args.input_dim,
                               hidden_dim=args.hidden or 0, num_classes=2),
        attack=attackmod.AttackConfig(iters=args.iters, optimizer="adam",
                                      step_size=args.step_size),
        **{name: value for name, value in optional.items() if value is not None})
    report = verifymod.verify_bound(args.bound, scenario, args.trials,
                                    master_seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    iomod.write_json(os.path.join(args.out, f"report_{args.bound}.json"), report.to_dict())
    line = (f"verify {args.bound}: fraction_holding={report.fraction_holding:.4f} "
            f"confidence={report.confidence:.4f} slack={report.slack:.4f} "
            f"vacuous={report.vacuous} holds={report.holds}")
    print(line)
    if report.vacuous:
        sys.stderr.write("warning: probability budget vacuous; nothing to check\n")
        return EXIT_OK
    return EXIT_OK if report.holds else EXIT_BOUND_FAILED


def cmd_sweep(args) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"bad --values: {exc}") from exc
    t0 = time.perf_counter()
    rows, summary = run_sweep(config, args.axis, values, args.trials)
    wall = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    iomod.write_results(os.path.join(args.out, "results.csv"), rows)
    iomod.write_json(os.path.join(args.out, "summary.json"), summary)
    iomod.write_curves(os.path.join(args.out, "curves.csv"), summary)
    iomod.write_timings(os.path.join(args.out, "timings.csv"),
                        [(args.axis, -1.0, -1, wall)])
    print(f"sweep {args.axis}: medians eps_p = "
          + ", ".join(f"{m:.4f}" for m in summary["median_eps_p"]))
    return EXIT_OK


def cmd_estimate_constants(args) -> int:
    config = _load_config(args)
    # the pilot inverts client 0's unprotected round-0 gradient; the constants
    # are estimated at that round's model over every client's data
    pilot = replace(config, fl=replace(config.fl, rounds=1), mechanism=MechanismSpec(),
                    attack_round=0, attack_client=0)
    est, = run_trials(pilot, [(config.master_seed, pilot.mechanism, {})],
                      lambda config, block, seen, traces, ests:
                      [datagen.constants_of(e) for e in ests])
    os.makedirs(args.out, exist_ok=True)
    doc = {"c_a": est.c_a, "c_b": est.c_b, "C": est.big_c, "M": est.big_m,
           "D": est.cap_d, "c_0": est.c_0, "c_2": est.c_2, "meta": est.meta}
    iomod.write_json(os.path.join(args.out, "constants.json"), doc)
    print("constants: " + " ".join(f"{k}={v:.4g}" for k, v in doc.items() if k != "meta"))
    return EXIT_OK


def _add_common_config_flags(p: _Parser, omit: tuple[str, ...] = ()) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    for flag, (options, _) in _CONFIG_FLAGS.items():
        if flag not in omit:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **options)


@functools.cache        # built once per process: parse_args leaves the parser as it was
def build_parser() -> _Parser:
    parser = _Parser(prog="fedtradeoff", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the protocol, write artifacts")
    _add_common_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="invert a stored round's gradient")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--round", type=int, default=0)
    p.add_argument("--client", type=int, default=0)
    p.add_argument("--iters", type=int)
    p.add_argument("--append", action="store_true")
    p.add_argument("--dump-trajectory", dest="dump_trajectory", action="store_true")
    p.add_argument("--phase2", action="store_true")
    p.add_argument("--pac-eps", dest="pac_eps", type=float)
    p.add_argument("--pac-delta", dest="pac_delta", type=float)
    p.add_argument("--adv-budget", dest="adv_budget", type=float)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="Monte-Carlo check of a bound")
    p.add_argument("--bound", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--big-l", dest="big_l", type=float)
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--input-dim", dest="input_dim", type=int, default=2)
    p.add_argument("--model", choices=models.VALID_KINDS, default="logistic")
    p.add_argument("--hidden", type=int)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--step-size", dest="step_size", type=float, default=0.05)
    p.add_argument("--rounds", type=int)
    p.add_argument("--n-eval", dest="n_eval", type=int)
    p.add_argument("--diameter", type=float, default=2.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep an axis, emit trade-off curves")
    _add_common_config_flags(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate-constants", help="estimate c_a, c_b, C, M, D, c_0, c_2")
    _add_common_config_flags(p, omit=("mech", "sigma", "shared_noise", "rounds", "lr"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate_constants)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except FedTradeoffError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
