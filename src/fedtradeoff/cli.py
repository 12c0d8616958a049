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
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import attack as attackmod
from . import datagen, io as iomod, models, protocol, verify as verifymod
from .errors import ConfigurationError, FedTradeoffError, NumericError
from .experiment import ExperimentConfig, MechanismSpec, run_sweep, score_trial, simulate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_BOUND_FAILED = 4

_MECH_ALIASES = {"none": "none", "rand": "randomization", "randomization": "randomization",
                 "he": "he_codec", "he_codec": "he_codec"}


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
    if getattr(args, "mech", None) is not None:
        d["mechanism"]["kind"] = _MECH_ALIASES[args.mech]
    if getattr(args, "sigma", None) is not None:
        d["mechanism"]["sigma"] = args.sigma
    if getattr(args, "shared_noise", False):
        d["mechanism"]["shared_noise"] = True
    if getattr(args, "rounds", None) is not None:
        d["fl"]["rounds"] = args.rounds
    if getattr(args, "lr", None) is not None:
        d["fl"]["learning_rate"] = args.lr
    if getattr(args, "seed", None) is not None:
        d["master_seed"] = args.seed
    if getattr(args, "clients", None) is not None:
        d["dataset"]["num_clients"] = args.clients
    if getattr(args, "samples", None) is not None:
        d["dataset"]["per_client_size"] = args.samples
    if getattr(args, "input_dim", None) is not None:
        d["dataset"]["input_dim"] = args.input_dim
        d["model"]["input_dim"] = args.input_dim
    if getattr(args, "model", None) is not None:
        d["model"]["kind"] = args.model
    if getattr(args, "hidden", None) is not None:
        d["model"]["hidden_dim"] = args.hidden
    if getattr(args, "iters", None) is not None:
        d["attack"]["iters"] = args.iters
    if getattr(args, "step_size", None) is not None:
        d["attack"]["step_size"] = args.step_size
    if getattr(args, "optimizer", None) is not None:
        d["attack"]["optimizer"] = args.optimizer
    return ExperimentConfig.from_dict(d)


def _ensure_dir(path: str) -> None:
    os.makedirs(path, exist_ok=True)


def cmd_train(args) -> int:
    config = _load_config(args)
    _ensure_dir(args.out)
    seed = config.master_seed
    mech = config.mechanism.build(config.model.param_dim, seed)
    datasets, result = simulate(config.model, config.dataset, config.fl, mech, seed)

    iomod.write_manifest(os.path.join(args.out, "manifest.json"),
                         config.to_dict(), seed)
    iomod.write_round_log(os.path.join(args.out, "rounds.jsonl"), result.records)
    iomod.write_datasets(os.path.join(args.out, "datasets.csv"), datasets)
    iomod.write_vector(os.path.join(args.out, "model_final_decoded.csv"),
                       result.theta_final_decoded)
    iomod.write_vector(os.path.join(args.out, "model_final_protected.csv"),
                       result.theta_final_protected)
    iomod.write_vector(os.path.join(args.out, "model_final_shadow.csv"),
                       result.theta_final_shadow)
    print(f"train: wrote {len(result.records)} rounds to {args.out}")
    return EXIT_OK


def cmd_attack(args) -> int:
    run_dir = args.run_dir
    needed = ["manifest.json", "rounds.jsonl", "datasets.csv",
              "model_final_decoded.csv", "model_final_shadow.csv"]
    missing = [n for n in needed if not os.path.exists(os.path.join(run_dir, n))]
    if missing:
        raise ConfigurationError(f"missing run artifacts in {run_dir}: {missing}")
    manifest = iomod.read_manifest(os.path.join(run_dir, "manifest.json"))
    config = ExperimentConfig.from_dict(manifest["config"])
    seed = manifest["master_seed"]
    datasets = iomod.read_datasets(os.path.join(run_dir, "datasets.csv"))
    rounds = iomod.read_round_log(os.path.join(run_dir, "rounds.jsonl"))
    if not (0 <= args.round < len(rounds)):
        raise ConfigurationError(f"round {args.round} not in log (have {len(rounds)})")
    if not (0 <= args.client < len(datasets)):
        raise ConfigurationError(f"client {args.client} not in artifacts")
    rec = rounds[args.round]
    target = datasets[args.client]
    theta_t = np.array(rec["theta_decoded"])
    wire = np.array(rec["wires"][args.client])

    atk = replace(config.attack, seed=seed)
    if args.iters is not None:
        atk = replace(atk, iters=args.iters)
    t0 = time.perf_counter()
    trace = attackmod.invert_gradient(config.model, theta_t, wire, target.y, target.size, atk)
    wall = time.perf_counter() - t0
    distortions = (rec["delta_up_grad"][args.client], rec["delta_up_param"][args.client],
                   rec["delta_two_grad"], rec["delta_two_param"])
    # the row keeps the manifest config's experiment_id, even with --iters
    row = score_trial(
        config, seed, datasets, args.client, theta_t, distortions, trace,
        iomod.read_vector(os.path.join(run_dir, "model_final_shadow.csv")),
        iomod.read_vector(os.path.join(run_dir, "model_final_decoded.csv")),
        atk.iters, sweep_axis="attack")
    _ensure_dir(args.out)
    iomod.write_results(os.path.join(args.out, "results.csv"), [row], append=args.append)
    iomod.write_timings(os.path.join(args.out, "timings.csv"),
                        [("attack", 0.0, 0, wall)])
    iomod.write_attack_summary(os.path.join(args.out, "attack.jsonl"), trace)
    if args.dump_trajectory:
        iomod.write_trajectory(os.path.join(args.out, "trajectory.csv"), trace)

    if args.phase2:
        recovered = datagen.ClientDataset(client_id=target.client_id,
                                          x=trace.final_x, y=target.y)
        budget = (args.adv_budget if args.adv_budget is not None
                  else 0.25 * config.dataset.diameter_cap)
        _, rep = attackmod.phase2_report(
            recovered, target.x, target.y, config.model, budget=budget,
            pac_eps=args.pac_eps, pac_delta=args.pac_delta,
            c_a=row.c_a, delta_up=row.delta_up_grad, m_prot=target.size, seed=seed)
        with open(os.path.join(args.out, "phase2.json"), "w") as fh:
            fh.write(iomod.canonical_json(asdict(rep)) + "\n")
    print(f"attack: eps_p={row.eps_p:.4f} eps_p_final={row.eps_p_final:.4f} -> {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    scenario_kwargs = dict(
        dataset=datagen.DatasetSpec(
            num_clients=args.clients, per_client_size=args.samples,
            input_dim=args.input_dim, num_classes=2, class_separation=2.0,
            diameter_cap=args.diameter, seed=0),
        model=models.ModelSpec(kind=args.model, input_dim=args.input_dim,
                               hidden_dim=args.hidden or 0, num_classes=2),
        attack=attackmod.AttackConfig(iters=args.iters, optimizer="adam",
                                      step_size=args.step_size),
        sigma=args.sigma, gamma=args.gamma, eta=args.eta, rho=args.rho,
        big_l=args.big_l, fl_rounds=args.rounds, n_eval=args.n_eval,
    )
    scenario = verifymod.VerifyScenario(**scenario_kwargs)
    report = verifymod.verify_bound(args.bound, scenario, args.trials,
                                    master_seed=args.seed)
    _ensure_dir(args.out)
    with open(os.path.join(args.out, f"report_{args.bound}.json"), "w") as fh:
        fh.write(iomod.canonical_json(report.to_dict()) + "\n")
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
    _ensure_dir(args.out)
    iomod.write_results(os.path.join(args.out, "results.csv"), rows)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        fh.write(iomod.canonical_json(summary) + "\n")
    iomod.write_curves(os.path.join(args.out, "curves.csv"), summary)
    iomod.write_timings(os.path.join(args.out, "timings.csv"),
                        [(args.axis, -1.0, -1, wall)])
    print(f"sweep {args.axis}: medians eps_p = "
          + ", ".join(f"{m:.4f}" for m in summary["median_eps_p"]))
    return EXIT_OK


def cmd_estimate_constants(args) -> int:
    config = _load_config(args)
    seed = config.master_seed
    # probe at the initial model; the pilot attack inverts client 0's round-0 gradient
    datasets, result = simulate(config.model, config.dataset, replace(config.fl, rounds=1),
                                protocol.no_protection(), seed)
    rec = result.records[0]
    theta = rec.theta_decoded
    atk = replace(config.attack, seed=seed)
    trace = attackmod.invert_gradient(config.model, theta, rec.grads[0], datasets[0].y,
                                      datasets[0].size, atk)
    est = datagen.estimate_constants(config.model, theta, datasets,
                                     num_pairs=config.num_pairs,
                                     quantile=config.quantile,
                                     attack_objectives=trace.objectives[1:],
                                     seed=seed)
    _ensure_dir(args.out)
    doc = {"c_a": est.c_a, "c_b": est.c_b, "C": est.big_c, "M": est.big_m,
           "D": est.cap_d, "c_0": est.c_0, "c_2": est.c_2, "meta": est.meta}
    with open(os.path.join(args.out, "constants.json"), "w") as fh:
        fh.write(iomod.canonical_json(doc) + "\n")
    print(f"constants: c_a={est.c_a:.4g} c_b={est.c_b:.4g} C={est.big_c:.4g} "
          f"M={est.big_m:.4g} D={est.cap_d:.4g} c_0={est.c_0:.4g} c_2={est.c_2:.4g}")
    return EXIT_OK


def _add_common_config_flags(p: _Parser) -> None:
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--mech", choices=sorted(_MECH_ALIASES))
    p.add_argument("--sigma", type=float)
    p.add_argument("--shared-noise", dest="shared_noise", action="store_true")
    p.add_argument("--rounds", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--clients", type=int)
    p.add_argument("--samples", type=int, help="per-client training set size")
    p.add_argument("--input-dim", dest="input_dim", type=int)
    p.add_argument("--model", choices=models.VALID_KINDS)
    p.add_argument("--hidden", type=int)
    p.add_argument("--iters", type=int, help="attack iterations")
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--optimizer", choices=("sgd", "adam"))


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
    p.add_argument("--pac-eps", dest="pac_eps", type=float, default=0.1)
    p.add_argument("--pac-delta", dest="pac_delta", type=float, default=0.9)
    p.add_argument("--adv-budget", dest="adv_budget", type=float)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="Monte-Carlo check of a bound")
    p.add_argument("--bound", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--big-l", dest="big_l", type=float, default=1.0)
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--samples", type=int, default=16)
    p.add_argument("--input-dim", dest="input_dim", type=int, default=2)
    p.add_argument("--model", choices=models.VALID_KINDS, default="logistic")
    p.add_argument("--hidden", type=int)
    p.add_argument("--iters", type=int, default=40)
    p.add_argument("--step-size", dest="step_size", type=float, default=0.05)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--n-eval", dest="n_eval", type=int, default=400)
    p.add_argument("--diameter", type=float, default=2.0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="sweep an axis, emit trade-off curves")
    _add_common_config_flags(p)
    p.add_argument("--axis", required=True, choices=("sigma", "m", "T", "delta_up"))
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate-constants", help="estimate c_a, c_b, C, M, D, c_0, c_2")
    _add_common_config_flags(p)
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
