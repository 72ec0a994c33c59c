"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration or usage problems, 1 for any
other runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis
from .errors import ConfigError
from .gradcheck import check_losses
from .harness import (METHODS, ProtocolResult, build_train_config, parse_config_file,
                      run_protocol, train_one, write_metrics_csv, write_results_csv)
from .model import save_model
from .synthdata import export_benchmark, generate_benchmark

GRAD_TOLERANCE = 1e-4


def _config_from_args(args, **overrides) -> "TrainConfig":
    """--config's values, overridden by the command's config flags, then by `overrides`."""
    values = parse_config_file(args.config) if args.config else {}
    for key in ("method", "tau", "labels_per_class"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return build_train_config({**values, **overrides})


def cmd_train(args) -> int:
    config = _config_from_args(args)
    run = train_one(config, target=args.target, seed=args.seed, collect_log=True)
    os.makedirs(args.out, exist_ok=True)
    save_model(run.final_state, os.path.join(args.out, "model.bin"))
    write_metrics_csv(ProtocolResult(config, [run]), os.path.join(args.out, "metrics.csv"))
    analysis.write_confidences_csv(run.confidence_log, os.path.join(args.out, "confidences.csv"))
    export_benchmark(run.benchmark, os.path.join(args.out, "benchmark"))
    print(f"{run.run_id}: final target accuracy {run.final_accuracy:.4f}")
    return 0


def cmd_protocol(args) -> int:
    overrides = {} if args.seed is None else {"seeds": (args.seed,)}
    config = _config_from_args(args, **overrides)
    result = run_protocol(config, jobs=args.jobs)
    os.makedirs(args.out, exist_ok=True)
    write_metrics_csv(result, os.path.join(args.out, "metrics.csv"))
    write_results_csv(result, os.path.join(args.out, "results.csv"))
    print(f"{config.method}: mean final accuracy {result.mean_accuracy():.4f} "
          f"over {len(result.runs)} runs")
    return 0


def cmd_stats(args) -> int:
    tau = _config_from_args(args).tau
    log = analysis.load_confidence_log(args.confidences, args.truth_dir)
    epoch = args.epoch if args.epoch is not None else int(log.epochs.max())
    if not (log.epochs == epoch).any():
        raise ConfigError(f"epoch {epoch} is not in {args.confidences}")
    os.makedirs(args.out, exist_ok=True)
    analysis.write_stats_csv(log, tau, os.path.join(args.out, "stats.csv"))
    analysis.write_histogram_csv(log, tau, epoch, os.path.join(args.out, "histogram.csv"))
    print(f"wrote stats.csv and histogram.csv (epoch {epoch}) to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = check_losses(num_draws=args.draws, seed=args.seed)
    failed = False
    for name, err in report.items():
        ok = err < GRAD_TOLERANCE
        failed = failed or not ok
        print(f"{name:>6}: max relative error {err:.3e}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


def cmd_gen_data(args) -> int:
    config = _config_from_args(args)
    bench = generate_benchmark(config.benchmark)
    export_benchmark(bench, args.out)
    print(f"wrote {config.benchmark.num_domains} domains to {args.out}")
    return 0


# flags that mean the same in every command that reads them; --seed differs
# between commands, so each command declares its own
_FLAGS = {
    "--config": dict(help="key = value config file"),
    "--method": dict(choices=sorted(METHODS), help="training method"),
    "--tau": dict(type=float, help="confidence threshold"),
    "--labels-per-class": dict(type=int, dest="labels_per_class",
                               help="labeled samples per class per domain"),
    "--out": dict(default="out", help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="upcsc",
                                     description="Semi-supervised domain generalization lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, flags, summary):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = command("train", cmd_train, ["--config", "--method", "--tau", "--labels-per-class",
                                     "--out"], "single leave-one-domain-out run")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--target", type=int, default=0, help="held-out domain")

    p = command("protocol", cmd_protocol, ["--config", "--method", "--tau", "--labels-per-class",
                                           "--out"], "full protocol over all targets and seeds")
    p.add_argument("--seed", type=int, help="run only this seed (default: the config's seeds)")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = command("stats", cmd_stats, ["--config", "--tau", "--out"],
                "confidence statistics from CSV logs")
    p.add_argument("--confidences", required=True, help="confidences.csv from a train run")
    p.add_argument("--truth-dir", required=True, dest="truth_dir",
                   help="directory with domain*_unlabeled_truth.csv sidecars")
    p.add_argument("--epoch", type=int, help="epoch for the histogram (default: last)")

    p = command("gradcheck", cmd_gradcheck, [], "finite-difference audit of loss gradients")
    p.add_argument("--seed", type=int, default=0, help="random seed of the draws")
    p.add_argument("--draws", type=int, default=20, help="random cases per loss")

    command("gen-data", cmd_gen_data, ["--config", "--labels-per-class", "--out"],
            "generate and export a benchmark")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
