"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration or usage problems, 1 for any
other runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import multiprocessing
import os
import pickle
import shutil
import signal
import sys
import tempfile

from . import analysis
from .errors import ConfigError
from .gradcheck import check_losses
from .harness import (METHODS, ProtocolResult, build_train_config, check_run, parse_config_file,
                      run_protocol, train_one, write_metrics_csv, write_results_csv)
from .model import save_model
from .synthdata import export_benchmark, export_truth, generate_benchmark


def _config_from_args(args, **overrides) -> "TrainConfig":
    """--config's values, overridden by the command's config flags, then by `overrides`."""
    values = parse_config_file(args.config) if args.config else {}
    for key in ("method", "tau", "labels_per_class"):
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return build_train_config({**values, **overrides})


class _TrainOutputs:
    """`upcsc train`'s outputs, written to a staging directory beside `out`
    and moved into `out` only once the whole run has succeeded.

    A forked writer process writes confidences.csv there, its one job, from
    the epoch logs that `send` hands it while this process trains. Each log
    is pickled to an unlinked spool file, which holds whatever the writer
    has not read yet, and one channel carries a notice per log to the writer
    and its report back. Training waits on the writer only once the channel
    is full of unread notices, some 270 on Linux. If anything raises, the
    writer included, the writer is stopped and the staging directory
    removed: `out` is not created if it did not exist, and keeps its old
    files if it did.
    """

    def __init__(self, out):
        self.out = os.path.abspath(out)

    def __enter__(self):
        head, name = os.path.split(self.out)
        # the outermost directory this run makes, removed again on failure
        parent, self._made = head, None
        while not os.path.exists(parent):
            self._made, parent = parent, os.path.dirname(parent)
        os.makedirs(head, exist_ok=True)
        self.staging = tempfile.mkdtemp(prefix=f".{name}.", suffix=".staging", dir=head)
        self._made = self._made or self.staging
        ctx = multiprocessing.get_context("fork")
        self._writer = ctx.Process(target=self._write, daemon=True)
        self._ends = contextlib.ExitStack()
        try:
            # two handles with their own offsets; once unlinked, the file
            # goes with the last of them, however the processes end
            spool = self.path("logs.spool")
            self._spool_out = self._ends.enter_context(open(spool, "wb"))
            self._spool_in = self._ends.enter_context(open(spool, "rb"))
            os.unlink(spool)
            self._channel, self._writer_end = map(self._ends.enter_context, ctx.Pipe())
            self._writer.start()
        except BaseException:
            self.__exit__(*sys.exc_info())
            raise
        self._spool_in.close()
        self._writer_end.close()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._writer.pid is not None:
            self._writer.terminate()   # a no-op once commit has joined it
            self._writer.join()
        self._ends.close()
        shutil.rmtree(self.staging if exc_type is None else self._made, ignore_errors=True)

    def path(self, name: str) -> str:
        return os.path.join(self.staging, name)

    def send(self, log) -> None:
        """Spool one epoch's log for the writer; raises the writer's error as
        soon as it has reported one."""
        if self._channel.poll():
            raise RuntimeError(self._report())
        pickle.dump(log, self._spool_out, pickle.HIGHEST_PROTOCOL)
        self._spool_out.flush()
        self._notify(True)

    def commit(self) -> None:
        """Wait for the writer, then move every staged file into `out`, once no
        destination stands in the way: a staged directory may only go onto a
        directory, a staged file onto anything else."""
        self._notify(None)
        message = self._report()
        if message is not None:
            raise RuntimeError(message)
        self._writer.join()
        staged = []
        for root, _, files in os.walk(self.staging):
            dest = os.path.normpath(os.path.join(self.out, os.path.relpath(root, self.staging)))
            if os.path.lexists(dest) and not os.path.isdir(dest):
                raise FileExistsError(f"{dest} is in the way: it is not a directory")
            for path in (os.path.join(dest, name) for name in files):
                if os.path.isdir(path):
                    raise IsADirectoryError(f"{path} is in the way: it is a directory")
            staged.append((root, dest, files))
        for root, dest, files in staged:
            os.makedirs(dest, exist_ok=True)
            for name in files:
                os.replace(os.path.join(root, name), os.path.join(dest, name))

    def _notify(self, notice) -> None:
        """True for each spooled log, then None when there are no more."""
        with contextlib.suppress(OSError):   # the writer is gone and reports why itself
            self._channel.send(notice)

    def _report(self):
        """The writer's report: None once everything is written, else why not."""
        try:
            return self._channel.recv()
        # it died without a word; the channel resets if it left notices unread
        except (EOFError, ConnectionResetError):
            self._writer.join()
            return f"writer process exited with code {self._writer.exitcode}"

    def _write(self) -> None:
        """The writer process: confidences.csv from the spooled logs."""
        # Ctrl-C reaches the whole process group; the parent handles it and stops this process
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        self._spool_out.close()
        self._channel.close()
        try:
            logs = (pickle.load(self._spool_in) for _ in iter(self._writer_end.recv, None))
            analysis.write_confidences_csv(logs, self.path("confidences.csv"))
            message = None
        except Exception as exc:  # noqa: BLE001 - the parent raises it
            message = str(exc) or type(exc).__name__
        with contextlib.suppress(OSError):   # the parent is gone
            self._writer_end.send(message)


def cmd_train(args) -> int:
    config = _config_from_args(args)
    check_run(config, args.target, args.seed)
    bench = generate_benchmark(config.benchmark)
    with _TrainOutputs(args.out) as outputs:
        # stats joins confidences.csv with these; gen-data exports the data itself
        export_truth(bench, outputs.path("benchmark"))
        run = train_one(config, args.target, args.seed, bench, on_epoch=outputs.send)
        save_model(run.final_state, outputs.path("model.bin"))
        write_metrics_csv(ProtocolResult(config, [run]), outputs.path("metrics.csv"))
        outputs.commit()
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
    # tau is held to the log's class count, not the config's, before the log is read
    num_classes = analysis.confidence_classes(args.confidences)
    tau = _config_from_args(args, num_classes=num_classes).tau
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
    for name, (ratio, passed) in report.items():
        verdict = "ok" if passed else "FAIL"
        print(f"{name:>7}: worst |a - f| {ratio:.3f} of its allowance  {verdict}")
    return 0 if all(passed for _, passed in report.values()) else 1


def cmd_gen_data(args) -> int:
    config = _config_from_args(args)
    bench = generate_benchmark(config.benchmark)
    export_benchmark(bench, args.out)
    print(f"wrote {config.benchmark.num_domains} domains to {args.out}")
    return 0


def _out_dir(out: str) -> str:
    """--out, a usage error if empty (abspath reads "" as the working directory)
    or unless it or else its nearest existing ancestor is a directory."""
    if not out:
        raise argparse.ArgumentTypeError("an empty path is not a directory")
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is not a directory")
    return out


# flags that mean the same in every command that reads them; --seed differs
# between commands, so each command declares its own
_FLAGS = {
    "--config": dict(help="key = value config file"),
    "--method": dict(choices=sorted(METHODS), help="training method"),
    "--tau": dict(type=float, help="confidence threshold"),
    "--labels-per-class": dict(type=int, dest="labels_per_class",
                               help="labeled samples per class per domain"),
    "--out": dict(default="out", type=_out_dir, help="output directory"),
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
