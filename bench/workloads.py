"""The benchmark's workloads.

Each workload builds its inputs from the workload seed (the benchmark's
master_seed and the run seed both take its value; the held-out domain is
always 0), runs one operation of the program per repeat, and checks what the
operation produced. `operation` is the timed call; `check` runs untimed,
writes the operation's outputs the way the CLI would and returns their
digest, so repeats, traced runs and the serial protocol can be compared byte
for byte. `reference`, where a workload has one, is the serial form of its
operation: the outputs every timed operation must reproduce, and the form
that is traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from upcsc import cli, harness, model
from upcsc.synthdata import BenchmarkConfig, generate_benchmark

TARGET = 0
LOSS_TERMS = ("l_sup", "l_unsup", "l_upc", "l_sc", "l_total")
# Four targets x 250 steps: as many steps as one default train_one run, so
# a measured run holds more than one protocol operation.
PROTOCOL_EPOCHS = 5


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Outputs:
    digest: str
    accuracy: float          # mean final target accuracy
    lines: list[str] | None  # results.csv + metrics.csv lines, where there are any


def _digest_tree(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_run(run: harness.RunRecord, num_classes: int) -> None:
    for rec in run.epochs:
        for name in LOSS_TERMS:
            if not math.isfinite(getattr(rec, name)):
                raise CheckFailed(f"{run.run_id}: {name} = {getattr(rec, name)} at epoch {rec.epoch}")
    if not run.final_accuracy >= 2.0 / num_classes:
        raise CheckFailed(f"{run.run_id}: final accuracy {run.final_accuracy:.4f} "
                          f"is not clearly above chance 1/{num_classes}")


class Workload:
    name = ""
    method = "fixmatch+upcsc"
    # An untimed operation whose outputs every timed one must reproduce; when
    # None, the first timed operation serves as the reference.
    reference = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.config = harness.TrainConfig(benchmark=BenchmarkConfig(master_seed=seed),
                                          method=self.method, seeds=(seed,))
        self._ops = 0

    @property
    def steps(self) -> int:
        """Optimizer steps one operation performs."""
        return self.config.epochs * self.config.steps_per_epoch

    def warm_up(self) -> None:
        """A five-step run: imports, BLAS threads and first-call paths settle."""
        tiny = replace(self.config, epochs=1, steps_per_epoch=5)
        harness.train_one(tiny, TARGET, self.seed)

    def operation(self):
        raise NotImplementedError

    def check(self, result: harness.ProtocolResult) -> Outputs:
        """Write results.csv, metrics.csv and one model.bin per run; digest them."""
        num_classes = self.config.benchmark.num_classes
        for run in result.runs:
            _check_run(run, num_classes)
        out = self._fresh_dir()
        out.mkdir(parents=True)
        try:
            harness.write_results_csv(result, out / "results.csv")
            harness.write_metrics_csv(result, out / "metrics.csv")
            for run in result.runs:
                model.save_model(run.final_state, out / f"{run.run_id}.bin")
            lines = [line for name in ("results.csv", "metrics.csv")
                     for line in (out / name).read_text().splitlines()]
            return Outputs(_digest_tree(out), result.mean_accuracy(), lines)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _fresh_dir(self) -> Path:
        self._ops += 1
        out = self.workdir / f"op{self._ops}"
        shutil.rmtree(out, ignore_errors=True)
        return out


class TrainUpcsc(Workload):
    """One default fixmatch+upcsc train_one run: 1000 steps, 20 evaluations."""
    name = "train_upcsc"

    def operation(self):
        return harness.train_one(self.config, TARGET, self.seed)

    def check(self, run) -> Outputs:
        return super().check(harness.ProtocolResult(self.config, [run]))


class ProtocolJobs2(Workload):
    """run_protocol for fixmatch+upcsc over 4 targets x 1 seed with 2 workers,
    checked row for row against a serial run of the same protocol."""
    name = "protocol_jobs2"
    jobs = 2

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.config = replace(self.config, epochs=PROTOCOL_EPOCHS)

    @property
    def steps(self) -> int:
        return self.config.benchmark.num_domains * super().steps

    def reference(self):
        return harness.run_protocol(self.config, jobs=1)

    def operation(self):
        return harness.run_protocol(self.config, jobs=self.jobs)


class CliTrainStats(Workload):
    """In-process `upcsc train --method fixmatch`, then `upcsc stats` on its outputs."""
    name = "cli_train_stats"
    method = "fixmatch"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "bench.cfg"
        self.config_path.write_text(f"master_seed = {seed}\n")
        bench = generate_benchmark(self.config.benchmark)
        self.confidence_rows = self.config.epochs * sum(
            len(bench.unlabeled(d)) for d in bench.domain_ids if d != TARGET)

    def operation(self):
        out = self._fresh_dir()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            codes = [cli.main(["train", "--method", self.method, "--seed", str(self.seed),
                               "--config", str(self.config_path), "--target", str(TARGET),
                               "--out", str(out)])]
            if codes[0] == 0:
                codes.append(cli.main(["stats", "--confidences", str(out / "confidences.csv"),
                                       "--truth-dir", str(out / "benchmark"),
                                       "--out", str(out / "stats")]))
        return codes, out

    def check(self, result) -> Outputs:
        codes, out = result
        try:
            if codes != [0, 0]:
                raise CheckFailed(f"cli exit codes {codes} (train, stats), expected [0, 0]")
            with open(out / "confidences.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != self.confidence_rows:
                raise CheckFailed(f"confidences.csv has {rows} rows, expected "
                                  f"{self.confidence_rows} (epochs x source-unlabeled rows)")
            state = model.load_model(out / "model.bin")
            model.save_model(state, out / "model_roundtrip.bin")
            if (out / "model_roundtrip.bin").read_bytes() != (out / "model.bin").read_bytes():
                raise CheckFailed("model.bin does not round-trip through load_model/save_model")
            (out / "model_roundtrip.bin").unlink()
            final = _final_metrics(out / "metrics.csv")
            for name in LOSS_TERMS:
                if not math.isfinite(final[name]):
                    raise CheckFailed(f"metrics.csv: final {name} = {final[name]}")
            num_classes = self.config.benchmark.num_classes
            if not final["target_accuracy"] >= 2.0 / num_classes:
                raise CheckFailed(f"final accuracy {final['target_accuracy']:.4f} is not "
                                  f"clearly above chance 1/{num_classes}")
            return Outputs(_digest_tree(out), final["target_accuracy"], None)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _final_metrics(path: Path) -> dict[str, float]:
    """Last epoch's value of each metric in a one-run metrics.csv."""
    final: dict[str, float] = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            *_, metric, value = line.rstrip("\n").split(",")
            final[metric] = float(value)
    return final


WORKLOADS = {w.name: w for w in (TrainUpcsc, CliTrainStats, ProtocolJobs2)}
