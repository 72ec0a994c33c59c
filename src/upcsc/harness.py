"""Leave-one-domain-out training harness.

Each run holds one domain out entirely, trains on the remaining sources
(labeled + unlabeled), evaluates once per epoch on the raw source unlabeled
pools and the target test split, and reports the final-epoch target accuracy.
Every random decision comes from a substream keyed by (master_seed, tag,
target, run_seed, step), so runs replay exactly and never share streams.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
from dataclasses import dataclass, field, fields

import numpy as np

from . import analysis
from .csvio import FLOAT_FORMAT, format_rows, write_csv
from .errors import (ConfigError, DataError, DegenerateInputError, DivergenceError, bounded,
                     check_fields)
from .losses import LossBreakdown, MethodFlags, check_threshold, total_loss
from .model import ModelDims, ModelState, init_model, score_rows
from .numerics import cosine_lr, sgd_step, substream
from .synthdata import (BenchmarkConfig, DomainBenchmark, augment_views, generate_benchmark,
                        sample_batch)

METHODS = {
    "supervised-only": MethodFlags(unsup=False, upc=False, sc=False),
    "fixmatch": MethodFlags(unsup=True, upc=False, sc=False),
    "fixmatch+upc": MethodFlags(unsup=True, upc=True, sc=False),
    "fixmatch+sc": MethodFlags(unsup=True, upc=False, sc=True),
    "fixmatch+upcsc": MethodFlags(unsup=True, upc=True, sc=True),
}

_LOSS_TERMS = tuple(f.name for f in fields(LossBreakdown))

_TAG_INIT = 7
_TAG_STEP = 11

# a step whose l_total exceeds this multiple of the run's first step's has
# blown up even while finite; no default protocol step of any method passes 3.3x
MAX_LOSS_GROWTH = 100.0


@dataclass(frozen=True)
class TrainConfig:
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    # ModelDims holds these two to its bounds
    hidden_dims: tuple[int, ...] = ModelDims.hidden_dims
    feature_dim: int = ModelDims.feature_dim
    method: str = "fixmatch+upcsc"
    tau: float = 0.95
    epochs: int = bounded(20, least=1)
    steps_per_epoch: int = bounded(50, least=1)
    labeled_per_domain: int = bounded(16, least=1)
    unlabeled_per_domain: int = bounded(16, least=1)
    lr_backbone: float = bounded(0.003, above=0)
    lr_classifier: float = bounded(0.01, above=0)
    lr_projectors: float = bounded(0.0005, above=0)
    seeds: tuple[int, ...] = bounded((0, 1, 2, 3, 4), least=0)
    # the model's, derived: its input width and head follow the benchmark
    dims: ModelDims = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self)
        if self.method not in METHODS:
            raise ConfigError(f"'method' must be one of {sorted(METHODS)}, got {self.method!r}")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"'seeds' must be one or more distinct seeds, got {self.seeds}")
        check_threshold(self.tau, self.benchmark.num_classes)
        object.__setattr__(self, "dims", ModelDims(self.benchmark.latent_dim, self.hidden_dims,
                                                   self.feature_dim, self.benchmark.num_classes))


@dataclass(frozen=True)
class EpochRecord(LossBreakdown):
    """One epoch's mean loss terms and its evaluation."""
    epoch: int   # 1-based
    source_unlabeled_accuracy: float
    uus_rate: float
    inclusion_rate: float   # nan when no sample is unconfident
    target_accuracy: float


# metrics.csv's rows, in order
EPOCH_METRICS = tuple(f.name for f in fields(EpochRecord) if f.name != "epoch")


@dataclass
class RunRecord:
    method: str
    target: int
    seed: int
    epochs: list[EpochRecord]
    final_state: ModelState

    @property
    def run_id(self) -> str:
        return _run_id(self.method, self.target, self.seed)

    @property
    def final_accuracy(self) -> float:
        return self.epochs[-1].target_accuracy


@dataclass
class ProtocolResult:
    config: TrainConfig
    runs: list[RunRecord]

    def mean_accuracy(self) -> float:
        return float(np.mean([r.final_accuracy for r in self.runs]))


def _run_id(method: str, target: int, seed: int) -> str:
    return f"{method}-t{target}-s{seed}"


def _first_non_finite(breakdown, grads) -> str | None:
    """Name of the first loss term or gradient that is nan or infinite."""
    for name in _LOSS_TERMS:
        if not math.isfinite(getattr(breakdown, name)):
            return name
    return next((f"gradient of {name}" for name, g in grads.items()
                 if not np.isfinite(g).all()), None)


def check_run(config: TrainConfig, target: int, seed: int) -> None:
    """A ConfigError unless `target` is one of the config's domains and `seed`
    is nonnegative: train_one's arguments, checked before any work."""
    num_domains = config.benchmark.num_domains
    if not 0 <= target < num_domains:
        raise ConfigError(f"target domain {target} outside 0..{num_domains - 1}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def train_one(config: TrainConfig, target: int, seed: int,
              benchmark: DomainBenchmark | None = None, on_epoch=None) -> RunRecord:
    """One leave-one-domain-out run; `seed` varies init and batch draws while
    the benchmark itself stays fixed by the benchmark master_seed.

    `benchmark`, when given, is the one generated from config.benchmark, so
    a caller that also exports it generates it once. `on_epoch`, when given,
    receives each epoch's confidence log of the source unlabeled pools as
    soon as it is scored.
    """
    check_run(config, target, seed)
    bench = generate_benchmark(config.benchmark) if benchmark is None else benchmark
    if bench.config != config.benchmark:
        raise ConfigError("the benchmark was generated from another config")
    view = bench.without_domain(target)
    flags = METHODS[config.method]
    run_id = _run_id(config.method, target, seed)
    bc = config.benchmark
    master = bc.master_seed

    init_seed = int(substream(master, _TAG_INIT, target, seed).integers(2**62))
    state = init_model(config.dims, init_seed)

    total_steps = config.epochs * config.steps_per_epoch
    base_rates = {"backbone": config.lr_backbone, "classifier": config.lr_classifier,
                  "projectors": config.lr_projectors}

    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        sums = dict.fromkeys(_LOSS_TERMS, 0.0)
        for s in range(config.steps_per_epoch):
            step = (epoch - 1) * config.steps_per_epoch + s
            rng = substream(master, _TAG_STEP, target, seed, step)
            batch = sample_batch(view, config.labeled_per_domain,
                                 config.unlabeled_per_domain, rng)
            views = augment_views(batch.unlabeled_x, rng, bc)
            # a diverging step is reported once, by the non-finite check
            # below, rather than by numpy warnings on the way there
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    breakdown, grads = total_loss(state, batch, views, flags, config.tau)
                except DegenerateInputError as exc:
                    raise DegenerateInputError(f"{run_id}: {exc} at step {step}") from exc
                bad = _first_non_finite(breakdown, grads)
                if bad:
                    raise DivergenceError(f"{run_id}: non-finite {bad} at step {step}")
                if step == 0:
                    first_total = breakdown.l_total
                elif breakdown.l_total > MAX_LOSS_GROWTH * first_total:
                    raise DivergenceError(f"{run_id}: l_total {breakdown.l_total:.3g} at step "
                                          f"{step} is {breakdown.l_total / first_total:.3g} "
                                          f"times step 0's {first_total:.3g}")
                rates = {g: cosine_lr(base, step, total_steps) for g, base in base_rates.items()}
                state = sgd_step(state, grads, rates)
            for name in sums:
                sums[name] += getattr(breakdown, name)

        confidence_fn = functools.partial(score_rows, state)
        # the last step can leave weights whose scores overflow, which no step checks
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                log = analysis.log_source_confidences(bench, view.source_ids, confidence_fn, epoch)
            except DataError as exc:
                raise DivergenceError(f"{run_id}: {exc} when scored after step {step}") from exc
        if on_epoch is not None:
            on_epoch(log)
        uus, inclusion = analysis.confidence_rates(log, config.tau)
        test_x, test_y = bench.test(target)
        records.append(EpochRecord(
            epoch=epoch,
            **{name: sums[name] / config.steps_per_epoch for name in sums},
            source_unlabeled_accuracy=analysis.top1_accuracy(log.conf, log.truth),
            uus_rate=uus,
            inclusion_rate=inclusion,
            target_accuracy=analysis.top1_accuracy(confidence_fn(test_x), test_y),
        ))

    return RunRecord(config.method, target, seed, records, state)


def run_protocol(config: TrainConfig, jobs: int = 1) -> ProtocolResult:
    """train_one over every (target, seed) pair, in a fixed order.

    With jobs > 1 the runs execute in a pool of at most one process per run;
    results, and the error of the first run in task order that fails, are
    taken in task order, so parallel and serial protocols match.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    num_domains = config.benchmark.num_domains
    tasks = [(config, target, seed) for target in range(num_domains) for seed in config.seeds]
    if jobs > 1:
        # one task at a time, so no worker idles while another runs a chunk
        with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
            pending = [pool.apply_async(train_one, task) for task in tasks]
            runs = [p.get() for p in pending]
    else:
        runs = [train_one(*task) for task in tasks]
    return ProtocolResult(config, runs)


def write_metrics_csv(result: ProtocolResult, path) -> None:
    """run_id,target_domain,seed,epoch,metric,value with one row per metric."""
    rows = [(run.run_id, run.target, run.seed, rec.epoch, metric, getattr(rec, metric))
            for run in result.runs for rec in run.epochs for metric in EPOCH_METRICS]
    write_csv(path, ["run_id", "target_domain", "seed", "epoch", "metric", "value"],
              format_rows("%s,%d,%d,%d,%s," + FLOAT_FORMAT, *zip(*rows)))


def write_results_csv(result: ProtocolResult, path) -> None:
    """method,target,seed,final_accuracy; one row per run."""
    rows = [(run.method, run.target, run.seed, run.final_accuracy) for run in result.runs]
    write_csv(path, ["method", "target", "seed", "final_accuracy"],
              format_rows("%s,%d,%d," + FLOAT_FORMAT, *zip(*rows)))


# ------------------------------------------------------------ config parsing

# config key -> the config class that takes it
_KEY_OWNERS = {**{f.name: TrainConfig for f in fields(TrainConfig)
                  if f.init and f.name != "benchmark"},
               **{f.name: BenchmarkConfig for f in fields(BenchmarkConfig)}}


def parse_config_file(path) -> dict:
    """UTF-8 `key = value` lines with # comments; values stay strings here."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


def build_train_config(overrides: dict) -> TrainConfig:
    """TrainConfig from a flat key/value mapping; each config class reads its
    own values, config-file strings included."""
    unknown = set(overrides) - set(_KEY_OWNERS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {cls: {} for cls in (BenchmarkConfig, TrainConfig)}
    for key, value in overrides.items():
        kwargs[_KEY_OWNERS[key]][key] = value
    return TrainConfig(benchmark=BenchmarkConfig(**kwargs[BenchmarkConfig]), **kwargs[TrainConfig])
