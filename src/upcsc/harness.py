"""Leave-one-domain-out training harness.

Each run holds one domain out entirely, trains on the remaining sources
(labeled + unlabeled), evaluates once per epoch on the raw source unlabeled
pools and the target test split, and reports the final-epoch target accuracy.
Every random decision comes from a substream keyed by (master_seed, tag,
target, run_seed, step), so runs replay exactly and never share streams.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import get_origin, get_type_hints

import numpy as np

from . import analysis
from .csvio import FLOAT_FORMAT, format_rows, write_csv
from .errors import ConfigError, DivergenceError, UndefinedStatisticError
from .losses import MethodFlags, check_threshold, total_loss
from .model import ModelDims, ModelState, class_confidence, featurize, init_model
from .numerics import LrSchedule, cosine_lr, sgd_step, substream
from .synthdata import BenchmarkConfig, DomainBenchmark, generate_benchmark, sample_batch

METHODS = {
    "supervised-only": MethodFlags(unsup=False, upc=False, sc=False),
    "fixmatch": MethodFlags(unsup=True, upc=False, sc=False),
    "fixmatch+upc": MethodFlags(unsup=True, upc=True, sc=False),
    "fixmatch+sc": MethodFlags(unsup=True, upc=False, sc=True),
    "fixmatch+upcsc": MethodFlags(unsup=True, upc=True, sc=True),
}

_LOSS_TERMS = ("l_sup", "l_unsup", "l_upc", "l_sc", "l_total")
EPOCH_METRICS = _LOSS_TERMS + ("source_unlabeled_accuracy", "uus_rate", "inclusion_rate",
                               "target_accuracy")

_TAG_INIT = 7
_TAG_STEP = 11


@dataclass(frozen=True)
class TrainConfig:
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    dims: ModelDims = field(default_factory=ModelDims)
    method: str = "fixmatch+upcsc"
    tau: float = 0.95
    epochs: int = 20
    steps_per_epoch: int = 50
    labeled_per_domain: int = 16
    unlabeled_per_domain: int = 16
    lr_backbone: float = 0.003
    lr_classifier: float = 0.01
    lr_projectors: float = 0.0005
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; "
                              f"choose one of {sorted(METHODS)}")
        if self.epochs < 1 or self.steps_per_epoch < 1:
            raise ConfigError("epochs and steps_per_epoch must be >= 1")
        if self.labeled_per_domain < 1 or self.unlabeled_per_domain < 1:
            raise ConfigError("per-domain batch sizes must be >= 1")
        for name in ("lr_backbone", "lr_classifier", "lr_projectors"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not self.seeds:
            raise ConfigError("need at least one run seed")
        check_threshold(self.tau, self.benchmark.num_classes)
        if self.dims.input_dim != self.benchmark.latent_dim:
            raise ConfigError("model input_dim must equal the benchmark latent_dim")
        if self.dims.num_classes != self.benchmark.num_classes:
            raise ConfigError("model and benchmark disagree on num_classes")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int   # 1-based
    l_sup: float
    l_unsup: float
    l_upc: float
    l_sc: float
    l_total: float
    source_unlabeled_accuracy: float
    uus_rate: float
    inclusion_rate: float   # nan when no sample is unconfident
    target_accuracy: float
    degenerate_uniform: int


@dataclass
class RunRecord:
    method: str
    target: int
    seed: int
    epochs: list[EpochRecord]
    final_state: ModelState
    confidence_log: analysis.ConfidenceLog | None = None
    # set together with confidence_log: the benchmark holds the log's truth
    benchmark: DomainBenchmark | None = None

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

    def final_accuracies(self) -> dict[tuple[int, int], float]:
        return {(r.target, r.seed): r.final_accuracy for r in self.runs}

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


def train_one(config: TrainConfig, target: int, seed: int,
              collect_log: bool = False) -> RunRecord:
    """One leave-one-domain-out run; `seed` varies init and batch draws while
    the benchmark itself stays fixed by the benchmark master_seed. With
    `collect_log` the record also carries the confidence log and the
    benchmark it was scored on."""
    bench = generate_benchmark(config.benchmark)
    if target not in bench.domain_ids:
        raise ConfigError(f"target domain {target} outside 0..{len(bench.domain_ids) - 1}")
    view = bench.without_domain(target)
    flags = METHODS[config.method]
    bc = config.benchmark
    master = bc.master_seed

    init_seed = int(substream(master, _TAG_INIT, target, seed).integers(2**62))
    state = init_model(config.dims, init_seed)

    total_steps = config.epochs * config.steps_per_epoch
    schedules = {
        "backbone": LrSchedule(config.lr_backbone, total_steps),
        "classifier": LrSchedule(config.lr_classifier, total_steps),
        "projectors": LrSchedule(config.lr_projectors, total_steps),
    }

    records: list[EpochRecord] = []
    logs: list[analysis.ConfidenceLog] = []
    for epoch in range(1, config.epochs + 1):
        sums = dict.fromkeys(_LOSS_TERMS, 0.0)
        degenerate = 0
        for s in range(config.steps_per_epoch):
            step = (epoch - 1) * config.steps_per_epoch + s
            rng = substream(master, _TAG_STEP, target, seed, step)
            batch = sample_batch(view, config.labeled_per_domain,
                                 config.unlabeled_per_domain, rng)
            # a diverging step is reported once, by the non-finite check
            # below, rather than by numpy warnings on the way there
            with np.errstate(over="ignore", invalid="ignore"):
                breakdown, grads = total_loss(
                    state, batch, flags, config.tau, rng,
                    sigma_weak=bc.sigma_weak, sigma_strong=bc.sigma_strong,
                    strong_dropout=bc.strong_dropout)
                bad = _first_non_finite(breakdown, grads)
                if bad:
                    raise DivergenceError(f"{_run_id(config.method, target, seed)}: "
                                          f"non-finite {bad} at step {step}")
                rates = {g: cosine_lr(sch, step) for g, sch in schedules.items()}
                state = sgd_step(state, grads, rates)
            for name in sums:
                sums[name] += getattr(breakdown, name)
            degenerate += breakdown.degenerate_uniform

        def confidence_fn(x, st=state):
            return class_confidence(st, featurize(st, x))

        log = analysis.log_source_confidences(bench, view.source_ids, confidence_fn, epoch)
        if collect_log:
            logs.append(log)
        try:
            incl = analysis.inclusion_rate(log, config.tau)
        except UndefinedStatisticError:
            incl = math.nan
        test_x, test_y = bench.test(target)
        records.append(EpochRecord(
            epoch=epoch,
            **{name: sums[name] / config.steps_per_epoch for name in sums},
            source_unlabeled_accuracy=analysis.top1_accuracy(log.conf, log.truth),
            uus_rate=analysis.uus_rate(log, config.tau),
            inclusion_rate=incl,
            target_accuracy=analysis.top1_accuracy(confidence_fn(test_x), test_y),
            degenerate_uniform=degenerate,
        ))

    if not collect_log:
        return RunRecord(config.method, target, seed, records, state)
    return RunRecord(config.method, target, seed, records, state,
                     analysis.ConfidenceLog.concatenate(logs), bench)


def run_protocol(config: TrainConfig, jobs: int = 1) -> ProtocolResult:
    """train_one over every (target, seed) pair, in a fixed order.

    With jobs > 1 the runs execute in a process pool; results are merged in
    task order, so parallel and serial protocols produce identical output.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    num_domains = config.benchmark.num_domains
    tasks = [(config, target, seed) for target in range(num_domains) for seed in config.seeds]
    if jobs > 1:
        # one task at a time, so no worker idles while another runs a chunk
        with multiprocessing.Pool(processes=jobs) as pool:
            runs = pool.starmap(train_one, tasks, chunksize=1)
    else:
        runs = [train_one(*task) for task in tasks]
    return ProtocolResult(config, list(runs))


def paired_deltas(a: ProtocolResult, b: ProtocolResult) -> np.ndarray:
    """Final-accuracy differences a - b over matching (target, seed) pairs."""
    fa, fb = a.final_accuracies(), b.final_accuracies()
    if fa.keys() != fb.keys():
        raise ConfigError("protocols cover different (target, seed) pairs")
    keys = sorted(fa)
    return np.asarray([fa[k] - fb[k] for k in keys])


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

# config key -> field type; the model's input_dim and num_classes follow the
# benchmark, and the nested benchmark and dims are built from their own keys
_BENCH_KEYS = get_type_hints(BenchmarkConfig)
_DIMS_KEYS = {k: get_type_hints(ModelDims)[k] for k in ("hidden_dims", "feature_dim")}
_TRAIN_KEYS = {k: t for k, t in get_type_hints(TrainConfig).items()
               if k not in ("benchmark", "dims")}
_KEY_TYPES = {**_BENCH_KEYS, **_DIMS_KEYS, **_TRAIN_KEYS}


def parse_config_file(path) -> dict:
    """`key = value` lines with # comments; values stay strings here."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _convert(key: str, raw):
    """A config-file string as its field's type: an int field takes only an
    integer literal, a float field any finite number, a tuple field
    comma-separated integers. Values that are not strings pass through."""
    if not isinstance(raw, str):
        return raw
    kind = _KEY_TYPES[key]
    is_tuple = get_origin(kind) is tuple
    try:
        value = tuple(int(p) for p in raw.split(",") if p.strip()) if is_tuple else kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError
    except ValueError as exc:
        expected = "comma-separated ints" if is_tuple else kind.__name__
        raise ConfigError(f"cannot parse value for {key!r}: {raw!r} (expected {expected})"
                          ) from exc
    return value


def build_train_config(overrides: dict) -> TrainConfig:
    """TrainConfig from a flat key/value mapping.

    num_classes feeds both the benchmark and the model head, and the model
    input width always follows the benchmark latent_dim.
    """
    unknown = set(overrides) - set(_KEY_TYPES)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    parsed = {k: _convert(k, v) for k, v in overrides.items()}
    bench = BenchmarkConfig(**{k: v for k, v in parsed.items() if k in _BENCH_KEYS})
    dims_defaults = ModelDims()
    dims = ModelDims(
        input_dim=bench.latent_dim,
        hidden_dims=parsed.get("hidden_dims", dims_defaults.hidden_dims),
        feature_dim=parsed.get("feature_dim", dims_defaults.feature_dim),
        num_classes=bench.num_classes,
    )
    train_kwargs = {k: v for k, v in parsed.items() if k in _TRAIN_KEYS}
    return TrainConfig(benchmark=bench, dims=dims, **train_kwargs)
