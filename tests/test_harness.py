"""Leave-one-domain-out runs, protocol sweeps, and config parsing."""

import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import DESK_CONFIG, final_accuracies, paired_deltas
from upcsc import analysis, harness
from upcsc.errors import ConfigError, DivergenceError
from upcsc.harness import (EPOCH_METRICS, METHODS, TrainConfig, build_train_config,
                           parse_config_file, run_protocol, train_one, write_metrics_csv,
                           write_results_csv)
from upcsc.model import ModelDims
from upcsc.numerics import substream
from upcsc.synthdata import (BenchmarkConfig, DomainBenchmark, generate_benchmark, sample_batch,
                             strong_augment, weak_augment)

DESK = build_train_config(DESK_CONFIG)
SMALL_BENCH = DESK.benchmark


def small_config(method="fixmatch+upcsc", **kw):
    # hidden_dims () avoids dead-ReLU rows at toy width
    return replace(DESK, **{"hidden_dims": (), "method": method, "epochs": 2,
                            "steps_per_epoch": 3, "seeds": (0,), **kw})


def test_config_validation():
    # every range bound is a BOUNDS row below; the method is a name, not a range
    with pytest.raises(ConfigError, match="^'method' must be one of"):
        small_config(method="adversarial")


def test_model_dims_follow_the_benchmark():
    cfg = replace(TrainConfig(), benchmark=BenchmarkConfig(num_classes=5, latent_dim=6))
    assert cfg.dims == ModelDims(input_dim=6, hidden_dims=(64,), feature_dim=64, num_classes=5)


@pytest.mark.parametrize("cls, field, value", [
    (ModelDims, "hidden_dims", (64.5,)),
    (TrainConfig, "seeds", (2.5,)),
    (TrainConfig, "epochs", 2.5),
    (BenchmarkConfig, "master_seed", 2.5),
])
def test_int_fields_reject_non_integers(cls, field, value):
    with pytest.raises(ConfigError, match=field):
        cls(**{field: value})


# (class, key, last value that builds, first that does not), as README's
# table of config ranges states them; TrainConfig's tau rows are for its
# default 7 classes, and the majority rows for the other key's default
BOUNDS = [
    (BenchmarkConfig, "num_domains", 2, 1),
    (BenchmarkConfig, "num_classes", 2, 1),
    (BenchmarkConfig, "latent_dim", 1, 0),
    (BenchmarkConfig, "samples_per_class_per_domain", 26, 25),
    (BenchmarkConfig, "labels_per_class", 1, 0),
    (BenchmarkConfig, "labels_per_class", 199, 200),
    (BenchmarkConfig, "master_seed", 0, -1),
    *[(BenchmarkConfig, key, 0.0, -5e-324)
      for key in ("class_separation", "rotation_max_angle", "scale_log_range", "shift_sigma",
                  "noise_sigma", "sigma_weak", "sigma_strong", "strong_dropout")],
    (BenchmarkConfig, "strong_dropout", 0.9999999999999999, 1.0),
    (ModelDims, "input_dim", 1, 0),
    (ModelDims, "hidden_dims", (1,), (0,)),
    (ModelDims, "hidden_dims", (4, 1), (4, 0)),
    (ModelDims, "feature_dim", 1, 0),
    (ModelDims, "num_classes", 2, 1),
    (TrainConfig, "hidden_dims", (1,), (0,)),
    (TrainConfig, "feature_dim", 1, 0),
    (TrainConfig, "tau", math.nextafter(1 / 7, 1), 1 / 7),
    (TrainConfig, "tau", 0.9999999999999999, 1.0),
    (TrainConfig, "epochs", 1, 0),
    (TrainConfig, "steps_per_epoch", 1, 0),
    (TrainConfig, "labeled_per_domain", 1, 0),
    (TrainConfig, "unlabeled_per_domain", 1, 0),
    *[(TrainConfig, key, 5e-324, 0.0)
      for key in ("lr_backbone", "lr_classifier", "lr_projectors")],
    (TrainConfig, "seeds", (0,), (-1,)),
    (TrainConfig, "seeds", (0, 1), (0, 0)),
    (TrainConfig, "seeds", (0,), ()),
]


@pytest.mark.parametrize("cls, key, good, bad", BOUNDS)
def test_config_bounds_build_inside_and_name_the_key_outside(cls, key, good, bad):
    assert getattr(cls(**{key: good}), key) == good
    with pytest.raises(ConfigError, match=f"'{key}'"):
        cls(**{key: bad})


def test_int_fields_take_numpy_integers_as_ints():
    cfg = TrainConfig(epochs=np.int64(3), seeds=[np.int32(4)], hidden_dims=(np.uint8(5),),
                      benchmark=BenchmarkConfig(master_seed=np.int16(6)))
    values = (cfg.epochs, *cfg.seeds, *cfg.dims.hidden_dims, cfg.benchmark.master_seed)
    assert values == (3, 4, 5, 6)
    assert all(type(v) is int for v in values)


@pytest.mark.parametrize("cls, field, value", [
    (BenchmarkConfig, "shift_sigma", -1.0),
    (BenchmarkConfig, "rotation_max_angle", -0.5),
    (BenchmarkConfig, "scale_log_range", -0.1),
    (BenchmarkConfig, "class_separation", float("inf")),
    (BenchmarkConfig, "noise_sigma", float("nan")),
    (TrainConfig, "lr_backbone", float("nan")),
    (TrainConfig, "lr_projectors", float("inf")),
])
def test_float_fields_reject_negative_and_non_finite_values(cls, field, value):
    # each of these used to build a config: a negative shift_sigma gave the
    # benchmark of shift_sigma = 0, and a nan learning rate failed at step 0
    with pytest.raises(ConfigError, match=field):
        cls(**{field: value})


@pytest.mark.parametrize("field", ["scale_log_range", "noise_sigma"])
def test_a_negative_zero_reads_as_zero(field):
    # -0.0 passes the >= 0 bound, and numpy's samplers refused it: the
    # benchmark failed with "high - low < 0" or "scale < 0", naming no key
    for value in ("-0.0", -0.0):
        config = replace(SMALL_BENCH, **{field: value})
        assert math.copysign(1.0, getattr(config, field)) == 1.0
    generate_benchmark(replace(SMALL_BENCH, **{field: -0.0}))


def test_fields_read_strings_and_python_values_alike():
    from_strings = TrainConfig(epochs="3", lr_backbone="1", seeds="4, 5", hidden_dims="7",
                               benchmark=BenchmarkConfig(noise_sigma="2"))
    from_values = TrainConfig(epochs=3, lr_backbone=1, seeds=[4, 5], hidden_dims=(7,),
                              benchmark=BenchmarkConfig(noise_sigma=np.float32(2.0)))
    assert from_strings == from_values
    assert type(from_values.lr_backbone) is float
    assert type(from_values.benchmark.noise_sigma) is float
    # a bare integer is not a tuple of seeds
    with pytest.raises(ConfigError, match="seeds"):
        TrainConfig(seeds=3)


def test_train_one_is_deterministic():
    cfg = small_config()
    a = train_one(cfg, target=1, seed=0)
    b = train_one(cfg, target=1, seed=0)
    for (name, pa), (_, pb) in zip(a.final_state.param_items(),
                                   b.final_state.param_items()):
        assert np.array_equal(pa, pb), name
    assert [r.target_accuracy for r in a.epochs] == [r.target_accuracy for r in b.epochs]
    assert [r.l_total for r in a.epochs] == [r.l_total for r in b.epochs]


def test_train_one_seed_changes_outcome():
    cfg = small_config()
    a = train_one(cfg, target=1, seed=0)
    b = train_one(cfg, target=1, seed=1)
    diffs = [not np.array_equal(pa, pb) for (_, pa), (_, pb)
             in zip(a.final_state.param_items(), b.final_state.param_items())]
    assert any(diffs)


def test_train_one_stops_at_the_first_non_finite_step(monkeypatch):
    # at these rates the default run blows up within ten steps; it used to
    # train on and report l_total = nan with chance accuracy. The growth
    # bound would stop it at step 1, so it is lifted to reach the nan.
    monkeypatch.setattr(harness, "MAX_LOSS_GROWTH", math.inf)
    cfg = TrainConfig(lr_backbone=50.0, lr_classifier=50.0, epochs=1, steps_per_epoch=10)
    with pytest.raises(DivergenceError,
                       match=r"^fixmatch\+upcsc-t0-s0: non-finite l_sup at step 6$"):
        train_one(cfg, target=0, seed=0)


def test_train_one_stops_a_finite_blow_up():
    # l_total reads 8.12, 5.88e4, 1.39e9, ... 5.31e21 here, all finite; the
    # run used to end at accuracy 1/16 without an error
    cfg = small_config(lr_backbone=50.0, lr_classifier=50.0)
    with pytest.raises(DivergenceError, match=r"^fixmatch\+upcsc-t0-s0: l_total 5\.88e\+04 "
                                              r"at step 1 is 7\.25e\+03 times step 0's 8\.12$"):
        train_one(cfg, target=0, seed=0)


def test_train_one_names_the_step_whose_weights_overflow_the_scores():
    # at this separation the one step is finite but leaves weights whose
    # epoch scores overflow; the run used to fail with "confidence rows
    # must be finite", naming neither run nor step
    cfg = small_config(benchmark=replace(SMALL_BENCH, class_separation=1e300), epochs=1,
                       steps_per_epoch=1)
    with pytest.raises(DivergenceError, match=r"^fixmatch\+upcsc-t0-s0: confidence rows must "
                                              r"be finite when scored after step 0$"):
        train_one(cfg, target=0, seed=0)


def test_train_one_rejects_bad_target():
    with pytest.raises(ConfigError):
        train_one(small_config(), target=7, seed=0)


def test_negative_seeds_are_config_errors_naming_the_key():
    # numpy's own refusal names no key and reached the CLI as exit 1
    with pytest.raises(ConfigError,
                       match=r"'seeds' must be comma-separated integers >= 0, got \(0, -2\)$"):
        small_config(seeds=(0, -2))
    with pytest.raises(ConfigError, match="'master_seed' must be an integer >= 0, got -3$"):
        replace(SMALL_BENCH, master_seed=-3)
    with pytest.raises(ConfigError, match="^seed must be nonnegative"):
        train_one(small_config(), target=0, seed=-1)


def test_train_one_draws_the_batch_then_weak_then_strong_views(monkeypatch):
    # a step's stream yields its batch, then the weak views of every
    # unlabeled row, then their strong views, at the benchmark's noise
    # settings; the loss graph itself draws nothing
    bench_cfg = replace(SMALL_BENCH, sigma_weak=0.1, sigma_strong=0.3, strong_dropout=0.1)
    cfg = small_config(benchmark=bench_cfg, epochs=1)
    seen = []
    real = harness.total_loss

    def recording(state, batch, views, flags, tau):
        seen.append(views)
        return real(state, batch, views, flags, tau)

    monkeypatch.setattr(harness, "total_loss", recording)
    train_one(cfg, target=1, seed=2)
    assert len(seen) == cfg.steps_per_epoch
    view = generate_benchmark(bench_cfg).without_domain(1)
    for step, views in enumerate(seen):
        rng = substream(bench_cfg.master_seed, harness._TAG_STEP, 1, 2, step)
        x_u = sample_batch(view, cfg.labeled_per_domain, cfg.unlabeled_per_domain, rng).unlabeled_x
        weak = weak_augment(x_u, rng, 0.1)
        strong = strong_augment(x_u, rng, 0.3, 0.1)
        assert np.array_equal(views, np.concatenate([weak, strong])), step


def test_train_one_never_reads_target_training_data(monkeypatch):
    cfg = small_config()
    reads = []
    real = DomainBenchmark._get

    def recording(self, domain, split):
        reads.append((domain, split))
        return real(self, domain, split)

    monkeypatch.setattr(DomainBenchmark, "_get", recording)
    logs = []
    train_one(cfg, target=2, seed=0, on_epoch=logs.append)
    counts = Counter(reads)
    assert counts[(2, "labeled")] == 0
    assert counts[(2, "unlabeled")] == 0
    assert counts[(2, "truth")] == 0
    assert counts[(2, "test")] == cfg.epochs  # evaluation only
    assert counts[(0, "labeled")] > 0
    assert counts[(1, "unlabeled")] > 0
    assert [sorted(set(log.domains.tolist())) for log in logs] == [[0, 1]] * cfg.epochs


def test_train_one_applies_the_confidence_rule_once_per_epoch(monkeypatch):
    # uus_rate and inclusion_rate come from one pass over each epoch's log
    calls = []
    real = analysis.confidence_roles

    def counting(conf, tau):
        calls.append(len(conf))
        return real(conf, tau)

    monkeypatch.setattr(analysis, "confidence_roles", counting)
    cfg = small_config(epochs=3)
    record = train_one(cfg, target=0, seed=0)
    assert len(calls) == cfg.epochs
    assert all(0.0 <= rec.uus_rate <= 1.0 for rec in record.epochs)


def test_train_one_rejects_a_benchmark_of_another_config():
    cfg = small_config()
    other = generate_benchmark(replace(cfg.benchmark, master_seed=cfg.benchmark.master_seed + 1))
    with pytest.raises(ConfigError, match="another config"):
        train_one(cfg, target=0, seed=0, benchmark=other)


def test_epoch_records_cover_schedule():
    cfg = small_config(epochs=3)
    record = train_one(cfg, target=0, seed=0)
    assert [r.epoch for r in record.epochs] == [1, 2, 3]
    assert record.run_id == "fixmatch+upcsc-t0-s0"
    assert record.final_accuracy == record.epochs[-1].target_accuracy
    for rec in record.epochs:
        assert np.isfinite(rec.l_total)
        assert 0.0 <= rec.uus_rate <= 1.0
        assert 0.0 <= rec.target_accuracy <= 1.0


def test_supervised_only_learns_separable_benchmark():
    easy = BenchmarkConfig(num_domains=3, num_classes=3, latent_dim=8,
                           samples_per_class_per_domain=40, labels_per_class=12,
                           class_separation=8.0, noise_sigma=0.3,
                           rotation_max_angle=0.05, scale_log_range=0.02,
                           shift_sigma=0.05, master_seed=4)
    cfg = TrainConfig(benchmark=easy, hidden_dims=(), feature_dim=6, method="supervised-only",
                      tau=0.6, epochs=5, steps_per_epoch=10,
                      labeled_per_domain=8, unlabeled_per_domain=4, seeds=(0,))
    record = train_one(cfg, target=0, seed=0)
    assert record.final_accuracy > 0.9
    assert all(r.l_unsup == 0.0 and r.l_upc == 0.0 and r.l_sc == 0.0
               for r in record.epochs)


def test_duplicate_seeds_are_a_config_error():
    # a repeated seed would write two rows with one run_id and count the run twice
    with pytest.raises(ConfigError, match="'seeds' must be one or more distinct seeds"):
        build_train_config({"seeds": "1,1"})
    with pytest.raises(ConfigError, match="'seeds' must be one or more distinct seeds"):
        small_config(seeds=(0, 1, 0))


def test_run_protocol_order_and_coverage():
    cfg = small_config(seeds=(0, 1), epochs=1, steps_per_epoch=2)
    result = run_protocol(cfg)
    expect = [(t, s) for t in range(3) for s in (0, 1)]
    assert [(r.target, r.seed) for r in result.runs] == expect
    assert set(final_accuracies(result)) == set(expect)
    assert 0.0 <= result.mean_accuracy() <= 1.0


def test_run_protocol_parallel_matches_serial():
    cfg = small_config(seeds=(0,), epochs=1, steps_per_epoch=2)
    serial = run_protocol(cfg, jobs=1)
    parallel = run_protocol(cfg, jobs=2)
    assert final_accuracies(serial) == final_accuracies(parallel)
    for a, b in zip(serial.runs, parallel.runs):
        for (name, pa), (_, pb) in zip(a.final_state.param_items(),
                                       b.final_state.param_items()):
            assert np.array_equal(pa, pb), name


def test_run_protocol_starts_at_most_one_worker_per_run(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, func, task):
            return SimpleNamespace(get=lambda: func(*task))

    monkeypatch.setattr(harness, "multiprocessing", SimpleNamespace(Pool=RecordingPool))
    monkeypatch.setattr(harness, "train_one", lambda config, target, seed: (target, seed))
    result = run_protocol(small_config(seeds=(0, 1)), jobs=64)
    assert started == [6]
    assert result.runs == [(t, s) for t in range(3) for s in (0, 1)]
    run_protocol(small_config(seeds=(0, 1)), jobs=4)
    assert started == [6, 4]


def test_run_protocol_rejects_nonpositive_jobs():
    cfg = small_config(seeds=(0,), epochs=1, steps_per_epoch=2)
    for jobs in (0, -2):
        with pytest.raises(ConfigError):
            run_protocol(cfg, jobs=jobs)


def test_paired_deltas():
    cfg = small_config(seeds=(0,), epochs=1, steps_per_epoch=2)
    a = run_protocol(cfg)
    assert np.all(paired_deltas(a, a) == 0.0)
    other = run_protocol(small_config(seeds=(1,), epochs=1, steps_per_epoch=2))
    with pytest.raises(ConfigError):
        paired_deltas(a, other)


def test_metrics_csv_layout(tmp_path):
    cfg = small_config(seeds=(0,), epochs=2)
    result = run_protocol(cfg)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "run_id,target_domain,seed,epoch,metric,value"
    assert len(lines) - 1 == len(result.runs) * cfg.epochs * len(EPOCH_METRICS)
    first = lines[1].split(",")
    assert first[0] == "fixmatch+upcsc-t0-s0"
    # one row per EpochRecord field after epoch, in field order
    assert EPOCH_METRICS == ("l_sup", "l_unsup", "l_upc", "l_sc", "l_total",
                             "source_unlabeled_accuracy", "uus_rate", "inclusion_rate",
                             "target_accuracy")
    rec = result.runs[0].epochs[0]
    assert [line.split(",")[4] for line in lines[1:10]] == list(EPOCH_METRICS)
    assert [float(line.split(",")[5]) for line in lines[1:10]] == \
        pytest.approx([getattr(rec, m) for m in EPOCH_METRICS], nan_ok=True)
    for line in lines[1:]:
        float(line.split(",")[5])  # parses, nan included


def test_results_csv_layout(tmp_path):
    cfg = small_config(seeds=(0,), epochs=1, steps_per_epoch=2)
    result = run_protocol(cfg)
    path = tmp_path / "results.csv"
    write_results_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "method,target,seed,final_accuracy"
    assert len(lines) - 1 == len(result.runs)
    row = lines[1].split(",")
    assert row[0] == "fixmatch+upcsc"
    assert float(row[3]) == result.runs[0].final_accuracy


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "tau = 0.9   # trailing comment\n"
        "epochs = 4\n"
        "\n"
        "seeds = 0, 1, 2\n")
    assert parse_config_file(path) == {"tau": "0.9", "epochs": "4", "seeds": "0, 1, 2"}


def test_parse_config_file_rejects_malformed(tmp_path):
    for body in ("tau 0.9\n", "tau =\n", "tau = 0.9\ntau = 0.8\n", "= 0.9\n"):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError):
            parse_config_file(path)


def test_build_train_config_conversions():
    cfg = build_train_config({
        "num_classes": "4", "latent_dim": "8", "num_domains": "3",
        "samples_per_class_per_domain": "40", "labels_per_class": "4",
        "tau": "0.6", "epochs": "2", "seeds": "0,1",
        "hidden_dims": "12", "feature_dim": "6", "method": "fixmatch",
        "lr_backbone": "1e-3",
    })
    assert cfg.benchmark.num_classes == 4
    assert cfg.dims.num_classes == 4          # head follows the benchmark
    assert cfg.dims.input_dim == 8            # input follows latent_dim
    assert cfg.dims.hidden_dims == (12,)
    assert cfg.tau == 0.6 and cfg.epochs == 2
    assert cfg.seeds == (0, 1)
    assert cfg.method == "fixmatch"
    assert cfg.lr_backbone == 0.001


def test_build_train_config_converts_by_field_type():
    # a value's type comes from its field, not from how the string looks
    for key, raw in (("epochs", "1e0"), ("samples_per_class_per_domain", "1e2"),
                     ("master_seed", "2.5"), ("feature_dim", "6.0"), ("seeds", "0, 1.5")):
        with pytest.raises(ConfigError, match=key):
            build_train_config({key: raw})
    for raw in ("nan", "inf"):
        with pytest.raises(ConfigError, match="lr_backbone"):
            build_train_config({"lr_backbone": raw})
    cfg = build_train_config({"lr_backbone": "1", "sigma_weak": "0", "tau": "0.9"})
    assert cfg.lr_backbone == 1.0 and type(cfg.lr_backbone) is float
    assert cfg.benchmark.sigma_weak == 0.0 and type(cfg.benchmark.sigma_weak) is float


def test_dataclasses_replace_revalidates_the_config():
    # dataclasses.replace re-runs validation, so overrides cannot skip it
    cfg = small_config()
    out = replace(cfg, method="fixmatch", tau=0.7)
    assert out.method == "fixmatch" and out.tau == 0.7
    assert out.benchmark == cfg.benchmark
    with pytest.raises(ConfigError):
        replace(cfg, tau=0.2)


def test_method_table_flags():
    assert METHODS["supervised-only"].unsup is False
    assert METHODS["fixmatch"].unsup and not METHODS["fixmatch"].upc
    assert METHODS["fixmatch+upc"].upc and not METHODS["fixmatch+upc"].sc
    assert METHODS["fixmatch+sc"].sc and not METHODS["fixmatch+sc"].upc
    assert METHODS["fixmatch+upcsc"].upc and METHODS["fixmatch+upcsc"].sc
