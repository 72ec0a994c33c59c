"""End-to-end command-line flows with a shrunken config."""

import multiprocessing
import os
import threading
import time

import pytest

from oracles import SRC, run_python, skip
from upcsc import analysis, cli, harness, model, synthdata
from upcsc.cli import main

SMALL_CFG = """\
# desk-size setup for fast CLI runs
num_domains = 3
num_classes = 4
latent_dim = 8
samples_per_class_per_domain = 40
labels_per_class = 4
master_seed = 3
hidden_dims = 16
feature_dim = 6
tau = 0.6
epochs = 2
steps_per_epoch = 3
labeled_per_domain = 4
unlabeled_per_domain = 6
seeds = 0
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def test_train_writes_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--config", cfg_path, "--target", "1", "--out", str(out)])
    assert code == 0
    assert "final target accuracy" in capsys.readouterr().out
    for name in ("model.bin", "metrics.csv", "confidences.csv"):
        assert (out / name).exists(), name
    assert (out / "benchmark" / "domain0_labeled.csv").exists()
    assert (out / "benchmark" / "domain2_unlabeled_truth.csv").exists()


def test_train_generates_the_benchmark_once(cfg_path, tmp_path, monkeypatch):
    calls = []

    def counting(config, original=synthdata.generate_benchmark):
        calls.append(config)
        return original(config)

    for module in (cli, harness):
        monkeypatch.setattr(module, "generate_benchmark", counting)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    assert len(calls) == 1
    # the exported benchmark is the one a fresh generation gives
    fresh = tmp_path / "fresh"
    synthdata.export_benchmark(synthdata.generate_benchmark(calls[0]), fresh)
    for path in fresh.iterdir():
        assert (out / "benchmark" / path.name).read_bytes() == path.read_bytes(), path.name


def test_train_writes_the_confidences_of_its_epoch_logs(cfg_path, tmp_path):
    # the writer process formats epoch by epoch; the file is the one for the
    # whole log
    cfg = tmp_path / "three.cfg"
    cfg.write_text(SMALL_CFG.replace("epochs = 2", "epochs = 3"))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--target", "1", "--out", str(out)]) == 0
    config = harness.build_train_config(harness.parse_config_file(cfg))
    logs = []
    harness.train_one(config, target=1, seed=0, on_epoch=logs.append)
    assert len(logs) == 3
    whole = tmp_path / "whole.csv"
    analysis.write_confidences_csv([analysis.ConfidenceLog.concatenate(logs)], whole)
    written = (out / "confidences.csv").read_bytes()
    assert written == whole.read_bytes()
    # and the last epoch's rows are the saved model's scores of both source pools
    state = model.load_model(out / "model.bin")
    last = analysis.log_source_confidences(
        synthdata.generate_benchmark(config.benchmark), [0, 2],
        lambda x: model.class_confidence(state, model.featurize(state, x)), epoch=3)
    analysis.write_confidences_csv([last], tmp_path / "last.csv")
    last_rows = (tmp_path / "last.csv").read_text().splitlines()[1:]
    assert [row for row in written.decode().splitlines() if row.startswith("3,")] == last_rows


def _leftovers(root):
    """Temp files and staging directories anywhere under root."""
    return [p for p in root.rglob("*") if p.name.endswith((".tmp", ".staging"))]


def test_train_leaves_no_writer_process_temp_file_or_staging(cfg_path, tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 0
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run", "small.cfg"]
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(DIVERGING_CFG)
    assert main(["train", "--config", str(diverging), "--out", str(tmp_path / "gone")]) == 1
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverge.cfg", "run", "small.cfg"]


def test_train_into_missing_parents_leaves_none_on_failure(tmp_path):
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(DIVERGING_CFG)
    assert main(["train", "--config", str(diverging), "--out", str(tmp_path / "a" / "b")]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverge.cfg"]


def test_writer_error_exits_1_and_keeps_the_old_outputs(cfg_path, tmp_path, monkeypatch, capsys):
    def failing(*args):
        raise OSError("disk full while formatting")

    # the writer is forked, so it inherits the patch
    monkeypatch.setattr(analysis, "format_rows", failing)
    out = tmp_path / "run"
    (out / "benchmark").mkdir(parents=True)
    old = {"model.bin": b"old model", "confidences.csv": b"old log\r\n",
           "benchmark/domain0_test.csv": b"old data\r\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full while formatting\n"
    assert {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()} == old
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []


def test_writer_error_on_the_last_epoch_surfaces_at_the_end(cfg_path, tmp_path, monkeypatch,
                                                            capsys):
    real = analysis.format_rows

    def failing_on_epoch_2(row_format, epochs, *columns):
        if epochs[0] == 2:
            raise OSError("disk full at epoch 2")
        return real(row_format, epochs, *columns)

    monkeypatch.setattr(analysis, "format_rows", failing_on_epoch_2)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full at epoch 2\n"
    assert not out.exists()
    assert _leftovers(tmp_path) == []


def test_writer_error_stops_training_at_the_next_epoch(cfg_path, tmp_path, monkeypatch, capsys):
    def failing(*args):
        raise OSError("cannot export")

    epochs_scored = []
    real = analysis.log_source_confidences

    def slow_first_epoch(*args):
        # time enough for the writer to fail before epoch 1 is handed over
        if not epochs_scored:
            time.sleep(0.5)
        epochs_scored.append(args[-1])
        return real(*args)

    monkeypatch.setattr(cli, "export_benchmark", failing)
    monkeypatch.setattr(analysis, "log_source_confidences", slow_first_epoch)
    cfg = tmp_path / "five.cfg"
    cfg.write_text(SMALL_CFG.replace("epochs = 2", "epochs = 5"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: cannot export\n"
    assert epochs_scored == [1]


def test_writer_that_dies_without_a_word_exits_1(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "export_benchmark", lambda *args: os._exit(3))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: writer process exited with code 3\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []


# default pools, so each epoch's log (about 655 KB) overflows any pipe buffer
THREE_SHORT_EPOCHS = "epochs = 3\nsteps_per_epoch = 1\n"


def _gate_the_writer(monkeypatch, gate, then):
    """Make the forked writer wait, instead of exporting, until the gate file
    exists and then call `then`; the parent makes the gate in save_model,
    after training has ended."""
    real_save = cli.save_model

    def gated(*args):
        deadline = time.monotonic() + 30.0
        while not gate.exists():
            if time.monotonic() > deadline:
                raise TimeoutError("training waited on the writer")
            time.sleep(0.01)
        return then(*args)

    def opening_save(*args):
        gate.touch()
        return real_save(*args)

    monkeypatch.setattr(cli, "export_benchmark", gated)   # forked into the writer
    monkeypatch.setattr(cli, "save_model", opening_save)


def test_training_never_waits_on_the_writer(tmp_path, monkeypatch):
    # a parent that blocked on handing over a log would wait for the gate's timeout
    _gate_the_writer(monkeypatch, tmp_path / "gate", cli.export_benchmark)
    real_train = cli.train_one
    threads = []

    def counting_train(*args, on_epoch):
        def counted(log):
            threads.append(threading.active_count())
            on_epoch(log)
        return real_train(*args, on_epoch=counted)

    monkeypatch.setattr(cli, "train_one", counting_train)
    cfg = tmp_path / "three.cfg"
    cfg.write_text(THREE_SHORT_EPOCHS)
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert threads == [1, 1, 1]
    assert (tmp_path / "run" / "confidences.csv").exists()


def test_writer_that_dies_with_logs_unread_exits_1(cfg_path, tmp_path, monkeypatch, capsys):
    # every epoch's notice is on the channel before the writer dies unread
    _gate_the_writer(monkeypatch, tmp_path / "gate", lambda *args: os._exit(3))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: writer process exited with code 3\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []


def test_train_leaks_no_file_descriptor(cfg_path, tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        skip("no /proc/self/fd to count open descriptors in")
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(DIVERGING_CFG)
    for cfg, code in ((cfg_path, 0), (str(diverging), 1)):
        before = sorted(os.listdir("/proc/self/fd"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == code
        assert sorted(os.listdir("/proc/self/fd")) == before, cfg


def test_protocol_writes_results(cfg_path, tmp_path, capsys):
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    for jobs, out in (("1", serial), ("2", pooled)):
        code = main(["protocol", "--config", cfg_path, "--jobs", jobs, "--out", str(out)])
        assert code == 0
        assert "mean final accuracy" in capsys.readouterr().out
    lines = (serial / "results.csv").read_text().strip().split("\n")
    assert lines[0] == "method,target,seed,final_accuracy"
    assert len(lines) - 1 == 3  # 3 targets x 1 seed
    # two workers write the serial bytes
    for name in ("results.csv", "metrics.csv"):
        assert (pooled / name).read_bytes() == (serial / name).read_bytes(), name


def test_protocol_seed_flag_runs_only_that_seed(cfg_path, tmp_path):
    out = tmp_path / "proto"
    assert main(["protocol", "--config", cfg_path, "--seed", "2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert [(target, seed) for _, target, seed, _ in rows] == [("0", "2"), ("1", "2"), ("2", "2")]


def test_protocol_repeat_is_byte_identical(cfg_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["protocol", "--config", cfg_path, "--out", str(out_a)]) == 0
    assert main(["protocol", "--config", cfg_path, "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_stats_flow_reads_train_output(cfg_path, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    capsys.readouterr()
    stats_out = tmp_path / "stats"
    code = main(["stats",
                 "--confidences", str(run_out / "confidences.csv"),
                 "--truth-dir", str(run_out / "benchmark"),
                 "--tau", "0.6", "--out", str(stats_out)])
    assert code == 0
    assert "histogram.csv" in capsys.readouterr().out
    stats_lines = (stats_out / "stats.csv").read_text().strip().split("\n")
    assert stats_lines[0] == "statistic,epoch,domain,value"
    hist_lines = (stats_out / "histogram.csv").read_text().strip().split("\n")
    assert hist_lines[0] == "set_size,count"


def test_stats_at_the_runs_tau_reproduces_its_rates(cfg_path, tmp_path):
    # metrics.csv's uus_rate and inclusion_rate of each epoch are the micro
    # rates stats computes from confidences.csv, to the last digit
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    assert main(["stats", "--config", cfg_path, "--confidences", str(run_out / "confidences.csv"),
                 "--truth-dir", str(run_out / "benchmark"), "--out", str(run_out)]) == 0

    def rows(name):
        return [line.split(",") for line in (run_out / name).read_text().splitlines()[1:]]

    run = {(epoch, metric): value for _, _, _, epoch, metric, value in rows("metrics.csv")
           if metric in ("uus_rate", "inclusion_rate")}
    stats = {(epoch, statistic.removesuffix("_micro")): value
             for statistic, epoch, _, value in rows("stats.csv") if statistic.endswith("_micro")}
    assert len(run) == 2 * 2 and stats == run


def test_stats_epoch_flag(cfg_path, tmp_path):
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    stats_out = tmp_path / "stats"
    code = main(["stats", "--confidences", str(run_out / "confidences.csv"),
                 "--truth-dir", str(run_out / "benchmark"),
                 "--tau", "0.6", "--epoch", "1", "--out", str(stats_out)])
    assert code == 0


def test_stats_epoch_outside_the_log_exits_2_before_writing(cfg_path, tmp_path, capsys):
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    capsys.readouterr()
    stats_out = tmp_path / "stats"
    code = main(["stats", "--confidences", str(run_out / "confidences.csv"),
                 "--truth-dir", str(run_out / "benchmark"),
                 "--epoch", "3", "--out", str(stats_out)])
    assert code == 2
    assert "epoch 3" in capsys.readouterr().err
    assert not stats_out.exists()   # no stats.csv, and not even the directory


def test_stats_reads_tau_from_the_config(cfg_path, tmp_path):
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    cfg_05 = tmp_path / "tau05.cfg"
    cfg_05.write_text(SMALL_CFG.replace("tau = 0.6", "tau = 0.5"))
    inputs = ["--confidences", str(run_out / "confidences.csv"),
              "--truth-dir", str(run_out / "benchmark")]
    outs = {}
    for name, flags in (("config", ["--config", str(cfg_05)]), ("flag", ["--tau", "0.5"]),
                        ("default", [])):
        outs[name] = tmp_path / name
        assert main(["stats", *inputs, *flags, "--out", str(outs[name])]) == 0
    for csv in ("stats.csv", "histogram.csv"):
        assert (outs["config"] / csv).read_bytes() == (outs["flag"] / csv).read_bytes(), csv
    # the default config's tau, 0.95, gives other statistics
    assert (outs["default"] / "stats.csv").read_bytes() != (outs["flag"] / "stats.csv").read_bytes()


@pytest.mark.parametrize("argv", [["gradcheck", "--tau", "0.3"],
                                  ["stats", "--confidences", "c.csv", "--truth-dir", ".",
                                   "--method", "fixmatch"],
                                  ["gen-data", "--seed", "7"]])
def test_flag_the_command_does_not_read_exits_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--draws", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok") == 5


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_gradcheck_without_draws_exits_2(draws, capsys):
    # no draw checks nothing, so it must not print five ok lines
    assert main(["gradcheck", "--draws", draws]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out and "draws must be >= 1" in captured.err


def test_gradcheck_with_a_negative_seed_exits_2(capsys):
    assert main(["gradcheck", "--seed", "-1", "--draws", "1"]) == 2
    captured = capsys.readouterr()
    assert "ok" not in captured.out and "error: seed must be nonnegative" in captured.err


def test_gen_data_exports(cfg_path, tmp_path, capsys):
    out = tmp_path / "data"
    code = main(["gen-data", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    assert "3 domains" in capsys.readouterr().out
    for d in range(3):
        for kind in ("labeled", "unlabeled", "unlabeled_truth", "test"):
            assert (out / f"domain{d}_{kind}.csv").exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_the_labels_per_class_flag_overrides_the_config(cfg_path, tmp_path, command):
    # SMALL_CFG has labels_per_class = 4 and num_classes = 4
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--labels-per-class", "2", "--out", str(out)]) == 0
    data = out / "benchmark" if command == "train" else out
    for d in range(3):
        lines = (data / f"domain{d}_labeled.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 4, d


@pytest.mark.parametrize("value", ["0", "16"])   # 16: 40 samples less 8 test ones are 2 * 16
@pytest.mark.parametrize("command", ["train", "protocol", "gen-data"])
def test_an_out_of_range_labels_per_class_flag_exits_2_naming_it(cfg_path, tmp_path, monkeypatch,
                                                                  capsys, command, value):
    calls = _record_work(monkeypatch)
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--labels-per-class", value,
                 "--out", str(out)]) == 2
    assert "'labels_per_class'" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["small.cfg"]


@pytest.mark.parametrize("command", [["gen-data"], ["train"], ["protocol", "--jobs", "2"]],
                         ids=["gen-data", "train", "protocol"])
def test_data_that_overflow_exit_2_naming_the_scale_keys_and_write_nothing(tmp_path, capsys,
                                                                          command):
    # exp(800) is inf: the data were written as inf and nan, and train blamed step 0
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("scale_log_range = 800\n")
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    for key in ("class_separation", "scale_log_range", "shift_sigma", "noise_sigma"):
        assert f"'{key}'" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.cfg"]


# every command that takes --out, with the flags it needs besides --config
OUT_COMMANDS = [("train", []), ("protocol", ["--jobs", "2"]), ("gen-data", []),
                ("stats", ["--confidences", "missing.csv", "--truth-dir", "missing"])]


def _record_work(monkeypatch) -> list:
    """The names of the work functions a command calls, none of which runs."""
    calls = []
    for owner, name in ((cli, "generate_benchmark"), (cli, "run_protocol"),
                        (analysis, "load_confidence_log")):
        monkeypatch.setattr(owner, name, lambda *args, name=name, **kw: calls.append(name))
    return calls


@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("command, flags", OUT_COMMANDS)
def test_an_out_that_is_not_a_directory_exits_2_before_any_work(cfg_path, tmp_path, monkeypatch,
                                                                capsys, command, flags, below):
    calls = _record_work(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if below else blocker
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --out: {blocker} is not a directory" in capsys.readouterr().err
    assert calls == []
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "small.cfg"]


@pytest.mark.parametrize("command, flags", OUT_COMMANDS)
def test_an_empty_out_exits_2_before_any_work(cfg_path, tmp_path, monkeypatch, capsys, command,
                                              flags):
    # "" was read as the working directory: train wrote its outputs there, and
    # protocol and gen-data did all their work before failing with exit 1
    calls = _record_work(monkeypatch)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg_path, *flags, "--out", ""])
    assert exc.value.code == 2
    assert "argument --out: an empty path is not a directory" in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.cfg"]


@pytest.mark.parametrize("line", [
    "num_domains = 1", "num_classes = 1", "latent_dim = 0", "labels_per_class = 0",
    "labeled_per_domain = 0", "unlabeled_per_domain = 0", "hidden_dims = 0", "feature_dim = 0",
    "epochs = 0", "steps_per_epoch = 0", "lr_backbone = 0", "strong_dropout = 1",
    "shift_sigma = -1", "master_seed = -3", "seeds = -2", "tau = 0.1"])
def test_an_out_of_range_value_exits_2_naming_its_key_before_any_work(tmp_path, monkeypatch,
                                                                      capsys, line):
    # the first six used to name no key, and feature_dim's named input_dim
    calls = _record_work(monkeypatch)
    path = tmp_path / "bad.cfg"
    path.write_text(line + "\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: '{line.split(' = ')[0]}'" in err and "input_dim" not in err
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_duplicate_seeds_in_a_config_exit_2_and_write_nothing(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    for seeds in ("0, 0", "0,0"):
        path.write_text(SMALL_CFG.replace("seeds = 0\n", f"seeds = {seeds}\n"))
        code = main(["protocol", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: 'seeds' must be one or more distinct seeds" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["dup.cfg"]


def test_unknown_flag_exits_2(cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", cfg_path, "--frobnicate"])
    assert exc.value.code == 2


def test_bad_method_choice_exits_2(cfg_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", cfg_path, "--method", "madeup"])
    assert exc.value.code == 2


def test_config_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_real_key = 5\n")
    code = main(["train", "--config", str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epochs = 1e0", "samples_per_class_per_domain = 1e2",
                                  "master_seed = 2.5"])
def test_non_integer_for_an_int_key_exits_2(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    body = [line if row.startswith(key + " ") else row for row in SMALL_CFG.splitlines()]
    assert line in body
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(body) + "\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("train", "seed"), ("protocol", "seeds")])
def test_a_negative_seed_flag_exits_2_and_writes_nothing(cfg_path, tmp_path, monkeypatch, capsys,
                                                         command, key):
    # train's seed was train_one's check alone, reached after the benchmark
    # was generated, the staging directory made and the writer forked
    calls = _record_work(monkeypatch)
    out = tmp_path / "neg"
    code = main([command, "--config", cfg_path, "--seed", "-1", "--out", str(out)])
    assert code == 2
    # train's --seed is train_one's argument; protocol's replaces the config key
    message = {"seed": "seed must be nonnegative, got -1",
               "seeds": "'seeds' must be comma-separated integers >= 0"}[key]
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["small.cfg"]


@pytest.mark.parametrize("target", ["9", "-1"])
def test_a_target_outside_the_domains_exits_2_before_any_work(cfg_path, tmp_path, monkeypatch,
                                                              capsys, target):
    # like a negative seed, this was train_one's check alone
    calls = _record_work(monkeypatch)
    out = tmp_path / "out"
    assert main(["train", "--config", cfg_path, "--target", target, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: target domain {target} outside 0..2\n"
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["small.cfg"]


@pytest.mark.parametrize("line", ["seeds = -2", "master_seed = -3"])
def test_a_negative_seed_key_exits_2_and_writes_nothing(tmp_path, capsys, line):
    key = line.split(" = ")[0]
    body = [line if row.startswith(key + " ") else row for row in SMALL_CFG.splitlines()]
    assert line in body
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join(body) + "\n")
    code = main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {key!r} must be " in err and " >= 0, got " in err
    assert not (tmp_path / "out").exists()


def test_invalid_tau_exits_2(cfg_path, capsys):
    code = main(["train", "--config", cfg_path, "--tau", "1.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_protocol_nonpositive_jobs_exits_2(cfg_path, tmp_path, capsys):
    for jobs in ("0", "-1"):
        code = main(["protocol", "--config", cfg_path, "--jobs", jobs,
                     "--out", str(tmp_path / "proto")])
        assert code == 2
        assert "jobs" in capsys.readouterr().err
    assert not (tmp_path / "proto").exists()


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main(["stats", "--confidences", str(tmp_path / "nope.csv"),
                 "--truth-dir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_stats_on_a_nan_confidence_exits_1(tmp_path, capsys):
    # a nan row has no top score; the confidence rule would count it as
    # unconfident with no candidate, so the log rejects it instead
    (tmp_path / "domain0_unlabeled_truth.csv").write_text("label\n0\n1\n0\n")
    (tmp_path / "confidences.csv").write_text(
        "epoch,domain,sample_index,c_0,c_1\n"
        "1,0,0,0.99,0.01\n1,0,1,0.6,0.4\n1,0,2,nan,nan\n")
    code = main(["stats", "--confidences", str(tmp_path / "confidences.csv"),
                 "--truth-dir", str(tmp_path), "--out", str(tmp_path / "stats")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
    assert not (tmp_path / "stats").exists()


DIVERGING_CFG = "lr_backbone = 50.0\nlr_classifier = 50.0\nepochs = 1\nsteps_per_epoch = 10\n"


def test_diverging_train_exits_1_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(DIVERGING_CFG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert ("error: fixmatch+upcsc-t0-s0: l_total 1.36e+06 at step 1 is 1.26e+05 times step 0's "
            "10.8\n") == capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["diverge.cfg"]


# one latent axis: a projected row can be all zeros, which l2-normalization refuses
DEGENERATE_CFG = "latent_dim = 1\nepochs = 1\nsteps_per_epoch = 2\n"


@pytest.mark.parametrize("command", [["train"], ["protocol", "--jobs", "2"]])
def test_a_degenerate_projection_names_its_run_and_step(tmp_path, capsys, command):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text(DEGENERATE_CFG)
    out = tmp_path / "out"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "fixmatch+upcsc-t0-s0" in err and "step 0" in err, err
    assert [p.name for p in tmp_path.iterdir()] == ["degenerate.cfg"]


# at these rates step 1's forward overflows, so numpy warns on the way to
# the non-finite check; DIVERGING_CFG stops at the finite growth bound first
OVERFLOWING_CFG = "lr_backbone = 1e150\nlr_classifier = 1e150\nepochs = 1\nsteps_per_epoch = 10\n"


def test_diverging_train_prints_one_error_line_and_no_warnings(tmp_path):
    # numpy's overflow and invalid-value warnings must not precede the error
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(OVERFLOWING_CFG)
    proc = run_python("-m", "upcsc.cli", "train", "--config", str(cfg),
                      "--out", str(tmp_path / "out"), expect=1)
    assert "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "non-finite l_sup at step 1" in lines[0]


def test_the_console_script_runs_main_and_exits_with_its_code(cfg_path, tmp_path):
    # [project.scripts] is read as text, since Python 3.10 has no tomllib
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["upcsc", "=", '"upcsc.cli:main"']
    # the body of the script that installing the package writes for that entry
    shim = "import sys; from upcsc.cli import main; sys.exit(main())"
    data = tmp_path / "data"
    run_python("-c", shim, "gen-data", "--config", cfg_path, "--out", str(data), expect=0)
    assert (data / "domain2_test.csv").exists()
    missing = run_python("-c", shim, "stats", "--confidences", str(tmp_path / "missing.csv"),
                         "--truth-dir", str(data), "--out", str(tmp_path / "stats"), expect=1)
    assert missing.stderr.startswith("error: ")
    negative = run_python("-c", shim, "train", "--config", cfg_path, "--seed", "-1",
                          "--out", str(tmp_path / "run"), expect=2)
    assert negative.stderr == "error: seed must be nonnegative, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "small.cfg"]


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--truth-dir", "somewhere"])
    assert exc.value.code == 2
