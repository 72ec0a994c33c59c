"""End-to-end command-line flows with a shrunken config."""

import multiprocessing
import os
import re
import threading
import time

import pytest

from oracles import DESK_CONFIG, SRC, config_text, run_python, skip
from upcsc import analysis, cli, harness, model, synthdata
from upcsc.analysis import load_confidence_log
from upcsc.cli import main
from upcsc.errors import DataError

SMALL_CFG = config_text({**DESK_CONFIG, "hidden_dims": 16, "epochs": 2, "steps_per_epoch": 3,
                         "seeds": 0})


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
    # the run and the truth sidecars stats joins; gen-data exports the data
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert written == sorted(["model.bin", "metrics.csv", "confidences.csv",
                              *(f"benchmark/domain{d}_unlabeled_truth.csv" for d in range(3))])


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
    # the truth sidecars are the ones a fresh generation gives
    fresh = tmp_path / "fresh"
    synthdata.export_truth(synthdata.generate_benchmark(calls[0]), fresh)
    assert _listing(out / "benchmark") == _listing(fresh)


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
           "benchmark/domain0_unlabeled_truth.csv": b"label\r\n9\r\n"}
    for name, data in old.items():
        (out / name).write_bytes(data)
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: disk full while formatting\n"
    assert {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()} == old
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("blocker, is_dir", [("benchmark", False),
                                             ("benchmark/domain0_unlabeled_truth.csv", True)])
def test_a_blocked_destination_exits_1_and_moves_nothing(cfg_path, tmp_path, capsys, blocker,
                                                         is_dir):
    # a file where the run puts a directory, or a directory where it puts a
    # file; the top-level files would move before the blocked one is reached
    out = tmp_path / "run"
    (out / blocker).parent.mkdir(parents=True, exist_ok=True)
    old = {"model.bin": b"old model", "metrics.csv": b"old metrics\r\n"}
    if is_dir:
        (out / blocker).mkdir()
    else:
        old[blocker] = b"not a directory\n"
    for name, data in old.items():
        (out / name).write_bytes(data)
    paths = sorted(p.relative_to(out).as_posix() for p in out.rglob("*"))
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / blocker) in err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == paths
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
        raise OSError("cannot write")

    epochs_scored = []
    real = analysis.log_source_confidences

    def slow_first_epoch(*args):
        # time enough for the writer to fail before epoch 1 is handed over
        if not epochs_scored:
            time.sleep(0.5)
        epochs_scored.append(args[-1])
        return real(*args)

    monkeypatch.setattr(analysis, "write_confidences_csv", failing)   # forked into the writer
    monkeypatch.setattr(analysis, "log_source_confidences", slow_first_epoch)
    cfg = tmp_path / "five.cfg"
    cfg.write_text(SMALL_CFG.replace("epochs = 2", "epochs = 5"))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "error: cannot write\n"
    assert epochs_scored == [1]


def test_writer_that_dies_without_a_word_exits_1(cfg_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(analysis, "write_confidences_csv", lambda *args: os._exit(3))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: writer process exited with code 3\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []
    assert _leftovers(tmp_path) == []


# default pools, so each epoch's log (about 655 KB) overflows any pipe buffer
THREE_SHORT_EPOCHS = "epochs = 3\nsteps_per_epoch = 1\n"


def _gate_the_writer(monkeypatch, gate, then):
    """Make the forked writer wait, before it reads any log, until the gate
    file exists, and then call `then` in place of write_confidences_csv; the
    parent makes the gate in save_model, after training has ended."""
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

    monkeypatch.setattr(analysis, "write_confidences_csv", gated)   # forked into the writer
    monkeypatch.setattr(cli, "save_model", opening_save)


def test_training_never_waits_on_the_writer(tmp_path, monkeypatch):
    # a parent that blocked on handing over a log would wait for the gate's timeout
    _gate_the_writer(monkeypatch, tmp_path / "gate", analysis.write_confidences_csv)
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


def test_stats_holds_tau_to_the_logs_class_count_not_the_configs(tmp_path, monkeypatch):
    # 0.12 lies above a 10-class log's 1/10, though below the default config's 1/7
    monkeypatch.chdir(tmp_path)
    header = ",".join(["epoch,domain,sample_index", *(f"c_{i}" for i in range(10))])
    scores = ("0.91" + ",0.01" * 9, "0.11,0.11" + ",0.0975" * 8)
    (tmp_path / "conf.csv").write_text(
        header + "\n" + "".join(f"1,0,{i},{row}\n" for i, row in enumerate(scores)))
    (tmp_path / "domain0_unlabeled_truth.csv").write_text("label\n0\n1\n")
    (tmp_path / "ten.cfg").write_text("num_classes = 10\n")
    argv = ["stats", "--confidences", "conf.csv", "--truth-dir", ".", "--tau", "0.12"]
    assert main([*argv, "--out", "default"]) == 0
    assert main([*argv, "--config", "ten.cfg", "--out", "ten"]) == 0
    assert "uus_rate_micro,1,-1,0.5" in (tmp_path / "default" / "stats.csv").read_text()
    for csv in ("stats.csv", "histogram.csv"):
        assert (tmp_path / "default" / csv).read_bytes() == (tmp_path / "ten" / csv).read_bytes()


def test_gradcheck_passes(capsys):
    code = main(["gradcheck", "--draws", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok") == 5


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
    # SMALL_CFG has labels_per_class = 4, num_classes = 4 and 40 samples per
    # class, 8 of them test ones: 2 labels leave 30 unlabeled per class, not 28
    out = tmp_path / "out"
    assert main([command, "--config", cfg_path, "--labels-per-class", "2", "--out", str(out)]) == 0
    data = out / "benchmark" if command == "train" else out
    for d in range(3):
        lines = (data / f"domain{d}_unlabeled_truth.csv").read_text().splitlines()
        assert len(lines) == 1 + 30 * 4, d


# ------------------------------------------------------------ rejected input
#
# Every input the CLI rejects is one row of a table below, and a new rule is a
# new row. A row holds an argv, the files it needs in an empty working
# directory, and the last line the command prints to stderr. In a line,
# "{dir}" is that directory and "…" stands for text that numpy, argparse or
# the OS writes. The rows of one exit code share one test body. A rule that is
# checked on many inputs has its rows in a group, under a test of its own; the
# other rows are the exit code's table.

def _record_work(monkeypatch, reaches) -> list:
    """The names of the work functions a command calls. Each is stubbed out
    except `reaches`, the one whose own check the row is about, which runs."""
    calls = []
    for owner, name in ((cli, "generate_benchmark"), (cli, "run_protocol"),
                        (analysis, "load_confidence_log")):
        real = getattr(owner, name) if name == reaches else (lambda *args, **kw: None)

        def recorded(*args, name=name, real=real, **kw):
            calls.append(name)
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, recorded)
    return calls


def _listing(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _rejected(tmp_path, monkeypatch, capsys, argv, files, line, reaches, code) -> str:
    """Run main on argv in tmp_path holding small.cfg and `files`, and check
    that it exits with `code`, prints nothing on stdout and `line` last on
    stderr, calls no work function but `reaches`, and leaves the directory as
    it was. Returns the stderr line."""
    for name, data in {"small.cfg": SMALL_CFG, **files}.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    monkeypatch.chdir(tmp_path)
    calls = _record_work(monkeypatch, reaches)
    before = _listing(tmp_path)
    try:
        got = main(argv)
    except SystemExit as exc:   # argparse's usage errors
        got = exc.code
    out, err = capsys.readouterr()
    assert (got, out) == (code, "")
    last = err.splitlines()[-1]
    pattern = ".*".join(map(re.escape, line.format(dir=os.getcwd()).split("…")))
    assert re.fullmatch(pattern, last), last
    assert calls == ([reaches] if reaches else [])
    assert _listing(tmp_path) == before
    return last


def _usage_error(id, argv, line, files={}, reaches=None):
    return pytest.param(argv, files, line, reaches, id=id)


def _bad_config(line, message, command="train"):
    return _usage_error(line, [command, "--config", "bad.cfg", "--out", "out"],
                        f"error: {message}", {"bad.cfg": line + "\n"})


TRAIN = ["train", "--config", "small.cfg"]
CONF_HEADER = "epoch,domain,sample_index,c_0,c_1\n"
# every command that takes --out, with the flags it needs besides --config
OUT_COMMANDS = {"train": [], "protocol": ["--jobs", "2"], "gen-data": [],
                "stats": ["--confidences", "missing.csv", "--truth-dir", "missing"]}


def _exits_2(rows):
    """A test that runs each (argv, files, line, reaches) row of rows."""
    @pytest.mark.parametrize("argv, files, line, reaches", rows)
    def test(tmp_path, monkeypatch, capsys, argv, files, line, reaches):
        _rejected(tmp_path, monkeypatch, capsys, argv, files, line, reaches, 2)
    return test


test_usage_and_config_errors_exit_2 = _exits_2([
    # flags a command does not read, or does not know
    _usage_error("gradcheck-tau", ["gradcheck", "--tau", "0.3"],
                 "upcsc: error: unrecognized arguments: --tau 0.3"),
    _usage_error("stats-method", ["stats", "--confidences", "c.csv", "--truth-dir", ".",
                                  "--method", "fixmatch"],
                 "upcsc: error: unrecognized arguments: --method fixmatch"),
    _usage_error("gen-data-seed", ["gen-data", "--seed", "7"],
                 "upcsc: error: unrecognized arguments: --seed 7"),
    _usage_error("unknown-flag", [*TRAIN, "--frobnicate"],
                 "upcsc: error: unrecognized arguments: --frobnicate"),
    _usage_error("unknown-method", [*TRAIN, "--method", "madeup"],
                 "upcsc train: error: argument --method: invalid choice: 'madeup' (choose from …)"),
    _usage_error("missing-confidences-flag", ["stats", "--truth-dir", "somewhere"],
                 "upcsc stats: error: the following arguments are required: --confidences"),
    # gradcheck: no draw checks nothing, so it must not print five ok lines
    _usage_error("gradcheck-draws-0", ["gradcheck", "--draws", "0"],
                 "error: draws must be >= 1, got 0"),
    _usage_error("gradcheck-draws--1", ["gradcheck", "--draws", "-1"],
                 "error: draws must be >= 1, got -1"),
    _usage_error("gradcheck-seed--1", ["gradcheck", "--seed", "-1", "--draws", "1"],
                 "error: seed must be nonnegative, got -1"),
    # config keys unknown or repeated
    _bad_config("not_a_real_key = 5", "unknown config keys: ['not_a_real_key']"),
    _bad_config("seeds = 0, 0", "'seeds' must be one or more distinct seeds, got (0, 0)",
                "protocol"),
    _bad_config("seeds = 0,0", "'seeds' must be one or more distinct seeds, got (0, 0)",
                "protocol"),
    # a config file that cannot be read, before any work
    _usage_error("config-missing", ["train", "--config", "missing.cfg", "--out", "out"],
                 "error: missing.cfg: [Errno 2] …"),
    _usage_error("config-is-a-directory", ["train", "--config", ".", "--out", "out"],
                 "error: .: [Errno 21] …"),
    # a config file is read as UTF-8, whatever the locale
    _usage_error("config-not-utf8", ["train", "--config", "bad.cfg", "--out", "out"],
                 "error: bad.cfg: 'utf-8' codec can't decode byte 0xff in position 10: "
                 "invalid start byte", {"bad.cfg": b"epochs = 2\xff\n"}),
    # SMALL_CFG has num_classes = 4
    _usage_error("tau-flag", [*TRAIN, "--tau", "1.5"],
                 "error: 'tau' must lie strictly between 1/'num_classes' = 1/4 and 1, got 1.5"),
    # train checks its seed and target before it generates the benchmark;
    # protocol's --seed replaces the config key
    _usage_error("train-seed--1", [*TRAIN, "--seed", "-1", "--out", "out"],
                 "error: seed must be nonnegative, got -1"),
    _usage_error("protocol-seed--1", ["protocol", "--config", "small.cfg", "--seed", "-1",
                                      "--out", "out"],
                 "error: 'seeds' must be comma-separated integers >= 0, got (-1,)"),
    _usage_error("target-9", [*TRAIN, "--target", "9", "--out", "out"],
                 "error: target domain 9 outside 0..2"),
    _usage_error("target--1", [*TRAIN, "--target", "-1", "--out", "out"],
                 "error: target domain -1 outside 0..2"),
    # rules that the work itself checks, before it writes anything
    *[_usage_error(f"protocol-jobs-{jobs}", ["protocol", "--config", "small.cfg", "--jobs", jobs,
                                            "--out", "out"],
                   f"error: jobs must be >= 1, got {jobs}", reaches="run_protocol")
      for jobs in ("0", "-1")],
    # stats holds tau to its log's class count, here 2, before it loads the log
    _usage_error("stats-tau-below-the-logs-1-over-c",
                 ["stats", "--confidences", "conf.csv", "--truth-dir", ".", "--tau", "0.3",
                  "--out", "stats"],
                 "error: 'tau' must lie strictly between 1/'num_classes' = 1/2 and 1, got 0.3",
                 {"conf.csv": CONF_HEADER + "1,0,0,0.6,0.4\n",
                  "domain0_unlabeled_truth.csv": "label\n1\n"}),
    _usage_error("stats-epoch-outside-the-log",
                 ["stats", "--confidences", "conf.csv", "--truth-dir", ".", "--epoch", "3",
                  "--out", "stats"],
                 "error: epoch 3 is not in conf.csv",
                 {"conf.csv": CONF_HEADER + "1,0,0,0.6,0.4\n2,0,0,0.7,0.3\n",
                  "domain0_unlabeled_truth.csv": "label\n1\n"}, "load_confidence_log"),
])

# --out is checked before any work; "" is not the working directory. An id
# counts the commands in OUT_COMMANDS' order.
test_an_out_that_is_not_a_directory_exits_2_before_any_work = _exits_2([
    _usage_error(f"{command}-flags{i}-{below}",
                 [command, "--config", "small.cfg", *flags, "--out", out],
                 f"upcsc {command}: error: argument --out: {{dir}}/file is not a directory",
                 {"file": "kept\n"})
    for i, (command, flags) in enumerate(OUT_COMMANDS.items())
    for below, out in ((False, "file"), (True, "file/sub"))])

test_an_empty_out_exits_2_before_any_work = _exits_2([
    _usage_error(f"{command}-flags{i}", [command, "--config", "small.cfg", *flags, "--out", ""],
                 f"upcsc {command}: error: argument --out: an empty path is not a directory")
    for i, (command, flags) in enumerate(OUT_COMMANDS.items())])

test_an_out_of_range_value_exits_2_naming_its_key_before_any_work = _exits_2([
    _bad_config("num_domains = 1", "'num_domains' must be an integer >= 2, got '1'"),
    _bad_config("num_classes = 1", "'num_classes' must be an integer >= 2, got '1'"),
    _bad_config("latent_dim = 0", "'latent_dim' must be an integer >= 1, got '0'"),
    _bad_config("labels_per_class = 0", "'labels_per_class' must be an integer >= 1, got '0'"),
    _bad_config("labeled_per_domain = 0",
                "'labeled_per_domain' must be an integer >= 1, got '0'"),
    _bad_config("unlabeled_per_domain = 0",
                "'unlabeled_per_domain' must be an integer >= 1, got '0'"),
    _bad_config("hidden_dims = 0",
                "'hidden_dims' must be comma-separated integers >= 1, got (0,)"),
    _bad_config("feature_dim = 0", "'feature_dim' must be an integer >= 1, got 0"),
    _bad_config("epochs = 0", "'epochs' must be an integer >= 1, got '0'"),
    _bad_config("steps_per_epoch = 0", "'steps_per_epoch' must be an integer >= 1, got '0'"),
    _bad_config("lr_backbone = 0", "'lr_backbone' must be a finite number > 0, got '0'"),
    _bad_config("strong_dropout = 1",
                "'strong_dropout' must be a finite number >= 0 and < 1, got '1'"),
    _bad_config("shift_sigma = -1", "'shift_sigma' must be a finite number >= 0, got '-1'"),
    _bad_config("master_seed = -3", "'master_seed' must be an integer >= 0, got '-3'"),
    _bad_config("seeds = -2", "'seeds' must be comma-separated integers >= 0, got '-2'"),
    _bad_config("tau = 0.1",
                "'tau' must lie strictly between 1/'num_classes' = 1/7 and 1, got 0.1"),
])

test_non_integer_for_an_int_key_exits_2 = _exits_2([
    _bad_config("epochs = 1e0", "'epochs' must be an integer >= 1, got '1e0'"),
    _bad_config("samples_per_class_per_domain = 1e2",
                "'samples_per_class_per_domain' must be an integer, got '1e2'"),
    _bad_config("master_seed = 2.5", "'master_seed' must be an integer >= 0, got '2.5'"),
])

# SMALL_CFG has num_classes = 4 and 40 samples per class, 8 of them test
# ones, so labels_per_class = 16 leaves no unlabeled pool
test_an_out_of_range_labels_per_class_flag_exits_2_naming_it = _exits_2([
    _usage_error(f"{command}-{value}",
                 [command, "--config", "small.cfg", "--labels-per-class", value, "--out", "out"],
                 message)
    for command in ("train", "protocol", "gen-data")
    for value, message in (
        ("0", "error: 'labels_per_class' must be an integer >= 1, got 0"),
        ("16", "error: 'samples_per_class_per_domain' = 40 less its test split must exceed "
               "twice 'labels_per_class' = 16"))])

# the work checks this before it writes anything; exp(800) is inf
test_data_that_overflow_exit_2_naming_the_scale_keys_and_write_nothing = _exits_2([
    _usage_error(argv[0], [*argv, "--config", "huge.cfg", "--out", "out"],
                 "error: the generated data overflow float64; lower 'class_separation', "
                 "'scale_log_range', 'shift_sigma' or 'noise_sigma'",
                 {"huge.cfg": "scale_log_range = 800\n"}, reaches)
    for argv, reaches in ((["gen-data"], "generate_benchmark"),
                          (["train"], "generate_benchmark"),
                          (["protocol", "--jobs", "2"], "run_protocol"))])


# stats reads conf.csv's header before it loads the log, to hold tau to the
# header's class count, so a row about the header reaches no loader
LOADS = "load_confidence_log"


def _stats_input(id, rows, truths, line, error=DataError, header=CONF_HEADER, reaches=LOADS):
    """A table row whose conf.csv holds `rows` under `header`, with one truth
    sidecar per item of `truths`, the labels of domain 0, 1, ..."""
    files = {"conf.csv": header + rows}
    for domain, labels in enumerate(truths):
        files[f"domain{domain}_unlabeled_truth.csv"] = "label\n" + labels
    return pytest.param(files, line, error, reaches, id=id)


STATS_ARGV = ["stats", "--confidences", "conf.csv", "--truth-dir", ".", "--out", "stats"]


def _exits_1(rows):
    """A test that runs `upcsc stats` on each (files, line, error, reaches) row
    of rows, and load_confidence_log, which must raise the same text."""
    @pytest.mark.parametrize("files, line, error, reaches", rows)
    def test(tmp_path, monkeypatch, capsys, files, line, error, reaches):
        last = _rejected(tmp_path, monkeypatch, capsys, STATS_ARGV, files, line, reaches, 1)
        with pytest.raises(error) as exc:
            load_confidence_log("conf.csv", ".")
        assert last == f"error: {exc.value}"
    return test


# in the order load_confidence_log checks them, but for the group after the table
test_malformed_stats_inputs_exit_1 = _exits_1([
    pytest.param({}, "error: [Errno 2] …: 'conf.csv'", FileNotFoundError, None,
                 id="no-confidences"),
    # reading the header decodes the file's first buffer, so a bad byte
    # anywhere in that buffer is found there
    pytest.param({"conf.csv": CONF_HEADER.encode() + b"1,0,0,0.5,0.5\n\xff\n"},
                 "error: conf.csv: 'utf-8' codec can't decode byte 0xff in position 48: "
                 "invalid start byte", DataError, None, id="confidences-not-utf8"),
    _stats_input("header-without-sample-index", "1,0,0.5,0.5\n", [],
                 "error: conf.csv: unexpected confidences header",
                 header="epoch,domain,c_0,c_1\n", reaches=None),
    *[_stats_input(id, f"1,0,1,0.5,0.5\n{row}\n", ["1\n0\n"], "error: conf.csv: …")
      for id, row in (("epoch-1.5", "1.5,0,0,0.5,0.5"), ("sample-index-0.5", "1,0,0.5,0.5,0.5"),
                      ("sample-index-x", "1,0,x,0.5,0.5"), ("one-score", "1,0,0,0.5"),
                      ("three-scores", "1,0,0,0.5,0.5,0.5"))],
    _stats_input("header-only", "", ["1\n"],
                 "error: conf.csv: confidences file has no data rows"),
    _stats_input("no-truth-sidecar", "1,0,0,0.5,0.5\n1,1,0,0.5,0.5\n", ["1\n"],
                 "error: [Errno 2] …: './domain1_unlabeled_truth.csv'", FileNotFoundError),
    pytest.param({"conf.csv": CONF_HEADER + "1,0,0,0.5,0.5\n",
                  "domain0_unlabeled_truth.csv": b"label\n1\n0\xff\n"},
                 "error: ./domain0_unlabeled_truth.csv: 'utf-8' codec can't decode byte 0xff "
                 "in position 9: invalid start byte", DataError, LOADS, id="truth-not-utf8"),
    pytest.param({"conf.csv": CONF_HEADER + "1,0,0,0.5,0.5\n",
                  "domain0_unlabeled_truth.csv": "truth\n1\n0\n"},
                 "error: ./domain0_unlabeled_truth.csv: unexpected header", DataError, LOADS,
                 id="truth-header"),
    *[_stats_input(id, rows, truths,
                   f"error: conf.csv: sample_index {index} outside truth sidecar "
                   f"./domain{len(truths) - 1}_unlabeled_truth.csv")
      for id, rows, truths, index in (
          ("sample-index-5", "1,0,5,0.5,0.5\n", ["1\n"], 5),
          ("sample-index--1", "1,0,0,0.5,0.5\n1,0,-1,0.5,0.5\n", ["1\n0\n"], -1),
          # a truncated sidecar must not silently join the wrong labels
          ("truncated-truth-sidecar", "1,0,0,0.5,0.5\n1,1,3,0.5,0.5\n", ["0\n", "0\n1\n"], 3))],
    # a nan row has no top score: the confidence rule would count it as
    # unconfident with no candidate
    _stats_input("nan", "1,0,0,0.99,0.01\n1,0,1,0.6,0.4\n1,0,2,nan,nan\n", ["0\n1\n0\n"],
                 "error: conf.csv: confidence rows must be finite"),
])

# well-formed rows the log must not hold: a true label outside the classes, a
# repeated (epoch, domain, sample_index) and a score outside [0, 1]
test_stats_on_a_malformed_log_exits_1_naming_what_is_wrong = _exits_1([
    _stats_input("label-9", "1,0,0,0.6,0.4\n", ["9\n"],
                 "error: ./domain0_unlabeled_truth.csv: true label 9 outside 0..1"),
    _stats_input("label-minus-1", "1,0,1,0.6,0.4\n", ["0\n-1\n"],
                 "error: ./domain0_unlabeled_truth.csv: true label -1 outside 0..1"),
    # the first repeat in file order is named, though domain 0 sorts first
    *[_stats_input(id, rows, ["0\n1\n", "0\n1\n"],
                   f"error: conf.csv: (epoch, domain, sample_index) {triple} repeats an "
                   "earlier row")
      for id, rows, triple in (
          ("repeat-in-order", "1,0,0,0.6,0.4\n1,0,1,0.6,0.4\n1,0,1,0.6,0.4\n", "(1, 0, 1)"),
          ("repeat-out-of-order", "1,0,0,0.6,0.4\n1,0,1,0.6,0.4\n2,0,1,0.6,0.4\n1,0,0,0.5,0.5\n",
           "(1, 0, 0)"),
          ("repeat-in-a-later-domain-first",
           "1,0,1,0.6,0.4\n1,1,0,0.6,0.4\n1,1,0,0.5,0.5\n1,0,0,0.6,0.4\n1,0,1,0.5,0.5\n",
           "(1, 1, 0)"))],
    _stats_input("score-outside-0-1", "1,0,0,-5,7\n", ["0\n"],
                 "error: conf.csv: confidence rows must lie in [0, 1], got -5 to 7"),
])


DIVERGING_CFG = "lr_backbone = 50.0\nlr_classifier = 50.0\nepochs = 1\nsteps_per_epoch = 10\n"


def test_diverging_train_exits_1_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(DIVERGING_CFG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert ("error: fixmatch+upcsc-t0-s0: l_total 1.36e+06 at step 1 exceeds 100 times step 0's "
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
    proc = run_python("-m", "upcsc", "train", "--config", str(cfg),
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
    # python -m upcsc runs the body of the script that installing the package writes
    data = tmp_path / "data"
    run_python("-m", "upcsc", "gen-data", "--config", cfg_path, "--out", str(data), expect=0)
    assert (data / "domain2_test.csv").exists()
    missing = run_python("-m", "upcsc", "stats", "--confidences", str(tmp_path / "missing.csv"),
                         "--truth-dir", str(data), "--out", str(tmp_path / "stats"), expect=1)
    assert missing.stderr.startswith("error: ")
    negative = run_python("-m", "upcsc", "train", "--config", cfg_path, "--seed", "-1",
                          "--out", str(tmp_path / "run"), expect=2)
    assert negative.stderr == "error: seed must be nonnegative, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "small.cfg"]
