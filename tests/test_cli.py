"""End-to-end command-line flows with a shrunken config."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import upcsc
from upcsc import cli, harness, synthdata
from upcsc.cli import main

SRC = str(Path(upcsc.__file__).resolve().parent.parent)

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


def test_protocol_writes_results(cfg_path, tmp_path, capsys):
    out = tmp_path / "proto"
    code = main(["protocol", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    assert "mean final accuracy" in capsys.readouterr().out
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert lines[0] == "method,target,seed,final_accuracy"
    assert len(lines) - 1 == 3  # 3 targets x 1 seed
    assert (out / "metrics.csv").exists()


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


def test_stats_epoch_flag(cfg_path, tmp_path):
    run_out = tmp_path / "run"
    assert main(["train", "--config", cfg_path, "--out", str(run_out)]) == 0
    stats_out = tmp_path / "stats"
    code = main(["stats", "--confidences", str(run_out / "confidences.csv"),
                 "--truth-dir", str(run_out / "benchmark"),
                 "--tau", "0.6", "--epoch", "1", "--out", str(stats_out)])
    assert code == 0


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


DIVERGING_CFG = "lr_backbone = 50.0\nlr_classifier = 50.0\nepochs = 1\nsteps_per_epoch = 10\n"


def test_diverging_train_exits_1_without_outputs(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(DIVERGING_CFG)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "non-finite l_sup at step 6" in capsys.readouterr().err
    assert not out.exists()


def test_diverging_train_prints_one_error_line_and_no_warnings(tmp_path):
    # numpy's overflow and invalid-value warnings must not precede the error
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(DIVERGING_CFG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "upcsc.cli", "train", "--config", str(cfg),
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--truth-dir", "somewhere"])
    assert exc.value.code == 2
