"""CSV formats byte for byte, loader edge cases and atomic writes.

The golden digests pin every CSV writer's output for fixed inputs. The
inputs come from PCG64 draws and exact arithmetic only (no BLAS, no libm),
so the bytes do not depend on the machine.
"""

import hashlib

import numpy as np
import pytest

from upcsc import analysis
from upcsc.analysis import ConfidenceLog
from upcsc.cli import main
from upcsc.errors import DataError
from upcsc.harness import (EpochRecord, ProtocolResult, RunRecord, TrainConfig,
                           write_metrics_csv, write_results_csv)
from upcsc.synthdata import (BenchmarkConfig, DomainBenchmark, DomainSplits,
                             export_benchmark)

GOLDEN = {
    "confidences.csv":
        "425b3a695539bde0128cd9e43f9fb1b0e3da384f57564108dbebb867f863300f",
    "stats.csv":
        "89ef35432cec5bd116936b8ccdd2472d3d9a5026c72d7a34be85a0765fe7be66",
    "histogram.csv":
        "ba5d1bf3a391aad41d64d137906e01f7046495af74c7e1bd8664de6c94309b17",
    "metrics.csv":
        "64c562f958489bd2834d8a1d0d54c8f60c12d44469a6e001faf1c7530f94766b",
    "results.csv":
        "28d3c8cdd293e6eb17a437a1ab6d083c27737fc33406e65348e3bad328673152",
    "benchmark/domain0_labeled.csv":
        "5faed25e5a94247d489a23b8ac91830fcca0e1f88339afbea9abf16711967940",
    "benchmark/domain0_unlabeled.csv":
        "ebd61c01a394a7fa468a5555d991a1489d92b7ca8f0f4f37973b13759ec62584",
    "benchmark/domain0_unlabeled_truth.csv":
        "ee76b842a0f631ab2095a581277ad8b57fca5bda19dabd47e9810226c49db6f6",
    "benchmark/domain0_test.csv":
        "e3819adce5a2cfbe7f1ea30457fb15a31cd38baef818f7c8345ffcad85fcf897",
    "benchmark/domain1_labeled.csv":
        "0d61c7b9ce08d867d6e4b112cb2b0d18d08f8f898fcfee5e65119735d6fdf290",
    "benchmark/domain1_unlabeled.csv":
        "7e80a10c322a11a470dd8f091d84c5c3410bc8a16de226f4e526738726f0bc81",
    "benchmark/domain1_unlabeled_truth.csv":
        "e3775b3a43d950a6f96d682b2f1c7d22b943d257ef2b831fcc468509eb9f8894",
    "benchmark/domain1_test.csv":
        "0d39661136d9cd2a4ac01a8cec459f4617d4b02bd6d0a1bafc2f25d3f406e38c",
}

# Values whose %.17g text is easy to get wrong: integers, signed zero,
# subnormals, huge and tiny exponents and non-terminating binary fractions.
EDGE_VALUES = [0.0, -0.0, 1.0, 0.1, 1.0 / 3.0, 5e-324, 1e-300, 1.5e300, -2.5, 123456789.0]


def exact_matrix(rng, n, k):
    """(n, k) floats from PCG64 bits and exact arithmetic, edge values on top."""
    x = (rng.random((n, k)) - 0.5) * 8.0
    flat = x.reshape(-1)
    flat[:len(EDGE_VALUES)] = EDGE_VALUES
    return x


def golden_benchmark():
    cfg = BenchmarkConfig(num_domains=2, num_classes=3, latent_dim=4,
                          samples_per_class_per_domain=30, labels_per_class=3)
    rng = np.random.Generator(np.random.PCG64(2024))
    domains = []
    for _ in range(cfg.num_domains):
        lx, ux, tx = (exact_matrix(rng, n, cfg.latent_dim) for n in (9, 45, 36))
        domains.append(DomainSplits(lx, rng.integers(0, 3, 9), ux, rng.integers(0, 3, 45),
                                    tx, rng.integers(0, 3, 36)))
    return DomainBenchmark(cfg, None, None, domains)


def golden_log(bench):
    """Two epochs over both domains' unlabeled pools; a few rows exactly uniform."""
    rng = np.random.Generator(np.random.PCG64(7))
    parts = []
    for epoch in (1, 2):
        for d in bench.domain_ids:
            n = len(bench.unlabeled(d))
            conf = rng.random((n, 3)) * 0.5
            conf[:, 0] += rng.integers(0, 2, n) * 0.5
            conf[:2] = 1.0 / 3.0
            parts.append(ConfidenceLog(np.full(n, epoch), np.full(n, d), conf,
                                       bench.quarantined_truth(d)))
    return ConfidenceLog.concatenate(parts)


def golden_protocol():
    rng = np.random.Generator(np.random.PCG64(11))
    runs = []
    for target, seed in ((0, 0), (1, 3)):
        epochs = [EpochRecord(e, *rng.random(5).tolist(), 0.5, 0.25,
                              float("nan") if e == 1 else 0.75, rng.random())
                  for e in (1, 2)]
        runs.append(RunRecord("fixmatch+upcsc", target, seed, epochs, None))
    return ProtocolResult(TrainConfig(), runs)


def write_golden_outputs(out):
    bench = golden_benchmark()
    export_benchmark(bench, out / "benchmark")
    log = golden_log(bench)
    analysis.write_confidences_csv([log], out / "confidences.csv")
    analysis.write_stats_csv(log, 0.6, out / "stats.csv")
    analysis.write_histogram_csv(log, 0.6, 2, out / "histogram.csv")
    result = golden_protocol()
    write_metrics_csv(result, out / "metrics.csv")
    write_results_csv(result, out / "results.csv")


def test_csv_outputs_match_golden_digests(tmp_path):
    write_golden_outputs(tmp_path)
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(GOLDEN)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in written}
    assert digests == GOLDEN


def test_confidences_csv_from_epoch_logs_matches_the_whole_log(tmp_path):
    log = golden_log(golden_benchmark())
    path = tmp_path / "confidences.csv"
    analysis.write_confidences_csv(iter([log.filter(epoch=1), log.filter(epoch=2)]), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["confidences.csv"]


def test_confidences_csv_rejects_logs_out_of_epoch_order(tmp_path):
    log = golden_log(golden_benchmark())
    path = tmp_path / "confidences.csv"
    with pytest.raises(DataError, match="epoch 1 after epoch 2"):
        analysis.write_confidences_csv([log.filter(epoch=2), log.filter(epoch=1)], path)
    with pytest.raises(DataError, match="no confidence log"):
        analysis.write_confidences_csv([], path)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ loader edges

def write_truth(directory, domain, labels, eol="\n"):
    (directory / f"domain{domain}_unlabeled_truth.csv").write_bytes(
        ("label" + eol + "".join(f"{t}{eol}" for t in labels)).encode())


def write_confidences(path, rows, c=2, eol="\n"):
    header = ",".join(["epoch", "domain", "sample_index"] + [f"c_{i}" for i in range(c)])
    path.write_bytes((header + eol + "".join(row + eol for row in rows)).encode())


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_loader_accepts_either_line_ending(tmp_path, eol):
    write_truth(tmp_path, 0, [1, 0, 1], eol)
    write_truth(tmp_path, 2, [0], eol)
    write_confidences(tmp_path / "conf.csv",
                      ["1,0,0,0.25,0.75", "1,0,2,0.5,0.5", "1,2,0,1,0", "3,0,1,0.125,0.875"],
                      eol=eol)
    log = analysis.load_confidence_log(tmp_path / "conf.csv", tmp_path)
    assert log.epochs.tolist() == [1, 1, 1, 3]
    assert log.domains.tolist() == [0, 0, 2, 0]
    assert log.truth.tolist() == [1, 1, 0, 0]
    assert np.array_equal(log.conf, [[0.25, 0.75], [0.5, 0.5], [1, 0], [0.125, 0.875]])


def test_loader_keeps_a_single_row_two_dimensional(tmp_path):
    write_truth(tmp_path, 0, [2])
    write_confidences(tmp_path / "conf.csv", ["4,0,0,0.25,0.5,0.25"], c=3)
    log = analysis.load_confidence_log(tmp_path / "conf.csv", tmp_path)
    assert log.conf.shape == (1, 3)
    assert log.epochs.shape == log.domains.shape == log.truth.shape == (1,)
    assert log.truth.tolist() == [2]


@pytest.mark.parametrize("row", ["1.5,0,0,0.5,0.5", "1,0,0.5,0.5,0.5", "1,0,x,0.5,0.5",
                                 "1,0,0,0.5", "1,0,0,0.5,0.5,0.5"])
def test_loader_rejects_malformed_rows(tmp_path, row):
    write_truth(tmp_path, 0, [1, 0])
    write_confidences(tmp_path / "conf.csv", ["1,0,1,0.5,0.5", row])
    with pytest.raises(ValueError):
        analysis.load_confidence_log(tmp_path / "conf.csv", tmp_path)


def test_loader_rejects_negative_sample_index(tmp_path):
    write_truth(tmp_path, 0, [1, 0])
    write_confidences(tmp_path / "conf.csv", ["1,0,0,0.5,0.5", "1,0,-1,0.5,0.5"])
    with pytest.raises(DataError):
        analysis.load_confidence_log(tmp_path / "conf.csv", tmp_path)


def test_loader_rejects_bad_truth_header(tmp_path):
    (tmp_path / "domain0_unlabeled_truth.csv").write_text("truth\n1\n0\n")
    write_confidences(tmp_path / "conf.csv", ["1,0,0,0.5,0.5"])
    with pytest.raises(DataError):
        analysis.load_confidence_log(tmp_path / "conf.csv", tmp_path)


def test_stats_without_truth_sidecar_exits_1(tmp_path, capsys):
    write_truth(tmp_path, 0, [1])
    write_confidences(tmp_path / "conf.csv", ["1,0,0,0.5,0.5", "1,1,0,0.5,0.5"])
    code = main(["stats", "--confidences", str(tmp_path / "conf.csv"),
                 "--truth-dir", str(tmp_path), "--out", str(tmp_path / "stats")])
    assert code == 1
    assert "domain1_unlabeled_truth.csv" in capsys.readouterr().err


def test_sample_index_counts_within_interleaved_groups(tmp_path):
    rng = np.random.Generator(np.random.PCG64(3))
    n = 500
    log = ConfidenceLog(rng.integers(1, 4, n), rng.integers(0, 3, n),
                        rng.random((n, 2)), rng.integers(0, 2, n))
    path = tmp_path / "conf.csv"
    analysis.write_confidences_csv([log], path)
    counters = {}
    expected = []
    for e, d in zip(log.epochs.tolist(), log.domains.tolist()):
        expected.append(counters.get((e, d), 0))
        counters[(e, d)] = expected[-1] + 1
    written = [int(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
    assert written == expected


# ---------------------------------------------------------- atomic replace

def test_failed_write_leaves_the_old_file_and_no_partial(tmp_path):
    """A write that raises partway leaves the previous file as it was."""
    n = 20000   # several formatting chunks, so the failure lands mid-file
    rng = np.random.Generator(np.random.PCG64(5))
    log = ConfidenceLog(np.ones(n), np.zeros(n), rng.random((n, 3)), np.zeros(n))
    log.conf = log.conf.astype(object)
    log.conf[-1, 1] = "not a number"
    path = tmp_path / "confidences.csv"
    path.write_bytes(b"previous contents\r\n")
    with pytest.raises(TypeError):
        analysis.write_confidences_csv([log], path)
    assert path.read_bytes() == b"previous contents\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["confidences.csv"]
