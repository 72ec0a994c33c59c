"""Benchmark generation, splits, augmentations, batching, and CSV round trips."""

import numpy as np
import pytest

from oracles import invert
from upcsc.analysis import load_confidence_log
from upcsc.csvio import read_csv
from upcsc.errors import ConfigError, DataError
from upcsc.numerics import substream
from upcsc.synthdata import (BenchmarkConfig, DomainSpec, augment_views, export_benchmark,
                             generate_benchmark, random_rotation, sample_batch,
                             strong_augment, weak_augment)

# small but structurally complete benchmark for fast tests
SMALL = BenchmarkConfig(num_domains=3, num_classes=4, latent_dim=6,
                        samples_per_class_per_domain=60, labels_per_class=5,
                        master_seed=99)


def rows_as_set(x: np.ndarray) -> set:
    return {tuple(row) for row in np.round(x, 12)}


def test_config_validation():
    with pytest.raises(ConfigError):
        BenchmarkConfig(num_domains=1)
    with pytest.raises(ConfigError):
        BenchmarkConfig(labels_per_class=0)
    with pytest.raises(ConfigError):
        BenchmarkConfig(samples_per_class_per_domain=30, labels_per_class=20)
    with pytest.raises(ConfigError):
        BenchmarkConfig(strong_dropout=1.5)
    with pytest.raises(ConfigError):
        BenchmarkConfig(strong_dropout=-0.1)
    with pytest.raises(ConfigError):
        BenchmarkConfig(noise_sigma=-0.1)


def test_full_strong_dropout_rejected():
    # dropout 1.0 zeroes every strong view, whose projection then has no
    # direction; accept 0.0 up to anything short of 1.0
    with pytest.raises(ConfigError):
        BenchmarkConfig(strong_dropout=1.0)
    assert BenchmarkConfig(strong_dropout=0.0).strong_dropout == 0.0
    assert BenchmarkConfig(strong_dropout=0.99).strong_dropout == 0.99


def test_split_sizes_and_balance():
    bench = generate_benchmark(SMALL)
    tpc = SMALL.test_per_class()
    for d in bench.domain_ids:
        lx, ly = bench.labeled(d)
        assert lx.shape == (SMALL.labels_per_class * SMALL.num_classes, SMALL.latent_dim)
        assert np.bincount(ly, minlength=SMALL.num_classes).tolist() == [5, 5, 5, 5]
        tx, ty = bench.test(d)
        assert len(tx) == tpc * SMALL.num_classes
        assert np.bincount(ty, minlength=SMALL.num_classes).tolist() == [tpc] * 4
        ux = bench.unlabeled(d)
        truth = bench.quarantined_truth(d)
        per_class = SMALL.samples_per_class_per_domain - SMALL.labels_per_class - tpc
        assert len(ux) == per_class * SMALL.num_classes
        assert np.bincount(truth, minlength=SMALL.num_classes).tolist() == [per_class] * 4
        assert len(ux) > len(lx)  # unlabeled majority


def test_splits_are_disjoint():
    bench = generate_benchmark(SMALL)
    for d in bench.domain_ids:
        lab = rows_as_set(bench.labeled(d)[0])
        unl = rows_as_set(bench.unlabeled(d))
        tst = rows_as_set(bench.test(d)[0])
        assert not lab & unl
        assert not lab & tst
        assert not unl & tst
        total = SMALL.samples_per_class_per_domain * SMALL.num_classes
        assert len(lab) + len(unl) + len(tst) == total


def test_generation_deterministic_and_seed_sensitive():
    a = generate_benchmark(SMALL)
    b = generate_benchmark(SMALL)
    assert np.array_equal(a.labeled(1)[0], b.labeled(1)[0])
    assert np.array_equal(a.unlabeled(2), b.unlabeled(2))
    other = generate_benchmark(BenchmarkConfig(**{**SMALL.__dict__, "master_seed": 100}))
    assert not np.array_equal(a.labeled(1)[0], other.labeled(1)[0])


def test_nearest_prototype_oracle_after_inversion():
    bench = generate_benchmark(SMALL)
    for d in bench.domain_ids:
        latent = invert(bench.specs[d], bench.unlabeled(d))
        dists = ((latent[:, None, :] - bench.prototypes[None, :, :]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == bench.quarantined_truth(d)).mean()
        assert acc > 0.8, f"domain {d}: {acc}"


def test_identity_shift_makes_domains_identically_distributed():
    cfg = BenchmarkConfig(num_domains=3, num_classes=3, latent_dim=5,
                          samples_per_class_per_domain=400, labels_per_class=5,
                          rotation_max_angle=0.0, scale_log_range=0.0,
                          shift_sigma=0.0, master_seed=1)
    bench = generate_benchmark(cfg)
    assert all(np.array_equal(s.rotation, np.eye(5)) for s in bench.specs)
    # a zero sigma draws +0.0 shifts: no sign bit reaches the data
    assert not any(s.shift.any() or np.signbit(s.shift).any() for s in bench.specs)
    # per-class mean difference between domains, standardized: should look like
    # noise, not shift (|z| far below 5 for n ~ 300 per class)
    for y in range(3):
        means = []
        for d in range(3):
            truth = bench.quarantined_truth(d)
            means.append(bench.unlabeled(d)[truth == y].mean(axis=0))
        n = (bench.quarantined_truth(0) == 0).sum()
        z = np.abs(means[0] - means[1]) / (cfg.noise_sigma * np.sqrt(2.0 / n))
        assert z.max() < 5.0


def test_data_that_overflow_are_a_config_error_naming_the_scale_keys():
    # exp(800) is inf, so the data were inf and nan; huge finite data are
    # left to training, whose divergence check names the run and step
    with pytest.raises(ConfigError, match="'scale_log_range'.*'shift_sigma' or 'noise_sigma'"):
        generate_benchmark(BenchmarkConfig(**{**SMALL.__dict__, "scale_log_range": 800.0}))
    huge = generate_benchmark(BenchmarkConfig(**{**SMALL.__dict__, "shift_sigma": 1e300}))
    assert np.isfinite(huge.test(0)[0]).all() and np.abs(huge.test(0)[0]).max() > 1e290


def test_random_rotation_is_orthogonal_and_identity_at_zero():
    rng = substream(5)
    r = random_rotation(7, rng, max_angle=0.8)
    assert np.allclose(r @ r.T, np.eye(7), atol=1e-9)
    assert np.allclose(np.abs(np.linalg.det(r)), 1.0, atol=1e-9)
    assert np.array_equal(random_rotation(7, substream(5), max_angle=0.0), np.eye(7))


def test_domain_spec_invert_round_trip():
    spec = DomainSpec(0, random_rotation(4, substream(8), 1.0),
                      np.array([0.5, 1.0, 2.0, 1.5]), np.array([1.0, -2.0, 0.0, 3.0]))
    latent = substream(9).standard_normal((20, 4))
    assert np.allclose(invert(spec, spec.apply(latent)), latent, atol=1e-10)


def test_weak_augment_stats():
    x = np.zeros((100, 100))
    out = weak_augment(x, substream(10), sigma=0.05)
    assert abs(out.std() - 0.05) / 0.05 < 0.05
    same = weak_augment(x, substream(11), sigma=0.0)
    assert np.array_equal(same, x)


def test_strong_augment_stats_and_edges():
    x = substream(12).standard_normal((400, 250))
    out = strong_augment(x, substream(13), sigma=0.5, dropout=0.2)
    zero_frac = (out == 0.0).mean()
    assert abs(zero_frac - 0.2) < 0.01
    assert np.array_equal(strong_augment(x, substream(14), sigma=0.5, dropout=1.0),
                          np.zeros_like(x))
    assert np.array_equal(strong_augment(x, substream(15), sigma=0.0, dropout=0.0), x)


def test_augment_views_stacks_weak_over_strong_from_one_stream():
    x = substream(16).standard_normal((7, 5))
    config = BenchmarkConfig(sigma_weak=0.1, sigma_strong=0.3, strong_dropout=0.25)
    views = augment_views(x, substream(17), config)
    replay = substream(17)
    weak = weak_augment(x, replay, 0.1)
    assert np.array_equal(views, np.concatenate([weak, strong_augment(x, replay, 0.3, 0.25)]))
    assert augment_views(x[:0], substream(17), config).shape == (0, 5)


def test_sample_batch_structure_and_domain_blocks():
    bench = generate_benchmark(SMALL)
    view = bench.without_domain(0)
    batch = sample_batch(view, labeled_per_domain=4, unlabeled_per_domain=6, rng=substream(20))
    assert batch.labeled_x.shape == (8, SMALL.latent_dim)  # 2 source domains x 4
    assert batch.labeled_y.shape == (8,)
    assert batch.unlabeled_x.shape == (12, SMALL.latent_dim)
    for block, d in enumerate(view.source_ids):
        rows = rows_as_set(bench.labeled(d)[0])
        for r in batch.labeled_x[block * 4:(block + 1) * 4]:
            assert tuple(np.round(r, 12)) in rows


def test_sample_batch_replacement_rules():
    bench = generate_benchmark(SMALL)
    view = bench.without_domain(2)
    # within-batch draws are unique while the split has enough rows
    batch = sample_batch(view, 10, 10, substream(21))
    for block in range(2):
        seg = batch.labeled_x[block * 10:(block + 1) * 10]
        assert len(rows_as_set(seg)) == 10
    # asking for more than exists falls back to replacement instead of failing
    big = sample_batch(view, 50, 10, substream(22))
    assert big.labeled_x.shape == (100, SMALL.latent_dim)
    seg = big.labeled_x[:50]
    assert len(rows_as_set(seg)) <= 20  # only 20 labeled rows exist per domain


def test_sample_batch_rejects_bad_counts():
    view = generate_benchmark(SMALL).without_domain(0)
    with pytest.raises(ConfigError):
        sample_batch(view, 0, 5, substream(23))


def test_training_view_blocks_target():
    bench = generate_benchmark(SMALL)
    view = bench.without_domain(1)
    assert view.source_ids == [0, 2]
    with pytest.raises(KeyError):
        view.labeled(1)
    with pytest.raises(KeyError):
        view.unlabeled(1)
    with pytest.raises(KeyError):
        bench.without_domain(7)


def read_xy(path, k):
    rows = read_csv(path, [f"x_{i}" for i in range(k)] + ["label"],
                    [("x", np.float64, (k,)), ("y", np.int64)])
    return rows["x"], rows["y"]


def test_csv_round_trip_exact(tmp_path):
    bench = generate_benchmark(SMALL)
    export_benchmark(bench, tmp_path)
    k = SMALL.latent_dim
    for d in bench.domain_ids:
        for split in ("labeled", "test"):
            x, y = read_xy(tmp_path / f"domain{d}_{split}.csv", k)
            want_x, want_y = getattr(bench, split)(d)
            assert np.array_equal(x, want_x) and np.array_equal(y, want_y)
        x, y = read_xy(tmp_path / f"domain{d}_unlabeled.csv", k)
        assert np.array_equal(x, bench.unlabeled(d)) and (y == -1).all()
        truth = read_csv(tmp_path / f"domain{d}_unlabeled_truth.csv", ["label"], np.int64)
        assert np.array_equal(truth, bench.quarantined_truth(d))


def test_exported_unlabeled_carries_no_labels(tmp_path):
    bench = generate_benchmark(SMALL)
    export_benchmark(bench, tmp_path)
    text = (tmp_path / "domain0_unlabeled.csv").read_text().splitlines()
    assert all(line.rsplit(",", 1)[1] == "-1" for line in text[1:])
    truth_lines = (tmp_path / "domain0_unlabeled_truth.csv").read_text().splitlines()
    assert truth_lines[0] == "label"
    assert len(truth_lines) - 1 == len(text) - 1


def test_import_rejects_mangled_files(tmp_path):
    # the stats reader is what reads exported sidecars back; a truncated one
    # must not silently join the wrong labels
    bench = generate_benchmark(SMALL)
    export_benchmark(bench, tmp_path)
    path = tmp_path / "domain1_unlabeled_truth.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    last = len(bench.unlabeled(1)) - 1
    (tmp_path / "confidences.csv").write_text(
        f"epoch,domain,sample_index,c_0,c_1,c_2,c_3\n1,1,{last},0.4,0.3,0.2,0.1\n")
    with pytest.raises(DataError):
        load_confidence_log(tmp_path / "confidences.csv", tmp_path)
