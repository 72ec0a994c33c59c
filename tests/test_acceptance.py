"""Acceptance gate: one test per shipped guarantee, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the directional-improvement sweep dominates the runtime (minutes).
"""

import math
import time
from collections import Counter

import numpy as np
from oracles import (DESK_CONFIG, candidate_set_sizes, config_text, confidence_counts,
                     confidence_sets, degenerate_uniform_count, mean_candidate_fraction,
                     package_pair_selections, pair_selections, paired_deltas, partition_sets,
                     pcl_reference_loss, stacked_partition, with_params)

from upcsc import analysis
from upcsc.cli import main
from upcsc.gradcheck import check_losses
from upcsc.harness import TrainConfig, run_protocol, train_one
from upcsc.losses import MethodFlags, contrastive_terms, partition_unlabeled, total_loss
from upcsc.model import ModelDims, init_model
from upcsc.numerics import l2_normalize_rows, softmax_rows, substream
from upcsc.synthdata import BenchmarkConfig, TrainBatch, augment_views

EXACT = 1e-12


def report(criterion: str, ok: bool, detail: str):
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_gradient_suite():
    start = time.time()
    verdicts = check_losses(num_draws=20, seed=0)
    elapsed = time.time() - start
    ok = len(verdicts) == 5 and all(passed for _, passed in verdicts.values()) and elapsed < 60.0
    report("gradient suite",
           ok,
           f"5 losses x 20 draws, worst |a - f| "
           f"{max(ratio for ratio, _ in verdicts.values()):.3f} of its allowance (<= 1), "
           f"{elapsed:.1f}s (< 60s)")


def test_criterion_2_reduction_oracle():
    worst = 0.0
    for k in range(500):
        rng = substream(8800, k)
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 6))
        d = int(rng.integers(2, 8))
        z = l2_normalize_rows(rng.standard_normal((n, d)))
        w = l2_normalize_rows(rng.standard_normal((c, d)))
        labels = rng.integers(0, c, n)
        part = stacked_partition(labels, np.zeros((0, c), dtype=bool))
        got = contrastive_terms(z, w, part, MethodFlags(upc=True, sc=False))[0].item()
        want = pcl_reference_loss(z, w, labels)
        worst = max(worst, abs(got - want))
    report("reduction oracle", worst <= EXACT,
           f"upc == reference contrastive loss on 500 batches, "
           f"max |delta| {worst:.2e} (<= 1e-12)")


def test_criterion_3_pair_selection_oracle():
    checked = 0
    for k in range(1000):
        rng = substream(8900, k)
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 6))
        conf = softmax_rows(rng.standard_normal((n, c)) * 2.5)
        tau = float(rng.uniform(1 / c + 0.02, 0.98))
        part = partition_unlabeled(conf, tau)
        # roles and candidate sets, then every pair selection from the
        # oracle's own pseudo labels and sets, not the partition's
        assert partition_sets(part) == confidence_sets(conf, tau)
        assert package_pair_selections(part) == pair_selections(conf, tau)
        checked += 1
    report("pair-selection oracle", checked == 1000,
           f"{checked}/1000 random (confidence, tau) instances match "
           f"brute-force set reconstruction exactly")


def test_criterion_4_statistics_oracles():
    checked = 0
    for k in range(1000):
        rng = substream(9000, k)
        n = int(rng.integers(1, 50))
        c = int(rng.integers(2, 8))
        conf = softmax_rows(rng.standard_normal((n, c)) * 2)
        truth = rng.integers(0, c, n)
        log = analysis.ConfidenceLog(np.ones(n), np.zeros(n), conf, truth)
        tau = float(rng.uniform(1 / c + 0.02, 0.98))

        n_unconfident, sizes, hits = confidence_counts(log, tau)
        uus, inclusion = analysis.confidence_rates(log, tau)
        assert uus == n_unconfident / n
        if n_unconfident:
            assert inclusion == sum(hits) / n_unconfident
        else:
            assert math.isnan(inclusion)
        hist = analysis.confusing_class_histogram(log, tau)
        assert hist == dict(Counter(size for size in sizes if size >= 1))
        assert sum(hist.values()) + degenerate_uniform_count(log, tau) == n_unconfident
        checked += 1
    report("statistics oracles", checked == 1000,
           f"{checked}/1000 logs match counting oracles exactly, "
           f"histogram mass conserved")


def test_criterion_5_directional_improvement():
    start = time.time()
    results = {}
    # outputs do not depend on jobs (test_run_protocol_parallel_matches_serial)
    for method in ("fixmatch", "fixmatch+upc", "fixmatch+upcsc"):
        cfg = TrainConfig(method=method)
        results[method] = run_protocol(cfg, jobs=2)
    elapsed = time.time() - start
    fm = results["fixmatch"].mean_accuracy()
    upc = results["fixmatch+upc"].mean_accuracy()
    upcsc = results["fixmatch+upcsc"].mean_accuracy()
    d_upcsc = paired_deltas(results["fixmatch+upcsc"], results["fixmatch"])
    ok = (upcsc - fm > 0.0) and (upc >= fm) and elapsed < 600.0
    report("directional improvement", ok,
           f"mean acc fixmatch {fm:.4f}, +upc {upc:.4f}, +upcsc {upcsc:.4f}; "
           f"upcsc-fixmatch {upcsc - fm:+.4f} (> 0), upc-fixmatch "
           f"{upc - fm:+.4f} (>= 0), paired wins {int((d_upcsc > 0).sum())}/"
           f"{d_upcsc.size}, sweep {elapsed:.0f}s (< 600s)")


def test_criterion_6_observation_reproduction():
    cfg = TrainConfig(method="fixmatch", epochs=3)
    logs = []
    for target in range(cfg.benchmark.num_domains):
        epoch_logs = []
        train_one(cfg, target=target, seed=0, on_epoch=epoch_logs.append)
        logs.append(analysis.ConfidenceLog.concatenate(epoch_logs).filter(epoch=3))
    pooled = analysis.ConfidenceLog.concatenate(logs)
    uus, incl = analysis.confidence_rates(pooled, cfg.tau)
    chance = mean_candidate_fraction(pooled, cfg.tau)
    sizes = candidate_set_sizes(pooled, cfg.tau)
    median_size = float(np.median(sizes))
    half_c = math.ceil(0.5 * cfg.benchmark.num_classes)
    ok = (0.0 < uus < 1.0) and (incl >= chance + 0.1) and (median_size <= half_c)
    report("observation reproduction", ok,
           f"epoch-3 fixmatch pooled over 4 targets: uus {uus:.3f} in (0,1), "
           f"inclusion {incl:.3f} >= chance {chance:.3f} + 0.1, "
           f"median candidate-set size {median_size:.0f} <= {half_c}")


def test_criterion_7_protocol_determinism(tmp_path):
    cfg_path = tmp_path / "proto.cfg"
    cfg_path.write_text(config_text({**DESK_CONFIG, "hidden_dims": 16, "epochs": 2,
                                     "steps_per_epoch": 5, "seeds": "0,1"}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["protocol", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["protocol", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    same_results = (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    same_metrics = (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
    report("protocol determinism", same_results and same_metrics,
           "two protocol executions with identical config produced "
           "byte-identical results and metrics CSVs")


def test_criterion_8_loss_identities():
    dims = ModelDims(input_dim=8, hidden_dims=(10,), feature_dim=6, num_classes=4)
    flags = MethodFlags(unsup=True, upc=True, sc=True)
    state = init_model(dims, seed=12)
    state.classifier[:] = state.classifier * 6.0
    state = with_params(state, {"featurizer.0.bias": state.featurizer[0][1] + 1.5})
    noise = BenchmarkConfig()   # the default view noise

    checked = 0
    for k in range(1000):
        rng = substream(9100, k)
        batch = TrainBatch(rng.standard_normal((4, dims.input_dim)),
                           rng.integers(0, dims.num_classes, 4),
                           rng.standard_normal((8, dims.input_dim)))
        views = augment_views(batch.unlabeled_x, substream(9200, k), noise)
        breakdown, _ = total_loss(state, batch, views, flags, 0.65)
        assert breakdown.l_total == \
            breakdown.l_sup + breakdown.l_unsup + breakdown.l_upc + breakdown.l_sc
        for term in (breakdown.l_sup, breakdown.l_unsup,
                     breakdown.l_upc, breakdown.l_sc):
            assert term >= 0.0
        checked += 1

    perm = np.array([2, 0, 3, 1])
    inv = np.argsort(perm)
    worst = 0.0
    for k in range(50):
        rng = substream(9300, k)
        batch = TrainBatch(rng.standard_normal((4, dims.input_dim)),
                           rng.integers(0, dims.num_classes, 4),
                           rng.standard_normal((8, dims.input_dim)))
        views = augment_views(batch.unlabeled_x, substream(9400, k), noise)
        base, _ = total_loss(state, batch, views, flags, 0.65)
        pstate = with_params(state, {"classifier.weight": state.classifier[perm]})
        pbatch = TrainBatch(batch.labeled_x, inv[batch.labeled_y], batch.unlabeled_x)
        other, _ = total_loss(pstate, pbatch, views, flags, 0.65)
        for a, b in ((base.l_sup, other.l_sup), (base.l_unsup, other.l_unsup),
                     (base.l_upc, other.l_upc), (base.l_sc, other.l_sc),
                     (base.l_total, other.l_total)):
            worst = max(worst, abs(a - b))
    report("loss identities", checked == 1000 and worst <= EXACT,
           f"breakdown sums exactly and terms >= 0 on {checked}/1000 evals; "
           f"class-permutation equivariance max |delta| {worst:.2e} (<= 1e-12)")
