"""Span tracing of the upcsc modules from outside the package.

A Tracer wraps public functions of `upcsc` where callers look them up: every
module attribute in the package that is bound to the original function is
rebound to a wrapper for the duration of a `with tracer.installed():` block,
then restored and verified. Each wrapper records one span (name, start, end,
parent) in memory; a few wrappers also count what the call produced, so that
ratios are measured where the work happens. Spans are written out only after
the traced operation ends.

Nothing here changes what the wrapped functions compute: wrappers pass
arguments and results through untouched.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import statistics
import sys
import time
from collections import Counter

import numpy as np

from upcsc import autograd

# (span name, defining module, attribute): the layer boundaries of one
# training step, of per-epoch evaluation, of the CSV paths and of the CLI.
TARGETS = (
    ("synthdata.generate_benchmark", "upcsc.synthdata", "generate_benchmark"),
    ("synthdata.export_benchmark", "upcsc.synthdata", "export_benchmark"),
    ("synthdata.sample_batch", "upcsc.synthdata", "sample_batch"),
    ("synthdata.weak_augment", "upcsc.synthdata", "weak_augment"),
    ("synthdata.strong_augment", "upcsc.synthdata", "strong_augment"),
    ("model.featurize", "upcsc.model", "featurize"),
    ("model.project_features", "upcsc.model", "project_features"),
    ("model.project_proxies", "upcsc.model", "project_proxies"),
    ("losses.partition_unlabeled", "upcsc.losses", "partition_unlabeled"),
    ("losses.upc_negative_masks", "upcsc.losses", "upc_negative_masks"),
    ("losses.sc_negative_masks", "upcsc.losses", "sc_negative_masks"),
    ("losses.upc_loss", "upcsc.losses", "upc_loss"),
    ("losses.sc_loss", "upcsc.losses", "sc_loss"),
    ("losses.build_loss_graph", "upcsc.losses", "build_loss_graph"),
    ("losses.total_loss", "upcsc.losses", "total_loss"),
    ("numerics.sgd_step", "upcsc.numerics", "sgd_step"),
    ("analysis.log_source_confidences", "upcsc.analysis", "log_source_confidences"),
    ("analysis.write_confidences_csv", "upcsc.analysis", "write_confidences_csv"),
    ("analysis.load_confidence_log", "upcsc.analysis", "load_confidence_log"),
    ("analysis.write_stats_csv", "upcsc.analysis", "write_stats_csv"),
    ("harness.train_one", "upcsc.harness", "train_one"),
    ("harness.run_protocol", "upcsc.harness", "run_protocol"),
    ("cli.train", "upcsc.cli", "cmd_train"),
    ("cli.stats", "upcsc.cli", "cmd_stats"),
)


def _count_partition(part, counts: Counter) -> None:
    counts["n_confident"] += len(part.confident)
    counts["n_unconfident"] += len(part.unconfident)


def _count_masks(masks, counts: Counter) -> None:
    for mask in masks:
        counts["negative_pairs"] += int(np.count_nonzero(mask))
        counts["pairs_examined"] += mask.size


def _count_sc_masks(masks, counts: Counter) -> None:
    counts["sc_anchors"] += masks[0].shape[0]
    _count_masks(masks, counts)


OBSERVERS = {
    "losses.partition_unlabeled": _count_partition,
    "losses.upc_negative_masks": _count_masks,
    "losses.sc_negative_masks": _count_sc_masks,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "upcsc" or name.startswith("upcsc."))]


class Tracer:
    """In-memory span log of one traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        observe, counts, clock = OBSERVERS.get(name), self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, counts)
                return result
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.bench_traced = True
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where the package looks it up; restore on exit."""
        try:
            originals = [(name, getattr(importlib.import_module(module), attr))
                         for name, module, attr in TARGETS]
            modules = _package_modules()
            for name, original in originals:
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            tensor = autograd.Tensor
            self._patch(tensor, "backward", self._wrap("autograd.backward", tensor.backward))
            init, counts = tensor.__init__, self.counts

            def counting_init(node, *args, **kwargs):
                counts["nodes"] += 1
                init(node, *args, **kwargs)

            counting_init.bench_traced = True
            self._patch(tensor, "__init__", counting_init)
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                writer.writerow([i, name, "%.9f" % (self.starts[i] - t0),
                                 "%.9f" % (self.ends[i] - t0), self.parents[i]])


def wrappers_left() -> list[str]:
    """Attributes of the package still bound to a tracing wrapper."""
    owners = [(mod.__name__, mod) for mod in _package_modules()]
    owners.append(("upcsc.autograd.Tensor", autograd.Tensor))
    return [f"{label}.{key}" for label, owner in owners
            for key, value in vars(owner).items() if getattr(value, "bench_traced", False)]


class SpanTable:
    """Calls, durations and self times of a finished trace, per span name.

    Each name is split by whether the span ran inside a loss graph, that is
    below a losses.build_loss_graph span.
    """

    def __init__(self, tracer: Tracer):
        self.names, self.parents = tracer.names, tracer.parents
        self.starts, self.ends = tracer.starts, tracer.ends
        self.counts = tracer.counts
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        in_graph = [False] * n
        # parents are allocated before their children, so one pass suffices
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                in_graph[i] = in_graph[p] or self.names[p] == "losses.build_loss_graph"
        self._agg: dict[tuple[str, bool], list] = {}
        for i in range(n):
            entry = self._agg.setdefault((self.names[i], in_graph[i]), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            # spans nest on one thread, so children never overlap each other
            entry[2] += dur[i] - child[i]

    def _sum(self, name, field, in_graph):
        keys = (in_graph,) if in_graph is not None else (False, True)
        return sum(self._agg.get((name, k), (0, 0.0, 0.0))[field] for k in keys)

    def calls(self, name, in_graph=None) -> int:
        return self._sum(name, 0, in_graph)

    def total(self, name, self_only=False, in_graph=None) -> float:
        return self._sum(name, 2 if self_only else 1, in_graph)

    def mean(self, name, self_only=False) -> float:
        n = self.calls(name)
        return self.total(name, self_only) / n if n else 0.0

    def step_times(self) -> list[float]:
        """Seconds from each step's sample_batch call to the end of its sgd_step."""
        open_step: dict[int, float] = {}
        out = []
        for i, name in enumerate(self.names):
            if name == "synthdata.sample_batch":
                open_step[self.parents[i]] = self.starts[i]
            elif name == "numerics.sgd_step" and self.parents[i] in open_step:
                out.append(self.ends[i] - open_step.pop(self.parents[i]))
        return out


# Layers whose self times, per step, should account for a training step.
STEP_LAYERS = (
    "synthdata.sample_batch", "synthdata.weak_augment", "synthdata.strong_augment",
    "model.featurize", "model.project_features", "model.project_proxies",
    "losses.partition_unlabeled", "losses.upc_negative_masks", "losses.sc_negative_masks",
    "losses.upc_loss", "losses.sc_loss", "losses.build_loss_graph", "losses.total_loss",
    "autograd.backward", "numerics.sgd_step",
)

COUNT_METRICS = (
    "model.featurize.calls_per_step", "losses.n_confident_per_step",
    "losses.n_unconfident_per_step", "losses.sc_anchors_per_step",
    "losses.negative_pairs_per_step", "losses.negative_pair_fraction",
    "autograd.nodes_per_step",
)


def _quantile(values, q) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q))


def layer_metrics(table: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    A step is one build_loss_graph call, which is one optimizer step in
    every training loop of the package. Featurizer and projector figures
    count the calls inside the loss graph; evaluation forwards are part of
    analysis.log_source_confidences and harness.train_one instead.
    """
    steps = table.calls("losses.build_loss_graph")
    counts = table.counts

    def per_step(value):
        return value / steps if steps else 0.0

    def ms_per_step(name, self_only=False, in_graph=None):
        return per_step(1e3 * table.total(name, self_only, in_graph))

    step_s = table.step_times()
    step_layers = sum(table.total(name, True, True if name.startswith("model.") else None)
                      for name in STEP_LAYERS)
    step_mean_ms = 1e3 * sum(step_s) / len(step_s) if step_s else 0.0
    examined = counts["pairs_examined"]
    return {
        "synthdata.sample_batch.ms_per_step": ms_per_step("synthdata.sample_batch"),
        "synthdata.augment.ms_per_step": ms_per_step("synthdata.weak_augment")
        + ms_per_step("synthdata.strong_augment"),
        "synthdata.generate_benchmark.ms": 1e3 * table.mean("synthdata.generate_benchmark"),
        "synthdata.export_benchmark.s": table.mean("synthdata.export_benchmark"),
        "model.featurize.ms_per_step": ms_per_step("model.featurize", in_graph=True),
        "model.featurize.calls_per_step": per_step(table.calls("model.featurize", in_graph=True)),
        "model.project.ms_per_step": ms_per_step("model.project_features", in_graph=True)
        + ms_per_step("model.project_proxies", in_graph=True),
        "losses.partition_unlabeled.ms_per_step": ms_per_step("losses.partition_unlabeled"),
        "losses.upc_negative_masks.ms_per_step": ms_per_step("losses.upc_negative_masks"),
        "losses.sc_negative_masks.ms_per_step": ms_per_step("losses.sc_negative_masks"),
        "losses.upc_loss.self_ms_per_step": ms_per_step("losses.upc_loss", self_only=True),
        "losses.sc_loss.self_ms_per_step": ms_per_step("losses.sc_loss", self_only=True),
        "losses.build_loss_graph.self_ms_per_step": ms_per_step("losses.build_loss_graph",
                                                                 self_only=True),
        "losses.n_confident_per_step": per_step(counts["n_confident"]),
        "losses.n_unconfident_per_step": per_step(counts["n_unconfident"]),
        "losses.sc_anchors_per_step": per_step(counts["sc_anchors"]),
        "losses.negative_pairs_per_step": per_step(counts["negative_pairs"]),
        "losses.negative_pair_fraction": counts["negative_pairs"] / examined if examined else 0.0,
        "autograd.backward.ms_per_step": ms_per_step("autograd.backward"),
        "autograd.nodes_per_step": per_step(counts["nodes"]),
        "numerics.sgd_step.ms_per_step": ms_per_step("numerics.sgd_step"),
        "analysis.log_source_confidences.ms_per_epoch":
            1e3 * table.mean("analysis.log_source_confidences"),
        "analysis.write_confidences_csv.s": table.mean("analysis.write_confidences_csv"),
        "analysis.load_confidence_log.s": table.mean("analysis.load_confidence_log"),
        "analysis.write_stats_csv.s": table.mean("analysis.write_stats_csv"),
        "harness.train_one.self_s": table.mean("harness.train_one", self_only=True),
        "harness.step.ms_p50": 1e3 * _quantile(step_s, 0.5),
        "harness.step.ms_p99": 1e3 * _quantile(step_s, 0.99),
        "harness.step.traced_share":
            per_step(1e3 * step_layers) / step_mean_ms if step_mean_ms else 0.0,
        "cli.train.s": table.mean("cli.train"),
        "cli.stats.s": table.mean("cli.stats"),
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
