"""Synthetic multi-domain benchmark: shared latent class structure observed
through per-domain linear distortions, with labeled/unlabeled/test splits and
noise-based weak/strong augmentations.

Ground-truth labels of the unlabeled split are quarantined: they live in a
separate field (and a separate *_truth.csv on disk) that only the analysis
module reads. Training code sees unlabeled inputs only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .csvio import FLOAT_FORMAT, format_rows, write_csv
from .errors import ConfigError, DataError, bounded, check_fields
from .numerics import substream

TEST_FRACTION = 0.2

# substream tags under the master seed
_TAG_PROTOTYPES = 0
_TAG_DOMAIN_SPEC = 1
_TAG_SAMPLES = 2
_TAG_SPLITS = 3


@dataclass(frozen=True)
class BenchmarkConfig:
    num_domains: int = bounded(4, least=2)
    num_classes: int = bounded(7, least=2)
    latent_dim: int = bounded(32, least=1)
    samples_per_class_per_domain: int = 500   # bounded by the unlabeled majority below
    labels_per_class: int = bounded(10, least=1)
    class_separation: float = bounded(7.5, least=0)
    master_seed: int = bounded(0, least=0)
    # domain-shift strength
    rotation_max_angle: float = bounded(1.1, least=0)   # radians, per rotation plane
    scale_log_range: float = bounded(0.45, least=0)     # per-axis scale in exp(+-range)
    shift_sigma: float = bounded(1.0, least=0)
    noise_sigma: float = bounded(1.875, least=0)
    # view noise, read by augment_views
    sigma_weak: float = bounded(0.05, least=0)
    sigma_strong: float = bounded(0.5, least=0)
    # at 1 every strong view is all zeros and has no projection direction
    strong_dropout: float = bounded(0.2, least=0, below=1)

    def __post_init__(self):
        check_fields(self)
        # an unlabeled majority; this also keeps labels_per_class < samples_per_class_per_domain
        spc, lpc = self.samples_per_class_per_domain, self.labels_per_class
        if spc - self.test_per_class() <= 2 * lpc:
            raise ConfigError(f"'samples_per_class_per_domain' = {spc} less its test split "
                              f"must exceed twice 'labels_per_class' = {lpc}")

    def test_per_class(self) -> int:
        return max(1, round(TEST_FRACTION * self.samples_per_class_per_domain))


@dataclass
class DomainSpec:
    """Linear observation model of one domain: x = R (s * latent) + shift."""
    rotation: np.ndarray   # (k, k) orthogonal
    scale: np.ndarray      # (k,) positive per-axis factors
    shift: np.ndarray      # (k,)

    def apply(self, latent: np.ndarray) -> np.ndarray:
        return (latent * self.scale) @ self.rotation.T + self.shift


def random_rotation(latent_dim: int, rng: np.random.Generator, max_angle: float) -> np.ndarray:
    """Orthogonal matrix rotating k//2 random planes by angles in [0, max_angle].

    Built as U B U^T with U a random orthonormal basis and B block-diagonal
    2x2 rotations, so max_angle = 0 yields the exact identity and small angles
    yield near-identity maps.
    """
    if max_angle == 0.0:
        return np.eye(latent_dim)
    g = rng.standard_normal((latent_dim, latent_dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix signs so the basis is draw-stable
    b = np.eye(latent_dim)
    for i in range(0, latent_dim - 1, 2):
        theta = rng.uniform(0.0, max_angle)
        c, s = math.cos(theta), math.sin(theta)
        b[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
    return q @ b @ q.T


@dataclass
class DomainSplits:
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_truth: np.ndarray  # quarantined; analysis-only
    test_x: np.ndarray
    test_y: np.ndarray


class DomainBenchmark:
    """Generated domains, read split by split through `_get`."""

    def __init__(self, config: BenchmarkConfig, prototypes, specs, domains):
        self.config = config
        self.prototypes = prototypes   # (C, k) latent class centers
        self.specs = specs             # list[DomainSpec]
        self._domains = domains        # list[DomainSplits]

    @property
    def domain_ids(self) -> list[int]:
        return list(range(len(self._domains)))

    def _get(self, domain: int, split: str) -> DomainSplits:
        """The domain's splits; `split` names the one the caller reads, so
        wrapping this method audits which data a run touches."""
        if not 0 <= domain < len(self._domains):
            raise KeyError(f"no domain {domain}")
        return self._domains[domain]

    def labeled(self, domain: int) -> tuple[np.ndarray, np.ndarray]:
        d = self._get(domain, "labeled")
        return d.labeled_x, d.labeled_y

    def unlabeled(self, domain: int) -> np.ndarray:
        return self._get(domain, "unlabeled").unlabeled_x

    def quarantined_truth(self, domain: int) -> np.ndarray:
        """Unlabeled-split ground truth. Only analysis code may call this."""
        return self._get(domain, "truth").unlabeled_truth

    def test(self, domain: int) -> tuple[np.ndarray, np.ndarray]:
        d = self._get(domain, "test")
        return d.test_x, d.test_y

    def without_domain(self, target: int) -> "TrainingView":
        if not 0 <= target < len(self._domains):
            raise KeyError(f"no domain {target}")
        return TrainingView(self, target)


class TrainingView:
    """Source-domain window onto a benchmark; the target is unreachable."""

    def __init__(self, benchmark: DomainBenchmark, excluded: int):
        self._benchmark = benchmark
        self.excluded = excluded
        self.source_ids = [d for d in benchmark.domain_ids if d != excluded]

    def _check(self, domain: int):
        if domain == self.excluded:
            raise KeyError(f"domain {domain} is held out from this view")

    def labeled(self, domain: int):
        self._check(domain)
        return self._benchmark.labeled(domain)

    def unlabeled(self, domain: int):
        self._check(domain)
        return self._benchmark.unlabeled(domain)


@np.errstate(over="ignore", invalid="ignore")
def generate_benchmark(config: BenchmarkConfig) -> DomainBenchmark:
    """Deterministic benchmark: fixed entirely by the config (master_seed included).
    Scales whose data overflow float64 are a ConfigError naming their keys."""
    c, k = config.num_classes, config.latent_dim
    proto_rng = substream(config.master_seed, _TAG_PROTOTYPES)
    directions = proto_rng.standard_normal((c, k))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    prototypes = directions * config.class_separation

    specs = []
    domains = []
    spc = config.samples_per_class_per_domain
    tpc = config.test_per_class()
    lpc = config.labels_per_class
    for d in range(config.num_domains):
        spec_rng = substream(config.master_seed, _TAG_DOMAIN_SPEC, d)
        rotation = random_rotation(k, spec_rng, config.rotation_max_angle)
        scale = np.exp(spec_rng.uniform(-config.scale_log_range, config.scale_log_range, size=k))
        shift = spec_rng.normal(0.0, config.shift_sigma, size=k)
        spec = DomainSpec(rotation, scale, shift)
        specs.append(spec)

        sample_rng = substream(config.master_seed, _TAG_SAMPLES, d)
        split_rng = substream(config.master_seed, _TAG_SPLITS, d)
        lab_x, lab_y, unl_x, unl_y, tst_x, tst_y = [], [], [], [], [], []
        for y in range(c):
            latent = prototypes[y] + sample_rng.normal(0.0, config.noise_sigma, size=(spc, k))
            x = spec.apply(latent)
            order = split_rng.permutation(spc)
            lab = order[:lpc]
            tst = order[lpc:lpc + tpc]
            unl = order[lpc + tpc:]
            lab_x.append(x[lab]); lab_y.append(np.full(len(lab), y))
            tst_x.append(x[tst]); tst_y.append(np.full(len(tst), y))
            unl_x.append(x[unl]); unl_y.append(np.full(len(unl), y))

        def stack(xs, ys, rng):
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            order = rng.permutation(len(y))
            return x[order], y[order]

        lx, ly = stack(lab_x, lab_y, split_rng)
        ux, uy = stack(unl_x, unl_y, split_rng)
        tx, ty = stack(tst_x, tst_y, split_rng)
        domains.append(DomainSplits(lx, ly, ux, uy, tx, ty))

    if not all(np.isfinite(x).all() for d in domains for x in (d.labeled_x, d.unlabeled_x, d.test_x)):
        raise ConfigError("the generated data overflow float64; lower 'class_separation', "
                          "'scale_log_range', 'shift_sigma' or 'noise_sigma'")
    return DomainBenchmark(config, prototypes, specs, domains)


def weak_augment(x: np.ndarray, rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Additive isotropic Gaussian noise."""
    x = np.asarray(x, dtype=np.float64)
    return x + sigma * rng.standard_normal(x.shape)


def strong_augment(x: np.ndarray, rng: np.random.Generator, sigma: float,
                   dropout: float) -> np.ndarray:
    """Heavier Gaussian noise followed by independent coordinate dropout."""
    x = np.asarray(x, dtype=np.float64)
    noisy = x + sigma * rng.standard_normal(x.shape)
    keep = rng.random(x.shape) >= dropout
    return noisy * keep


def augment_views(x: np.ndarray, rng: np.random.Generator, config: BenchmarkConfig) -> np.ndarray:
    """x's weak views stacked over its strong views, (2n, k), at the config's
    noise settings; every weak view is drawn from rng before any strong one."""
    return np.concatenate([weak_augment(x, rng, config.sigma_weak),
                           strong_augment(x, rng, config.sigma_strong, config.strong_dropout)])


@dataclass
class TrainBatch:
    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray


def sample_batch(view, labeled_per_domain: int, unlabeled_per_domain: int,
                 rng: np.random.Generator) -> TrainBatch:
    """Draw a balanced batch across the view's source domains.

    Sampling is without replacement inside one batch whenever the split is
    large enough, with replacement otherwise.
    """
    if labeled_per_domain < 1 or unlabeled_per_domain < 1:
        raise ConfigError("per-domain batch sizes must be positive")

    def pick(n_avail: int, n_want: int) -> np.ndarray:
        if n_avail == 0:
            raise DataError("cannot sample from an empty split")
        return rng.choice(n_avail, size=n_want, replace=n_avail < n_want)

    lx, ly, ux = [], [], []
    for d in view.source_ids:
        x, y = view.labeled(d)
        idx = pick(len(y), labeled_per_domain)
        lx.append(x[idx]); ly.append(y[idx])
        xu = view.unlabeled(d)
        ux.append(xu[pick(len(xu), unlabeled_per_domain)])
    return TrainBatch(np.concatenate(lx), np.concatenate(ly), np.concatenate(ux))


# ---------------------------------------------------------------- CSV export

def _write_xy(path, x: np.ndarray, y) -> None:
    k = x.shape[1]
    write_csv(path, [f"x_{i}" for i in range(k)] + ["label"],
              format_rows(",".join([FLOAT_FORMAT] * k) + ",%d", x, np.asarray(y)))


def truth_sidecar(directory, domain: int) -> tuple[str, list[str]]:
    """Path and header of the CSV that holds a domain's unlabeled labels."""
    return os.path.join(directory, f"domain{domain}_unlabeled_truth.csv"), ["label"]


def export_truth(benchmark: DomainBenchmark, out_dir) -> None:
    """Each domain's truth_sidecar: the labels of its unlabeled split."""
    os.makedirs(out_dir, exist_ok=True)
    for d in benchmark.domain_ids:
        write_csv(*truth_sidecar(out_dir, d), format_rows("%d", benchmark.quarantined_truth(d)))


def export_benchmark(benchmark: DomainBenchmark, out_dir) -> None:
    """One CSV per (domain, split); unlabeled labels are written as -1 and
    the real labels go to the truth sidecars that export_truth writes.
    """
    export_truth(benchmark, out_dir)
    for d in benchmark.domain_ids:
        _write_xy(os.path.join(out_dir, f"domain{d}_labeled.csv"), *benchmark.labeled(d))
        ux = benchmark.unlabeled(d)
        _write_xy(os.path.join(out_dir, f"domain{d}_unlabeled.csv"), ux, np.full(len(ux), -1))
        _write_xy(os.path.join(out_dir, f"domain{d}_test.csv"), *benchmark.test(d))

