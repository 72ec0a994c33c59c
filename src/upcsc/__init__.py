"""Desk-scale laboratory for semi-supervised domain generalization.

A FixMatch-style baseline over a synthetic multi-domain benchmark, extended
with two contrastive objectives on the unlabeled pool: confident samples pull
toward their pseudo-label proxy, unconfident samples pull toward a
confidence-weighted surrogate built from their candidate classes.
"""

__version__ = "0.1.0"

from .errors import (ConfigError, DataError, DegenerateInputError, DivergenceError,
                     ShapeError, UndefinedStatisticError)
from .losses import (BatchPartition, LossBreakdown, MethodFlags, build_loss_graph,
                     param_gradients, partition_unlabeled, sc_anchor_indices, sc_loss,
                     sc_negative_masks, total_loss, upc_loss, upc_negative_masks)
from .model import (ModelDims, ModelState, class_confidence, featurize, init_model,
                    load_model, param_layout, project_features, project_proxies, save_model)
from .harness import (METHODS, ProtocolResult, RunRecord, TrainConfig,
                      build_train_config, run_protocol, train_one)
from .synthdata import (BenchmarkConfig, DomainBenchmark, DomainSpec,
                        export_benchmark, generate_benchmark, sample_batch,
                        strong_augment, weak_augment)
from . import numerics

numerics.pin_blas_threads()
numerics.pin_malloc_thresholds()

__all__ = [name for name in dir() if not name.startswith("_")]
