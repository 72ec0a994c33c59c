"""Desk-scale laboratory for semi-supervised domain generalization.

A FixMatch-style baseline over a synthetic multi-domain benchmark, extended
with two contrastive objectives on the unlabeled pool: confident samples pull
toward their pseudo-label proxy, unconfident samples pull toward a
confidence-weighted surrogate built from their candidate classes.
"""

__version__ = "0.1.0"

from . import numerics

numerics.pin_blas_threads()
numerics.pin_malloc_thresholds()
