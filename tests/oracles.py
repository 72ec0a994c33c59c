"""Plain-loop reference implementations the tests check the package against."""

import math

import numpy as np

from upcsc.errors import DataError, ShapeError
from upcsc.numerics import as_matrix


def pcl_reference_loss(z, w, labels) -> float:
    """Plain-loop proxy contrastive loss over fully labeled embeddings.

    Positive pair (z_i, w_{y_i}); negatives are embeddings of samples with a
    different label. Kept deliberately naive to serve as a value oracle.
    """
    z = as_matrix(z)
    w = as_matrix(w)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(z):
        raise ShapeError("labels and embeddings disagree in length")
    if z.shape[1] != w.shape[1]:
        raise ShapeError("embedding and proxy widths differ")
    if len(z) == 0:
        raise DataError("reference loss needs at least one sample")
    total = 0.0
    for i in range(len(z)):
        pos = math.exp(float(z[i] @ w[labels[i]]))
        rest = 0.0
        for j in range(len(z)):
            if labels[j] != labels[i]:
                rest += math.exp(float(z[i] @ z[j]))
        total += -math.log(pos / (pos + rest))
    return total / len(z)
