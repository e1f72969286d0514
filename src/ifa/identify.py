"""Identification helpers: factor standardization, loading alignment, Q-matrix checks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class AlignmentResult:
    """Least-squares alignment of an estimated loading matrix to a reference."""

    transform: np.ndarray  # K x K matrix H with reference_j ~ H @ estimate_j
    loss: float            # sum_j ||ref_j - H est_j||^2 / (J * K)


def standardize_factors(thetas):
    """Center and scale each factor column to mean 0, variance 1 (divisor N).

    Returns (standardized, location, scale).  Columns with zero variance are
    rejected: the scale is undefined there.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("thetas must be N x K")
    location = thetas.mean(axis=0)
    centered = thetas - location
    scale = np.sqrt(np.mean(centered**2, axis=0))
    if np.any(scale <= 0):
        raise ValueError("cannot standardize a zero-variance factor column")
    return centered / scale, location, scale


def align_loadings(estimated, reference) -> AlignmentResult:
    """Best K x K transform H minimizing sum_j ||ref_j - H est_j||^2.

    Unconstrained least squares, solved through the normal equations.  The
    normalized loss is invariant to any invertible transform applied to the
    estimated loadings.
    """
    est = np.asarray(estimated, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if est.shape != ref.shape or est.ndim != 2:
        raise ValueError("estimated and reference loadings must share shape (J, K)")
    j, k = est.shape
    gram = est.T @ est
    if np.linalg.matrix_rank(gram, tol=1e-10 * max(1.0, np.abs(gram).max())) < k:
        raise ValueError("estimated loadings are rank deficient; alignment is not unique")
    h_t = np.linalg.solve(gram, est.T @ ref)
    residual = ref - est @ h_t
    loss = float(np.sum(residual**2) / (j * k))
    return AlignmentResult(transform=h_t.T, loss=loss)


def check_q_matrix(q, n_items=None, k=None, allow_empty_rows=False) -> np.ndarray:
    """Validate a binary loading-structure matrix (J x K, each row has a 1).

    allow_empty_rows permits all-zero rows (an item with every loading
    frozen), which the fitting engines accept even though a user-facing
    design matrix should not contain such rows.
    """
    q = np.asarray(q)
    if q.ndim != 2:
        raise ValueError("q must be a J x K matrix")
    if not np.isin(q, (0, 1)).all():
        raise ValueError("q entries must be 0 or 1")
    q = q.astype(int)
    if n_items is not None and q.shape[0] != n_items:
        raise ValueError("q must have one row per item")
    if k is not None and q.shape[1] != k:
        raise ValueError("q must have one column per factor")
    if not allow_empty_rows and not q.any(axis=1).all():
        raise ValueError("each q row must free at least one loading")
    return q
