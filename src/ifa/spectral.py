"""Singular-value-decomposition estimator for item factor models.

Pipeline for a binary matrix: (1) singular triplets of the raw 0/1 matrix;
(2) keep singular values above 1.01 * sqrt(max(N, J)) (always at least k+1)
and reconstruct; (3) clip the reconstruction into [1e-4, 1 - 1e-4] and apply
the inverse link; (4) column-center to read off intercepts, then the top k
triplets of the centered matrix give thetas sqrt(N) * U and loadings
V * S / sqrt(N).  Triplets come from one eigh of the smaller Gram matrix and
one product with Y, which resolve singular values down to sqrt(eps) * s_max.
Ordinal matrices are handled by dichotomizing at every split point,
running the binary pipeline per split, aligning the per-split solutions to
the first usable split, and averaging.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .identify import align_loadings
from .models import Dataset, Link, as_link

_PROB_CLIP = 1e-4


@dataclass
class SpectralFit:
    thetas: np.ndarray
    loadings: np.ndarray
    intercepts: np.ndarray
    p_hat: np.ndarray
    splits_used: list = field(default_factory=list)


def singular_value_cutoff(n_persons: int, n_items: int) -> float:
    return 1.01 * np.sqrt(max(n_persons, n_items))


def _leading_triplets(y: np.ndarray, count) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top singular triplets (s, u, v) of y from its smaller Gram matrix.

    `count` maps the descending eigenvalues (squared singular values) to the
    number of triplets; the other side is y times the eigenvector over s, 0 at s = 0.
    """
    tall = y.shape[0] >= y.shape[1]
    lam, vecs = np.linalg.eigh(y.T @ y if tall else y @ y.T)
    lam = np.maximum(lam[::-1], 0.0)
    r = count(lam)
    vecs = vecs[:, ::-1][:, :r]
    s = np.sqrt(lam[:r])
    prod = y @ vecs if tall else y.T @ vecs
    other = np.divide(prod, s, out=np.zeros_like(prod), where=s > 0)
    return (s, other, vecs) if tall else (s, vecs, other)


def _denoise(y: np.ndarray, k: int) -> np.ndarray:
    def n_kept(lam):
        if int(np.sum(lam > lam[0] * max(y.shape) * np.finfo(float).eps)) < k:
            raise ValueError(f"data matrix has fewer than {k} informative singular values; "
                             f"cannot extract {k} factors")
        return max(int(np.sum(lam > singular_value_cutoff(*y.shape) ** 2)), k + 1)

    s, u, v = _leading_triplets(y, n_kept)
    p = (u * s) @ v.T
    return np.clip(p, _PROB_CLIP, 1.0 - _PROB_CLIP, out=p)


def decompose_probability_matrix(p_matrix, k: int, link: Link = Link.LOGIT):
    """Steps 3-4: inverse link, column-center, rank-k factorization.

    Returns (thetas, loadings, intercepts).  Loading columns follow the
    non-negative-column-sum sign convention.
    """
    link = as_link(link)
    p = np.clip(np.asarray(p_matrix, dtype=float), _PROB_CLIP, 1.0 - _PROB_CLIP)
    n = p.shape[0]
    m = link.inverse(p, out=p)  # p is the clipped copy
    intercepts = m.mean(axis=0)
    m -= intercepts[None, :]
    s, u, v = _leading_triplets(m, lambda lam: k)
    thetas = np.sqrt(n) * u
    loadings = v * (s / np.sqrt(n))[None, :]
    flip = loadings.sum(axis=0) < 0
    loadings[:, flip] *= -1.0
    thetas[:, flip] *= -1.0
    return thetas, loadings, intercepts


def _filled_binary(binary: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Missing cells take the item's observed mean (Dataset ensures one)."""
    out = binary.astype(float)
    if observed.all():
        return out
    col_mean = np.sum(np.where(observed, out, 0.0), axis=0) / observed.sum(axis=0)
    return np.where(observed, out, col_mean[None, :])


def _binary_pipeline(binary, observed, k, link):
    filled = _filled_binary(binary, observed)
    p_hat = _denoise(filled, k)
    thetas, loadings, intercepts = decompose_probability_matrix(p_hat, k, link)
    return thetas, loadings, intercepts, p_hat


def require_rank(data: Dataset, k: int) -> None:
    """Reject panels too small to identify k factors (k+1 persons and items)."""
    if min(data.n_persons, data.n_items) < k + 1:
        raise ValueError("spectral estimation needs at least k+1 persons and items")


def fit_svd_binary(data: Dataset, k: int, link: Link = Link.LOGIT) -> SpectralFit:
    """Spectral estimator for a binary dataset: the one split of fit_svd_ordinal."""
    if np.any(data.categories != 2):
        raise ValueError("fit_svd_binary requires every item to be binary")
    return fit_svd_ordinal(data, k, link)


def fit_svd_ordinal(data: Dataset, k: int, link: Link = Link.LOGIT) -> SpectralFit:
    """Spectral estimator for ordinal data via split-point dichotomization.

    Split s dichotomizes at 1{y >= s}.  Splits whose columns are all constant
    are skipped, except the only split of a binary panel, which then gives
    the degenerate rank-one fit or the rank error.  Per-split solutions are
    aligned to the first usable split; each item's loading estimate averages
    over the splits below its own category count, and thetas average over all
    usable splits.
    """
    link = as_link(link)
    require_rank(data, k)
    observed = data.observed_mask
    max_split = int(data.categories.max()) - 1
    ref_loadings = None
    per_split = []
    used = []
    for s in range(1, max_split + 1):
        binary = data.responses >= s
        if max_split > 1 and np.all(~(binary & observed).any(0) | ~(~binary & observed).any(0)):
            continue
        thetas, loadings, intercepts, p_hat = _binary_pipeline(binary, observed, k, link)
        if ref_loadings is None:
            ref_loadings = loadings
            aligned_loads, aligned_thetas = loadings, thetas
        else:
            try:
                res = align_loadings(loadings, ref_loadings)
            except ValueError:
                continue  # degenerate split; provides no usable rotation
            aligned_loads = loadings @ res.transform.T
            aligned_thetas = thetas @ np.linalg.inv(res.transform)
        per_split.append((s, aligned_thetas, aligned_loads, intercepts, p_hat))
        used.append(s)
    if not per_split:
        raise ValueError("no usable split: every dichotomization is constant")
    first = per_split[0]
    if len(per_split) == 1:
        return SpectralFit(*first[1:], splits_used=used)
    thetas = np.mean([t for _, t, _, _, _ in per_split], axis=0)
    loadings = np.zeros_like(first[2])
    counts = np.zeros(data.n_items)
    for s, _, loads, _, _ in per_split:
        valid = data.categories - 1 >= s
        loadings[valid] += loads[valid]
        counts[valid] += 1
    loadings /= np.maximum(counts, 1)[:, None]
    return SpectralFit(thetas, loadings, first[3], first[4], splits_used=used)
