"""Checked fit inputs and shared starting values for the iterative estimators.

Every fit runs check_fit_inputs once, before any work.  It owns three rules:
R1 the model and link suit the category counts (models._resolve_model), R2
k >= 1 and a Q matrix fits the panel, R3 start items and scores fit it.
"""
from __future__ import annotations

import numpy as np

from .identify import check_q_matrix
from .models import (
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    _resolve_model,
    as_link,
    as_model,
    response_matrix,
)
from .spectral import fit_svd_binary, fit_svd_ordinal

_P_CLIP = 1e-3
_START_LOADING = 0.5


def check_items(items, data, k: int) -> None:
    """R3 for a Dataset or a response matrix, which has no category counts:
    one ItemParams per panel item, each with k loadings and its category count."""
    n_items = response_matrix(data).shape[1]
    if len(items) != n_items:
        raise ValueError(f"{len(items)} items given for a panel of {n_items} items")
    for j, it in enumerate(items):
        if not isinstance(it, ItemParams) or it.k != k:
            raise ValueError(f"item {j} must be an ItemParams with {k} loadings")
        if isinstance(data, Dataset) and it.n_categories != data.categories[j]:
            raise ValueError(f"item {j} has {it.n_categories} categories, not {data.categories[j]}")


def check_fit_inputs(data: Dataset, k: int, model, link, q=None, items=None, thetas=None):
    """R1-R3 on a fit's inputs, thetas the start scores; returns (model, link, q)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")
    model, link = _resolve_model(model, link, data.categories)
    if q is not None:
        q = check_q_matrix(q, data.n_items, k, allow_empty_rows=True)
    if items is not None:
        check_items(items, data, k)
    if thetas is not None and np.shape(thetas) != (data.n_persons, k):
        raise ValueError(f"start scores must be (N, k) = ({data.n_persons}, {k})")
    return model, link, q


def freq_intercepts(data: Dataset, model: ModelKind, link: Link) -> list[np.ndarray]:
    """Marginal-frequency intercept starts, one array per item.

    Binary and graded items invert the link at the observed cumulative
    proportions; adjacent-odds items use log count ratios.
    """
    model = as_model(model)
    link = as_link(link)
    out = []
    for j in range(data.n_items):
        y = data.responses[:, j]
        y = y[y >= 0]
        cats = int(data.categories[j])
        counts = np.bincount(y, minlength=cats).astype(float)
        total = counts.sum()
        if model is ModelKind.BINARY:
            p = np.clip(counts[1] / total, _P_CLIP, 1.0 - _P_CLIP)
            out.append(np.array([float(link.inverse(p))]))
        elif model is ModelKind.GRADED:
            cum = np.clip(np.cumsum(counts)[:-1] / total, _P_CLIP, 1.0 - _P_CLIP)
            d = link.inverse(cum)
            out.append(np.maximum.accumulate(d))
        else:
            safe = np.maximum(counts, 0.5)
            out.append(np.log(safe[1:] / safe[:-1]))
    return out


def default_items(
    data: Dataset,
    k: int,
    model: ModelKind,
    link: Link,
    q: np.ndarray | None = None,
) -> list[ItemParams]:
    """Frequency intercepts with constant positive loadings on free entries."""
    model = as_model(model)
    intercepts = freq_intercepts(data, model, link)
    items = []
    for j in range(data.n_items):
        loadings = np.full(k, _START_LOADING)
        if q is not None:
            loadings = loadings * q[j]
        items.append(ItemParams(model, intercepts[j], loadings))
    return items


def spectral_start(
    data: Dataset,
    k: int,
    model: ModelKind,
    link: Link,
    q: np.ndarray | None = None,
) -> tuple[np.ndarray, list[ItemParams]]:
    """Spectral starting values for joint estimation: (thetas, items).

    For cumulative-model data the split matrices 1{y >= s} follow the
    reversed predictor, so the spectral loadings are negated here; intercept
    starts come from marginal frequencies for the multi-threshold models.
    """
    model, link, q = check_fit_inputs(data, k, model, link, q)
    if model is ModelKind.BINARY:
        fitted = fit_svd_binary(data, k, link)
        loadings = fitted.loadings
        intercept_list = [np.array([d]) for d in fitted.intercepts]
    else:
        fitted = fit_svd_ordinal(data, k, link)
        loadings = -fitted.loadings if model is ModelKind.GRADED else fitted.loadings
        intercept_list = freq_intercepts(data, model, link)
    if q is not None:
        loadings = loadings * q
    items = [ItemParams(model, d, a.copy()) for d, a in zip(intercept_list, loadings)]
    return fitted.thetas, items
