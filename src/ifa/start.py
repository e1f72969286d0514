"""Shared starting values for the iterative estimators."""
from __future__ import annotations

import numpy as np

from .models import Dataset, ItemParams, Link, ModelKind, as_link, as_model
from .spectral import fit_svd_binary, fit_svd_ordinal

_P_CLIP = 1e-3
_START_LOADING = 0.5


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
    model = as_model(model)
    link = as_link(link)
    if np.all(data.categories == 2) and model is ModelKind.BINARY:
        fitted = fit_svd_binary(data, k, link)
        loadings = fitted.loadings
        intercept_list = [np.array([d]) for d in fitted.intercepts]
    else:
        fitted = fit_svd_ordinal(data, k, link if model is not ModelKind.GPC else Link.LOGIT)
        loadings = -fitted.loadings if model is ModelKind.GRADED else fitted.loadings
        intercept_list = freq_intercepts(data, model, link)
    thetas = fitted.thetas
    items = []
    for j in range(data.n_items):
        a = loadings[j].copy()
        if q is not None:
            a = a * q[j]
        items.append(ItemParams(model, intercept_list[j], a))
    return thetas, items
