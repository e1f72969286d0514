"""Ground-truth simulation and recovery metrics.

Simulated panels drive every estimator comparison: persons are drawn from a
correlated multivariate normal, responses independently per item given the
person factors.  Recovery metrics quantify probability error, loading error
up to an invertible alignment, confirmatory (unaligned) loading error, and
per-factor correlation of recovered factor scores.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .identify import align_loadings, check_q_matrix
from .models import (
    MISSING,
    Dataset,
    FactorConfig,
    ItemParams,
    Link,
    ModelKind,
    as_link,
    as_model,
    category_probs,
    loadings_matrix,
)


@dataclass
class SimSpec:
    """Recipe for one simulated dataset."""

    n_persons: int
    n_items: int
    k: int = 1
    model: ModelKind = ModelKind.BINARY
    link: Link = Link.LOGIT
    categories: int = 2
    loading_range: tuple[float, float] = (0.5, 1.5)
    intercept_range: tuple[float, float] = (-1.0, 1.0)
    threshold_range: tuple[float, float] = (-1.5, 1.5)
    q_matrix: np.ndarray | None = None
    correlation: np.ndarray | None = None
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        self.model = as_model(self.model)
        self.link = as_link(self.link)
        if self.n_persons < 1 or self.n_items < 1 or self.k < 1:
            raise ValueError("n_persons, n_items, and k must be positive")
        if self.model is ModelKind.BINARY and self.categories != 2:
            raise ValueError("binary model requires categories == 2")
        if self.categories < 2:
            raise ValueError("categories must be at least 2")
        for rng_pair in (self.loading_range, self.intercept_range, self.threshold_range):
            if len(rng_pair) != 2 or not np.all(np.isfinite(rng_pair)):
                raise ValueError("parameter ranges must be finite (low, high) pairs")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")
        if self.q_matrix is not None:
            self.q_matrix = check_q_matrix(self.q_matrix, self.n_items, self.k)

    def factor_config(self) -> FactorConfig:
        corr = np.eye(self.k) if self.correlation is None else self.correlation
        return FactorConfig(self.k, corr)


@dataclass
class RecoveryReport:
    prob_mse: float
    aligned_loading_loss: float
    q_loading_loss: float
    theta_correlation: np.ndarray

    def as_row(self) -> dict:
        row = {
            "prob_mse": self.prob_mse,
            "aligned_loading_loss": self.aligned_loading_loss,
            "q_loading_loss": self.q_loading_loss,
        }
        for f, value in enumerate(self.theta_correlation):
            row[f"theta_corr_{f + 1}"] = float(value)
        return row


def draw_items(spec: SimSpec, rng: np.random.Generator) -> list[ItemParams]:
    """Draw true item parameters under the spec's sampling laws."""
    lo_a, hi_a = spec.loading_range
    lo_d, hi_d = spec.intercept_range
    lo_t, hi_t = spec.threshold_range
    items = []
    for j in range(spec.n_items):
        loadings = rng.uniform(lo_a, hi_a, size=spec.k)
        if spec.q_matrix is not None:
            loadings = loadings * spec.q_matrix[j]
        if spec.model is ModelKind.BINARY:
            intercepts = rng.uniform(lo_d, hi_d, size=1)
        elif spec.model is ModelKind.GRADED:
            intercepts = np.sort(rng.uniform(lo_t, hi_t, size=spec.categories - 1))
        else:
            intercepts = rng.uniform(lo_d, hi_d, size=spec.categories - 1)
        items.append(ItemParams(spec.model, intercepts, loadings))
    return items


def draw_thetas(spec: SimSpec, rng: np.random.Generator) -> np.ndarray:
    config = spec.factor_config()
    z = rng.standard_normal((spec.n_persons, spec.k))
    return z @ np.linalg.cholesky(config.correlation).T


def draw_responses(thetas, items, link, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF category draws, independent across items given theta."""
    n = thetas.shape[0]
    out = np.empty((n, len(items)), dtype=np.int64)
    for j, item in enumerate(items):
        probs = category_probs(thetas, item, link)
        cum = np.cumsum(probs, axis=1)
        u = rng.random(n)
        out[:, j] = np.minimum(
            (u[:, None] > cum).sum(axis=1), item.n_categories - 1
        )
    return out


def simulate(spec: SimSpec) -> tuple[Dataset, np.ndarray, list[ItemParams]]:
    """Simulate a dataset; returns (data, true thetas, true items).

    A single master-seeded stream drives parameter draws, person factors,
    responses, and missingness in a fixed order, so equal seeds give
    byte-identical output.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    items = draw_items(spec, rng)
    thetas = draw_thetas(spec, rng)
    responses = draw_responses(thetas, items, spec.link, rng)
    if spec.missing_rate > 0.0:
        mask = rng.random(responses.shape) < spec.missing_rate
        # keep the Dataset invariant: no all-missing row or column
        full_rows = mask.all(axis=1)
        mask[full_rows, 0] = False
        full_cols = mask.all(axis=0)
        mask[0, full_cols] = False
        responses = np.where(mask, MISSING, responses)
    categories = np.array([item.n_categories for item in items])
    return Dataset(responses, categories), thetas, items


def prob_mse(true_thetas, true_items, fitted_thetas, fitted_items, link=Link.LOGIT) -> float:
    """Average over persons, items, and categories of squared probability error.

    Invariant under any simultaneous transform theta -> H theta,
    a -> H^{-T} a since the category probabilities are unchanged.
    """
    link = as_link(link)
    if len(true_items) != len(fitted_items):
        raise ValueError("item lists must have equal length")
    if true_thetas.shape[0] != fitted_thetas.shape[0]:
        raise ValueError("theta row counts must match")
    total = 0.0
    for item_t, item_f in zip(true_items, fitted_items):
        if item_t.n_categories != item_f.n_categories:
            raise ValueError("category counts must match item by item")
        p_t = category_probs(true_thetas, item_t, link)
        p_f = category_probs(fitted_thetas, item_f, link)
        total += float(np.mean((p_t - p_f) ** 2))
    return total / len(true_items)


def theta_correlations(true_thetas: np.ndarray, fitted_thetas: np.ndarray) -> np.ndarray:
    """Per-factor correlation after least-squares alignment of fit onto truth."""
    if true_thetas.shape != fitted_thetas.shape:
        raise ValueError("theta arrays must share a shape")
    coef, *_ = np.linalg.lstsq(fitted_thetas, true_thetas, rcond=None)
    aligned = fitted_thetas @ coef
    k = true_thetas.shape[1]
    out = np.zeros(k)
    for f in range(k):
        st = true_thetas[:, f].std()
        sa = aligned[:, f].std()
        if st > 0 and sa > 0:
            out[f] = float(np.corrcoef(true_thetas[:, f], aligned[:, f])[0, 1])
    return out


def recovery_report(
    true_thetas,
    true_items,
    fitted_thetas,
    fitted_items,
    link=Link.LOGIT,
) -> RecoveryReport:
    """All recovery metrics for one (truth, fit) pair.

    The exploratory loading loss aligns the fit to the truth with the best
    invertible transform; the confirmatory loss compares entries directly.
    """
    link = as_link(link)
    a_true = loadings_matrix(true_items)
    a_fit = loadings_matrix(fitted_items)
    if a_true.shape != a_fit.shape:
        raise ValueError("loading matrices must share a shape")
    j, k = a_true.shape
    mse = prob_mse(true_thetas, true_items, fitted_thetas, fitted_items, link)
    try:
        aligned_loss = align_loadings(a_fit, a_true).loss
    except ValueError:
        aligned_loss = float(np.sum((a_true - a_fit) ** 2) / (j * k))
    q_loss = float(np.sum((a_true - a_fit) ** 2) / (j * k))
    corr = theta_correlations(np.asarray(true_thetas, dtype=float),
                              np.asarray(fitted_thetas, dtype=float))
    return RecoveryReport(mse, aligned_loss, q_loss, corr)
