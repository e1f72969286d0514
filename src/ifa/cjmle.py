"""Constrained joint maximum likelihood by alternating block maximization.

Person and item blocks are updated in turn with a few projected Newton steps
each; both parameter groups live in Euclidean balls of radius C (person
factor vectors, and full item vectors of intercepts plus loadings), which
keeps extreme response patterns from driving estimates to infinity.  After
convergence the factor scores are standardized to mean zero and unit
variance per factor, with the compensating transform applied to the items.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .identify import check_q_matrix, standardize_factors
from .itemfit import fit_item, project_ball
from .models import (
    MISSING,
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    as_link,
    as_model,
    loadings_matrix,
    log_joint_likelihood,
    person_logliks,
    pointwise_score,
    response_matrix,
)
from .start import spectral_start


@dataclass
class CjmleConfig:
    c_radius: float | None = None  # None resolves to 5 * sqrt(k)
    max_iters: int = 200
    tol: float = 1e-5
    inner_steps: int = 5

    def __post_init__(self) -> None:
        if self.c_radius is not None and self.c_radius <= 0:
            raise ValueError("c_radius must be positive")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1 or self.inner_steps < 1:
            raise ValueError("iteration counts must be positive")

    def radius(self, k: int) -> float:
        return self.c_radius if self.c_radius is not None else 5.0 * np.sqrt(k)


@dataclass
class CjmleFit:
    thetas: np.ndarray
    items: list
    trajectory: np.ndarray
    converged: bool
    n_iters: int
    flagged_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    flagged_items: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))


def _project_rows(thetas: np.ndarray, radius: float) -> np.ndarray:
    norms = np.linalg.norm(thetas, axis=1)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return thetas * scale[:, None]


def _all_binary(items) -> bool:
    return all(item.kind is ModelKind.BINARY for item in items)


def _binary_parts(items):
    a = loadings_matrix(items)
    d = np.array([item.intercepts[0] for item in items])
    return a, d


def _binary_cell_logliks(z, y01, link: Link):
    sign = np.where(y01 == 1, 1.0, -1.0)
    return link.log_cdf(sign * z)


def _binary_scores(z, y01, link: Link):
    """Score and curvature w.r.t. the linear predictor, whole matrix at once."""
    sign = np.where(y01 == 1, 1.0, -1.0)
    if link is Link.LOGIT:
        p = link.cdf(z)
        return y01 - p, -p * (1.0 - p)
    sz = sign * z
    lam = np.exp(-0.5 * sz * sz - 0.5 * np.log(2.0 * np.pi) - link.log_cdf(sz))
    return sign * lam, -lam * (sz + lam)


def _row_objective(responses, thetas, items, link: Link, observed) -> np.ndarray:
    if _all_binary(items):
        a, d = _binary_parts(items)
        z = thetas @ a.T + d[None, :]
        cell = _binary_cell_logliks(z, responses == 1, link)
        return np.sum(np.where(observed, cell, 0.0), axis=1)
    return person_logliks(responses, thetas, items, link)


def _score_matrices(responses, thetas, items, link: Link, observed):
    """(N, J) score and curvature matrices, zero at missing cells."""
    n, j = responses.shape
    if _all_binary(items):
        a, d = _binary_parts(items)
        z = thetas @ a.T + d[None, :]
        s, c = _binary_scores(z, responses == 1, link)
        return np.where(observed, s, 0.0), np.where(observed, c, 0.0)
    s = np.zeros((n, j))
    c = np.zeros((n, j))
    for idx, item in enumerate(items):
        mask = observed[:, idx]
        if not mask.any():
            continue
        sj, cj = pointwise_score(responses[mask, idx], thetas[mask], item, link)
        s[mask, idx] = sj
        c[mask, idx] = cj
    return s, c


def update_person_block(data, items, thetas, config: CjmleConfig, link: Link = Link.LOGIT):
    """Projected Newton ascent on every person's row log-likelihood.

    Rows are updated independently; each inner step backtracks per row and
    keeps the previous iterate when no halved step improves.  Returns
    (thetas, flagged_rows) where flagged rows exhausted the line search.
    """
    link = as_link(link)
    responses = response_matrix(data)
    observed = responses != MISSING
    k = thetas.shape[1]
    radius = config.radius(k)
    thetas = _project_rows(np.array(thetas, dtype=float), radius)
    a = loadings_matrix(items)
    flagged = np.zeros(thetas.shape[0], dtype=bool)
    for _ in range(config.inner_steps):
        s, c = _score_matrices(responses, thetas, items, link, observed)
        grad = s @ a
        hess = np.einsum("ij,ja,jb->iab", c, a, a)
        damp = -hess
        ridge = 1e-9 * (1.0 + np.abs(np.diagonal(damp, axis1=1, axis2=2)).max(axis=1))
        damp[:, np.arange(k), np.arange(k)] += ridge[:, None]
        try:
            direction = np.linalg.solve(damp, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            direction = grad.copy()
        ascent = np.einsum("ik,ik->i", direction, grad)
        bad = ascent <= 0
        direction[bad] = grad[bad]
        # rows with grad below ~1e-6 are resolved to float rounding: a Newton
        # step there improves the objective by less than machine epsilon, so
        # the search cannot succeed and the row is left alone, not flagged
        moving = (np.einsum("ik,ik->i", direction, grad) > 0) & (
            np.abs(grad).max(axis=1) > 1e-6
        )
        active = np.where(moving)[0]
        if active.size == 0:
            break
        obj = _row_objective(responses, thetas, items, link, observed)
        alpha = np.ones(active.size)
        remaining = active
        improved_any = False
        for _ in range(30):
            cand = _project_rows(
                thetas[remaining] + alpha[:, None] * direction[remaining], radius
            )
            cand_obj = _row_objective(
                responses[remaining], cand, items, link, observed[remaining]
            )
            better = cand_obj > obj[remaining]
            if better.any():
                rows = remaining[better]
                thetas[rows] = cand[better]
                improved_any = True
            remaining = remaining[~better]
            alpha = alpha[~better] * 0.5
            if remaining.size == 0:
                break
        flagged[remaining] = True
        if not improved_any:
            break
    return thetas, np.where(flagged)[0]


def update_item_block(
    data,
    thetas,
    items,
    config: CjmleConfig,
    q: np.ndarray | None = None,
    link: Link = Link.LOGIT,
):
    """Per-item projected Newton updates with frozen Q-masked loadings.

    Returns (items, flagged_items); an item is flagged when its line search
    failed or the ball constraint is active (separable columns included).
    """
    link = as_link(link)
    responses = response_matrix(data)
    radius = config.radius(thetas.shape[1])
    new_items = []
    flagged = []
    for j, item in enumerate(items):
        y = responses[:, j]
        mask = y != MISSING
        design = thetas[mask]
        w = np.zeros((int(mask.sum()), item.n_categories))
        w[np.arange(w.shape[0]), y[mask]] = 1.0
        free = None if q is None else q[j].astype(bool)
        result = fit_item(
            design,
            w,
            item,
            link,
            free_mask=free,
            max_steps=config.inner_steps,
            grad_tol=1e-6,
            ball_radius=radius,
        )
        new_items.append(result.params)
        if result.line_search_failed or result.at_boundary:
            flagged.append(j)
    return new_items, np.array(flagged, dtype=int)


def _standardize_fit(thetas, items):
    """Mean-zero, unit-variance factors with compensating item transform.

    With location mu and scale sigma per factor, theta' = (theta - mu) / sigma
    keeps every linear predictor fixed when intercepts absorb a' mu and
    loadings are scaled by sigma.
    """
    standardized, location, scale = standardize_factors(thetas)
    out = []
    for item in items:
        shift = float(item.loadings @ location)
        out.append(
            ItemParams(item.kind, item.intercepts + shift, item.loadings * scale)
        )
    return standardized, out


def _fix_signs(thetas, items):
    """Non-negative loading column sums; flip theta columns to compensate."""
    a = loadings_matrix(items)
    flip = a.sum(axis=0) < 0
    if not flip.any():
        return thetas, items
    sign = np.where(flip, -1.0, 1.0)
    thetas = thetas * sign[None, :]
    items = [
        ItemParams(item.kind, item.intercepts, item.loadings * sign) for item in items
    ]
    return thetas, items


def fit_cjmle(
    data: Dataset,
    k: int,
    config: CjmleConfig | None = None,
    *,
    model=None,
    link: Link = Link.LOGIT,
    q: np.ndarray | None = None,
    init=None,
    standardize: bool = True,
) -> CjmleFit:
    """Alternating constrained maximization of the joint log-likelihood.

    init: optional (thetas, items) pair; when absent the spectral estimator
    supplies the start.  The trajectory records the joint log-likelihood
    after every full (person + item) iteration and never decreases.
    """
    link = as_link(link)
    if k < 1:
        raise ValueError("k must be at least 1")
    config = config or CjmleConfig()
    if model is None:
        model = ModelKind.BINARY if np.all(data.categories == 2) else ModelKind.GRADED
    model = as_model(model)
    if q is not None:
        q = check_q_matrix(q, data.n_items, k, allow_empty_rows=True)
    if init is None:
        thetas, items = spectral_start(data, k, model, link, q)
    else:
        thetas, items = init
        thetas = np.array(thetas, dtype=float)
        items = list(items)
    radius = config.radius(k)
    thetas = _project_rows(thetas, radius)
    items = [project_ball(item, radius) for item in items]
    loglik = log_joint_likelihood(data, thetas, items, link)
    if not np.isfinite(loglik):
        raise RuntimeError("joint log-likelihood is non-finite at the starting point")
    trajectory = []
    converged = False
    flagged_rows = np.zeros(0, dtype=int)
    flagged_items = np.zeros(0, dtype=int)
    n_iters = 0
    for _ in range(config.max_iters):
        thetas, flagged_rows = update_person_block(data, items, thetas, config, link)
        items, flagged_items = update_item_block(data, thetas, items, config, q, link)
        new_loglik = log_joint_likelihood(data, thetas, items, link)
        if not np.isfinite(new_loglik):
            raise RuntimeError("joint log-likelihood became non-finite after projection")
        trajectory.append(new_loglik)
        n_iters += 1
        if abs(new_loglik - loglik) < config.tol * (abs(loglik) + 1.0):
            loglik = new_loglik
            converged = True
            break
        loglik = new_loglik
    if not converged:
        warnings.warn("cjmle reached max_iters without meeting the tolerance")
    if standardize:
        try:
            thetas, items = _standardize_fit(thetas, items)
        except ValueError:
            warnings.warn("skipping standardization: a factor has zero variance")
    thetas, items = _fix_signs(thetas, items)
    return CjmleFit(
        thetas=thetas,
        items=items,
        trajectory=np.asarray(trajectory),
        converged=converged,
        n_iters=n_iters,
        flagged_rows=flagged_rows,
        flagged_items=flagged_items,
    )
