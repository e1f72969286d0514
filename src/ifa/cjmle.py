"""Constrained joint maximum likelihood by alternating block maximization.

Person and item blocks are updated in turn with a few projected Newton steps
each, all rows (or all binary items) of a block solved together by one
batched kernel; both parameter groups live in Euclidean balls of radius C
(person factor vectors, and full item vectors of intercepts plus loadings),
which keeps extreme response patterns from driving estimates to infinity.
After convergence the factor scores are standardized to mean zero and unit
variance per factor, with the compensating transform applied to the items.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .identify import check_q_matrix, standardize_factors
from .itemfit import _MAX_HALVINGS, _ROUNDOFF_GAIN, _project_rows, fit_item, project_ball
from .models import (
    MISSING,
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    _binary_cell,
    _default_model,
    _panel_cells,
    _predictors,
    as_link,
    loadings_matrix,
    log_joint_likelihood,
    person_logliks,
    response_matrix,
)
from .start import spectral_start

_GRAD_TOL = 1e-6


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


def _all_binary(items) -> bool:
    return all(item.kind is ModelKind.BINARY for item in items)


def _binary_cells(responses, design, offset, link: Link):
    """_newton_block callback for B binary problems over (B, M) responses.

    Cell (b, m) has the predictor x_b . design_m + offset_m.  The work arrays
    are reused, so each call overwrites what the previous one returned.
    """
    # d sz / dz: 1 at code 1, -1 at code 0, 0 at missing cells
    sign = np.subtract(responses == 1, responses == 0, dtype=np.int8, order="C")
    observed = np.ascontiguousarray(responses != MISSING)
    work = np.empty((3,) + responses.shape)

    def cells(rows, x, derivs=False):
        z, s, c = work[:, : len(x)]
        np.matmul(design, x.T, out=z.T)  # transposed: far faster in OpenBLAS
        if offset is not None:
            z += offset
        sg, obs = sign[rows], observed[rows]
        z *= sg  # the signed predictor sz
        _binary_cell(z, link, derivs, out=(s, c))
        if not derivs:
            s *= obs
            return s.sum(axis=1)
        s *= sg  # d/dz = sign * d/dsz, and 0 at missing cells
        c *= obs
        return s, c

    return cells


def _person_cells(responses, items, link: Link):
    """The same callback for person rows of any item kind: the values from
    person_logliks, the derivatives from one panel-kernel call."""

    def cells(rows, x, derivs=False):
        if not derivs:
            return person_logliks(responses[rows], x, items, link)
        return _panel_cells(_predictors(x, items), responses[rows], items, link, True)

    return cells


def _newton_block(x, design, cells, radius, max_steps, free=None):
    """Projected Newton ascent on B independent problems, the rows of x.

    Problem b maximizes its objective over x_b in the ball of the given
    radius.  cells(rows, x) returns each problem's objective, and
    cells(rows, x, True) the score and curvature of each cell in its
    predictor x_b . design_m, as (rows, M) arrays that are zero at missing
    cells; rows is an index array, or slice(None) while all are active.

    A step backtracks over up to 30 halvings to the first radially projected
    candidate that strictly increases the objective, whose value is then
    carried.  On the ball with an outward gradient, the radial part of the
    gradient and of the step is removed, and the projected gradient replaces
    a step that then does not ascend.  A problem stops, converged, when its
    (projected) gradient max-norm is below 1e-6 or its predicted gain g'd/2
    is at most 1e-13 (|objective| + 1), as in fit_item, and stops, failed,
    when no halving improves it.  Coordinates that free (B, P) masks out
    keep their values.  Returns (x, failed).
    """
    x = _project_rows(np.array(x, dtype=float), radius)
    n_problems, p = x.shape
    outer = (design[:, :, None] * design[:, None, :]).reshape(len(design), p * p)
    eye = np.eye(p, dtype=bool)
    free = np.ones(x.shape, dtype=bool) if free is None else free
    obj = cells(slice(None), x)
    failed = np.zeros(n_problems, dtype=bool)
    active = np.arange(n_problems)

    def rows_of(idx):  # a view, not a copy, while every problem takes part
        return slice(None) if idx.size == n_problems else idx

    for _ in range(max_steps):
        xa = x[rows_of(active)]
        s, c = cells(rows_of(active), xa, True)
        fr = free[active]
        # s @ design and c @ outer, written transposed so that OpenBLAS does not
        # copy s and c into its own buffers, whose pages then stay resident
        grad = (design.T @ s.T).T * fr
        damp = -(outer.T @ c.T).T.reshape(-1, p, p) * (fr[:, :, None] & fr[:, None, :])
        ridge = 1e-9 * (1.0 + np.abs(damp[:, eye]).max(axis=1))
        damp[:, eye] += ridge[:, None] + ~fr  # identity curvature where masked
        try:
            step = np.linalg.solve(damp, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = grad.copy()
        norms = np.linalg.norm(xa, axis=1)
        pinned = (norms >= radius * (1.0 - 1e-9)) & (np.einsum("ij,ij->i", grad, xa) > 0)
        if pinned.any():
            u = xa[pinned] * fr[pinned]
            u /= np.linalg.norm(u, axis=1)[:, None]
            for v in (grad, step):
                v[pinned] -= np.einsum("ij,ij->i", v[pinned], u)[:, None] * u
        downhill = np.einsum("ij,ij->i", step, grad) <= 0
        step[downhill] = grad[downhill]
        gain = 0.5 * np.einsum("ij,ij->i", step, grad)
        roundoff = _ROUNDOFF_GAIN * (np.abs(obj[active]) + 1.0)
        moving = (np.abs(grad).max(axis=1) >= _GRAD_TOL) & (gain > roundoff)
        active, step = active[moving], step[moving]
        pending = np.arange(active.size)
        for halving in range(_MAX_HALVINGS):
            if pending.size == 0:
                break
            idx = active[pending]
            cand = _project_rows(x[idx] + 0.5**halving * step[pending], radius)
            cand_obj = cells(rows_of(idx), cand)
            better = cand_obj > obj[idx]
            x[idx[better]], obj[idx[better]] = cand[better], cand_obj[better]
            pending = pending[~better]
        failed[active[pending]] = True
        active = np.delete(active, pending)
        if active.size == 0:
            break
    return x, failed


def update_person_block(data, items, thetas, config: CjmleConfig, link: Link = Link.LOGIT):
    """Projected Newton ascent on every person's row log-likelihood.

    All rows are one _newton_block solve, with the loadings as the design and
    at most config.inner_steps steps.  Returns (thetas, flagged_rows); a
    flagged row's line search failed at a step whose predicted gain was above
    round-off, and the row kept its previous iterate.  A row on the ball
    steps along it and is not flagged for being there.
    """
    link = as_link(link)
    responses = response_matrix(data)
    a = loadings_matrix(items)
    if _all_binary(items):
        d = np.array([item.intercepts[0] for item in items])
        cells = _binary_cells(responses, a, d, link)
    else:
        cells = _person_cells(responses, items, link)
    radius = config.radius(a.shape[1])
    thetas, failed = _newton_block(thetas, a, cells, radius, config.inner_steps)
    return thetas, np.where(failed)[0]


def update_item_block(
    data,
    thetas,
    items,
    config: CjmleConfig,
    q: np.ndarray | None = None,
    link: Link = Link.LOGIT,
):
    """Projected Newton updates of every item, with Q-masked loadings frozen.

    Binary items are one _newton_block solve over (intercept, loadings)
    vectors, with design [1, theta] and free mask [1, q_j]; graded and gpc
    items use fit_item one at a time, as the marginal M-steps do.  Returns
    (items, flagged_items); an item is flagged when its line search failed or
    it ends on the radius-C ball (separable columns included).
    """
    link = as_link(link)
    responses = response_matrix(data)
    radius = config.radius(thetas.shape[1])
    if _all_binary(items):
        design = np.column_stack([np.ones(len(thetas)), thetas])
        free = None if q is None else np.column_stack([np.ones(len(q), bool), q.astype(bool)])
        beta = np.array([item.beta() for item in items])
        cells = _binary_cells(responses.T, design, None, link)
        beta, failed = _newton_block(beta, design, cells, radius, config.inner_steps, free)
        at_ball = np.linalg.norm(beta, axis=1) >= radius * (1.0 - 1e-9)
        items = [ItemParams(ModelKind.BINARY, b[:1], b[1:]) for b in beta]
        return items, np.where(failed | at_ball)[0]
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
            grad_tol=_GRAD_TOL,
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
    model = _default_model(model, data.categories)
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
