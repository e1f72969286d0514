"""Newton maximization of one item's weighted log-likelihood.

Shared by the joint-likelihood item block and the marginal M steps.  Items
are optimized in an internal parametrization: intercepts and free loadings
for binary/gpc items; for graded items the ordered thresholds are mapped to
(d_0, log(d_1 - d_0), ..., log(d_{T-1} - d_{T-2})) so every internal vector
is feasible.  An optional Euclidean ball constraint on the natural
(intercepts, loadings) vector is enforced by radial projection, which
preserves threshold ordering and masked zeros.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ItemParams, Link, ModelKind, soft_grad_hess, soft_loglik

_MIN_GAP = 1e-12
_ROUNDOFF_GAIN = 1e-13
_MAX_HALVINGS = 30


@dataclass
class ItemFitResult:
    params: ItemParams
    converged: bool
    n_steps: int
    grad_norm: float
    line_search_failed: bool
    at_boundary: bool


def resolve_free_mask(params: ItemParams, free_mask=None) -> np.ndarray:
    if free_mask is None:
        return np.ones(params.k, dtype=bool)
    free_mask = np.asarray(free_mask).astype(bool)
    if free_mask.shape != (params.k,):
        raise ValueError("free mask must have one entry per factor")
    return free_mask


def to_internal(params: ItemParams, free_mask=None) -> np.ndarray:
    free_mask = resolve_free_mask(params, free_mask)
    if params.kind is ModelKind.GRADED and params.intercepts.size > 1:
        gaps = np.maximum(np.diff(params.intercepts), _MIN_GAP)
        head = np.concatenate([[params.intercepts[0]], np.log(gaps)])
    else:
        head = params.intercepts.copy()
    return np.concatenate([head, params.loadings[free_mask]])


def from_internal(x: np.ndarray, template: ItemParams, free_mask=None) -> ItemParams:
    free_mask = resolve_free_mask(template, free_mask)
    t_count = template.intercepts.size
    head = np.asarray(x[:t_count], dtype=float)
    if template.kind is ModelKind.GRADED and t_count > 1:
        intercepts = head[0] + np.concatenate([[0.0], np.cumsum(np.exp(head[1:]))])
    else:
        intercepts = head
    loadings = template.loadings.copy()
    loadings[free_mask] = x[t_count:]
    return ItemParams(template.kind, intercepts, loadings)


def internal_grad_hess(params: ItemParams, design, weights, link: Link, free_mask=None):
    """Gradient and Hessian in the internal parametrization (free coords only)."""
    free_mask = resolve_free_mask(params, free_mask)
    g, h = soft_grad_hess(design, weights, params, link)
    t_count = params.intercepts.size
    keep = np.concatenate([np.ones(t_count, dtype=bool), free_mask])
    g = g[keep]
    h = h[np.ix_(keep, keep)]
    if params.kind is not ModelKind.GRADED or t_count == 1:
        return g, h
    # chain rule d -> (d_0, log gaps): d_t = u_0 + sum_{s<=t} exp(u_s)
    x = to_internal(params, free_mask)
    jac = np.zeros((t_count, t_count))
    jac[:, 0] = 1.0
    for s in range(1, t_count):
        jac[s:, s] = np.exp(x[s])
    g_d = g[:t_count].copy()
    g_out = g.copy()
    g_out[:t_count] = jac.T @ g_d
    h_out = h.copy()
    h_out[:t_count, :t_count] = jac.T @ h[:t_count, :t_count] @ jac
    h_out[:t_count, t_count:] = jac.T @ h[:t_count, t_count:]
    h_out[t_count:, :t_count] = h_out[:t_count, t_count:].T
    # curvature of the reparametrization itself
    for s in range(1, t_count):
        h_out[s, s] += np.exp(x[s]) * np.sum(g_d[s:])
    return g_out, h_out


def _project_rows(x: np.ndarray, radius: float) -> np.ndarray:
    """Radially shrink each row of x onto the ball of the given radius."""
    norms = np.linalg.norm(x, axis=1)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale[:, None]


def project_ball(params: ItemParams, radius) -> ItemParams:
    """Radially shrink (intercepts, loadings) onto the ball of given radius."""
    if radius is None:
        return params
    beta = _project_rows(params.beta()[None, :], radius)[0]
    t_count = params.intercepts.size
    return ItemParams(params.kind, beta[:t_count], beta[t_count:])


def fit_item(
    design,
    weights,
    params0: ItemParams,
    link: Link,
    *,
    free_mask=None,
    max_steps=50,
    grad_tol=0.0,
    ball_radius=None,
) -> ItemFitResult:
    """Maximize the weighted item log-likelihood by damped Newton ascent.

    Each step backtracks over up to 30 halved step sizes and accepts the first
    candidate (after ball projection) that strictly increases the objective;
    if none does, the previous iterate is kept and the fit is flagged.  A
    step whose predicted gain g'd/2 is within 1e-13 (|objective| + 1) of
    zero is below the objective's round-off: the fit stops there, converged.
    """
    free_mask = resolve_free_mask(params0, free_mask)
    params = project_ball(params0, ball_radius)
    obj = soft_loglik(design, weights, params, link)
    grad_norm = np.inf
    failed = False
    steps_taken = 0
    converged = False
    for _ in range(max_steps):
        g, h = internal_grad_hess(params, design, weights, link, free_mask)
        grad_norm = float(np.max(np.abs(g))) if g.size else 0.0
        if grad_tol > 0 and grad_norm < grad_tol:
            converged = True
            break
        a = -h
        a[np.diag_indices_from(a)] += 1e-9 * (1.0 + np.max(np.abs(np.diag(a)), initial=0.0))
        try:
            direction = np.linalg.solve(a, g)
        except np.linalg.LinAlgError:
            direction = g.copy()
        if direction @ g <= 0:  # not an ascent direction (reparametrized curvature)
            direction = g.copy()
        if 0.5 * (g @ direction) <= _ROUNDOFF_GAIN * (abs(obj) + 1.0):
            converged = True  # the predicted gain is below the objective's round-off
            break
        x = to_internal(params, free_mask)
        accepted = False
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = project_ball(from_internal(x + alpha * direction, params, free_mask), ball_radius)
            cand_obj = soft_loglik(design, weights, cand, link)
            if cand_obj > obj:
                params, obj = cand, cand_obj
                accepted = True
                break
            alpha *= 0.5
        steps_taken += 1
        if not accepted:
            failed = True
            break
    at_boundary = (
        ball_radius is not None
        and np.linalg.norm(params.beta()) >= ball_radius * (1.0 - 1e-9)
    )
    return ItemFitResult(
        params=params,
        converged=converged,
        n_steps=steps_taken,
        grad_norm=grad_norm,
        line_search_failed=failed,
        at_boundary=at_boundary,
    )
