"""Marginal-likelihood engines: quadrature EM, Monte Carlo EM, stochastic EM
with burn-in averaging, and stochastic-approximation MCMC.

Quadrature EM takes its E-step expectations on a tensor-product
Gauss-Hermite grid.  The other three share one sampled E-step: warm
person-factor chains (Gibbs for probit binary and graded items, random-walk
Metropolis-Hastings otherwise) give draws of the factors, and the stacked
draws with the 0/1 category indicators of the responses (zero rows at
missing cells) are the complete data.  MCEM and StEM fit it by per-item
weighted Newton M-steps and a factor-correlation update rescaled to unit
diagonal: MCEM from growing batches of consecutive draws, StEM from one draw
per iteration, averaging the iterates after burn-in.  SA takes a stochastic
gradient step instead, preconditioned by a running information estimate.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import linalg as sla

from .identify import check_q_matrix
from .itemfit import fit_item, from_internal, internal_grad_hess, resolve_free_mask, to_internal
from .models import (
    Dataset,
    FactorConfig,
    ItemParams,
    Link,
    ModelKind,
    as_link,
    as_model,
    category_logprobs,
    response_matrix,
)
from .sampler import GibbsEngine, MhEngine
from .spectral import require_rank
from .start import default_items, spectral_start

_ESTEP_CELL_BUDGET = 2_000_000
_LOG_FLOOR = -1e300
_MSTEP_TOL = 1e-8
_SWEEPS_PER_DRAW = 5


# ---------------------------------------------------------------------------
# quadrature grid and marginal likelihood


@dataclass
class QuadratureGrid:
    points_per_dim: int
    nodes: np.ndarray
    log_weights: np.ndarray


def build_grid(points_per_dim: int, factor_config: FactorConfig) -> QuadratureGrid:
    """Tensor-product Gauss-Hermite grid adapted to the factor correlation."""
    if points_per_dim < 2:
        raise ValueError("points_per_dim must be at least 2")
    x, w = hermegauss(points_per_dim)
    w = w / w.sum()  # normalize against the standard normal density
    k = factor_config.k
    grids = np.meshgrid(*([x] * k), indexing="ij")
    z = np.column_stack([g.ravel() for g in grids])
    logw = np.zeros(z.shape[0])
    for g in np.meshgrid(*([np.log(w)] * k), indexing="ij"):
        logw += g.ravel()
    nodes = z @ np.linalg.cholesky(factor_config.correlation).T
    return QuadratureGrid(points_per_dim, nodes, logw)


def _require_small_k(k: int) -> None:
    if k > 3:
        raise ValueError(
            "quadrature engines support k <= 3 (grid size is exponential in k); "
            "use fit_stem or fit_sa_mcmc for higher dimensions"
        )


def _indicators(codes, n_cat: int) -> np.ndarray:
    """0/1 indicators of the codes 0..n_cat-1 along a new last axis; a
    missing code gives a zero row."""
    return (codes[..., None] == np.arange(n_cat)).astype(float)


def _estep_tables(responses, items, grid: QuadratureGrid, link: Link):
    """Posterior-weighted sufficient statistics on the grid.

    Returns (counts, second_moment, loglik): per-item expected category
    counts at every node (node x category), the summed posterior second
    moment of theta, and the total marginal log-likelihood.

    With H the persons x (category, item) indicator matrix of the responses
    (missing cells are zero rows) and L the matching (category, item) x node
    table of log category probabilities, the nodewise log-likelihoods are
    H @ L and the expected counts are post.T @ H: two matrix products per
    chunk of persons.
    """
    n, n_items = responses.shape
    m, k = grid.nodes.shape
    n_cat = max(it.n_categories for it in items)
    # padded rows of items with fewer categories are never selected by H
    log_table = np.zeros((n_cat, n_items, m))
    for j, it in enumerate(items):
        log_table[: it.n_categories, j] = category_logprobs(grid.nodes, it, link).T
    # a zero-probability cell keeps zeroing its node without 0 * -inf = NaN
    np.maximum(log_table, _LOG_FLOOR, out=log_table)
    log_table = log_table.reshape(n_cat * n_items, m)
    count_table = np.zeros((m, n_cat * n_items))
    node_mass = np.zeros(m)
    total = 0.0
    chunk = max(1, _ESTEP_CELL_BUDGET // m)
    buf = np.empty((min(n, chunk), m))
    for start in range(0, n, chunk):
        block = responses[start : start + chunk]
        post = buf[: block.shape[0]]
        hits = _indicators(block, n_cat).transpose(0, 2, 1).reshape(block.shape[0], -1)
        np.matmul(hits, log_table, out=post)
        post += grid.log_weights
        peak = post.max(axis=1, keepdims=True)
        post -= peak
        np.exp(post, out=post)
        mass = post.sum(axis=1, keepdims=True)
        post /= mass
        total += float(np.sum(peak) + np.sum(np.log(mass)))
        node_mass += post.sum(axis=0)
        count_table += post.T @ hits
    count_table = count_table.reshape(m, n_cat, n_items)
    counts = [count_table[:, : it.n_categories, j].copy() for j, it in enumerate(items)]
    second = grid.nodes.T @ (node_mass[:, None] * grid.nodes)
    return counts, second, total


def log_marginal_likelihood(
    data,
    items,
    factor_config: FactorConfig,
    grid: QuadratureGrid | None = None,
    link: Link = Link.LOGIT,
    points_per_dim: int = 21,
) -> float:
    """Quadrature marginal log-likelihood, log-sum-exp stabilized."""
    link = as_link(link)
    _require_small_k(factor_config.k)
    if grid is None:
        grid = build_grid(points_per_dim, factor_config)
    responses = response_matrix(data)
    _, _, total = _estep_tables(responses, items, grid, link)
    return total


# ---------------------------------------------------------------------------
# parameter packing (natural coordinates, used for trajectories and averages)


def pack_params(items, correlation: np.ndarray) -> np.ndarray:
    parts = [np.concatenate([it.intercepts, it.loadings]) for it in items]
    k = correlation.shape[0]
    if k > 1:
        parts.append(correlation[np.tril_indices(k, -1)])
    return np.concatenate(parts)


def unpack_params(vector: np.ndarray, template_items, k: int):
    items = []
    pos = 0
    for it in template_items:
        nc = it.intercepts.size
        nl = it.loadings.size
        intercepts = np.asarray(vector[pos : pos + nc], dtype=float)
        pos += nc
        loadings = np.asarray(vector[pos : pos + nl], dtype=float)
        pos += nl
        items.append(ItemParams(it.kind, intercepts, loadings))
    corr = np.eye(k)
    if k > 1:
        rows, cols = np.tril_indices(k, -1)
        vals = vector[pos : pos + rows.size]
        corr[rows, cols] = vals
        corr[cols, rows] = vals
    return items, corr


def average_parameter_trail(trail: np.ndarray, burn_in: int) -> np.ndarray:
    """Mean of the post-burn-in parameter snapshots."""
    trail = np.asarray(trail, dtype=float)
    if trail.ndim != 2 or not 0 <= burn_in < trail.shape[0]:
        raise ValueError("need a (iters, params) trail with burn_in < iters")
    return trail[burn_in:].mean(axis=0)


# ---------------------------------------------------------------------------
# shared M-step pieces


def _free_masks(items, q):
    if q is None:
        return [None] * len(items)
    return [q[j].astype(bool) for j in range(len(items))]


def _mstep_items(items, design, weights_list, link: Link, masks):
    """Per-item weighted Newton fits; returns (items, number of failed line searches)."""
    out = []
    failed = 0
    for item, w, mask in zip(items, weights_list, masks):
        result = fit_item(
            design, w, item, link, free_mask=mask, max_steps=50, grad_tol=_MSTEP_TOL
        )
        failed += int(result.line_search_failed)
        out.append(result.params)
    return out, failed


def _rescale_correlation(second_moment_mean, items, compensate: bool):
    """Unit-diagonal correlation from a second-moment matrix.

    When compensate is set, loadings absorb the removed scale so the
    marginal model is unchanged (exact equivalence transform).
    """
    d = np.sqrt(np.clip(np.diag(second_moment_mean), 1e-12, None))
    corr = second_moment_mean / np.outer(d, d)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    if compensate:
        items = [ItemParams(it.kind, it.intercepts, it.loadings * d) for it in items]
    return corr, items


@dataclass
class MarginalFit:
    items: list
    correlation: np.ndarray
    trajectory: np.ndarray
    marginal_loglik: float | None
    converged: bool
    n_iters: int
    info: dict = field(default_factory=dict)


def _default_model(data, model):
    if model is None:
        return ModelKind.BINARY if np.all(data.categories == 2) else ModelKind.GRADED
    return as_model(model)


# ---------------------------------------------------------------------------
# quadrature EM


@dataclass
class EmConfig:
    points_per_dim: int = 21
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol and max_iters must be positive")


def fit_em_quadrature(
    data: Dataset,
    k: int,
    model=None,
    link: Link = Link.LOGIT,
    config: EmConfig | None = None,
    q: np.ndarray | None = None,
    init_items=None,
) -> MarginalFit:
    """Gauss-Hermite EM for the marginal maximum likelihood estimator."""
    link = as_link(link)
    _require_small_k(k)
    config = config or EmConfig()
    model = _default_model(data, model)
    if q is not None:
        q = check_q_matrix(q, data.n_items, k, allow_empty_rows=True)
    if init_items is not None:
        items = list(init_items)
    elif q is None and k > 1:
        # equal loading columns are a fixed point of EM; the spectral start breaks the tie
        items = spectral_start(data, k, model, link)[1]
    else:
        items = default_items(data, k, model, link, q)
    corr = np.eye(k)
    masks = _free_masks(items, q)
    responses = data.responses
    trajectory = []
    loglik_trail = []
    mstep_failures = []
    prev = None
    converged = False
    n_iters = 0
    for _ in range(config.max_iters):
        grid = build_grid(config.points_per_dim, FactorConfig(k, corr))
        counts, second, loglik = _estep_tables(responses, items, grid, link)
        loglik_trail.append(loglik)
        if prev is not None:
            if loglik < prev - 1e-6 * (abs(prev) + 1.0):
                raise RuntimeError(
                    "EM marginal log-likelihood decreased; the M step diverged"
                )
            if abs(loglik - prev) < config.tol * (abs(prev) + 1.0):
                converged = True
                break
        prev = loglik
        items, failed = _mstep_items(items, grid.nodes, counts, link, masks)
        mstep_failures.append(failed)
        corr, items = _rescale_correlation(second / data.n_persons, items, compensate=True)
        trajectory.append(pack_params(items, corr))
        n_iters += 1
    if not converged:
        warnings.warn("fit_em_quadrature hit max_iters before meeting the tolerance")
        final_ll = log_marginal_likelihood(
            responses, items, FactorConfig(k, corr), link=link,
            points_per_dim=config.points_per_dim,
        )
        loglik_trail.append(final_ll)
    return MarginalFit(
        items=items,
        correlation=corr,
        trajectory=np.asarray(trajectory),
        marginal_loglik=loglik_trail[-1],
        converged=converged,
        n_iters=n_iters,
        info={"loglik_trail": np.asarray(loglik_trail), "mstep_failures": mstep_failures},
    )


# ---------------------------------------------------------------------------
# posterior sampling shared by the stochastic engines


class _ChainPool:
    """Warm person-factor chains driven by the Gibbs or MH engine."""

    def __init__(self, data, k: int, link: Link, model: ModelKind, seed: int):
        self.data = data
        self.k = k
        self.link = link
        self.use_gibbs = link is Link.PROBIT and model is not ModelKind.GPC
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.thetas = np.zeros((data.n_persons, k))
        self.mh_scale = None

    def refresh(self, items, corr):
        config = FactorConfig(self.k, corr)
        if self.use_gibbs:
            self.engine = GibbsEngine(self.data, items, config)
        else:
            self.engine = MhEngine(self.data, items, config, self.link, scale=self.mh_scale)
            self.logpost = self.engine.logpost(self.thetas)

    def sweep(self, adapt: bool):
        if self.use_gibbs:
            self.thetas = self.engine.sweep(self.thetas, self.rng)
        else:
            self.thetas, self.logpost = self.engine.step(
                self.thetas, self.logpost, self.rng, adapt=adapt
            )
            self.mh_scale = self.engine.scale
        return self.thetas

    def draw(self, n_draws: int, thin: int, adapt: bool) -> np.ndarray:
        """n_draws states, thin sweeps apart, stacked draw by draw into one design."""
        draws = []
        for _ in range(n_draws):
            for _ in range(thin):
                thetas = self.sweep(adapt)
            draws.append(thetas)
        return np.vstack(draws)


def _sampled_start(data, k: int, model, link, q, seed: int):
    """Checked inputs and starting state shared by the sampled engines.

    Returns (link, q, items, chains, indicators), the indicators an
    (item, person, category) array built once per fit.
    """
    link = as_link(link)
    model = _default_model(data, model)
    if q is None:  # a Q matrix fixes the rotation; exploratory fits need k+1 items
        require_rank(data, k)
    else:
        q = check_q_matrix(q, data.n_items, k, allow_empty_rows=True)
    items = default_items(data, k, model, link, q)
    chains = _ChainPool(data, k, link, model, seed)
    indicators = _indicators(data.responses.T, int(data.categories.max()))
    return link, q, items, chains, indicators


def _item_weights(indicators, items, n_draws: int = 1) -> list:
    """Each item's (draw x person, category) weights: its slice of the
    (item, person, category) indicators, tiled over n_draws stacked draws."""
    tiled = np.tile(indicators, (1, n_draws, 1))
    return [tiled[j, :, : it.n_categories] for j, it in enumerate(items)]


def _sampled_em(data, k, model, link, q, seed, schedule, thin: int, adapt_iters: int):
    """MCEM and StEM: iteration t fits the items and the factor correlation
    to schedule[t] draws taken thin sweeps apart, as complete data.

    Returns (items, correlation, trajectory, M-step failures per iteration).
    """
    link, q, items, chains, indicators = _sampled_start(data, k, model, link, q, seed)
    corr = np.eye(k)
    masks = _free_masks(items, q)
    trajectory = []
    mstep_failures = []
    for t, n_draws in enumerate(schedule):
        chains.refresh(items, corr)
        design = chains.draw(n_draws, thin, adapt=t < adapt_iters)
        # unnamed, the weights are freed before the next iteration tiles its own
        items, failed = _mstep_items(
            items, design, _item_weights(indicators, items, n_draws), link, masks
        )
        mstep_failures.append(failed)
        second = design.T @ design / design.shape[0]
        corr, items = _rescale_correlation(second, items, compensate=True)
        trajectory.append(pack_params(items, corr))
    return items, corr, np.asarray(trajectory), mstep_failures


# ---------------------------------------------------------------------------
# Monte Carlo EM


@dataclass
class McemConfig:
    max_iters: int = 18
    draws_start: int = 10
    draws_growth: float = 1.4
    draws_cap: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.draws_start < 1 or self.draws_cap < self.draws_start:
            raise ValueError("invalid MCEM iteration/draw counts")
        if self.draws_growth < 1.0:
            raise ValueError("draws_growth must be at least 1")


def fit_mcem(
    data: Dataset,
    k: int,
    config: McemConfig | None = None,
    draws_schedule=None,
    *,
    model=None,
    link: Link = Link.LOGIT,
    q: np.ndarray | None = None,
) -> MarginalFit:
    """Monte Carlo EM: E-step expectations from growing batches of draws."""
    config = config or McemConfig()
    if draws_schedule is None:
        draws_schedule = [
            int(min(config.draws_cap, round(config.draws_start * config.draws_growth**t)))
            for t in range(config.max_iters)
        ]
    items, corr, trajectory, mstep_failures = _sampled_em(
        data, k, model, link, q, config.seed, draws_schedule,
        thin=1, adapt_iters=max(1, len(draws_schedule) // 2),
    )
    return MarginalFit(
        items=items,
        correlation=corr,
        trajectory=trajectory,
        marginal_loglik=None,
        converged=True,
        n_iters=len(draws_schedule),
        info={"draws_schedule": list(draws_schedule), "mstep_failures": mstep_failures},
    )


# ---------------------------------------------------------------------------
# stochastic EM


@dataclass
class StemConfig:
    total_iters: int = 400
    burn_in: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.burn_in < self.total_iters:
            raise ValueError("need 0 < burn_in < total_iters")


def fit_stem(
    data: Dataset,
    k: int,
    stem_config: StemConfig | None = None,
    q: np.ndarray | None = None,
    *,
    model=None,
    link: Link = Link.LOGIT,
) -> MarginalFit:
    """Stochastic EM: single-draw E steps, burn-in averaged estimate."""
    config = stem_config or StemConfig()
    items, corr, trajectory, mstep_failures = _sampled_em(
        data, k, model, link, q, config.seed, [1] * config.total_iters,
        thin=_SWEEPS_PER_DRAW, adapt_iters=config.burn_in,
    )
    averaged = average_parameter_trail(trajectory, config.burn_in)
    items, corr = unpack_params(averaged, items, k)
    return MarginalFit(
        items=items,
        correlation=corr,
        trajectory=trajectory,
        marginal_loglik=None,
        converged=True,
        n_iters=config.total_iters,
        info={"burn_in": config.burn_in, "mstep_failures": mstep_failures},
    )


# ---------------------------------------------------------------------------
# stochastic approximation with MCMC


@dataclass
class SaConfig:
    total_iters: int = 500
    warmup: int = 50
    # callable t -> gamma_t (1-based t); None = plateau of 1 then 1/(t - warmup)
    gain_schedule: Callable[[int], float] | None = None
    use_hessian: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_iters < 1:
            raise ValueError("total_iters must be positive")
        if not 0 <= self.warmup < self.total_iters:
            raise ValueError("need 0 <= warmup < total_iters")

    def gamma(self, t: int) -> float:
        """Gain for 1-based iteration t."""
        if self.gain_schedule is not None:
            return float(self.gain_schedule(t))
        return 1.0 if t <= self.warmup else 1.0 / (t - self.warmup)


def _corr_chol_coords(corr: np.ndarray) -> np.ndarray:
    chol = np.linalg.cholesky(corr)
    k = corr.shape[0]
    return np.concatenate([np.log(np.diag(chol)), chol[np.tril_indices(k, -1)]])


def _chol_from_coords(c: np.ndarray, k: int) -> np.ndarray:
    chol = np.zeros((k, k))
    chol[np.diag_indices(k)] = np.exp(c[:k])
    chol[np.tril_indices(k, -1)] = c[k:]
    return chol


def _corr_loglik(c: np.ndarray, moment: np.ndarray, n_persons: float, k: int) -> float:
    """Multivariate-normal complete-data log-likelihood in Cholesky coords."""
    chol = _chol_from_coords(c, k)
    logdet = 2.0 * float(np.sum(c[:k]))
    inv_m = sla.cho_solve((chol, True), moment)
    return -0.5 * n_persons * logdet - 0.5 * float(np.trace(inv_m))


def _corr_grad(c: np.ndarray, moment: np.ndarray, n_persons: float, k: int) -> np.ndarray:
    chol = _chol_from_coords(c, k)
    sigma_inv = sla.cho_solve((chol, True), np.eye(k))
    g_sigma = -0.5 * n_persons * sigma_inv + 0.5 * sigma_inv @ moment @ sigma_inv
    gl = 2.0 * g_sigma @ chol
    return np.concatenate([np.diag(gl) * np.diag(chol), gl[np.tril_indices(k, -1)]])


def _corr_fd_info(c: np.ndarray, moment: np.ndarray, n_persons: float, k: int) -> np.ndarray:
    """Negative finite-difference Hessian of the correlation block."""
    d = c.size
    h = 1e-5
    hess = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            pp = c.copy(); pp[a] += h; pp[b] += h
            pm = c.copy(); pm[a] += h; pm[b] -= h
            mp = c.copy(); mp[a] -= h; mp[b] += h
            mm = c.copy(); mm[a] -= h; mm[b] -= h
            val = (
                _corr_loglik(pp, moment, n_persons, k)
                - _corr_loglik(pm, moment, n_persons, k)
                - _corr_loglik(mp, moment, n_persons, k)
                + _corr_loglik(mm, moment, n_persons, k)
            ) / (4.0 * h * h)
            hess[a, b] = hess[b, a] = val
    return -hess


def _precondition(gamma_block, grad, use_hessian: bool):
    """Solve the preconditioned direction; fall back to the plain gradient."""
    if not use_hessian:
        return grad, False
    try:
        chol = np.linalg.cholesky(gamma_block)
        return sla.cho_solve((chol, True), grad), False
    except np.linalg.LinAlgError:
        return grad, True


def fit_sa_mcmc(
    data: Dataset,
    k: int,
    sa_config: SaConfig | None = None,
    q: np.ndarray | None = None,
    *,
    model=None,
    link: Link = Link.LOGIT,
) -> MarginalFit:
    """Stochastic approximation: gradient steps along stochastic gradients of
    the marginal log-likelihood (Fisher identity), optionally preconditioned
    by a Robbins-Monro estimate of the complete-data information."""
    config = sa_config or SaConfig()
    link, q, items, chains, indicators = _sampled_start(data, k, model, link, q, config.seed)
    corr = np.eye(k)
    masks = [resolve_free_mask(it, m) for it, m in zip(items, _free_masks(items, q))]
    weights = _item_weights(indicators, items)
    x_items = [to_internal(it, m) for it, m in zip(items, masks)]
    c_corr = _corr_chol_coords(corr) if k > 1 else np.zeros(0)
    gammas = [np.zeros((x.size, x.size)) for x in x_items]
    gamma_corr = np.zeros((c_corr.size, c_corr.size))
    trajectory = []
    psi_trail = [np.concatenate(x_items + [c_corr])]
    h_trail = []
    fallback_iters = []
    for t in range(1, config.total_iters + 1):
        gamma_t = config.gamma(t)
        chains.refresh(items, corr)
        design = chains.draw(1, _SWEEPS_PER_DRAW, adapt=t <= config.warmup)
        h_parts = []
        fell_back = False
        new_x = []
        for j, item in enumerate(items):
            g, hess = internal_grad_hess(item, design, weights[j], link, masks[j])
            gammas[j] = gammas[j] + gamma_t * (-hess - gammas[j])
            direction, fb = _precondition(gammas[j], g, config.use_hessian)
            fell_back = fell_back or fb
            h_parts.append(g)
            new_x.append(x_items[j] + gamma_t * direction)
        h_corr = np.zeros(0)
        if k > 1:
            moment = design.T @ design
            g_corr = _corr_grad(c_corr, moment, data.n_persons, k)
            info_corr = _corr_fd_info(c_corr, moment, data.n_persons, k)
            gamma_corr = gamma_corr + gamma_t * (info_corr - gamma_corr)
            direction, fb = _precondition(gamma_corr, g_corr, config.use_hessian)
            fell_back = fell_back or fb
            h_corr = g_corr
            c_new = c_corr + gamma_t * direction
            chol = _chol_from_coords(c_new, k)
            corr, _ = _rescale_correlation(chol @ chol.T, items, compensate=False)
            c_corr = _corr_chol_coords(corr)
        x_items = new_x
        items = [from_internal(x, it, m) for x, it, m in zip(x_items, items, masks)]
        if fell_back:
            fallback_iters.append(t)
        h_trail.append(np.concatenate(h_parts + [h_corr]))
        psi_trail.append(np.concatenate(x_items + [c_corr]))
        trajectory.append(pack_params(items, corr))
    return MarginalFit(
        items=items,
        correlation=corr,
        trajectory=np.asarray(trajectory),
        marginal_loglik=None,
        converged=True,
        n_iters=config.total_iters,
        info={
            "psi_trail": np.asarray(psi_trail),
            "h_trail": np.asarray(h_trail),
            "fallback_iters": fallback_iters,
        },
    )
