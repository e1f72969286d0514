"""Marginal-likelihood engines: quadrature EM, Monte Carlo EM, stochastic EM
with burn-in averaging, and stochastic-approximation MCMC.

Quadrature EM takes its E-step expectations on a tensor-product
Gauss-Hermite grid.  The other three share one sampled E-step: warm
person-factor chains (Gibbs for probit binary and graded items, random-walk
Metropolis-Hastings otherwise) give draws of the factors, and the stacked
draws with the 0/1 category indicators of the responses (zero rows at
missing cells) are the complete data.  Every engine takes the factor
correlation from the posterior second moment of the factors, rescaled to
unit diagonal.  MCEM and StEM fit the complete data by per-item weighted
Newton M-steps: MCEM from growing batches of consecutive draws, StEM from
one draw per iteration, averaging the iterates after burn-in.  SA takes
Robbins-Monro steps instead: stochastic gradient steps for the items,
preconditioned by a running information estimate, and a step of the
factor covariance toward the draws' second moment.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import linalg as sla

from .itemfit import fit_item, from_internal, internal_grad_hess, resolve_free_mask, to_internal
from .models import (
    Dataset,
    FactorConfig,
    ItemParams,
    Link,
    as_link,
    category_logprobs,
    response_matrix,
)
from .sampler import GibbsEngine, MhEngine
from .spectral import require_rank
from .start import check_fit_inputs, check_items, default_items, spectral_start

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
    check_items(items, data, factor_config.k)
    if grid is None:
        grid = build_grid(points_per_dim, factor_config)
    return _estep_tables(response_matrix(data), items, grid, link)[2]


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
    """Per-item weighted Newton fits; returns (items, number of failed line searches).

    Per-person weight rows of a design that stacks several draws of every
    person are repeated over the draws, one item at a time.
    """
    out = []
    failed = 0
    for item, w, mask in zip(items, weights_list, masks):
        if len(w) < len(design):
            w = np.tile(w, (len(design) // len(w), 1))
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
    model, link, q = check_fit_inputs(data, k, model, link, q, init_items)
    _require_small_k(k)
    config = config or EmConfig()
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
        grid = build_grid(config.points_per_dim, FactorConfig(k, corr))
        loglik_trail.append(_estep_tables(responses, items, grid, link)[2])
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
    """Warm person-factor chains driven by one Gibbs or MH engine, built at
    the first refresh and refreshed in place after it."""

    def __init__(self, data, k: int, link: Link, seed: int):
        self.data = data
        self.k = k
        self.link = link
        self.use_gibbs = link is Link.PROBIT
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.thetas = np.zeros((data.n_persons, k))
        self.engine = None

    def refresh(self, items, corr):
        config = FactorConfig(self.k, corr)
        if self.engine is not None:
            self.engine.refresh(items, config)
        elif self.use_gibbs:
            self.engine = GibbsEngine(self.data, items, config)
        else:
            self.engine = MhEngine(self.data, items, config, self.link)
        if not self.use_gibbs:
            self.logpost = self.engine.logpost(self.thetas)

    def sweep(self, adapt: bool):
        if self.use_gibbs:
            self.thetas = self.engine.sweep(self.thetas, self.rng)
        else:
            self.thetas, self.logpost = self.engine.step(
                self.thetas, self.logpost, self.rng, adapt=adapt
            )
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

    Returns (link, q, items, chains, weights), the weights each item's
    (person, category) slice of the 0/1 category indicators, built once per fit.
    """
    model, link, q = check_fit_inputs(data, k, model, link, q)
    if q is None:  # a Q matrix fixes the rotation; exploratory fits need k+1 items
        require_rank(data, k)
    items = default_items(data, k, model, link, q)
    chains = _ChainPool(data, k, link, seed)
    indicators = _indicators(data.responses.T, int(data.categories.max()))
    weights = [indicators[j, :, : it.n_categories] for j, it in enumerate(items)]
    return link, q, items, chains, weights


def _sampled_em(data, k, model, link, q, seed, schedule, thin: int, adapt_iters: int):
    """MCEM and StEM: iteration t fits the items and the factor correlation
    to schedule[t] draws taken thin sweeps apart, as complete data.

    Returns (items, correlation, trajectory, M-step failures per iteration).
    """
    link, q, items, chains, weights = _sampled_start(data, k, model, link, q, seed)
    corr = np.eye(k)
    masks = _free_masks(items, q)
    trajectory = []
    mstep_failures = []
    for t, n_draws in enumerate(schedule):
        chains.refresh(items, corr)
        design = chains.draw(n_draws, thin, adapt=t < adapt_iters)
        items, failed = _mstep_items(items, design, weights, link, masks)
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
    # callable t -> gamma_t in [0, 1] (1-based t); None = plateau of 1 then 1/(t - warmup)
    gain_schedule: Callable[[int], float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_iters < 1:
            raise ValueError("total_iters must be positive")
        if not 0 <= self.warmup < self.total_iters:
            raise ValueError("need 0 <= warmup < total_iters")

    def gamma(self, t: int) -> float:
        """Gain for 1-based iteration t.  A schedule's gains must lie in
        [0, 1], where the correlation step is a convex combination."""
        if self.gain_schedule is None:
            return 1.0 if t <= self.warmup else 1.0 / (t - self.warmup)
        gain = float(self.gain_schedule(t))
        if not 0.0 <= gain <= 1.0:
            raise ValueError(f"SA gain at iteration {t} is {gain}; gains must lie in [0, 1]")
        return gain


def fit_sa_mcmc(
    data: Dataset,
    k: int,
    sa_config: SaConfig | None = None,
    q: np.ndarray | None = None,
    *,
    model=None,
    link: Link = Link.LOGIT,
) -> MarginalFit:
    """Stochastic approximation (MH-RM): Robbins-Monro steps along stochastic
    gradients of the marginal log-likelihood (Fisher identity), preconditioned
    by a Robbins-Monro estimate of the items' complete-data information.

    For theta ~ N(0, Sigma) the complete-data information is
    (N/2)(Sigma^-1 kron Sigma^-1), and Fisher scoring with it steps Sigma by
    exactly M/N - Sigma, M the draws' second moment.  Sigma takes gamma_t of
    that step (a convex combination, so positive definite) and is rescaled
    to unit diagonal.

    info["psi_trail"] holds the start and every iterate: each item's internal
    parameters, then the correlation's strict lower triangle in pack_params
    order.  info["fallback_iters"] lists the iterations where an item's
    information estimate was not positive definite and the plain gradient
    was used.
    """
    config = sa_config or SaConfig()
    link, q, items, chains, weights = _sampled_start(data, k, model, link, q, config.seed)
    corr = np.eye(k)
    lower = np.tril_indices(k, -1)
    masks = [resolve_free_mask(it, m) for it, m in zip(items, _free_masks(items, q))]
    x_items = [to_internal(it, m) for it, m in zip(items, masks)]
    gammas = [np.zeros((x.size, x.size)) for x in x_items]
    trajectory = []
    psi_trail = [np.concatenate(x_items + [corr[lower]])]
    fallbacks = set()
    for t in range(1, config.total_iters + 1):
        gamma_t = config.gamma(t)
        chains.refresh(items, corr)
        design = chains.draw(1, _SWEEPS_PER_DRAW, adapt=t <= config.warmup)
        new_x = []
        for j, item in enumerate(items):
            g, hess = internal_grad_hess(item, design, weights[j], link, masks[j])
            gammas[j] = gammas[j] + gamma_t * (-hess - gammas[j])
            try:  # the preconditioned direction, else the plain gradient
                direction = sla.cho_solve((np.linalg.cholesky(gammas[j]), True), g)
            except np.linalg.LinAlgError:
                direction = g
                fallbacks.add(t)
            new_x.append(x_items[j] + gamma_t * direction)
        h_corr = design.T @ design / data.n_persons - corr
        corr, _ = _rescale_correlation(corr + gamma_t * h_corr, items, compensate=False)
        x_items = new_x
        items = [from_internal(x, it, m) for x, it, m in zip(x_items, items, masks)]
        psi_trail.append(np.concatenate(x_items + [corr[lower]]))
        trajectory.append(pack_params(items, corr))
    return MarginalFit(
        items=items,
        correlation=corr,
        trajectory=np.asarray(trajectory),
        marginal_loglik=None,
        converged=True,
        n_iters=config.total_iters,
        info={"psi_trail": np.asarray(psi_trail), "fallback_iters": sorted(fallbacks)},
    )
