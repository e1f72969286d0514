"""Posterior samplers for person parameters.

Two kernels, each run for every person at once: GibbsEngine, a blocked
Gibbs sweep for probit models (truncated-normal data augmentation, then an
exact K-variate normal draw with precision corr^{-1} + A'A over each
person's observed items, from that person's own Cholesky factor), and
MhEngine, an adaptive random-walk Metropolis step for logit models.  Every
person is one chain, all chains draw from the one generator passed in, and
a fit refreshes one engine in place every iteration.  The engines back the
Monte Carlo, stochastic EM and stochastic-approximation marginal estimators.

Each latent cell takes one uniform and one inverse-CDF draw: an interval
wholly above the mean is reflected below it first, so no interval lies in
the upper tail, where ndtr rounds to 1.  Cells whose interval lies more
than 37.5 sds below the mean, where ndtr underflows, take an
exponential-tail draw with rate |hi| from the same uniform.  No cell
rejects, so a sweep uses a fixed count of random numbers.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .models import Dataset, FactorConfig, ItemParams, Link, ModelKind, _predictors, person_logliks

_DEEP = -37.5  # ndtr(hi) is subnormal below this: the exponential tail takes over


def acceptance_probability(log_ratio) -> np.ndarray:
    """Metropolis acceptance probability min(1, exp(log_ratio))."""
    return np.exp(np.minimum(np.asarray(log_ratio, dtype=float), 0.0))


def truncated_normal_interval(mean, lower, upper, rng):
    """Vectorized draws from N(mean, 1) truncated to [lower, upper], one uniform a cell.

    With a = lower - mean and b = upper - mean, a cell with a >= 0 is
    reflected to (lo, hi) = (-b, -a); other cells keep (a, b).  Then
    z = ndtri(ndtr(hi) - u (ndtr(hi) - ndtr(lo))), or, where ndtr(hi)
    underflows (hi < -37.5), z = hi - E / |hi| with E exponential and
    truncated to the interval.  z is clipped to [lo, hi] and the reflection
    undone.  NaN means or bounds raise like inverted bounds.
    """
    mean = np.asarray(mean, dtype=float)
    a = np.asarray(lower, dtype=float) - mean
    b = np.asarray(upper, dtype=float) - mean
    if not np.all(a < b):
        raise ValueError("truncation needs lower < upper, with no NaN mean or bound")
    flip = a >= 0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    u = rng.random(hi.shape)
    p_hi = special.ndtr(hi)
    z = np.asarray(special.ndtri(p_hi - u * (p_hi - special.ndtr(lo))))
    deep = hi < _DEEP
    if deep.any():
        h = hi[deep]
        z[deep] = h - np.log1p(u[deep] * np.expm1(h * (h - lo[deep]))) / h
    np.clip(z, lo, hi, out=z)
    return mean + np.where(flip, -z, z)


def _latent_table(params: ItemParams) -> np.ndarray:
    """(lower, upper) bounds of the centered probit latent, by response code."""
    table = np.array([[-np.inf] * params.n_categories, [np.inf] * params.n_categories])
    if params.kind is ModelKind.BINARY:
        table[0, 1] = table[1, 0] = 0.0  # latent y* = d + a'theta + eps, y = 1 iff y* >= 0
    elif params.kind is ModelKind.GRADED:
        # latent v = a'theta + eps; category t iff -d_t <= v < -d_{t-1}
        thr = params.intercepts
        table[0, : thr.size] = table[1, 1 : thr.size + 1] = -thr
    else:
        raise ValueError("probit Gibbs supports binary and graded items only")
    return table


class GibbsEngine:
    """Vectorized probit Gibbs sweeps over every person at once.

    `refresh` takes new items and correlation in place.  The observed mask
    is kept item-major, (J, N).  Each item's observed codes are one
    contiguous row, and so are the latent bounds that refresh looks up at
    them, so a sweep gathers only the means.  Each person's precision is one
    column of the mask times the (J, K^2) loading outer products plus
    corr^{-1}, kept as the inverse L^{-1} of its Cholesky factor, so
    theta = L^{-T} (L^{-1} r + z) for any missing cells.
    """

    def __init__(self, data: Dataset, items, factor_config: FactorConfig):
        self.data = data
        self.obs = np.ascontiguousarray(data.observed_mask.T)
        # a complete item's cells are read as views, with no boolean-mask copy
        self.rows = [slice(None) if m.all() else m for m in self.obs]
        codes = np.ascontiguousarray(data.responses.T)
        self.codes = [y[rows] for y, rows in zip(codes, self.rows)]
        self.refresh(items, factor_config)

    def refresh(self, items, factor_config: FactorConfig):
        k = self.k = factor_config.k
        self.loadings = np.vstack([it.loadings for it in items])
        self.offsets = _predictors(np.zeros(k), items)[0]  # z at theta = 0: the binary intercepts
        # each item's (lower, upper) latent bounds at its observed cells
        self.bounds = [_latent_table(it)[:, y] for it, y in zip(items, self.codes)]
        outer = np.einsum("jk,jl->jkl", self.loadings, self.loadings).reshape(-1, k * k)
        prec = np.linalg.inv(factor_config.correlation) + (self.obs.T @ outer).reshape(-1, k, k)
        self.chol_inv = np.linalg.inv(np.linalg.cholesky(prec))

    def sweep(self, thetas, rng):
        resid = np.zeros((self.data.n_items, thetas.shape[0]))
        proj = self.loadings @ thetas.T
        for col, (rows, (lower, upper)) in enumerate(zip(self.rows, self.bounds)):
            mean = proj[col, rows] + self.offsets[col]
            draw = truncated_normal_interval(mean, lower, upper, rng)
            resid[col, rows] = draw - self.offsets[col]
        white = np.einsum("nkl,ln->nk", self.chol_inv, self.loadings.T @ resid)
        white += rng.standard_normal((thetas.shape[0], self.k))
        return np.einsum("nlk,nl->nk", self.chol_inv, white)


class MhEngine:
    """Vectorized random-walk Metropolis over every person at once."""

    def __init__(self, data: Dataset, items, factor_config: FactorConfig, link: Link):
        self.data = data
        self.link = link
        self.k = factor_config.k
        self.scale = 2.4 / np.sqrt(self.k)
        self.work = np.empty((3, data.n_persons, data.n_items))  # person_logliks' buffers
        self.target_rate = 0.234
        self.steps_adapted = 0
        self.last_rate = np.nan
        self.refresh(items, factor_config)

    def refresh(self, items, factor_config: FactorConfig):
        """New items and correlation; the step size and its adaptation go on."""
        self.items = items
        self.prior_prec = np.linalg.inv(factor_config.correlation)

    def logpost(self, thetas):
        quad = np.einsum("nk,kl,nl->n", thetas, self.prior_prec, thetas)
        return person_logliks(self.data, thetas, self.items, self.link, out=self.work) - 0.5 * quad

    def step(self, thetas, logpost, rng, adapt=False):
        n = thetas.shape[0]
        prop = thetas + self.scale * rng.standard_normal((n, self.k))
        lp_new = self.logpost(prop)
        accept_prob = acceptance_probability(lp_new - logpost)
        accept = rng.random(n) < accept_prob
        thetas = np.where(accept[:, None], prop, thetas)
        logpost = np.where(accept, lp_new, logpost)
        self.last_rate = float(np.mean(accept_prob))
        if adapt:
            self.steps_adapted += 1
            gain = 1.0 / (10.0 + self.steps_adapted) ** 0.6
            self.scale = float(self.scale * np.exp(gain * (self.last_rate - self.target_rate)))
        return thetas, logpost
