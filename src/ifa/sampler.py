"""Posterior samplers for person parameters.

Two kernels, each run for every person at once: GibbsEngine, a blocked
Gibbs sweep for probit models (truncated-normal data augmentation, then an
exact K-variate normal draw with precision corr^{-1} + A'A over each
person's observed items, from that person's own Cholesky factor), and
MhEngine, an adaptive random-walk Metropolis step for logit models.  Every
person is one chain, all chains draw from the one generator passed in, and
a fit refreshes one engine in place every iteration.  The engines back the
Monte Carlo, stochastic EM and stochastic-approximation marginal estimators.
"""
from __future__ import annotations

import numpy as np
from scipy import special

from .models import Dataset, FactorConfig, ItemParams, Link, ModelKind, _predictors, person_logliks

_TAIL_CUT = 6.0  # inverse-CDF sampling below, exponential rejection beyond


def acceptance_probability(log_ratio) -> np.ndarray:
    """Metropolis acceptance probability min(1, exp(log_ratio))."""
    return np.exp(np.minimum(np.asarray(log_ratio, dtype=float), 0.0))


def _robert_tail(a, rng):
    """Draws from N(0,1) truncated to [a, inf) for large a (Robert's method)."""
    a = np.asarray(a, dtype=float)
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty_like(a)
    todo = np.ones(a.shape, dtype=bool)
    while todo.any():
        n = int(todo.sum())
        cand = a[todo] + rng.exponential(size=n) / lam[todo]
        accept = rng.random(n) <= np.exp(-0.5 * (cand - lam[todo]) ** 2)
        hit = np.where(todo)[0][accept]
        out[hit] = cand[accept]
        todo[hit] = False
    return out


def _trunc_std_upper(a, b, rng):
    """Z ~ N(0,1) restricted to [a, b] with a >= 0 elementwise."""
    out = np.empty_like(a)
    deep = (a > _TAIL_CUT) & np.isinf(b)
    if deep.any():
        out[deep] = _robert_tail(a[deep], rng)
    rest = ~deep
    if rest.any():
        ar, br = a[rest], b[rest]
        u = rng.random(ar.shape)
        qa = special.ndtr(-ar)
        mass = qa - special.ndtr(-br)
        ok = mass > 0
        z = np.empty_like(ar)
        if ok.any():
            v = qa[ok] - u[ok] * mass[ok]
            z[ok] = -special.ndtri(v)
        if (~ok).any():  # interval mass underflows; approximate locally uniform
            width = np.minimum(br[~ok] - ar[~ok], 1.0 / np.maximum(ar[~ok], 1.0))
            z[~ok] = ar[~ok] + u[~ok] * width
        out[rest] = np.clip(z, ar, br)
    return out


def truncated_normal_interval(mean, lower, upper, rng):
    """Vectorized draws from N(mean, 1) truncated to [lower, upper]."""
    mean = np.asarray(mean, dtype=float)
    a = np.broadcast_to(np.asarray(lower, dtype=float), mean.shape) - mean
    b = np.broadcast_to(np.asarray(upper, dtype=float), mean.shape) - mean
    if np.any(a >= b):
        raise ValueError("lower truncation bound must be below the upper bound")
    z = np.empty_like(mean)
    up = a >= 0
    lo = b <= 0
    mid = ~(up | lo)
    # fixed evaluation order keeps draws reproducible for a given rng state
    if up.any():
        z[up] = _trunc_std_upper(a[up], b[up], rng)
    if lo.any():
        z[lo] = -_trunc_std_upper(-b[lo], -a[lo], rng)
    if mid.any():
        pa, pb = special.ndtr(a[mid]), special.ndtr(b[mid])
        u = rng.random(int(mid.sum()))
        z[mid] = np.clip(special.ndtri(pa + u * (pb - pa)), a[mid], b[mid])
    return mean + z


def _latent_table(params: ItemParams, width: int) -> np.ndarray:
    """(lower, upper) bounds of the centered probit latent, by response code."""
    table = np.array([[-np.inf] * width, [np.inf] * width])
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

    `refresh` takes new items and correlation in place.  Each person's
    precision is one row of the (N, J) observed mask times the (J, K^2)
    loading outer products plus corr^{-1}, kept as the inverse L^{-1} of its
    Cholesky factor, so theta = L^{-T} (L^{-1} r + z) for any missing cells.
    """

    def __init__(self, data: Dataset, items, factor_config: FactorConfig):
        self.data = data
        self.obs = data.observed_mask
        self.codes = np.where(self.obs, data.responses, 0)
        self.refresh(items, factor_config)

    def refresh(self, items, factor_config: FactorConfig):
        k = self.k = factor_config.k
        self.loadings = np.vstack([it.loadings for it in items])
        self.offsets = _predictors(np.zeros(k), items)[0]  # z at theta = 0: the binary intercepts
        width = max(it.n_categories for it in items)
        table = np.stack([_latent_table(it, width) for it in items], axis=1)
        self.lower, self.upper = table[:, np.arange(len(items)), self.codes]
        outer = np.einsum("jk,jl->jkl", self.loadings, self.loadings).reshape(-1, k * k)
        prec = np.linalg.inv(factor_config.correlation) + (self.obs @ outer).reshape(-1, k, k)
        self.chol_inv = np.linalg.inv(np.linalg.cholesky(prec))

    def sweep(self, thetas, rng):
        n = thetas.shape[0]
        resid = np.zeros((n, self.data.n_items))
        proj = thetas @ self.loadings.T
        for col in range(self.data.n_items):
            mask = self.obs[:, col]
            mean = proj[mask, col] + self.offsets[col]
            draw = truncated_normal_interval(mean, self.lower[mask, col], self.upper[mask, col], rng)
            resid[mask, col] = draw - self.offsets[col]
        white = np.einsum("nkl,nl->nk", self.chol_inv, resid @ self.loadings)
        white += rng.standard_normal((n, self.k))
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
