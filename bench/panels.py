"""Seeded response panels for the benchmark, simulated without ifa.

Each panel keeps its generating parameters beside the responses so the
checks can compare fits against the truth.  Only `responses` (and the
per-item category counts) are handed to the estimators.  The parameter laws
follow the package's documented defaults: loadings U(0.5, 1.5) on free
entries, binary intercepts U(-1, 1), graded thresholds sorted U(-1.5, 1.5).

Model conventions (the package's, restated here):
  binary  P(Y = 1 | theta) = G(d + a'theta)
  graded  P(Y <= t | theta) = G(d_t + a'theta), d_0 <= ... <= d_{T-1}
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special


@dataclass
class Panel:
    name: str
    responses: np.ndarray     # N x J integer codes
    categories: np.ndarray    # J category counts
    intercepts: np.ndarray    # J x T (T = 1 for binary, thresholds for graded)
    loadings: np.ndarray      # J x K
    correlation: np.ndarray   # K x K factor correlation
    thetas: np.ndarray        # N x K true scores
    model: str                # "binary" or "graded"
    link: str                 # "logit" or "probit"
    q: np.ndarray | None = None


def cdf(x, link: str):
    return special.expit(x) if link == "logit" else special.ndtr(x)


def simple_structure(sizes) -> np.ndarray:
    """Q matrix with items loading on one factor each, in blocks of `sizes`."""
    k = len(sizes)
    return np.repeat(np.eye(k, dtype=int), sizes, axis=0)


def equicorrelation(k: int, rho: float) -> np.ndarray:
    corr = np.full((k, k), rho)
    np.fill_diagonal(corr, 1.0)
    return corr


def draw_responses(thetas, intercepts, loadings, model: str, link: str, rng) -> np.ndarray:
    """Inverse-CDF draws: Y = number of cumulative probabilities below U."""
    n, j = thetas.shape[0], loadings.shape[0]
    lin = thetas @ loadings.T  # N x J
    u = rng.random((n, j))
    if model == "binary":
        return (u < cdf(intercepts[None, :, 0] + lin, link)).astype(np.int64)
    cum = cdf(intercepts[None, :, :] + lin[:, :, None], link)  # P(Y <= t)
    return (u[:, :, None] >= cum).sum(axis=2).astype(np.int64)


def simulate(name, n, j, k, seed, *, model="binary", link="logit", categories=2,
             q=None, correlation=None, param_seed=None) -> Panel:
    """Panel from `seed`; item parameters from `param_seed` when given."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    prng = rng if param_seed is None else np.random.default_rng(np.random.SeedSequence(param_seed))
    loadings = prng.uniform(0.5, 1.5, size=(j, k))
    if q is not None:
        loadings = loadings * q
    if model == "binary":
        intercepts = prng.uniform(-1.0, 1.0, size=(j, 1))
    else:
        intercepts = np.sort(prng.uniform(-1.5, 1.5, size=(j, categories - 1)), axis=1)
    corr = np.eye(k) if correlation is None else np.asarray(correlation, dtype=float)
    thetas = rng.standard_normal((n, k)) @ np.linalg.cholesky(corr).T
    responses = draw_responses(thetas, intercepts, loadings, model, link, rng)
    return Panel(name, responses, np.full(j, categories), intercepts, loadings, corr,
                 thetas, model, link, q)


def twin(panel: Panel, name: str, link: str, seed) -> Panel:
    """Same generating parameters and scores, responses redrawn under `link`."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    responses = draw_responses(panel.thetas, panel.intercepts, panel.loadings,
                               panel.model, link, rng)
    return Panel(name, responses, panel.categories, panel.intercepts, panel.loadings,
                 panel.correlation, panel.thetas, panel.model, link, panel.q)
