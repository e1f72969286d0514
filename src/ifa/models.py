"""Core response models: datasets, item parameters, response functions.

Three response families over a K-dimensional latent trait are supported:

* binary: P(Y=1 | theta) = G(d + a'theta)
* graded: cumulative-link ordinal, P(Y<=t | theta) = G(d_t + a'theta) with
  non-decreasing thresholds d_0 <= ... <= d_{t_j-1}
* gpc: generalized partial credit (adjacent-category logit), category-t
  probability proportional to exp(t * a'theta + sum_{v<=t} d_v); logit only

G is the logistic or standard-normal CDF.  Probability and derivative
computations are vectorized over rows of latent-trait values; the scalar
grad_* functions are thin wrappers used mostly in tests.

A binary cell is one kernel, _binary_cell: log G at the signed predictor
(z at code 1, -z at code 0) and its first two derivatives there.  The
binary log-probabilities, the per-person log-likelihoods, the derivative
core and the CJMLE binary blocks all call it.

All derivatives come from one core, _predictor_derivs: the first and second
derivatives of log f(t | theta) in the predictor m = a'theta at every row
and category.  pointwise_score picks the observed category's entry (the
CJMLE person block); soft_grad_hess weights them into the loading block and,
since a binary intercept shifts m just as a'theta does, into the binary
intercept block.  Only the gpc steps and graded thresholds have blocks of
their own.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

MISSING = -1

# clamp bounds applied to probabilities inside log evaluations only;
# probabilities themselves are never clamped
_CLIP_LO = 1e-300
_CLIP_HI = 1.0 - 1e-16

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
_LOG_SQRT_2PI = float(np.log(_SQRT_2PI))
_BINARY_SIGNS = np.array([-1.0, 1.0])  # d sz / dz at codes 0 and 1


class Link(enum.Enum):
    """Inverse-link (response) function G: logistic or normal ogive."""

    LOGIT = "logit"
    PROBIT = "probit"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:
            return special.expit(x)
        return special.ndtr(x)  # erf-based, abs error < 1e-15

    def pdf(self, x):
        """First derivative G'."""
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:
            p = special.expit(x)
            return p * special.expit(-x)
        return np.exp(-0.5 * x * x) / _SQRT_2PI

    def dpdf(self, x):
        """Second derivative G''."""
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:
            p = special.expit(x)
            return p * special.expit(-x) * (1.0 - 2.0 * p)
        return -x * np.exp(-0.5 * x * x) / _SQRT_2PI

    def inverse(self, p):
        p = np.asarray(p, dtype=float)
        if self is Link.LOGIT:
            return special.logit(p)
        return special.ndtri(p)


class ModelKind(enum.Enum):
    BINARY = "binary"
    GRADED = "graded"
    GPC = "gpc"


def as_link(link) -> Link:
    return link if isinstance(link, Link) else Link(str(link).lower())


def as_model(model) -> ModelKind:
    return model if isinstance(model, ModelKind) else ModelKind(str(model).lower())


def _default_model(model, categories) -> ModelKind:
    """The given model, else binary if every item has 2 categories, else graded."""
    if model is not None:
        return as_model(model)
    return ModelKind.BINARY if np.all(np.asarray(categories) == 2) else ModelKind.GRADED


@dataclass
class ItemParams:
    """Parameters of one item: model family, intercepts, loadings.

    intercepts has length 1 for binary items and t_j (= categories - 1) for
    graded/gpc items: graded stores the ordered cumulative thresholds
    d_0 <= ... <= d_{t_j-1}; gpc stores the adjacent-category steps
    d_1, ..., d_{t_j}.
    """

    kind: ModelKind
    intercepts: np.ndarray
    loadings: np.ndarray

    def __post_init__(self):
        self.intercepts = np.atleast_1d(np.asarray(self.intercepts, dtype=float))
        self.loadings = np.atleast_1d(np.asarray(self.loadings, dtype=float))
        if self.intercepts.ndim != 1 or self.loadings.ndim != 1:
            raise ValueError("intercepts and loadings must be one-dimensional")
        if self.intercepts.size < 1:
            raise ValueError("at least one intercept is required")
        if self.kind is ModelKind.BINARY and self.intercepts.size != 1:
            raise ValueError("binary items carry exactly one intercept")
        if self.kind is ModelKind.GRADED and np.any(np.diff(self.intercepts) < 0):
            raise ValueError("graded thresholds must be non-decreasing")

    @property
    def n_categories(self) -> int:
        return self.intercepts.size + 1

    @property
    def k(self) -> int:
        return self.loadings.size

    def beta(self) -> np.ndarray:
        """Full parameter vector (intercepts then loadings)."""
        return np.concatenate([self.intercepts, self.loadings])


@dataclass
class Dataset:
    """Integer response matrix with per-item category counts.

    responses is N x J with codes 0..categories[j]-1 and MISSING (-1) for
    absent cells.  Every row and every column must contain at least one
    observed entry.
    """

    responses: np.ndarray
    categories: np.ndarray

    def __post_init__(self):
        self.responses = np.asarray(self.responses)
        if not np.issubdtype(self.responses.dtype, np.integer):
            as_int = self.responses.astype(int)
            if not np.array_equal(as_int, self.responses):
                raise ValueError("responses must be integer codes")
            self.responses = as_int
        if self.responses.ndim != 2:
            raise ValueError("responses must be a 2-d matrix")
        self.categories = np.asarray(self.categories, dtype=int)
        if self.categories.shape != (self.responses.shape[1],):
            raise ValueError("categories must have one entry per item")
        if np.any(self.categories < 2):
            raise ValueError("every item needs at least two categories")
        obs = self.responses != MISSING
        if np.any((self.responses < 0) & obs):
            raise ValueError("negative response codes other than the missing code")
        if np.any(obs & (self.responses >= self.categories[None, :])):
            raise ValueError("response code exceeds the item's category count")
        if not obs.any(axis=1).all():
            raise ValueError("every person needs at least one observed response")
        if not obs.any(axis=0).all():
            raise ValueError("every item needs at least one observed response")

    @classmethod
    def from_responses(cls, responses, categories=None) -> "Dataset":
        responses = np.asarray(responses, dtype=int)
        if categories is None:
            categories = np.maximum(responses.max(axis=0) + 1, 2)
        return cls(responses, categories)

    @property
    def n_persons(self) -> int:
        return self.responses.shape[0]

    @property
    def n_items(self) -> int:
        return self.responses.shape[1]

    @property
    def observed_mask(self) -> np.ndarray:
        return self.responses != MISSING


def response_matrix(data) -> np.ndarray:
    """The (n, J) integer response matrix of a Dataset or of a raw array."""
    return data.responses if isinstance(data, Dataset) else np.asarray(data, dtype=int)


@dataclass
class FactorConfig:
    """Latent dimension and factor correlation matrix (unit diagonal)."""

    k: int
    correlation: np.ndarray = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.correlation is None:
            self.correlation = np.eye(self.k)
        self.correlation = np.asarray(self.correlation, dtype=float)
        if self.correlation.shape != (self.k, self.k):
            raise ValueError("correlation must be k x k")
        if not np.allclose(self.correlation, self.correlation.T, atol=1e-12):
            raise ValueError("correlation must be symmetric")
        if np.max(np.abs(np.diag(self.correlation) - 1.0)) > 1e-10:
            raise ValueError("correlation must have a unit diagonal")
        np.fill_diagonal(self.correlation, 1.0)
        if np.linalg.eigvalsh(self.correlation)[0] <= 0:
            raise ValueError("correlation must be positive definite")


def loadings_matrix(items) -> np.ndarray:
    """Stack item loadings into a J x K matrix."""
    return np.vstack([it.loadings for it in items])


def _theta_rows(theta, k=None) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 1:
        theta = theta[None, :]
    if k is not None and theta.shape[1] != k:
        raise ValueError("latent vector has wrong dimension")
    return theta


def _check_gpc_link(params: ItemParams, link: Link):
    if params.kind is ModelKind.GPC and link is not Link.LOGIT:
        raise ValueError("generalized partial credit items support the logit link only")


def _gpc_logits(theta, params: ItemParams) -> np.ndarray:
    """Category logits t*m + cumsum steps, shape (n, n_cat)."""
    m = theta @ params.loadings
    steps = np.concatenate([[0.0], np.cumsum(params.intercepts)])
    tgrid = np.arange(params.n_categories, dtype=float)
    return m[:, None] * tgrid[None, :] + steps[None, :]


def category_probs(theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Probabilities of all categories at each latent row, shape (n, n_cat)."""
    _check_gpc_link(params, link)
    theta = _theta_rows(theta, params.k)
    if params.kind is ModelKind.BINARY:
        p1 = link.cdf(params.intercepts[0] + theta @ params.loadings)
        return np.column_stack([1.0 - p1, p1])
    if params.kind is ModelKind.GRADED:
        z = params.intercepts[None, :] + (theta @ params.loadings)[:, None]
        return _graded_cells(z, link)
    logits = _gpc_logits(theta, params)
    logits = logits - logits.max(axis=1, keepdims=True)  # overflow guard
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _graded_cells(z, link: Link) -> np.ndarray:
    """Graded category probabilities from the cutpoint predictors z (n, T).

    Each cell is a difference of the two tails on the side of its lower
    cutpoint: G(z_t) - G(z_{t-1}) below 0 and (1 - G(z_{t-1})) - (1 - G(z_t))
    above, so far upper-tail cells do not cancel to 0.  The link cdf is
    evaluated once per cutpoint, at -|z|, and both tails derive from it.
    """
    n = z.shape[0]
    small = link.cdf(-np.abs(z))
    upper = z >= 0
    below = np.where(upper, 1.0 - small, small)
    above = np.where(upper, small, 1.0 - small)
    below = np.column_stack([np.zeros(n), below, np.ones(n)])
    above = np.column_stack([np.ones(n), above, np.zeros(n)])
    lower_cut_upper = np.column_stack([np.zeros(n, dtype=bool), upper])
    return np.where(
        lower_cut_upper, above[:, :-1] - above[:, 1:], below[:, 1:] - below[:, :-1]
    )


def category_logprobs(theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Log category probabilities; probabilities are clamped to
    [1e-300, 1-1e-16] inside the log only, with an exact zero mapping to -inf."""
    _check_gpc_link(params, link)
    theta = _theta_rows(theta, params.k)
    if params.kind is ModelKind.BINARY:
        m = params.intercepts[0] + theta @ params.loadings
        return _binary_cell(m[:, None] * _BINARY_SIGNS, link)
    if params.kind is ModelKind.GPC:
        logits = _gpc_logits(theta, params)
        return logits - special.logsumexp(logits, axis=1, keepdims=True)
    p = category_probs(theta, params, link)
    out = np.log(np.clip(p, _CLIP_LO, _CLIP_HI))
    out[p == 0.0] = -np.inf
    return out


def pointwise_score(y, theta, params: ItemParams, link: Link):
    """Score and curvature of log f(y | theta) w.r.t. the linear predictor
    m = a'theta, one value per row.  Returns (score, curvature)."""
    _check_gpc_link(params, link)
    theta = _theta_rows(theta, params.k)
    rows = np.arange(theta.shape[0])
    y = np.asarray(y, dtype=int)
    live = np.zeros((params.n_categories, rows.size), dtype=bool)
    live[y, rows] = True
    score, curv, _ = _predictor_derivs(theta, params, link, live)
    return score[y, rows], np.broadcast_to(curv, score.shape)[y, rows]


def _predictor_derivs(theta, params: ItemParams, link: Link, weights):
    """d log f(t | theta)/dm and d^2 log f(t | theta)/dm^2 in the predictor
    m = a'theta for every category t and row, as (n_cat, n) arrays: one
    contiguous row per category, so that the few-category work runs along
    the long axis.  A curvature that all categories share (gpc) comes as one
    (1, n) row.

    Also returns what the family's intercept derivatives need: None for
    binary items, the (n, n_cat) category probabilities for gpc items, and
    for graded items the cutpoint densities G'(z), G''(z), shape (T, n),
    with 1/f over the cells clipped below at 1e-300.  Graded cells whose
    (n_cat, n) weights are 0 are never divided by: their 1/f, score and
    curvature are exactly 0, so a cell of probability 0 cannot overflow.
    """
    m = theta @ params.loadings
    if params.kind is ModelKind.BINARY:
        z = np.add(m, params.intercepts[0], out=m)
        signs = _BINARY_SIGNS[:, None]
        score, curv = _binary_cell(signs * z, link, derivs=True)
        score *= signs  # d/dz = (d sz / dz) d/dsz
        return score, curv, None
    if params.kind is ModelKind.GPC:
        p = category_probs(theta, params, link)
        tgrid = np.arange(params.n_categories, dtype=float)
        mean_t = p @ tgrid
        var_t = p @ (tgrid**2) - mean_t**2
        return tgrid[:, None] - mean_t, -var_t[None, :], p
    # graded: f_t = G(z_t) - G(z_{t-1}) with boundary terms zero
    z = params.intercepts[:, None] + m
    cells = np.clip(_graded_cells(z.T, link).T, _CLIP_LO, None)
    inv = np.divide(1.0, cells, out=np.zeros(cells.shape), where=weights > 0)
    edge = np.zeros((1, z.shape[1]))
    gpad = np.vstack([edge, link.pdf(z), edge])
    hpad = np.vstack([edge, link.dpdf(z), edge])
    score = np.diff(gpad, axis=0) * inv
    curv = np.diff(hpad, axis=0) * inv - score**2
    return score, curv, (gpad[1:-1], hpad[1:-1], inv)


def _binary_cell(sz, link: Link, derivs=False, out=None):
    """Binary cells at signed predictors sz: z at code 1 and -z at code 0,
    so that G(sz) is each cell's probability.

    Returns log G(sz), or with derivs the pair (lam, curv) of its first and
    second derivatives in sz: lam = G'(sz)/G(sz) and curv = dlam/dsz.  out
    is a pair of arrays shaped like sz that receive the results; the value
    uses the second as scratch.  sz itself is only read.
    """
    s, c = out or (np.empty_like(sz), np.empty_like(sz))
    if link is Link.LOGIT:
        if derivs:  # lam = G(-sz), curv = -G(sz) G(-sz)
            special.expit(np.negative(sz, out=s), out=s)
            return s, np.multiply(s, np.subtract(s, 1.0, out=c), out=c)
        # log G(sz) = min(sz, 0) - log1p(exp(-|sz|)), in place
        np.log1p(np.exp(np.negative(np.abs(sz, out=s), out=s), out=s), out=s)
        return np.subtract(np.minimum(sz, 0.0, out=c), s, out=s)
    special.log_ndtr(sz, out=s)
    if not derivs:
        return s
    # lam in log form, stable through the deep tail; curv = -lam (sz + lam)
    np.multiply(sz, sz, out=c)
    c *= -0.5
    c -= _LOG_SQRT_2PI
    np.exp(np.subtract(c, s, out=c), out=s)
    np.multiply(np.add(sz, s, out=c), s, out=c)
    return s, np.negative(c, out=c)


def grad_wrt_theta(y, theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Gradient of log f(y | theta) with respect to theta."""
    score, _ = pointwise_score([y], theta, params, link)
    return score[0] * params.loadings


def grad_wrt_beta(y, theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Gradient of log f(y | theta) with respect to (intercepts, loadings)."""
    weights = np.zeros((1, params.n_categories))
    weights[0, int(y)] = 1.0
    g, _ = soft_grad_hess(_theta_rows(theta, params.k), weights, params, link)
    return g


def observed_logprobs(y_col, theta, params: ItemParams, link: Link) -> np.ndarray:
    """log f(y_i | theta_i) for one item across rows (y_col already observed)."""
    y = np.asarray(y_col, dtype=int)
    if params.kind is ModelKind.BINARY:  # the observed orientation alone
        sz = params.intercepts[0] + _theta_rows(theta, params.k) @ params.loadings
        sz *= 2 * y - 1  # -z at code 0
        return _binary_cell(sz, link)
    logp = category_logprobs(theta, params, link)
    return logp[np.arange(theta.shape[0]), y]


def person_logliks(responses, thetas, items, link: Link) -> np.ndarray:
    """Per-person joint log-likelihood contributions (missing cells skipped).

    responses: Dataset or raw (n, J) integer array with MISSING markers.
    """
    responses = response_matrix(responses)
    thetas = _theta_rows(thetas)
    total = np.zeros(responses.shape[0])
    for j, params in enumerate(items):
        y = responses[:, j]
        mask = y != MISSING
        if not mask.any():
            continue
        total[mask] += observed_logprobs(y[mask], thetas[mask], params, link)
    return total


def log_joint_likelihood(data, thetas, items, link: Link = Link.LOGIT) -> float:
    """Joint log-likelihood of responses given person and item parameters.

    data: Dataset or raw response matrix.  Missing cells contribute 0.
    Returns -inf (with a warning) if any observed cell has probability zero.
    """
    responses = response_matrix(data)
    if len(items) != responses.shape[1]:
        raise ValueError("one ItemParams per item is required")
    total = float(np.sum(person_logliks(responses, thetas, items, link)))
    if not np.isfinite(total):
        warnings.warn("joint likelihood underflow: some observed category has probability zero")
        return -np.inf
    return total


def soft_loglik(design, weights, params: ItemParams, link: Link) -> float:
    """Weighted log-likelihood sum_r sum_t weights[r, t] * log f(t | design_r)."""
    logp = category_logprobs(design, params, link)
    w = np.asarray(weights, dtype=float)
    return float(np.sum(np.where(w > 0, w * np.where(np.isfinite(logp), logp, -1e300), 0.0)))


def soft_grad_hess(design, weights, params: ItemParams, link: Link):
    """Gradient and Hessian of the weighted log-likelihood of one item with
    respect to its natural parameter vector (intercepts, loadings).

    design: (n, K) latent rows; weights: (n, n_cat) non-negative weights
    (one-hot rows recover the ordinary log-likelihood).  The loadings enter
    through the predictor m alone, so their block is the design weighted by
    the predictor derivatives; a binary intercept shifts m, and gpc steps and
    graded thresholds have their own blocks.
    """
    _check_gpc_link(params, link)
    design = _theta_rows(design, params.k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (design.shape[0], params.n_categories):
        raise ValueError("weights must be (n_rows, n_categories)")
    wt = np.ascontiguousarray(w.T)
    score, curv, extra = _predictor_derivs(design, params, link, wt)
    gm = np.einsum("tn,tn->n", wt, score)
    cm = np.einsum("tn,tn->n", wt, curv)
    if params.kind is ModelKind.BINARY:
        g_d, h_dd, cross = gm.sum(), cm.sum(), cm[None, :]
    elif params.kind is ModelKind.GPC:
        g_d, h_dd, cross = _gpc_intercepts(w, extra)
    else:
        g_d, h_dd, cross = _graded_intercepts(wt, *extra)
    t_count = params.intercepts.size
    grad = np.empty(t_count + params.k)
    grad[:t_count], grad[t_count:] = g_d, design.T @ gm
    hess = np.empty((grad.size, grad.size))
    hess[:t_count, :t_count] = h_dd
    hess[:t_count, t_count:] = cross @ design
    hess[t_count:, :t_count] = hess[:t_count, t_count:].T
    hess[t_count:, t_count:] = (design.T * cm) @ design
    return grad, hess


def _gpc_intercepts(w, p):
    """Step gradient, step Hessian and (T, n) step-by-m cross terms."""
    t_count = p.shape[1] - 1
    tgrid = np.arange(t_count + 1, dtype=float)
    n_r = w.sum(axis=1)
    # reverse cumulative sums over categories, columns v = 1..t_count
    w_ge = np.cumsum(w[:, ::-1], axis=1)[:, ::-1][:, 1:]
    p_ge = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
    tp = p * tgrid[None, :]
    tp_ge = np.cumsum(tp[:, ::-1], axis=1)[:, ::-1][:, 1:]
    mean_t = tp.sum(axis=1)
    g_d = (w_ge - n_r[:, None] * p_ge).sum(axis=0)
    idx = np.maximum.outer(np.arange(t_count), np.arange(t_count))
    h_dd = -np.einsum("n,nvw->vw", n_r, p_ge[:, idx]) + np.einsum(
        "n,nv,nw->vw", n_r, p_ge, p_ge
    )
    return g_d, h_dd, -(n_r[:, None] * (tp_ge - p_ge * mean_t[:, None])).T


def _graded_intercepts(w, g, h, inv):
    """Threshold gradient, threshold Hessian and (T, n) threshold-by-m cross
    terms, all cutpoints at once, from (n_cat, n) weights.  Cutpoint t is
    the upper end of cell t and the lower end of cell t + 1; the ratios
    G'(z_t)/f of those two cells are formed before squaring, so far-tail
    cells whose density and probability both underflow give 0, not 0 * inf."""
    q = w * inv
    up = g * inv[:-1]  # G'(z_t) / f_t
    lo = g * inv[1:]  # G'(z_t) / f_{t+1}
    diag = h * (q[:-1] - q[1:]) - w[:-1] * up**2 - w[1:] * lo**2
    off = w[1:-1] * up[1:] * lo[:-1]  # cutpoints t, t+1 share cell t+1
    cross = diag.copy()
    cross[1:] += off
    cross[:-1] += off
    band = np.arange(g.shape[0] - 1)
    h_dd = np.diag(diag.sum(axis=1))
    h_dd[band, band + 1] = h_dd[band + 1, band] = off.sum(axis=1)
    return (w[:-1] * up - w[1:] * lo).sum(axis=1), h_dd, cross
