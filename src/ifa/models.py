"""Core response models: datasets, item parameters, response functions.

Three response families over a K-dimensional latent trait are supported:

* binary: P(Y=1 | theta) = G(d + a'theta)
* graded: cumulative-link ordinal, P(Y<=t | theta) = G(d_t + a'theta) with
  non-decreasing thresholds d_0 <= ... <= d_{t_j-1}
* gpc: generalized partial credit (adjacent-category logit), category-t
  probability proportional to exp(t * a'theta + sum_{v<=t} d_v); logit only

G is the logistic or standard-normal CDF.  Probability and derivative
computations are vectorized over rows of latent-trait values; the scalar
irf_* / grad_* functions are thin wrappers used mostly in tests.
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

    def log_cdf(self, x):
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:
            return special.log_expit(x)
        return special.log_ndtr(x)

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
        if link is Link.LOGIT:
            lc = link.log_cdf(m)  # log G(-m) = log G(m) - m, saves a pass
            return np.column_stack([lc - m, lc])
        return np.column_stack([link.log_cdf(-m), link.log_cdf(m)])
    if params.kind is ModelKind.GPC:
        logits = _gpc_logits(theta, params)
        return logits - special.logsumexp(logits, axis=1, keepdims=True)
    p = category_probs(theta, params, link)
    out = np.log(np.clip(p, _CLIP_LO, _CLIP_HI))
    out[p == 0.0] = -np.inf
    return out


def irf_binary(theta, params: ItemParams, link: Link = Link.LOGIT) -> float:
    """P(Y = 1 | theta) for a binary item."""
    if params.kind is not ModelKind.BINARY:
        raise ValueError("irf_binary requires a binary item")
    return float(category_probs(theta, params, link)[0, 1])


def irf_graded(theta, params: ItemParams, category: int, link: Link = Link.LOGIT) -> float:
    """P(Y = category | theta) for a graded item."""
    if params.kind is not ModelKind.GRADED:
        raise ValueError("irf_graded requires a graded item")
    if not 0 <= category < params.n_categories:
        raise ValueError("category out of range")
    return float(category_probs(theta, params, link)[0, category])


def irf_gpc(theta, params: ItemParams, category: int) -> float:
    """P(Y = category | theta) for a generalized partial credit item."""
    if params.kind is not ModelKind.GPC:
        raise ValueError("irf_gpc requires a gpc item")
    if not 0 <= category < params.n_categories:
        raise ValueError("category out of range")
    return float(category_probs(theta, params, Link.LOGIT)[0, category])


def pointwise_score(y, theta, params: ItemParams, link: Link):
    """Score and curvature of log f(y | theta) w.r.t. the linear predictor
    m = a'theta, one value per row.  Returns (score, curvature)."""
    _check_gpc_link(params, link)
    theta = _theta_rows(theta, params.k)
    y = np.asarray(y, dtype=int)
    m = theta @ params.loadings
    if params.kind is ModelKind.BINARY:
        z = params.intercepts[0] + m
        if link is Link.LOGIT:
            p = link.cdf(z)
            return y - p, -p * (1.0 - p)
        sign = np.where(y == 1, 1.0, -1.0)
        # lam = G'(sz)/G(sz); stable through the deep tail via log forms
        lam = np.exp(_log_pdf(sign * z, link) - link.log_cdf(sign * z))
        return sign * lam, -lam * (sign * z + lam)
    if params.kind is ModelKind.GPC:
        p = category_probs(theta, params, link)
        tgrid = np.arange(params.n_categories, dtype=float)
        mean_t = p @ tgrid
        var_t = p @ (tgrid**2) - mean_t**2
        return y - mean_t, -var_t
    # graded: f = G(z_t) - G(z_{t-1}) with boundary terms zero
    z = params.intercepts[None, :] + m[:, None]
    n = theta.shape[0]
    gpad = np.column_stack([np.zeros(n), link.pdf(z), np.zeros(n)])
    hpad = np.column_stack([np.zeros(n), link.dpdf(z), np.zeros(n)])
    rows = np.arange(n)
    f = np.clip(_graded_cells(z, link)[rows, y], _CLIP_LO, None)
    dg = gpad[rows, y + 1] - gpad[rows, y]
    dh = hpad[rows, y + 1] - hpad[rows, y]
    score = dg / f
    curv = dh / f - score**2
    return score, curv


def _log_pdf(x, link: Link):
    if link is Link.LOGIT:
        return 2.0 * special.log_expit(x) - x
    return -0.5 * x * x - np.log(_SQRT_2PI)


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
    logp = category_logprobs(theta, params, link)
    return logp[np.arange(theta.shape[0]), np.asarray(y_col, dtype=int)]


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
    (one-hot rows recover the ordinary log-likelihood).
    """
    _check_gpc_link(params, link)
    design = _theta_rows(design, params.k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (design.shape[0], params.n_categories):
        raise ValueError("weights must be (n_rows, n_categories)")
    if params.kind is ModelKind.BINARY:
        return _binary_grad_hess(design, w, params, link)
    if params.kind is ModelKind.GPC:
        return _gpc_grad_hess(design, w, params)
    return _graded_grad_hess(design, w, params, link)


def _binary_grad_hess(design, w, params, link):
    m = params.intercepts[0] + design @ params.loadings
    w0, w1 = w[:, 0], w[:, 1]
    if link is Link.LOGIT:
        p = link.cdf(m)  # lam1 = 1 - p, lam0 = p for the logistic link
        gm = w1 - (w0 + w1) * p
        cm = (w0 + w1) * (-p * (1.0 - p))
    else:
        lam1 = np.exp(_log_pdf(m, link) - link.log_cdf(m))
        lam0 = np.exp(_log_pdf(-m, link) - link.log_cdf(-m))
        c1 = -lam1 * (m + lam1)
        c0 = -lam0 * (-m + lam0)
        gm = w1 * lam1 - w0 * lam0
        cm = w1 * c1 + w0 * c0
    grad = np.concatenate([[gm.sum()], design.T @ gm])
    k = params.k
    hess = np.empty((1 + k, 1 + k))
    hess[0, 0] = cm.sum()
    hess[0, 1:] = hess[1:, 0] = design.T @ cm
    hess[1:, 1:] = np.einsum("n,ni,nj->ij", cm, design, design)
    return grad, hess


def _gpc_grad_hess(design, w, params):
    t_count = params.intercepts.size
    p = category_probs(design, params, Link.LOGIT)
    tgrid = np.arange(t_count + 1, dtype=float)
    n_r = w.sum(axis=1)
    # reverse cumulative sums over categories, columns v = 1..t_count
    w_ge = np.cumsum(w[:, ::-1], axis=1)[:, ::-1][:, 1:]
    p_ge = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
    tp = p * tgrid[None, :]
    tp_ge = np.cumsum(tp[:, ::-1], axis=1)[:, ::-1][:, 1:]
    mean_t = tp.sum(axis=1)
    var_t = p @ (tgrid**2) - mean_t**2
    w_t = w @ tgrid
    g_d = (w_ge - n_r[:, None] * p_ge).sum(axis=0)
    g_a = design.T @ (w_t - n_r * mean_t)
    idx = np.maximum.outer(np.arange(t_count), np.arange(t_count))
    h_dd = -np.einsum("n,nvw->vw", n_r, p_ge[:, idx]) + np.einsum(
        "n,nv,nw->vw", n_r, p_ge, p_ge
    )
    cov_bt = tp_ge - p_ge * mean_t[:, None]
    h_da = -np.einsum("n,nv,nk->vk", n_r, cov_bt, design)
    h_aa = -np.einsum("n,nk,nl->kl", n_r * var_t, design, design)
    grad = np.concatenate([g_d, g_a])
    dim = t_count + params.k
    hess = np.empty((dim, dim))
    hess[:t_count, :t_count] = h_dd
    hess[:t_count, t_count:] = h_da
    hess[t_count:, :t_count] = h_da.T
    hess[t_count:, t_count:] = h_aa
    return grad, hess


def _graded_grad_hess(design, w, params, link):
    t_count = params.intercepts.size
    k = params.k
    n = design.shape[0]
    m = design @ params.loadings
    z = params.intercepts[None, :] + m[:, None]
    cells = np.clip(_graded_cells(z, link), _CLIP_LO, None)
    gpad = np.column_stack([np.zeros(n), link.pdf(z), np.zeros(n)])
    hpad = np.column_stack([np.zeros(n), link.dpdf(z), np.zeros(n)])
    dim = t_count + k
    grad = np.zeros(dim)
    hess = np.zeros((dim, dim))
    for t in range(t_count + 1):
        wt = w[:, t]
        if not np.any(wt > 0):
            continue
        f = cells[:, t]
        up = gpad[:, t + 1] / f
        lo = gpad[:, t] / f
        alpha = hpad[:, t + 1] / f
        beta = hpad[:, t] / f
        delta = up - lo
        grad[t_count:] += design.T @ (wt * delta)
        hess[t_count:, t_count:] += np.einsum(
            "n,ni,nj->ij", wt * (alpha - beta - delta**2), design, design
        )
        if t < t_count:
            grad[t] += np.sum(wt * up)
            hess[t, t] += np.sum(wt * (alpha - up**2))
            block = design.T @ (wt * (alpha - up * delta))
            hess[t, t_count:] += block
            hess[t_count:, t] += block
        if t > 0:
            grad[t - 1] -= np.sum(wt * lo)
            hess[t - 1, t - 1] += np.sum(wt * (-beta - lo**2))
            block = design.T @ (wt * (-beta + lo * delta))
            hess[t - 1, t_count:] += block
            hess[t_count:, t - 1] += block
        if 0 < t < t_count:
            cross = np.sum(wt * up * lo)
            hess[t, t - 1] += cross
            hess[t - 1, t] += cross
    return grad, hess
