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

Observed cells come from one panel kernel, _panel_cells: each cell's
log f(y | theta), or its score and curvature, from the (n, J) predictors
z = Theta A' plus the binary intercepts (_predictors, one GEMM).  A binary
cell is _binary_cell at the signed predictor sz = (2 code - 1) z, a graded cell
_graded_probs over its two cutpoints, a gpc cell its normalized logits.
The likelihoods, the MH log-posterior and the CJMLE person rows call it.

The cell kernels make dense passes only, each a ufunc over whole arrays,
because the masked and special-function idioms cost several times the
dense work they stand for.  On a 2-core x86-64 machine (numpy 2.4, scipy
1.17, 2000 x 20 panel), special.expit took 6.4 ns a cell where
1 / (1 + exp(x)) took 1.9-2.0 ns; and a ufunc with where= over a
scattered mask calls its inner loop once per run of True, so negating the
code-0 cells took 350 us against 21 us for a multiply by held +-1 signs.
So no hot kernel calls special.expit or a masked ufunc over a scattered
mask: logistic probabilities and derivatives are 1 / (1 + exp(x)) forms
(_logistic_sf), whose overflow gives the exact limit, binary cells are
signed by multiplying by 2 code - 1, and zero weights enter by
multiplication.  Masked writes are left only for MISSING cells and for
log values of cells of probability 0, which a complete panel lacks.

The derivatives at every category come from one core, _predictor_derivs:
the first and second derivatives of log f(t | theta) in the predictor
m = a'theta at every row and category.  soft_grad_hess weights them into
the loading block and, since a binary intercept shifts m just as a'theta
does, into the binary intercept block.  Only the gpc steps and graded
thresholds have blocks of their own.
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
            return _logistic_sf(-x)
        return special.ndtr(x)  # erf-based, abs error < 1e-15

    def pdf(self, x):
        """First derivative G'."""
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:
            return np.negative(_logistic_sf(x, derivs=True)[1])
        return np.exp(-0.5 * x * x) / _SQRT_2PI

    def dpdf(self, x):
        """Second derivative G''."""
        x = np.asarray(x, dtype=float)
        if self is Link.LOGIT:  # G' (1 - 2G), with 1 - 2G(x) = -tanh(x/2) exact near 0
            _, dlam = _logistic_sf(x, derivs=True)
            return np.multiply(dlam, np.tanh(0.5 * x), out=dlam)
        return -np.clip(x, -1e300, 1e300) * np.exp(-0.5 * x * x) / _SQRT_2PI  # 0 at +-inf

    def inverse(self, p, out=None):
        p = np.asarray(p, dtype=float)
        return (special.logit if self is Link.LOGIT else special.ndtri)(p, out=out)


def _logistic_sf(x, out=None, derivs=False):
    """1 - G(x) = G(-x) = 1 / (1 + exp(x)) for the logistic G, or with
    derivs the pair (G(-x), -G'(x)), where G'(x) = G(-x) / (1 + exp(-x)):
    the score d log G(x) / dx and its derivative.

    exp(x) overflows to inf past 709.78 and 1 / exp(x) divides by 0 below
    -745; both give the exact limits (0 or 1), so neither is warned of.
    Each value is within 4 ulp.  out is a pair of arrays like x that
    receive the results, the second scratch without derivs."""
    s, c = out or (np.empty_like(x), np.empty_like(x))
    with np.errstate(over="ignore", divide="ignore"):
        np.exp(x, out=c)
        np.divide(1.0, np.add(c, 1.0, out=s), out=s)
        if not derivs:
            return s
        np.subtract(-1.0, np.divide(1.0, c, out=c), out=c)  # -(1 + exp(-x))
    return s, np.divide(s, c, out=c)


class ModelKind(enum.Enum):
    BINARY = "binary"
    GRADED = "graded"
    GPC = "gpc"


def as_link(link) -> Link:
    return link if isinstance(link, Link) else Link(str(link).lower())


def as_model(model) -> ModelKind:
    return model if isinstance(model, ModelKind) else ModelKind(str(model).lower())


def _resolve_model(model, link, categories) -> tuple[ModelKind, Link]:
    """R1: model=None is binary if every item has 2 categories, else graded;
    binary needs 2 categories on every item, and gpc the logit link."""
    link = as_link(link)
    binary = bool(np.all(np.asarray(categories) == 2))
    if model is None:
        model = ModelKind.BINARY if binary else ModelKind.GRADED
    model = as_model(model)
    if model is ModelKind.BINARY and not binary:
        raise ValueError("the binary model needs 2 categories on every item")
    _check_gpc_link(model, link)
    return model, link


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


def _check_gpc_link(kind: ModelKind, link: Link):
    if kind is ModelKind.GPC and link is not Link.LOGIT:
        raise ValueError("generalized partial credit items support the logit link only")


def _gpc_logits(z, items) -> np.ndarray:
    """Category-major gpc logits t z + sum_{v<=t} d_v at (n, J) predictors z:
    (W, n, J) for the widest item's W categories, -inf past each item's top."""
    steps = np.full((len(items), max(it.n_categories for it in items)), -np.inf)
    for j, it in enumerate(items):
        steps[j, : it.n_categories] = np.cumsum(np.append(0.0, it.intercepts))
    return np.arange(steps.shape[1], dtype=float)[:, None, None] * z + steps.T[:, None, :]


def category_probs(theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Probabilities of all categories at each latent row, shape (n, n_cat)."""
    _check_gpc_link(params.kind, link)
    theta = _theta_rows(theta, params.k)
    if params.kind is ModelKind.BINARY:
        p1 = link.cdf(params.intercepts[0] + theta @ params.loadings)
        return np.column_stack([1.0 - p1, p1])
    if params.kind is ModelKind.GRADED:
        return _graded_probs((_cutpoints([params]).T + theta @ params.loadings).T, link)
    logits = _gpc_logits((theta @ params.loadings)[:, None], [params])[:, :, 0].T
    logits = logits - logits.max(axis=1, keepdims=True)  # overflow guard
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def _cutpoints(items) -> np.ndarray:
    """(J, W + 1) graded cutpoints -inf, d_0, ..., +inf, padded with +inf to
    the widest item's W categories: category t lies between columns t, t + 1."""
    table = np.full((len(items), max(it.n_categories for it in items) + 1), np.inf)
    table[:, 0] = -np.inf
    for j, it in enumerate(items):
        table[j, 1 : it.n_categories] = it.intercepts
    return table


def _graded_probs(cuts, link: Link) -> np.ndarray:
    """Probabilities of the cells between consecutive cutpoint predictors
    along the last axis of cuts, each a difference of the two tails on the
    side of its lower cutpoint, so far upper-tail cells do not cancel to 0.
    G is evaluated once per cutpoint, at -|z|.  Callers lay the cutpoint axis
    out slowest (a transposed view), so each category's cells are contiguous."""
    a = np.abs(cuts)
    tail = _logistic_sf(a) if link is Link.LOGIT else link.cdf(-a)
    lo, hi = tail[..., :-1], tail[..., 1:]
    return np.where(cuts[..., :-1] >= 0, lo - hi, np.where(cuts[..., 1:] >= 0, 1.0 - hi, hi) - lo)


def category_logprobs(theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Log category probabilities; probabilities are clamped to
    [1e-300, 1-1e-16] inside the log only, with an exact zero mapping to -inf."""
    _check_gpc_link(params.kind, link)
    theta = _theta_rows(theta, params.k)
    if params.kind is ModelKind.BINARY:
        m = params.intercepts[0] + theta @ params.loadings
        return _binary_cell(m[:, None] * _BINARY_SIGNS, link)
    if params.kind is ModelKind.GPC:
        logits = _gpc_logits((theta @ params.loadings)[:, None], [params])[:, :, 0].T
        return logits - special.logsumexp(logits, axis=1, keepdims=True)
    p = category_probs(theta, params, link)
    out = np.log(np.clip(p, _CLIP_LO, _CLIP_HI))
    out[p == 0.0] = -np.inf
    return out


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
    (n_cat, n) weights are 0 take 0 in place of 1/f, and so a score and
    curvature of exactly 0: the clip keeps 0/f finite, so a cell of
    probability 0 cannot overflow.
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
    cuts = _cutpoints([params]).T + m
    cells = np.clip(_graded_probs(cuts.T, link).T, _CLIP_LO, None)
    inv = np.divide(weights > 0, cells, out=cells)
    gpad, hpad = np.zeros((2,) + cuts.shape)  # both vanish at the -inf and +inf ends
    gpad[1:-1], hpad[1:-1] = link.pdf(cuts[1:-1]), link.dpdf(cuts[1:-1])
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

    Logit values take one exp, of -|sz|, which cannot overflow: log G(sz)
    = min(sz, 0) - log1p(exp(-|sz|)).  Logit derivatives are those of
    _logistic_sf: lam = G(-sz) = 1 / (1 + exp(sz)) and curv = -G'(sz) =
    -lam / (1 + exp(-sz)), accurate in both tails and exact at +-inf.
    Probit cells work from log_ndtr, with lam in log form so that it stays
    finite in the deep tail.
    """
    s, c = out or (np.empty_like(sz), np.empty_like(sz))
    if link is Link.LOGIT:
        if derivs:
            return _logistic_sf(sz, out=(s, c), derivs=True)
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
    z = _predictors(_theta_rows(theta, params.k), [params])
    score, _ = _panel_cells(z, np.array([[y]]), [params], link, derivs=True)
    return score[0, 0] * params.loadings


def grad_wrt_beta(y, theta, params: ItemParams, link: Link = Link.LOGIT) -> np.ndarray:
    """Gradient of log f(y | theta) with respect to (intercepts, loadings)."""
    weights = np.zeros((1, params.n_categories))
    weights[0, int(y)] = 1.0
    g, _ = soft_grad_hess(_theta_rows(theta, params.k), weights, params, link)
    return g


def _predictors(thetas, items, out=None) -> np.ndarray:
    """z = Theta A' plus each binary item's intercept, shape (n, J): a binary
    cell's predictor, and the a'theta of graded and gpc cells."""
    z = np.matmul(_theta_rows(thetas), loadings_matrix(items).T, out=out)
    z += [it.intercepts[0] if it.kind is ModelKind.BINARY else 0.0 for it in items]
    return z


def _panel_cells(z, codes, items, link: Link, derivs=False, out=None):
    """log f(y | theta) at every cell of the (n, J) codes, or with derivs
    the pair (score, curvature) in the predictor, as (n, J) arrays that are
    0 at MISSING; log values keep category_logprobs' clamps, and a panel of
    mixed kinds takes one call per kind.  z is the panel's _predictors
    matrix, which binary cells overwrite.  out is a pair of arrays like
    z that receive the results; the value uses the second as scratch."""
    s, c = (np.empty_like(z), np.empty_like(z)) if out is None else out
    kinds = dict.fromkeys(it.kind for it in items)
    # a missing code, -1, reads the last category's column; its cell is zeroed below
    if len(kinds) > 1:
        for kind in kinds:
            cols = [j for j, it in enumerate(items) if it.kind is kind]
            part = _panel_cells(z[:, cols], codes[:, cols], [items[j] for j in cols], link, derivs)
            s[:, cols], c[:, cols] = part if derivs else (part, 0.0)
    elif items[0].kind is ModelKind.BINARY:  # signs d sz / dz = 2 code - 1, in work arrays
        z *= np.subtract(np.multiply(codes, 2.0, out=c), 1.0, out=c)  # the signed predictor sz
        _binary_cell(z, link, derivs, out=(s, c))
        if derivs:  # d/dz = sign d/dsz, the signs now held in z
            s *= np.subtract(np.multiply(codes, 2.0, out=z), 1.0, out=z)
    elif items[0].kind is ModelKind.GRADED:  # the cell's two cutpoints, category-major
        table, cols = _cutpoints(items), np.arange(len(items))
        cuts = z + np.stack([table[cols, codes], table[cols, codes + 1]])
        p = _graded_probs(np.moveaxis(cuts, 0, -1), link)[..., 0]
        if not derivs:
            np.log(np.clip(p, _CLIP_LO, _CLIP_HI), out=s)
            np.copyto(s, -np.inf, where=p == 0.0)
        else:
            inv = 1.0 / np.clip(p, _CLIP_LO, None)
            g, h = link.pdf(cuts), link.dpdf(cuts)
            np.multiply(g[1] - g[0], inv, out=s)
            np.subtract((h[1] - h[0]) * inv, s**2, out=c)
    else:
        _check_gpc_link(items[0].kind, link)
        logits = _gpc_logits(z, items)
        tgrid = np.arange(len(logits), dtype=float)[:, None, None]
        logp = logits - special.logsumexp(logits, axis=0)
        if not derivs:
            s[...] = np.take_along_axis(logp, codes[None], axis=0)[0]
        else:
            p = np.exp(logp)
            mean = (p * tgrid).sum(axis=0)
            np.subtract(codes, mean, out=s)
            np.subtract(mean**2, (p * tgrid**2).sum(axis=0), out=c)
    for cells in (s, c) if derivs else (s,):
        np.copyto(cells, 0.0, where=codes == MISSING)
    return (s, c) if derivs else s


def person_logliks(responses, thetas, items, link: Link, out=None) -> np.ndarray:
    """Per-person joint log-likelihood contributions (missing cells skipped).

    responses: Dataset or raw (n, J) integer array with MISSING markers.
    out: an optional (3, n, J) work array for a caller that makes many calls
    on one panel; each call overwrites it.
    """
    codes = response_matrix(responses)
    if len(items) != codes.shape[1]:
        raise ValueError("one ItemParams per item is required")
    z = _predictors(thetas, items, None if out is None else out[0])
    return _panel_cells(z, codes, items, link, out=None if out is None else out[1:]).sum(axis=1)


def log_joint_likelihood(data, thetas, items, link: Link = Link.LOGIT, out=None) -> float:
    """Joint log-likelihood of responses given person and item parameters.

    data: Dataset or raw response matrix.  Missing cells contribute 0.
    Returns -inf (with a warning) if any observed cell has probability zero.
    out: person_logliks' optional (3, n, J) work array.
    """
    total = float(np.sum(person_logliks(data, thetas, items, link, out=out)))
    if not np.isfinite(total):
        warnings.warn("joint likelihood underflow: some observed category has probability zero")
        return -np.inf
    return total


def _item_weights(weights, n_rows, params: ItemParams) -> np.ndarray:
    """weights as a float array, checked to be (n_rows, n_categories)."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n_rows, params.n_categories):
        raise ValueError("weights must be (n_rows, n_categories)")
    return w


def soft_loglik(design, weights, params: ItemParams, link: Link) -> float:
    """Weighted log-likelihood sum_r sum_t weights[r, t] * log f(t | design_r).

    weights: (n, n_cat) non-negative weights, as in soft_grad_hess.  A log
    value of -inf (or nan) counts as -1e300, so a zero weight on a cell of
    probability 0 adds exactly 0.
    """
    logp = category_logprobs(design, params, link)
    w = _item_weights(weights, logp.shape[0], params)
    return float(np.sum(np.multiply(np.fmax(logp, -1e300, out=logp), w, out=logp)))


def soft_grad_hess(design, weights, params: ItemParams, link: Link):
    """Gradient and Hessian of the weighted log-likelihood of one item with
    respect to its natural parameter vector (intercepts, loadings).

    design: (n, K) latent rows; weights: (n, n_cat) non-negative weights
    (one-hot rows recover the ordinary log-likelihood).  The loadings enter
    through the predictor m alone, so their block is the design weighted by
    the predictor derivatives; a binary intercept shifts m, and gpc steps and
    graded thresholds have their own blocks.
    """
    _check_gpc_link(params.kind, link)
    design = _theta_rows(design, params.k)
    w = _item_weights(weights, design.shape[0], params)
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
