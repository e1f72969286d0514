"""Reference computations and output checks, written without ifa code.

Every quantity a check compares is recomputed here from plain arrays with
numpy/scipy: the Gauss-Hermite marginal log-likelihood, the joint
log-likelihood, category probabilities, loading alignment and parameter
packing.  Fits enter as arrays (intercepts J x T, loadings J x K,
correlation K x K), so a test can perturb them and watch a check fail.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy import special

EPS = np.finfo(float).eps
# a fall of the EM or CJMLE objective larger than this many float steps of
# its value is a real decrease, not rounding in a sum over persons
FLOAT_FLOOR_STEPS = 1e3
# agreement of two computations of one log-likelihood: relative, a little
# above the rounding of sums over 10^4 to 10^6 cells
LOGLIK_RTOL = 1e-8


@dataclass
class Params:
    model: str                  # "binary" or "graded"
    intercepts: np.ndarray      # J x T
    loadings: np.ndarray        # J x K
    correlation: np.ndarray     # K x K

    def copy(self) -> "Params":
        return Params(self.model, self.intercepts.copy(), self.loadings.copy(),
                      self.correlation.copy())


@dataclass
class Verdict:
    """Outcome of every check made on one workload pass."""

    results: list = field(default_factory=list)

    def require(self, name: str, ok, detail: str = "") -> bool:
        ok = bool(ok)
        self.results.append((name, ok, detail))
        return ok

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)

    def failures(self) -> list:
        return [(name, detail) for name, ok, detail in self.results if not ok]


def params_of(model: str, items, correlation=None) -> Params:
    """Arrays from a list of fitted items (anything with .intercepts/.loadings)."""
    loadings = np.vstack([np.asarray(it.loadings, dtype=float) for it in items])
    intercepts = np.vstack([np.asarray(it.intercepts, dtype=float) for it in items])
    k = loadings.shape[1]
    corr = np.eye(k) if correlation is None else np.asarray(correlation, dtype=float)
    return Params(model, intercepts, loadings, corr)


def packed(p: Params) -> np.ndarray:
    """Item by item (intercepts, loadings), then the correlation's lower triangle."""
    k = p.loadings.shape[1]
    parts = [np.concatenate([d, a]) for d, a in zip(p.intercepts, p.loadings)]
    parts.append(p.correlation[np.tril_indices(k, -1)])
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# response model, logit link


def logit_logprobs(lin, intercepts, model: str) -> np.ndarray:
    """log P(Y = t) at linear predictors `lin` (shape S) for one logit item.

    Binary: P(Y = 1) = s(d + lin).  Graded: P(Y <= t) = s(d_t + lin), and a
    middle cell is s(z_t) - s(z_{t-1}) = s(z_t) s(-z_{t-1}) (1 - e^{z_{t-1} - z_t}),
    taken in logs so far nodes keep their precision.
    """
    lin = np.asarray(lin, dtype=float)
    t_count = intercepts.size
    if model == "binary":
        z = intercepts[0] + lin
        return np.stack([special.log_expit(-z), special.log_expit(z)], axis=-1)
    z = intercepts[None, :] + lin[:, None]  # S x T
    out = np.empty((lin.size, t_count + 1))
    out[:, 0] = special.log_expit(z[:, 0])
    out[:, t_count] = special.log_expit(-z[:, -1])
    for t in range(1, t_count):
        gap = z[:, t - 1] - z[:, t]
        with np.errstate(divide="ignore"):
            out[:, t] = (special.log_expit(z[:, t]) + special.log_expit(-z[:, t - 1])
                         + np.log(-np.expm1(np.minimum(gap, 0.0))))
    return out


def probs(thetas, p: Params, link: str) -> np.ndarray:
    """Category probabilities N x J x C for binary or graded items."""
    cdf = special.expit if link == "logit" else special.ndtr
    lin = thetas @ p.loadings.T
    intercepts = p.intercepts
    if p.model == "binary":
        p1 = cdf(intercepts[None, :, 0] + lin)
        return np.stack([1.0 - p1, p1], axis=-1)
    cum = cdf(intercepts[None, :, :] + lin[:, :, None])
    n, j = lin.shape
    padded = np.concatenate([np.zeros((n, j, 1)), cum, np.ones((n, j, 1))], axis=2)
    return np.diff(padded, axis=2)


# ---------------------------------------------------------------------------
# log-likelihoods


def gh_rule(points: int, correlation) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes (M x K) for N(0, corr) and their log weights."""
    x, w = hermegauss(points)
    logw1 = np.log(w / w.sum())
    k = correlation.shape[0]
    grids = np.meshgrid(*([x] * k), indexing="ij")
    z = np.column_stack([g.ravel() for g in grids])
    logw = sum(g.ravel() for g in np.meshgrid(*([logw1] * k), indexing="ij"))
    return z @ np.linalg.cholesky(correlation).T, logw


def marginal_loglik(responses, p: Params, points: int, cell_budget=4_000_000) -> float:
    """Marginal log-likelihood of a logit panel under Gauss-Hermite quadrature."""
    nodes, logw = gh_rule(points, p.correlation)
    tables = [logit_logprobs(nodes @ a, d, p.model) for d, a in zip(p.intercepts, p.loadings)]
    n, m = responses.shape[0], nodes.shape[0]
    chunk = max(1, cell_budget // m)
    total = 0.0
    for lo in range(0, n, chunk):
        block = responses[lo:lo + chunk]
        ll = np.broadcast_to(logw, (block.shape[0], m)).copy()
        for j, table in enumerate(tables):
            y = block[:, j]
            seen = y >= 0
            ll[seen] += table[:, y[seen]].T
        total += float(special.logsumexp(ll, axis=1).sum())
    return total


def joint_loglik(responses, thetas, p: Params) -> float:
    """Binary logit joint log-likelihood; missing cells (code < 0) skipped."""
    z = thetas @ p.loadings.T + p.intercepts[None, :, 0]
    cell = np.where(responses == 1, special.log_expit(z), special.log_expit(-z))
    return float(np.sum(np.where(responses >= 0, cell, 0.0)))


def float_floor(value: float) -> float:
    return FLOAT_FLOOR_STEPS * EPS * (abs(value) + 1.0)


def aligned_loading_loss(est, ref) -> float:
    """Mean squared loading error after the best K x K map of est onto ref."""
    h, *_ = np.linalg.lstsq(est, ref, rcond=None)
    return float(np.mean((ref - est @ h) ** 2))


def prob_mse(thetas, truth: Params, fit: Params, link: str) -> float:
    """Mean over persons, items and categories of squared probability error."""
    return float(np.mean((probs(thetas, truth, link) - probs(thetas, fit, link)) ** 2))


# ---------------------------------------------------------------------------
# checks


def check_marginal_em(v: Verdict, tag, responses, truth: Params, fit: Params,
                      reported: float, trail, points: int) -> float:
    """Own quadrature log-likelihood agrees with the fit's and beats the truth."""
    own = marginal_loglik(responses, fit, points)
    at_truth = marginal_loglik(responses, truth, points)
    v.require(f"{tag}.loglik_matches", abs(own - reported) <= LOGLIK_RTOL * (abs(own) + 1.0),
              f"own {own:.6f} vs reported {reported:.6f}")
    v.require(f"{tag}.loglik_at_least_truth", own >= at_truth,
              f"fit {own:.4f} vs truth {at_truth:.4f}")
    check_non_decreasing(v, f"{tag}.trail", trail)
    return own


def check_non_decreasing(v: Verdict, tag, trail) -> None:
    trail = np.asarray(trail, dtype=float)
    drops = trail[:-1] - trail[1:]
    worst = float(np.max(drops - [float_floor(x) for x in trail[:-1]], initial=-np.inf))
    v.require(f"{tag}_non_decreasing", np.all(np.isfinite(trail)) and worst <= 0.0,
              f"largest fall beyond the float floor {worst:.3g}")


def check_stochastic(v: Verdict, tag, responses, fit: Params, em_fit: Params,
                     em_own: float, max_gap: float, points: int, em_tol: float) -> None:
    """Near the EM estimate in max norm, and no higher marginal likelihood."""
    gap = float(np.max(np.abs(packed(fit) - packed(em_fit))))
    v.require(f"{tag}.gap_to_em", gap <= max_gap, f"max-norm gap {gap:.4f} (bound {max_gap})")
    own = marginal_loglik(responses, fit, points)
    v.require(f"{tag}.not_above_em", own <= em_own + em_tol * (abs(em_own) + 1.0),
              f"{own:.4f} vs EM {em_own:.4f}")


def check_q_zeros(v: Verdict, tag, fit: Params, q) -> None:
    off = fit.loadings[np.asarray(q) == 0]
    v.require(f"{tag}.q_zeros_exact", np.all(off == 0.0),
              f"largest |loading| off Q {np.max(np.abs(off), initial=0.0):.3g}")


def check_thresholds(v: Verdict, tag, fit: Params) -> None:
    gaps = np.diff(fit.intercepts, axis=1)
    v.require(f"{tag}.thresholds_ordered", np.all(gaps >= 0.0),
              f"smallest gap {np.min(gaps):.3g}")


def check_correlation(v: Verdict, tag, fit: Params) -> None:
    corr = fit.correlation
    v.require(f"{tag}.corr_unit_diagonal",
              np.all(np.diag(corr) == 1.0) and np.array_equal(corr, corr.T),
              f"diagonal {np.diag(corr)}")
    smallest = np.linalg.eigvalsh(corr)[0]
    v.require(f"{tag}.corr_positive_definite", smallest > 0.0,
              f"smallest eigenvalue {smallest:.3g}")


def check_joint(v: Verdict, tag, responses, thetas, fit: Params, trajectory,
                start_loglik: float) -> None:
    """Reported objective reproduced, monotone path, standardized scores."""
    own = joint_loglik(responses, thetas, fit)
    last = float(trajectory[-1])
    v.require(f"{tag}.loglik_matches", abs(own - last) <= LOGLIK_RTOL * (abs(own) + 1.0),
              f"own {own:.6f} vs trajectory end {last:.6f}")
    check_non_decreasing(v, f"{tag}.trajectory", trajectory)
    v.require(f"{tag}.above_start", last >= start_loglik,
              f"end {last:.3f} vs spectral start {start_loglik:.3f}")
    mean = thetas.mean(axis=0)
    var = ((thetas - mean) ** 2).mean(axis=0)
    v.require(f"{tag}.scores_standardized",
              np.max(np.abs(mean)) <= 1e-9 and np.max(np.abs(var - 1.0)) <= 1e-9,
              f"means {np.round(mean, 12)}, variances {np.round(var, 12)}")


def check_prob_mse(v: Verdict, tag, thetas, truth: Params, fit: Params, link: str,
                   bound: float) -> None:
    mse = prob_mse(thetas, truth, fit, link)
    v.require(f"{tag}.prob_mse", mse <= bound,
              f"prob_mse {mse:.5f} at the true scores (bound {bound})")


def check_aligned_loss(v: Verdict, tag, est, ref, bound: float) -> None:
    loss = aligned_loading_loss(est, ref) if np.all(np.isfinite(est)) else np.inf
    v.require(f"{tag}.aligned_loading_loss", loss <= bound, f"{loss:.4f} (bound {bound})")


def check_q_loss(v: Verdict, tag, est, ref, bound: float) -> None:
    """Confirmatory loading error, no alignment: Q fixes the factors."""
    loss = float(np.mean((est - ref) ** 2))
    v.require(f"{tag}.q_loading_loss", loss <= bound, f"{loss:.4f} (bound {bound})")


def project_ball(x, radius):
    """Rows of x shrunk radially onto the ball of the given radius."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x * np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)


def start_loglik(responses, thetas, p: Params, radius: float) -> float:
    """Joint log-likelihood at a start after projection onto the radius-C balls."""
    beta = project_ball(np.hstack([p.intercepts, p.loadings]), radius)
    t = p.intercepts.shape[1]
    return joint_loglik(responses, project_ball(thetas, radius),
                        Params(p.model, beta[:, :t], beta[:, t:], p.correlation))
