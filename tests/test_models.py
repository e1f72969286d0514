"""Response functions, likelihoods, and analytic gradients.

The gradient oracle is central finite differences with step 1e-5;
closed-form spot values are frozen from high-precision evaluation of the
defining expressions.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from ifa import (
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    category_probs,
    grad_wrt_beta,
    grad_wrt_theta,
    irf_binary,
    irf_gpc,
    irf_graded,
    log_joint_likelihood,
)
from ifa.models import (
    MISSING,
    category_logprobs,
    observed_logprobs,
    pointwise_score,
    soft_grad_hess,
    soft_loglik,
)

from conftest import MODEL_LINK_PAIRS, random_item

FD_STEP = 1e-5
FD_REL_TOL = 1e-6


# --------------------------------------------------------------------------
# oracles


def fd_grad_theta(y, theta, params, link):
    """Central finite differences of log f(y | theta) in theta."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, lo = theta.copy(), theta.copy()
        up[i] += FD_STEP
        lo[i] -= FD_STEP
        f_up = np.log(category_probs(up[None, :], params, link)[0, int(y)])
        f_lo = np.log(category_probs(lo[None, :], params, link)[0, int(y)])
        out[i] = (f_up - f_lo) / (2 * FD_STEP)
    return out


def fd_grad_beta(y, theta, params, link):
    """Central finite differences in the stacked (intercepts, loadings)."""
    base = np.concatenate([params.intercepts, params.loadings])
    out = np.zeros_like(base)
    nc = params.intercepts.size
    for i in range(base.size):
        up, lo = base.copy(), base.copy()
        up[i] += FD_STEP
        lo[i] -= FD_STEP
        p_up = ItemParams(params.kind, up[:nc], up[nc:])
        p_lo = ItemParams(params.kind, lo[:nc], lo[nc:])
        f_up = np.log(category_probs(theta[None, :], p_up, link)[0, int(y)])
        f_lo = np.log(category_probs(theta[None, :], p_lo, link)[0, int(y)])
        out[i] = (f_up - f_lo) / (2 * FD_STEP)
    return out


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    scale = max(np.abs(numeric).max(), 1.0)
    return np.abs(analytic - numeric).max() / scale


def make_graded_item(params, rng, k):
    # keep thresholds separated so FD stays inside the smooth region
    gaps = rng.uniform(0.3, 0.8, size=2)
    d0 = rng.uniform(-1.0, 0.0)
    return ItemParams(
        ModelKind.GRADED, np.array([d0, d0 + gaps[0], d0 + gaps[0] + gaps[1]]),
        rng.uniform(0.5, 1.5, size=k),
    )


# --------------------------------------------------------------------------
# response functions


class TestBinaryIrf:
    def test_zero_predictor_is_half(self):
        for link in (Link.LOGIT, Link.PROBIT):
            item = ItemParams(ModelKind.BINARY, np.zeros(1), np.array([0.7, -0.3]))
            assert irf_binary(np.zeros(2), item, link) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_logit_value(self):
        # G(1 + 2 * 0.5) = exp(2) / (1 + exp(2))
        item = ItemParams(ModelKind.BINARY, np.array([1.0]), np.array([2.0]))
        expect = 0.8807970779778823
        assert irf_binary(np.array([0.5]), item, Link.LOGIT) == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        item = ItemParams(ModelKind.BINARY, np.zeros(1), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            irf_binary(np.zeros(3), item, Link.LOGIT)

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            item = random_item(ModelKind.BINARY, 2, rng)
            p = irf_binary(rng.normal(size=2), item, Link.LOGIT)
            assert 0.0 < p < 1.0


class TestGradedIrf:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for link in (Link.LOGIT, Link.PROBIT):
            for _ in range(50):
                item = random_item(ModelKind.GRADED, 2, rng, categories=4)
                theta = rng.normal(size=2)
                total = sum(irf_graded(theta, item, t, link) for t in range(4))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_category_reduction_to_binary(self):
        # P(Y=0) = G(d0 + a't) = 1 - G(-(d0 + a't)) = 1 - binary irf with
        # flipped linear predictor, for either symmetric link
        rng = np.random.default_rng(2)
        for link in (Link.LOGIT, Link.PROBIT):
            for _ in range(30):
                a = rng.uniform(0.5, 1.5, size=2)
                d0 = rng.uniform(-1, 1)
                theta = rng.normal(size=2)
                graded = ItemParams(ModelKind.GRADED, np.array([d0]), a)
                flipped = ItemParams(ModelKind.BINARY, np.array([-d0]), -a)
                lhs = irf_graded(theta, graded, 0, link)
                rhs = 1.0 - irf_binary(theta, flipped, link)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_tied_thresholds_vanish_middle_category(self):
        item = ItemParams(
            ModelKind.GRADED, np.array([-0.4, -0.4, 0.9]), np.array([1.1])
        )
        for theta in (-1.5, 0.0, 2.0):
            p_mid = irf_graded(np.array([theta]), item, 1, Link.LOGIT)
            assert abs(p_mid) < 1e-12

    def test_upper_tail_cells_do_not_cancel(self):
        # far above every cutpoint G(z_t) rounds to 1, yet the cells are the
        # differences of the upper tails 1 - G(z) = G(-z)
        from scipy.special import log_expit, log_ndtr

        item = ItemParams(ModelKind.GRADED, np.array([-1.0, 0.0, 1.0]), np.array([1.0]))
        theta = np.array([[9.0], [20.0]])
        z = item.intercepts[None, :] + theta
        for link, log_cdf in ((Link.PROBIT, log_ndtr), (Link.LOGIT, log_expit)):
            tail = np.exp(log_cdf(-z))
            expected = np.column_stack([1.0 - tail[:, 0], -np.diff(tail, axis=1), tail[:, -1]])
            p = category_probs(theta, item, link)
            assert np.all(p[:, 1:] > 0)
            np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0)
            g, h = soft_grad_hess(theta, np.full((2, 4), 0.25), item, link)
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))

    def test_non_monotone_thresholds_rejected(self):
        with pytest.raises(ValueError):
            ItemParams(ModelKind.GRADED, np.array([0.5, -0.5]), np.array([1.0]))

    def test_cumulative_probabilities_non_decreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            item = random_item(ModelKind.GRADED, 1, rng, categories=5)
            theta = rng.normal(size=1)
            p = category_probs(theta[None, :], item, Link.PROBIT)[0]
            cum = np.cumsum(p)
            assert np.all(np.diff(cum) >= -1e-14)


class TestGpcIrf:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            item = random_item(ModelKind.GPC, 3, rng, categories=5)
            theta = rng.normal(size=3)
            total = sum(irf_gpc(theta, item, t) for t in range(5))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_odds_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            item = random_item(ModelKind.GPC, 2, rng, categories=4)
            theta = rng.normal(size=2)
            m = float(item.loadings @ theta)
            probs = [irf_gpc(theta, item, t) for t in range(4)]
            for t in range(1, 4):
                lhs = math.log(probs[t] / probs[t - 1])
                rhs = item.intercepts[t - 1] + m
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_two_category_reduction_to_logistic(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d1 = rng.uniform(-1, 1)
            a = rng.uniform(0.5, 1.5, size=2)
            theta = rng.normal(size=2)
            gpc = ItemParams(ModelKind.GPC, np.array([d1]), a)
            binary = ItemParams(ModelKind.BINARY, np.array([d1]), a)
            assert irf_gpc(theta, gpc, 1) == pytest.approx(
                irf_binary(theta, binary, Link.LOGIT), abs=1e-12
            )

    def test_probit_rejected(self):
        item = ItemParams(ModelKind.GPC, np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            category_probs(np.zeros((1, 1)), item, Link.PROBIT)

    def test_overflow_safe_at_extreme_predictors(self):
        item = ItemParams(ModelKind.GPC, np.array([50.0, 50.0]), np.array([30.0]))
        p = category_probs(np.array([[20.0]]), item, Link.LOGIT)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestProbitAccuracy:
    def test_cdf_matches_erf_formula(self):
        # documented target: double-precision agreement with the erf form
        x = np.linspace(-8, 8, 4001)
        ref = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        assert np.abs(Link.PROBIT.cdf(x) - ref).max() < 1e-15


# --------------------------------------------------------------------------
# joint likelihood


class TestJointLikelihood:
    def test_single_cell_half_probability(self):
        data = Dataset.from_responses(np.array([[1]]))
        item = ItemParams(ModelKind.BINARY, np.zeros(1), np.zeros(1))
        ll = log_joint_likelihood(data, np.zeros((1, 1)), [item], Link.LOGIT)
        assert ll == pytest.approx(-0.6931471805599453, abs=1e-12)

    def test_missing_row_contributes_zero(self):
        # raw-matrix form: an all-missing row adds an empty sum
        item = ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([0.8]))
        one = log_joint_likelihood(
            np.array([[1]]), np.array([[0.4]]), [item], Link.LOGIT
        )
        two = log_joint_likelihood(
            np.array([[1], [MISSING]]), np.array([[0.4], [2.0]]), [item], Link.LOGIT
        )
        assert two == pytest.approx(one, abs=1e-12)

    def test_cells_add(self):
        rng = np.random.default_rng(7)
        items = [random_item(ModelKind.BINARY, 1, rng) for _ in range(2)]
        theta = rng.normal(size=(1, 1))
        both = log_joint_likelihood(np.array([[1, 0]]), theta, items, Link.LOGIT)
        first = log_joint_likelihood(np.array([[1, MISSING]]), theta, items, Link.LOGIT)
        second = log_joint_likelihood(np.array([[MISSING, 0]]), theta, items, Link.LOGIT)
        assert both == pytest.approx(first + second, abs=1e-12)

    def test_strictly_negative_for_nondegenerate_items(self):
        rng = np.random.default_rng(8)
        items = [random_item(ModelKind.BINARY, 2, rng) for _ in range(4)]
        resp = rng.integers(0, 2, size=(6, 4))
        ll = log_joint_likelihood(Dataset.from_responses(resp), rng.normal(size=(6, 2)), items, Link.LOGIT)
        assert ll < 0


# --------------------------------------------------------------------------
# gradients


class TestGradients:
    def test_theta_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for kind, link in MODEL_LINK_PAIRS:
            for _ in range(100):
                k = int(rng.integers(1, 4))
                item = (
                    make_graded_item(None, rng, k)
                    if kind is ModelKind.GRADED
                    else random_item(kind, k, rng, categories=4)
                )
                theta = rng.normal(size=k)
                y = int(rng.integers(0, item.n_categories))
                g = grad_wrt_theta(y, theta, item, link)
                g_fd = fd_grad_theta(y, theta, item, link)
                assert rel_err(g, g_fd) < FD_REL_TOL

    def test_beta_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for kind, link in MODEL_LINK_PAIRS:
            for _ in range(100):
                k = int(rng.integers(1, 4))
                item = (
                    make_graded_item(None, rng, k)
                    if kind is ModelKind.GRADED
                    else random_item(kind, k, rng, categories=4)
                )
                theta = rng.normal(size=k)
                y = int(rng.integers(0, item.n_categories))
                g = grad_wrt_beta(y, theta, item, link)
                g_fd = fd_grad_beta(y, theta, item, link)
                assert rel_err(g, g_fd) < FD_REL_TOL

    def test_pointwise_score_and_curvature_match_finite_differences(self):
        # theta moves along a / a'a, so the predictor m = a'theta moves by the step
        rng = np.random.default_rng(17)
        for kind, link in MODEL_LINK_PAIRS:
            for _ in range(20):
                k = int(rng.integers(1, 4))
                item = (
                    make_graded_item(None, rng, k)
                    if kind is ModelKind.GRADED
                    else random_item(kind, k, rng, categories=4)
                )
                theta = rng.normal(size=(8, k))
                y = rng.integers(0, item.n_categories, size=8)
                shift = FD_STEP * item.loadings / (item.loadings @ item.loadings)
                score, curv = pointwise_score(y, theta, item, link)
                up = observed_logprobs(y, theta + shift, item, link)
                lo = observed_logprobs(y, theta - shift, item, link)
                assert rel_err(score, (up - lo) / (2 * FD_STEP)) < FD_REL_TOL
                up = pointwise_score(y, theta + shift, item, link)[0]
                lo = pointwise_score(y, theta - shift, item, link)[0]
                assert rel_err(curv, (up - lo) / (2 * FD_STEP)) < FD_REL_TOL

    def test_binary_logit_canonical_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            item = random_item(ModelKind.BINARY, 2, rng)
            theta = rng.normal(size=2)
            y = int(rng.integers(0, 2))
            p = irf_binary(theta, item, Link.LOGIT)
            g_theta = grad_wrt_theta(y, theta, item, Link.LOGIT)
            np.testing.assert_allclose(g_theta, (y - p) * item.loadings, atol=1e-12)
            g_beta = grad_wrt_beta(y, theta, item, Link.LOGIT)
            assert g_beta[0] == pytest.approx(y - p, abs=1e-12)

    def test_zero_loading_zero_theta_gradient(self):
        item = ItemParams(ModelKind.BINARY, np.array([0.4]), np.zeros(3))
        g = grad_wrt_theta(1, np.array([0.3, -0.2, 1.0]), item, Link.PROBIT)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)

    def test_graded_two_category_matches_binary_after_reparam(self):
        # graded (d0, a) is the binary model (-d0, -a); gradients map with
        # a sign flip through the chain rule
        rng = np.random.default_rng(12)
        for link in (Link.LOGIT, Link.PROBIT):
            for _ in range(30):
                a = rng.uniform(0.5, 1.5, size=2)
                d0 = rng.uniform(-1, 1)
                theta = rng.normal(size=2)
                y = int(rng.integers(0, 2))
                graded = ItemParams(ModelKind.GRADED, np.array([d0]), a)
                binary = ItemParams(ModelKind.BINARY, np.array([-d0]), -a)
                g_g = grad_wrt_beta(y, theta, graded, link)
                g_b = grad_wrt_beta(y, theta, binary, link)
                np.testing.assert_allclose(g_g, -g_b, atol=1e-9)


class TestWeightedItemObjective:
    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for kind, link in MODEL_LINK_PAIRS:
            item = random_item(kind, 2, rng, categories=4)
            design = rng.normal(size=(12, 2))
            weights = rng.uniform(0.0, 1.0, size=(12, item.n_categories))
            grad, hess = soft_grad_hess(design, weights, item, link)
            base = np.concatenate([item.intercepts, item.loadings])
            nc = item.intercepts.size

            def value(vec):
                cand = ItemParams(kind, np.sort(vec[:nc]) if kind is ModelKind.GRADED else vec[:nc], vec[nc:])
                return soft_loglik(design, weights, cand, link)

            fd = np.zeros_like(base)
            for i in range(base.size):
                up, lo = base.copy(), base.copy()
                up[i] += FD_STEP
                lo[i] -= FD_STEP
                fd[i] = (value(up) - value(lo)) / (2 * FD_STEP)
            assert rel_err(grad, fd) < 1e-5
            np.testing.assert_allclose(hess, hess.T, atol=1e-10)
            fd_hess = np.zeros_like(hess)
            for i in range(base.size):
                up, lo = base.copy(), base.copy()
                up[i] += FD_STEP
                lo[i] -= FD_STEP
                g_up = soft_grad_hess(design, weights, ItemParams(kind, up[:nc], up[nc:]), link)[0]
                g_lo = soft_grad_hess(design, weights, ItemParams(kind, lo[:nc], lo[nc:]), link)[0]
                fd_hess[:, i] = (g_up - g_lo) / (2 * FD_STEP)
            assert rel_err(hess, fd_hess) < 1e-5

    def test_zero_weight_category_and_far_tail_rows_stay_finite(self):
        # tied thresholds leave category 2 with probability 0 at every row;
        # its zero weights must contribute exactly nothing, even where the
        # cells and densities underflow far out in the tails
        item = ItemParams(ModelKind.GRADED, np.array([-1.0, 0.5, 0.5]), np.array([1.0, 0.5]))
        design = np.array([[0.3, -0.2], [1.5, 0.4], [-40.0, 3.0], [45.0, -2.0], [-1e3, 1.0], [1e3, 0.0]])
        weights = np.tile([0.6, 0.3, 0.0, 0.8], (len(design), 1))
        for link in (Link.LOGIT, Link.PROBIT):
            grad, hess = soft_grad_hess(design, weights, item, link)
            assert np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))
            np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12)

    def test_one_hot_weights_recover_pointwise_loglik(self):
        rng = np.random.default_rng(14)
        item = random_item(ModelKind.GRADED, 1, rng, categories=3)
        design = rng.normal(size=(20, 1))
        y = rng.integers(0, 3, size=20)
        w = np.zeros((20, 3))
        w[np.arange(20), y] = 1.0
        direct = np.log(category_probs(design, item, Link.LOGIT)[np.arange(20), y]).sum()
        assert soft_loglik(design, w, item, Link.LOGIT) == pytest.approx(direct, abs=1e-10)


# --------------------------------------------------------------------------
# structural invariants


class TestModelInvariants:
    def test_probabilities_positive_and_normalized(self):
        # float64 saturates the probit tail past |z| ~ 8; keep predictors in
        # the representable regime since returned probabilities are unclamped
        rng = np.random.default_rng(15)
        for kind, link in MODEL_LINK_PAIRS:
            for _ in range(60):
                item = random_item(kind, 2, rng, categories=4)
                theta = rng.uniform(-1.5, 1.5, size=(5, 2))
                p = category_probs(theta, item, link)
                assert np.all(p > 0) and np.all(p < 1)
                np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_tail_monotone_in_positive_loading_direction(self):
        # binary: P(Y=1) = G(d + a't) rises with theta.  The cumulative
        # ordinal model puts the predictor on P(Y <= t), so its upper tail
        # P(Y >= t) falls as theta grows; each family is tested in the
        # direction its defining formula implies.
        rng = np.random.default_rng(16)
        grid = np.linspace(-3, 3, 25)
        for link in (Link.LOGIT, Link.PROBIT):
            item = random_item(ModelKind.BINARY, 1, rng)
            p = category_probs(grid[:, None], item, link)
            assert np.all(np.diff(p[:, 1]) >= -1e-12)
            item = random_item(ModelKind.GRADED, 1, rng, categories=4)
            p = category_probs(grid[:, None], item, link)
            for t in range(1, item.n_categories):
                tail = p[:, t:].sum(axis=1)
                assert np.all(np.diff(tail) <= 1e-12)
                below = p[:, :t].sum(axis=1)
                assert np.all(np.diff(below) >= -1e-12)

    def test_logprobs_consistent_with_probs(self):
        rng = np.random.default_rng(17)
        for kind, link in MODEL_LINK_PAIRS:
            item = random_item(kind, 2, rng, categories=3)
            theta = rng.normal(size=(8, 2))
            np.testing.assert_allclose(
                np.exp(category_logprobs(theta, item, link)),
                category_probs(theta, item, link),
                rtol=1e-10,
            )
