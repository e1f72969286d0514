"""Single-item weighted Newton fits and the internal coordinate system.

The fitting oracle is scipy.optimize on the negative weighted
log-likelihood, a completely separate optimization route.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from ifa import MISSING, ItemParams, Link, ModelKind, category_probs
from ifa.em import _MSTEP_TOL, _indicators
from ifa.itemfit import (
    fit_item,
    from_internal,
    internal_grad_hess,
    project_ball,
    to_internal,
)
from ifa.models import soft_loglik

from conftest import MODEL_LINK_PAIRS, random_item


def scipy_item_oracle(design, weights, template, link, x0=None):
    """Unconstrained maximizer of the weighted item log-likelihood."""
    nc = template.intercepts.size

    def negloglik(vec):
        cand = ItemParams(
            template.kind,
            np.sort(vec[:nc]) if template.kind is ModelKind.GRADED else vec[:nc],
            vec[nc:],
        )
        return -soft_loglik(design, weights, cand, link)

    start = x0 if x0 is not None else np.concatenate([template.intercepts, template.loadings])
    res = optimize.minimize(negloglik, start, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
    return res.x


def one_hot(y, n_cats):
    w = np.zeros((y.size, n_cats))
    w[np.arange(y.size), y] = 1.0
    return w


class TestFitItem:
    def test_binary_logit_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        design = rng.normal(size=(400, 1))
        truth = ItemParams(ModelKind.BINARY, np.array([0.4]), np.array([1.1]))
        p = 1 / (1 + np.exp(-(0.4 + design[:, 0] * 1.1)))
        y = (rng.random(400) < p).astype(int)
        w = one_hot(y, 2)
        start = ItemParams(ModelKind.BINARY, np.zeros(1), np.full(1, 0.5))
        res = fit_item(design, w, start, Link.LOGIT, grad_tol=1e-10)
        oracle = scipy_item_oracle(design, w, start, Link.LOGIT)
        fitted = np.concatenate([res.params.intercepts, res.params.loadings])
        np.testing.assert_allclose(fitted, oracle, atol=1e-5)

    def test_graded_probit_matches_scipy_oracle(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(500, 1))
        truth = ItemParams(ModelKind.GRADED, np.array([-0.6, 0.5]), np.array([1.0]))
        from ifa.models import category_probs

        p = category_probs(design, truth, Link.PROBIT)
        y = (rng.random((500, 1)) > np.cumsum(p, axis=1)).sum(axis=1)
        w = one_hot(y, 3)
        start = ItemParams(ModelKind.GRADED, np.array([-0.3, 0.3]), np.full(1, 0.5))
        res = fit_item(design, w, start, Link.PROBIT, grad_tol=1e-10)
        oracle = scipy_item_oracle(design, w, start, Link.PROBIT)
        fitted = np.concatenate([res.params.intercepts, res.params.loadings])
        np.testing.assert_allclose(fitted, oracle, atol=2e-4)

    def test_graded_ordering_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            design = rng.normal(size=(120, 2))
            item = random_item(ModelKind.GRADED, 2, rng, categories=4)
            y = rng.integers(0, 4, size=120)
            res = fit_item(design, one_hot(y, 4), item, Link.LOGIT)
            assert np.all(np.diff(res.params.intercepts) >= 0)

    def test_ball_radius_respected(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(60, 1))
        y = np.ones(60, dtype=int)  # separable: all responses 1
        start = ItemParams(ModelKind.BINARY, np.zeros(1), np.full(1, 0.5))
        res = fit_item(design, one_hot(y, 2), start, Link.LOGIT, ball_radius=3.0, max_steps=100)
        norm = np.sqrt(
            np.sum(res.params.intercepts**2) + np.sum(res.params.loadings**2)
        )
        assert norm <= 3.0 + 1e-12
        assert res.at_boundary

    def test_free_mask_freezes_loadings(self):
        rng = np.random.default_rng(4)
        design = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)
        start = ItemParams(ModelKind.BINARY, np.zeros(1), np.array([0.5, 0.0]))
        res = fit_item(
            design, one_hot(y, 2), start, Link.LOGIT,
            free_mask=np.array([True, False]),
        )
        assert res.params.loadings[1] == 0.0
        assert res.params.loadings[0] != 0.5 or res.n_steps == 0

    def test_ascent_against_start(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            item = random_item(ModelKind.GPC, 2, rng, categories=3)
            design = rng.normal(size=(80, 2))
            y = rng.integers(0, 3, size=80)
            w = one_hot(y, 3)
            res = fit_item(design, w, item, Link.LOGIT)
            assert soft_loglik(design, w, res.params, Link.LOGIT) >= soft_loglik(
                design, w, item, Link.LOGIT
            ) - 1e-10

    def test_refit_at_optimum_stops_at_roundoff(self, monkeypatch):
        import ifa.itemfit

        rng = np.random.default_rng(8)
        design = rng.normal(size=(500, 2))
        item = random_item(ModelKind.GRADED, 2, rng, categories=4)
        w = one_hot(rng.integers(0, 4, size=500), 4)
        optimum = fit_item(design, w, item, Link.PROBIT).params
        evals = []

        def counted(*args):
            evals.append(1)
            return soft_loglik(*args)

        monkeypatch.setattr(ifa.itemfit, "soft_loglik", counted)
        res = fit_item(design, w, optimum, Link.PROBIT)
        assert res.converged and not res.line_search_failed
        assert len(evals) <= 2


class TestZeroWeightRows:
    """The sampled engines hand missing cells to fit_item as zero-weight rows."""

    @pytest.mark.parametrize("kind, link", MODEL_LINK_PAIRS)
    def test_fit_matches_rows_dropped(self, kind, link):
        rng = np.random.default_rng(31)
        n = 3000
        truth = random_item(kind, 2, rng, categories=4)
        design = rng.normal(size=(n, 2))
        cum = np.cumsum(category_probs(design, truth, link), axis=1)
        y = (rng.random((n, 1)) > cum).sum(axis=1)
        y[rng.random(n) < 0.2] = MISSING
        weights = _indicators(y, truth.n_categories)
        obs = y != MISSING
        start = ItemParams(kind, 0.5 * truth.intercepts, 0.5 * truth.loadings)
        kwargs = dict(max_steps=50, grad_tol=_MSTEP_TOL)
        full = fit_item(design, weights, start, link, **kwargs)
        dropped = fit_item(design[obs], weights[obs], start, link, **kwargs)
        assert full.converged and dropped.converged and full.n_steps > 1
        np.testing.assert_allclose(full.params.beta(), dropped.params.beta(), rtol=0, atol=1e-10)


class TestInternalCoordinates:
    def test_round_trip_all_models(self):
        rng = np.random.default_rng(6)
        for kind in (ModelKind.BINARY, ModelKind.GRADED, ModelKind.GPC):
            item = random_item(kind, 3, rng, categories=4)
            x = to_internal(item)
            back = from_internal(x, item)
            np.testing.assert_allclose(back.intercepts, item.intercepts, atol=1e-10)
            np.testing.assert_allclose(back.loadings, item.loadings, atol=1e-10)

    def test_internal_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        step = 1e-6
        for kind, link in (
            (ModelKind.BINARY, Link.PROBIT),
            (ModelKind.GRADED, Link.LOGIT),
            (ModelKind.GPC, Link.LOGIT),
        ):
            item = random_item(kind, 2, rng, categories=4)
            design = rng.normal(size=(30, 2))
            weights = rng.uniform(0, 1, size=(30, item.n_categories))
            grad, _ = internal_grad_hess(item, design, weights, link)
            x0 = to_internal(item)
            fd = np.zeros_like(x0)
            for i in range(x0.size):
                up, lo = x0.copy(), x0.copy()
                up[i] += step
                lo[i] -= step
                fd[i] = (
                    soft_loglik(design, weights, from_internal(up, item), link)
                    - soft_loglik(design, weights, from_internal(lo, item), link)
                ) / (2 * step)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)

    def test_projection_shrinks_onto_ball(self):
        item = ItemParams(ModelKind.BINARY, np.array([3.0]), np.array([4.0]))
        projected = project_ball(item, 2.5)
        norm = np.sqrt(np.sum(projected.intercepts**2) + np.sum(projected.loadings**2))
        assert norm == pytest.approx(2.5, abs=1e-12)
        # direction preserved
        assert projected.loadings[0] / projected.intercepts[0] == pytest.approx(4.0 / 3.0)

    def test_projection_noop_inside_ball(self):
        item = ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([0.4]))
        projected = project_ball(item, 2.0)
        np.testing.assert_allclose(projected.intercepts, item.intercepts)
        np.testing.assert_allclose(projected.loadings, item.loadings)
