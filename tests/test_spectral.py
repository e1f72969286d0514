"""Spectral estimator tests.

Oracle: an exact low-rank construction — probabilities built from a known
rank-K linear structure must pass through the inverse-link decomposition and
come back unchanged, up to float rounding.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit, logit, ndtr

from ifa.identify import align_loadings
from ifa.models import Dataset, Link, loadings_matrix
from ifa.simulate import SimSpec, simulate
from ifa.spectral import (
    SpectralFit,
    _binary_pipeline,
    _denoise,
    _leading_triplets,
    decompose_probability_matrix,
    fit_svd_binary,
    fit_svd_ordinal,
    singular_value_cutoff,
)

PROB_EPS = 1e-4


def low_rank_structure(n, j, k, seed):
    """M = 1 d' + Theta A' with |M| kept well inside the clipping range."""
    rng = np.random.default_rng(seed)
    thetas = np.clip(rng.normal(size=(n, k)), -3.0, 3.0)
    loadings = rng.uniform(0.3, 0.7, size=(j, k))
    intercepts = rng.uniform(-1.0, 1.0, size=j)
    m = intercepts[None, :] + thetas @ loadings.T
    return m, thetas, loadings, intercepts


class TestCutoff:
    def test_formula(self):
        assert singular_value_cutoff(2000, 100) == pytest.approx(1.01 * np.sqrt(2000))
        assert singular_value_cutoff(100, 2000) == pytest.approx(1.01 * np.sqrt(2000))
        assert singular_value_cutoff(50, 50) == pytest.approx(1.01 * np.sqrt(50))


def rank_r(n, j, r, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, r)) @ rng.normal(size=(r, j))


class TestLeadingTriplets:
    """The Gram-matrix triplets against LAPACK's full SVD."""

    @pytest.mark.parametrize(
        "y, k",
        [
            (np.random.default_rng(10).normal(size=(300, 40)), 5),  # tall
            (np.random.default_rng(11).normal(size=(40, 300)), 5),  # wide
            (rank_r(120, 30, 4, seed=12), 4),  # exactly rank 4, tall
            (rank_r(30, 120, 4, seed=13), 4),  # exactly rank 4, wide
        ],
    )
    def test_matches_svd(self, y, k):
        s, u, v = _leading_triplets(y, lambda lam: k)
        u_ref, s_ref, vt_ref = np.linalg.svd(y, full_matrices=False)
        np.testing.assert_allclose(s, s_ref[:k], rtol=1e-10)
        for got, ref in ((u, u_ref[:, :k]), (v, vt_ref[:k].T)):
            np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-10)
        np.testing.assert_allclose((u * s) @ v.T, (u_ref[:, :k] * s_ref[:k]) @ vt_ref[:k],
                                   rtol=0, atol=1e-10 * s_ref[0])

    @pytest.mark.parametrize("y", [np.zeros((20, 6)), rank_r(120, 30, 4, seed=12)])
    def test_triplets_beyond_the_rank(self, y):
        # round-off leaves Gram eigenvalues at or below 0 past the rank
        s, u, v = _leading_triplets(y, lambda lam: lam.size)
        assert np.all(s[np.linalg.matrix_rank(y):] < 1e-5 * max(s[0], 1.0))
        assert all(np.all(np.isfinite(a)) for a in (s, u, v))
        np.testing.assert_allclose(u[:, s == 0], 0.0)

    @pytest.mark.parametrize("shape", [(50, 12), (12, 50)])
    def test_rank_error_in_both_orientations(self, shape):
        y = rank_r(*shape, 2, seed=14)
        assert _denoise(y, 2).shape == shape
        with pytest.raises(ValueError, match="fewer than 3 informative"):
            _denoise(y, 3)


class TestDecomposition:
    def test_noiseless_reconstruction_logit(self):
        m, _, loadings, _ = low_rank_structure(300, 40, 2, seed=0)
        p = expit(m)
        thetas_hat, loadings_hat, intercepts_hat = decompose_probability_matrix(p, 2)
        recon = intercepts_hat[None, :] + thetas_hat @ loadings_hat.T
        assert np.max(np.abs(recon - m)) < 1e-8
        assert align_loadings(loadings_hat, loadings).loss < 1e-8

    def test_noiseless_reconstruction_probit(self):
        m, _, loadings, _ = low_rank_structure(200, 30, 2, seed=1)
        p = ndtr(m)
        thetas_hat, loadings_hat, intercepts_hat = decompose_probability_matrix(
            p, 2, Link.PROBIT
        )
        recon = intercepts_hat[None, :] + thetas_hat @ loadings_hat.T
        assert np.max(np.abs(recon - m)) < 1e-8
        assert align_loadings(loadings_hat, loadings).loss < 1e-8

    def test_theta_scaling_convention(self):
        m, _, _, _ = low_rank_structure(500, 25, 2, seed=2)
        thetas_hat, _, _ = decompose_probability_matrix(expit(m), 2)
        # sqrt(N) U has exactly unit second moment per column
        second = thetas_hat.T @ thetas_hat / thetas_hat.shape[0]
        np.testing.assert_allclose(np.diag(second), 1.0, atol=1e-10)


class TestBinaryFit:
    def test_all_ones_is_degenerate_rank_one(self):
        data = Dataset(np.ones((60, 10), dtype=int), np.full(10, 2))
        fit = fit_svd_binary(data, 1)
        assert np.all(np.isfinite(fit.thetas))
        assert np.max(np.abs(fit.loadings)) < 1e-10
        np.testing.assert_allclose(
            fit.intercepts, float(logit(1.0 - PROB_EPS)), atol=1e-10
        )
        assert np.all(fit.p_hat >= PROB_EPS) and np.all(fit.p_hat <= 1 - PROB_EPS)

    def test_rank_deficient_input_rejected(self):
        data = Dataset(np.ones((60, 10), dtype=int), np.full(10, 2))
        with pytest.raises(ValueError, match="fewer than 2 informative"):
            fit_svd_binary(data, 2)

    def test_too_small_panel_rejected(self):
        data = Dataset(np.array([[0, 1], [1, 0]]), np.full(2, 2))
        with pytest.raises(ValueError, match="k\\+1"):
            fit_svd_binary(data, 2)

    def test_nonbinary_rejected(self):
        responses = np.array([[0, 2], [1, 1], [2, 0], [1, 2]])
        data = Dataset(responses, np.array([3, 3]))
        with pytest.raises(ValueError, match="binary"):
            fit_svd_binary(data, 1)

    def test_sign_convention_and_probability_bounds(self):
        data, _, _ = simulate(SimSpec(n_persons=400, n_items=30, k=2, seed=3))
        fit = fit_svd_binary(data, 2)
        assert np.all(fit.loadings.sum(axis=0) >= 0)
        assert np.all(fit.p_hat >= PROB_EPS) and np.all(fit.p_hat <= 1 - PROB_EPS)

    def test_wide_panel(self):
        data, _, _ = simulate(SimSpec(n_persons=40, n_items=120, k=2, seed=15))
        fit = fit_svd_binary(data, 2)
        assert fit.thetas.shape == (40, 2) and fit.loadings.shape == (120, 2)
        for arr in (fit.thetas, fit.loadings, fit.intercepts, fit.p_hat):
            assert np.all(np.isfinite(arr))
        second = fit.thetas.T @ fit.thetas / 40
        np.testing.assert_allclose(np.diag(second), 1.0, atol=1e-10)

    def test_missing_cells_supported(self):
        data, _, _ = simulate(
            SimSpec(n_persons=400, n_items=30, k=1, missing_rate=0.2, seed=4)
        )
        fit = fit_svd_binary(data, 1)
        assert np.all(np.isfinite(fit.thetas))
        assert np.all(np.isfinite(fit.loadings))

    def test_deterministic(self):
        data, _, _ = simulate(SimSpec(n_persons=300, n_items=25, k=2, seed=5))
        first = fit_svd_binary(data, 2)
        second = fit_svd_binary(data, 2)
        np.testing.assert_array_equal(first.thetas, second.thetas)
        np.testing.assert_array_equal(first.loadings, second.loadings)
        np.testing.assert_array_equal(first.intercepts, second.intercepts)
        np.testing.assert_array_equal(first.p_hat, second.p_hat)

    def test_consistency_trend(self):
        wins = 0
        for seed in range(10):
            losses = []
            for n, j in [(400, 40), (800, 80)]:
                data, _, items = simulate(SimSpec(n_persons=n, n_items=j, k=2, seed=seed))
                fit = fit_svd_binary(data, 2)
                losses.append(align_loadings(fit.loadings, loadings_matrix(items)).loss)
            wins += losses[1] < losses[0]
        assert wins >= 8


class TestOrdinalFit:
    def test_binary_input_reduces_to_binary_fit(self):
        # fit_svd_binary is fit_svd_ordinal's one split: the binary pipeline on 1{y == 1}
        data, _, _ = simulate(
            SimSpec(n_persons=300, n_items=20, k=2, missing_rate=0.1, seed=6)
        )
        ordinal = fit_svd_ordinal(data, 2)
        thetas, loadings, intercepts, p_hat = _binary_pipeline(
            data.responses == 1, data.observed_mask, 2, Link.LOGIT
        )
        assert ordinal.splits_used == [1]
        np.testing.assert_array_equal(ordinal.thetas, thetas)
        np.testing.assert_array_equal(ordinal.loadings, loadings)
        np.testing.assert_array_equal(ordinal.intercepts, intercepts)
        np.testing.assert_array_equal(ordinal.p_hat, p_hat)

    def test_split_bookkeeping_with_one_three_category_item(self):
        rng = np.random.default_rng(7)
        responses = rng.integers(0, 2, size=(200, 8))
        responses[:, 3] = rng.integers(0, 3, size=200)
        data = Dataset.from_responses(responses)
        assert data.categories[3] == 3
        fit = fit_svd_ordinal(data, 1)
        assert fit.splits_used == [1, 2]

    def test_graded_loading_loss_bound(self):
        spec = SimSpec(
            n_persons=2000, n_items=100, k=2, model="graded", categories=3, seed=8
        )
        data, _, items = simulate(spec)
        fit = fit_svd_ordinal(data, 2)
        loss = align_loadings(fit.loadings, loadings_matrix(items)).loss
        assert np.isfinite(loss)
        assert loss < 0.5
