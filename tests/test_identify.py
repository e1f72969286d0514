"""Factor standardization, loading alignment, Q-matrix checks, and the
zero loadings a Q matrix puts into the estimators' starting values.

The alignment oracle is a direct numerical minimization over all K*K
transform entries, independent of the normal-equations solution.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import optimize

from ifa import (
    Link,
    ModelKind,
    SimSpec,
    align_loadings,
    check_q_matrix,
    default_items,
    loadings_matrix,
    simulate,
    spectral_start,
    standardize_factors,
)


def spectral_items(data, k, model, link, q=None):
    return spectral_start(data, k, model, link, q)[1]


STARTS = [default_items, spectral_items]


def brute_force_alignment_loss(estimated, reference):
    """Minimize the average per-entry squared error over all transforms."""
    j, k = reference.shape

    def objective(h_flat):
        h = h_flat.reshape(k, k)
        return np.sum((reference - estimated @ h.T) ** 2) / (j * k)

    best = np.inf
    for seed in range(4):
        x0 = np.random.default_rng(seed).normal(size=k * k)
        res = optimize.minimize(objective, x0, method="BFGS", tol=1e-14)
        best = min(best, res.fun)
    return best


class TestStandardizeFactors:
    def test_idempotent(self):
        rng = np.random.default_rng(0)
        thetas = rng.normal(size=(40, 3)) * 2 + 1
        once, _, _ = standardize_factors(thetas)
        twice, loc, scale = standardize_factors(once)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        np.testing.assert_allclose(loc, 0.0, atol=1e-12)
        np.testing.assert_allclose(scale, 1.0, atol=1e-12)

    def test_symmetric_two_point_column_unchanged(self):
        thetas = np.array([[-1.0], [1.0]])
        out, loc, scale = standardize_factors(thetas)
        np.testing.assert_allclose(out, thetas, atol=1e-12)
        assert loc[0] == pytest.approx(0.0, abs=1e-12)
        assert scale[0] == pytest.approx(1.0, abs=1e-12)

    def test_shifted_two_point_column(self):
        # {0, 2} has mean 1 and divisor-N variance 1
        out, loc, scale = standardize_factors(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out, [[-1.0], [1.0]], atol=1e-12)
        assert loc[0] == pytest.approx(1.0, abs=1e-12)
        assert scale[0] == pytest.approx(1.0, abs=1e-12)

    def test_population_moments_divisor_n(self):
        rng = np.random.default_rng(1)
        thetas = rng.normal(size=(17, 2)) * 3 - 2
        out, _, _ = standardize_factors(thetas)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose((out**2).mean(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_column_rejected(self):
        with pytest.raises(ValueError):
            standardize_factors(np.ones((5, 1)))


class TestAlignLoadings:
    def test_identity_case(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(8, 2))
        res = align_loadings(a, a)
        np.testing.assert_allclose(res.transform, np.eye(2), atol=1e-10)
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_exact_transform_recovery(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=(10, 3))
        r = rng.normal(size=(3, 3)) + 2 * np.eye(3)
        est = ref @ r  # est_j = R^T ref_j row-wise
        res = align_loadings(est, ref)
        assert res.loss < 1e-10

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            est = rng.normal(size=(6, 2))
            ref = rng.normal(size=(6, 2))
            res = align_loadings(est, ref)
            oracle = brute_force_alignment_loss(est, ref)
            assert res.loss == pytest.approx(oracle, abs=1e-6)

    def test_rank_deficient_estimate_rejected(self):
        est = np.ones((6, 2))  # second column dependent on first
        ref = np.random.default_rng(5).normal(size=(6, 2))
        with pytest.raises(ValueError):
            align_loadings(est, ref)

    def test_loss_invariant_under_postmultiplication(self):
        rng = np.random.default_rng(6)
        est = rng.normal(size=(9, 2))
        ref = rng.normal(size=(9, 2))
        base = align_loadings(est, ref).loss
        for _ in range(5):
            r = rng.normal(size=(2, 2)) + np.eye(2)
            rotated = align_loadings(est @ r, ref).loss
            assert rotated == pytest.approx(base, abs=1e-8)

    def test_aligned_never_exceeds_unaligned(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            est = rng.normal(size=(7, 3))
            ref = rng.normal(size=(7, 3))
            res = align_loadings(est, ref)
            unaligned = np.sum((ref - est) ** 2) / ref.size
            assert res.loss <= unaligned + 1e-12


class TestQMatrix:
    @pytest.fixture(scope="class")
    @staticmethod
    def panel():
        data, _, _ = simulate(SimSpec(n_persons=200, n_items=6, k=2, seed=3))
        return data

    def test_all_ones_mask_is_identity(self, panel):
        q = np.ones((panel.n_items, 2), dtype=int)
        for start in STARTS:
            free = start(panel, 2, ModelKind.BINARY, Link.LOGIT)
            masked = start(panel, 2, ModelKind.BINARY, Link.LOGIT, q)
            for before, after in zip(free, masked):
                np.testing.assert_array_equal(after.loadings, before.loadings)
                np.testing.assert_array_equal(after.intercepts, before.intercepts)

    def test_zero_entry_zeroes_loading(self, panel):
        q = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1]])
        for start in STARTS:
            free = start(panel, 2, ModelKind.BINARY, Link.LOGIT)
            masked = start(panel, 2, ModelKind.BINARY, Link.LOGIT, q)
            free_a, masked_a = loadings_matrix(free), loadings_matrix(masked)
            assert np.all(free_a[q == 0] != 0.0)
            assert np.all(masked_a[q == 0] == 0.0)
            np.testing.assert_array_equal(masked_a[q == 1], free_a[q == 1])
            for before, after in zip(free, masked):
                np.testing.assert_array_equal(after.intercepts, before.intercepts)

    def test_all_zero_row_rejected(self):
        with pytest.raises(ValueError, match="free at least one loading"):
            check_q_matrix(np.array([[0, 0]]), 1, 2)

    def test_check_rejects_non_binary_entries(self):
        with pytest.raises(ValueError):
            check_q_matrix(np.array([[1, 2]]), 1, 2)

    def test_check_allows_empty_rows_when_requested(self):
        q = np.array([[0], [1]])
        with pytest.raises(ValueError):
            check_q_matrix(q, 2, 1)
        out = check_q_matrix(q, 2, 1, allow_empty_rows=True)
        np.testing.assert_array_equal(out, q)
