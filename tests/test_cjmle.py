"""Joint-maximization estimator tests.

Oracles: a bounded scalar optimizer for single-factor person updates (logit,
probit and graded cumulative-logit rows), a scalar search over the angle for
a two-factor row pinned on the ball, and an independent logistic-regression
solve (scipy BFGS with analytic gradient on the textbook binomial deviance)
for item updates.  All are written against raw formulas so they share no
code with the estimator under test.  The batched binary item block is also
checked against a per-item fit_item loop, and a fit, which shares one set of
work arrays across its calls, against stand-alone block calls.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import optimize
from scipy.special import expit, log_expit, log_ndtr, ndtr

from ifa.cjmle import (
    CjmleConfig,
    _fit_arrays,
    _fix_signs,
    _newton_block,
    fit_cjmle,
    update_item_block,
    update_person_block,
)
from ifa.identify import align_loadings
from ifa.itemfit import _project_rows, fit_item, project_ball
from ifa.models import (
    MISSING,
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    category_probs,
    loadings_matrix,
    log_joint_likelihood,
)
from ifa.simulate import SimSpec, prob_mse, simulate
from ifa.spectral import fit_svd_ordinal
from ifa.start import spectral_start


def row_negloglik_1d(theta, y_row, intercepts, loadings, log_cdf=log_expit):
    """Binary row log-likelihood, written directly from the link's log-cdf."""
    z = intercepts + loadings * theta
    sign = np.where(y_row == 1, 1.0, -1.0)
    return -np.sum(log_cdf(sign * z))


def graded_row_negloglik_1d(theta, y_row, thresholds, loadings):
    """Cumulative-logit row: P(Y = t) = G(d_t + a theta) - G(d_{t-1} + a theta),
    with G(d_{-1} + .) = 0 and G(d_T + .) = 1."""
    lower = np.column_stack([np.full(len(y_row), -np.inf), thresholds])
    upper = np.column_stack([thresholds, np.full(len(y_row), np.inf)])
    rows = np.arange(len(y_row))
    cell = expit(upper[rows, y_row] + loadings * theta) - expit(
        lower[rows, y_row] + loadings * theta
    )
    return -np.sum(np.log(cell))


def scalar_person_oracle(y_row, intercepts, loadings, radius, negloglik=row_negloglik_1d):
    res = optimize.minimize_scalar(
        negloglik,
        bounds=(-radius, radius),
        args=(y_row, intercepts, loadings),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return res.x


def logistic_item_oracle(y, theta_1d):
    """Unconstrained logistic MLE for intercept + slope via BFGS."""
    x = np.column_stack([np.ones_like(theta_1d), theta_1d])

    def negloglik(beta):
        z = x @ beta
        sign = np.where(y == 1, 1.0, -1.0)
        return -np.sum(log_expit(sign * z))

    def grad(beta):
        p = expit(x @ beta)
        return -x.T @ (y - p)

    res = optimize.minimize(
        negloglik, np.zeros(2), jac=grad, method="BFGS", options={"gtol": 1e-10}
    )
    return res.x  # (intercept, loading)


def converge_person_block(data, items, thetas, config, link=Link.LOGIT):
    for _ in range(60):
        new, _ = update_person_block(data, items, thetas, config, link)
        if np.max(np.abs(new - thetas)) < 1e-12:
            return new
        thetas = new
    return thetas


def converge_item_block(data, thetas, items, config, q=None, link=Link.LOGIT):
    for _ in range(60):
        new, _ = update_item_block(data, thetas, items, config, q, link)
        shift = max(
            max(np.max(np.abs(a.intercepts - b.intercepts)) for a, b in zip(new, items)),
            max(np.max(np.abs(a.loadings - b.loadings)) for a, b in zip(new, items)),
        )
        items = new
        if shift < 1e-12:
            return items
    return items


def max_item_norm(items):
    return max(
        float(np.sqrt(np.sum(it.intercepts**2) + np.sum(it.loadings**2)))
        for it in items
    )


class TestNewtonBlock:
    def test_stops_unflagged_below_roundoff(self):
        # objective 1e12 - (x - 1)^2 / 2, seen from 2e-6 away: the gradient is
        # above 1e-6, but the predicted gain (2e-12) is below the objective's
        # round-off, so no halving could show a strict increase
        def cells(rows, x, derivs=False):
            if derivs:
                return 1.0 - x, -np.ones_like(x)
            return 1e12 - 0.5 * (x[:, 0] - 1.0) ** 2

        start = np.array([[1.0 + 2e-6]])
        x, failed = _newton_block(start, np.ones((1, 1)), cells, 10.0, 5)
        assert not failed[0]
        assert x[0, 0] == start[0, 0]


class TestPersonBlock:
    def test_all_missing_row_unchanged(self):
        rng = np.random.default_rng(0)
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.2]), rng.uniform(0.6, 1.2, 1))
            for _ in range(6)
        ]
        responses = rng.integers(0, 2, size=(4, 6))
        responses[2] = MISSING  # raw array path keeps the degenerate row
        thetas = rng.normal(size=(4, 1))
        updated, flagged = update_person_block(
            responses, items, thetas, CjmleConfig(), Link.LOGIT
        )
        assert updated[2, 0] == thetas[2, 0]
        assert 2 not in flagged

    def test_k1_matches_scalar_optimizer(self):
        rng = np.random.default_rng(7)
        n, j = 12, 12
        loadings = rng.uniform(0.8, 1.5, j)
        intercepts = rng.uniform(-1.0, 1.0, j)
        items = [
            ItemParams(ModelKind.BINARY, intercepts[jj : jj + 1], loadings[jj : jj + 1])
            for jj in range(j)
        ]
        theta_true = rng.normal(size=(n, 1))
        z = intercepts[None, :] + theta_true @ loadings[None, :]
        responses = (rng.random((n, j)) < expit(z)).astype(int)
        config = CjmleConfig()
        radius = config.radius(1)
        fitted = converge_person_block(responses, items, np.zeros((n, 1)), config)
        for i in range(n):
            oracle = scalar_person_oracle(responses[i], intercepts, loadings, radius)
            assert abs(fitted[i, 0] - oracle) < 1e-6

    def test_k1_probit_matches_scalar_optimizer(self):
        rng = np.random.default_rng(17)
        n, j = 12, 15
        loadings = rng.uniform(0.6, 1.4, j)
        intercepts = rng.uniform(-1.0, 1.0, j)
        items = [
            ItemParams(ModelKind.BINARY, intercepts[jj : jj + 1], loadings[jj : jj + 1])
            for jj in range(j)
        ]
        z = intercepts[None, :] + rng.normal(size=(n, 1)) @ loadings[None, :]
        responses = (rng.random((n, j)) < ndtr(z)).astype(int)
        responses[np.arange(n), rng.integers(0, j, n)] = MISSING
        config = CjmleConfig()
        fitted = converge_person_block(
            responses, items, np.zeros((n, 1)), config, Link.PROBIT
        )
        for i in range(n):
            seen = responses[i] != MISSING
            oracle = scalar_person_oracle(
                responses[i, seen], intercepts[seen], loadings[seen], config.radius(1),
                lambda t, y, d, a: row_negloglik_1d(t, y, d, a, log_ndtr),
            )
            assert abs(fitted[i, 0] - oracle) < 1e-6

    def test_graded_k1_matches_scalar_optimizer(self):
        rng = np.random.default_rng(23)
        n, j, cats = 10, 20, 4
        loadings = rng.uniform(0.7, 1.5, j)
        thresholds = np.sort(rng.uniform(-1.5, 1.5, (j, cats - 1)), axis=1)
        items = [
            ItemParams(ModelKind.GRADED, thresholds[jj], loadings[jj : jj + 1])
            for jj in range(j)
        ]
        responses = rng.integers(0, cats, size=(n, j))
        config = CjmleConfig(c_radius=4.0)
        fitted = converge_person_block(responses, items, np.zeros((n, 1)), config)
        for i in range(n):
            oracle = scalar_person_oracle(
                responses[i], thresholds, loadings, 4.0, graded_row_negloglik_1d
            )
            assert abs(fitted[i, 0] - oracle) < 1e-6

    def test_row_pinned_on_ball_reaches_constrained_optimum(self):
        # every response is 1, so the row's likelihood rises without bound and
        # its constrained optimum lies on the circle of radius 1
        rng = np.random.default_rng(29)
        j = 10
        loadings = rng.normal(size=(j, 2)) + np.array([1.0, 0.3])
        intercepts = rng.uniform(-0.5, 0.5, j)
        items = [
            ItemParams(ModelKind.BINARY, intercepts[jj : jj + 1], loadings[jj])
            for jj in range(j)
        ]
        responses = np.ones((1, j), dtype=int)
        config = CjmleConfig(c_radius=1.0)

        def negloglik(angle):
            theta = np.array([np.cos(angle), np.sin(angle)])
            return -np.sum(log_expit(intercepts + loadings @ theta))

        grid = np.linspace(-np.pi, np.pi, 721)
        best = grid[np.argmin([negloglik(g) for g in grid])]
        angle = optimize.minimize_scalar(
            negloglik, bounds=(best - 0.01, best + 0.01), method="bounded",
            options={"xatol": 1e-12},
        ).x
        oracle = np.array([np.cos(angle), np.sin(angle)])
        start = np.array([[np.cos(angle + 2.0), np.sin(angle + 2.0)]])  # on the ball
        thetas = start
        for _ in range(20):
            thetas, flagged = update_person_block(responses, items, thetas, config)
            assert flagged.size == 0
        np.testing.assert_allclose(thetas[0], oracle, atol=1e-6)

    def test_start_outside_ball_is_projected(self):
        items = [ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([1.0, 0.5]))]
        responses = np.full((3, 1), MISSING)  # no data: update is projection only
        thetas = np.array([[30.0, 40.0], [0.3, -0.4], [-9.0, 0.0]])
        config = CjmleConfig(c_radius=5.0)
        updated, _ = update_person_block(responses, items, thetas, config, Link.LOGIT)
        np.testing.assert_allclose(updated[0], [3.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(updated[1], [0.3, -0.4], atol=1e-15)
        np.testing.assert_allclose(updated[2], [-5.0, 0.0], atol=1e-12)


class TestItemBlock:
    def test_all_zero_column_hits_boundary(self):
        rng = np.random.default_rng(3)
        thetas = rng.normal(size=(200, 1))
        items = [ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([0.5]))]
        responses = np.zeros((200, 1), dtype=int)
        config = CjmleConfig(c_radius=3.0, inner_steps=5)
        fitted = converge_item_block(responses, thetas, items, config)
        _, flagged = update_item_block(responses, thetas, fitted, config)
        assert max_item_norm(fitted) == pytest.approx(3.0, abs=1e-9)
        assert 0 in flagged
        # all-zero column pushes the intercept down, not up
        assert fitted[0].intercepts[0] < -2.0

    def test_k1_matches_logistic_regression(self):
        rng = np.random.default_rng(11)
        n = 300
        thetas = rng.normal(size=(n, 1))
        true = ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([0.9]))
        z = true.intercepts[0] + thetas[:, 0] * true.loadings[0]
        y = (rng.random(n) < expit(z)).astype(int)
        config = CjmleConfig(c_radius=20.0)  # slack constraint
        start = [ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([0.5]))]
        fitted = converge_item_block(y[:, None], thetas, start, config)
        oracle = logistic_item_oracle(y, thetas[:, 0])
        assert abs(fitted[0].intercepts[0] - oracle[0]) < 1e-5
        assert abs(fitted[0].loadings[0] - oracle[1]) < 1e-5

    def test_q_masked_loading_stays_zero(self):
        rng = np.random.default_rng(5)
        thetas = rng.normal(size=(150, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.1]), np.array([0.8, 0.0])),
            ItemParams(ModelKind.BINARY, np.array([-0.2]), np.array([0.5, 0.7])),
        ]
        responses = rng.integers(0, 2, size=(150, 2))
        q = np.array([[1, 0], [1, 1]])
        fitted, _ = update_item_block(responses, thetas, items, CjmleConfig(), q)
        assert fitted[0].loadings[1] == 0.0
        assert fitted[1].loadings[1] != 0.0


    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_binary_block_matches_fit_item_loop(self, link):
        rng = np.random.default_rng(31)
        n, j = 400, 6
        thetas = rng.normal(size=(n, 2))
        q = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1]])
        true_a = rng.uniform(0.5, 1.5, (j, 2)) * q
        z = rng.uniform(-1.0, 1.0, j)[None, :] + thetas @ true_a.T
        cdf = expit if link is Link.LOGIT else ndtr
        responses = (rng.random((n, j)) < cdf(z)).astype(int)
        responses[rng.random((n, j)) < 0.15] = MISSING
        start = [
            ItemParams(ModelKind.BINARY, np.array([0.1]), 0.5 * q[jj]) for jj in range(j)
        ]
        config = CjmleConfig(c_radius=50.0, inner_steps=3)  # slack ball
        block, flagged = update_item_block(responses, thetas, start, config, q, link)
        assert flagged.size == 0
        for jj, item in enumerate(start):
            seen = responses[:, jj] != MISSING
            w = np.eye(2)[responses[seen, jj]]
            ref = fit_item(
                thetas[seen], w, item, link, free_mask=q[jj].astype(bool),
                max_steps=3, grad_tol=1e-6, ball_radius=50.0,
            ).params
            np.testing.assert_allclose(block[jj].intercepts, ref.intercepts, atol=1e-8)
            np.testing.assert_allclose(block[jj].loadings, ref.loadings, atol=1e-8)
            assert np.all(block[jj].loadings[q[jj] == 0] == 0.0)

    def test_all_missing_column_unchanged_and_unflagged(self):
        rng = np.random.default_rng(37)
        thetas = rng.normal(size=(100, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([0.7, 0.4])),
            ItemParams(ModelKind.BINARY, np.array([-0.3]), np.array([0.6, -0.5])),
        ]
        responses = rng.integers(0, 2, size=(100, 2))
        responses[:, 1] = MISSING  # raw array path keeps the degenerate column
        fitted, flagged = update_item_block(responses, thetas, items, CjmleConfig())
        assert fitted[1].intercepts[0] == items[1].intercepts[0]
        np.testing.assert_array_equal(fitted[1].loadings, items[1].loadings)
        assert 1 not in flagged


class TestFitCjmle:
    def test_single_cell_extreme_response(self):
        data = Dataset(np.array([[1]]), np.array([2]))
        init_item = ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([1.0]))
        init = (np.zeros((1, 1)), [init_item])
        p_init = category_probs(init[0], init_item, Link.LOGIT)[0, 1]
        fit = fit_cjmle(
            data, 1, CjmleConfig(max_iters=40), init=init, standardize=False
        )
        p_fit = category_probs(fit.thetas, fit.items[0], Link.LOGIT)[0, 1]
        assert p_fit >= p_init
        assert p_fit > 0.99  # constraint boundary, not a finite stationary point

    def test_trajectory_nondecreasing(self):
        data, _, _ = simulate(SimSpec(n_persons=500, n_items=50, k=2, seed=42))
        fit = fit_cjmle(data, 2)
        assert fit.trajectory.size >= 1
        diffs = np.diff(fit.trajectory)
        floor = -1e-8 * (np.abs(fit.trajectory[:-1]) + 1.0)
        assert np.all(diffs >= floor)

    def test_beats_spectral_initializer(self):
        spec = SimSpec(n_persons=2000, n_items=100, k=3, seed=9)
        data, _, true_items = simulate(spec)
        true_loadings = loadings_matrix(true_items)
        svd = fit_svd_ordinal(data, 3)
        fit = fit_cjmle(data, 3)
        loss_svd = align_loadings(svd.loadings, true_loadings).loss
        loss_cjmle = align_loadings(loadings_matrix(fit.items), true_loadings).loss
        assert loss_cjmle < loss_svd

    def test_feasibility_every_iteration(self):
        spec = SimSpec(n_persons=300, n_items=20, k=2, seed=1)
        data, _, _ = simulate(spec)
        config = CjmleConfig()
        radius = config.radius(2)
        thetas, items = spectral_start(data, 2, ModelKind.BINARY, Link.LOGIT, None)
        thetas = np.clip(thetas, -radius, radius)
        for _ in range(5):
            thetas, _ = update_person_block(data, items, thetas, config)
            items, _ = update_item_block(data, thetas, items, config)
            assert np.linalg.norm(thetas, axis=1).max() <= radius + 1e-12
            assert max_item_norm(items) <= radius + 1e-12

    def test_larger_panels_reduce_probability_loss(self):
        wins = 0
        for seed in range(10):
            losses = []
            for n, j in [(300, 30), (600, 60)]:
                data, thetas, items = simulate(
                    SimSpec(n_persons=n, n_items=j, k=1, seed=seed)
                )
                fit = fit_cjmle(data, 1)
                losses.append(prob_mse(thetas, items, fit.thetas, fit.items))
            wins += losses[1] < losses[0]
        assert wins >= 9

    def test_graded_trajectory_nondecreasing_and_feasible(self):
        spec = SimSpec(n_persons=300, n_items=12, k=2, model="graded", categories=4, seed=19)
        data, _, _ = simulate(spec)
        config = CjmleConfig()
        radius = config.radius(2)
        thetas, items = spectral_start(data, 2, ModelKind.GRADED, Link.LOGIT, None)
        thetas = np.clip(thetas, -radius / 2, radius / 2)
        trail = [log_joint_likelihood(data, thetas, items)]
        for _ in range(6):
            thetas, _ = update_person_block(data, items, thetas, config)
            items, _ = update_item_block(data, thetas, items, config)
            assert np.linalg.norm(thetas, axis=1).max() <= radius + 1e-12
            assert max_item_norm(items) <= radius + 1e-12
            assert all(np.all(np.diff(it.intercepts) >= 0) for it in items)
            trail.append(log_joint_likelihood(data, thetas, items))
        diffs = np.diff(trail)
        assert np.all(diffs >= -1e-8 * (np.abs(trail[:-1]) + 1.0))
        fit = fit_cjmle(data, 2)
        assert np.all(np.diff(fit.trajectory) >= -1e-8 * (np.abs(fit.trajectory[:-1]) + 1.0))

    def test_row_permutation_equivariance(self):
        spec = SimSpec(n_persons=200, n_items=15, k=2, seed=13)
        data, _, _ = simulate(spec)
        rng = np.random.default_rng(99)
        perm = rng.permutation(data.n_persons)
        permuted = Dataset(data.responses[perm], data.categories)
        init_thetas, init_items = spectral_start(
            data, 2, ModelKind.BINARY, Link.LOGIT, None
        )
        fit = fit_cjmle(data, 2, init=(init_thetas, init_items))
        fit_perm = fit_cjmle(permuted, 2, init=(init_thetas[perm], init_items))
        np.testing.assert_allclose(fit_perm.thetas, fit.thetas[perm], atol=1e-8)
        np.testing.assert_allclose(
            loadings_matrix(fit_perm.items), loadings_matrix(fit.items), atol=1e-8
        )

    def test_q_mask_zeros_survive_full_fit(self):
        q = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        spec = SimSpec(n_persons=250, n_items=8, k=2, q_matrix=q, seed=4)
        data, _, _ = simulate(spec)
        fit = fit_cjmle(data, 2, q=q)
        fitted = loadings_matrix(fit.items)
        assert np.all(fitted[q == 0] == 0.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            CjmleConfig(c_radius=-1.0)
        with pytest.raises(ValueError):
            CjmleConfig(tol=0.0)
        data, _, _ = simulate(SimSpec(n_persons=30, n_items=5, seed=0))
        with pytest.raises(ValueError):
            fit_cjmle(data, 0)


def standalone_fit(data, k, config, model, link, q):
    """fit_cjmle without standardization, from stand-alone block and
    likelihood calls that each build their own work arrays."""
    thetas, items = spectral_start(data, k, model, link, q)
    radius = config.radius(k)
    thetas = _project_rows(np.array(thetas, dtype=float), radius)
    items = [project_ball(item, radius) for item in items]
    loglik, trail = log_joint_likelihood(data, thetas, items, link), []
    for _ in range(config.max_iters):
        thetas, rows = update_person_block(data, items, thetas, config, link)
        items, flagged = update_item_block(data, thetas, items, config, q, link)
        trail.append(log_joint_likelihood(data, thetas, items, link))
        if abs(trail[-1] - loglik) < config.tol * (abs(loglik) + 1.0):
            break
        loglik = trail[-1]
    return _fix_signs(thetas, items) + (trail, rows, flagged)


class TestFitArrays:
    Q = np.array([[1, 0], [0, 1], [1, 1]] * 8)

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    @pytest.mark.parametrize(
        "model, missing, q, radius",
        [("binary", 0.2, None, None), ("binary", 0.0, Q, 3.0), ("graded", 0.2, None, None)],
    )
    def test_fit_equals_standalone_blocks(self, link, model, missing, q, radius):
        spec = SimSpec(300, 24, k=2, model=model, link=link, categories=2 + (model == "graded"),
                       missing_rate=missing, q_matrix=q, seed=31)
        data, _, _ = simulate(spec)
        config = CjmleConfig(c_radius=radius, tol=1e-4)
        fit = fit_cjmle(data, 2, config, model=model, link=link, q=q, standardize=False)
        thetas, items, trail, rows, flagged = standalone_fit(data, 2, config, model, link, q)
        assert fit.n_iters == len(trail) > 1
        np.testing.assert_array_equal(fit.trajectory, trail)
        np.testing.assert_array_equal(fit.thetas, thetas)
        for got, want in zip(fit.items, items):
            np.testing.assert_array_equal(got.intercepts, want.intercepts)
            np.testing.assert_array_equal(got.loadings, want.loadings)
        np.testing.assert_array_equal(fit.flagged_rows, rows)
        np.testing.assert_array_equal(fit.flagged_items, flagged)

    def test_person_block_with_fit_arrays_allocates_under_two_panels(self):
        n, j = 2000, 60
        data, _, _ = simulate(SimSpec(n, j, k=3, seed=32))
        thetas, items = spectral_start(data, 3, ModelKind.BINARY, Link.LOGIT, None)
        config, arrays = CjmleConfig(), _fit_arrays(data.responses)
        thetas, _ = update_person_block(data, items, thetas, config, Link.LOGIT, arrays)
        tracemalloc.start()
        try:
            update_person_block(data, items, thetas, config, Link.LOGIT, arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * j * 8
