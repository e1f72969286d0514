"""Marginal-likelihood engine tests.

Oracles: scipy.integrate.quad for single-item marginal likelihoods, exact
grid-posterior inverse-CDF draws for the stochastic-gradient unbiasedness
check, and the quadrature EM fit itself as the reference point for the
stochastic engines (as independent estimator implementations of the same
target).
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import expit, log_expit, logit, logsumexp

import ifa.em

from ifa.em import (
    EmConfig,
    McemConfig,
    SaConfig,
    StemConfig,
    average_parameter_trail,
    build_grid,
    fit_em_quadrature,
    fit_mcem,
    fit_sa_mcmc,
    fit_stem,
    log_marginal_likelihood,
    pack_params,
    unpack_params,
)
from ifa.itemfit import internal_grad_hess
from ifa.models import (
    MISSING,
    Dataset,
    FactorConfig,
    ItemParams,
    Link,
    ModelKind,
    category_logprobs,
    loadings_matrix,
    log_joint_likelihood,
)
from ifa.simulate import SimSpec, simulate
from ifa.start import default_items


def adaptive_marginal_loglik(y: int, intercept: float, loading: float) -> float:
    """Single-item K=1 logit marginal via scipy adaptive quadrature."""

    def integrand(t):
        p1 = expit(intercept + loading * t)
        return stats.norm.pdf(t) * (p1 if y == 1 else 1.0 - p1)

    value, _ = integrate.quad(integrand, -np.inf, np.inf)
    return float(np.log(value))


def packed(fit) -> np.ndarray:
    return pack_params(fit.items, fit.correlation)


@pytest.fixture(scope="module")
def benchmark_panel():
    """Shared K=1 2PL panel with its quadrature EM reference fit."""
    spec = SimSpec(n_persons=2000, n_items=20, k=1, seed=17)
    data, thetas, items = simulate(spec)
    fit = fit_em_quadrature(data, 1)
    return data, thetas, items, fit


class TestMarginalLikelihood:
    def test_zero_loadings_marginal_equals_joint(self):
        rng = np.random.default_rng(0)
        responses = rng.integers(0, 2, size=(30, 4))
        items = [
            ItemParams(ModelKind.BINARY, rng.uniform(-1, 1, 1), np.zeros(1))
            for _ in range(4)
        ]
        anywhere = rng.normal(size=(30, 1))
        marginal = log_marginal_likelihood(responses, items, FactorConfig(1))
        joint = log_joint_likelihood(responses, anywhere, items, Link.LOGIT)
        assert abs(marginal - joint) < 1e-10

    def test_single_item_matches_adaptive_quadrature(self):
        item = ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([1.2]))
        value = log_marginal_likelihood(np.array([[1]]), [item], FactorConfig(1))
        assert abs(value - adaptive_marginal_loglik(1, 0.3, 1.2)) < 1e-8

    def test_grid_refinement_is_stable(self):
        rng = np.random.default_rng(1)
        responses = rng.integers(0, 2, size=(5, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([0.9])),
            ItemParams(ModelKind.BINARY, np.array([-0.4]), np.array([1.1])),
        ]
        coarse = log_marginal_likelihood(responses, items, FactorConfig(1), points_per_dim=21)
        fine = log_marginal_likelihood(responses, items, FactorConfig(1), points_per_dim=41)
        assert abs(fine - coarse) < 1e-8

    def test_high_dimension_rejected(self):
        items = [ItemParams(ModelKind.BINARY, np.zeros(1), np.zeros(4))]
        with pytest.raises(ValueError, match="fit_stem or fit_sa"):
            log_marginal_likelihood(np.array([[1]]), items, FactorConfig(4))

    def test_grid_weights_normalized(self):
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        for config in [FactorConfig(1), FactorConfig(2, corr)]:
            grid = build_grid(21, config)
            assert abs(np.exp(grid.log_weights).sum() - 1.0) < 1e-10
            assert grid.nodes.shape == (21**config.k, config.k)
        with pytest.raises(ValueError):
            build_grid(1, FactorConfig(1))


def reference_estep(responses, items, grid, link):
    """E-step tables person by person and item by item."""
    nodes = grid.nodes
    tables = [category_logprobs(nodes, it, link) for it in items]
    counts = [np.zeros((nodes.shape[0], it.n_categories)) for it in items]
    second = np.zeros((nodes.shape[1],) * 2)
    total = 0.0
    for row in responses:
        loglik = grid.log_weights.copy()
        for table, y in zip(tables, row):
            if y != MISSING:
                loglik = loglik + table[:, y]
        person = logsumexp(loglik)
        total += person
        post = np.exp(loglik - person)
        second += nodes.T @ (post[:, None] * nodes)
        for count, y in zip(counts, row):
            if y != MISSING:
                count[:, y] += post
    return counts, second, total


class TestEstepTables:
    def test_matches_per_item_reference(self, monkeypatch):
        rng = np.random.default_rng(21)
        items = [
            ItemParams(ModelKind.BINARY, [0.3], [1.2, 0.0]),
            ItemParams(ModelKind.GRADED, [-1.0, 0.2, 1.1], [0.8, 0.6]),
            ItemParams(ModelKind.GPC, [0.5, -0.4], [0.0, 1.3]),
            ItemParams(ModelKind.BINARY, [-0.7], [0.4, 0.9]),
            # loading so steep that the top category has probability exactly
            # 0 at the high nodes of the first factor
            ItemParams(ModelKind.GRADED, [-1.0, 0.0, 1.0], [200.0, 0.0]),
        ]
        n = 60
        categories = [it.n_categories for it in items]
        responses = np.column_stack([rng.integers(0, c, size=n) for c in categories])
        responses[rng.random(responses.shape) < 0.2] = MISSING
        responses[0, 4] = 3
        grid = build_grid(9, FactorConfig(2, np.array([[1.0, 0.3], [0.3, 1.0]])))
        top = category_logprobs(grid.nodes, items[4], Link.LOGIT)[:, 3]
        assert np.isneginf(top).any() and np.isfinite(top).any()
        # 7 persons per chunk: 8 full chunks and a ragged one of 4
        monkeypatch.setattr(ifa.em, "_ESTEP_CELL_BUDGET", 7 * grid.nodes.shape[0])
        counts, second, total = ifa.em._estep_tables(responses, items, grid, Link.LOGIT)
        ref_counts, ref_second, ref_total = reference_estep(responses, items, grid, Link.LOGIT)
        assert np.isfinite(total) and total == pytest.approx(ref_total, rel=1e-12, abs=0)
        np.testing.assert_allclose(second, ref_second, rtol=1e-12, atol=0)
        for count, ref in zip(counts, ref_counts):
            assert count.shape == ref.shape and not np.isnan(count).any()
            np.testing.assert_allclose(count, ref, rtol=1e-12, atol=0)
        assert np.all(counts[4][np.isneginf(top), 3] == 0.0)


class TestQuadratureEm:
    def test_loglik_monotone(self):
        data, _, _ = simulate(SimSpec(n_persons=500, n_items=10, k=1, seed=3))
        fit = fit_em_quadrature(data, 1)
        trail = fit.info["loglik_trail"]
        assert trail.size >= 2
        floor = -1e-9 * (np.abs(trail[:-1]) + 1.0)
        assert np.all(np.diff(trail) >= floor)

    def test_loglik_monotone_two_factors(self):
        data, _, _ = simulate(SimSpec(n_persons=400, n_items=12, k=2, seed=8))
        fit = fit_em_quadrature(data, 2, config=EmConfig(max_iters=40))
        trail = fit.info["loglik_trail"]
        floor = -1e-9 * (np.abs(trail[:-1]) + 1.0)
        assert np.all(np.diff(trail) >= floor)

    def test_two_factors_leave_the_symmetric_start(self):
        # equal loading columns are a fixed point of exploratory EM, so a start
        # with them stalls below the truth's log-likelihood
        spec = SimSpec(2000, 20, k=2, seed=7)
        data, _, items = simulate(spec)
        fit = fit_em_quadrature(data, 2)
        truth = log_marginal_likelihood(data, items, spec.factor_config())
        assert fit.converged and fit.marginal_loglik >= truth
        a = loadings_matrix(fit.items)
        assert np.max(np.abs(a[:, 0] - a[:, 1])) > 0.1

    def test_recovers_generating_parameters(self, benchmark_panel):
        data, _, items, fit = benchmark_panel
        truth = pack_params(items, np.eye(1))
        est = packed(fit)
        rmse = float(np.sqrt(np.mean((est - truth) ** 2)))
        assert rmse < 0.1

    def test_no_failed_item_fits(self, benchmark_panel):
        fit = benchmark_panel[3]
        assert fit.info["mstep_failures"] == [0] * fit.n_iters

    def test_graded_probit_reaches_the_truth(self):
        spec = SimSpec(2000, 20, k=1, model="graded", categories=4, link="probit", seed=7)
        data, _, items = simulate(spec)
        fit = fit_em_quadrature(data, 1, "graded", "probit")
        truth = log_marginal_likelihood(data, items, FactorConfig(1), link=Link.PROBIT)
        assert fit.converged and fit.marginal_loglik >= truth

    def test_truth_start_stays_close(self):
        # N large enough that the MLE's own sampling error sits inside the
        # margin; the fit must settle at the nearby optimum, not wander
        data, _, items = simulate(SimSpec(n_persons=20000, n_items=15, k=1, seed=18))
        fit = fit_em_quadrature(data, 1, init_items=items)
        truth = pack_params(items, np.eye(1))
        assert np.max(np.abs(packed(fit) - truth)) < 0.05

    def test_unit_diagonal_correlation(self):
        data, _, _ = simulate(SimSpec(n_persons=300, n_items=10, k=2, seed=5))
        fit = fit_em_quadrature(data, 2, config=EmConfig(max_iters=25))
        assert np.all(np.diag(fit.correlation) == 1.0)
        # packed snapshots store the strict lower triangle: valid correlations
        for row in fit.trajectory:
            _, corr = unpack_params(row, fit.items, 2)
            assert np.all(np.abs(corr[np.tril_indices(2, -1)]) <= 1.0)

    def test_missing_cells_supported(self):
        data, _, _ = simulate(
            SimSpec(n_persons=300, n_items=8, k=1, missing_rate=0.15, seed=6)
        )
        fit = fit_em_quadrature(data, 1)
        assert np.isfinite(fit.marginal_loglik)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EmConfig(tol=0.0)
        with pytest.raises(ValueError):
            EmConfig(max_iters=0)


class TestMcem:
    def test_many_draws_match_quadrature(self):
        data, _, _ = simulate(SimSpec(n_persons=400, n_items=8, k=1, seed=10))
        reference = fit_em_quadrature(data, 1)
        fit = fit_mcem(data, 1, draws_schedule=[50] * 5 + [1000] * 3)
        assert np.max(np.abs(packed(fit) - packed(reference))) < 0.05

    def test_seed_determinism(self):
        data, _, _ = simulate(SimSpec(n_persons=150, n_items=6, k=1, seed=11))
        fits = [fit_mcem(data, 1, McemConfig(max_iters=6, seed=4)) for _ in range(2)]
        np.testing.assert_array_equal(fits[0].trajectory, fits[1].trajectory)

    def test_zero_loading_intercept_closed_form(self):
        rng = np.random.default_rng(12)
        y = (rng.random(4000) < 0.62).astype(int)
        data = Dataset(y[:, None], np.array([2]))
        q = np.array([[0]])
        fit = fit_mcem(data, 1, draws_schedule=[5] * 6, q=q)
        target = float(logit(y.mean()))
        assert abs(fit.items[0].intercepts[0] - target) < 0.02
        assert fit.items[0].loadings[0] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            McemConfig(draws_start=10, draws_cap=5)
        with pytest.raises(ValueError):
            McemConfig(draws_growth=0.5)


class TestStem:
    def test_average_of_constant_trail(self):
        row = np.array([0.3, -1.2, 0.8])
        trail = np.tile(row, (40, 1))
        np.testing.assert_allclose(average_parameter_trail(trail, 10), row, rtol=1e-13)

    def test_average_validation(self):
        with pytest.raises(ValueError):
            average_parameter_trail(np.zeros(5), 1)
        with pytest.raises(ValueError):
            average_parameter_trail(np.zeros((5, 2)), 5)

    def test_benchmark_rmse_vs_quadrature(self, benchmark_panel):
        data, _, _, reference = benchmark_panel
        fit = fit_stem(data, 1, StemConfig(total_iters=400, burn_in=100, seed=0))
        rmse = float(np.sqrt(np.mean((packed(fit) - packed(reference)) ** 2)))
        assert rmse < 0.05

    def test_doubling_window_shrinks_noise_sqrt2(self):
        # same data, sampler seed varies: the averaged estimate's Monte Carlo
        # sd across seeds should drop by about sqrt(2) when T - m doubles;
        # windows of 100 vs 200 iterates sit well above the chain's
        # autocorrelation time on this panel
        data, _, _ = simulate(SimSpec(n_persons=300, n_items=8, k=1, seed=2))
        short, long = [], []
        for seed in range(20):
            fit_s = fit_stem(data, 1, StemConfig(total_iters=120, burn_in=20, seed=seed))
            fit_l = fit_stem(data, 1, StemConfig(total_iters=220, burn_in=20, seed=seed))
            short.append(packed(fit_s))
            long.append(packed(fit_l))
        sd_short = np.std(np.asarray(short), axis=0).mean()
        sd_long = np.std(np.asarray(long), axis=0).mean()
        ratio = sd_short / sd_long
        assert 1.2 < ratio < 1.7

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StemConfig(total_iters=10, burn_in=0)
        with pytest.raises(ValueError):
            StemConfig(total_iters=10, burn_in=10)


class TestSaMcmc:
    def test_zero_gain_parameters_never_move(self):
        data, _, _ = simulate(SimSpec(n_persons=80, n_items=4, k=1, seed=14))
        fit = fit_sa_mcmc(
            data, 1, SaConfig(total_iters=30, warmup=0, gain_schedule=lambda t: 0.0)
        )
        psi = fit.info["psi_trail"]
        np.testing.assert_array_equal(psi[-1], psi[0])
        start = default_items(data, 1, ModelKind.BINARY, Link.LOGIT)
        np.testing.assert_array_equal(
            packed(fit), pack_params(start, np.eye(1))
        )
        # zero gain keeps the information estimate at zero: every iteration
        # falls back to the plain update
        assert fit.info["fallback_iters"] == list(range(1, 31))
        assert psi.shape[0] == 31  # the start and every iterate

    def test_close_to_quadrature_across_seeds(self):
        data, _, _ = simulate(SimSpec(n_persons=1000, n_items=15, k=1, seed=16))
        reference = fit_em_quadrature(data, 1)
        for seed in range(10):
            fit = fit_sa_mcmc(data, 1, SaConfig(total_iters=500, seed=seed))
            assert np.max(np.abs(packed(fit) - packed(reference))) < 0.07

    def test_default_gain_schedule(self):
        config = SaConfig()
        assert config.gamma(1) == 1.0
        assert config.gamma(50) == 1.0
        assert config.gamma(51) == 1.0
        assert config.gamma(60) == pytest.approx(0.1)
        gains = np.array([config.gamma(t) for t in range(51, 501)])
        assert np.all(np.diff(gains) < 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SaConfig(total_iters=10, warmup=10)
        with pytest.raises(ValueError):
            SaConfig(total_iters=0)
        # the correlation step is a convex combination only for gains in [0, 1]
        for gain in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                SaConfig(gain_schedule=lambda t: gain).gamma(1)
        assert SaConfig(gain_schedule=lambda t: 1.0).gamma(1) == 1.0

    def test_two_factor_correlation_close_to_quadrature(self):
        q = np.eye(2, dtype=int)[np.arange(12) % 2]
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        data, _, _ = simulate(SimSpec(1000, 12, k=2, q_matrix=q, correlation=corr, seed=9))
        reference = fit_em_quadrature(data, 2, q=q)
        fit = fit_sa_mcmc(data, 2, SaConfig(seed=0), q=q)
        assert abs(fit.correlation[1, 0] - reference.correlation[1, 0]) < 0.05


class TestStochasticGradient:
    def test_fisher_identity_unbiased(self):
        # exact-grid posterior draws: the average complete-data gradient must
        # match the marginal gradient on the same grid within 3 MC sds
        rng = np.random.default_rng(20)
        n, j = 40, 4
        intercepts = rng.uniform(-0.8, 0.8, j)
        loadings = rng.uniform(0.6, 1.2, j)
        items = [
            ItemParams(ModelKind.BINARY, intercepts[c : c + 1], loadings[c : c + 1])
            for c in range(j)
        ]
        theta_true = rng.normal(size=(n, 1))
        z = intercepts[None, :] + theta_true @ loadings[None, :]
        responses = (rng.random((n, j)) < expit(z)).astype(int)
        grid = build_grid(201, FactorConfig(1))
        # marginal side: the quadrature E-step's expected counts
        counts, _, _ = ifa.em._estep_tables(responses, items, grid, Link.LOGIT)
        target = np.concatenate([
            internal_grad_hess(it, grid.nodes, cnt, Link.LOGIT)[0]
            for it, cnt in zip(items, counts)
        ])
        # complete-data side: the sampled engines' category indicators
        weights = ifa.em._indicators(responses.T, 2)
        # per-person posterior over nodes, from raw sigmoid algebra
        sign = np.where(responses == 1, 1.0, -1.0)
        linear = intercepts[None, :] + np.outer(grid.nodes[:, 0], loadings)  # (M, J)
        table = sum(
            log_expit(sign[:, c][:, None] * linear[:, c][None, :]) for c in range(j)
        )
        logpost = grid.log_weights[None, :] + table
        post = np.exp(logpost - logpost.max(axis=1, keepdims=True))
        post /= post.sum(axis=1, keepdims=True)
        cum = np.cumsum(post, axis=1)
        n_draws = 10**4
        grads = np.empty((n_draws, target.size))
        for d in range(n_draws):
            u = rng.random((n, 1))
            idx = (u > cum).sum(axis=1)
            thetas = grid.nodes[idx]
            grads[d] = np.concatenate([
                internal_grad_hess(it, thetas, w, Link.LOGIT)[0]
                for it, w in zip(items, weights)
            ])
        se = grads.std(axis=0) / np.sqrt(n_draws)
        np.testing.assert_array_less(
            np.abs(grads.mean(axis=0) - target), 3 * se + 1e-12
        )


class TestEngineContracts:
    """Determinism, unit-diagonal correlation, and exact Q zeros, per engine."""

    @pytest.fixture(scope="class")
    @staticmethod
    def masked_panel(request):
        q = np.array([[1, 0], [0, 1], [1, 1], [1, 0], [0, 1], [1, 1], [1, 0], [0, 1]])
        data, _, _ = simulate(
            SimSpec(n_persons=300, n_items=8, k=2, q_matrix=q, missing_rate=request.param, seed=21)
        )
        return data, q

    @pytest.mark.parametrize(
        "masked_panel, name",
        [
            *[pytest.param(0.0, name, id=name) for name in ["quadrature", "mcem", "stem", "sa"]],
            # the sampled engines on missing cells (quadrature: test_missing_cells_supported)
            *[pytest.param(0.2, name, id=f"{name}-missing20") for name in ["mcem", "stem", "sa"]],
        ],
        indirect=["masked_panel"],
    )
    def test_engine_contracts(self, masked_panel, name):
        data, q = masked_panel
        def run():
            if name == "quadrature":
                return fit_em_quadrature(data, 2, config=EmConfig(max_iters=15), q=q)
            if name == "mcem":
                return fit_mcem(data, 2, McemConfig(max_iters=5, seed=7), q=q)
            if name == "stem":
                return fit_stem(data, 2, StemConfig(total_iters=40, burn_in=10, seed=7), q=q)
            return fit_sa_mcmc(data, 2, SaConfig(total_iters=40, warmup=5, seed=7), q=q)

        first, second = run(), run()
        np.testing.assert_array_equal(packed(first), packed(second))
        assert np.all(np.diag(first.correlation) == 1.0)
        offdiag = first.correlation[np.tril_indices(2, -1)]
        assert np.all(np.abs(offdiag) <= 1.0)
        loadings = np.vstack([it.loadings for it in first.items])
        assert np.all(loadings[q == 0] == 0.0)

    @pytest.mark.parametrize("fit", [fit_mcem, fit_stem, fit_sa_mcmc])
    def test_sampled_engines_reject_k_at_least_items(self, fit):
        # three items cannot identify three factors
        data, _, _ = simulate(SimSpec(n_persons=200, n_items=3, k=1, seed=4))
        with pytest.raises(ValueError, match=r"k\+1 persons and items"):
            fit(data, 3)

    def test_quadrature_fit_rejects_high_dimension(self):
        data, _, _ = simulate(SimSpec(n_persons=50, n_items=8, k=1, seed=22))
        with pytest.raises(ValueError, match="fit_stem or fit_sa"):
            fit_em_quadrature(data, 4)


class TestChainPool:
    """One sampler engine per fit, refreshed in place every iteration."""

    @pytest.mark.parametrize("link", [Link.PROBIT, Link.LOGIT], ids=["gibbs", "mh"])
    def test_one_engine_across_refreshes(self, link):
        data, _, _ = simulate(SimSpec(n_persons=60, n_items=4, k=1, missing_rate=0.2, seed=23))
        items = default_items(data, 1, ModelKind.BINARY, link)
        pool = ifa.em._ChainPool(data, 1, link, seed=3)
        pool.refresh(items, np.eye(1))
        engine = pool.engine
        for _ in range(3):
            pool.draw(1, ifa.em._SWEEPS_PER_DRAW, adapt=True)
            pool.refresh(items, np.eye(1))
            assert pool.engine is engine

    def test_mh_adaptation_counts_across_iterations(self):
        # the Robbins-Monro gain 1 / (10 + s)^0.6 decays over the whole fit
        data, _, _ = simulate(SimSpec(n_persons=60, n_items=4, k=1, seed=24))
        items = default_items(data, 1, ModelKind.BINARY, Link.LOGIT)
        pool = ifa.em._ChainPool(data, 1, Link.LOGIT, seed=4)
        for t in range(1, 4):
            pool.refresh(items, np.eye(1))
            pool.draw(1, ifa.em._SWEEPS_PER_DRAW, adapt=True)
            assert pool.engine.steps_adapted == t * ifa.em._SWEEPS_PER_DRAW
