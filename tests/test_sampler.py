"""Posterior-sampler tests.

Oracle: a 2001-point quadrature evaluation of each single-item posterior,
written directly from normal-pdf times response-probability algebra with
scipy primitives, independent of the sampler and model modules.  The
engines run one chain per response row, so N identical rows give N
independent chains; every tolerance below is checked against the Monte
Carlo standard error (SE) of its estimate.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, ndtr

from ifa import sampler
from ifa.models import MISSING, Dataset, FactorConfig, ItemParams, Link, ModelKind
from ifa.sampler import GibbsEngine, MhEngine, acceptance_probability, truncated_normal_interval

HALF_NORMAL_MEAN = 0.7978845608028654  # sqrt(2 / pi)


def quadrature_posterior_mean(y: int, intercept: float, loading: float, link: str) -> float:
    """Exact single-item K=1 posterior mean on a 2001-point grid over [-8, 8]."""
    grid = np.linspace(-8.0, 8.0, 2001)
    z = intercept + loading * grid
    if link == "probit":
        p1 = ndtr(z)
    else:
        p1 = expit(z)
    lik = p1 if y == 1 else 1.0 - p1
    weight = stats.norm.pdf(grid) * lik
    return float(np.sum(grid * weight) / np.sum(weight))


def spy_latent_draws(monkeypatch) -> list:
    """Record the draws of every truncated-normal call a sweep makes."""
    calls = []

    def spy(mean, lower, upper, rng):
        draws = truncated_normal_interval(mean, lower, upper, rng)
        calls.append(draws)
        return draws

    monkeypatch.setattr(sampler, "truncated_normal_interval", spy)
    return calls


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        # half-normal sd sqrt(1 - 2/pi) = 0.603: SE = 0.603 / sqrt(1e5) = 0.0019,
        # so the 0.01 tolerance is 5.2 SE
        rng = np.random.default_rng(0)
        draws = truncated_normal_interval(np.zeros(10**5), 0.0, np.inf, rng)
        assert np.all(draws >= 0)
        assert abs(draws.mean() - HALF_NORMAL_MEAN) < 0.01

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(1)
        pos = truncated_normal_interval(np.zeros(10**5), 0.0, np.inf, rng)
        neg = truncated_normal_interval(np.zeros(10**5), -np.inf, 0.0, rng)
        assert np.all(neg <= 0)
        ks = stats.ks_2samp(pos, np.abs(neg)).statistic
        assert ks < 0.02

    def test_far_positive_mean_negligible_truncation(self):
        rng = np.random.default_rng(2)
        draws = truncated_normal_interval(np.full(10**5, 10.0), 0.0, np.inf, rng)
        assert abs(draws.mean() - 10.0) < 0.01

    def test_deep_tail_matches_mills_ratio(self):
        # mean -10 truncated to [0, inf): standardized draws live 10 sds out
        rng = np.random.default_rng(3)
        n = 10**4
        draws = truncated_normal_interval(np.full(n, -10.0), 0.0, np.inf, rng)
        assert np.all(draws >= 0)
        a = 10.0
        m = stats.norm.pdf(a) / stats.norm.sf(a)
        mills_mean = -a + m
        # Var[Z | Z > a] = 1 + a * m - m^2
        tail_sd = np.sqrt(1.0 + a * m - m * m)
        assert abs(draws.mean() - mills_mean) < 3 * tail_sd / np.sqrt(n)

    def test_interval_bounds_respected(self):
        rng = np.random.default_rng(4)
        mean = rng.normal(size=500)
        lower = mean - rng.uniform(0.1, 2.0, 500)
        upper = mean + rng.uniform(0.1, 2.0, 500)
        draws = truncated_normal_interval(mean, lower, upper, rng)
        assert np.all(draws >= lower) and np.all(draws <= upper)

    def test_infinite_bounds_need_no_guard(self):
        # the interval masses read ndtr at infinite bounds directly
        np.testing.assert_array_equal(ndtr([-np.inf, np.inf]), [0.0, 1.0])

    def test_inverted_bounds_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            truncated_normal_interval(np.zeros(3), 1.0, -1.0, rng)

    def test_nan_mean_or_bound_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            truncated_normal_interval(np.array([np.nan, 0.0]), 0.0, np.inf, rng)
        with pytest.raises(ValueError):
            truncated_normal_interval(np.zeros(2), np.array([np.nan, 0.0]), np.inf, rng)
        with pytest.raises(ValueError):
            truncated_normal_interval(np.zeros(2), -np.inf, np.array([0.0, np.nan]), rng)

    def test_one_uniform_per_cell(self):
        # upper, lower, two-sided and beyond-ndtr cells in one call advance
        # the generator exactly as one rng.random(n): no rejection loop
        n = 4000
        setup = np.random.default_rng(6)
        mean = setup.normal(scale=20.0, size=n)
        width = setup.uniform(0.1, 3.0, n)
        base = setup.normal(scale=20.0, size=n)
        lower = np.where(setup.random(n) < 0.3, -np.inf, base)
        upper = np.where(setup.random(n) < 0.3, np.inf, base + width)
        assert np.sum(lower - mean > 37.5) > 0 and np.sum(upper - mean < -37.5) > 0
        drawn, reference = np.random.default_rng(7), np.random.default_rng(7)
        draws = truncated_normal_interval(mean, lower, upper, drawn)
        reference.random(n)
        assert drawn.bit_generator.state == reference.bit_generator.state
        assert np.all(np.isfinite(draws))
        assert np.all((lower <= draws) & (draws <= upper))

    def test_upper_tail_mirrors_lower_tail_bitwise(self):
        # [l, inf) at mean m against (-inf, -l] at -m, l > m, out past ndtr's range
        setup = np.random.default_rng(8)
        mean = setup.normal(scale=3.0, size=5000)
        bound = mean + setup.uniform(1e-3, 60.0, 5000)
        upper_tail = truncated_normal_interval(mean, bound, np.inf, np.random.default_rng(9))
        lower_tail = truncated_normal_interval(-mean, -np.inf, -bound, np.random.default_rng(9))
        np.testing.assert_array_equal(upper_tail.view(np.int64), (-lower_tail).view(np.int64))

    @pytest.mark.parametrize(
        "mean, upper",
        [(-40.0, np.inf), (-1000.0, np.inf), (-60.0, 1.0)],
        ids=["one-sided-40", "one-sided-1000", "two-sided-60"],
    )
    def test_beyond_ndtr_range_matches_exponential_tail(self, mean, upper):
        # ndtr(mean) underflows, so the draw - 0 is exponential with rate
        # |mean| truncated to [0, upper]: mean 1/r - w / (e^{r w} - 1) and sd
        # at most 1/r, so 3 SE is 3 / (r sqrt(n))
        n = 10**5
        draws = truncated_normal_interval(np.full(n, mean), 0.0, upper, np.random.default_rng(10))
        assert np.all(np.isfinite(draws))
        assert np.all((draws >= 0.0) & (draws <= upper))
        rate = -mean
        expected = 1.0 / rate
        if np.isfinite(upper):
            expected -= upper / np.expm1(rate * upper)
        assert abs(draws.mean() - expected) < 3.0 / (rate * np.sqrt(n))


class TestGibbsSweep:
    def test_zero_loadings_sample_prior(self):
        # zero loadings make theta independent of the latents, so one sweep
        # draws every row from the prior N(0, corr).  The SE of a sample
        # variance is sqrt(2 / n) = 0.010 at n = 2e4 (0.05 is 5 SE; 1e4 rows
        # would give only 3.5 SE); a covariance has sqrt(1.25 / n) = 0.008.
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        n = 2 * 10**4
        data = Dataset(np.ones((n, 2), dtype=int), np.full(2, 2))
        items = [ItemParams(ModelKind.BINARY, np.array([0.3]), np.zeros(2)) for _ in range(2)]
        engine = GibbsEngine(data, items, FactorConfig(2, corr))
        draws = engine.sweep(np.zeros((n, 2)), np.random.default_rng(0))
        np.testing.assert_allclose(np.cov(draws.T), corr, atol=0.05)

    def test_theta_conditional_is_exact(self, monkeypatch):
        # fixed latents: the theta draw must match its closed-form normal law,
        # on a complete panel and on one where half the rows miss item 2, so
        # two precisions are in play.  The tolerances are 3 SE of each group
        # whatever its size; 1e5 rows give 1e5 independent draws from one sweep
        corr = np.array([[1.0, 0.3], [0.3, 1.0]])
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([1.0, 0.4])),
            ItemParams(ModelKind.BINARY, np.array([-0.1]), np.array([0.6, 0.9])),
        ]
        a = np.array([[1.0, 0.4], [0.6, 0.9]])
        latents = np.array([0.8, -0.3])
        resid = latents - np.array([0.2, -0.1])
        n = 10**5
        for n_missing in (0, n // 2):
            responses = np.tile([1, 0], (n, 1))
            responses[n - n_missing :, 1] = MISSING
            engine = GibbsEngine(Dataset(responses, np.full(2, 2)), items, FactorConfig(2, corr))
            fixed = iter(latents)  # the sweep draws the latents column by column
            monkeypatch.setattr(
                sampler,
                "truncated_normal_interval",
                lambda mean, lower, upper, rng: np.full(mean.shape, next(fixed)),
            )
            draws = engine.sweep(np.zeros((n, 2)), np.random.default_rng(11))
            assert next(fixed, None) is None
            for rows, n_obs in ((slice(0, n - n_missing), 2), (slice(n - n_missing, n), 1)):
                group = draws[rows]
                if group.size == 0:
                    continue
                prec = np.linalg.inv(corr) + a[:n_obs].T @ a[:n_obs]
                cov = np.linalg.inv(prec)
                mean = cov @ (a[:n_obs].T @ resid[:n_obs])
                size = group.shape[0]
                mean_se = np.sqrt(np.diag(cov) / size)
                np.testing.assert_array_less(np.abs(group.mean(axis=0) - mean), 3 * mean_se)
                cov_hat = np.cov(group.T)
                cov_se = np.sqrt(
                    (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / size
                )
                np.testing.assert_array_less(np.abs(cov_hat - cov), 3 * cov_se)

    def test_binary_latent_sign_consistency(self, monkeypatch):
        rng = np.random.default_rng(2)
        responses = rng.integers(0, 2, size=(200, 3))
        responses[:, 1:][rng.random((200, 2)) < 0.4] = MISSING
        data = Dataset(responses, np.full(3, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([0.8])),
            ItemParams(ModelKind.BINARY, np.array([-0.4]), np.array([1.2])),
            ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([0.6])),
        ]
        engine = GibbsEngine(data, items, FactorConfig(1))
        calls = spy_latent_draws(monkeypatch)
        thetas = np.zeros((200, 1))
        for _ in range(50):
            thetas = engine.sweep(thetas, rng)
        assert len(calls) == 50 * 3
        for t, draws in enumerate(calls):
            y = responses[:, t % 3]
            y = y[y != MISSING]  # one draw per observed cell, none for missing ones
            assert draws.shape == y.shape
            assert np.all(draws[y == 1] >= 0.0)
            assert np.all(draws[y == 0] <= 0.0)

    def test_graded_latent_interval(self, monkeypatch):
        thresholds = np.array([-0.5, 0.7])
        item = ItemParams(ModelKind.GRADED, thresholds, np.array([0.9]))
        responses = np.repeat([0, 1, 2], 20)[:, None]
        engine = GibbsEngine(Dataset(responses, np.array([3])), [item], FactorConfig(1))
        calls = spy_latent_draws(monkeypatch)
        rng = np.random.default_rng(3)
        thetas = np.zeros((60, 1))
        for _ in range(200):
            thetas = engine.sweep(thetas, rng)
        assert len(calls) == 200
        bounds = {0: (0.5, np.inf), 1: (-0.7, 0.5), 2: (-np.inf, -0.7)}
        for draws in calls:
            for category, (lo, hi) in bounds.items():
                cell = draws[responses[:, 0] == category]
                assert np.all((lo <= cell) & (cell <= hi))

    def test_nonprobit_item_rejected(self):
        item = ItemParams(ModelKind.GPC, np.array([0.1, 0.2]), np.array([1.0]))
        data = Dataset(np.array([[1]]), np.array([3]))
        with pytest.raises(ValueError):
            GibbsEngine(data, [item], FactorConfig(1))

    def test_equal_seeds_identical_chains(self):
        data = Dataset(np.ones((40, 1), dtype=int), np.array([2]))
        items = [ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([1.0]))]
        outs = []
        for _ in range(2):
            engine = GibbsEngine(data, items, FactorConfig(1))
            rng = np.random.default_rng(5)
            thetas = np.zeros((40, 1))
            for _ in range(50):
                thetas = engine.sweep(thetas, rng)
            outs.append(thetas)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestMhStep:
    def test_tiny_scale_acceptance_near_one(self):
        n = 1000
        data = Dataset(np.ones((n, 1), dtype=int), np.array([2]))
        item = ItemParams(ModelKind.BINARY, np.array([0.3]), np.array([1.0]))
        engine = MhEngine(data, [item], FactorConfig(1), Link.LOGIT)
        engine.scale = 1e-6
        rng = np.random.default_rng(8)
        thetas = np.zeros((n, 1))
        logpost = engine.logpost(thetas)
        for _ in range(10):
            new, logpost = engine.step(thetas, logpost, rng)
            assert engine.last_rate > 0.99
            assert np.mean(new != thetas) > 0.99
            thetas = new

    def test_k1_posterior_mean_vs_quadrature(self):
        # the final states of n independent chains: posterior sd 0.875 gives
        # SE = 0.875 / sqrt(4e4) = 0.0044, so the 0.02 tolerance is 4.6 SE
        n = 4 * 10**4
        data = Dataset(np.zeros((n, 1), dtype=int), np.array([2]))
        item = ItemParams(ModelKind.BINARY, np.array([-0.2]), np.array([1.3]))
        engine = MhEngine(data, [item], FactorConfig(1), Link.LOGIT)
        rng = np.random.default_rng(9)
        thetas = np.zeros((n, 1))
        logpost = engine.logpost(thetas)
        # adapt during burn-in, then freeze; the Robbins-Monro gain averages
        # the acceptance rate of all chains, so the scale settles within 500 steps
        for _ in range(500):
            thetas, logpost = engine.step(thetas, logpost, rng, adapt=True)
        scale = engine.scale
        for _ in range(100):
            thetas, logpost = engine.step(thetas, logpost, rng)
        assert engine.scale == scale
        oracle = quadrature_posterior_mean(0, -0.2, 1.3, "logit")
        assert abs(thetas.mean() - oracle) < 0.02

    def test_flat_likelihood_recovers_prior(self):
        # zero loading, zero intercept: the response carries no information.
        # The final states of n independent chains started at 0: the SE of a
        # sample variance is sqrt(2 / n) = 0.010 at n = 2e4, so 0.05 is 5 SE
        n = 2 * 10**4
        data = Dataset(np.ones((n, 1), dtype=int), np.array([2]))
        item = ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([0.0]))
        engine = MhEngine(data, [item], FactorConfig(1), Link.LOGIT)
        rng = np.random.default_rng(10)
        thetas = np.zeros((n, 1))
        logpost = engine.logpost(thetas)
        for _ in range(200):
            thetas, logpost = engine.step(thetas, logpost, rng)
        assert abs(thetas.var() - 1.0) < 0.05

    def test_detailed_balance_on_discrete_target(self):
        target = np.array([0.2, 0.5, 0.3])
        log_target = np.log(target)
        n = target.size
        transition = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                # symmetric proposal: uniform over the other two states
                transition[i, j] = 0.5 * float(
                    acceptance_probability(log_target[j] - log_target[i])
                )
            transition[i, i] = 1.0 - transition[i].sum()
        np.testing.assert_allclose(transition.sum(axis=1), 1.0, atol=1e-15)
        flow = target[:, None] * transition
        np.testing.assert_allclose(flow, flow.T, atol=1e-12)

    def test_acceptance_probability_values(self):
        out = acceptance_probability(np.array([0.0, 3.0, np.log(0.3)]))
        np.testing.assert_allclose(out, [1.0, 1.0, 0.3], atol=1e-12)


class TestEngines:
    def test_gibbs_engine_matches_quadrature(self):
        n = 2000
        data = Dataset(np.ones((n, 1), dtype=int), np.array([2]))
        item = ItemParams(ModelKind.BINARY, np.array([0.4]), np.array([1.1]))
        engine = GibbsEngine(data, [item], FactorConfig(1))
        rng = np.random.default_rng(0)
        thetas = np.zeros((n, 1))
        total, count = 0.0, 0
        for t in range(300):
            thetas = engine.sweep(thetas, rng)
            if t >= 100:
                total += thetas.mean()
                count += 1
        oracle = quadrature_posterior_mean(1, 0.4, 1.1, "probit")
        assert abs(total / count - oracle) < 0.01

    def test_gibbs_engine_handles_missing_cells(self):
        rng = np.random.default_rng(1)
        responses = rng.integers(0, 2, size=(50, 4))
        responses[rng.random(responses.shape) < 0.3] = MISSING
        responses[:, 0] = np.maximum(responses[:, 0], 0)  # keep rows non-empty
        data = Dataset(responses, np.full(4, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.1 * j]), np.array([0.8]))
            for j in range(4)
        ]
        engine = GibbsEngine(data, items, FactorConfig(1))
        thetas = np.zeros((50, 1))
        for _ in range(20):
            thetas = engine.sweep(thetas, np.random.default_rng(2))
        assert np.all(np.isfinite(thetas))

    def test_mh_engine_adapts_toward_target_rate(self):
        data = Dataset(np.ones((300, 2), dtype=int), np.full(2, 2))
        items = [
            ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([1.0])),
            ItemParams(ModelKind.BINARY, np.array([-0.3]), np.array([0.7])),
        ]
        engine = MhEngine(data, items, FactorConfig(1), Link.LOGIT)
        engine.scale = 8.0
        rng = np.random.default_rng(3)
        thetas = np.zeros((300, 1))
        logpost = engine.logpost(thetas)
        for _ in range(500):
            thetas, logpost = engine.step(thetas, logpost, rng, adapt=True)
        assert 0.1 < engine.last_rate < 0.4
        assert engine.scale < 8.0

    def test_mh_engine_reproducible(self):
        data = Dataset(np.ones((40, 1), dtype=int), np.array([2]))
        items = [ItemParams(ModelKind.BINARY, np.array([0.0]), np.array([1.0]))]
        outs = []
        for _ in range(2):
            engine = MhEngine(data, items, FactorConfig(1), Link.LOGIT)
            rng = np.random.default_rng(12)
            thetas = np.zeros((40, 1))
            logpost = engine.logpost(thetas)
            for _ in range(100):
                thetas, logpost = engine.step(thetas, logpost, rng)
            outs.append(thetas)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestRefresh:
    """An engine refreshed in place behaves as one built with the new inputs."""

    @staticmethod
    def panel():
        rng = np.random.default_rng(21)
        responses = rng.integers(0, 3, size=(300, 4))
        responses[:, :2] = np.minimum(responses[:, :2], 1)
        responses[:, 1:][rng.random((300, 3)) < 0.3] = MISSING
        data = Dataset(responses, np.array([2, 2, 3, 3]))

        def items(shift):
            binary = [
                ItemParams(ModelKind.BINARY, np.array([0.1 + shift]), np.array([0.9, 0.2 - shift]))
                for _ in range(2)
            ]
            graded = [
                ItemParams(ModelKind.GRADED, np.array([-0.4, 0.5 + shift]), np.array([shift, 1.1]))
                for _ in range(2)
            ]
            return binary + graded

        return data, items(0.0), items(0.3)

    def test_gibbs_refresh_equals_rebuild(self):
        data, items0, items1 = self.panel()
        cfg1 = FactorConfig(2, np.array([[1.0, 0.4], [0.4, 1.0]]))
        refreshed = GibbsEngine(data, items0, FactorConfig(2))
        refreshed.refresh(items1, cfg1)
        rebuilt = GibbsEngine(data, items1, cfg1)
        outs = []
        for engine in (refreshed, rebuilt):
            rng = np.random.default_rng(22)
            thetas = np.zeros((300, 2))
            for _ in range(5):
                thetas = engine.sweep(thetas, rng)
            outs.append(thetas)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_mh_refresh_equals_rebuild(self):
        data, items0, items1 = self.panel()
        cfg1 = FactorConfig(2, np.array([[1.0, -0.2], [-0.2, 1.0]]))
        refreshed = MhEngine(data, items0, FactorConfig(2), Link.LOGIT)
        refreshed.refresh(items1, cfg1)
        rebuilt = MhEngine(data, items1, cfg1, Link.LOGIT)
        thetas = np.random.default_rng(23).normal(size=(300, 2))
        np.testing.assert_array_equal(refreshed.logpost(thetas), rebuilt.logpost(thetas))
        outs = []
        for engine in (refreshed, rebuilt):
            rng = np.random.default_rng(24)
            outs.append(engine.step(thetas, engine.logpost(thetas), rng))
        for got, want in zip(*outs):
            np.testing.assert_array_equal(got, want)
