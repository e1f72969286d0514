"""Response functions, likelihoods, and analytic gradients.

The gradient oracle is central finite differences with step 1e-5;
closed-form spot values are frozen from high-precision evaluation of the
defining expressions.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit, log_expit, log_ndtr

from ifa import (
    Dataset,
    ItemParams,
    Link,
    ModelKind,
    category_probs,
    grad_wrt_beta,
    grad_wrt_theta,
    log_joint_likelihood,
)
from ifa.models import (
    MISSING,
    _binary_cell,
    _panel_cells,
    _predictors,
    category_logprobs,
    person_logliks,
    soft_grad_hess,
    soft_loglik,
)
from ifa.cjmle import _binary_cells, _cell_arrays

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
            assert category_probs(np.zeros(2), item, link)[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_closed_form_logit_value(self):
        # G(1 + 2 * 0.5) = exp(2) / (1 + exp(2))
        item = ItemParams(ModelKind.BINARY, np.array([1.0]), np.array([2.0]))
        expect = 0.8807970779778823
        assert category_probs(np.array([0.5]), item, Link.LOGIT)[0, 1] == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        item = ItemParams(ModelKind.BINARY, np.zeros(1), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            category_probs(np.zeros(3), item, Link.LOGIT)

    def test_open_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            item = random_item(ModelKind.BINARY, 2, rng)
            p = category_probs(rng.normal(size=2), item, Link.LOGIT)[0, 1]
            assert 0.0 < p < 1.0


class TestGradedIrf:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for link in (Link.LOGIT, Link.PROBIT):
            for _ in range(50):
                item = random_item(ModelKind.GRADED, 2, rng, categories=4)
                theta = rng.normal(size=2)
                total = sum(category_probs(theta, item, link)[0, t] for t in range(4))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_two_category_reduction_to_binary(self):
        # P(Y=0) = G(d0 + a't) = 1 - G(-(d0 + a't)) = 1 - binary P(Y=1) with
        # flipped linear predictor, for either symmetric link
        rng = np.random.default_rng(2)
        for link in (Link.LOGIT, Link.PROBIT):
            for _ in range(30):
                a = rng.uniform(0.5, 1.5, size=2)
                d0 = rng.uniform(-1, 1)
                theta = rng.normal(size=2)
                graded = ItemParams(ModelKind.GRADED, np.array([d0]), a)
                flipped = ItemParams(ModelKind.BINARY, np.array([-d0]), -a)
                lhs = category_probs(theta, graded, link)[0, 0]
                rhs = 1.0 - category_probs(theta, flipped, link)[0, 1]
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_tied_thresholds_vanish_middle_category(self):
        item = ItemParams(
            ModelKind.GRADED, np.array([-0.4, -0.4, 0.9]), np.array([1.1])
        )
        for theta in (-1.5, 0.0, 2.0):
            p_mid = category_probs(np.array([theta]), item, Link.LOGIT)[0, 1]
            assert abs(p_mid) < 1e-12
        # an observed cell of probability exactly 0 gives -inf, and the joint
        # likelihood warns
        thetas = np.array([[-1.5], [0.0]])
        logliks = person_logliks(np.array([[1], [2]]), thetas, [item], Link.LOGIT)
        assert logliks[0] == -np.inf and np.isfinite(logliks[1])
        with pytest.warns(UserWarning, match="probability zero"):
            assert log_joint_likelihood(np.array([[1], [2]]), thetas, [item]) == -np.inf

    @pytest.mark.parametrize("link, log_cdf", [(Link.LOGIT, log_expit), (Link.PROBIT, log_ndtr)])
    def test_observed_cells_at_extreme_predictors(self, link, log_cdf):
        # each code's cell from its two cutpoints alone, against the differences
        # of the tails on the far side: log values clamped as category_logprobs
        # clamps them, -inf where a cell underflows to 0
        item = ItemParams(ModelKind.GRADED, np.array([-1.0, 0.0, 1.0]), np.array([1.0]))
        z = np.array([-1000.0, -40.0, 40.0, 1000.0])
        codes = np.tile(np.arange(4), (z.size, 1))
        cuts = item.intercepts + z[:, None]
        lower = np.exp(log_cdf(cuts))  # G(z_t), for z < 0
        upper = np.exp(log_cdf(-cuts))  # 1 - G(z_t), for z > 0
        p = np.where(
            z[:, None] < 0,
            np.column_stack([lower[:, 0], np.diff(lower, axis=1), 1.0 - lower[:, -1]]),
            np.column_stack([1.0 - upper[:, 0], -np.diff(upper, axis=1), upper[:, -1]]),
        )
        with np.errstate(divide="ignore"):
            expect = np.where(p == 0, -np.inf, np.log(np.clip(p, 1e-300, 1.0 - 1e-16)))
        z_cells = np.repeat(z[:, None], 4, axis=1)
        got = _panel_cells(z_cells, codes, [item] * 4, link)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)
        if link is Link.LOGIT:  # the end cells are binary: scores G(-z_0) and -G(z_2)
            score, _ = _panel_cells(z_cells[1:3], codes[1:3], [item] * 4, link, derivs=True)
            np.testing.assert_allclose(score[:, 0], np.exp(log_expit(-cuts[1:3, 0])), rtol=1e-12)
            np.testing.assert_allclose(score[:, 3], -np.exp(log_expit(cuts[1:3, 2])), rtol=1e-12)

    def test_upper_tail_cells_do_not_cancel(self):
        # far above every cutpoint G(z_t) rounds to 1, yet the cells are the
        # differences of the upper tails 1 - G(z) = G(-z)
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
            total = sum(category_probs(theta, item)[0, t] for t in range(5))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_odds_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            item = random_item(ModelKind.GPC, 2, rng, categories=4)
            theta = rng.normal(size=2)
            m = float(item.loadings @ theta)
            probs = [category_probs(theta, item)[0, t] for t in range(4)]
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
            assert category_probs(theta, gpc)[0, 1] == pytest.approx(
                category_probs(theta, binary, Link.LOGIT)[0, 1], abs=1e-12
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

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_densities_vanish_at_infinity(self, link):
        # the panel kernel reads G' and G'' at the -inf and +inf outer cutpoints
        x = np.array([-np.inf, np.inf])
        np.testing.assert_array_equal(link.pdf(x), 0.0)
        np.testing.assert_array_equal(link.dpdf(x), 0.0)


class TestBinaryCell:
    """The one binary-cell kernel, through each of its callers, at predictors
    from -1000 to 1000: the code-0 cell must take the flipped predictor."""

    Z = np.array([-1000.0, -40.0, -6.0, -0.3, 0.0, 0.7, 5.0, 40.0, 1000.0])
    # the logistic from its limits in, past the range where exp(x) overflows
    X = np.array([0.0, 1e-8, 20.0, 37.0, 709.0, 745.0, 800.0, np.inf])
    X = np.concatenate([X, -X[1:]])

    @staticmethod
    def assert_close_in_ulp(got, ref, maxulp=4):
        """got within maxulp of ref wherever |ref| >= 1e-300, and equal at
        the infinite arguments, where ref is an exact limit."""
        ref64 = ref.astype(float)
        checked = np.abs(ref64) >= 1e-300
        err = np.abs(got[checked].astype(np.longdouble) - ref[checked])
        assert np.all(err <= maxulp * np.spacing(np.abs(ref64[checked]))), (got, ref64)
        ends = np.isinf(TestBinaryCell.X)
        np.testing.assert_array_equal(got[ends], ref64[ends])

    def test_logit_link_and_score_match_expit(self):
        # references from expit in extended precision, and G'' = -G' tanh(x/2),
        # which does not cancel near 0
        x = self.X
        ref = x.astype(np.longdouble)
        g, g_flip = expit(ref), expit(-ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf, pdf, dpdf = Link.LOGIT.cdf(x), Link.LOGIT.pdf(x), Link.LOGIT.dpdf(x)
            lam, curv = _binary_cell(x, Link.LOGIT, derivs=True)
        self.assert_close_in_ulp(cdf, g)
        self.assert_close_in_ulp(pdf, g * g_flip)
        self.assert_close_in_ulp(dpdf, -g * g_flip * np.tanh(ref / 2))
        self.assert_close_in_ulp(lam, g_flip)  # d log G(sz) / dsz = G(-sz)
        self.assert_close_in_ulp(curv, -g * g_flip)
        np.testing.assert_array_equal(cdf[np.isinf(x)], [1.0, 0.0])

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_panel_cells_are_the_signed_predictor_forms(self, link):
        # 20% missing cells: each observed cell is log G(sz), its score
        # (2y - 1) lam(sz) and curvature dlam/dsz at sz = (2y - 1) z; each
        # missing cell is exactly 0, whether the call holds work arrays or not
        rng = np.random.default_rng(21)
        items = [random_item(ModelKind.BINARY, 2, rng) for _ in range(6)]
        theta = 3.0 * rng.normal(size=(200, 2))
        codes = rng.integers(0, 2, size=(200, 6))
        missing = rng.random(codes.shape) < 0.2
        codes[missing] = MISSING
        z = _predictors(theta, items)
        sign = 2.0 * codes - 1.0
        sz = sign * z
        if link is Link.LOGIT:
            value, lam = log_expit(sz), expit(-sz)
            curv = -expit(sz) * lam
        else:
            value = log_ndtr(sz)
            lam = np.exp(-0.5 * sz**2 - 0.5 * np.log(2 * np.pi) - value)
            curv = -lam * (sz + lam)
        observed = ~missing
        for out in (None, np.full((2,) + codes.shape, np.nan)):
            got = _panel_cells(z.copy(), codes, items, link, out=out)
            np.testing.assert_allclose(got[observed], value[observed], rtol=1e-13, atol=0)
            score, c = _panel_cells(z.copy(), codes, items, link, True, out=out)
            np.testing.assert_allclose(score[observed], (sign * lam)[observed], rtol=1e-13, atol=0)
            np.testing.assert_allclose(c[observed], curv[observed], rtol=1e-13, atol=0)
            for cells in (got, score, c):
                assert np.all(cells[missing] == 0.0)

    @pytest.mark.parametrize("link, log_cdf", [(Link.LOGIT, log_expit), (Link.PROBIT, log_ndtr)])
    def test_logprobs_match_scipy_and_observed_pick(self, link, log_cdf):
        item = ItemParams(ModelKind.BINARY, np.zeros(1), np.ones(1))
        theta = self.Z[:, None]
        logp = category_logprobs(theta, item, link)
        np.testing.assert_array_max_ulp(logp[:, 0], log_cdf(-self.Z), maxulp=4)
        np.testing.assert_array_max_ulp(logp[:, 1], log_cdf(self.Z), maxulp=4)
        y = np.arange(self.Z.size) % 2
        for codes in (y, 1 - y):
            picked = logp[np.arange(self.Z.size), codes]
            np.testing.assert_array_equal(person_logliks(codes[:, None], theta, [item], link), picked)

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_cjmle_cells_match_person_logliks_and_scores(self, link):
        rng = np.random.default_rng(18)
        n, m = 9, 5
        items = [random_item(ModelKind.BINARY, 2, rng) for _ in range(m)]
        a = np.array([it.loadings for it in items])
        d = np.array([it.intercepts[0] for it in items])
        # rows whose predictors reach about +-40 and +-1000 on every item
        thetas = np.vstack([rng.normal(size=(5, 2)), [[40, 0], [-40, 0], [1000, 0], [-1000, 0]]])
        responses = rng.integers(0, 2, size=(n, m))
        responses[rng.random((n, m)) < 0.25] = MISSING
        cells = _binary_cells(_cell_arrays(responses), a, d, link)
        for rows in (slice(None), np.array([1, 5, 6, 8])):
            x, resp = thetas[rows], responses[rows]
            np.testing.assert_allclose(
                cells(rows, x), person_logliks(resp, x, items, link), rtol=1e-12, atol=1e-12
            )
            score, curv = cells(rows, x, True)
            expect = _panel_cells(_predictors(x, items), resp, items, link, derivs=True)
            np.testing.assert_allclose(score, expect[0], rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(curv, expect[1], rtol=1e-9, atol=1e-12)


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

    def test_item_count_must_match_columns(self):
        item = ItemParams(ModelKind.BINARY, np.array([0.1]), np.array([1.0]))
        for fn in (person_logliks, log_joint_likelihood):
            with pytest.raises(ValueError, match="one ItemParams per item"):
                fn(np.array([[1, 0, 1]]), np.zeros((1, 1)), [item], Link.LOGIT)

    def test_mixed_panel_is_the_sum_of_its_kind_groups(self):
        rng = np.random.default_rng(19)
        kinds = [ModelKind.BINARY, ModelKind.GRADED, ModelKind.BINARY, ModelKind.GRADED]
        items = [random_item(kind, 2, rng, categories=4) for kind in kinds]
        theta = rng.normal(size=(30, 2))
        codes = np.column_stack([rng.integers(0, it.n_categories, 30) for it in items])
        codes[rng.random(codes.shape) < 0.2] = MISSING
        for link in (Link.LOGIT, Link.PROBIT):
            groups = [[0, 2], [1, 3]]
            expect = sum(person_logliks(codes[:, g], theta, [items[j] for j in g], link) for g in groups)
            np.testing.assert_allclose(person_logliks(codes, theta, items, link), expect, rtol=1e-14)

    def test_work_arrays_give_the_fresh_result(self):
        rng = np.random.default_rng(20)
        theta = rng.normal(size=(25, 2))
        for kind, link in MODEL_LINK_PAIRS:
            items = [random_item(kind, 2, rng, categories=int(c)) for c in rng.integers(2, 5, 5)]
            codes = np.column_stack([rng.integers(0, it.n_categories, 25) for it in items])
            codes[rng.random(codes.shape) < 0.2] = MISSING
            work = np.full((3,) + codes.shape, np.nan)
            for _ in range(2):  # a second call overwrites the first's work
                np.testing.assert_array_equal(
                    person_logliks(codes, theta, items, link, out=work),
                    person_logliks(codes, theta, items, link),
                )
            for derivs in (False, True):
                fresh = _panel_cells(_predictors(theta, items), codes, items, link, derivs)
                held = _panel_cells(_predictors(theta, items), codes, items, link, derivs, work[1:])
                np.testing.assert_array_equal(held, fresh)

    def test_work_array_gives_the_default_joint_likelihood(self):
        rng = np.random.default_rng(21)
        items = [random_item(ModelKind.BINARY, 2, rng) for _ in range(6)]
        theta = rng.normal(size=(40, 2))
        codes = rng.integers(0, 2, size=(40, 6))
        codes[rng.random(codes.shape) < 0.2] = MISSING
        for link in (Link.LOGIT, Link.PROBIT):
            work = np.full((3, 40, 6), np.nan)
            assert log_joint_likelihood(codes, theta, items, link, out=work) == (
                log_joint_likelihood(codes, theta, items, link)
            )
        for shape in [(3, 40, 7), (3, 39, 6), (2, 40, 6), (4, 40, 6)]:
            with pytest.raises(ValueError):
                log_joint_likelihood(codes, theta, items, Link.LOGIT, out=np.empty(shape))

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
        # the panel kernel on panels with missing cells, graded items of 2 to 5
        # categories among them; each cell moves with its own predictor z
        rng = np.random.default_rng(17)
        for kind, link in MODEL_LINK_PAIRS:
            for _ in range(5):
                k = int(rng.integers(1, 4))
                items = [random_item(kind, k, rng, categories=int(c)) for c in rng.integers(2, 6, 6)]
                theta = rng.normal(size=(8, k))
                codes = np.column_stack([rng.integers(0, it.n_categories, 8) for it in items])
                codes[rng.random(codes.shape) < 0.2] = MISSING
                z = _predictors(theta, items)

                def cells(shift, derivs=False):
                    return _panel_cells(z + shift, codes, items, link, derivs)

                score, curv = cells(0.0, True)
                assert np.all(score[codes == MISSING] == 0) and np.all(curv[codes == MISSING] == 0)
                fd = (cells(FD_STEP) - cells(-FD_STEP)) / (2 * FD_STEP)
                assert rel_err(score, fd) < FD_REL_TOL
                fd = (cells(FD_STEP, True)[0] - cells(-FD_STEP, True)[0]) / (2 * FD_STEP)
                assert rel_err(curv, fd) < FD_REL_TOL

    def test_binary_logit_canonical_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            item = random_item(ModelKind.BINARY, 2, rng)
            theta = rng.normal(size=2)
            y = int(rng.integers(0, 2))
            p = category_probs(theta, item, Link.LOGIT)[0, 1]
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

    def test_weights_of_the_wrong_shape_are_rejected(self):
        # weights that would broadcast against the (3, 2) cells still fail
        item = ItemParams(ModelKind.BINARY, np.array([0.2]), np.array([1.0]))
        design = np.array([[-1.0], [0.0], [1.0]])
        for weights in (np.ones((3, 1)), np.ones((1, 2)), np.ones((3, 3)), np.ones(2)):
            for fn in (soft_loglik, soft_grad_hess):
                with pytest.raises(ValueError, match=r"weights must be \(n_rows, n_categories\)"):
                    fn(design, weights, item, Link.LOGIT)

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
