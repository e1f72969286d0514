"""Each benchmark check passes on a real fit and fails on a perturbed one.

Tiny panels keep the module to a few seconds.  Run with
`python3 -m pytest bench/test_oracle.py` from the root of the checkout.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import ifa  # noqa: E402
import oracle  # noqa: E402
import panels as P  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as W  # noqa: E402


def passed(verdict: oracle.Verdict, name: str) -> bool:
    matches = [ok for check, ok, _ in verdict.results if check == name]
    assert matches, f"check {name} was not made"
    return all(matches)


def truth(panel):
    return W.truth_of(panel)


# ---------------------------------------------------------------------------
# marginal EM and stochastic engines, K = 1


@pytest.fixture(scope="module")
def marginal():
    panel = P.simulate("tiny", 500, 8, 1, 11)
    data = W.dataset(panel)
    em = ifa.fit_em_quadrature(data, 1, "binary", "logit")
    stem = ifa.fit_stem(data, 1, ifa.StemConfig(total_iters=30, burn_in=10, seed=3))
    return panel, em, W.fit_params("binary", em), W.fit_params("binary", stem)


def em_verdict(panel, em, fit, reported=None, trail=None):
    v = oracle.Verdict()
    own = oracle.check_marginal_em(
        v, "em", panel.responses, truth(panel), fit,
        em.marginal_loglik if reported is None else reported,
        em.info["loglik_trail"] if trail is None else trail, 21)
    return v, own


def test_em_checks_pass_on_the_fit(marginal):
    panel, em, fit, _ = marginal
    v, _ = em_verdict(panel, em, fit)
    assert v.ok, v.failures()


def test_loglik_match_fails_on_scaled_loadings(marginal):
    panel, em, fit, _ = marginal
    bad = fit.copy()
    bad.loadings *= 1.05
    v, _ = em_verdict(panel, em, bad)
    assert not passed(v, "em.loglik_matches")


def test_truth_dominance_fails_below_the_truth(marginal):
    panel, em, fit, _ = marginal
    bad = fit.copy()
    bad.loadings *= 0.5
    reported = oracle.marginal_loglik(panel.responses, bad, 21)
    v, _ = em_verdict(panel, em, bad, reported=reported)
    assert passed(v, "em.loglik_matches")
    assert not passed(v, "em.loglik_at_least_truth")


def test_trail_fails_on_a_lowered_entry(marginal):
    panel, em, fit, _ = marginal
    trail = np.array(em.info["loglik_trail"], dtype=float)
    rounding = trail.copy()
    rounding[-1] = rounding[-2] - 10 * oracle.EPS * abs(rounding[-2])
    v, _ = em_verdict(panel, em, fit, trail=rounding)
    assert passed(v, "em.trail_non_decreasing")
    trail[2] = trail[1] - 0.01
    v, _ = em_verdict(panel, em, fit, trail=trail)
    assert not passed(v, "em.trail_non_decreasing")


def stochastic_verdict(panel, fit, em_fit, em_own):
    v = oracle.Verdict()
    oracle.check_stochastic(v, "stem", panel.responses, fit, em_fit, em_own,
                            W.STOCHASTIC_MAX_GAP, 21, W.EM_TOL)
    return v


def test_stochastic_checks_pass_on_the_fit(marginal):
    panel, em, fit, stem = marginal
    _, own = em_verdict(panel, em, fit)
    assert stochastic_verdict(panel, stem, fit, own).ok


def test_gap_fails_on_a_shifted_intercept(marginal):
    panel, em, fit, stem = marginal
    _, own = em_verdict(panel, em, fit)
    bad = stem.copy()
    bad.intercepts[3] += 2 * W.STOCHASTIC_MAX_GAP
    assert not passed(stochastic_verdict(panel, bad, fit, own), "stem.gap_to_em")


def test_not_above_em_fails_when_em_is_short_of_the_maximum(marginal):
    panel, em, fit, stem = marginal
    short = fit.copy()
    short.loadings *= 0.97
    short_own = oracle.marginal_loglik(panel.responses, short, 21)
    v = stochastic_verdict(panel, fit, short, short_own)
    assert passed(v, "stem.gap_to_em")
    assert not passed(v, "stem.not_above_em")


# ---------------------------------------------------------------------------
# ordinal K = 3 structure, likelihood and probability checks


@pytest.fixture(scope="module")
def ordinal():
    q = P.simple_structure([3, 3, 3])
    panel = P.simulate("tiny", 400, 9, 3, 12, model="graded", categories=4, q=q,
                       correlation=P.equicorrelation(3, 0.3))
    em = ifa.fit_em_quadrature(W.dataset(panel), 3, "graded", "logit",
                               ifa.EmConfig(points_per_dim=7), q=q)
    return panel, em, W.fit_params("graded", em)


def structure_verdict(fit, q):
    v = oracle.Verdict()
    oracle.check_q_zeros(v, "em", fit, q)
    oracle.check_thresholds(v, "em", fit)
    oracle.check_correlation(v, "em", fit)
    return v


def test_ordinal_checks_pass_on_the_fit(ordinal):
    panel, em, fit = ordinal
    v = structure_verdict(fit, panel.q)
    oracle.check_marginal_em(v, "em", panel.responses, truth(panel), fit, em.marginal_loglik,
                             em.info["loglik_trail"], 7)
    assert v.ok, v.failures()


def test_k3_loglik_match_fails_on_a_changed_correlation(ordinal):
    panel, em, fit = ordinal
    bad = fit.copy()
    bad.correlation = P.equicorrelation(3, 0.6)
    v = oracle.Verdict()
    oracle.check_marginal_em(v, "em", panel.responses, truth(panel), bad, em.marginal_loglik,
                             em.info["loglik_trail"], 7)
    assert not passed(v, "em.loglik_matches")


def test_q_zero_fails_at_0_01(ordinal):
    panel, _, fit = ordinal
    bad = fit.copy()
    bad.loadings[0, 1] = 0.01
    assert not passed(structure_verdict(bad, panel.q), "em.q_zeros_exact")


def test_threshold_order_fails_on_swapped_thresholds(ordinal):
    panel, _, fit = ordinal
    bad = fit.copy()
    bad.intercepts[4, [0, 2]] = bad.intercepts[4, [2, 0]]
    assert not passed(structure_verdict(bad, panel.q), "em.thresholds_ordered")


def test_correlation_checks_fail(ordinal):
    panel, _, fit = ordinal
    off_diagonal = fit.copy()
    off_diagonal.correlation[1, 1] = 1.0 + 1e-12
    assert not passed(structure_verdict(off_diagonal, panel.q), "em.corr_unit_diagonal")
    indefinite = fit.copy()
    indefinite.correlation = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert not passed(structure_verdict(indefinite, panel.q), "em.corr_positive_definite")


def test_prob_mse_passes_at_truth_and_fails_on_reversed_items(ordinal):
    panel, _, _ = ordinal
    good = truth(panel)
    v = oracle.Verdict()
    oracle.check_prob_mse(v, "stem", panel.thetas, good, good, "probit", W.STEM_PROB_MSE)
    assert v.ok
    bad = good.copy()
    bad.loadings = bad.loadings[::-1].copy()
    bad.intercepts = bad.intercepts[::-1].copy()
    oracle.check_prob_mse(v, "stem", panel.thetas, good, bad, "probit", W.STEM_PROB_MSE)
    assert not passed(v, "stem.prob_mse")


# ---------------------------------------------------------------------------
# joint likelihood, K = 3


@pytest.fixture(scope="module")
def joint():
    q = P.simple_structure([5, 5, 5])
    panel = P.simulate("tiny", 400, 15, 3, 13, q=q)
    data = W.dataset(panel)
    config = ifa.CjmleConfig(c_radius=3.0)
    fit = ifa.fit_cjmle(data, 3, config, q=q)
    s_thetas, s_items = ifa.spectral_start(data, 3, "binary", "logit", q)
    start = oracle.start_loglik(panel.responses, s_thetas, oracle.params_of("binary", s_items),
                                3.0)
    return panel, fit, W.fit_params("binary", fit), start


def joint_verdict(panel, thetas, fit, trajectory, start):
    v = oracle.Verdict()
    oracle.check_joint(v, "cjmle", panel.responses, thetas, fit, trajectory, start)
    oracle.check_q_zeros(v, "cjmle", fit, panel.q)
    return v


def test_joint_checks_pass_on_the_fit(joint):
    panel, fit, p, start = joint
    v = joint_verdict(panel, fit.thetas, p, fit.trajectory, start)
    assert v.ok, v.failures()


def test_joint_loglik_fails_on_scaled_loadings(joint):
    panel, fit, p, start = joint
    bad = p.copy()
    bad.loadings *= 1.05
    v = joint_verdict(panel, fit.thetas, bad, fit.trajectory, start)
    assert not passed(v, "cjmle.loglik_matches")


def test_joint_trajectory_fails_on_a_lowered_entry(joint):
    panel, fit, p, start = joint
    trajectory = np.array(fit.trajectory, dtype=float)
    assert trajectory.size >= 3
    trajectory[1] = trajectory[0] - 1.0
    v = joint_verdict(panel, fit.thetas, p, trajectory, start)
    assert not passed(v, "cjmle.trajectory_non_decreasing")


def test_joint_end_fails_below_the_start(joint):
    panel, fit, p, _ = joint
    v = joint_verdict(panel, fit.thetas, p, fit.trajectory, fit.trajectory[-1] + 1.0)
    assert not passed(v, "cjmle.above_start")


def test_scores_standardized_fails_on_shifted_scores(joint):
    panel, fit, p, start = joint
    v = joint_verdict(panel, fit.thetas + 1e-3, p, fit.trajectory, start)
    assert not passed(v, "cjmle.scores_standardized")


def test_joint_q_zero_fails_at_0_01(joint):
    panel, fit, p, start = joint
    bad = p.copy()
    bad.loadings[0, 2] = 0.01
    assert not passed(joint_verdict(panel, fit.thetas, bad, fit.trajectory, start),
                      "cjmle.q_zeros_exact")


def test_recovery_bounds_fail_on_shuffled_loadings(joint):
    # a 15-item panel is too short for the joint estimate's loading scale, so
    # the unaligned loss is exercised on the truth plus small noise
    panel, _, p, _ = joint
    rng = np.random.default_rng(0)
    near = panel.loadings + 0.05 * rng.standard_normal(panel.loadings.shape) * panel.q
    v = oracle.Verdict()
    oracle.check_aligned_loss(v, "x", p.loadings, panel.loadings, W.CJMLE_ALIGNED_LOSS)
    oracle.check_q_loss(v, "y", near, panel.loadings, W.CJMLE_Q_LOSS)
    assert v.ok, v.failures()
    order = rng.permutation(p.loadings.shape[0])
    oracle.check_aligned_loss(v, "x", p.loadings[order], panel.loadings, W.CJMLE_ALIGNED_LOSS)
    oracle.check_q_loss(v, "y", near[order], panel.loadings, W.CJMLE_Q_LOSS)
    assert not passed(v, "x.aligned_loading_loss")
    assert not passed(v, "y.q_loading_loss")


# ---------------------------------------------------------------------------
# tracing leaves the package as it found it


def test_tracer_counts_and_restores():
    import ifa.em

    original = ifa.em._estep_tables
    data = W.dataset(P.simulate("tiny", 200, 6, 1, 14))
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        fit = tracer.wrap("fit.em", ifa.fit_em_quadrature)(data, 1, "binary", "logit")
    finally:
        tracer.uninstall()
    assert ifa.em._estep_tables is original
    metrics = tr.layer_metrics(tracer)
    assert metrics["em.estep_calls"] == fit.n_iters + 1
    assert metrics["em.estep_cell_nodes"] == (fit.n_iters + 1) * 200 * 6 * 21
    assert metrics["itemfit.fits"] == 6 * fit.n_iters
    assert metrics["itemfit.objective_evals"] >= metrics["itemfit.fits"]
    roots = [s for s in tracer.spans if s[4] == 0]
    assert [s[1] for s in roots] == ["fit.em"]
