"""The fit entry points' input rules, checked once before any work.

R1: the model and link suit the panel's category counts (binary needs 2
categories on every item, gpc the logit link).  R2: k >= 1 and a Q matrix
with one 0/1 row per item and one column per factor.  R3: start items hold
one ItemParams per panel item with k loadings and the item's category
count, and CJMLE start scores are (N, k).  A refused call raises ValueError
before the first E-step, draw, block update or decomposition, which the
work stubs below would turn into an AssertionError.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ifa.cjmle
import ifa.em
import ifa.start
from ifa import (
    CjmleConfig,
    Dataset,
    EmConfig,
    FactorConfig,
    ItemParams,
    McemConfig,
    ModelKind,
    SaConfig,
    SimSpec,
    StemConfig,
    fit_cjmle,
    fit_em_quadrature,
    fit_mcem,
    fit_sa_mcmc,
    fit_stem,
    log_marginal_likelihood,
    simulate,
    spectral_start,
)

# the first piece of work each entry point does after its checks
WORK = [
    (ifa.em, "_estep_tables"),
    (ifa.em, "default_items"),
    (ifa.em, "spectral_start"),
    (ifa.cjmle, "spectral_start"),
    (ifa.cjmle, "log_joint_likelihood"),
    (ifa.start, "fit_svd_binary"),
    (ifa.start, "fit_svd_ordinal"),
]


@pytest.fixture
def no_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work started before the inputs were refused")

    for owner, name in WORK:
        monkeypatch.setattr(owner, name, work)


@pytest.fixture(scope="module")
def graded():
    """An 8-item panel of 3-category graded items and its true items."""
    data, _, items = simulate(SimSpec(300, 8, k=1, model="graded", categories=3, seed=4))
    return data, items


FITS = {
    "em": lambda data, **kw: fit_em_quadrature(data, 1, config=EmConfig(max_iters=1), **kw),
    "mcem": lambda data, **kw: fit_mcem(data, 1, McemConfig(max_iters=1), **kw),
    "stem": lambda data, **kw: fit_stem(data, 1, StemConfig(2, 1), **kw),
    "sa": lambda data, **kw: fit_sa_mcmc(data, 1, SaConfig(2, 1), **kw),
    "cjmle": lambda data, **kw: fit_cjmle(data, 1, CjmleConfig(max_iters=1), **kw),
    "svd": lambda data, **kw: spectral_start(data, 1, kw["model"], "logit"),
}


@pytest.mark.parametrize("fit", FITS)
def test_binary_model_on_three_categories_refused(graded, no_work, fit):
    with pytest.raises(ValueError, match="categories"):
        FITS[fit](graded[0], model="binary")


@pytest.mark.parametrize("count", [5, 10])
def test_em_start_items_must_cover_the_panel(graded, no_work, count):
    data, items = graded
    start = (items * 2)[:count]
    with pytest.raises(ValueError, match=f"{count} items given for a panel of 8"):
        fit_em_quadrature(data, 1, init_items=start)


def test_em_start_items_must_match_categories_and_k(graded, no_work):
    data, items = graded
    binary = [ItemParams(ModelKind.BINARY, [0.0], [1.0])] + items[1:]
    with pytest.raises(ValueError, match="item 0 has 2 categories, not 3"):
        fit_em_quadrature(data, 1, init_items=binary)
    wide = [ItemParams(it.kind, it.intercepts, np.append(it.loadings, 0.0)) for it in items]
    with pytest.raises(ValueError, match="2 loadings"):
        fit_em_quadrature(data, 2, init_items=items)
    with pytest.raises(ValueError, match="1 loadings"):
        fit_em_quadrature(data, 1, init_items=wide)


def test_cjmle_start_scores_must_be_n_by_k(graded, no_work):
    data, items = graded
    with pytest.raises(ValueError, match=r"\(N, k\) = \(300, 1\)"):
        fit_cjmle(data, 1, init=(np.zeros((300, 2)), items))


def test_log_marginal_likelihood_needs_every_item(graded, no_work):
    data, items = graded
    with pytest.raises(ValueError, match="7 items given for a panel of 8"):
        log_marginal_likelihood(data, items[:7], FactorConfig(1))
    with pytest.raises(ValueError, match="7 items given"):  # a bare response matrix
        log_marginal_likelihood(data.responses, items[:7], FactorConfig(1))


@pytest.mark.parametrize(
    "q, message",
    [(np.full((8, 1), 2), "0 or 1"), (np.ones((7, 1), dtype=int), "one row per item")],
    ids=["twos", "short"],
)
def test_spectral_start_checks_q(graded, no_work, q, message):
    with pytest.raises(ValueError, match=message):
        spectral_start(graded[0], 1, None, "logit", q)


@pytest.mark.parametrize("fit", ["em", "stem", "cjmle", "svd"])
def test_k_below_one_refused(graded, no_work, fit):
    call = {
        "em": lambda: fit_em_quadrature(graded[0], 0),
        "stem": lambda: fit_stem(graded[0], 0),
        "cjmle": lambda: fit_cjmle(graded[0], 0),
        "svd": lambda: spectral_start(graded[0], 0, None, "logit"),
    }[fit]
    with pytest.raises(ValueError, match="k must be a positive integer"):
        call()


def test_gpc_probit_refused_by_fits_and_simspec(graded, no_work):
    with pytest.raises(ValueError, match="logit"):
        SimSpec(100, 5, model="gpc", link="probit", categories=3)
    for fit in ("em", "stem", "cjmle"):
        with pytest.raises(ValueError, match="logit"):
            FITS[fit](graded[0], model="gpc", link="probit")


def test_model_none_resolves_from_categories():
    binary, _, _ = simulate(SimSpec(60, 4, seed=1))
    graded, _, _ = simulate(SimSpec(60, 4, model=None, categories=3, seed=1))
    assert spectral_start(binary, 1, None, "logit")[1][0].kind is ModelKind.BINARY
    assert spectral_start(graded, 1, None, "logit")[1][0].kind is ModelKind.GRADED


# ---------------------------------------------------------------------------
# property: every fit returns one item per panel column or raises ValueError


@st.composite
def fit_inputs(draw):
    """A seeded panel with drawn category counts (all 2 half the time, and
    maybe with unobserved top categories) and drawn fit inputs, valid ones
    first: Hypothesis draws the first of each choice most often."""
    n_items = draw(st.integers(3, 6))
    binary = draw(st.booleans())
    declared = np.array(draw(st.lists(st.integers(2, 2 if binary else 4),
                                      min_size=n_items, max_size=n_items)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    responses = rng.integers(0, declared, size=(draw(st.integers(8, 40)), n_items))
    k = draw(st.sampled_from([1, 2, 3, 0]))
    q = None
    if draw(st.booleans()):
        rows = n_items + draw(st.sampled_from([0, -1, 1]))
        cols = max(k, 1) + draw(st.sampled_from([0, -1, 1]))
        q = rng.integers(0, draw(st.sampled_from([2, 3])), size=(rows, cols))
    return {
        "data": Dataset(responses, declared),
        "k": k,
        "model": draw(st.sampled_from([None, "graded", "gpc", "binary"])),
        "link": draw(st.sampled_from(["logit", "probit"])),
        "q": q,
        "n_start": draw(st.sampled_from([None, n_items, n_items - 1, n_items + 1])),
    }


def start_items(data, k, n_start, model):
    """n_start zero-loading items of the panel's category counts, cycled."""
    kind = ModelKind.GRADED if model in (None, "binary") else ModelKind(model)
    cats = np.resize(data.categories, n_start)
    return [ItemParams(kind, np.linspace(-1.0, 1.0, c - 1), np.zeros(max(k, 1))) for c in cats]


def run_fit(estimator, inputs):
    data, k, q = inputs["data"], inputs["k"], inputs["q"]
    model, link, n_start = inputs["model"], inputs["link"], inputs["n_start"]
    items = None if n_start is None else start_items(data, k, n_start, model)
    kw = {"model": model, "link": link, "q": q}
    if estimator == "em":
        config = EmConfig(points_per_dim=3, max_iters=2)
        return fit_em_quadrature(data, k, config=config, init_items=items, **kw).items
    if estimator == "mcem":
        return fit_mcem(data, k, McemConfig(max_iters=1, draws_start=1, draws_cap=1), **kw).items
    if estimator == "stem":
        return fit_stem(data, k, StemConfig(2, 1), **kw).items
    if estimator == "sa":
        return fit_sa_mcmc(data, k, SaConfig(2, 1), **kw).items
    if estimator == "cjmle":
        init = None if items is None else (np.zeros((data.n_persons, max(k, 1))), items)
        return fit_cjmle(data, k, CjmleConfig(max_iters=2), init=init, **kw).items
    return spectral_start(data, k, model, link, q)[1]


@pytest.mark.parametrize("estimator", ["em", "mcem", "stem", "sa", "cjmle", "svd"])
@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow])
@given(inputs=fit_inputs())
def test_fits_return_every_item_or_raise_value_error(estimator, inputs):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", category=UserWarning)
        try:
            items = run_fit(estimator, inputs)
        except ValueError:
            return
    assert len(items) == inputs["data"].n_items
