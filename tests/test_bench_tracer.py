"""The benchmark's tracer against the package names it patches.

`bench/tracer.py` wraps module attributes of `ifa` by name, so renaming or
removing one of them makes `bench/run.py --trace 1` fail with an
AttributeError.  These tests install the tracer around tiny CJMLE, MCEM, SA
and probit StEM fits and check its counts and that uninstalling restores
every attribute.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import ifa.cjmle
import ifa.em
import ifa.itemfit
import ifa.models
import ifa.sampler
import ifa.start
from ifa.simulate import SimSpec, simulate

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
OWNERS = (
    ifa.cjmle,
    ifa.em,
    ifa.itemfit,
    ifa.models,
    ifa.sampler,
    ifa.start,
    ifa.sampler.GibbsEngine,
    ifa.sampler.MhEngine,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_restored(before):
    for owner, attrs in zip(OWNERS, before):
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name} not restored"


@pytest.mark.parametrize("model, categories", [("binary", 2), ("graded", 3)])
def test_tracer_counts_cjmle_blocks_and_restores(model, categories):
    tr = load_tracer()
    n_items = 8
    data, _, _ = simulate(
        SimSpec(150, n_items, k=1, model=model, categories=categories, seed=5)
    )
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        for name in ("fit_item", "person_logliks", "log_joint_likelihood",
                     "update_person_block", "update_item_block"):
            assert vars(ifa.cjmle)[name] is not before[0][name]
        fit = ifa.cjmle.fit_cjmle(data, 1, model=model)
    finally:
        tracer.uninstall()
    assert_restored(before)
    calls = tracer.calls()
    assert calls["cjmle.person_block"] == fit.n_iters
    assert calls["cjmle.item_block"] == fit.n_iters
    assert calls["cjmle.joint_loglik"] == fit.n_iters + 1
    # binary items are one batched solve; graded items still call fit_item
    per_item = 0 if model == "binary" else n_items
    assert calls["itemfit.fit_item"] == per_item * fit.n_iters


def test_tracer_counts_sampled_engines_and_restores():
    tr = load_tracer()
    n_items = 6
    data, _, _ = simulate(SimSpec(120, n_items, k=1, seed=6))
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        mcem = ifa.em.fit_mcem(data, 1, ifa.em.McemConfig(max_iters=3, draws_start=2, seed=1))
        after_mcem = dict(tracer.calls())
        sa = ifa.em.fit_sa_mcmc(data, 1, ifa.em.SaConfig(total_iters=4, warmup=1, seed=1))
    finally:
        tracer.uninstall()
    assert_restored(before)
    calls = tracer.calls()
    assert after_mcem["em.mstep"] == mcem.n_iters
    assert after_mcem["itemfit.fit_item"] == n_items * mcem.n_iters
    # SA fits no item to convergence: one gradient and information per item per iteration
    assert calls["em.mstep"] == mcem.n_iters
    assert calls["itemfit.fit_item"] == n_items * mcem.n_iters
    grad_hess = calls["itemfit.grad_hess"] - after_mcem.get("itemfit.grad_hess", 0)
    assert grad_hess == n_items * sa.n_iters
    # marginal_k1's models.person_logliks_* metrics: SA's MH chains take one
    # log-posterior at each iteration's chain refresh and one per MH step
    mh_steps = calls["sampler.mh_step"] - after_mcem.get("sampler.mh_step", 0)
    assert mh_steps == sa.n_iters * ifa.em._SWEEPS_PER_DRAW
    logliks = calls["models.person_logliks"] - after_mcem.get("models.person_logliks", 0)
    assert logliks == sa.n_iters + mh_steps
    # MCEM hands each M-step the per-person indicators, not copies tiled over its draws
    assert tracer.maxima["em.mstep_weight_mb"] == data.n_persons * n_items * 2 * 8 / 2**20


def test_tracer_counts_gibbs_sweeps_and_restores():
    # ordinal_k3's sampler.gibbs_sweeps and sampler.person_updates: one fit
    # keeps one Gibbs engine, and every sweep of it is counted
    tr = load_tracer()
    data, _, _ = simulate(SimSpec(90, 6, k=1, link="probit", missing_rate=0.1, seed=7))
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        stem = ifa.em.fit_stem(data, 1, ifa.em.StemConfig(total_iters=4, burn_in=1, seed=2),
                               link="probit")
    finally:
        tracer.uninstall()
    assert_restored(before)
    calls = tracer.calls()
    sweeps = stem.n_iters * ifa.em._SWEEPS_PER_DRAW
    assert calls["sampler.gibbs_sweep"] == sweeps
    assert tracer.counts["sampler.person_updates"] == sweeps * data.n_persons
    assert calls["sampler.mh_step"] == 0
