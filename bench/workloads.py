"""The benchmark's workloads: panels, fits, warm-up and checks.

A workload pass runs a fixed list of fits (operations).  Fits that stop on a
tolerance (quadrature EM, CJMLE) are timed as `tol_fit_s`; fits with a fixed
iteration or draw budget (StEM, SA, MCEM) and the one-shot spectral start are
timed as `budget_fit_s`.  The spectral start, which takes a tenth of a
second, repeats within a pass and counts with its median, so a single slow
call does not decide the figure.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import ifa
import oracle
import panels as P

TOL_ESTIMATORS = ("em", "cjmle")
ESTIMATORS = ("em", "mcem", "stem", "sa", "cjmle", "svd")

# stated bounds of the checks (see README "Checks")
STOCHASTIC_MAX_GAP = 0.2        # marginal_k1: max-norm gap of StEM/SA/MCEM to EM
STEM_PROB_MSE = 0.001           # ordinal_k3: probit StEM at the true scores
CJMLE_ALIGNED_LOSS = 0.05       # joint_k3 exploratory panels
CJMLE_Q_LOSS = 0.08             # joint_k3 confirmatory panel
SVD_ALIGNED_LOSS = 0.05         # spectral start, exploratory panels

EM_TOL = ifa.EmConfig().tol

# Item parameters are drawn once from this seed (one set per panel), so a
# workload is a fixed model and --seed draws its scores, responses and the
# samplers' streams.  With parameters redrawn per seed, the iterations a
# tolerance-stopped fit needs swing widely (CJMLE on the confirmatory panel:
# 16 to 44), which buries a 10% change in run-to-run spread.
PARAM_SEED = 20260419


@dataclass
class Op:
    """One fit of one estimator on one panel, repeated `repeats` times a pass."""

    estimator: str
    panel: str
    call: Callable[[], object]
    repeats: int = 1

    @property
    def key(self) -> str:
        return f"{self.estimator}:{self.panel}"


@dataclass
class Outcome:
    op: Op
    seconds: list = field(default_factory=list)
    results: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def time(self) -> float:
        return float(np.median(self.seconds)) if self.seconds else 0.0


def dataset(panel: P.Panel) -> ifa.Dataset:
    """What the package receives: the responses and category counts only."""
    return ifa.Dataset(panel.responses.copy(), panel.categories.copy())


def sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def truth_of(panel: P.Panel) -> oracle.Params:
    return oracle.Params(panel.model, panel.intercepts, panel.loadings, panel.correlation)


def fit_params(model: str, fit) -> oracle.Params:
    return oracle.params_of(model, fit.items, getattr(fit, "correlation", None))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.panels = self.make_panels(seed)
        self.data = {name: dataset(p) for name, p in self.panels.items()}

    def make_panels(self, seed: int) -> dict:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One fit of every estimator the workload runs, on its own panels with
        a budget of one or two iterations.

        The first fit at a given array size pays one-time costs (MCEM ran 55%
        slower on the first pass of a process than on later ones); warming
        with the measured sizes keeps that cost in set-up, out of the passes.
        """
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, results: dict) -> oracle.Verdict:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class MarginalK1(Workload):
    """Criterion-05 panel: four marginal engines, K = 1 binary logit.

    EM at K = 1 takes about a fifth of a second, so it also runs on five
    more panels of the same design; their sum is steadier across seeds than
    one fit.
    """

    name = "marginal_k1"
    em_panels = tuple(f"p2000x20_{i}" for i in range(6))

    def make_panels(self, seed):
        return {name: P.simulate(name, 2000, 20, 1, [seed, 1, i],
                                 param_seed=[PARAM_SEED, 1, i])
                for i, name in enumerate(self.em_panels)}

    def warm_up(self):
        data = self.data["p2000x20_0"]
        ifa.fit_em_quadrature(data, 1, "binary", "logit", ifa.EmConfig(max_iters=1))
        ifa.fit_stem(data, 1, ifa.StemConfig(total_iters=2, burn_in=1, seed=1))
        ifa.fit_sa_mcmc(data, 1, ifa.SaConfig(total_iters=2, warmup=1, seed=1))
        most = self.mcem_config(1).draws_cap
        ifa.fit_mcem(data, 1, ifa.McemConfig(max_iters=1, draws_start=most, draws_cap=most))

    @staticmethod
    def mcem_config(seed):
        return ifa.McemConfig(max_iters=4, draws_start=5, draws_cap=14, seed=seed)

    def ops(self):
        data = self.data["p2000x20_0"]
        seed = sub_seed(self.seed, 1, 99)
        stem = ifa.StemConfig(total_iters=40, burn_in=15, seed=seed)
        sa = ifa.SaConfig(total_iters=60, warmup=20, seed=seed)
        mcem = self.mcem_config(seed)
        out = [Op("em", name,
                  lambda d=self.data[name]: ifa.fit_em_quadrature(d, 1, "binary", "logit"))
               for name in self.em_panels]
        return out + [
            Op("stem", "p2000x20_0", lambda: ifa.fit_stem(data, 1, stem)),
            Op("sa", "p2000x20_0", lambda: ifa.fit_sa_mcmc(data, 1, sa)),
            Op("mcem", "p2000x20_0", lambda: ifa.fit_mcem(data, 1, mcem)),
        ]

    def check(self, results):
        v = oracle.Verdict()
        points = ifa.EmConfig().points_per_dim
        own = {}
        for name in self.em_panels:
            em = results.get(f"em:{name}")
            if em is not None:
                panel = self.panels[name]
                own[name] = oracle.check_marginal_em(
                    v, f"em.{name}", panel.responses, truth_of(panel),
                    fit_params("binary", em), em.marginal_loglik, em.info["loglik_trail"],
                    points)
        if "p2000x20_0" not in own:
            return v
        em_fit = fit_params("binary", results["em:p2000x20_0"])
        for name in ("stem", "sa", "mcem"):
            fit = results.get(f"{name}:p2000x20_0")
            if fit is not None:
                oracle.check_stochastic(v, name, self.panels["p2000x20_0"].responses,
                                        fit_params("binary", fit), em_fit, own["p2000x20_0"],
                                        STOCHASTIC_MAX_GAP, points, EM_TOL)
        return v


class OrdinalK3(Workload):
    """Graded K = 3 confirmatory panel: quadrature EM (logit) and StEM (probit twin)."""

    name = "ordinal_k3"
    points = 11  # 11^3 = 1331 nodes

    def make_panels(self, seed):
        q = P.simple_structure([7, 7, 6])
        logit = P.simulate("graded_logit", 2000, 20, 3, [seed, 2, 1], model="graded",
                           categories=4, q=q, correlation=P.equicorrelation(3, 0.3),
                           param_seed=[PARAM_SEED, 2, 1])
        return {"graded_logit": logit,
                "graded_probit": P.twin(logit, "graded_probit", "probit", [seed, 2, 2])}

    def warm_up(self):
        q = self.panels["graded_logit"].q
        ifa.fit_em_quadrature(self.data["graded_logit"], 3, "graded", "logit",
                              ifa.EmConfig(points_per_dim=self.points, max_iters=1), q=q)
        stem = ifa.StemConfig(total_iters=2, burn_in=1, seed=1)
        ifa.fit_stem(self.data["graded_probit"], 3, stem, q=q, model="graded", link="probit")

    def ops(self):
        q = self.panels["graded_logit"].q
        logit, probit = self.data["graded_logit"], self.data["graded_probit"]
        stem_cfg = ifa.StemConfig(total_iters=12, burn_in=4, seed=sub_seed(self.seed, 2, 3))
        em_cfg = ifa.EmConfig(points_per_dim=self.points)
        return [
            Op("em", "graded_logit",
               lambda: ifa.fit_em_quadrature(logit, 3, "graded", "logit", em_cfg, q=q)),
            Op("stem", "graded_probit",
               lambda: ifa.fit_stem(probit, 3, stem_cfg, q=q, model="graded", link="probit")),
        ]

    def check(self, results):
        v = oracle.Verdict()
        logit = self.panels["graded_logit"]
        em = results.get("em:graded_logit")
        if em is not None:
            fit = fit_params("graded", em)
            oracle.check_q_zeros(v, "em", fit, logit.q)
            oracle.check_thresholds(v, "em", fit)
            oracle.check_correlation(v, "em", fit)
            oracle.check_marginal_em(v, "em", logit.responses, truth_of(logit), fit,
                                     em.marginal_loglik, em.info["loglik_trail"], self.points)
        stem = results.get("stem:graded_probit")
        if stem is not None:
            probit = self.panels["graded_probit"]
            fit = fit_params("graded", stem)
            oracle.check_q_zeros(v, "stem", fit, probit.q)
            oracle.check_thresholds(v, "stem", fit)
            oracle.check_correlation(v, "stem", fit)
            oracle.check_prob_mse(v, "stem", probit.thetas, truth_of(probit), fit, "probit",
                                  STEM_PROB_MSE)
        return v


class JointK3(Workload):
    """CJMLE on the criterion-06 and criterion-09 panels, spectral start alone."""

    name = "joint_k3"
    svd_repeats = 5
    conf_radius = 3.0  # criterion 09's C

    def make_panels(self, seed):
        q = P.simple_structure([20, 20, 20])
        return {
            "p2000x100": P.simulate("p2000x100", 2000, 100, 3, [seed, 3, 1],
                                    param_seed=[PARAM_SEED, 3, 1]),
            "p4000x200": P.simulate("p4000x200", 4000, 200, 3, [seed, 3, 2],
                                    param_seed=[PARAM_SEED, 3, 2]),
            "conf4000x60": P.simulate("conf4000x60", 4000, 60, 3, [seed, 3, 3], q=q,
                                      param_seed=[PARAM_SEED, 3, 3]),
        }

    def warm_up(self):
        one = ifa.CjmleConfig(max_iters=1)
        ifa.fit_cjmle(self.data["p2000x100"], 3, one)
        ifa.fit_cjmle(self.data["p4000x200"], 3, one)
        conf_one = ifa.CjmleConfig(c_radius=self.conf_radius, max_iters=1)
        ifa.fit_cjmle(self.data["conf4000x60"], 3, conf_one, q=self.panels["conf4000x60"].q)

    def ops(self):
        d = self.data
        conf_cfg = ifa.CjmleConfig(c_radius=self.conf_radius)
        q = self.panels["conf4000x60"].q
        out = []
        for name in ("p2000x100", "p4000x200"):
            out.append(Op("cjmle", name, lambda data=d[name]: ifa.fit_cjmle(data, 3)))
        out.append(Op("cjmle", "conf4000x60",
                      lambda: ifa.fit_cjmle(d["conf4000x60"], 3, conf_cfg, q=q)))
        for name in ("p2000x100", "p4000x200"):
            out.append(Op("svd", name,
                          lambda data=d[name]: ifa.spectral_start(data, 3, "binary", "logit"),
                          self.svd_repeats))
        return out

    def check(self, results):
        v = oracle.Verdict()
        default_radius = ifa.CjmleConfig().radius(3)
        for name in ("p2000x100", "p4000x200", "conf4000x60"):
            panel = self.panels[name]
            fit = results.get(f"cjmle:{name}")
            if fit is None:
                continue
            conf = panel.q is not None
            start = results.get(f"svd:{name}")
            if start is None:  # the confirmatory start is not a timed fit
                start = ifa.spectral_start(self.data[name], 3, "binary", "logit", panel.q)
            s_thetas, s_items = start
            start_ll = oracle.start_loglik(panel.responses, s_thetas,
                                           oracle.params_of("binary", s_items),
                                           self.conf_radius if conf else default_radius)
            p = fit_params("binary", fit)
            tag = f"cjmle.{name}"
            oracle.check_joint(v, tag, panel.responses, fit.thetas, p, fit.trajectory, start_ll)
            if conf:
                oracle.check_q_zeros(v, tag, p, panel.q)
                oracle.check_q_loss(v, tag, p.loadings, panel.loadings, CJMLE_Q_LOSS)
            else:
                oracle.check_aligned_loss(v, tag, p.loadings, panel.loadings, CJMLE_ALIGNED_LOSS)
        for name in ("p2000x100", "p4000x200"):
            start = results.get(f"svd:{name}")
            if start is not None:
                oracle.check_aligned_loss(v, f"svd.{name}",
                                          oracle.params_of("binary", start[1]).loadings,
                                          self.panels[name].loadings, SVD_ALIGNED_LOSS)
        return v


WORKLOADS = {w.name: w for w in (MarginalK1, OrdinalK3, JointK3)}


# ---------------------------------------------------------------------------


def run_pass(ops: list[Op], tracer=None) -> list[Outcome]:
    """Every op once (or `repeats` times); a fit that raises counts as failed."""
    out = []
    for op in ops:
        outcome = Outcome(op)
        call = op.call if tracer is None else tracer.wrap(f"fit.{op.estimator}", op.call)
        for _ in range(op.repeats):
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed fit is an outcome, not a crash
                outcome.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
                continue
            outcome.seconds.append(time.perf_counter() - start)
            outcome.results.append(result)
        out.append(outcome)
    return out


def pass_times(outcomes: list[Outcome]) -> dict[str, float]:
    """Seconds per estimator, summed over panels (median over repeats)."""
    times = dict.fromkeys(ESTIMATORS, 0.0)
    for o in outcomes:
        times[o.op.estimator] += o.time
    return times


def fingerprint(result) -> bytes:
    """Bytes of every array a fit returns, to spot repeats with equal output."""
    parts = []
    if isinstance(result, tuple):  # spectral start: (thetas, items)
        thetas, items = result
        parts.append(np.asarray(thetas))
    else:
        items = result.items
        for attr in ("thetas", "correlation", "trajectory"):
            if hasattr(result, attr):
                parts.append(np.asarray(getattr(result, attr)))
        parts.append(np.asarray([getattr(result, "marginal_loglik", None) or 0.0]))
    for it in items:
        parts += [it.intercepts, it.loadings]
    return b"".join(np.ascontiguousarray(p, dtype=float).tobytes() for p in parts)


def verify(workload: Workload, passes: list[list[Outcome]]) -> list:
    """Check each distinct set of outputs once; returns every check's result."""
    results_out = []
    seen = set()
    for outcomes in passes:
        depth = max((len(o.results) for o in outcomes), default=0)
        for r in range(depth):
            results = {o.op.key: o.results[min(r, len(o.results) - 1)]
                       for o in outcomes if o.results}
            key = tuple(sorted((k, fingerprint(res)) for k, res in results.items()))
            if key in seen:
                continue
            seen.add(key)
            results_out += workload.check(results).results
    return results_out
