"""Spans and counters recorded around the package's layer functions.

The tracer swaps module attributes of `ifa` for timing wrappers while it is
installed and restores them on uninstall, so the package itself carries no
tracing code.  A wrapper only sees calls that go through the attribute it
replaced: a module-global lookup at call time (`_estep_tables` inside
`fit_em_quadrature`) or a name bound by `from .x import y` in the calling
module (`fit_item` in `ifa.em` and in `ifa.cjmle`).  Each span is
(id, name, start, end, parent id); spans stay in memory until `dump`.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_call=None):
        """Timing wrapper; on_call(args, kwargs, result) records counts."""

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, on_call=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def seconds(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for _, name, _, _, _ in self.spans:
            out[name] += 1
        return out

    def self_seconds(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            out[name] += end - start - child_time[span_id]
        return out

    def dump(self, path, meta) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "meta": meta,
                    "counts": dict(self.counts),
                    "maxima": dict(self.maxima),
                    "seconds": dict(self.seconds()),
                    "self_seconds": dict(self.self_seconds()),
                    "spans": [list(s) for s in self.spans],
                },
                fh,
            )


def install(tracer: Tracer):
    """Wrap every layer function the per-layer metrics read."""
    import ifa.cjmle
    import ifa.em
    import ifa.itemfit
    import ifa.models
    import ifa.sampler
    import ifa.start

    c, m = tracer.counts, tracer.maxima

    def estep(args, kwargs, result):
        responses, _, grid = args[:3]
        n, j = responses.shape
        c["em.estep_cell_nodes"] += n * j * grid.nodes.shape[0]

    def mstep(args, kwargs, result):
        weights = args[2]
        mib = sum(w.nbytes for w in weights) / 2**20
        m["em.mstep_weight_mb"] = max(m["em.mstep_weight_mb"], mib)

    def item_fit(args, kwargs, result):
        c["itemfit.newton_steps"] += result.n_steps
        c["itemfit.failed_fits"] += int(result.line_search_failed)
        c["itemfit.accepted_steps"] += result.n_steps - int(result.line_search_failed)

    def mh_step(args, kwargs, result):
        engine, thetas = args[0], args[1]
        c["sampler.person_updates"] += thetas.shape[0]
        c["sampler.mh_accept_sum"] += engine.last_rate

    def gibbs_sweep(args, kwargs, result):
        c["sampler.person_updates"] += args[1].shape[0]

    def person_block(args, kwargs, result):
        c["cjmle.flagged_rows"] += len(result[1])

    def item_block(args, kwargs, result):
        c["cjmle.flagged_items"] += len(result[1])

    tracer.patch(ifa.em, "_estep_tables", "em.estep", estep)
    tracer.patch(ifa.em, "_mstep_items", "em.mstep", mstep)
    for owner in (ifa.em, ifa.cjmle):
        tracer.patch(owner, "fit_item", "itemfit.fit_item", item_fit)
    tracer.patch(ifa.itemfit, "soft_loglik", "itemfit.objective")
    for owner in (ifa.itemfit, ifa.em):
        tracer.patch(owner, "internal_grad_hess", "itemfit.grad_hess")
    tracer.patch(ifa.sampler.MhEngine, "step", "sampler.mh_step", mh_step)
    tracer.patch(ifa.sampler.GibbsEngine, "sweep", "sampler.gibbs_sweep", gibbs_sweep)
    for owner in (ifa.models, ifa.sampler, ifa.cjmle):
        tracer.patch(owner, "person_logliks", "models.person_logliks")
    tracer.patch(ifa.cjmle, "update_person_block", "cjmle.person_block", person_block)
    tracer.patch(ifa.cjmle, "update_item_block", "cjmle.item_block", item_block)
    tracer.patch(ifa.cjmle, "log_joint_likelihood", "cjmle.joint_loglik")
    for attr in ("fit_svd_binary", "fit_svd_ordinal"):
        tracer.patch(ifa.start, attr, "spectral.fit")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values of one traced pass (0 where a layer was idle)."""
    s, n, c = tracer.seconds(), tracer.calls(), tracer.counts
    mh_steps = n["sampler.mh_step"]
    evals = n["itemfit.objective"]
    return {
        "em.estep_calls": n["em.estep"],
        "em.estep_s": s["em.estep"],
        "em.estep_cell_nodes": c["em.estep_cell_nodes"],
        "em.iters": n["em.mstep"],
        "em.mstep_s": s["em.mstep"],
        "em.mstep_weight_mb": tracer.maxima["em.mstep_weight_mb"],
        "itemfit.fits": n["itemfit.fit_item"],
        "itemfit.s": s["itemfit.fit_item"],
        "itemfit.newton_steps": c["itemfit.newton_steps"],
        "itemfit.objective_evals": evals,
        "itemfit.objective_s": s["itemfit.objective"],
        "itemfit.grad_hess_s": s["itemfit.grad_hess"],
        "itemfit.failed_fits": c["itemfit.failed_fits"],
        "itemfit.accepted_step_share": c["itemfit.accepted_steps"] / evals if evals else 0.0,
        "sampler.mh_steps": mh_steps,
        "sampler.mh_s": s["sampler.mh_step"],
        "sampler.mh_accept_rate": c["sampler.mh_accept_sum"] / mh_steps if mh_steps else 0.0,
        "sampler.gibbs_sweeps": n["sampler.gibbs_sweep"],
        "sampler.gibbs_s": s["sampler.gibbs_sweep"],
        "sampler.person_updates": c["sampler.person_updates"],
        "models.person_logliks_calls": n["models.person_logliks"],
        "models.person_logliks_s": s["models.person_logliks"],
        "cjmle.iters": n["cjmle.item_block"],
        "cjmle.person_block_s": s["cjmle.person_block"],
        "cjmle.item_block_s": s["cjmle.item_block"],
        "cjmle.joint_loglik_s": s["cjmle.joint_loglik"],
        "cjmle.flagged_rows": c["cjmle.flagged_rows"],
        "cjmle.flagged_items": c["cjmle.flagged_items"],
        "spectral.calls": n["spectral.fit"],
        "spectral.s": s["spectral.fit"],
    }
