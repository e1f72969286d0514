"""Command line entry point: simulate panels, fit estimators, evaluate fits.

Exit codes: 0 success, 2 user or input error, 3 estimator stopped at the
iteration cap without meeting its tolerance (results are still written),
4 numerical failure of an estimator (for example a decreasing EM likelihood).
Every artifact except timing.txt is byte-reproducible for a fixed seed,
identical inputs and one package version.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .cjmle import CjmleConfig, fit_cjmle
from .em import (
    EmConfig,
    McemConfig,
    SaConfig,
    StemConfig,
    fit_em_quadrature,
    fit_mcem,
    fit_sa_mcmc,
    fit_stem,
)
from .models import Link, ModelKind, _default_model, as_link
from .simulate import SimSpec, recovery_report, simulate, theta_correlations
from .start import spectral_start

EXIT_OK = 0
EXIT_USER_ERROR = 2
EXIT_NOT_CONVERGED = 3
EXIT_NUMERICAL = 4


class CliError(Exception):
    """User or input error that maps to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifa",
        description="Item factor analysis: simulation, estimation, evaluation.",
    )
    parser.add_argument("--command", required=True, choices=["simulate", "fit", "evaluate"])
    parser.add_argument(
        "--estimator", choices=["cjmle", "em", "mcem", "stem", "sa", "svd"], default=None
    )
    parser.add_argument("--model", choices=["binary", "graded", "gpc"], default=None)
    parser.add_argument("--link", choices=["logit", "probit"], default="logit")
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--input", default=None, help="dataset CSV (fit) or fitted params JSON (evaluate)")
    parser.add_argument("--truth", default=None, help="truth params JSON (evaluate)")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iters", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--c-radius", type=float, default=None)
    parser.add_argument("--burn-in", type=int, default=None)
    parser.add_argument("--total-iters", type=int, default=None)
    parser.add_argument("--quad-points", type=int, default=None)
    parser.add_argument("--config", default=None, help="JSON file whose keys override flags")
    parser.add_argument("--n", type=int, default=500, help="persons to simulate")
    parser.add_argument("--j", type=int, default=20, help="items to simulate")
    parser.add_argument("--categories", type=int, default=2, help="categories per item to simulate")
    parser.add_argument("--missing-rate", type=float, default=0.0)
    return parser


def _apply_config_file(args: argparse.Namespace) -> None:
    if args.config is None:
        return
    try:
        overrides = io.read_json(args.config)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise CliError("config file must hold a JSON object of flag overrides")
    for key, value in overrides.items():
        attr = key.replace("-", "_").lstrip("_")
        if not hasattr(args, attr) or attr == "config":
            raise CliError(f"unknown config key {key!r}")
        setattr(args, attr, value)


def _out_dir(args: argparse.Namespace) -> Path:
    if not args.output_dir:
        raise CliError("--output-dir is required")
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise CliError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _check_model_link(model: ModelKind, link: Link) -> None:
    if model is ModelKind.GPC and link is not Link.LOGIT:
        raise CliError("the adjacent-odds (gpc) model supports the logit link only")


def cmd_simulate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    model = _default_model(args.model, [args.categories])
    link = as_link(args.link)
    _check_model_link(model, link)
    try:
        spec = SimSpec(
            n_persons=args.n,
            n_items=args.j,
            k=args.k,
            model=model,
            link=link,
            categories=args.categories,
            missing_rate=args.missing_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    data, thetas, items = simulate(spec)
    config = {
        "command": "simulate",
        "n": args.n,
        "j": args.j,
        "k": args.k,
        "model": model.value,
        "link": link.value,
        "categories": args.categories,
        "missing_rate": args.missing_rate,
        "seed": args.seed,
    }
    io.write_dataset_csv(out / "data.csv", data)
    io.write_json(
        out / "truth.json",
        io.params_to_dict(
            items,
            model=model,
            link=link,
            k=args.k,
            seed=args.seed,
            correlation=spec.factor_config().correlation,
            thetas=thetas,
        ),
    )
    io.write_manifest(
        out / "manifest.json",
        command="simulate",
        seed=args.seed,
        config=config,
        inputs={},
        outputs=["data.csv", "truth.json"],
    )
    return EXIT_OK


def _given(args: argparse.Namespace, **fields) -> dict:
    """Config keywords from the flags that were given, each field named to its
    flag, so that the config's own defaults and checks apply to the rest."""
    given = {field: getattr(args, flag) for field, flag in fields.items()}
    return {field: value for field, value in given.items() if value is not None}


def _run_estimator(args, data, model: ModelKind, link: Link):
    """Dispatch to the requested engine.

    Returns (items, thetas, correlation, converged, traj_header, traj_rows).
    """
    k = args.k
    seed = args.seed
    if args.estimator == "cjmle":
        config = CjmleConfig(**_given(args, c_radius="c_radius", max_iters="max_iters", tol="tol"))
        fit = fit_cjmle(data, k, config, model=model, link=link)
        rows = [(i + 1, ll) for i, ll in enumerate(fit.trajectory)]
        return fit.items, fit.thetas, None, fit.converged, ["iteration", "log_likelihood"], rows
    if args.estimator == "em":
        if k > 3:
            raise CliError(
                "the quadrature em estimator supports k <= 3; "
                "use the stem or sa estimator for higher dimensions"
            )
        config = EmConfig(
            **_given(args, points_per_dim="quad_points", max_iters="max_iters", tol="tol")
        )
        fit = fit_em_quadrature(data, k, model, link, config)
        rows = [(i + 1, ll) for i, ll in enumerate(fit.info["loglik_trail"])]
        return fit.items, None, fit.correlation, fit.converged, ["iteration", "log_likelihood"], rows
    if args.estimator == "mcem":
        fit = fit_mcem(
            data, k, McemConfig(seed=seed, **_given(args, max_iters="max_iters")),
            model=model, link=link,
        )
    elif args.estimator == "stem":
        fit = fit_stem(
            data, k,
            StemConfig(seed=seed, **_given(args, total_iters="total_iters", burn_in="burn_in")),
            model=model, link=link,
        )
    elif args.estimator == "sa":
        fit = fit_sa_mcmc(
            data, k,
            SaConfig(seed=seed, **_given(args, total_iters="total_iters", warmup="burn_in")),
            model=model, link=link,
        )
    elif args.estimator == "svd":
        thetas, items = spectral_start(data, k, model, link)
        return items, thetas, None, True, ["iteration", "log_likelihood"], []
    else:
        raise CliError("--estimator is required for the fit command")
    norms = np.linalg.norm(fit.trajectory, axis=1)
    changes = np.concatenate([[norms[0]], np.linalg.norm(np.diff(fit.trajectory, axis=0), axis=1)])
    rows = [(i + 1, n, c) for i, (n, c) in enumerate(zip(norms, changes))]
    return fit.items, None, fit.correlation, True, ["iteration", "param_norm", "param_change"], rows


def cmd_fit(args: argparse.Namespace) -> int:
    if not args.input:
        raise CliError("--input dataset CSV is required for the fit command")
    if not args.estimator:
        raise CliError("--estimator is required for the fit command")
    out = _out_dir(args)
    try:
        data = io.read_dataset_csv(args.input)
    except OSError as exc:
        raise CliError(f"cannot read {args.input}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed dataset {args.input}: {exc}") from exc
    model = _default_model(args.model, data.categories)
    link = as_link(args.link)
    _check_model_link(model, link)
    if model is ModelKind.BINARY and np.any(data.categories != 2):
        raise CliError("binary model requested but the dataset has items with more than 2 categories")
    started = time.perf_counter()
    try:
        items, thetas, correlation, converged, header, rows = _run_estimator(
            args, data, model, link
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    elapsed = time.perf_counter() - started
    io.write_json(
        out / "params.json",
        io.params_to_dict(
            items,
            model=model,
            link=link,
            k=args.k,
            estimator=args.estimator,
            seed=args.seed,
            correlation=correlation,
            thetas=thetas,
        ),
    )
    io.write_trajectory_csv(out / "trajectory.csv", header, rows)
    (out / "timing.txt").write_text(f"elapsed_seconds: {elapsed:.3f}\n", encoding="utf-8")
    config = {
        "command": "fit",
        "estimator": args.estimator,
        "model": model.value,
        "link": link.value,
        "k": args.k,
        "seed": args.seed,
        "max_iters": args.max_iters,
        "tol": args.tol,
        "c_radius": args.c_radius,
        "burn_in": args.burn_in,
        "total_iters": args.total_iters,
        "quad_points": args.quad_points,
    }
    io.write_manifest(
        out / "manifest.json",
        command="fit",
        seed=args.seed,
        config=config,
        inputs={"input": io.sha256_file(args.input)},
        outputs=["params.json", "trajectory.csv", "timing.txt"],
    )
    return EXIT_OK if converged else EXIT_NOT_CONVERGED


def cmd_evaluate(args: argparse.Namespace) -> int:
    if not args.truth or not args.input:
        raise CliError("--truth and --input parameter files are required for evaluate")
    out = _out_dir(args)
    try:
        truth_items, truth_extras = io.params_from_dict(io.read_json(args.truth))
        fit_items, fit_extras = io.params_from_dict(io.read_json(args.input))
    except (OSError, ValueError, KeyError) as exc:
        raise CliError(f"cannot read parameter files: {exc}") from exc
    if len(truth_items) != len(fit_items):
        raise CliError(
            f"dimension mismatch: truth has {len(truth_items)} items, fit has {len(fit_items)}"
        )
    if truth_extras["k"] != fit_extras["k"]:
        raise CliError(
            f"dimension mismatch: truth k={truth_extras['k']}, fit k={fit_extras['k']}"
        )
    for j, (a, b) in enumerate(zip(truth_items, fit_items)):
        if a.n_categories != b.n_categories:
            raise CliError(f"dimension mismatch: item {j + 1} category counts differ")
    truth_thetas = truth_extras["thetas"]
    if truth_thetas is None:
        raise CliError("truth file lacks person factors; evaluation needs them")
    link = as_link(truth_extras["link"])
    fit_thetas = fit_extras["thetas"]
    # marginal fits carry no person factors: probability error is evaluated
    # at the true factor scores and factor-score correlations are undefined
    surrogate = fit_thetas if fit_thetas is not None else truth_thetas
    try:
        report = recovery_report(truth_thetas, truth_items, surrogate, fit_items, link)
    except ValueError as exc:
        raise CliError(f"dimension mismatch: {exc}") from exc
    if fit_thetas is None:
        report.theta_correlation = np.full(truth_extras["k"], np.nan)
    else:
        report.theta_correlation = theta_correlations(truth_thetas, fit_thetas)
    row = report.as_row()
    io.write_trajectory_csv(out / "report.csv", list(row), [list(row.values())])
    # report.json keeps the factor-score correlations together as one list
    corr = [row.pop(key) for key in list(row) if key.startswith("theta_corr_")]
    io.write_json(out / "report.json", {**row, "theta_correlation": corr})
    io.write_manifest(
        out / "manifest.json",
        command="evaluate",
        seed=args.seed,
        config={"command": "evaluate"},
        inputs={
            "truth": io.sha256_file(args.truth),
            "input": io.sha256_file(args.input),
        },
        outputs=["report.json", "report.csv"],
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "fit":
            return cmd_fit(args)
        return cmd_evaluate(args)
    except CliError as exc:
        print(f"ifa: error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except RuntimeError as exc:
        print(f"ifa: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
