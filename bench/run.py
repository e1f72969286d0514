"""Time to a checked fit, per workload.

Run from the root of a source checkout:

    python3 bench/run.py --workload marginal_k1 --seed 1 --seconds 30 --trace 0

The benchmark simulates its panels from --seed, times the workload's fits in
whole passes for about --seconds seconds (at least one pass), checks every
distinct fit against computations made apart from the package, and prints
one JSON object as its last line.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 untraced and traced passes alternate and the
metrics are the per-layer ones plus the tracing overhead.  The package is
imported from ./src of the checkout; without it the run exits with code 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def blas_threads() -> str:
    """OpenBLAS thread count as loaded in this process, else the env setting."""
    import ctypes

    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
           if k in os.environ}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return f"{getattr(lib, sym)()} (env {env or 'unset'})"
    except OSError:
        pass
    return f"unknown (env {env or 'unset'})"


def machine_facts(mmap_pinned: bool) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "mmap_threshold": "pinned at 128 KiB" if mmap_pinned else "glibc default",
    }


M_MMAP_THRESHOLD = -3  # mallopt parameter number, from glibc's malloc.h


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its initial 128 KiB.

    By default glibc raises the threshold after the first large free, so
    later fits in one process reuse heap pages that the first fit had to
    fault in, and run up to twice as fast.  Pinned, every pass costs what
    the first fit of a fresh process costs, as one CLI call does.
    """
    import ctypes

    try:
        return ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1
    except (OSError, AttributeError):
        return False



def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric_spec(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    with open("BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(ops, seconds, run_pass, traced_pass=None):
    """Whole passes until the next one would pass the time budget (at least one).

    With traced_pass, each round is one untraced and one traced pass, in
    alternating order so the first pass's extra cost falls on both sides.
    Returns the rounds; a round is [(outcomes, wall s) untraced, (...) traced].
    """
    rounds = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        sides = [run_pass] if traced_pass is None else [run_pass, traced_pass]
        timed = {}
        for side in (sides if len(rounds) % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            timed[side] = (side(ops), time.perf_counter() - t0)
        rounds.append([timed[side] for side in sides])
        elapsed = time.perf_counter() - begin
        if elapsed + (time.perf_counter() - start) > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ifa", "__init__.py")):
        print(f"no package source at {src}/ifa: run from the root of a checkout",
              file=sys.stderr)
        return 2
    mmap_pinned = pin_mmap_threshold()
    sys.path[:0] = [src, BENCH_DIR]
    import ifa
    import tracer as tr
    import workloads as W

    if not os.path.abspath(ifa.__file__).startswith(src + os.sep):
        print(f"ifa imported from {ifa.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in W.WORKLOADS:
        print(f"unknown workload {args.workload}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2

    workload = W.WORKLOADS[args.workload](args.seed)
    with warnings.catch_warnings():  # warm-up fits stop at max_iters on purpose
        warnings.simplefilter("ignore")
        workload.warm_up()
    setup_s = process_age()
    ops = workload.ops()

    tracers = []

    def traced_pass(ops_):
        tracer = tr.Tracer()
        tr.install(tracer)
        try:
            outcomes = W.run_pass(ops_, tracer)
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        return outcomes

    rounds = measure(ops, args.seconds, W.run_pass, traced_pass if args.trace else None)
    peak = peak_rss_mib()
    passes = [outcomes for round_ in rounds for outcomes, _ in round_]
    checks = W.verify(workload, passes)
    failures = [(name, detail) for name, ok, detail in checks if not ok]
    attempted = sum(o.op.repeats for outcomes in passes for o in outcomes)
    errors = [e for outcomes in passes for o in outcomes for e in o.errors]

    untraced = [round_[0][0] for round_ in rounds]
    times = [W.pass_times(outcomes) for outcomes in untraced]
    per_estimator = {f"{est}_fit_s": statistics.median(t[est] for t in times)
                     for est in W.ESTIMATORS}
    facts = machine_facts(mmap_pinned)
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {workload.name} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} fits, {len(errors)} failed, setup {setup_s:.3f}s, "
          f"peak RSS {peak:.1f} MiB")
    for name, value in per_estimator.items():
        if value > 0:
            print(f"  {name} = {value:.4f} s (median over {len(times)} pass(es))")
    for o in untraced[0]:
        iters = [getattr(res, "n_iters", None) for res in o.results]
        print(f"  {o.op.key}: {' '.join(f'{s:.3f}' for s in o.seconds)} s, iterations {iters}")
    for err in errors:
        print(f"  FAILED {err}")
    for name, detail in failures:
        print(f"  CHECK FAILED {name}: {detail}")

    if args.trace:
        layers = [tr.layer_metrics(t) for t in tracers]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values.update(per_estimator)
        walls = [(round_[0][1], round_[1][1]) for round_ in rounds]
        values["trace.overhead_share"] = statistics.median(t / u for u, t in walls) - 1.0
        os.makedirs(OUT_DIR, exist_ok=True)
        tracers[-1].dump(os.path.join(OUT_DIR, f"trace-{workload.name}-{args.seed}.json"),
                         {"workload": workload.name, "seed": args.seed, "machine": facts})
    else:
        values = {
            "tol_fit_s": statistics.median(
                sum(t[e] for e in W.TOL_ESTIMATORS) for t in times),
            "budget_fit_s": statistics.median(
                sum(v for e, v in t.items() if e not in W.TOL_ESTIMATORS) for t in times),
            "setup_s": setup_s,
            "peak_rss_mb": peak,
        }
    spec = metric_spec("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(errors),
              "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{workload.name}-{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "machine": facts, "checks": checks,
                   "errors": errors}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
