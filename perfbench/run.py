#!/usr/bin/env python3
"""almkit benchmark: time to a certified KKT point and real gradient counts.

Usage (from the repository root):

    python3 perfbench/run.py --workload lcqp --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it wraps every layer boundary and reports the per-layer
split.  Every solve's certificate is re-measured from the oracles.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.
"""

import os
import sys

# Pin BLAS/OpenMP to one thread before numpy loads: iteration counts only
# repeat with a fixed reduction order, and a 2-core box would oversubscribe.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import PaceClock, paced, time_reference  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up is timed over at least this many builds, lasting at least this
# long, before each solve; it is reported as the median of all builds.
SETUP_BUILDS = 15
SETUP_MIN_S = 0.2

END_TO_END_UNITS = {
    "solve_s": "s",
    "campaign_s": "s",
    "oracle_grads": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "ialm.outer_iters": "count",
    "ineq.outer_iters": "count",
    "ialm.self_s": "s",
    "ineq.self_s": "s",
    "ialm.grad_count_ratio": "ratio",
    "ippm.calls": "count",
    "ippm.steps": "count",
    "ippm.self_s": "s",
    "apg.calls": "count",
    "apg.iters": "count",
    "apg.iters_per_call": "count",
    "apg.self_s": "s",
    "core.grad_calls": "count",
    "core.grad_wrap_depth": "ratio",
    "core.grad_overhead_us": "us",
    "core.user_grad_us": "us",
    "core.obj_evals": "count",
    "core.c_evals_per_grad": "ratio",
    "core.self_s": "s",
    "core.kkt_calls": "count",
    "core.kkt_s": "s",
    "core.kkt_self_s": "s",
    "prox.prox_calls": "count",
    "prox.prox_s": "s",
    "prox.subdiff_calls": "count",
    "prox.subdiff_s": "s",
    "problems.curvature_calls": "count",
    "problems.curvature_s": "s",
    "problems.gen_s": "s",
    "problems.to_problem_s": "s",
    "user.grad_calls": "count",
    "user.grad_s": "s",
    "diagnostics.s": "s",
    "trace.solve_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def import_almkit():
    """Import almkit from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import almkit

    if Path(almkit.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"almkit resolved to {almkit.__file__}, not to {SRC}")


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def log(msg: str) -> None:
    print("# " + msg, flush=True)


class Solve:
    """Outcome of one timed solve; ``tracing`` is entered around the solve
    call only, so the certificate re-check below is never traced.  When the
    build carries a pace clock, ``paced`` is the solve's paced time (see
    pace.py); otherwise it is the wall time."""

    def __init__(self, workload, built, entry=None, tracing=None):
        from almkit import NonFiniteValue, SubsolverStall

        clock = built.clock
        self.report, self.error = None, None
        if clock is not None:
            clock.mark()
        with tracing or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                self.report = workload.solve(built, entry)
            except (SubsolverStall, NonFiniteValue) as exc:
                self.error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.wall = t1 - t0
        self.paced = self.wall
        if clock is not None:
            clock.mark()
            self.paced = clock.paced_between(t0, t1)
        self.grads = built.grad_calls[0]
        if self.report is None:
            self.certified, self.measured = False, {}
        else:
            self.certified, self.measured = workload.certified(built, self.report)

    def describe(self, label: str) -> str:
        if self.report is None:
            return f"{label} wall={self.wall:.3f}s grads={self.grads} raised {self.error}"
        res = " ".join(f"{k}={v:.3e}" for k, v in self.measured.items())
        return (
            f"{label} wall={self.wall:.3f}s paced={self.paced:.3f}s grads={self.grads} "
            f"reported_grads={self.report.grad_evals} outer={len(self.report.records)} "
            f"{res} success={self.report.success} certified={self.certified}"
        )


def warm_up(workload) -> None:
    """One small solve so lazy imports and BLAS start-up are not timed."""
    Solve(workload, workload.build(0, 0, small=True))


def build_sampled(workload, seed, variant, small, setup, clock=None):
    """Build the instance at least SETUP_BUILDS times and for at least
    SETUP_MIN_S seconds, appending each build's (generator, to_problem,
    paced set-up) seconds to ``setup``; return the last build, which carries
    ``clock``.

    Set-up is sampled before every solve and once after the last, so the
    median spans the run instead of one moment's machine load.  A reference
    timing between consecutive builds paces each build's set-up.
    """
    start = time.perf_counter()
    builds = 0
    ref = time_reference()
    while builds < SETUP_BUILDS or time.perf_counter() - start < SETUP_MIN_S:
        built = workload.build(seed, variant, small, clock)
        after = time_reference()
        setup_s = built.gen_s + built.to_problem_s
        setup.append((built.gen_s, built.to_problem_s, paced(setup_s, ref, after)))
        ref = after
        builds += 1
    return built


def run_untraced(workload, seed, seconds, small):
    warm_up(workload)
    setup, solves, campaigns = [], [], []
    # Start another campaign only while it is expected to end within
    # --seconds; a campaign is never cut short.
    start = time.perf_counter()
    while True:
        campaign = []
        for variant in range(workload.campaign):
            built = build_sampled(workload, seed, variant, small, setup, PaceClock())
            s = Solve(workload, built)
            log(s.describe(f"solve campaign={len(campaigns)} variant={variant}"))
            campaign.append(s)
        solves += campaign
        campaigns.append(campaign)
        walls = [sum(s.wall for s in c) for c in campaigns]
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    build_sampled(workload, seed, 0, small, setup)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(
        f"wall, not paced: solve median {statistics.median(s.wall for s in solves):.4f} s, "
        f"campaign median {statistics.median(walls):.4f} s, "
        f"set-up median {statistics.median(g + t for g, t, _ in setup):.6f} s"
    )
    metrics = {
        "solve_s": statistics.median(s.paced for s in solves),
        "campaign_s": statistics.median(sum(s.paced for s in c) for c in campaigns),
        "oracle_grads": statistics.fmean(s.grads for s in solves),
        "setup_s": statistics.median(p for _, _, p in setup),
        "peak_rss_mb": rss_mb,
    }
    return solves, metrics


def trace_boundaries(counts):
    """Layer boundaries wrapped in the traced run, with result hooks that
    add the iteration counts each layer returns."""
    import almkit.core as core
    import almkit.ialm as ialm
    import almkit.ineq as ineq
    import almkit.ippm as ippm

    def on_ippm(res):
        counts["ippm.steps"] += res.outer_iterations

    def on_apg(res):
        counts["apg.iters"] += res.iterations

    return [
        (ialm, "ippm_solve", "ippm", on_ippm),
        (ineq, "ippm_solve", "ippm", on_ippm),
        (ippm, "apg_solve", "apg", on_apg),
        (ialm, "kkt_residual", "kkt", None),
        (ineq, "kkt_residual_ineq", "kkt", None),
        (core.SmoothOracle, "gradient", "core.grad", None),
        (core.SmoothOracle, "value", "core.obj", None),
        (core.ConstraintOracle, "evaluate", "core.c_eval", None),
        (core.ConstraintOracle, "jacobian_transpose_apply", "core.jac_t", None),
        (core.ProxCapableFunction, "prox", "prox.prox", None),
        (core.ProxCapableFunction, "subdiff_distance", "prox.subdiff", None),
    ]


def instance_boundaries(built):
    """The instance's own callables: its curvature schedule (the config's
    override when set, else the generator's) and its smooth-gradient callable,
    wrapped below the gradient counter."""
    if built.config.curvature_override is not None:
        curvature = (built.config, "curvature_override", "problems.curvature", None)
    else:
        curvature = (built.problem, "default_curvature", "problems.curvature", None)
    return [curvature, (built.problem.smooth, "_gradient_fn", "user.grad", None)]


def run_diagnostics(built, report) -> float:
    from almkit.diagnostics import (
        check_feasibility_decay,
        estimate_regularity_v,
        trajectory_from_report,
    )

    t0 = time.perf_counter()
    estimate_regularity_v(trajectory_from_report(report), built.problem)
    if len(report.records) >= 3:
        check_feasibility_decay(report, built.config.sigma)
    return time.perf_counter() - t0


def run_traced(workload, seed, seconds, small):
    from collections import Counter

    from tracer import Tracer

    warm_up(workload)
    setup = []
    reference = Solve(workload, build_sampled(workload, seed, 0, small, setup))
    log(reference.describe("untraced reference variant=0"))

    tracer, counts = Tracer(), Counter()
    entry = tracer.wrap(workload.solver, workload.entry)
    solves, diag_s = [], []
    start = time.perf_counter()
    while True:
        variant = len(solves) % workload.campaign
        built = build_sampled(workload, seed, variant, small, setup)
        tracing = tracer.patched(trace_boundaries(counts) + instance_boundaries(built))
        s = Solve(workload, built, entry, tracing)
        log(s.describe(f"traced variant={variant}"))
        solves.append(s)
        if s.report is not None and workload.solver == "ialm":
            diag_s.append(run_diagnostics(built, s.report))
        if time.perf_counter() - start + statistics.median(x.wall for x in solves) > seconds:
            break

    n = len(solves)
    spans = tracer.summary()

    def kind(name, field):
        return spans.get(name, {}).get(field, 0.0)

    def per_call(total, calls):
        return total / calls if calls else 0.0

    user_grads = kind("user.grad", "count")
    user_grad_us = per_call(kind("user.grad", "incl_s"), user_grads) * 1e6
    outer = [len(s.report.records) for s in solves if s.report is not None]
    mean_outer = statistics.fmean(outer) if outer else 0.0
    reported = sum(s.report.grad_evals for s in solves if s.report is not None)
    metrics = {
        "ialm.outer_iters": mean_outer if workload.solver == "ialm" else 0.0,
        "ineq.outer_iters": mean_outer if workload.solver == "ineq" else 0.0,
        "ialm.self_s": kind("ialm", "self_s") / n,
        "ineq.self_s": kind("ineq", "self_s") / n,
        "ialm.grad_count_ratio": per_call(reported, user_grads),
        "ippm.calls": kind("ippm", "count") / n,
        "ippm.steps": counts["ippm.steps"] / n,
        "ippm.self_s": kind("ippm", "self_s") / n,
        "apg.calls": kind("apg", "count") / n,
        "apg.iters": counts["apg.iters"] / n,
        "apg.iters_per_call": per_call(counts["apg.iters"], kind("apg", "count")),
        "apg.self_s": kind("apg", "self_s") / n,
        "core.grad_calls": kind("core.grad", "count") / n,
        "core.grad_wrap_depth": per_call(kind("core.grad", "count"), user_grads),
        "core.grad_overhead_us": per_call(kind("core.grad", "outer_incl_s"), user_grads) * 1e6
        - user_grad_us,
        "core.user_grad_us": user_grad_us,
        "core.obj_evals": kind("core.obj", "count") / n,
        "core.c_evals_per_grad": per_call(kind("core.c_eval", "count"), user_grads),
        "core.self_s": sum(
            kind(k, "self_s") for k in ("core.grad", "core.obj", "core.c_eval", "core.jac_t")
        )
        / n,
        "core.kkt_calls": kind("kkt", "count") / n,
        "core.kkt_s": kind("kkt", "incl_s") / n,
        "core.kkt_self_s": kind("kkt", "self_s") / n,
        "prox.prox_calls": kind("prox.prox", "count") / n,
        "prox.prox_s": kind("prox.prox", "self_s") / n,
        "prox.subdiff_calls": kind("prox.subdiff", "count") / n,
        "prox.subdiff_s": kind("prox.subdiff", "self_s") / n,
        "problems.curvature_calls": kind("problems.curvature", "count") / n,
        "problems.curvature_s": kind("problems.curvature", "self_s") / n,
        "problems.gen_s": statistics.median(g for g, _, _ in setup),
        "problems.to_problem_s": statistics.median(t for _, t, _ in setup),
        "user.grad_calls": user_grads / n,
        "user.grad_s": kind("user.grad", "self_s") / n,
        "diagnostics.s": statistics.fmean(diag_s) if diag_s else 0.0,
        "trace.solve_s": statistics.fmean(s.wall for s in solves),
        "trace.overhead_frac": solves[0].wall / reference.wall - 1.0,
    }
    layer_self = (
        "ialm.self_s", "ineq.self_s", "ippm.self_s", "apg.self_s", "core.self_s",
        "core.kkt_self_s", "prox.prox_s", "prox.subdiff_s", "problems.curvature_s", "user.grad_s",
    )
    metrics["trace.accounted_frac"] = sum(metrics[k] for k in layer_self) / metrics["trace.solve_s"]
    if solves[0].grads != reference.grads:
        log(f"traced variant=0 made {solves[0].grads} gradient calls, untraced {reference.grads}")
        solves[0].certified = False
    return [reference] + solves, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true", help="tiny instances, for the smoke test only"
    )
    args = parser.parse_args(argv)

    import_almkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    log("env " + json.dumps(environment(), sort_keys=True))
    log(f"workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    if args.trace:
        solves, metrics = run_traced(workload, args.seed, args.seconds, args.small)
        units = PER_LAYER_UNITS
    else:
        solves, metrics = run_untraced(workload, args.seed, args.seconds, args.small)
        units = END_TO_END_UNITS
    failed = sum(not s.certified for s in solves)
    log(f"fail_frac={failed / len(solves):.4f} ({failed} of {len(solves)} solves not certified)")
    for name, value in metrics.items():
        log(f"{name:26s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
