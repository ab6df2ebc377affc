"""Benchmark command-line front end.

Subcommands:
  bench-lcqp / bench-ev / bench-cluster   seeded campaigns per family
  solve <config.json>                     campaign from a JSON config
  report <dir>                            re-verified summary to stdout

Each trial writes ``trial_<seed>.json`` (outer-iteration trajectory,
diagnostics verdicts, and enough instance information to rebuild the
problem).  ``report`` re-measures the final KKT residuals from the trial
files instead of trusting the solver's own numbers, and a campaign ends by
writing that same re-verified report of its trial files to ``summary.csv``:
one row per trial plus an ``avg`` row.  Since ``report`` reads every trial
file in a directory, a campaign exits 2 before solving when its output
directory holds a trial file of a seed outside its own.

The environment variable ALMKIT_OUTPUT_DIR sets the default output
directory.  Exit code 0 means every trial re-verified as a success, 1 that
one did not, and 2 a usage error or unreadable input.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .core import ProblemSpec, as_vector, kkt_residual
from .ialm import (
    IalmConfig,
    PowerGrowthDual,
    PracticalDual,
    SolveReport,
    TheoreticalDual,
    ialm_solve,
)
from .ippm import SubsolverStall
from .problems import (
    FORMAT_VERSION,
    gen_clustering,
    gen_ev,
    gen_lcqp,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_points_csv,
)

ENV_OUTPUT_DIR = "ALMKIT_OUTPUT_DIR"
SUMMARY_COLUMNS = ("trial", "pres", "dres", "time", "grad_evals", "success")
# The ``sizes`` keys each experiment's instances are built from.
SIZE_KEYS = {"lcqp": ("m", "n"), "ev": ("n",), "cluster": ("r", "s"), "custom": ()}


def policy_from_dict(data: dict):
    variant = data.get("variant", "practical")
    if variant == "practical":
        return PracticalDual()
    if variant == "theoretical":
        return TheoreticalDual(w0=float(data.get("w0", 1.0)))
    if variant == "power":
        return PowerGrowthDual(M=float(data.get("M", 1.0)), q=int(data.get("q", 0)))
    raise ValueError(f"unknown dual policy variant {variant!r}")


def solver_to_dict(cfg: IalmConfig) -> dict:
    return {
        "beta0": cfg.beta0,
        "sigma": cfg.sigma,
        "eps": cfg.eps,
        "policy": cfg.policy.to_dict(),
        "penalty_mode": cfg.penalty_mode,
        "max_outer": cfg.max_outer,
        "max_inner": cfg.max_inner,
    }


def solver_from_dict(data: dict) -> IalmConfig:
    return IalmConfig(
        beta0=float(data.get("beta0", 0.01)),
        sigma=float(data.get("sigma", 3.0)),
        eps=float(data.get("eps", 1e-3)),
        policy=policy_from_dict(data.get("policy", {})),
        penalty_mode=bool(data.get("penalty_mode", False)),
        max_outer=int(data.get("max_outer", 40)),
        max_inner=int(data.get("max_inner", 10**6)),
    )


@dataclass
class RunConfig:
    """One benchmark campaign: an experiment family, seeds, and solver setup."""

    experiment: str
    sizes: dict
    rho: float = 1.0
    seeds: tuple = (0,)
    solver: IalmConfig = field(default_factory=IalmConfig)
    output_dir: str = "."
    jobs: int = 1
    instance_path: Optional[str] = None
    points_path: Optional[str] = None

    def __post_init__(self):
        if self.experiment not in SIZE_KEYS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for key in SIZE_KEYS[self.experiment]:
            if key not in self.sizes:
                raise ValueError(f"{self.experiment} experiment needs sizes key {key!r}")
        if self.experiment == "cluster" and self.points_path is None:
            raise ValueError("cluster experiment needs \"points_path\"")
        if self.experiment == "custom" and self.instance_path is None:
            raise ValueError("custom experiment needs \"instance_path\"")
        if len(self.seeds) < 1:
            raise ValueError("at least one trial seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate trial seeds in {list(self.seeds)}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")


def _instance_ref(config: RunConfig, seed: int) -> dict:
    if config.experiment == "lcqp":
        return {
            "generator": {
                "kind": "lcqp",
                "m": int(config.sizes["m"]),
                "n": int(config.sizes["n"]),
                "rho": float(config.rho),
                "seed": int(seed),
            }
        }
    if config.experiment == "ev":
        return {"generator": {"kind": "ev", "n": int(config.sizes["n"]), "seed": int(seed)}}
    if config.experiment == "cluster":
        points = load_points_csv(config.points_path)
        inst = gen_clustering(points, int(config.sizes["r"]), float(config.sizes["s"]), seed)
        return {"inline": instance_to_dict(inst)}
    inst = load_instance(config.instance_path)
    return {"inline": instance_to_dict(inst)}


def build_problem(instance_ref: dict) -> ProblemSpec:
    """Rebuild the ProblemSpec a trial file refers to (deterministic)."""
    if "generator" in instance_ref:
        gen = instance_ref["generator"]
        if gen["kind"] == "lcqp":
            return gen_lcqp(gen["m"], gen["n"], gen["rho"], gen["seed"]).to_problem()
        if gen["kind"] == "ev":
            return gen_ev(gen["n"], gen["seed"]).to_problem()
        raise ValueError(f"unknown generator kind {gen.get('kind')!r}")
    if "inline" in instance_ref:
        return instance_from_dict(instance_ref["inline"]).to_problem()
    raise ValueError("instance_ref must contain 'generator' or 'inline'")


def _record_to_dict(rec) -> dict:
    return {
        "k": rec.k,
        "beta": rec.beta,
        "w": rec.w,
        "pres": rec.pres,
        "dres": rec.dres,
        "dres_running": rec.dres_running,
        "y_norm": rec.y_norm,
        "grad_evals": rec.grad_evals,
        "seconds": rec.seconds,
        "rho": rec.rho,
        "L": rec.L,
        "sub_eps": rec.sub_eps,
        "ippm_steps": rec.ippm_steps,
        "apg_iters": rec.apg_iters,
        "sub_s": rec.sub_s,
        "cert_s": rec.cert_s,
        "x": rec.x.tolist(),
    }


def _diagnostics_dict(report: SolveReport, problem: ProblemSpec, config: RunConfig) -> dict:
    out: dict = {}
    trace = diag.estimate_regularity_v(diag.trajectory_from_report(report), problem)
    out["regularity"] = {
        "supported": trace.supported,
        "v_min": trace.v_min,
        "values": [v for v in trace.values],
        "reason": trace.reason,
    }
    if len(report.records) >= 3:
        verdict = diag.check_feasibility_decay(report, config.solver.sigma)
        out["feasibility_decay"] = {
            "passed": verdict.passed,
            "constant": verdict.constant,
            "max_product": verdict.max_product,
        }
    policy = config.solver.policy.to_dict()
    if policy["variant"] == "theoretical" and not config.solver.penalty_mode:
        c0 = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))
        y_max = diag.dual_norm_bound(policy["w0"], c0)
        observed = max((rec.y_norm for rec in report.records), default=0.0)
        out["dual_bound"] = {"y_max": y_max, "max_y_norm": observed, "holds": observed <= y_max}
    return out


def run_trial(config: RunConfig, seed: int) -> dict:
    """Solve one seed; return its trial-file payload.  A stalled solve
    writes null for the residuals and time it did not measure."""
    ref = _instance_ref(config, seed)
    problem = build_problem(ref)
    payload = {
        "format_version": FORMAT_VERSION,
        "seed": int(seed),
        "instance_ref": ref,
        "solver": solver_to_dict(config.solver),
    }
    try:
        report = ialm_solve(problem, config.solver)
    except SubsolverStall as exc:
        payload.update(
            success=False,
            termination=f"subsolver_stall: {exc}",
            pres=None,
            dres=None,
            time_seconds=None,
            grad_evals=exc.grad_evals,
            records=[],
            diagnostics={},
        )
        return payload
    payload.update(
        success=report.success,
        termination=report.termination,
        pres=report.kkt.pres,
        dres=report.kkt.dres,
        time_seconds=report.seconds,
        grad_evals=report.grad_evals,
        final_x=report.x.tolist(),
        final_y=report.y.tolist(),
        records=[_record_to_dict(rec) for rec in report.records],
        diagnostics=_diagnostics_dict(report, problem, config),
    )
    return payload


def run_benchmark(config: RunConfig) -> int:
    """Run every seed and write its trial file, then write ``summary.csv``,
    the re-verified report of those files; return the report's exit code.

    Raises ValueError, before solving, when the output directory holds a
    trial file of another seed, which ``report`` would mix into this
    campaign; trial files of the campaign's own seeds are overwritten.
    """
    out_dir = Path(config.output_dir)
    own = {f"trial_{seed}.json" for seed in config.seeds}
    stray = sorted(p for p in out_dir.glob("trial_*.json") if p.name not in own)
    if stray:
        raise ValueError(f"{stray[0]} is not a trial of this campaign; use another output directory")
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.jobs == 1:
        payloads = [run_trial(config, seed) for seed in config.seeds]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
            payloads = list(pool.map(lambda s: run_trial(config, s), config.seeds))

    paths = [out_dir / f"trial_{seed}.json" for seed in config.seeds]
    for path, payload in zip(paths, payloads):
        with open(path, "w") as fh:
            json.dump(payload, fh)
    summary = io.StringIO()
    code = emit_report(paths, "csv", summary)
    (out_dir / "summary.csv").write_text(summary.getvalue())
    return code


def reverify_trial(path: Path) -> dict:
    """Load one trial file and independently recompute its final residuals.

    ``success`` holds only when the trial stored a final iterate, claimed
    success, and both re-measured residuals are within its solver eps.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed report file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"malformed report file {path}: not a JSON object")
    required = ["seed"]
    if data.get("final_x") is not None:
        required += ["instance_ref", "final_y"]
    missing = [key for key in required if key not in data]
    if missing:
        raise ValueError(f"malformed report file {path}: missing {', '.join(missing)}")
    time_seconds = data.get("time_seconds")
    row = {
        "trial": data["seed"],
        "time": math.nan if time_seconds is None else time_seconds,
        "grad_evals": data.get("grad_evals", 0),
    }
    if data.get("final_x") is None:
        row["pres"], row["dres"], row["success"] = math.nan, math.nan, False
        return row
    try:
        problem = build_problem(data["instance_ref"])
        x = as_vector(data["final_x"], problem.dim, "final_x")
        y = as_vector(data["final_y"], problem.constraints.n_constraints, "final_y")
        eps = float(data.get("solver", {}).get("eps", math.nan))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report file {path}: {exc!r}") from None
    kkt = kkt_residual(x, y, problem)
    row["pres"], row["dres"] = kkt.pres, kkt.dres
    row["success"] = bool(data.get("success", False)) and max(kkt.pres, kkt.dres) <= eps
    return row


def _cell(value) -> str:
    return str(int(value)) if isinstance(value, bool) else str(value)


def emit_report(paths: list[Path], fmt: str = "csv", out=None) -> int:
    """Write the re-verified campaign summary to ``out`` (stdout by default);
    return a process exit code, 0 only when every trial re-verifies as a
    success.

    The CSV form has one row per trial and an ``avg`` row: the mean of each
    column over the trials with measured residuals, and the success rate
    over all trials.  Numbers that were not measured read ``nan`` in the
    CSV and ``null`` in the JSON form.
    """
    out = out or sys.stdout
    rows = sorted((reverify_trial(p) for p in paths), key=lambda r: r["trial"])
    if fmt == "csv":
        measured = [r for r in rows if not math.isnan(r["pres"])]
        avg = {"trial": "avg", "success": float(np.mean([r["success"] for r in rows]))}
        for col in ("pres", "dres", "time", "grad_evals"):
            avg[col] = float(np.mean([r[col] for r in measured])) if measured else math.nan
        out.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in rows + [avg]:
            out.write(",".join(_cell(r[col]) for col in SUMMARY_COLUMNS) + "\n")
    elif fmt == "json":
        trials = [
            {k: None if isinstance(r[k], float) and not math.isfinite(r[k]) else r[k]
             for k in SUMMARY_COLUMNS}
            for r in rows
        ]
        json.dump({"format_version": FORMAT_VERSION, "trials": trials}, out, allow_nan=False)
        out.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return 0 if all(r["success"] for r in rows) else 1


def _default_out() -> str:
    return os.environ.get(ENV_OUTPUT_DIR, ".")


def _add_solver_flags(p: argparse.ArgumentParser):
    p.add_argument("--eps", type=float, default=None, help="KKT tolerance (default 1e-3)")
    p.add_argument("--beta0", type=float, default=None, help="initial penalty (default 0.01)")
    p.add_argument("--sigma", type=float, default=None, help="penalty growth factor (default 3)")
    p.add_argument(
        "--policy",
        choices=("practical", "theoretical", "power"),
        default=None,
        help="dual step-size policy (default practical)",
    )
    p.add_argument("--w0", type=float, default=1.0, help="w0 for the theoretical policy")
    p.add_argument("--growth-M", type=float, default=1.0, help="M for the power policy")
    p.add_argument("--growth-q", type=int, default=0, help="q for the power policy")
    p.add_argument("--penalty-mode", action="store_true", help="freeze multipliers at zero")
    p.add_argument("--max-outer", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--seeds", type=str, default=None, help="comma-separated seed list")
    p.add_argument("--trials", type=int, default=None, help="number of trials (seeds 0..t-1)")
    p.add_argument("--out", type=str, default=None, help=f"output dir (env {ENV_OUTPUT_DIR})")
    p.add_argument("--jobs", type=int, default=1, help="concurrent trials (default 1)")


def _solver_from_args(args, base: Optional[IalmConfig] = None) -> IalmConfig:
    cfg = base if base is not None else IalmConfig()
    updates = {}
    if args.eps is not None:
        updates["eps"] = args.eps
    if args.beta0 is not None:
        updates["beta0"] = args.beta0
    if args.sigma is not None:
        updates["sigma"] = args.sigma
    if args.max_outer is not None:
        updates["max_outer"] = args.max_outer
    if args.max_inner is not None:
        updates["max_inner"] = args.max_inner
    if args.penalty_mode:
        updates["penalty_mode"] = True
    if args.policy is not None:
        updates["policy"] = policy_from_dict(
            {"variant": args.policy, "w0": args.w0, "M": args.growth_M, "q": args.growth_q}
        )
    return replace(cfg, **updates) if updates else cfg


def _seeds_from_args(args, default: tuple = (0,)) -> tuple:
    if args.seeds is not None:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        if not seeds:
            raise ValueError(f"--seeds {args.seeds!r} names no seed")
        return seeds
    if args.trials is not None:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        return tuple(range(args.trials))
    return default


def _campaign_config(args) -> RunConfig:
    """The campaign a bench-* or solve command asks for; raises ValueError
    on a usage error."""
    if args.command == "solve":
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
        if data.get("format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported config format_version {data.get('format_version')!r}")
        if "experiment" not in data:
            raise ValueError(f"config {args.config} has no \"experiment\" key")
        return RunConfig(
            experiment=data["experiment"],
            sizes=data.get("sizes", {}),
            rho=float(data.get("rho", 1.0)),
            seeds=_seeds_from_args(args, tuple(data.get("seeds", [0]))),
            solver=_solver_from_args(args, solver_from_dict(data.get("solver", {}))),
            output_dir=args.out or data.get("output_dir", _default_out()),
            jobs=args.jobs if args.jobs != 1 else int(data.get("jobs", 1)),
            instance_path=data.get("instance_path"),
            points_path=data.get("points_path"),
        )
    if args.command == "bench-lcqp":
        family = {"experiment": "lcqp", "sizes": {"m": args.m, "n": args.n}, "rho": args.rho}
        seeds = tuple(range(10))
    elif args.command == "bench-ev":
        family = {"experiment": "ev", "sizes": {"n": args.n}}
        seeds = tuple(range(10))
    else:
        family = {"experiment": "cluster", "sizes": {"r": args.r, "s": args.s},
                  "points_path": args.points}
        seeds = (0,)
    return RunConfig(
        **family,
        seeds=_seeds_from_args(args, seeds),
        solver=_solver_from_args(args),
        output_dir=args.out or _default_out(),
        jobs=args.jobs,
    )


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="almkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_lcqp = sub.add_parser("bench-lcqp", help="box-and-equality quadratic programs")
    p_lcqp.add_argument("--m", type=int, default=10)
    p_lcqp.add_argument("--n", type=int, default=200)
    p_lcqp.add_argument("--rho", type=float, default=1.0)
    _add_solver_flags(p_lcqp)

    p_ev = sub.add_parser("bench-ev", help="generalized eigenvalue problems")
    p_ev.add_argument("--n", type=int, default=200)
    _add_solver_flags(p_ev)

    p_cl = sub.add_parser("bench-cluster", help="distance-matrix clustering")
    p_cl.add_argument("--points", type=str, required=True, help="CSV of data points")
    p_cl.add_argument("--r", type=int, default=6)
    p_cl.add_argument("--s", type=float, default=100.0)
    _add_solver_flags(p_cl)

    p_solve = sub.add_parser("solve", help="campaign from a JSON config file")
    p_solve.add_argument("config", type=str)
    _add_solver_flags(p_solve)

    p_rep = sub.add_parser("report", help="re-verified summary of a campaign directory")
    p_rep.add_argument("dir", type=str)
    p_rep.add_argument("--format", choices=("csv", "json"), default="csv")

    args = parser.parse_args(argv)

    if args.command == "report":
        paths = sorted(Path(args.dir).glob("trial_*.json"))
        if not paths:
            print(f"no trial_*.json files in {args.dir}", file=sys.stderr)
            return 2
        try:
            return emit_report(paths, args.format)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    try:
        config = _campaign_config(args)
    except (TypeError, ValueError) as exc:
        print(f"almkit {args.command}: {exc}", file=sys.stderr)
        return 2
    try:
        return run_benchmark(config)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
