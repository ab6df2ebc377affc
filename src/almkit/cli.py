"""Benchmark command-line front end.

Subcommands:
  bench-lcqp / bench-ev / bench-cluster   seeded campaigns per family
  solve <config.json>                     campaign from a JSON config
  report <dir>                            re-verified summary to stdout

Each trial writes ``trial_<seed>.json`` (outer-iteration trajectory,
diagnostics verdicts, and enough instance information to rebuild the
problem); a campaign ends with ``summary.csv`` holding one row per trial
plus an ``avg`` row.  ``report`` re-measures the final KKT residuals from
the trajectory files instead of trusting the solver's own numbers.

The environment variable ALMKIT_OUTPUT_DIR sets the default output
directory.  Exit code 0 means every trial certified success.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .core import ProblemSpec, kkt_residual
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
SUMMARY_COLUMNS = ("trial", "pres", "dres", "time", "grad_evals", "obj_evals")


def policy_to_dict(policy) -> dict:
    return policy.to_dict()


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
        "policy": policy_to_dict(cfg.policy),
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
        if self.experiment not in ("lcqp", "ev", "cluster", "custom"):
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if len(self.seeds) < 1:
            raise ValueError("at least one trial seed is required")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


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


@dataclass(frozen=True)
class TrialRow:
    trial: int
    pres: float
    dres: float
    time: float
    grad_evals: int
    obj_evals: int
    success: bool


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
        "obj_evals": rec.obj_evals,
        "seconds": rec.seconds,
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
    policy = policy_to_dict(config.solver.policy)
    if policy["variant"] == "theoretical" and not config.solver.penalty_mode:
        c0 = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))
        y_max = diag.dual_norm_bound(policy["w0"], c0)
        observed = max((rec.y_norm for rec in report.records), default=0.0)
        out["dual_bound"] = {"y_max": y_max, "max_y_norm": observed, "holds": observed <= y_max}
    return out


def run_trial(config: RunConfig, seed: int) -> tuple[TrialRow, dict]:
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
            pres=math.nan,
            dres=math.nan,
            time_seconds=math.nan,
            grad_evals=0,
            obj_evals=0,
            records=[],
            diagnostics={},
        )
        row = TrialRow(seed, math.nan, math.nan, math.nan, 0, 0, False)
        return row, payload
    payload.update(
        success=report.success,
        termination=report.termination,
        pres=report.kkt.pres,
        dres=report.kkt.dres,
        time_seconds=report.seconds,
        grad_evals=report.grad_evals,
        obj_evals=report.obj_evals,
        final_x=report.x.tolist(),
        final_y=report.y.tolist(),
        records=[_record_to_dict(rec) for rec in report.records],
        diagnostics=_diagnostics_dict(report, problem, config),
    )
    row = TrialRow(
        seed,
        report.kkt.pres,
        report.kkt.dres,
        report.seconds,
        report.grad_evals,
        report.obj_evals,
        report.success,
    )
    return row, payload


def run_benchmark(config: RunConfig) -> list[TrialRow]:
    """Run every seed, write per-trial JSON files and the summary CSV."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.jobs == 1:
        results = [run_trial(config, seed) for seed in config.seeds]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(lambda s: run_trial(config, s), config.seeds))

    rows = []
    for (row, payload), seed in zip(results, config.seeds):
        with open(out_dir / f"trial_{seed}.json", "w") as fh:
            json.dump(payload, fh)
        rows.append(row)

    with open(out_dir / "summary.csv", "w") as fh:
        fh.write(",".join(SUMMARY_COLUMNS + ("success",)) + "\n")
        for row in rows:
            fh.write(
                f"{row.trial},{row.pres!r},{row.dres!r},{row.time!r},"
                f"{row.grad_evals},{row.obj_evals},{int(row.success)}\n"
            )
        ok = [r for r in rows if not math.isnan(r.pres)]
        if ok:
            fh.write(
                "avg,"
                f"{float(np.mean([r.pres for r in ok]))!r},"
                f"{float(np.mean([r.dres for r in ok]))!r},"
                f"{float(np.mean([r.time for r in ok]))!r},"
                f"{float(np.mean([r.grad_evals for r in ok]))!r},"
                f"{float(np.mean([r.obj_evals for r in ok]))!r},"
                f"{float(np.mean([int(r.success) for r in rows]))!r}\n"
            )
    return rows


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
    row = {
        "trial": data["seed"],
        "time": data.get("time_seconds", math.nan),
        "grad_evals": data.get("grad_evals", 0),
        "obj_evals": data.get("obj_evals", 0),
    }
    if data.get("final_x") is None:
        row["pres"], row["dres"], row["success"] = math.nan, math.nan, False
        return row
    problem = build_problem(data["instance_ref"])
    kkt = kkt_residual(
        np.asarray(data["final_x"], dtype=float),
        np.asarray(data["final_y"], dtype=float),
        problem,
    )
    row["pres"], row["dres"] = kkt.pres, kkt.dres
    eps = float(data.get("solver", {}).get("eps", math.nan))
    row["success"] = bool(data.get("success", False)) and max(kkt.pres, kkt.dres) <= eps
    return row


def emit_report(paths: list[Path], fmt: str = "csv", out=None) -> int:
    """Re-verified campaign summary on stdout; returns a process exit code,
    0 only when every trial re-verifies as a success."""
    out = out or sys.stdout
    rows = sorted((reverify_trial(p) for p in paths), key=lambda r: r["trial"])
    if fmt == "csv":
        out.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in rows:
            out.write(
                f"{r['trial']},{r['pres']!r},{r['dres']!r},{r['time']!r},"
                f"{r['grad_evals']},{r['obj_evals']}\n"
            )
    elif fmt == "json":
        slim = [{k: r[k] for k in SUMMARY_COLUMNS} for r in rows]
        json.dump({"format_version": FORMAT_VERSION, "trials": slim}, out)
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
        return tuple(int(s) for s in args.seeds.split(",") if s.strip())
    if args.trials is not None:
        return tuple(range(args.trials))
    return default


def _campaign_exit(rows: list[TrialRow]) -> int:
    return 0 if rows and all(r.success for r in rows) else 1


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
        try:
            return emit_report(paths, args.format)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2

    if args.command == "solve":
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if data.get("format_version") != FORMAT_VERSION:
            print(f"unsupported config format_version {data.get('format_version')!r}", file=sys.stderr)
            return 2
        config = RunConfig(
            experiment=data["experiment"],
            sizes=data.get("sizes", {}),
            rho=float(data.get("rho", 1.0)),
            seeds=tuple(data.get("seeds", [0])),
            solver=solver_from_dict(data.get("solver", {})),
            output_dir=data.get("output_dir", _default_out()),
            jobs=int(data.get("jobs", 1)),
            instance_path=data.get("instance_path"),
            points_path=data.get("points_path"),
        )
        config.solver = _solver_from_args(args, config.solver)
        config.seeds = _seeds_from_args(args, config.seeds)
        if args.out is not None:
            config.output_dir = args.out
        if args.jobs != 1:
            config.jobs = args.jobs
    elif args.command == "bench-lcqp":
        config = RunConfig(
            experiment="lcqp",
            sizes={"m": args.m, "n": args.n},
            rho=args.rho,
            seeds=_seeds_from_args(args, tuple(range(10))),
            solver=_solver_from_args(args),
            output_dir=args.out or _default_out(),
            jobs=args.jobs,
        )
    elif args.command == "bench-ev":
        config = RunConfig(
            experiment="ev",
            sizes={"n": args.n},
            seeds=_seeds_from_args(args, tuple(range(10))),
            solver=_solver_from_args(args),
            output_dir=args.out or _default_out(),
            jobs=args.jobs,
        )
    elif args.command == "bench-cluster":
        config = RunConfig(
            experiment="cluster",
            sizes={"r": args.r, "s": args.s},
            seeds=_seeds_from_args(args, (0,)),
            solver=_solver_from_args(args),
            output_dir=args.out or _default_out(),
            jobs=args.jobs,
            points_path=args.points,
        )
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {args.command}")

    try:
        rows = run_benchmark(config)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 2
    return _campaign_exit(rows)


if __name__ == "__main__":
    sys.exit(main())
