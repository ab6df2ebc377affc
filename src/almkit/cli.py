"""Benchmark command-line front end.

Subcommands:
  bench-lcqp / bench-ev / bench-cluster   seeded campaigns per family
  solve <config.json>                     campaign from a JSON config
  report <dir>                            re-verified summary to stdout

Each trial writes ``trial_<seed>.json`` (outer-iteration trajectory,
diagnostics verdicts, and enough instance information to rebuild the
problem); its records carry every field the solver sets on an
``OuterIterationRecord``.  Config files, trial files and the solver flags
read their keys, types and defaults from ``IalmConfig`` and the dual
policies.  ``--policy`` picks the dual policy (``penalty`` is the pure
penalty method), and ``--w0``, ``--growth-M`` and ``--growth-q`` set its
parameters: over the file's (or the default) policy when ``--policy`` is
absent or names that policy's variant, over the named variant's defaults
otherwise.  A campaign's keys, from a ``solve`` file or from the bench
flags, pass one reader that types them from ``RunConfig``'s fields and
``SIZE_KEYS``: an unknown key or a value of the wrong JSON type, at the top
level or in ``sizes``, ``solver`` or ``policy`` (a policy flag the policy
does not take included), is a usage error, and so is an unreadable points
or instance file or an instance file that lacks a field, each named before
anything is written.

``report`` re-measures the final KKT residuals from the trial files
instead of trusting the solver's own numbers, and a campaign ends by
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
import errno
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics as diag
from .core import ProblemSpec, as_vector, kkt_residual
from .ialm import (
    IalmConfig,
    PenaltyDual,
    PracticalDual,
    SolveReport,
    TheoreticalDual,
    ialm_solve,
)
from .ippm import SubsolverStall
from .problems import (
    FORMAT_VERSION,
    check_keys,
    field_from_json,
    fields_from_json,
    fields_to_json,
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
# The ``sizes`` keys each experiment's instances are built from, with the
# annotation each is read as; a custom experiment's instance file holds its
# sizes, and its ``sizes`` key is not read.
SIZE_KEYS = {"lcqp": {"m": "int", "n": "int"}, "ev": {"n": "int"},
             "cluster": {"r": "int", "s": "float"}, "custom": None}
# The generator of each experiment whose trial files refer to an instance by
# the generator's keyword arguments.
GENERATORS = {"lcqp": gen_lcqp, "ev": gen_ev}
# The IalmConfig fields that config files, trial files and the solver flags
# carry; a curvature override is code, not data.
SOLVER_FIELDS = tuple(f for f in fields(IalmConfig) if f.name != "curvature_override")
DEFAULT_SOLVER = IalmConfig()
# Each dual policy class under the variant name its JSON form carries.
POLICIES = {"practical": PracticalDual, "theoretical": TheoreticalDual, "penalty": PenaltyDual}


def policy_to_dict(policy) -> dict:
    """``{"variant": name, **fields}``, the JSON form of a dual policy."""
    variant = next(name for name, cls in POLICIES.items() if type(policy) is cls)
    return {"variant": variant} | fields_to_json(policy)


DEFAULT_VARIANT = policy_to_dict(DEFAULT_SOLVER.policy)["variant"]


def policy_from_dict(data: dict):
    data = field_from_json("policy", "dict", data)
    variant = data.get("variant", DEFAULT_VARIANT)
    if variant not in POLICIES:
        raise ValueError(f"unknown dual policy variant {variant!r}")
    check_keys(data, ["variant", *(f.name for f in fields(POLICIES[variant]))], "'policy'")
    return fields_from_json(POLICIES[variant], data, required=False)


def solver_to_dict(cfg: IalmConfig) -> dict:
    solver = {f.name: getattr(cfg, f.name) for f in SOLVER_FIELDS}
    return solver | {"policy": policy_to_dict(cfg.policy)}


def solver_from_dict(data: dict) -> IalmConfig:
    data = field_from_json("solver", "dict", data)
    check_keys(data, [f.name for f in SOLVER_FIELDS], "'solver'")
    if "policy" in data:
        data = data | {"policy": policy_from_dict(data["policy"])}
    return fields_from_json(IalmConfig, data, required=False)


@dataclass
class RunConfig:
    """One benchmark campaign: an experiment family, seeds, and solver setup.

    A cluster or custom experiment reads its points or instance file once,
    when the config is built, into ``source``.
    """

    experiment: str
    sizes: dict = field(default_factory=dict)
    rho: float = 1.0
    seeds: tuple = (0,)
    solver: IalmConfig = field(default_factory=IalmConfig)
    output_dir: str = field(default_factory=lambda: os.environ.get(ENV_OUTPUT_DIR, "."))
    instance_path: Optional[str] = None
    points_path: Optional[str] = None
    source: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.experiment not in SIZE_KEYS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        kinds = SIZE_KEYS[self.experiment]
        if kinds is not None:
            check_keys(self.sizes, kinds, "'sizes'")
            for key in kinds:
                if key not in self.sizes:
                    raise ValueError(f"{self.experiment} experiment needs sizes key {key!r}")
            self.sizes = {k: field_from_json(k, kind, self.sizes[k]) for k, kind in kinds.items()}
        if self.experiment == "cluster" and self.points_path is None:
            raise ValueError("cluster experiment needs \"points_path\"")
        if self.experiment == "custom" and self.instance_path is None:
            raise ValueError("custom experiment needs \"instance_path\"")
        if len(self.seeds) < 1:
            raise ValueError("at least one trial seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"duplicate trial seeds in {list(self.seeds)}")
        # The generators key their streams by a 64-bit unsigned seed.
        if not all(0 <= seed < 2**64 for seed in self.seeds):
            raise ValueError(f"trial seeds must lie in [0, 2^64), got {list(self.seeds)}")
        if self.experiment == "cluster":
            self.source = load_points_csv(self.points_path)
        elif self.experiment == "custom":
            self.source = instance_to_dict(load_instance(self.instance_path))


# The keys of a campaign config, each read as the RunConfig field it names.
CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig) if f.init}


def _config_values(data: dict) -> dict:
    """RunConfig's keyword arguments from the JSON-shaped keys of a config
    file or of the command-line flags.  Each key names a RunConfig field and
    holds a value of its JSON type; ``seeds`` holds integers and ``solver``
    what ``solver_from_dict`` reads (RunConfig itself reads ``sizes`` by its
    experiment's SIZE_KEYS).  An unknown key or a value of the wrong type
    raises ValueError naming the key."""
    check_keys(data, CONFIG_FIELDS, "config")
    values = {key: field_from_json(key, CONFIG_FIELDS[key], value) for key, value in data.items()}
    if "seeds" in values:
        values["seeds"] = tuple(field_from_json("seeds", "int", seed) for seed in values["seeds"])
    if "solver" in values:
        values["solver"] = solver_from_dict(values["solver"])
    return values


def _instance_ref(config: RunConfig, seed: int) -> dict:
    if config.experiment == "custom":
        return {"inline": config.source}
    if config.experiment == "cluster":
        inst = gen_clustering(config.source, **config.sizes, seed=seed)
        return {"inline": instance_to_dict(inst)}
    rho = {"rho": config.rho} if config.experiment == "lcqp" else {}
    return {"generator": {"kind": config.experiment, **config.sizes, **rho, "seed": seed}}


def build_problem(instance_ref: dict) -> ProblemSpec:
    """Rebuild the ProblemSpec a trial file refers to (deterministic)."""
    if "generator" in instance_ref:
        kwargs = dict(instance_ref["generator"])
        kind = kwargs.pop("kind", None)
        if kind not in GENERATORS:
            raise ValueError(f"unknown generator kind {kind!r}")
        return GENERATORS[kind](**kwargs).to_problem()
    if "inline" in instance_ref:
        return instance_from_dict(instance_ref["inline"]).to_problem()
    raise ValueError("instance_ref must contain 'generator' or 'inline'")


def _diagnostics_dict(report: SolveReport, problem: ProblemSpec, config: RunConfig) -> dict:
    out: dict = {}
    trace = diag.estimate_regularity_v(diag.trajectory_from_report(report), problem)
    out["regularity"] = asdict(trace)
    if len(report.records) >= 3:
        verdict = diag.check_feasibility_decay(report, config.solver.sigma)
        kept = ("passed", "constant", "max_product")
        out["feasibility_decay"] = {key: getattr(verdict, key) for key in kept}
    if isinstance(config.solver.policy, TheoreticalDual):
        c0 = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))
        y_max = diag.dual_norm_bound(config.solver.policy.w0, c0)
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
        "seed": seed,
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
        termination="converged" if report.success else "max_outer_exhausted",
        pres=report.kkt.pres,
        dres=report.kkt.dres,
        time_seconds=report.seconds,
        grad_evals=report.grad_evals,
        final_x=report.x.tolist(),
        final_y=report.y.tolist(),
        records=[fields_to_json(rec) for rec in report.records],
        diagnostics=_diagnostics_dict(report, problem, config),
    )
    return payload


def run_benchmark(config: RunConfig) -> int:
    """Run every seed and write its trial file, then write ``summary.csv``,
    the re-verified report of those files; return the report's exit code.

    Raises ValueError, before solving, when the output directory holds a
    trial file of another seed, which ``report`` would mix into this
    campaign (trial files of the campaign's own seeds are overwritten), and
    NotADirectoryError when the output path, or the nearest of its parents
    that exists, is not a directory.
    """
    out_dir = Path(config.output_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, "output path is not a directory", str(existing))
    own = {f"trial_{seed}.json" for seed in config.seeds}
    stray = sorted(p for p in out_dir.glob("trial_*.json") if p.name not in own)
    if stray:
        raise ValueError(f"{stray[0]} is not a trial of this campaign; use another output directory")

    payloads = [run_trial(config, seed) for seed in config.seeds]

    # Made only now, so that a trial that raises (a generator's parameter
    # error) leaves no directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
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
        kkt = kkt_residual(x, y, problem)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed report file {path}: {exc!r}") from None
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


def _add_solver_flags(p: argparse.ArgumentParser):
    d = DEFAULT_SOLVER
    p.add_argument("--eps", type=float, help=f"KKT tolerance (default {d.eps:g})")
    p.add_argument("--beta0", type=float, help=f"initial penalty (default {d.beta0:g})")
    p.add_argument("--sigma", type=float, help=f"penalty growth factor (default {d.sigma:g})")
    p.add_argument(
        "--policy",
        choices=tuple(POLICIES),
        help=f"dual step-size policy (default {DEFAULT_VARIANT})",
    )
    p.add_argument("--w0", type=float, help="w0 for the theoretical policy")
    p.add_argument("--growth-M", type=float, help="M for the practical policy")
    p.add_argument("--growth-q", type=int, help="q for the practical policy")
    p.add_argument("--max-outer", type=int, default=None)
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=str, default=None, help="comma-separated seed list")
    seeds.add_argument("--trials", type=int, default=None, help="number of trials (seeds 0..t-1)")
    p.add_argument("--out", type=str, default=None, help=f"output dir (env {ENV_OUTPUT_DIR})")


def _solver_from_args(args, base: IalmConfig) -> IalmConfig:
    """``base`` with the solver flags set over it.  The policy flags lay over
    ``base.policy``, or over the defaults of the variant ``--policy`` names
    when that differs from ``base.policy``'s."""
    flags = {f.name: getattr(args, f.name) for f in SOLVER_FIELDS if f.name != "policy"}
    policy = policy_to_dict(base.policy)
    if args.policy not in (None, policy["variant"]):
        policy = {"variant": args.policy}
    params = {"w0": args.w0, "M": args.growth_M, "q": args.growth_q}
    flags["policy"] = policy_from_dict(policy | {k: v for k, v in params.items() if v is not None})
    return replace(base, **{name: value for name, value in flags.items() if value is not None})


def _seeds_from_args(args) -> Optional[list]:
    if args.seeds is not None:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if not seeds:
            raise ValueError(f"--seeds {args.seeds!r} names no seed")
        return seeds
    if args.trials is not None:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        return list(range(args.trials))
    return None


def _campaign_config(args) -> RunConfig:
    """The campaign a bench-* or solve command asks for: the config file's
    keys, or the bench command's, with the keys its flags set over them.
    Raises ValueError on a usage error and OSError on an unreadable points
    or instance file."""
    if args.command == "solve":
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
        version = data.pop("format_version", None)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported config format_version {version!r}")
        if "experiment" not in data:
            raise ValueError(f"config {args.config} has no \"experiment\" key")
    elif args.command == "bench-lcqp":
        data = {"experiment": "lcqp", "sizes": {"m": args.m, "n": args.n}, "rho": args.rho,
                "seeds": list(range(10))}
    elif args.command == "bench-ev":
        data = {"experiment": "ev", "sizes": {"n": args.n}, "seeds": list(range(10))}
    else:
        data = {"experiment": "cluster", "sizes": {"r": args.r, "s": args.s},
                "points_path": args.points}
    flags = {"seeds": _seeds_from_args(args), "output_dir": args.out}
    values = _config_values(data) | _config_values({k: v for k, v in flags.items() if v is not None})
    values["solver"] = _solver_from_args(args, values.get("solver", DEFAULT_SOLVER))
    return RunConfig(**values)


class _OneLineParser(argparse.ArgumentParser):
    """Parser whose usage errors print one line on stderr, without the usage
    block, and exit 2; its subcommand parsers are of this class too."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def main(argv: Optional[list] = None) -> int:
    parser = _OneLineParser(prog="almkit", description=__doc__.splitlines()[0])
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
    except (OSError, TypeError, ValueError) as exc:
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
