import csv
import dataclasses
import io
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from almkit import cli
from almkit.core import kkt_residual
from almkit.diagnostics import CBAR_BOUND
from almkit.ialm import LOG2_SQ, IalmConfig, PenaltyDual, PracticalDual, TheoreticalDual
from almkit.problems import gen_lcqp, instance_to_dict, save_instance

TINY = ["--m", "3", "--n", "12"]
# The TINY lcqp experiment as a config file's keys.
LCQP = {"experiment": "lcqp", "sizes": {"m": 3, "n": 12}}
# A structurally complete trial file for the TINY lcqp instance.
VALID_TRIAL = {
    "seed": 0,
    "instance_ref": {"generator": {"kind": "lcqp", "m": 3, "n": 12, "rho": 1.0, "seed": 0}},
    "final_x": [0.0] * 12,
    "final_y": [0.0] * 3,
    "success": True,
}


def write_instance_without_q(path):
    """Write the TINY lcqp instance file of seed 0 without its "Q" field."""
    instance = instance_to_dict(gen_lcqp(3, 12, 1.0, 0))
    path.write_text(json.dumps({k: v for k, v in instance.items() if k != "Q"}))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestBenchCampaign:
    def test_row_counts_and_files(self, tmp_path):
        rc = cli.main(["bench-lcqp", *TINY, "--trials", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("trial_*.json")) == [
            "trial_0.json",
            "trial_1.json",
        ]
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0][:6] == list(cli.SUMMARY_COLUMNS)
        assert len(rows) == 1 + 2 + 1  # header, two trials, avg
        assert rows[-1][0] == "avg"

    def test_avg_row_is_arithmetic_mean(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "2", "--out", str(tmp_path)])
        rows = read_csv(tmp_path / "summary.csv")
        for col in (1, 2, 4):
            values = [float(r[col]) for r in rows[1:-1]]
            assert float(rows[-1][col]) == pytest.approx(np.mean(values), abs=1e-12)

    def test_identical_configs_reproduce_results(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "2", "--out", str(tmp_path / "a")])
        cli.main(["bench-lcqp", *TINY, "--trials", "2", "--out", str(tmp_path / "b")])
        a = read_csv(tmp_path / "a" / "summary.csv")
        b = read_csv(tmp_path / "b" / "summary.csv")
        for ra, rb in zip(a[1:], b[1:]):
            # Everything but the timing column is bit-reproducible.
            assert ra[:3] == rb[:3] and ra[4:] == rb[4:]

    def test_seed_list_flag(self, tmp_path):
        rc = cli.main(["bench-lcqp", *TINY, "--seeds", "5,9", "--out", str(tmp_path)])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("trial_*.json")) == [
            "trial_5.json",
            "trial_9.json",
        ]

    def test_failed_trial_flagged_and_campaign_continues(self, tmp_path):
        rc = cli.main(
            ["bench-lcqp", *TINY, "--trials", "2", "--max-outer", "1", "--out", str(tmp_path)]
        )
        assert rc == 1
        rows = read_csv(tmp_path / "summary.csv")
        assert len(rows) == 4
        assert all(r[5] == "0" for r in rows[1:-1])

    def test_env_var_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(tmp_path / "envout"))
        rc = cli.main(["bench-lcqp", *TINY, "--trials", "1"])
        assert rc == 0
        assert (tmp_path / "envout" / "trial_0.json").exists()


@pytest.mark.parametrize(
    "args, bad",
    [
        (["bench-lcqp", *TINY, "--trials", "0"], "got 0"),
        (["bench-lcqp", *TINY, "--seeds", ","], "','"),
        (["bench-lcqp", *TINY, "--seeds", "1,1"], "[1, 1]"),
        (["bench-lcqp", *TINY, "--eps", "-1"], "-1"),
        (["bench-lcqp", *TINY, "--sigma", "0.5"], "0.5"),
        (["bench-lcqp", *TINY, "--beta0", "0"], "got 0"),
        (["solve", "CONFIG"], '"experiment"'),
        (["solve", {"experiment": "lcqp"}], "'m'"),
        (["solve", {"experiment": "lcqp", "sizes": {"m": 3}}], "'n'"),
        (["solve", {"experiment": "ev"}], "'n'"),
        (["solve", {"experiment": "cluster", "points_path": "p.csv", "sizes": {"r": 2}}], "'s'"),
        (["solve", {"experiment": "cluster", "sizes": {"r": 2, "s": 5}}], '"points_path"'),
        (["solve", {"experiment": "custom"}], '"instance_path"'),
        (["bench-lcqp", "--eps", "nan"], "eps must be positive, got nan"),
        (["bench-lcqp", *TINY, "--max-outer", "0"], "max_outer must be positive"),
        (["solve", {**LCQP, "solver": {"penalty_mode": "false"}}],
         "unknown 'solver' key 'penalty_mode'"),
        (["solve", {**LCQP, "solver": {"max_outer": 40.7}}], "'max_outer' needs"),
        (["solve", {**LCQP, "solver": {"policy": {"variant": "practical", "q": 1.5}}}], "'q' needs"),
        (["solve", {**LCQP, "solver": {"eps": True}}], "'eps' needs"),
        (["solve", {**LCQP, "solver": {"policy": "practical"}}], "'policy' needs"),
        (["solve", {**LCQP, "solver": [1]}], "'solver' needs"),
        (["solve", {**LCQP, "sizes": {"m": 3, "n": 12.9}}], "'n' needs a JSON integer"),
        (["solve", {**LCQP, "sizes": {"m": "3", "n": 12}}], "'m' needs a JSON integer"),
        (["solve", {**LCQP, "sizes": {"m": 3, "n": 12, "k": 5}}], "unknown 'sizes' key 'k'"),
        (["solve", {**LCQP, "jobs": 1}], "unknown config key 'jobs'"),
        (["solve", {**LCQP, "rho": True}], "'rho' needs a JSON number"),
        (["solve", {**LCQP, "rho": "2"}], "'rho' needs a JSON number"),
        (["solve", {**LCQP, "seeds": [0.5]}], "'seeds' needs a JSON integer"),
        (["solve", {**LCQP, "seeds": [True]}], "'seeds' needs a JSON integer"),
        (["solve", {**LCQP, "seeds": ["1"]}], "'seeds' needs a JSON integer"),
        (["solve", {**LCQP, "seeds": 3}], "'seeds' needs a JSON array"),
        (["solve", {**LCQP, "seed": [4]}], "unknown config key 'seed'"),
        (["solve", {**LCQP, "solver": {"epsilon": 1e-6}}], "unknown 'solver' key 'epsilon'"),
        (["solve", {**LCQP, "solver": {"policy": {"variant": "theoretical", "W0": 2}}}], "'W0'"),
        (["solve", LCQP, "--trials", "0"], "got 0"),
        (["solve", {**LCQP, "points_path": 5}], "'points_path' needs a JSON string"),
        (["solve", {"experiment": 5}], "'experiment' needs a JSON string"),
        (["bench-lcqp", *TINY, "--policy", "practical", "--w0", "2"], "unknown 'policy' key 'w0'"),
        (["bench-cluster", "--points", "no_such_points.csv"], "no_such_points.csv"),
        (["solve", {"experiment": "custom", "instance_path": "no_such_instance.json"}],
         "no_such_instance.json"),
        (["bench-lcqp", *TINY, "--rho", "nan"], "rho must be positive, got nan"),
        (["solve", {**LCQP, "solver": {"policy": {"variant": "power"}}}],
         "unknown dual policy variant 'power'"),
        (["bench-lcqp", *TINY, "--w0", "2"], "unknown 'policy' key 'w0'"),
        (["solve", {"experiment": "custom", "instance_path": "NO_Q"}], "needs key 'Q'"),
        (["solve", {**LCQP, "solver": {"max_inner": 10**6}}], "unknown 'solver' key 'max_inner'"),
        (["bench-lcqp", *TINY, "--seeds=-1"], "trial seeds must lie in [0, 2^64), got [-1]"),
        (["solve", {**LCQP, "seeds": [0, 2**64]}], f"must lie in [0, 2^64), got [0, {2**64}]"),
    ],
)
def test_usage_error_exits_2_with_one_line(tmp_path, capsys, args, bad):
    # "CONFIG" names a config without an experiment; a dict is written to a
    # config file of its own, with "NO_Q" naming an instance file without Q.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format_version": 1, "sizes": {"m": 3, "n": 12}}))
    no_q = write_instance_without_q(tmp_path / "no_q.json")
    args = list(args)
    for i, a in enumerate(args):
        if isinstance(a, dict):
            a = {k: str(no_q) if v == "NO_Q" else v for k, v in a.items()}
            path = tmp_path / f"config_{i}.json"
            path.write_text(json.dumps({"format_version": 1, **a}))
            args[i] = str(path)
    args = [str(config) if a == "CONFIG" else a for a in args]
    rc = cli.main([*args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert bad in err and err.count("\n") == 1
    assert not list(tmp_path.rglob("trial_*.json"))


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--beta0", "inf"], "beta0"),
        (["--sigma", "inf"], "sigma"),
        (["--eps", "inf"], "eps"),
        (["--policy", "theoretical", "--w0", "inf"], "w0"),
        (["--growth-M", "inf"], "M"),
    ],
)
def test_infinite_solver_value_exits_2_before_writing(tmp_path, capsys, flags, key):
    # A non-finite solver value is a usage error, refused before the
    # output directory is made.
    out = tmp_path / "o"
    rc = cli.main(["bench-lcqp", *TINY, "--trials", "1", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and f"{key} must be" in err and "inf" in err
    assert not out.exists()


def test_jobs_is_not_a_flag(tmp_path, capsys):
    # Trials run one after another; --jobs is an unknown flag, which
    # argparse refuses with exit code 2 before anything is solved.
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--jobs", "2", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --jobs 2" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["bench-lcqp", "--trials", "abc"], "almkit bench-lcqp: error: argument --trials: invalid"),
        (["bench-lcqp", "--trials", "1", "--jobs", "2"], "almkit: error: unrecognized arguments"),
        (["bench-ev", "--policy", "fast"], "almkit bench-ev: error: argument --policy: invalid"),
        ([], "almkit: error: the following arguments are required: command"),
        (["bench-lcqp", "--m", "4", "--n", "40", "--seeds", "0", "--trials", "3"],
         "almkit bench-lcqp: error: argument --trials: not allowed with argument --seeds"),
        (["bench-lcqp", "--m", "4", "--n", "40", "--max-inner", "5"],
         "almkit: error: unrecognized arguments: --max-inner 5"),
    ],
)
def test_argparse_usage_error_is_one_line_on_stderr(tmp_path, capsys, args, message):
    # argparse's own errors print one line, without the usage block, and
    # exit 2, as the campaign's usage errors do.
    with pytest.raises(SystemExit) as exit_:
        cli.main([*args, "--out", str(tmp_path / "o")] if args else args)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


class TestSolverCodec:
    @pytest.mark.parametrize("drop_defaults", [False, True])
    @pytest.mark.parametrize(
        "policy",
        [PracticalDual(), TheoreticalDual(w0=2.5), PracticalDual(M=0.5, q=2), PenaltyDual()],
    )
    def test_round_trip_through_json(self, policy, drop_defaults):
        cfg = IalmConfig(
            beta0=0.5, sigma=2.0, eps=1e-4, policy=policy, max_outer=7,
        )
        data = json.loads(json.dumps(cli.solver_to_dict(cfg)))
        if drop_defaults:
            # Leave out every value the decoder fills in from the config classes.
            default = cli.solver_to_dict(IalmConfig())
            policy_default = cli.policy_to_dict(type(policy)()) | {
                "variant": default["policy"]["variant"]
            }
            data = {k: v for k, v in data.items() if v != default[k]} | {
                "policy": {k: v for k, v in data["policy"].items() if v != policy_default[k]}
            }
        assert cli.solver_from_dict(data) == cfg

    def test_defaults_come_from_the_config_class(self):
        assert cli.solver_from_dict({}) == IalmConfig()
        assert cli.policy_from_dict({"variant": "practical"}) == PracticalDual()
        assert cli.solver_from_dict({"max_outer": 40.0}).max_outer == 40

    def test_trial_records_carry_every_field_the_solver_sets(self, tmp_path):
        config = cli.RunConfig("lcqp", {"m": 3, "n": 12}, output_dir=str(tmp_path))
        payload = cli.run_trial(config, 0)
        report = cli.ialm_solve(cli.build_problem(payload["instance_ref"]), config.solver)
        expected = [
            {f.name for f in dataclasses.fields(rec) if getattr(rec, f.name) is not None}
            for rec in report.records
        ]
        assert [set(rec) for rec in payload["records"]] == expected
        assert payload["records"][-1]["x"] == report.records[-1].x.tolist()


class TestTrialPayload:
    def test_trajectory_and_diagnostics_present(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "trial_0.json").read_text())
        assert data["format_version"] == 1
        assert data["success"] is True
        assert data["records"], "outer-iteration trajectory missing"
        rec = data["records"][0]
        for key in ("k", "beta", "w", "pres", "dres", "y_norm", "x"):
            assert key in rec
        assert "regularity" in data["diagnostics"]
        assert "feasibility_decay" in data["diagnostics"]
        assert data["diagnostics"]["regularity"]["supported"] is True

    def test_records_carry_the_subproblem_work(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        data = json.loads((tmp_path / "trial_0.json").read_text())
        records = data["records"]
        assert records[0]["sub_eps"] == data["solver"]["eps"]
        assert all(rec["sub_eps"] >= records[0]["sub_eps"] for rec in records)
        assert all(1 <= rec["ippm_steps"] <= rec["apg_iters"] for rec in records)

    def test_records_carry_the_time_split(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        records = json.loads((tmp_path / "trial_0.json").read_text())["records"]
        for rec in records:
            assert rec["sub_s"] > 0.0 and rec["cert_s"] > 0.0
            assert rec["sub_s"] + rec["cert_s"] <= rec["seconds"]

    def test_records_carry_the_curvature_estimate(self, tmp_path):
        # Each record's L is where the next subproblem's APG starts.
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        records = json.loads((tmp_path / "trial_0.json").read_text())["records"]
        assert all(0.0 < rec["L"] < math.inf for rec in records)
        assert len({rec["L"] for rec in records}) > 1

    def test_theoretical_policy_records_dual_bound_verdict(self, tmp_path):
        rc = cli.main(
            [
                "bench-lcqp",
                *TINY,
                "--trials",
                "1",
                "--policy",
                "theoretical",
                "--w0",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        data = json.loads((tmp_path / "trial_0.json").read_text())
        bound = data["diagnostics"]["dual_bound"]
        assert bound["holds"] is True
        assert bound["max_y_norm"] <= bound["y_max"]

    def test_theoretical_dual_bound_is_the_closed_form(self, tmp_path):
        # y_max = w0 (log 2)^2 ||c(x0)|| CBAR_BOUND, bit for bit through JSON.
        flags = ["--trials", "1", "--policy", "theoretical", "--w0", "2.5"]
        assert cli.main(["bench-lcqp", *TINY, *flags, "--out", str(tmp_path)]) == 0
        data = json.loads((tmp_path / "trial_0.json").read_text())
        problem = cli.build_problem(data["instance_ref"])
        c0 = float(np.linalg.norm(problem.constraints.evaluate(problem.x0)))
        y_max = data["diagnostics"]["dual_bound"]["y_max"]
        assert y_max == 2.5 * LOG2_SQ * c0 * CBAR_BOUND


class TestReport:
    def test_header_is_exact(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        buf = io.StringIO()
        cli.emit_report(sorted(tmp_path.glob("trial_*.json")), "csv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "trial,pres,dres,time,grad_evals,success"
        assert len(lines) == 3  # header, one trial, avg

    @pytest.mark.parametrize("name", ["empty", "missing"])
    def test_directory_without_trials_names_it(self, tmp_path, capsys, name):
        # An empty or mistyped directory is a failed campaign, not a pass.
        target = tmp_path / name
        if name == "empty":
            target.mkdir()
        rc = cli.main(["report", str(target)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert str(target) in captured.err

    def test_residuals_are_independently_recomputed(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        buf = io.StringIO()
        cli.emit_report(sorted(tmp_path.glob("trial_*.json")), "csv", buf)
        row = buf.getvalue().splitlines()[1].split(",")
        data = json.loads((tmp_path / "trial_0.json").read_text())
        problem = cli.build_problem(data["instance_ref"])
        res = kkt_residual(
            np.asarray(data["final_x"]), np.asarray(data["final_y"]), problem
        )
        assert float(row[1]) == res.pres
        assert float(row[2]) == res.dres

    def test_json_mode_round_trips(self, tmp_path, capsys):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        rc = cli.main(["report", str(tmp_path), "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format_version"] == 1
        trial = data["trials"][0]
        summary = read_csv(tmp_path / "summary.csv")[1]
        assert trial["pres"] == float(summary[1])
        assert trial["dres"] == float(summary[2])

    @pytest.mark.parametrize("extra, expected", [([], 0), (["--max-outer", "1"], 1)])
    def test_campaign_summary_is_the_report(self, tmp_path, capsys, extra, expected):
        rc = cli.main(["bench-lcqp", *TINY, "--trials", "2", *extra, "--out", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path)]) == rc == expected
        assert capsys.readouterr().out.encode() == (tmp_path / "summary.csv").read_bytes()

    def test_campaign_with_unverifiable_trial_exits_2(self, tmp_path, capsys, monkeypatch):
        def unreadable(path):
            raise ValueError(f"malformed report file {path}: unreadable")

        monkeypatch.setattr(cli, "reverify_trial", unreadable)
        rc = cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "trial_0.json" in err
        assert not (tmp_path / "summary.csv").exists()

    def test_campaign_refuses_another_campaigns_trials(self, tmp_path, capsys):
        # The report reads every trial file in a directory, so a campaign
        # must not add its trials to another seed's.
        cli.main(["bench-lcqp", *TINY, "--trials", "2", "--out", str(tmp_path)])
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        rc = cli.main(["bench-lcqp", *TINY, "--seeds", "0", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and "trial_1.json" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        # The same seeds may be re-run into the same directory.
        assert cli.main(["bench-lcqp", *TINY, "--seeds", "1,0", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)

    def test_stalled_trial_is_strict_json(self, tmp_path, capsys, monkeypatch):
        def reject(constant):
            raise ValueError(f"{constant} is not RFC 8259 JSON")

        # One APG iteration per call certifies nothing, so the first
        # subproblem stalls.
        monkeypatch.setattr("almkit.apg.MAX_ITER", 1)
        rc = cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        assert rc == 1
        trial = json.loads((tmp_path / "trial_0.json").read_text(), parse_constant=reject)
        assert trial["termination"].startswith("subsolver_stall")
        assert trial["pres"] is None and trial["time_seconds"] is None
        assert trial["grad_evals"] > 0
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path), "--format", "json"]) == 1
        row = json.loads(capsys.readouterr().out, parse_constant=reject)["trials"][0]
        assert row["pres"] is None and row["dres"] is None and row["time"] is None
        assert row["grad_evals"] == trial["grad_evals"] and row["success"] is False
        assert read_csv(tmp_path / "summary.csv")[1][1:4] == ["nan"] * 3

    def test_trial_file_with_a_retired_solver_key_reverifies(self, tmp_path, capsys):
        # Trial files written while IalmConfig had max_inner carry it in
        # their solver block; the report reads only eps there.
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path)]) == 0
        before = capsys.readouterr().out
        path = tmp_path / "trial_0.json"
        data = json.loads(path.read_text())
        data["solver"]["max_inner"] = 10**6
        path.write_text(json.dumps(data))
        assert cli.main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().out == before

    def test_exit_code_recomputed_from_tampered_iterate(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        path = tmp_path / "trial_0.json"
        data = json.loads(path.read_text())
        assert data["success"] is True
        data["final_x"] = [v + 1.0 for v in data["final_x"]]
        path.write_text(json.dumps(data))
        assert cli.main(["report", str(tmp_path)]) == 1

    def test_malformed_file_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "trial_0.json"
        bad.write_text("{ not json")
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        assert "trial_0.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"final_x": None},
            {"seed": 0, "final_x": [0.0, 1.0]},
            {"seed": 0, "final_x": [0.0, 1.0], "final_y": [0.0]},
            [0, 1],
            "trial",
            {**VALID_TRIAL, "solver": "fast"},
            {**VALID_TRIAL, "solver": {"eps": "tight"}},
        ],
    )
    def test_structurally_malformed_trial_names_the_file(self, tmp_path, capsys, payload):
        (tmp_path / "trial_0.json").write_text(json.dumps(payload))
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "malformed report file" in err and "trial_0.json" in err

    def test_iterate_of_wrong_length_names_the_file(self, tmp_path, capsys):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        path = tmp_path / "trial_0.json"
        data = json.loads(path.read_text())
        data["final_x"] = data["final_x"][:-1]
        path.write_text(json.dumps(data))
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        assert "trial_0.json" in capsys.readouterr().err

    def test_iterate_outside_the_domain_names_the_file(self, tmp_path, capsys):
        cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(tmp_path)])
        path = tmp_path / "trial_0.json"
        data = json.loads(path.read_text())
        data["final_x"][0] = 99.0
        path.write_text(json.dumps(data))
        capsys.readouterr()
        rc = cli.main(["report", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"malformed report file {path}" in err and "outside the domain" in err


class TestSolveConfig:
    def write_config(self, tmp_path, **overrides):
        config = {
            "format_version": 1,
            "experiment": "lcqp",
            "sizes": {"m": 3, "n": 12},
            "rho": 1.0,
            "seeds": [0],
            "solver": {"eps": 1e-3, "beta0": 0.01, "sigma": 3.0,
                       "policy": {"variant": "practical"}},
            "output_dir": str(tmp_path / "out"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_solve_from_config(self, tmp_path):
        path = self.write_config(tmp_path)
        rc = cli.main(["solve", str(path)])
        assert rc == 0
        assert (tmp_path / "out" / "trial_0.json").exists()

    def test_flags_override_config(self, tmp_path):
        path = self.write_config(tmp_path)
        rc = cli.main(["solve", str(path), "--out", str(tmp_path / "other"), "--seeds", "3"])
        assert rc == 0
        assert (tmp_path / "other" / "trial_3.json").exists()
        data = json.loads((tmp_path / "other" / "trial_3.json").read_text())
        assert data["seed"] == 3

    def test_custom_instance_solved_inline(self, tmp_path):
        inst = gen_lcqp(3, 12, 1.0, seed=4)
        inst_path = tmp_path / "inst.json"
        save_instance(inst, str(inst_path))
        path = self.write_config(
            tmp_path, experiment="custom", instance_path=str(inst_path)
        )
        rc = cli.main(["solve", str(path)])
        assert rc == 0
        data = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert data["instance_ref"]["inline"]["kind"] == "lcqp"

    def test_seeds_flag_overrides_config(self, tmp_path):
        # An explicit --seeds 0 wins over the file's value, here one that
        # would be a usage error of its own.
        path = self.write_config(tmp_path, seeds=[1, 1])
        assert cli.main(["solve", str(path), "--seeds", "0"]) == 0
        assert (tmp_path / "out" / "trial_0.json").exists()

    def test_bench_and_solve_write_the_same_trial(self, tmp_path):
        cli.main(["bench-lcqp", *TINY, "--seeds", "0", "--out", str(tmp_path / "bench")])
        path = self.write_config(tmp_path, solver={})
        cli.main(["solve", str(path)])
        bench = json.loads((tmp_path / "bench" / "trial_0.json").read_text())
        solve = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert bench["instance_ref"] == solve["instance_ref"]
        assert list(bench["instance_ref"]["generator"]) == ["kind", "m", "n", "rho", "seed"]
        assert bench["solver"] == solve["solver"]

    def test_readme_schema_example_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config file schema", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        data = json.loads(re.sub(r"//.*", "", example))
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(data))
        rc = cli.main(["solve", str(path), "--seeds", "0", "--max-outer", "1",
                       "--out", str(tmp_path / "out")])
        assert rc in (0, 1)
        trial = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert trial["solver"] == data["solver"] | {"max_outer": 1}
        assert trial["instance_ref"]["generator"] == {
            "kind": data["experiment"], **data["sizes"], "rho": data["rho"], "seed": 0
        }

    @pytest.mark.parametrize("experiment, key", [("cluster", "points_path"),
                                                 ("custom", "instance_path")])
    def test_unreadable_input_file_writes_nothing(self, tmp_path, capsys, experiment, key):
        path = self.write_config(
            tmp_path, experiment=experiment, sizes={"r": 2, "s": 4.0}, **{key: "missing.file"}
        )
        assert cli.main(["solve", str(path)]) == 2
        assert "missing.file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["generator", "instance", "seed", "points_cell", "nan_entry"])
    def test_input_error_leaves_no_output_directory(self, tmp_path, capsys, case):
        # A generator's parameter error is raised while the trials are built;
        # an instance file's missing field or NaN entry, a points file's
        # non-finite cell and a seed the generators cannot key a stream by
        # while the config is read.  Each is named in the one stderr line.
        points = tmp_path / "points.csv"
        points.write_text("x,y\n0,1\n2,inf\n3,4\n")
        inst_path = write_instance_without_q(tmp_path / "inst.json")
        if case == "nan_entry":
            instance = instance_to_dict(gen_lcqp(3, 12, 1.0, 0))
            instance["Q"][1][2] = math.nan
            inst_path.write_text(json.dumps(instance))
        custom = ["solve", str(self.write_config(tmp_path, experiment="custom",
                                                 instance_path=str(inst_path)))]
        argv, named = {
            "generator": (["bench-lcqp", *TINY, "--rho", "nan", "--trials", "1"], "rho"),
            "instance": (custom, "needs key 'Q'"),
            "seed": (["bench-lcqp", *TINY, "--seeds=-1"], "[-1]"),
            "points_cell": (["bench-cluster", "--points", str(points), "--r", "2"],
                            f"{points}: line 3: non-finite cell"),
            "nan_entry": (custom, "'Q' holds NaN"),
        }[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(tmp_path / "o3")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and named in err
        assert not (tmp_path / "o3").exists()

    def test_policy_flag_overlays_the_files_policy(self, tmp_path):
        theoretical = {"policy": {"variant": "theoretical", "w0": 2}}
        path = self.write_config(tmp_path, solver=theoretical)
        assert cli.main(["solve", str(path), "--w0", "5"]) == 0
        trial = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert trial["solver"]["policy"] == {"variant": "theoretical", "w0": 5.0}
        # The file's own variant keeps the overlay; another starts from its
        # defaults.
        assert cli.main(["solve", str(path), "--policy", "theoretical", "--w0", "3"]) == 0
        trial = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert trial["solver"]["policy"] == {"variant": "theoretical", "w0": 3.0}
        assert cli.main(["solve", str(path), "--policy", "practical", "--growth-q", "1"]) == 0
        trial = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert trial["solver"]["policy"] == {"variant": "practical", "M": 1.0, "q": 1}

    def test_points_file_read_once_per_campaign(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text("0,0\n1,0\n0,1\n1,1\n")
        reads = []
        load = cli.load_points_csv
        monkeypatch.setattr(cli, "load_points_csv", lambda path: reads.append(path) or load(path))
        cli.main(["bench-cluster", "--points", str(csv_path), "--r", "2", "--s", "4",
                  "--trials", "3", "--max-outer", "1", "--out", str(tmp_path / "out")])
        assert reads == [str(csv_path)]
        assert len(list((tmp_path / "out").glob("trial_*.json"))) == 3

    def test_unsupported_config_version_rejected(self, tmp_path, capsys):
        path = self.write_config(tmp_path, format_version=2)
        rc = cli.main(["solve", str(path)])
        assert rc == 2
        assert "format_version" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        rc = cli.main(["solve", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_unwritable_output_dir_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "run_trial", lambda config, seed: solved.append(seed))
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        for out in (blocker, blocker / "sub"):
            rc = cli.main(["bench-lcqp", *TINY, "--trials", "1", "--out", str(out)])
            assert rc == 2
            assert "I/O failure" in capsys.readouterr().err
        assert solved == []

    def test_bench_cluster_from_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 2))
        csv_path = tmp_path / "pts.csv"
        csv_path.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n"
        )
        rc = cli.main(
            [
                "bench-cluster",
                "--points",
                str(csv_path),
                "--r",
                "2",
                "--s",
                "4.0",
                "--trials",
                "1",
                "--eps",
                "1e-2",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        data = json.loads((tmp_path / "out" / "trial_0.json").read_text())
        assert data["instance_ref"]["inline"]["kind"] == "cluster"
        assert rc in (0, 1)  # small clustering may or may not certify at 1e-2
