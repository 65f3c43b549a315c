import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import msrcpspr
from msrcpspr import cli, queueing
from msrcpspr.cli import DEFAULT_HORIZON, build_parser, main, simulation_rows
from msrcpspr.instance import instance_from_files
from msrcpspr.queueing import InstabilityError
from msrcpspr.schedule import TOL, CycleError

REPO_DIR = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_DIR / "tests" / "data"

CYCLIC_SM = """\
************************************************************************
jobs (incl. supersource/sink ):  5
RESOURCES
  - renewable                 :  1   R
************************************************************************
PRECEDENCE RELATIONS:
jobnr.    #modes  #successors   successors
   1        1          1           2
   2        1          1           3
   3        1          1           2
   4        1          1           5
   5        1          0
************************************************************************
REQUESTS/DURATIONS:
jobnr. mode duration  R 1
------------------------------------------------------------------------
   1      1     0       0
   2      1     2       1
   3      1     3       1
   4      1     4       1
   5      1     0       0
************************************************************************
"""


@pytest.fixture()
def toy_paths(data_dir):
    return str(data_dir / "toy5.sm"), str(data_dir / "toy5_skills.json")


class TestValidate:
    def test_valid_instance_exit_zero(self, toy_paths, tmp_path, capsys):
        sm, ext = toy_paths
        code = main(["validate", "--instance", sm, "--extension", ext, "--out", str(tmp_path)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_cyclic_file_exit_two(self, tmp_path, toy_paths, capsys):
        bad = tmp_path / "cyclic.sm"
        bad.write_text(CYCLIC_SM, encoding="utf-8")
        code = main(["validate", "--instance", str(bad), "--extension", toy_paths[1],
                     "--out", str(tmp_path)])
        assert code == 2
        assert "cycle" in capsys.readouterr().err

    def test_missing_extension_exit_two(self, toy_paths, tmp_path, capsys):
        code = main(["validate", "--instance", toy_paths[0], "--out", str(tmp_path)])
        assert code == 2
        assert "extension required" in capsys.readouterr().err

    def test_missing_file_exit_two(self, tmp_path, toy_paths):
        code = main(["validate", "--instance", str(tmp_path / "nope.sm"),
                     "--extension", toy_paths[1], "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--instance", "--extension", "--out"])
    def test_unreadable_path_exit_two(self, toy_paths, tmp_path, capsys, flag):
        # A directory where a file is read, or a file where --out makes a
        # directory: an input error, not a traceback with exit 1.
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = ["pareto", "--instance", toy_paths[0], "--extension", toy_paths[1], "--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = str(taken) if flag == "--out" else str(tmp_path)
        code = main(argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda s: s.update(resources=[1]), "resource entry 1"),
            (lambda s: s.update(skill_count=None), "skill_count"),
            (lambda s: s["resources"][0].update(cost_per_skill=[100]), "'cost_per_skill': [100]"),
            (lambda s: s["requirements"][0].update(count=None), "'count': None"),
            (lambda s: s.update(requirements=None), "'requirements' must be a JSON list"),
        ],
        ids=["resource-not-object", "null-skill-count", "cost-list", "null-count",
             "null-requirements"],
    )
    def test_wrongly_typed_sidecar_exit_two(self, toy_paths, tmp_path, capsys, edit, named):
        sidecar = json.loads(Path(toy_paths[1]).read_text(encoding="utf-8"))
        edit(sidecar)
        ext = tmp_path / "typed.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main(["validate", "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda s: s["requirements"][0].update(count=1.9), "'count': 1.9"),
            (lambda s: s["requirements"][0].update(count=True), "'count': True"),
            (lambda s: s["requirements"][0].update(count=math.inf), "'count': inf"),
            (lambda s: s["requirements"][0].update(activity=2.5), "'activity': 2.5"),
            (lambda s: s["requirements"][0].update(skill=True), "'skill': True"),
            (lambda s: s["resources"][0].update(id=1.5), "'id': 1.5"),
            (lambda s: s["resources"][0].update(skills=[1.2]), "'skills': [1.2]"),
            (lambda s: s.update(skill_count=2.5), "skill_count must be an integer, got 2.5"),
            (lambda s: s.update(skill_count=True), "skill_count must be an integer, got True"),
            (lambda s: s["requirements"][0].update(count="1"), "'count': '1'"),
            (lambda s: s["requirements"][0].update(activity="2"), "'activity': '2'"),
            (lambda s: s["requirements"][0].update(skill="1"), "'skill': '1'"),
            (lambda s: s["resources"][0].update(id="1"), "'id': '1'"),
            (lambda s: s["resources"][0].update(skills=["1"]), "'skills': ['1']"),
            (lambda s: s.update(skill_count="2"), "skill_count must be an integer, got '2'"),
        ],
        ids=["fractional-count", "bool-count", "infinite-count", "fractional-activity",
             "bool-skill", "fractional-id", "fractional-skill", "fractional-skill-count",
             "bool-skill-count", "string-count", "string-activity", "string-skill",
             "string-id", "string-skills", "string-skill-count"],
    )
    def test_non_integer_sidecar_value_exit_two(self, toy_paths, tmp_path, capsys, edit, named):
        # ``int`` would truncate these (1.9 -> 1, True -> 1) or parse them
        # ("1" -> 1) and load another instance than the file states, or
        # raise OverflowError (infinity).
        sidecar = json.loads(Path(toy_paths[1]).read_text(encoding="utf-8"))
        edit(sidecar)
        ext = tmp_path / "fractional.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main(["validate", "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda s: s["resources"][0].update(service_rate=True), "'service_rate': True"),
            (lambda s: s["resources"][0].update(retrieval_rate=False), "'retrieval_rate': False"),
            (lambda s: s["resources"][0].update(disruption_rate="4.5"),
             "'disruption_rate': '4.5'"),
            (lambda s: s["resources"][0].update(cost_per_skill={"1": True}),
             "'cost_per_skill': {'1': True}"),
            (lambda s: s["resources"][0].update(cost_per_skill={"1": "100"}),
             "'cost_per_skill': {'1': '100'}"),
        ],
        ids=["bool-service-rate", "bool-retrieval-rate", "string-disruption-rate",
             "bool-cost", "string-cost"],
    )
    def test_non_real_sidecar_value_exit_two(self, toy_paths, tmp_path, capsys, edit, named):
        # ``float`` would read these as numbers (True -> 1.0, "4.5" -> 4.5).
        sidecar = json.loads(Path(toy_paths[1]).read_text(encoding="utf-8"))
        edit(sidecar)
        ext = tmp_path / "typed.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main(["validate", "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", ["validate", "solve", "pareto"])
    @pytest.mark.parametrize("cost", [math.nan, math.inf, -100.0], ids=["nan", "inf", "negative"])
    def test_bad_skill_cost_exit_two(self, toy_paths, tmp_path, capsys, command, cost):
        # A NaN cost would reach the solver as an infeasible front or a
        # schedule whose cost cannot be printed, and the model's usage costs
        # are nonnegative: every command rejects all three as invalid input.
        sidecar = json.loads(Path(toy_paths[1]).read_text(encoding="utf-8"))
        sidecar["resources"][0]["cost_per_skill"]["1"] = cost
        ext = tmp_path / "cost.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main([command, "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        captured = capsys.readouterr()
        assert f"resource 1: cost of skill 1 must be finite and >= 0, is {cost!r}" in (
            captured.out + captured.err
        )

    @pytest.mark.parametrize("command", ["validate", "solve", "pareto"])
    @pytest.mark.parametrize("key", ["01", " 1"])
    def test_second_skill_cost_exit_two(self, toy_paths, tmp_path, capsys, command, key):
        # "01" and " 1" read as skill 1, which already has a cost: the
        # resource would otherwise cost whichever value came last.
        sidecar = json.loads(Path(toy_paths[1]).read_text(encoding="utf-8"))
        sidecar["resources"][0]["cost_per_skill"][key] = 999
        ext = tmp_path / "cost.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main([command, "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: resource 1 gives skill 1 more than one cost" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "pareto"])
    def test_repeated_json_key_exit_two(self, toy_paths, tmp_path, capsys, command):
        # Two costs under one key "1": the later one would win silently.
        text = Path(toy_paths[1]).read_text(encoding="utf-8")
        ext = tmp_path / "repeated.json"
        ext.write_text(text.replace('{"1": 100}', '{"1": 999, "1": 100}'), encoding="utf-8")
        code = main([command, "--instance", toy_paths[0], "--extension", str(ext),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: sidecar repeats key '1' in one object" in capsys.readouterr().err


def _toy5_variant(tmp_path, data_dir, durations=None, rates=None):
    """toy5 with some durations replaced, or resource 1's (disruption,
    retrieval, service) rates replaced; returns (sm, sidecar) paths."""
    import dataclasses

    from msrcpspr.instance import read_psplib, serialize_psplib

    partial = read_psplib(data_dir / "toy5.sm")
    if durations:
        values = list(partial.durations)
        for job, duration in durations.items():
            values[job - 1] = duration
        partial = dataclasses.replace(partial, durations=tuple(values))
    sm = tmp_path / "variant.sm"
    sm.write_text(serialize_psplib(partial), encoding="utf-8")
    sidecar = json.loads((data_dir / "toy5_skills.json").read_text(encoding="utf-8"))
    if rates:
        names = ("disruption_rate", "retrieval_rate", "service_rate")
        sidecar["resources"][0].update(zip(names, rates))
    ext = tmp_path / "variant.json"
    ext.write_text(json.dumps(sidecar), encoding="utf-8")
    return str(sm), str(ext)


def _toy5_infeasible(tmp_path, data_dir):
    """toy5 with requirement 1 (activity 2, skill 1) raised to 3 of its 2
    masters: valid input, and no assignment exists."""
    sidecar = json.loads((data_dir / "toy5_skills.json").read_text(encoding="utf-8"))
    sidecar["requirements"][0]["count"] = 3
    ext = tmp_path / "infeasible.json"
    ext.write_text(json.dumps(sidecar), encoding="utf-8")
    return str(data_dir / "toy5.sm"), str(ext)


@pytest.fixture()
def j20_cut(data_dir, monkeypatch):
    """j20's paths, with every solve cut at 300 nodes: the payoff table's
    makespan-first row stops at makespan 78.5 (the optimum is 205/3)."""
    from msrcpspr import cli
    from msrcpspr.solver import SolveLimits

    monkeypatch.setattr(cli, "_limits", lambda args: SolveLimits(node_limit=300))
    return str(data_dir / "j20.sm"), str(data_dir / "j20_skills.json")


_SWEEP_ONE = ["--parameter", "retrieval", "--multipliers", "1"]


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            *[f"{cmd} --seed 3" for cmd in ("validate", "solve", "pareto", "sweep", "gantt")],
            *[f"{cmd} --time-limit 5" for cmd in ("validate", "simulate")],
            *[f"{cmd} --no-timing" for cmd in ("validate", "solve", "sweep", "simulate", "gantt")],
            *[f"{cmd} --no-bypass" for cmd in ("pareto", "sweep")],
            "solve --eps 1e-4",
        ],
    )
    def test_flag_without_effect_is_rejected(self, toy_paths, tmp_path, argv):
        command, *flag = argv.split()
        sm, ext = toy_paths
        args = [command, "--instance", sm, "--extension", ext, "--out", str(tmp_path), *flag]
        if command == "sweep":
            args += ["--parameter", "retrieval"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            ("simulate --seed 3", "seed", 3),
            ("pareto --no-timing", "no_timing", True),
            *[(f"{cmd} --time-limit 5", "time_limit", 5.0)
              for cmd in ("solve", "pareto", "sweep", "gantt")],
        ],
    )
    def test_flag_is_accepted_where_it_acts(self, argv, dest, value):
        command, *flag = argv.split()
        args = [command, "--instance", "x.sm", *flag]
        if command == "sweep":
            args += ["--parameter", "retrieval"]
        assert getattr(build_parser().parse_args(args), dest) == value


class TestInputChecked:
    @pytest.mark.parametrize("command", ["pareto", "solve"])
    @pytest.mark.parametrize(
        "durations,violation",
        [
            ({1: 4}, "dummy activity 1 must have duration 0"),
            ({3: -2}, "activity 3 has negative duration -2"),
        ],
        ids=["dummy-duration", "negative-duration"],
    )
    def test_invalid_instance_exits_two(
        self, data_dir, tmp_path, capsys, command, durations, violation
    ):
        sm, ext = _toy5_variant(tmp_path, data_dir, durations=durations)
        assert main(["validate", "--instance", sm, "--extension", ext,
                     "--out", str(tmp_path / "v")]) == 2
        capsys.readouterr()
        code = main([command, "--instance", sm, "--extension", ext, "--out", str(tmp_path / "o")])
        assert code == 2
        assert violation in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestNonFiniteInput:
    # Each of these once ran a solve or simulation it could not finish
    # sensibly: a traceback, an unbudgeted "optimal", a search that never
    # stops, or arrivals drawn without end.
    @pytest.mark.parametrize(
        "argv,named",
        [
            ("solve --budget inf", "inf"),
            ("solve --budget nan", "nan"),
            ("solve --primary cost --budget nan", "nan"),
            ("solve --time-limit nan", "nan"),
            ("solve --time-limit 0", "0.0"),
            ("pareto --weights nan,nan", "nan"),
            ("sweep --parameter retrieval --multipliers nan", "nan"),
            ("sweep --parameter disruption --multipliers 1,inf", "inf"),
            ("simulate --horizon inf", "inf"),
            ("simulate --horizon nan", "nan"),
            ("simulate --seed=-1", "-1"),
        ],
    )
    def test_exits_two_before_any_solve(self, toy_paths, tmp_path, capsys, monkeypatch,
                                        argv, named):
        from msrcpspr import solver

        # Recorded, not raised: a simulation runs on a pool thread, where an
        # error would be stored in its future and might never be read.
        searches = []

        def no_search(*args):
            searches.append(args)
            raise AssertionError("a search ran")

        monkeypatch.setattr(solver._BranchAndBound, "_dfs", no_search)
        monkeypatch.setattr(queueing, "_arrival_count", no_search)
        command, *flags = argv.split()
        sm, ext = toy_paths
        code = main([command, "--instance", sm, "--extension", ext, "--out", str(tmp_path),
                     *flags])
        assert code == 2
        assert searches == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


class TestPareto:
    # Each artifact's expected bytes: a checked-in file, or a sha256.
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("toy5", {
                "front.csv": GOLDEN_DIR / "toy5_front_golden.csv",
                "ranking.csv": GOLDEN_DIR / "toy5_ranking_golden.csv",
                "gantt_rank1.svg": "cf4777168d6e87acd33ead02426b2ffdc6cd3eb9d75d36c833d79548e75f1e00",
            }),
            ("j10", {
                "front.csv": GOLDEN_DIR / "j10_front_golden.csv",
                "ranking.csv": GOLDEN_DIR / "j10_ranking_golden.csv",
                "gantt_rank1.svg": "8cd3826e1362fc6f9e0e92476973db79a5f861813628d61df7da328d158d00b8",
            }),
            ("j20", {
                "front.csv": REPO_DIR / "perfbench" / "ref" / "j20_front.csv",
                "ranking.csv": "50cc326aebf073a584c2b9cd2c8f737357a410d436d50bde25e16cb588f57059",
                "gantt_rank1.svg": "3b45dc997b32b34e161ad9cdae9ae3c246df385255ee80449a1a620f554f4747",
                "gantt_rank2.svg": "f1d09905759783adb49009f3bcbd24e5eebd4652d01b60e22aa0667b6a6c963b",
            }),
        ],
        ids=["toy5", "j10", "j20"],
    )
    def test_front_matches_golden(self, data_dir, tmp_path, name, expected):
        code = main([
            "pareto", "--instance", str(data_dir / f"{name}.sm"),
            "--extension", str(data_dir / f"{name}_skills.json"), "--grid", "10",
            "--out", str(tmp_path), "--no-timing",
        ])
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
        for artifact, want in expected.items():
            got = (tmp_path / artifact).read_bytes()
            if isinstance(want, Path):
                assert got == want.read_bytes(), artifact
            else:
                assert hashlib.sha256(got).hexdigest() == want, artifact

    @pytest.mark.parametrize("cut", [("makespan", "cost"), ("cost", "makespan")])
    def test_unproven_payoff_table_exits_one(self, toy_paths, tmp_path, monkeypatch, cut):
        # A payoff row whose first stage was cut short is not a proven end
        # of the grid.  Level 0 then reads "timeout"; toy5's level 10 is
        # bypassed, but the command must exit 1 for the cost-first row too.
        import dataclasses

        from msrcpspr import pareto

        real = pareto.lexicographic_outcome

        def cut_stage1(instance, order, limits=None, *, warm=None):
            outcome = real(instance, order, limits, warm=warm)
            if order != cut:
                return outcome
            return dataclasses.replace(outcome, statuses=("timeout", outcome.statuses[1]))

        monkeypatch.setattr(pareto, "lexicographic_outcome", cut_stage1)
        sm, ext = toy_paths
        code = main(["pareto", "--instance", sm, "--extension", ext, "--out", str(tmp_path),
                     "--no-timing"])
        assert code == 1
        rows = (tmp_path / "front.csv").read_text().splitlines()
        level0_status = "timeout" if cut[0] == "makespan" else "optimal"
        assert rows[1].startswith("0,") and rows[1].endswith(f",{level0_status},")
        assert rows[-1] == "10,,,,bypassed,"

    def test_eps_zero_runs_the_classic_method(self, toy_paths, toy5, tmp_path):
        # No slack reward, so no grid level is bypassed.
        from msrcpspr.pareto import front_csv, plain_epsilon_front

        sm, ext = toy_paths
        code = main(["pareto", "--instance", sm, "--extension", ext, "--eps", "0",
                     "--out", str(tmp_path), "--no-timing"])
        assert code == 0
        text = (tmp_path / "front.csv").read_text(encoding="utf-8")
        assert ",bypassed," not in text
        assert text == front_csv(plain_epsilon_front(toy5, 10), include_timing=False)

    def test_parallel_flag_is_rejected(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        with pytest.raises(SystemExit) as exc:
            main(["pareto", "--instance", sm, "--extension", ext, "--out", str(tmp_path),
                  "--parallel"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "error",
        [CycleError("sequencing closed a cycle"), InstabilityError(3.0, 2.5, resource=1)],
        ids=["cycle", "instability"],
    )
    def test_internal_error_is_not_an_input_error(self, toy_paths, tmp_path, monkeypatch, error):
        # A fault raised inside a solve is a program error: it must surface
        # instead of exiting with the input-error code 2.
        from msrcpspr import pareto

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(pareto, "enumerate_front", broken)
        sm, ext = toy_paths
        with pytest.raises(type(error)):
            main(["pareto", "--instance", sm, "--extension", ext, "--out", str(tmp_path)])

    @pytest.mark.parametrize("command", ["pareto", "solve", "gantt"])
    def test_infeasible_rendered_schedule_is_not_an_input_error(
        self, toy_paths, tmp_path, monkeypatch, command
    ):
        # The solver returns only feasible schedules, so one that fails the
        # check before it is drawn is a program fault, not exit 2.
        from msrcpspr import schedule

        planted = schedule.Violation(10, (2, 3), 1.0, "eq10: planted")
        monkeypatch.setattr(schedule, "check_feasibility", lambda instance, sol: [planted])
        sm, ext = toy_paths
        with pytest.raises(schedule.InfeasibleSolutionError, match="eq10: planted"):
            main([command, "--instance", sm, "--extension", ext, "--out", str(tmp_path)])

    def test_golden_points_backed_by_oracle(self, toy5):
        from msrcpspr.pareto import brute_force_front

        rows = (GOLDEN_DIR / "toy5_front_golden.csv").read_text().splitlines()[1:]
        pairs = []
        for row in rows:
            fields = row.split(",")
            if fields[4] == "optimal":
                pairs.append((float(fields[1]), float(fields[2])))
        oracle = brute_force_front(toy5).pairs()
        assert np.array(pairs) == pytest.approx(np.array(oracle), abs=TOL)

    def test_degenerate_instance_single_row(self, tmp_path):
        from msrcpspr.instance import serialize_psplib

        sm = tmp_path / "chain3.sm"
        # rebuild an equivalent .sm + sidecar pair for the CLI
        sm.write_text(
            serialize_psplib(
                __import__("msrcpspr.instance", fromlist=["PartialInstance"]).PartialInstance(
                    job_count=5,
                    renewable_count=1,
                    durations=(0, 2, 3, 4, 0),
                    successors=((2,), (3,), (4,), (5,), ()),
                    requests=((0,), (1,), (1,), (1,), (0,)),
                )
            ),
            encoding="utf-8",
        )
        sidecar = {
            "skill_count": 1,
            "resources": [
                {"id": k, "skills": [1], "cost_per_skill": {"1": 100},
                 "disruption_rate": 0.5, "retrieval_rate": 0.5, "service_rate": 8.0}
                for k in (1, 2)
            ],
            "requirements": [{"activity": a, "skill": 1, "count": 1} for a in (2, 3, 4)],
        }
        ext = tmp_path / "chain3.json"
        ext.write_text(json.dumps(sidecar), encoding="utf-8")
        code = main(["pareto", "--instance", str(sm), "--extension", str(ext),
                     "--grid", "8", "--out", str(tmp_path / "out")])
        assert code == 0
        ranking = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
        assert len(ranking) == 2  # header plus the single alternative


class TestParetoJ10:
    def test_j10_rows_all_nondominated(self, data_dir, tmp_path):
        code = main([
            "pareto",
            "--instance", str(data_dir / "j10.sm"),
            "--extension", str(data_dir / "j10_skills.json"),
            "--grid", "6", "--out", str(tmp_path), "--no-timing",
        ])
        assert code == 0
        rows = (tmp_path / "ranking.csv").read_text().splitlines()[1:]
        assert len(rows) >= 1
        pairs = [(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows]
        for a in pairs:
            assert not any(
                b[0] <= a[0] and b[1] <= a[1] and b != a for b in pairs
            )


class TestSweep:
    def test_identity_multiplier_zero_change(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "retrieval", "--multipliers", "1.0", "--grid", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep_retrieval.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            fields = row.split(",")
            assert fields[4] == "0" and fields[5] == "0" and fields[6] == "0"

    def test_matches_golden(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "retrieval", "--multipliers", "1.0,1.4", "--grid", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        got = (tmp_path / "sweep_retrieval.csv").read_bytes()
        assert got == (GOLDEN_DIR / "toy5_sweep_retrieval_golden.csv").read_bytes()

    @pytest.mark.parametrize("base_longer", [False, True], ids=["2-then-3", "3-then-2"])
    def test_rows_align_fronts_of_unequal_length(self, toy5, monkeypatch, base_longer):
        # A position one front lacks is flagged, as is a change from a zero
        # baseline makespan.
        from msrcpspr import pareto
        from msrcpspr.cli import SweepRow, run_sweep
        from msrcpspr.pareto import ParetoPoint
        from msrcpspr.solver import SolveLimits

        two = [ParetoPoint(0.0, 200.0), ParetoPoint(10.0, 100.0)]
        three = [ParetoPoint(0.0, 250.0), ParetoPoint(12.0, 90.0), ParetoPoint(15.0, 80.0)]
        base, scaled = (three, two) if base_longer else (two, three)
        fronts = iter([base, scaled])
        monkeypatch.setattr(
            pareto, "enumerate_front", lambda *args, **kwargs: argparse.Namespace(points=next(fronts))
        )
        rows, _ = run_sweep(toy5, "retrieval", (1.0, 2.0), 6, 1e-4, SolveLimits())
        identity = [
            SweepRow(i, 1.0, p.makespan, p.cost, 0.0 if p.makespan else None, 0.0, not p.makespan)
            for i, p in enumerate(base, start=1)
        ]
        if base_longer:
            changed = [
                SweepRow(1, 2.0, 0.0, 200.0, None, (200.0 - 250.0) / 250.0 * 100.0, True),
                SweepRow(2, 2.0, 10.0, 100.0, (10.0 - 12.0) / 12.0 * 100.0,
                         (100.0 - 90.0) / 90.0 * 100.0, False),
                SweepRow(3, 2.0, None, None, None, None, True),
            ]
        else:
            changed = [
                SweepRow(1, 2.0, 0.0, 250.0, None, (250.0 - 200.0) / 200.0 * 100.0, True),
                SweepRow(2, 2.0, 12.0, 90.0, (12.0 - 10.0) / 10.0 * 100.0,
                         (90.0 - 100.0) / 100.0 * 100.0, False),
                SweepRow(3, 2.0, 15.0, 80.0, None, None, True),
            ]
        assert rows == identity + changed

    def test_retrieval_and_disruption_directions(self, toy_paths, tmp_path):
        from msrcpspr.cli import run_sweep
        from msrcpspr.instance import instance_from_files
        from msrcpspr.solver import SolveLimits

        problem = instance_from_files(*toy_paths)
        _, fronts = run_sweep(problem, "retrieval", [1.0, 1.4], 6, 1e-4, SolveLimits())
        assert fronts[1.4].payoff.makespan_pis <= fronts[1.0].payoff.makespan_pis + 1e-9
        _, fronts = run_sweep(problem, "disruption", [1.0, 1.4], 6, 1e-4, SolveLimits())
        assert fronts[1.4].payoff.makespan_pis >= fronts[1.0].payoff.makespan_pis - 1e-9

    def test_non_finite_multiplier_is_a_validation_error(self, toy_paths):
        from msrcpspr.cli import run_sweep
        from msrcpspr.instance import ValidationError, instance_from_files
        from msrcpspr.solver import SolveLimits

        problem = instance_from_files(*toy_paths)
        with pytest.raises(ValidationError, match=r"got \[1\.0, nan\]"):
            run_sweep(problem, "retrieval", [1.0, math.nan], 6, 1e-4, SolveLimits())

    def test_repeated_multiplier_exit_two(self, toy_paths, tmp_path, capsys, monkeypatch):
        from msrcpspr import solver

        def no_search(self):
            raise AssertionError("a search ran")

        monkeypatch.setattr(solver._BranchAndBound, "_dfs", no_search)
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "retrieval", "--multipliers", "1.4,1.4", "--out", str(tmp_path)])
        assert code == 2
        assert "repeated" in capsys.readouterr().err
        assert not (tmp_path / "sweep_retrieval.csv").exists()

    def test_bad_multiplier_exit_two(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "disruption", "--multipliers", "0,-1", "--out", str(tmp_path)])
        assert code == 2

    def test_empty_multiplier_list_exit_two(self, toy_paths, tmp_path, capsys, monkeypatch):
        from msrcpspr import solver

        def no_search(self):
            raise AssertionError("a search ran")

        monkeypatch.setattr(solver._BranchAndBound, "_dfs", no_search)
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "retrieval", "--multipliers", ",", "--out", str(tmp_path)])
        assert code == 2
        assert "got []" in capsys.readouterr().err
        assert not (tmp_path / "sweep_retrieval.csv").exists()

    def test_instability_from_scaling_flags_rows(self, toy_paths, tmp_path):
        # disruption x10 pushes every resource's critical rate below one
        # assignment, so the scaled front is empty and its rows are flagged
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "disruption", "--multipliers", "1.0,10.0", "--grid", "6",
                     "--out", str(tmp_path)])
        assert code == 1
        rows = (tmp_path / "sweep_disruption.csv").read_text().splitlines()[1:]
        scaled = [r for r in rows if r.split(",")[1] == "10"]
        assert scaled
        assert all(r.split(",")[6] == "1" for r in scaled)

    def test_flagged_rows_of_proven_fronts_exit_zero(self, toy_paths, tmp_path, capsys):
        # Both fronts are proved; the scaled one has two points more, so its
        # rows 4 and 5 have no baseline point.  That flags them, and the
        # exit code still follows the pareto rule alone.
        sm, ext = toy_paths
        code = main(["sweep", "--instance", sm, "--extension", ext, "--parameter",
                     "retrieval", "--multipliers", "1.0,1.4", "--grid", "4",
                     "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "x1: 3 points" in out and "x1.4: 5 points" in out
        rows = (tmp_path / "sweep_retrieval.csv").read_text().splitlines()[1:]
        assert [row.split(",")[6] for row in rows] == ["0"] * 6 + ["1"] * 2
        assert code == 0


    @pytest.mark.parametrize("command", [["pareto"], ["sweep", *_SWEEP_ONE]], ids=["pareto", "sweep"])
    def test_infeasible_instance_exits_one(self, data_dir, tmp_path, command):
        sm, ext = _toy5_infeasible(tmp_path, data_dir)
        code = main([*command, "--instance", sm, "--extension", ext, "--out", str(tmp_path)])
        assert code == 1

    def test_failed_front_says_why_per_multiplier(self, data_dir, tmp_path):
        # The unscaled front fails outright, so no row is written, and stderr
        # names its multiplier and diagnosis, as pareto logs its own.
        sm, ext = _toy5_infeasible(tmp_path, data_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "msrcpspr", "sweep", "--instance", sm, "--extension", ext,
             *_SWEEP_ONE, "--out", str(tmp_path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO_DIR / "src")},
        )
        assert proc.returncode == 1
        assert (tmp_path / "sweep_retrieval.csv").read_text().splitlines() == [
            "grid_point,multiplier,makespan,cost,makespan_change_pct,cost_change_pct,flagged"
        ]
        assert "x1: infeasible: no feasible solution while optimizing makespan" in proc.stderr

    @pytest.mark.parametrize("command", [["pareto"], ["sweep", *_SWEEP_ONE]], ids=["pareto", "sweep"])
    def test_cut_solves_exit_one(self, j20_cut, tmp_path, command):
        # The cut front still has points and no flagged row, but its
        # payoff table is not proved.
        sm, ext = j20_cut
        code = main([*command, "--instance", sm, "--extension", ext, "--out", str(tmp_path)])
        assert code == 1
        if command[0] == "sweep":
            rows = (tmp_path / "sweep_retrieval.csv").read_text().splitlines()[1:]
            assert len(rows) == 5 and all(row.endswith(",0") for row in rows)


class TestSimulate:
    def test_csv_columns_and_determinism(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        args = ["simulate", "--instance", sm, "--extension", ext, "--seed", "5",
                "--horizon", "20000", "--out"]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "simulate.csv").read_bytes()
        second = (tmp_path / "b" / "simulate.csv").read_bytes()
        assert first == second
        header = first.decode().splitlines()[0]
        assert header == "lambda,mu,upsilon,r,analytic_W,sim_W,ci_half_width"
        assert len(first.decode().splitlines()) > 1

    def test_seed_changes_estimates(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        main(["simulate", "--instance", sm, "--extension", ext, "--seed", "5",
              "--horizon", "20000", "--out", str(tmp_path / "a")])
        main(["simulate", "--instance", sm, "--extension", ext, "--seed", "6",
              "--horizon", "20000", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "simulate.csv").read_bytes() != (tmp_path / "b" / "simulate.csv").read_bytes()

    def test_stops_at_the_first_unstable_count(self, data_dir, tmp_path):
        # lambda = 1 lies below r*mu/(r+v) = 1.0000000000000002 but the
        # denominator of relation 8 is not positive: resource 1 gets no row.
        sm, ext = _toy5_variant(tmp_path, data_dir, rates=(0.7, 0.2, 4.5))
        assert main(["simulate", "--instance", sm, "--extension", ext, "--horizon", "2000",
                     "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "simulate.csv").read_text().splitlines()[1:]
        assert rows
        assert not [row for row in rows if row.split(",")[1:4] == ["4.5", "0.7", "0.2"]]

    @pytest.mark.parametrize("name", ["toy5", "j10"])
    def test_matches_golden_bytes(self, data_dir, name, tmp_path):
        # Determinism tests compare one version with itself; the golden
        # bytes also catch a silent change to the simulated numbers.
        assert main(["simulate", "--instance", str(data_dir / f"{name}.sm"),
                     "--extension", str(data_dir / f"{name}_skills.json"),
                     "--horizon", "20000", "--seed", "5", "--out", str(tmp_path)]) == 0
        golden = (GOLDEN_DIR / f"{name}_simulate_golden.csv").read_bytes()
        assert (tmp_path / "simulate.csv").read_bytes() == golden


    def test_pool_rows_equal_a_sequential_loop(self, data_dir):
        problem = instance_from_files(data_dir / "j10.sm", data_dir / "j10_skills.json")
        expected = []
        for res in problem.resources:
            for lam in range(1, int(problem.requirement_matrix.sum()) + 1):
                point = queueing.QueueOperatingPoint(float(lam), res.reliability)
                if not point.is_stable():
                    break
                params = res.reliability
                estimate = queueing.simulate_queue(point, 2e4, 5 + 7919 * len(expected))
                expected.append((float(lam), params.service_rate, params.disruption_rate,
                                 params.retrieval_rate, queueing.waiting_time(point), estimate))
        assert len(expected) == 24
        assert simulation_rows(problem, 2e4, 5) == expected

    def test_failing_points_exit_two_with_the_first_row_error(self, toy_paths, tmp_path, capsys):
        # Every toy5 point fails at horizon 5; the message is the first row's
        # (lambda = 1, 7 post-warm-up samples), and the pool is shut down.
        threads = threading.active_count()
        sm, ext = toy_paths
        assert main(["simulate", "--instance", sm, "--extension", ext, "--horizon", "5",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: horizon too short: 7 post-warmup samples, need >= 30\n")
        assert not (tmp_path / "simulate.csv").exists()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("width", [1, 2])
    def test_heaviest_points_go_first_and_row_zero_still_reports(
        self, toy_paths, tmp_path, capsys, monkeypatch, width
    ):
        # At horizon 22 (seed 0) toy5's three lambda = 1 rows (0, 2 and 6)
        # fail and every heavier row succeeds.  The pool takes the failing
        # rows last, yet the message is row 0's and the pool is shut down.
        # One worker runs the points as submitted: by descending arrival
        # rate, in row order within a rate.
        calls = []
        simulate_queue = queueing.simulate_queue

        def recorded(point, horizon, seed):
            try:
                estimate = simulate_queue(point, horizon, seed)
            except ValueError:
                calls.append((point.arrival_rate, seed, False))
                raise
            calls.append((point.arrival_rate, seed, True))
            return estimate

        monkeypatch.setattr(queueing, "simulate_queue", recorded)
        monkeypatch.setattr(cli, "_available_cpus", lambda: width)
        threads = threading.active_count()
        sm, ext = toy_paths
        assert main(["simulate", "--instance", sm, "--extension", ext, "--horizon", "22",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("error: horizon too short: 15 post-warmup samples, need >= 30\n")
        assert not (tmp_path / "simulate.csv").exists()
        assert threading.active_count() == threads
        assert all(ok == (lam > 1) for lam, _, ok in calls)
        assert (1.0, 0, False) in calls
        if width == 1:
            heavy = [(4.0, 5), (3.0, 4), (2.0, 1), (2.0, 3), (2.0, 7), (1.0, 0)]
            assert calls[:6] == [(lam, 7919 * row, lam > 1) for lam, row in heavy]

    @pytest.mark.parametrize(
        "lam,expected",
        [
            (1, "SimEstimate(mean_wait=1.3449473931602027, half_width=0.009869872090409787, "
                "samples=900300)"),
            (6, "SimEstimate(mean_wait=8.02303382435118, half_width=0.22816608479713868, "
                "samples=5401590)"),
        ],
        ids=["lam1", "lam6"],
    )
    def test_default_horizon_estimates_are_pinned(self, data_dir, lam, expected):
        # j10 resource 1 as `simulate --seed 7` runs it (rows 0 and 5); the
        # golden files cover only short horizons, which split into few pieces.
        problem = instance_from_files(data_dir / "j10.sm", data_dir / "j10_skills.json")
        point = queueing.QueueOperatingPoint(float(lam), problem.resources[0].reliability)
        estimate = queueing.simulate_queue(point, DEFAULT_HORIZON, 7 + 7919 * (lam - 1))
        assert repr(estimate) == expected

    def test_heavy_point_lands_near_relation_8(self, data_dir):
        # Row 11 of `simulate --seed 13` on j10 (resource 2 at lambda = 6):
        # plain batch means put it 5.81% from relation 8; the control
        # variates bring it to 0.62%.
        problem = instance_from_files(data_dir / "j10.sm", data_dir / "j10_skills.json")
        point = queueing.QueueOperatingPoint(6.0, problem.resources[1].reliability)
        estimate = queueing.simulate_queue(point, DEFAULT_HORIZON, 13 + 7919 * 11)
        assert estimate.mean_wait == pytest.approx(queueing.waiting_time(point), rel=0.05)

class TestSolveAndGantt:
    def test_solve_writes_artifacts(self, toy_paths, tmp_path, capsys):
        sm, ext = toy_paths
        code = main(["solve", "--instance", sm, "--extension", ext, "--primary",
                     "makespan", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status: optimal" in out
        assert (tmp_path / "solution_gantt.csv").exists()

    def test_infeasible_budget_exit_one(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        code = main(["solve", "--instance", sm, "--extension", ext, "--primary",
                     "makespan", "--budget", "10", "--out", str(tmp_path)])
        assert code == 1

    def test_gantt_deterministic(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        for sub in ("a", "b"):
            assert main(["gantt", "--instance", sm, "--extension", ext,
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "gantt.csv").read_bytes() == (tmp_path / "b" / "gantt.csv").read_bytes()
        assert (tmp_path / "a" / "gantt.svg").read_bytes() == (tmp_path / "b" / "gantt.svg").read_bytes()

    def test_gantt_matches_golden(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        assert main(["gantt", "--instance", sm, "--extension", ext, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "gantt.csv").read_bytes() == (GOLDEN_DIR / "toy5_gantt_golden.csv").read_bytes()

    def test_gantt_of_an_infeasible_instance_says_infeasible(self, data_dir, tmp_path, capsys):
        sm, ext = _toy5_infeasible(tmp_path, data_dir)
        assert main(["gantt", "--instance", sm, "--extension", ext, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "infeasible: no feasible solution while optimizing makespan" in err

    def test_gantt_cut_before_a_schedule_says_timed_out(self, toy_paths, tmp_path, capsys,
                                                        monkeypatch):
        # Stage 1 stops on a limit before its first schedule: the instance
        # may well be feasible, so the message must not call it infeasible.
        # One node is the root alone, above every leaf.
        from msrcpspr import solver

        real_run = solver._BranchAndBound.run

        def cut_stage1(self, spec, limits):
            if spec.budget is None:
                limits = solver.SolveLimits(node_limit=1)
            return real_run(self, spec, limits)

        monkeypatch.setattr(solver._BranchAndBound, "run", cut_stage1)
        sm, ext = toy_paths
        code = main(["gantt", "--instance", sm, "--extension", ext, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "timed out: no feasible solution while optimizing makespan" in err
        assert "infeasible" not in err
        assert not (tmp_path / "gantt.csv").exists()

    def test_gantt_of_a_cut_solve_exits_one(self, j20_cut, tmp_path, capsys):
        # As solve does, the cut schedule is still written.
        sm, ext = j20_cut
        code = main(["gantt", "--instance", sm, "--extension", ext, "--out", str(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "makespan 78.5," in out and "stage statuses timeout, optimal" in out
        assert (tmp_path / "gantt.csv").exists() and (tmp_path / "gantt.svg").exists()


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        code = (
            "import sys, msrcpspr.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_thread_pool(self):
        # Only `simulate` needs concurrent.futures; the other commands'
        # cold start should not pay for its import.
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        code = "import sys, msrcpspr.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "False"

    def test_cli_import_builds_no_parser(self):
        # The parser is built on the first call of main, which every
        # process that only imports the module would otherwise pay for.
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        code = "import msrcpspr.cli; print(msrcpspr.cli.build_parser.cache_info().currsize)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.strip() == "0"


class TestParserReuse:
    def test_one_parser_serves_every_call(self, toy_paths, tmp_path, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        sm, ext = toy_paths
        after = []
        for _ in range(3):
            assert main(["validate", "--instance", sm, "--extension", ext, "--out", str(tmp_path)]) == 0
            after.append(len(built))
        # The first call builds the tree, one top-level parser and one per
        # command; the next two build nothing.
        assert built.count("msrcpspr") == 1
        assert after == [len(built)] * 3

    def test_usage_error_leaves_the_next_call_unchanged(self, toy_paths, tmp_path):
        sm, ext = toy_paths
        argv = ["pareto", "--instance", sm, "--extension", ext, "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--v", "0.9", "--grid", "many"])
        assert exc.value.code == 2
        fresh = build_parser.__wrapped__()
        assert vars(build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
        assert main(argv) == 0

    def test_sweep_default_multipliers_cannot_be_changed(self):
        argv = ["sweep", "--instance", "x.sm", "--parameter", "retrieval"]
        first = build_parser().parse_args(argv)
        with contextlib.suppress(AttributeError):
            first.multipliers.append(9.0)
        assert list(build_parser().parse_args(argv).multipliers) == [1.0, 1.4]


class TestConsoleScript:
    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_skill_coverage_issue_reported_once(self, data_dir, tmp_path, command):
        # validate prints the issue; a solving command logs it.  Either way
        # it appears once across stdout and stderr.
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        sm, ext = _toy5_infeasible(tmp_path, data_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "msrcpspr", command, "--instance", sm, "--extension", ext,
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        issue = "activity 2 requires 3 resources with skill 1, only 2 master it"
        assert (proc.stdout + proc.stderr).count(issue) == 1
        assert proc.returncode == (0 if command == "validate" else 1)

    def test_module_entry_point_runs(self, toy_paths, tmp_path):
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        sm, ext = toy_paths
        proc = subprocess.run(
            [sys.executable, "-m", "msrcpspr", "validate", "--instance", sm, "--extension", ext,
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout

    def test_unknown_log_level_exit_two(self, toy_paths, tmp_path):
        # A subprocess: in-process, pytest's handlers on the root logger
        # make ``logging.basicConfig`` a no-op that never reads the level.
        src = str(Path(msrcpspr.__file__).resolve().parent.parent)
        sm, ext = toy_paths
        proc = subprocess.run(
            [sys.executable, "-m", "msrcpspr", "validate", "--instance", sm, "--extension", ext,
             "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "MSRCPSPR_LOG": "verbose"},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "verbose" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_entry_point_runs(self, toy_paths, tmp_path):
        exe = shutil.which("msrcpspr")
        if exe is None:
            pytest.skip("console script not on PATH")
        sm, ext = toy_paths
        proc = subprocess.run(
            [exe, "validate", "--instance", sm, "--extension", ext, "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "OK" in proc.stdout
