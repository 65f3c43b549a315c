"""Tests of the benchmark's own logic (run: PYTHONPATH=src pytest perfbench)."""

from __future__ import annotations

import json

import pytest

import checks
import gen
import run
import spans
from msrcpspr.instance import load_extension, parse_psplib
from msrcpspr.solver import enumerate_assignments


def test_batch_project_is_deterministic_per_index():
    assert gen.batch_project(3) == gen.batch_project(3)
    assert gen.batch_project(3) != gen.batch_project(4)


@pytest.mark.parametrize("index", range(10))
def test_batch_projects_are_servable_and_sized(index):
    sm_text, sidecar_text = gen.batch_project(index)
    instance = load_extension(parse_psplib(sm_text), json.loads(sidecar_text))
    executable = list(instance.executable_ids)
    assert gen.BATCH_MIN_ACTIVITIES <= len(executable) <= gen.BATCH_MAX_ACTIVITIES
    assert all(enumerate_assignments(instance, act) for act in executable)


def test_j20_sidecar_reproduces_bundled_file():
    bundled = json.loads((gen.DATA / "j20_skills.json").read_text(encoding="utf-8"))
    assert gen.j20_sidecar() == bundled


def test_select_batch_draws_one_per_stratum_deterministically():
    strata = [[0, 1, 2], [3, 4, 5], [6]]
    picked = gen.select_batch(11, strata)
    assert picked == gen.select_batch(11, strata)
    assert [p in s for p, s in zip(picked, strata)] == [True, True, True]


def test_pareto_inputs_are_identical_bytes_for_one_seed(tmp_path):
    strata = [[0, 1], [2, 3]]
    first = gen.write_pareto_inputs("pareto-batch", 5, strata, tmp_path / "a")
    second = gen.write_pareto_inputs("pareto-batch", 5, strata, tmp_path / "b")
    assert [c["id"] for c in first] == [c["id"] for c in second]
    for a, b in zip(first[1:], second[1:]):
        for key in ("instance", "extension"):
            assert open(a[key], "rb").read() == open(b[key], "rb").read()


def _span(id, parent, name, start, end, **attrs):
    return {"id": id, "parent": parent, "run": "0/x", "name": name, "start": start, "end": end, **attrs}


def test_self_time_subtracts_covered_child_intervals_once():
    trace = [
        _span(0, None, "cli.command", 0.0, 10.0),
        _span(1, 0, "pareto.front", 1.0, 6.0),
        _span(2, 0, "vikor.rank", 5.0, 8.0),  # overlaps the first child by 1 s
        _span(3, 1, "solver.solve", 2.0, 3.0),
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(10.0 - 7.0)
    assert own[1] == pytest.approx(5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_layer_metrics_split_lexicographic_grid_and_primary():
    trace = [
        _span(0, None, "cli.command", 0.0, 10.0),
        _span(1, 0, "pareto.front", 0.0, 9.0, points=2, bypassed=1),
        _span(2, 1, "solver.lex", 0.0, 4.0),
        _span(3, 2, "solver.solve", 0.0, 3.0, primary="makespan", nodes=30, status="optimal"),
        _span(4, 2, "solver.solve", 3.0, 4.0, primary="cost", nodes=5, status="optimal"),
        _span(5, 1, "solver.solve", 4.0, 6.0, primary="makespan", nodes=7, status="timeout"),
        _span(6, 1, "solver.solve", 6.0, 8.0, primary="makespan", nodes=8, status="optimal"),
    ]
    m = spans.layer_metrics(trace)
    assert m["solver.solve_calls"] == 4
    assert m["solver.nodes"] == 50
    assert m["solver.lex_nodes"] == 35
    assert m["solver.timeouts"] == 1
    assert m["solver.cost_nodes"] == 5 and m["solver.makespan_nodes"] == 45
    assert m["pareto.grid_solved"] == 2 and m["pareto.grid_s"] == pytest.approx(4.0)
    assert m["pareto.self_s"] == pytest.approx(9.0 - 8.0)
    assert m["pareto.point_yield"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert {name for name, _ in spans.LAYER_METRICS} - set(m) == {
        "cli.import_s", "cli.import_scipy_s", "cli.out_bytes"
    }


def test_tail_is_the_percentile_with_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct = run.tail([float(i) for i in range(11)])
    assert (value, pct) == (0.0, pytest.approx(100.0 / 11))
    value, pct = run.tail([float(i) for i in range(100, 0, -1)])
    assert value == 90.0 and pct == pytest.approx(90.0)


def test_parse_importtime_takes_cli_cumulative_and_scipy_self():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     scipy.stats",
        "import time:        50 |        400 |   scipy",
        "import time:        20 |       1000 | msrcpspr.cli",
    ])
    assert run.parse_importtime(stderr) == (pytest.approx(0.001), pytest.approx(0.00015))


SIDECAR = {
    "requirements": [{"activity": 2, "skill": 1, "count": 2}, {"activity": 3, "skill": 1, "count": 1}],
    "resources": [{"service_rate": 3.0, "disruption_rate": 0.5, "retrieval_rate": 0.5}],
}


def _sim_csv(rows):
    lines = ["lambda,mu,upsilon,r,analytic_W,sim_W,ci_half_width"]
    lines += [f"{lam},{mu},{v},{r},{a!r},{s!r},0.1" for lam, mu, v, r, a, s in rows]
    return "\n".join(lines) + "\n"


def test_simulation_check_counts_each_bad_point():
    # critical rate 0.5*3/1 = 1.5, so only lambda = 1 is inside the stable region
    points = checks.expected_points(SIDECAR)
    assert points == [(1.0, 3.0, 0.5, 0.5)]
    exact = checks.relation8(1.0, 3.0, 0.5, 0.5)
    assert exact == pytest.approx((1.0 + 1.5) / (1.0 * (1.5 - 0.5 - 0.5)))
    good = (1, 3, 0.5, 0.5, exact, exact * 1.04)
    assert checks.simulation_failures(_sim_csv([good]), SIDECAR) == (1, 0)
    assert checks.simulation_failures(_sim_csv([good[:4] + (exact + 1e-8, exact)]), SIDECAR) == (1, 1)
    assert checks.simulation_failures(_sim_csv([good[:5] + (exact * 1.06,)]), SIDECAR) == (1, 1)
    assert checks.simulation_failures(_sim_csv([good, good]), SIDECAR) == (2, 1)
    assert checks.simulation_failures(_sim_csv([]), SIDECAR) == (1, 1)
    assert checks.simulation_failures(None, SIDECAR) == (1, 1)


def test_front_check_needs_reference_exit_and_bytes(tmp_path):
    text = b"grid_point,makespan,cost,slack,solve_status,wall_time\n0,19,3380,0,optimal,\n"
    (tmp_path / "front.csv").write_bytes(text)
    reference = (0, checks.sha256(text))
    assert checks.front_ok(0, tmp_path, reference)
    assert not checks.front_ok(1, tmp_path, reference)
    assert not checks.front_ok(None, tmp_path, reference)
    assert not checks.front_ok(0, tmp_path / "missing", reference)
    (tmp_path / "front.csv").write_bytes(text.replace(b"3380", b"3381"))
    assert not checks.front_ok(0, tmp_path, reference)
    timed_out = text.replace(b"optimal", b"timeout")
    (tmp_path / "front.csv").write_bytes(timed_out)
    assert not checks.front_ok(0, tmp_path, (0, checks.sha256(timed_out)))


def test_failures_are_counted_per_front_across_passes(tmp_path):
    golden = checks.TOY5_GOLDEN.read_bytes()
    for index, data in enumerate((golden, golden + b"x")):
        out = tmp_path / f"p{index}" / "toy5"
        out.mkdir(parents=True)
        (out / "front.csv").write_bytes(data)
    passes = [{"commands": [{"id": "toy5", "exit": 0}]} for _ in range(2)]
    assert checks.count_failures("pareto-batch", passes, tmp_path, {}) == (2, 1)
