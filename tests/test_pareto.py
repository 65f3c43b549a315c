import hashlib
import math

import numpy as np
import pytest

from msrcpspr.instance import default_extension, load_extension, read_psplib
from msrcpspr.pareto import (
    ParetoPoint,
    brute_force_front,
    dominance_filter,
    enumerate_front,
    front_csv,
    plain_epsilon_front,
)
from msrcpspr.schedule import TOL
from msrcpspr.solver import (
    SolveLimits,
    SubproblemSpec,
    _BranchAndBound,
    lexicographic_outcome,
    solve,
)

from conftest import DATA_DIR, build_instance, chain3_instance


def sufficient_grid(front) -> int:
    """Grid count fine enough to hit every cost niche of an oracle front."""
    costs = sorted({p.cost for p in front.points}, reverse=True)
    if len(costs) < 2:
        return 2
    span = costs[0] - costs[-1]
    min_gap = min(a - b for a, b in zip(costs, costs[1:]))
    return max(2, math.ceil(span / min_gap) + 1)


class TestDominanceFilter:
    def test_trade_off_kept(self):
        points = [(48.86, 7080000.0), (52.35, 6740000.0)]
        assert dominance_filter(points) == points

    def test_duplicates_collapse(self):
        assert dominance_filter([(50.0, 100.0), (50.0, 100.0)]) == [(50.0, 100.0)]

    def test_weak_dominance_dropped(self):
        assert dominance_filter([(50.0, 100.0), (60.0, 100.0)]) == [(50.0, 100.0)]
        assert dominance_filter([(50.0, 100.0), (50.0, 120.0)]) == [(50.0, 100.0)]

    def test_makespans_within_tol_are_one_value(self):
        # The solver holds makespans within TOL to be one value, so of two
        # such points only the cheaper one is nondominated; a gap above TOL
        # is a trade-off.
        assert dominance_filter([(50.0, 120.0), (50.0 + 1e-10, 100.0)]) == [(50.0 + 1e-10, 100.0)]
        chain = [(50.0, 130.0), (50.0 + 0.6 * TOL, 120.0), (50.0 + 1.2 * TOL, 110.0)]
        assert dominance_filter(chain) == chain[2:]
        assert dominance_filter([(50.0, 120.0), (50.0 + 2 * TOL, 100.0)]) == [
            (50.0, 120.0),
            (50.0 + 2 * TOL, 100.0),
        ]

    def test_mixed_objects(self):
        points = [
            ParetoPoint(50.0, 100.0, grid_index=2),
            ParetoPoint(50.0, 100.0, grid_index=0),
            ParetoPoint(40.0, 150.0, grid_index=1),
        ]
        kept = dominance_filter(points)
        assert [(p.makespan, p.cost) for p in kept] == [(40.0, 150.0), (50.0, 100.0)]
        # stable: the first-seen representative of the duplicate survives
        assert kept[1].grid_index == 2

    def test_empty(self):
        assert dominance_filter([]) == []


def count_grid_solves(monkeypatch) -> list:
    """Record the spec of every grid-level ``solve`` the sweep makes."""
    from msrcpspr import pareto

    specs = []
    real_solve = pareto.solve

    def counted(instance, spec, limits=None, *, warm=None):
        specs.append(spec)
        return real_solve(instance, spec, limits, warm=warm)

    monkeypatch.setattr(pareto, "solve", counted)
    return specs


class TestEnumerateFront:
    @pytest.mark.parametrize(
        "name,solves,nodes,digest",
        [
            ("toy5", 7, 159, None),
            ("j10", 7, 1703, None),
            ("j20", 10, 11801, None),
            # j20's network under default_extension(cost_seed=k): harder
            # fronts, pinned by the sha256 of their front.csv without timing.
            (1, 13, 34378, "ebeeb42547ae80be3cf0d3ecf3f3a175633090da1044781901f0a8cbf9af5f6b"),
            (2, 11, 13244, "db734fbea981b9978ce430dbe49ed25265833f5862d04cb6024a08478ec79c33"),
            (3, 8, 13953, "e14f179f3e0405b654563438c3b1adc633143e1303c0795958080ef39578e6d4"),
            (4, 11, 22068, "f5035df4557c8a713d7bc1e0a842b9a6590a7716fec65aa4e55c2f57167db89b"),
        ],
        ids=["toy5", "j10", "j20", "j20-s1", "j20-s2", "j20-s3", "j20-s4"],
    )
    def test_front_node_totals_are_pinned(self, name, solves, nodes, digest, request, monkeypatch):
        # Node counts do not depend on the machine: a search change that
        # moves them must say so, and this pins the default sweep's totals.
        from msrcpspr import solver

        if isinstance(name, int):
            partial = read_psplib(DATA_DIR / "j20.sm")
            instance = load_extension(partial, default_extension(partial, cost_seed=name))
        else:
            instance = request.getfixturevalue(name)

        # Every search runs through _BranchAndBound.run: the grid levels'
        # solves and both stages of each payoff row.
        searched = []
        real_run = solver._BranchAndBound.run

        def counted(self, spec, limits):
            status = real_run(self, spec, limits)
            searched.append(self.nodes)
            return status

        monkeypatch.setattr(solver._BranchAndBound, "run", counted)
        front = enumerate_front(instance, 10, eps=1e-4)
        assert len(searched) == solves
        assert sum(searched) == nodes
        if digest is not None:
            csv = front_csv(front, include_timing=False)
            assert hashlib.sha256(csv.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name,digests",
        [
            (
                "j10",
                [
                    "6eb65ddc84809cc77f5bb5f1f9fd978ac176d19d25fa4c98d4552c2d0be8fbe2",
                    "6500f8554dfb89415d2fbfedf6b6a151a1499b31f8dc427dc9463952189c318d",
                    "562cc3aed17a03c5108e422838b81f1c46dcee5d89795b59b12026951adaf382",
                    "a95eef9ff6842e97a2e31fa7d06de97409314a7cf509a9536a085f804a52a6c6",
                    "2ba2e8d181e65f4a4c5d3c6b99f6bd1eca9b27762ce4b143355bade3cf67fa94",
                ],
            ),
            (
                "j20",
                [
                    "5279103c2433ebffdf9d062d7038a9179a99423a5e245631118e9d83d42b16be",
                    "47dadd5e53ca497dd6bda505de85205cfd4c9114809715cb7add695de4a7b154",
                    "da302205b15dba8db9426a15bdbd17eb636fb3441fa62bc6b317ccbb78e3eb0e",
                    "7ff9659450f19c1539f7c95a53b5f96e205034e6402b8608b78721b5c2e74461",
                    "b0bfdf1ee1945bb114dbec6caf2bd4e115385f9830940e2518155215f1c2aab2",
                    "cb0f387e395b20566e985539bec12c2ff7bd2696994f32eec7f9a62b5023f5af",
                    "442daf3a591ad607a43ad75cf1f561e482bbf394020e288f386568272c7a92b3",
                ],
            ),
        ],
    )
    def test_front_schedules_are_pinned(self, name, digests, request):
        # front.csv holds only the objectives, so it cannot tell apart two
        # schedules of equal makespan and cost; these pin each point's X, Z
        # and start times: the lexicographically first optimal leaf, which a
        # change in the branching order would move.
        front = enumerate_front(request.getfixturevalue(name), 10, eps=1e-4)
        got = []
        for point in front.points:
            solution = point.solution
            digest = hashlib.sha256()
            for array in (solution.assignment, solution.sequencing, solution.starts):
                digest.update(array.tobytes())
            got.append(digest.hexdigest())
        assert got == digests

    def test_degenerate_range_single_point(self, monkeypatch):
        instance = chain3_instance()
        lex = lexicographic_outcome(instance, ("makespan", "cost"))
        specs = count_grid_solves(monkeypatch)
        for grid_count in (2, 7, 19):
            front = enumerate_front(instance, grid_count)
            assert len(front.points) == 1
            assert front.pairs() == [(lex.objectives.makespan, lex.objectives.cost)]
            (record,) = front.grid_log
            assert (record.grid_point, record.status, record.slack) == (0, "optimal", 0.0)
            assert (record.makespan, record.cost) == front.pairs()[0]
        assert specs == []

    def test_end_levels_come_from_the_payoff_table(self, j10, monkeypatch):
        specs = count_grid_solves(monkeypatch)
        front = enumerate_front(j10, 10)
        payoff = front.payoff
        for spec in specs:
            assert abs(spec.budget - payoff.cost_nis) > 1e-9
            assert abs(spec.budget - payoff.cost_pis) > 1e-9
        interior = [
            rec for rec in front.grid_log
            if rec.status != "bypassed" and rec.grid_point not in (0, 10)
        ]
        assert len(specs) == len(interior) == 3
        first, last = front.grid_log[0], front.grid_log[-1]
        assert (first.grid_point, first.status) == (0, "optimal")
        assert (first.makespan, first.cost) == (payoff.makespan_pis, payoff.cost_nis)
        assert (last.grid_point, last.status) == (10, "optimal")
        assert (last.makespan, last.cost) == (payoff.makespan_nis, payoff.cost_pis)

    def test_unproven_payoff_row_is_a_timed_out_level(self, j10):
        unbudgeted = solve(j10, SubproblemSpec(primary="makespan"))
        assert unbudgeted.status == "optimal"
        limits = SolveLimits(node_limit=unbudgeted.nodes_explored - 1)
        front = enumerate_front(j10, 10, limits=limits)
        level0 = front.grid_log[0]
        assert (level0.grid_point, level0.status) == (0, "timeout")
        assert all(point.grid_index != 0 for point in front.points)
        assert "timeout" in front.diagnosis

    def test_bad_eps_rejected_before_any_solve(self, j10, monkeypatch):
        from msrcpspr import pareto

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting eps")

        monkeypatch.setattr(pareto, "lexicographic_outcome", no_solve)
        for instance in (chain3_instance(), j10):
            for eps in (0.5, -1e-4, 1e-8):
                with pytest.raises(ValueError, match="eps"):
                    enumerate_front(instance, 4, eps=eps)

    def test_oracle_equivalence_randomized(self):
        # differential campaign: the enumerated front must equal the
        # exhaustive front on a stream of random guard-rail instances
        from conftest import random_small_instance
        from msrcpspr.instance import validate

        rng = np.random.default_rng(20240811)
        checked = 0
        while checked < 40:
            instance = random_small_instance(rng)
            assert validate(instance) == []
            oracle = brute_force_front(instance)
            if not oracle.points:
                continue
            front = enumerate_front(instance, sufficient_grid(oracle), eps=1e-4)
            assert np.array(front.pairs()) == pytest.approx(
                np.array(oracle.pairs()), abs=TOL
            ), instance
            checked += 1

    def test_front_invariants(self, toy5):
        front = enumerate_front(toy5, 12)
        pairs = front.pairs()
        assert pairs == sorted(pairs)
        costs = [c for _, c in pairs]
        assert costs == sorted(costs, reverse=True)
        for _, cost in pairs:
            assert front.payoff.cost_pis - 1e-9 <= cost <= front.payoff.cost_nis + 1e-9

    def test_bypass_skips_grid_points(self, toy5):
        oracle = brute_force_front(toy5)
        n = 4 * sufficient_grid(oracle)
        front = enumerate_front(toy5, n)
        statuses = [rec.status for rec in front.grid_log]
        assert "bypassed" in statuses
        assert len(front.grid_log) == n + 1

    def test_grid_refinement_nested(self, toy5):
        base = enumerate_front(toy5, 5)
        fine = enumerate_front(toy5, 20)
        assert set(base.pairs()) <= set(fine.pairs())

    def test_provenance_recorded(self, toy5):
        front = enumerate_front(toy5, 12)
        for point in front.points:
            assert point.grid_index is not None
            assert point.solution is not None
            record = next(r for r in front.grid_log if r.grid_point == point.grid_index)
            assert record.status == "optimal"
            assert record.makespan == pytest.approx(point.makespan)

    def test_infeasible_instance_diagnosed(self):
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 2}},
        )
        front = enumerate_front(instance, 4)
        assert front.points == ()
        assert front.diagnosis is not None

    def test_grid_count_validated(self, toy5):
        with pytest.raises(ValueError):
            enumerate_front(toy5, 1)


def complete_front(instance) -> list[tuple[float, float]]:
    """Every nondominated (makespan, cost) point, from ``solve`` alone.

    Minimise makespan under a cost budget just below the last point's cost
    (the step, 1e-6, exceeds the budget's ``TOL``), then cost at that
    makespan, until no schedule is left.  No schedule of another point has
    a makespan within ``TOL`` of a point's and costs less, which is the tie
    rule of ``dominance_filter``.
    """
    search = _BranchAndBound(instance)
    points: list[tuple[float, float]] = []
    budget = None
    while budget is None or budget >= 0:
        fastest = solve(instance, SubproblemSpec(primary="makespan", budget=budget), warm=search)
        if fastest.status == "infeasible":
            break
        assert fastest.status == "optimal"
        makespan = fastest.objectives.makespan
        cheapest = solve(instance, SubproblemSpec(primary="cost", budget=makespan), warm=search)
        assert cheapest.status == "optimal"
        points.append((cheapest.objectives.makespan, cheapest.objectives.cost))
        budget = cheapest.objectives.cost - 1e-6
    return points


class TestCompleteFront:
    def test_complete_front_is_the_oracle_front(self, corpus):
        for name, instance in corpus.items():
            oracle = np.array(brute_force_front(instance).pairs())
            assert np.array(complete_front(instance)) == pytest.approx(oracle, abs=TOL), name

    @pytest.mark.parametrize("name", ["toy5", "j10", "j20"])
    def test_every_grid_level_reads_the_complete_front(self, name, request):
        # A solved level's point is the complete front's fastest point within
        # its budget; a bypassed level's budget reaches the same point as the
        # last solved level's.
        instance = request.getfixturevalue(name)
        points = complete_front(instance)

        def fastest_within(budget):
            return min(point for point in points if point[1] <= budget + TOL)

        for grid_count in (5, 10, 20):
            last_solved = None
            for rec in enumerate_front(instance, grid_count).grid_log:
                expected = fastest_within(rec.epsilon)
                if rec.status == "optimal":
                    last_solved = (rec.makespan, rec.cost)
                    assert last_solved == pytest.approx(expected, abs=TOL), (grid_count, rec)
                else:
                    assert rec.status == "bypassed", (grid_count, rec)
                    assert expected == pytest.approx(last_solved, abs=TOL), (grid_count, rec)


class TestPlainVersusAugmented:
    @pytest.mark.parametrize("name", ["toy5", "j10"])
    def test_eps_zero_is_the_classic_method(self, request, name):
        # Without a slack reward nothing is bypassed: every interior level
        # is solved, row for row as plain_epsilon_front does.
        instance = request.getfixturevalue(name)
        front = enumerate_front(instance, 10, eps=0.0)
        assert all(rec.status != "bypassed" for rec in front.grid_log)
        plain = plain_epsilon_front(instance, 10)
        assert front_csv(front, include_timing=False) == front_csv(plain, include_timing=False)


class TestFrontCsv:
    def test_columns_and_timing_toggle(self, toy5):
        front = enumerate_front(toy5, 6)
        text = front_csv(front, include_timing=True)
        lines = text.splitlines()
        assert lines[0] == "grid_point,makespan,cost,slack,solve_status,wall_time"
        assert len(lines) == len(front.grid_log) + 1
        stripped = front_csv(front, include_timing=False)
        for line in stripped.splitlines()[1:]:
            assert line.endswith(",optimal,") or line.endswith(",bypassed,") or line.endswith(",infeasible,")
        again = front_csv(enumerate_front(toy5, 6), include_timing=False)
        assert again == stripped
