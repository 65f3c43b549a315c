import math

import numpy as np
import pytest

from msrcpspr.solver import (
    GuardRailError,
    SolveLimits,
    SubproblemSpec,
    _Context,
    brute_force_front,
    enumerate_assignments,
    lexicographic_optimum,
    lexicographic_outcome,
    solve,
)
from msrcpspr.schedule import earliest_starts

from conftest import build_instance, chain3_instance, single1_instance


class TestEnumerateAssignments:
    def test_two_masters_one_needed(self, toy5):
        options = enumerate_assignments(toy5, 2)  # skill 1 x1, masters {1, 2}
        assert options == [((1, 1),), ((1, 2),)]

    def test_no_requirements_single_empty_option(self, toy5):
        instance = chain3_instance()
        # strip requirements from activity 2 by rebuilding
        from msrcpspr.instance import Activity, ProjectInstance

        acts = list(instance.activities)
        acts[1] = Activity(id=2, duration=acts[1].duration, skill_requirements=())
        stripped = ProjectInstance(
            activities=tuple(acts),
            precedence=instance.precedence,
            resources=instance.resources,
            skill_count=instance.skill_count,
        )
        assert enumerate_assignments(stripped, 2) == [()]

    def test_disjointness_enforced(self):
        # one resource masters both skills; an activity demanding both needs
        # two distinct resources, so the overlapping combo must drop out
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=2,
            resources=[
                ({1, 2}, {1: 10.0, 2: 10.0}, (0.5, 0.5, 8.0)),
                ({1}, {1: 20.0}, (0.5, 0.5, 8.0)),
                ({2}, {2: 20.0}, (0.5, 0.5, 8.0)),
            ],
            requirements={2: {1: 1, 2: 1}},
        )
        options = enumerate_assignments(instance, 2)
        assert ((1, 1), (2, 1)) not in options
        assert ((1, 1), (2, 3)) in options
        assert ((1, 2), (2, 1)) in options

    def test_impossible_requirement(self):
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 2}},
        )
        assert enumerate_assignments(instance, 2) == []


class TestSolve:
    def test_matches_brute_force_optimum(self, toy5):
        front = brute_force_front(toy5)
        best = solve(toy5, SubproblemSpec(primary="makespan"))
        assert best.status == "optimal"
        assert best.objectives.makespan == pytest.approx(front.points[0].makespan, abs=1e-9)

    def test_budget_below_cost_minimum_infeasible(self, toy5):
        front = brute_force_front(toy5)
        min_cost = front.points[-1].cost
        result = solve(toy5, SubproblemSpec(primary="makespan", budget=min_cost - 1.0))
        assert result.status == "infeasible"
        assert result.solution is None

    def test_single_activity_cost_dominance(self):
        instance = single1_instance()
        result = solve(instance, SubproblemSpec(primary="cost"))
        assert result.status == "optimal"
        assert result.objectives.cost == pytest.approx(5 * 100.0)
        assert result.solution.assignment[1, 0, 0] == 1

    def test_solution_passes_feasibility(self, corpus):
        from msrcpspr.schedule import check_feasibility

        for instance in corpus.values():
            result = solve(instance, SubproblemSpec(primary="makespan"))
            assert result.status == "optimal"
            assert check_feasibility(instance, result.solution) == []

    def test_optimal_slack_invariant(self, toy5):
        front = brute_force_front(toy5)
        budget = front.points[1].cost
        result = solve(toy5, SubproblemSpec(primary="makespan", budget=budget))
        assert result.status == "optimal"
        assert result.slack == pytest.approx(budget - result.objectives.cost, abs=1e-9)
        assert result.slack >= 0

    def test_monotone_budgets(self, toy5):
        front = brute_force_front(toy5)
        budgets = sorted({p.cost for p in front.points})
        best_primary = math.inf
        for budget in budgets:
            result = solve(toy5, SubproblemSpec(primary="makespan", budget=budget))
            assert result.status == "optimal"
            assert result.objectives.makespan <= best_primary + 1e-9
            best_primary = result.objectives.makespan

    def test_deterministic(self, toy5):
        a = solve(toy5, SubproblemSpec(primary="makespan"))
        b = solve(toy5, SubproblemSpec(primary="makespan"))
        assert a.objectives == b.objectives
        assert a.nodes_explored == b.nodes_explored
        assert np.array_equal(a.solution.assignment, b.solution.assignment)
        assert np.array_equal(a.solution.sequencing, b.solution.sequencing)

    def test_node_limit_reports_timeout(self, toy5):
        result = solve(toy5, SubproblemSpec(primary="makespan"), SolveLimits(node_limit=1))
        assert result.status == "timeout"

    def test_node_limit_counts_inner_and_outer_nodes(self, toy5):
        spec = SubproblemSpec(primary="makespan")
        full = solve(toy5, spec)
        exact = solve(toy5, spec, SolveLimits(node_limit=full.nodes_explored))
        assert exact.status == "optimal"
        assert exact.nodes_explored == full.nodes_explored
        limit = full.nodes_explored // 2
        short = solve(toy5, spec, SolveLimits(node_limit=limit))
        assert short.status == "timeout"
        assert short.nodes_explored == limit + 1

    def test_sequencing_search_honours_limits(self):
        # Seven unrelated activities on one resource: a single assignment
        # leaf whose 21 sequencing decisions hold nearly all the nodes.
        executables = range(2, 9)
        instance = build_instance(
            durations={1: 0, **{i: i for i in executables}, 9: 0},
            successors={1: tuple(executables), **{i: (9,) for i in executables}},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 40.0))],
            requirements={i: {1: 1} for i in executables},
        )
        limits = SolveLimits(time_limit=0.2, node_limit=100)
        result = solve(instance, SubproblemSpec(primary="makespan"), limits)
        assert result.status == "timeout"
        assert result.nodes_explored <= 101

    def test_infeasible_activity(self):
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 2}},
        )
        result = solve(instance, SubproblemSpec(primary="makespan"))
        assert result.status == "infeasible"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubproblemSpec(primary="speed")
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", budget=-1.0)
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", eps=0.5, budget=10.0, objective_range=1.0)
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", eps=1e-4)

    def test_augmented_tie_break_prefers_slack(self, toy5):
        # At a generous budget the augmented solve must return the cheapest
        # among the makespan-optimal solutions.
        front = brute_force_front(toy5)
        budget = front.points[0].cost + 500.0
        plain = solve(toy5, SubproblemSpec(primary="makespan", budget=budget))
        augmented = solve(
            toy5,
            SubproblemSpec(primary="makespan", budget=budget, eps=1e-4, objective_range=1000.0),
        )
        assert augmented.objectives.makespan == pytest.approx(plain.objectives.makespan, abs=1e-9)
        assert augmented.objectives.cost <= plain.objectives.cost + 1e-9
        assert augmented.objectives.cost == pytest.approx(front.points[0].cost, abs=1e-9)


class TestBounds:
    def test_critical_path_bound_admissible(self, corpus):
        for instance in corpus.values():
            ctx = _Context(instance)
            lb = earliest_starts(ctx.n, ctx.prec_succ, list(instance.duration_array))[ctx.sink]
            front = brute_force_front(instance)
            for point in front.points:
                assert lb <= point.makespan + 1e-9


class TestLexicographic:
    def test_matches_oracle_rows(self, toy5):
        front = brute_force_front(toy5)
        row = lexicographic_optimum(toy5, ("makespan", "cost"))
        assert row.makespan == pytest.approx(front.points[0].makespan, abs=1e-9)
        assert row.cost == pytest.approx(front.points[0].cost, abs=1e-9)
        row = lexicographic_optimum(toy5, ("cost", "makespan"))
        assert row.cost == pytest.approx(front.points[-1].cost, abs=1e-9)
        assert row.makespan == pytest.approx(front.points[-1].makespan, abs=1e-9)

    def test_single_solution_orders_agree(self):
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 1}},
        )
        a = lexicographic_optimum(instance, ("makespan", "cost"))
        b = lexicographic_optimum(instance, ("cost", "makespan"))
        assert a == b

    def test_outcome_carries_solution(self, toy5):
        outcome = lexicographic_outcome(toy5, ("makespan", "cost"))
        assert outcome.result.solution is not None
        assert outcome.statuses == ("optimal", "optimal")

    def test_bad_order_rejected(self, toy5):
        with pytest.raises(ValueError):
            lexicographic_optimum(toy5, ("makespan", "makespan"))


class TestJ20Smoke:
    def test_payoff_row_within_time_limit(self, data_dir):
        """Large-instance shape check: the payoff table stays finite even
        when a stage hits its limit, and the solution renders with wait
        blocks wherever activities queue."""
        import json

        from msrcpspr.instance import load_extension, read_psplib
        from msrcpspr.schedule import to_gantt

        instance = load_extension(
            read_psplib(data_dir / "j20.sm"),
            json.loads((data_dir / "j20_skills.json").read_text()),
        )
        outcome = lexicographic_outcome(instance, ("makespan", "cost"), SolveLimits(time_limit=8.0))
        assert set(outcome.statuses) <= {"optimal", "timeout"}
        assert math.isfinite(outcome.objectives.makespan)
        assert math.isfinite(outcome.objectives.cost)
        rows = to_gantt(instance, outcome.result.solution)
        assert len(rows) == 20
        assert any(row.wait > 0 for row in rows)


class TestBruteForce:
    def test_single_activity_two_resources(self):
        front = brute_force_front(single1_instance())
        assert 1 <= len(front.points) <= 2
        # cheap resource: makespan 5 + W(1)=2 -> 7; dear: 5 + 1.5 -> 6.5
        assert front.pairs() == [(6.5, 1000.0), (7.0, 500.0)]

    def test_chain_identical_resources_single_point(self):
        front = brute_force_front(chain3_instance())
        assert len(front.points) == 1

    def test_guard_rails(self, j10):
        with pytest.raises(GuardRailError):
            brute_force_front(j10)

    def test_front_sorted_and_nondominated(self, corpus):
        for instance in corpus.values():
            front = brute_force_front(instance)
            pairs = front.pairs()
            assert pairs == sorted(pairs)
            costs = [c for _, c in pairs]
            assert costs == sorted(costs, reverse=True)
            assert len(set(costs)) == len(costs)
