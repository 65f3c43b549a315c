import numpy as np
import pytest

from msrcpspr.queueing import InstabilityError
from msrcpspr.schedule import (
    CycleError,
    check_feasibility,
    earliest_starts,
    evaluate,
    gantt_csv,
    gantt_svg,
    tighten_starts,
    to_gantt,
)
from conftest import (
    assignment_tensor,
    build_instance,
    random_completion,
    sequencing_from_order,
)


def chain_instance(with_wait: float | None = None):
    """Two chained activities d=(3,4); optionally the first uses a resource
    tuned so its wait at one assignment is exactly ``with_wait``."""
    requirements = {}
    resources = [({1}, {1: 100.0}, (0.5, 0.5, 10.0 / 3.0))]
    if with_wait == 4.0:
        requirements = {2: {1: 1}}  # W(1) = (1 + mu/2) / (mu/2 - 1) = 4 at mu = 10/3
    elif with_wait == 2.5:
        resources = [({1}, {1: 100.0}, (0.5, 0.5, 14.0 / 3.0))]
        requirements = {2: {1: 1}}
    return build_instance(
        durations={1: 0, 2: 3, 3: 4, 4: 0},
        successors={1: (2,), 2: (3,), 3: (4,)},
        skill_count=1,
        resources=resources,
        requirements=requirements,
    )


def zeros_solution(instance):
    X = np.zeros((instance.n_nodes, instance.skill_count, len(instance.resources)), dtype=np.int8)
    Z = np.zeros((instance.n_nodes, instance.n_nodes), dtype=np.int8)
    return X, Z


class TestTightenStarts:
    def test_chain_without_waits(self):
        instance = chain_instance()
        X, Z = zeros_solution(instance)
        sol = tighten_starts(instance, X, Z)
        assert sol.starts[1] == pytest.approx(0.0)
        assert sol.starts[2] == pytest.approx(3.0)
        assert sol.starts[3] == pytest.approx(7.0)  # makespan

    def test_chain_with_wait_four(self):
        instance = chain_instance(with_wait=4.0)
        X, _ = zeros_solution(instance)
        X[1, 0, 0] = 1
        Z = np.zeros_like(instance.precedence, dtype=np.int8)
        sol = tighten_starts(instance, X, Z)
        assert sol.waits[0] == pytest.approx(4.0)
        assert sol.starts[2] == pytest.approx(3.0 + 4.0)
        assert sol.starts[3] == pytest.approx(11.0)

    def test_unstable_assignment_names_resource(self):
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 4, 4: 0},
            successors={1: (2,), 2: (3,), 3: (4,)},
            skill_count=1,
            resources=[({1}, {1: 100.0}, (0.5, 0.5, 2.0))],  # critical rate 1.0
            requirements={2: {1: 1}, 3: {1: 1}},
        )
        X, _ = zeros_solution(instance)
        X[1, 0, 0] = 1
        X[2, 0, 0] = 1
        Z = np.zeros_like(instance.precedence, dtype=np.int8)
        Z[1, 2] = 1
        with pytest.raises(InstabilityError) as err:
            tighten_starts(instance, X, Z)
        assert err.value.resource == 1

    def test_cycle_in_sequencing(self, toy5):
        X, Z = zeros_solution(toy5)
        Z[1, 2] = 1
        Z[2, 3] = 1
        Z[3, 1] = 1
        with pytest.raises(CycleError):
            tighten_starts(toy5, X, Z)

    def test_closure_against_check_feasibility(self, corpus):
        rng = np.random.default_rng(5)
        for instance in corpus.values():
            for _ in range(20):
                X, Z = random_completion(instance, rng)
                sol = tighten_starts(instance, X, Z)
                assert check_feasibility(instance, sol) == []

    def test_deterministic_repeat(self, toy5):
        rng = np.random.default_rng(6)
        X, Z = random_completion(toy5, rng)
        s1 = tighten_starts(toy5, X, Z)
        s2 = tighten_starts(toy5, X, Z)
        assert np.array_equal(s1.starts, s2.starts)


class TestEarliestStarts:
    def test_arc_order_irrelevant(self):
        weights = [2.0, 3.0, 1.0, 0.0]
        arcs_a = [[1, 2], [3], [3], []]
        arcs_b = [[2, 1], [3], [3], []]
        assert earliest_starts(4, arcs_a, weights) == earliest_starts(4, arcs_b, weights)

    def test_cycle_raises(self):
        with pytest.raises(CycleError):
            earliest_starts(2, [[1], [0]], [1.0, 1.0])

    def test_cycle_message_lists_nodes_on_or_behind_it(self):
        # 1-based ids, formatted as a list: 2 and 3 form the cycle, 4 is behind it.
        with pytest.raises(CycleError) as err:
            earliest_starts(4, [[1], [2], [1, 3], []], [1.0] * 4)
        assert str(err.value) == "precedence plus sequencing is cyclic through activities [2, 3, 4]"


class TestCheckFeasibility:
    def feasible_toy5(self, toy5, seed=0):
        rng = np.random.default_rng(seed)
        X, Z = random_completion(toy5, rng)
        return X, Z, tighten_starts(toy5, X, Z)

    def test_unmet_requirement_is_eq3(self, toy5):
        X, Z, sol = self.feasible_toy5(toy5)
        sol.assignment[1, :, :] = 0  # activity 2 loses its skill-1 resource
        labels = [(v.equation, v.indices) for v in check_feasibility(toy5, sol)]
        assert (3, (2, 1)) in labels

    def test_parallel_sharing_is_eq6(self):
        instance = build_instance(
            durations={1: 0, 2: 4, 3: 4, 4: 0},
            successors={1: (2, 3), 2: (4,), 3: (4,)},
            skill_count=1,
            resources=[({1}, {1: 100.0}, (0.5, 0.5, 6.0))],
            requirements={2: {1: 1}, 3: {1: 1}},
        )
        X = assignment_tensor(instance, {2: ((1, 1),), 3: ((1, 1),)})
        Z = sequencing_from_order(instance, X, [1, 2, 3, 4])
        sol = tighten_starts(instance, X, Z)
        assert check_feasibility(instance, sol) == []
        sol.sequencing[1, 2] = 0  # drop the ordering decision
        equations = {v.equation for v in check_feasibility(instance, sol)}
        assert 6 in equations

    def test_hand_built_oracle_solution_clean(self, toy5):
        X, Z, sol = self.feasible_toy5(toy5, seed=3)
        assert check_feasibility(toy5, sol) == []

    def test_antisymmetry_eq5(self, toy5):
        X, Z, sol = self.feasible_toy5(toy5)
        sol.sequencing[1, 2] = 1
        sol.sequencing[2, 1] = 1
        equations = {v.equation for v in check_feasibility(toy5, sol)}
        assert 5 in equations

    def test_dimension_mismatch_is_structural(self, toy5):
        X, Z, sol = self.feasible_toy5(toy5)
        sol.waits = sol.waits[:-1]
        with pytest.raises(ValueError, match="shape"):
            check_feasibility(toy5, sol)

    def test_resource_exclusivity_intervals(self, corpus):
        # Feasible solutions never let two unsequenced activities occupy one
        # resource at overlapping [start, start + duration) windows.
        rng = np.random.default_rng(11)
        for instance in corpus.values():
            X, Z = random_completion(instance, rng)
            sol = tighten_starts(instance, X, Z)
            usage = sol.assignment.sum(axis=1)
            for k in range(len(instance.resources)):
                users = [u for u in range(instance.n_nodes) if usage[u, k]]
                for a_idx in range(len(users)):
                    for b_idx in range(a_idx + 1, len(users)):
                        a, b = users[a_idx], users[b_idx]
                        a_end = sol.starts[a] + instance.duration_array[a]
                        b_end = sol.starts[b] + instance.duration_array[b]
                        overlap = min(a_end, b_end) - max(sol.starts[a], sol.starts[b])
                        assert overlap <= 1e-9


class TestEvaluate:
    def test_empty_project(self):
        instance = build_instance(
            durations={1: 0, 2: 0},
            successors={1: (2,)},
            skill_count=1,
            resources=[({1}, {1: 100.0}, (0.5, 0.5, 6.0))],
            requirements={},
        )
        X, Z = zeros_solution(instance)
        sol = tighten_starts(instance, X, Z)
        values = evaluate(instance, sol)
        assert values.makespan == 0.0
        assert values.cost == 0.0

    def test_single_assignment_cost(self):
        instance = build_instance(
            durations={1: 0, 2: 5, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 100.0}, (0.5, 0.5, 6.0))],
            requirements={2: {1: 1}},
        )
        X = assignment_tensor(instance, {2: ((1, 1),)})
        Z = np.zeros_like(instance.precedence, dtype=np.int8)
        sol = tighten_starts(instance, X, Z)
        assert evaluate(instance, sol).cost == pytest.approx(500.0)

    def test_adding_assignment_never_cheaper(self, toy5):
        rng = np.random.default_rng(8)
        X, Z = random_completion(toy5, rng)
        sol = tighten_starts(toy5, X, Z)
        base = evaluate(toy5, sol).cost
        extended = sol.assignment.copy()
        extended[4, 0, 1] = 1  # one more (activity 5, skill 1, resource 2)
        richer = tighten_starts(toy5, extended, Z)
        assert evaluate(toy5, richer).cost >= base


class TestGantt:
    def test_single_activity_no_wait_block(self):
        instance = build_instance(
            durations={1: 0, 2: 5, 3: 0},
            successors={1: (2,), 2: (3,)},
            skill_count=1,
            resources=[({1}, {1: 100.0}, (0.5, 0.5, 6.0))],
            requirements={},
        )
        X, Z = zeros_solution(instance)
        rows = to_gantt(instance, tighten_starts(instance, X, Z))
        assert len(rows) == 1
        assert rows[0].wait == 0.0
        assert 'fill="#f4d06f"' not in gantt_svg(rows)

    def test_wait_block_length(self):
        instance = chain_instance(with_wait=2.5)
        X = assignment_tensor(instance, {2: ((1, 1),)})
        Z = np.zeros_like(instance.precedence, dtype=np.int8)
        sol = tighten_starts(instance, X, Z)
        rows = to_gantt(instance, sol)
        row = next(r for r in rows if r.activity == 2)
        assert row.wait == pytest.approx(2.5)
        assert 'fill="#f4d06f"' in gantt_svg(rows)

    def test_oracle_solution_rows(self, toy5):
        rng = np.random.default_rng(4)
        X, Z = random_completion(toy5, rng)
        sol = tighten_starts(toy5, X, Z)
        rows = to_gantt(toy5, sol)
        assert len(rows) == 5
        makespan = evaluate(toy5, sol).makespan
        assert max(r.start + r.duration + r.wait for r in rows) == pytest.approx(makespan)
        assert rows == sorted(rows, key=lambda r: (r.start, r.activity))

    def test_row_labels_match_assignment(self, corpus):
        # every reported (resource, skill) pair must be an actual assignment
        # entry, and the resource must master the skill it is labeled with
        rng = np.random.default_rng(12)
        for instance in corpus.values():
            X, Z = random_completion(instance, rng)
            sol = tighten_starts(instance, X, Z)
            for row in to_gantt(instance, sol):
                labeled = set(row.resources)
                actual = {
                    (res, skill)
                    for skill in range(1, instance.skill_count + 1)
                    for res in range(1, len(instance.resources) + 1)
                    if sol.assignment[row.activity - 1, skill - 1, res - 1]
                }
                assert labeled == actual
                for res, skill in labeled:
                    assert instance.mastery_matrix[skill - 1, res - 1]

    def test_infeasible_rejected(self, toy5):
        rng = np.random.default_rng(4)
        X, Z = random_completion(toy5, rng)
        sol = tighten_starts(toy5, X, Z)
        sol.starts[2] = 0.0
        sol.starts[1] = 0.0
        sol.assignment[1, :, :] = 0
        with pytest.raises(ValueError, match="infeasible"):
            to_gantt(toy5, sol)

    def test_csv_shape(self, toy5):
        rng = np.random.default_rng(4)
        X, Z = random_completion(toy5, rng)
        rows = to_gantt(toy5, tighten_starts(toy5, X, Z))
        text = gantt_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "activity,start,wait,duration,resources"
        assert len(lines) == 6
        assert text.endswith("\n") and "\r" not in text
