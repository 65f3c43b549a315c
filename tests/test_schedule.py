import numpy as np
import pytest

from msrcpspr.pareto import enumerate_front
from msrcpspr.queueing import InstabilityError, QueueOperatingPoint, waiting_time
from msrcpspr.schedule import (
    TOL,
    CycleError,
    InfeasibleSolutionError,
    Violation,
    _check_shapes,
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
from test_acceptance import _copy_solution, _corrupters


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


def reference_check_feasibility(instance, sol):
    """check_feasibility element by element over the numpy arrays: the
    reference the list-based version must match violation for violation."""
    _check_shapes(instance, sol)
    violations = []
    n = instance.n_nodes
    X = sol.assignment
    Z = sol.sequencing
    req = instance.requirement_matrix
    mastery = instance.mastery_matrix
    d = instance.duration_array
    executables = list(instance.executable_ids)

    for i in executables:
        for skill in range(1, instance.skill_count + 1):
            assigned = int(X[i - 1, skill - 1, :].sum())
            needed = int(req[i - 1, skill - 1])
            if assigned != needed:
                violations.append(
                    Violation(3, (i, skill), assigned - needed,
                              f"eq3: activity {i} skill {skill} has {assigned} resources, needs {needed}")
                )
        for res in range(1, len(instance.resources) + 1):
            used = int(X[i - 1, :, res - 1].sum())
            if used > 1:
                violations.append(
                    Violation(4, (i, res), used - 1,
                              f"eq4: activity {i} uses resource {res} for {used} skills (max 1)")
                )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            both = int(Z[i - 1, j - 1]) + int(Z[j - 1, i - 1])
            if both > 1:
                violations.append(
                    Violation(5, (i, j), both - 1,
                              f"eq5: activities {i} and {j} sequence each other both ways")
                )
            for res in range(1, len(instance.resources) + 1):
                load = int(X[i - 1, :, res - 1].sum()) + int(X[j - 1, :, res - 1].sum())
                if load > 1 + both:
                    violations.append(
                        Violation(6, (i, j, res), load - 1 - both,
                                  f"eq6: unsequenced activities {i} and {j} share resource {res}")
                    )

    counts = X.sum(axis=(0, 1)).astype(float)
    for res in range(1, len(instance.resources) + 1):
        stored = float(sol.arrival_rates[res - 1])
        if abs(stored - counts[res - 1]) > TOL:
            violations.append(
                Violation(7, (res,), stored - counts[res - 1],
                          f"eq7: resource {res} arrival rate {stored:g} != assignment count {counts[res - 1]:g}")
            )

    for res_profile in instance.resources:
        res = res_profile.id
        stored = float(sol.waits[res - 1])
        point = QueueOperatingPoint(float(sol.arrival_rates[res - 1]), res_profile.reliability)
        try:
            expected = waiting_time(point)
        except (InstabilityError, ValueError):
            violations.append(
                Violation(8, (res,), float("inf"),
                          f"eq8: resource {res} operates at an unstable arrival rate")
            )
            continue
        if not np.isfinite(stored) or abs(stored - expected) > TOL:
            violations.append(
                Violation(8, (res,), stored - expected,
                          f"eq8: resource {res} wait {stored:g} != queue value {expected:g}")
            )

    for i in executables:
        for res in range(1, len(instance.resources) + 1):
            uses = int(X[i - 1, :, res - 1].sum()) >= 1
            flagged = bool(sol.usage[i - 1, res - 1])
            if uses != flagged:
                violations.append(
                    Violation(9, (i, res), float(flagged) - float(uses),
                              f"eq9: activity {i} usage flag for resource {res} is {int(flagged)}, "
                              f"assignments say {int(uses)}")
                )
            if flagged:
                gap = float(sol.waits[res - 1]) - float(sol.activity_waits[i - 1])
                if gap > TOL:
                    violations.append(
                        Violation(9, (i, res), gap,
                                  f"eq9: activity {i} wait {sol.activity_waits[i - 1]:g} below "
                                  f"resource {res} wait {sol.waits[res - 1]:g}")
                    )

    prec = instance.precedence
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or not (prec[i - 1, j - 1] or Z[i - 1, j - 1]):
                continue
            lhs = float(sol.starts[i - 1] + d[i - 1] + sol.activity_waits[i - 1])
            gap = lhs - float(sol.starts[j - 1])
            if gap > TOL:
                violations.append(
                    Violation(10, (i, j), gap,
                              f"eq10: activity {j} starts {sol.starts[j - 1]:g}, "
                              f"predecessor {i} releases it at {lhs:g}")
                )

    for i in range(1, n + 1):
        for skill in range(1, instance.skill_count + 1):
            for res in range(1, len(instance.resources) + 1):
                if X[i - 1, skill - 1, res - 1] and not mastery[skill - 1, res - 1]:
                    violations.append(
                        Violation(11, (i, skill, res), 1.0,
                                  f"eq11: resource {res} assigned skill {skill} on activity {i} "
                                  f"without mastering it")
                    )

    for name, eq_values in (
        ("arrival rate", sol.arrival_rates),
        ("resource wait", sol.waits),
        ("activity wait", sol.activity_waits),
        ("start", sol.starts),
    ):
        for idx, value in enumerate(np.asarray(eq_values, dtype=float), start=1):
            if not np.isfinite(value) or value < -TOL:
                violations.append(
                    Violation(12, (idx,), float(value),
                              f"eq12: {name} {idx} is {value!r}, must be finite and >= 0")
                )
    return violations


def _violation_key(v):
    """Every field, the residual by repr so NaN equals NaN; eq12's message,
    which the reference renders through the numpy repr, is checked apart."""
    return v.equation, v.indices, repr(float(v.residual)), None if v.equation == 12 else v.message


def _random_corruptions(sol, rng, count):
    """``count`` copies of ``sol``, each with one to three seeded edits of
    X, Z, S, W, T, lambda or Y."""
    out = []
    for _ in range(count):
        broken = _copy_solution(sol)
        for _ in range(int(rng.integers(1, 4))):
            field = ("assignment", "sequencing", "usage", "starts", "waits", "activity_waits",
                     "arrival_rates")[int(rng.integers(7))]
            values = getattr(broken, field)
            at = tuple(int(rng.integers(size)) for size in values.shape)
            if values.dtype == np.int8:
                values[at] = 1 - values[at]
            else:
                values[at] = (values[at] + rng.choice([-2.5, -0.5, 0.5, 1.0]), -1.0, np.nan,
                              np.inf)[int(rng.integers(4))]
        out.append(broken)
    return out


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

    def test_matches_the_elementwise_reference(self, corpus, j10, j20):
        # Feasible completions of the corpus, the j10 and j20 front points,
        # the acceptance suite's corruption of each of equations 3-12, and
        # seeded random edits: the same violations in the same order.
        rng = np.random.default_rng(26)
        cases = []
        for instance in corpus.values():
            for _ in range(3):
                cases.append((instance, tighten_starts(instance, *random_completion(instance, rng))))
        for instance in (j10, j20):
            front = enumerate_front(instance, 10, eps=1e-4)
            cases.extend((instance, point.solution) for point in front.points)
        checked, equations = 0, set()
        for instance, sol in cases:
            assert check_feasibility(instance, sol) == []
            broken = []
            for _, mutate in _corrupters(instance, sol):
                broken.append(_copy_solution(sol))
                mutate(broken[-1])
            broken += _random_corruptions(sol, rng, 12)
            for bad in broken:
                got = check_feasibility(instance, bad)
                want = reference_check_feasibility(instance, bad)
                assert list(map(_violation_key, got)) == list(map(_violation_key, want))
                for v in got:
                    if v.equation == 12:
                        assert f" is {float(v.residual)!r}, must be" in v.message
                equations.update(v.equation for v in got)
                checked += 1
        assert equations == set(range(3, 13))
        assert checked > 300

    def test_eq12_message_shows_a_plain_float(self, toy5):
        X, Z, sol = self.feasible_toy5(toy5)
        sol.starts[2] = -1.0
        [violation] = [v for v in check_feasibility(toy5, sol) if v.equation == 12]
        assert violation.message == "eq12: start 3 is -1.0, must be finite and >= 0"
        assert violation.residual == -1.0

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
        with pytest.raises(ValueError, match="infeasible") as err:
            to_gantt(toy5, sol)
        assert isinstance(err.value, InfeasibleSolutionError)

    def test_csv_shape(self, toy5):
        rng = np.random.default_rng(4)
        X, Z = random_completion(toy5, rng)
        rows = to_gantt(toy5, tighten_starts(toy5, X, Z))
        text = gantt_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "activity,start,wait,duration,resources"
        assert len(lines) == 6
        assert text.endswith("\n") and "\r" not in text
