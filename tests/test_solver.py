import itertools
import math
import operator
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msrcpspr import pareto, solver

from msrcpspr.instance import ValidationError, scale_reliability, topological_order, validate
from msrcpspr.pareto import GuardRailError, brute_force_front
from msrcpspr.queueing import InstabilityError, QueueOperatingPoint, waiting_time
from msrcpspr.solver import (
    SolveLimits,
    SubproblemSpec,
    _BranchAndBound,
    _slack_reward,
    enumerate_assignments,
    lexicographic_optimum,
    lexicographic_outcome,
    solve,
)
from msrcpspr.schedule import TIE_TOL, TOL, CycleError, earliest_starts, evaluate, tighten_starts

from conftest import (
    build_instance,
    chain3_instance,
    random_small_instance,
    relabel,
    single1_instance,
)
from test_pareto import sufficient_grid


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
        assert short.nodes_explored == limit
        one_short = solve(toy5, spec, SolveLimits(node_limit=full.nodes_explored - 1))
        assert one_short.status == "timeout"
        assert one_short.nodes_explored == full.nodes_explored - 1

    def test_sequencing_search_honours_limits(self, monkeypatch):
        # Seven activities share one resource, each behind a private head
        # and ahead of a private tail activity (one machine with release and
        # delivery times): a single assignment leaf whose 21 sequencing
        # decisions hold most of the nodes and are not settled by the
        # one-machine floor at the root.  The assignment search takes 22
        # nodes and the sequencing root the 23rd; the proof takes 85, so a
        # limit of 50 cuts the sequencing search.
        heads = (1, 9, 4, 12, 6, 2, 10)
        shared = (5, 3, 6, 4, 7, 2, 5)
        tails = (11, 2, 8, 5, 1, 9, 3)
        sink = 3 * 7 + 2
        durations = {1: 0, sink: 0}
        successors = {1: tuple(range(2, 9))}
        for i in range(7):
            head, mid, tail = 2 + i, 9 + i, 16 + i
            durations.update({head: heads[i], mid: shared[i], tail: tails[i]})
            successors.update({head: (mid,), mid: (tail,), tail: (sink,)})
        instance = build_instance(
            durations=durations,
            successors=successors,
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 40.0))],
            requirements={9 + i: {1: 1} for i in range(7)},
        )
        spec = SubproblemSpec(primary="makespan")
        assert solve(instance, spec).nodes_explored == 85
        cut = []
        original = _BranchAndBound._sequenced

        def watched(self, upper):
            outcome = original(self, upper)
            cut.append(self.timed_out)
            return outcome

        monkeypatch.setattr(_BranchAndBound, "_sequenced", watched)
        result = solve(instance, spec, SolveLimits(node_limit=50))
        assert result.status == "timeout"
        assert result.nodes_explored == 50
        assert cut == [True]

    def test_one_resource_proved_at_its_floor(self):
        # Nine unrelated activities on one resource: every order has the
        # same makespan, which the one-machine floor proves at the first leaf.
        executables = range(2, 11)
        instance = build_instance(
            durations={1: 0, **{i: i for i in executables}, 11: 0},
            successors={1: tuple(executables), **{i: (11,) for i in executables}},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 40.0))],
            requirements={i: {1: 1} for i in executables},
        )
        result = solve(instance, SubproblemSpec(primary="makespan"), SolveLimits(node_limit=100))
        assert result.status == "optimal"
        wait = waiting_time(QueueOperatingPoint(9.0, instance.resources[0].reliability))
        assert result.objectives.makespan == pytest.approx(sum(executables) + 9 * wait, abs=1e-9)

    def test_dangling_activity_rejected(self):
        # Activity 3 has no successor, so the makespan S_sink would not cover it.
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 4, 4: 0},
            successors={1: (2, 3), 2: (4,)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 1}, 3: {1: 1}},
        )
        assert any("no path to the dummy sink" in v for v in validate(instance))
        with pytest.raises(ValidationError, match="no path to the dummy sink"):
            solve(instance, SubproblemSpec(primary="makespan"))

    def test_cyclic_precedence_rejected_before_any_node(self, monkeypatch):
        # Parsing rejects a cyclic file, but a directly built instance
        # reaches the solver, which must refuse it before it searches.
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 4, 4: 0},
            successors={1: (2,), 2: (3,), 3: (2, 4)},
            skill_count=1,
            resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
            requirements={2: {1: 1}, 3: {1: 1}},
        )

        def no_search(self):
            raise AssertionError("a node was searched")

        monkeypatch.setattr(_BranchAndBound, "_dfs", no_search)
        with pytest.raises(CycleError, match="instance precedence graph is cyclic"):
            solve(instance, SubproblemSpec(primary="makespan"))

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

    def test_activity_without_candidate_among_branching_ones(self):
        # Activity 3 has no candidate (two masters needed, one exists) while
        # 2 and 4 have several: the cost-gap order must still table it, and
        # the solve ends infeasible before any node.
        instance = build_instance(
            durations={1: 0, 2: 3, 3: 2, 4: 4, 5: 0},
            successors={1: (2, 3, 4), 2: (5,), 3: (5,), 4: (5,)},
            skill_count=2,
            resources=[
                ({1, 2}, {1: 10.0, 2: 30.0}, (0.5, 0.5, 8.0)),
                ({1}, {1: 20.0}, (0.5, 0.5, 8.0)),
            ],
            requirements={2: {1: 1}, 3: {2: 2}, 4: {1: 1}},
        )
        bb = _BranchAndBound(instance)
        assert [len(c) for c in bb.candidates] == [2, 2, 0]
        assert bb.acts == [3, 1, 2]
        result = solve(instance, SubproblemSpec(primary="makespan"))
        assert (result.status, result.nodes_explored) == ("infeasible", 0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SubproblemSpec(primary="speed")
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", budget=-1.0)
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", eps=0.5, budget=10.0, objective_range=1.0)
        with pytest.raises(ValueError):
            SubproblemSpec(primary="makespan", eps=1e-4)

    def test_augmentation_needs_a_makespan_primary(self):
        SubproblemSpec(primary="makespan", budget=10.0, eps=1e-4, objective_range=5.0)
        with pytest.raises(ValueError, match="makespan"):
            SubproblemSpec(primary="cost", budget=10.0, eps=1e-4, objective_range=5.0)

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


def _sequencing_case(rng: np.random.Generator):
    """A small project with zero durations and tied weights, one random
    assignment fixed, and the sharing pairs that precedence leaves open."""
    n = int(rng.integers(6, 10))
    durations = {1: 0, n: 0}
    successors = {}
    has_pred = set()
    for act in range(2, n):
        durations[act] = int(rng.choice([0, 0, 2, 3, 3, 5]))
        later = {int(v) for v in range(act + 1, n) if rng.random() < 0.2}
        successors[act] = tuple(sorted(later)) or (n,)
        has_pred |= later
    successors[1] = tuple(act for act in range(2, n) if act not in has_pred)
    instance = build_instance(
        durations=durations,
        successors=successors,
        skill_count=1,
        resources=[({1}, {1: 10.0}, (0.5, 0.5, 40.0)), ({1}, {1: 20.0}, (0.5, 0.5, 40.0))],
        requirements={act: {1: int(rng.choice([0, 1, 1, 2]))} for act in range(2, n)},
    )
    bb = _BranchAndBound(instance)
    for idx in range(len(bb.acts)):
        bb._assign(idx, int(rng.integers(len(bb.candidates[idx]))))
    pairs = {p for nodes in bb.users for p in itertools.combinations(sorted(nodes), 2)}
    reach = bb.reach
    decisions = [
        (i, j) for i, j in sorted(pairs) if not (reach[i] >> j) & 1 and not (reach[j] >> i) & 1
    ]
    return bb, decisions


def _pristine(bb: _BranchAndBound):
    """A fresh search object's precedence graph for ``bb``'s instance."""
    fresh = _BranchAndBound(bb.instance)
    return fresh.succ, fresh.pred, fresh.reach


def _orientation_makespans(
    bb: _BranchAndBound, decisions: list[tuple[int, int]]
) -> dict[tuple[tuple[int, int], ...], float]:
    """The makespan of every acyclic orientation of ``decisions``, keyed by
    its arcs in the order of ``decisions``."""
    prec_succ = _pristine(bb)[0]
    makespans = {}
    for flips in itertools.product((False, True), repeat=len(decisions)):
        arcs = tuple((j, i) if flip else (i, j) for (i, j), flip in zip(decisions, flips))
        succ = [list(targets) for targets in prec_succ]
        for u, v in arcs:
            succ[u].append(v)
        try:
            makespans[arcs] = earliest_starts(bb.n, succ, bb.weights)[bb.sink]
        except CycleError:
            continue
    return makespans


def _exhaustive_makespan(bb: _BranchAndBound, decisions: list[tuple[int, int]]) -> float:
    """The best makespan over every orientation of ``decisions``."""
    return min(_orientation_makespans(bb, decisions).values(), default=math.inf)


def _first_kept(items, value):
    """What a scan of ``items`` in order keeps when a later item replaces
    the kept one only if its ``value`` is lower by more than ``TIE_TOL``
    (two orders of one float sum differ by an ulp, and tie)."""
    kept, kept_value = None, math.inf
    for item in items:
        if value(item) < kept_value - TIE_TOL:
            kept, kept_value = item, value(item)
    return kept


def test_sequencing_search_matches_exhaustive_orientations(monkeypatch):
    # Every arc inserted must raise the sink's head to the child makespan
    # ``max(current, head[u] + w[u] + after[v] + w[v])`` that the search
    # prunes on, the maintained heads and tails must equal fresh passes
    # bit for bit at every node, every floor must equal its generator-form
    # recomputation, and the search must return the best of all
    # orientations, the first of them (within ``TIE_TOL``) in the order
    # that tries i->j before j->i.  Every arc selection fixes must hold in
    # every orientation below the node whose makespan is below the
    # incumbent at that moment, and a node selection closes must have none.
    # The sequencing search runs on the assignment search's own graph, so
    # it must hand that graph back unchanged.
    original = _BranchAndBound._branch
    original_add_arc = _BranchAndBound._add_arc
    original_floor = _BranchAndBound._floor
    original_select = _BranchAndBound._select
    checked = []
    floors = []
    makespans = {}
    selections = {True: 0, False: 0}
    selection_frames = {}  # id -> selection frame; holding the frame keeps its id unique

    def checking_branch(self, pairs, idx):
        assert self.heads == earliest_starts(self.n, self.succ, self.weights)
        assert self.after == earliest_starts(self.n, self.pred, self.weights)
        original(self, pairs, idx)

    def checking_add_arc(self, u, v):
        heads, after, w = self.heads, self.after, self.weights
        child = max(heads[self.sink], heads[u] + w[u] + (after[v] + w[v]))
        original_add_arc(self, u, v)
        assert self.heads[self.sink] == pytest.approx(child, abs=1e-12)
        checked.append(child)

    def checking_floor(self):
        heads, after, w = self.heads, self.after, self.weights
        assert heads == earliest_starts(self.n, self.succ, w)
        assert after == earliest_starts(self.n, self.pred, w)
        fresh = heads[self.sink]
        for users in self.users:
            if len(users) > 1:
                machine = (
                    min(heads[x] for x in users)
                    + sum(w[x] for x in users)
                    + min(after[x] for x in users)
                )
                if machine > fresh:
                    fresh = machine
        floor = original_floor(self)
        assert floor == fresh
        floors.append(floor)
        return floor

    def checking_select(self, pairs, idx):
        # The orientations below this node keep its branch arcs, those of
        # the frames on the path that no ``_select`` pushed; the frames each
        # call pushed hold its selected arcs.  ``pairs`` starts with the
        # pairs the graph orients, which the orientations do not list.
        best, mark = self.seq_best, len(self.frames)
        arcs_on_path = [frame for frame in self.frames if frame[-1] is not None]
        branch = {frame[-1] for frame in arcs_on_path if id(frame) not in selection_frames}
        selected = {frame[-1] for frame in arcs_on_path if id(frame) in selection_frames}
        is_open = original_select(self, pairs, idx)
        for frame in self.frames[mark:]:
            selection_frames[id(frame)] = frame
            selected.add(frame[-1])
        decided = idx - (len(pairs) - len(decisions))
        below = [
            set(arcs)
            for arcs, makespan in makespans.items()
            if makespan < best and set(arcs[:decided]) <= branch
        ]
        if is_open:
            selections[True] += len(self.frames) - mark
            for arcs in below:
                assert selected <= arcs
        else:
            selections[False] += 1
            assert below == []
        return is_open

    monkeypatch.setattr(_BranchAndBound, "_branch", checking_branch)
    monkeypatch.setattr(_BranchAndBound, "_add_arc", checking_add_arc)
    monkeypatch.setattr(_BranchAndBound, "_floor", checking_floor)
    monkeypatch.setattr(_BranchAndBound, "_select", checking_select)
    rng = np.random.default_rng(20261018)
    cases = 0
    while cases < 40:
        bb, decisions = _sequencing_case(rng)
        if not decisions or len(decisions) > 10:
            continue
        cases += 1
        prec_succ, prec_pred, prec_reach = _pristine(bb)
        n, sink = bb.n, bb.sink
        weights = list(bb.weights)
        leaf_heads = list(bb.heads)
        makespans = _orientation_makespans(bb, decisions)
        first = _first_kept(makespans, makespans.get)
        brute = makespans[first]
        # The leaf starts from the assignment search's heads, with no pass.
        assert leaf_heads == earliest_starts(n, prec_succ, weights)
        roots = len(floors)
        makespan, dirs = bb._sequenced(math.inf)
        assert floors[roots] == bb.root_bound <= makespan
        assert (makespan, tuple(dirs[len(dirs) - len(decisions) :])) == (brute, first)
        # Every frame popped restored its lists: the root passes hold again.
        assert bb.heads == earliest_starts(n, prec_succ, weights)
        assert bb.after == earliest_starts(n, prec_pred, weights)
        assert bb.weights == weights
        assert (bb.succ, bb.pred, bb.reach) == (prec_succ, prec_pred, prec_reach)
        succ = [list(arcs) for arcs in prec_succ]
        for u, v in dirs:
            succ[u].append(v)
        assert earliest_starts(n, succ, weights)[sink] == makespan
        # A tight incumbent lets selection fix arcs from the root on.
        for upper in sorted(set(makespans.values()))[:3]:
            bb.memo = {}
            outcome = bb._sequenced(upper)
            if brute < upper:
                assert outcome == (brute, dirs)
            else:
                assert outcome is None
        assert (bb.succ, bb.pred, bb.reach) == (prec_succ, prec_pred, prec_reach)
    assert checked and floors and selections[True] and selections[False]


def test_leaf_closed_by_its_root_floor(monkeypatch):
    # With ``upper`` at the root floor the leaf counts one node, builds no
    # pair, and memoizes that no orientation is below ``upper``, which the
    # exhaustive orientations and a full search at that bound confirm.
    built = []
    original = _BranchAndBound._branch
    original_lb = _BranchAndBound._makespan_lb

    def watched(self, pairs, idx):
        if not built:  # the search's entry, not its recursion
            built.append(self.seq_best)
        original(self, pairs, idx)

    def no_floor(self):
        original_lb(self)  # compiles the machines that _floor reads
        return -math.inf

    monkeypatch.setattr(_BranchAndBound, "_branch", watched)
    rng = np.random.default_rng(20261019)
    cases = 0
    while cases < 20:
        bb, decisions = _sequencing_case(rng)
        if not decisions or len(decisions) > 10:
            continue
        cases += 1
        makespan, _ = bb._sequenced(math.inf)
        floor = bb.root_bound
        assert built == [math.inf]
        built.clear()
        brute = _exhaustive_makespan(bb, decisions)
        assert makespan == pytest.approx(brute, abs=1e-12)
        assert brute >= floor
        bb.memo = {}
        nodes = bb.nodes
        assert bb._sequenced(floor) is None
        assert bb.nodes == nodes + 1
        assert built == []
        assert bb.memo == {tuple(bb.chosen): (floor, None)}
        # A search below the root that does not stop at its floor agrees.
        with monkeypatch.context() as patch:
            patch.setattr(_BranchAndBound, "_makespan_lb", no_floor)
            bb.memo = {}
            assert bb._sequenced(floor) is None
        assert built == [floor]
        built.clear()


def test_search_state_declared_in_init(j10):
    # Every attribute of the search, the sequencing level's included, is
    # created by ``__init__``: a whole j10 solve adds none.
    bb = _BranchAndBound(j10)
    declared = set(vars(bb))
    assert solve(j10, SubproblemSpec(primary="makespan"), warm=bb).status == "optimal"
    assert set(vars(bb)) == declared


def test_forced_activities_come_first(corpus, j10, j20):
    # Activities with one candidate lead ``acts``; the others follow by
    # descending gap between their dearest and cheapest candidate, ties in
    # topological order, and every per-activity table follows ``acts``.
    instances = {**corpus, "j10": j10, "j20": j20}
    forced_counts, orders = {}, {}
    for name, instance in instances.items():
        bb = _BranchAndBound(instance)
        orders[name] = bb.acts
        topo, _ = topological_order(bb.succ)
        rank = {u: r for r, u in enumerate(topo)}
        forced = sum(len(c) == 1 for c in bb.candidates)
        forced_counts[name] = forced
        assert [len(c) == 1 for c in bb.candidates] == [True] * forced + [False] * (
            len(bb.acts) - forced
        ), name
        gap = {u: max(costs) - min(costs) for u, costs in zip(bb.acts, bb.cand_costs)}
        assert bb.acts[forced:] == sorted(bb.acts[forced:], key=lambda u: (-gap[u], rank[u])), name
        assert bb.acts[:forced] == sorted(bb.acts[:forced], key=rank.get), name
        assert sorted(bb.acts) == list(range(1, bb.n - 1)), name
        cost_rate = instance.cost_rate_matrix
        for idx, u in enumerate(bb.acts):
            assert sorted(bb.candidates[idx]) == sorted(enumerate_assignments(instance, u + 1))
            assert bb.cand_costs[idx] == sorted(bb.cand_costs[idx])
            for pairs, resources, cost in zip(
                bb.candidates[idx], bb.cand_resources[idx], bb.cand_costs[idx]
            ):
                assert resources == tuple(sorted(k - 1 for _, k in pairs))
                assert cost == bb.durations[u] * sum(cost_rate[l - 1, k - 1] for l, k in pairs)
    assert (forced_counts["toy5"], forced_counts["j10"], forced_counts["j20"]) == (0, 4, 6)
    # toy5's gaps are 1000, 720, 600, 600 and 360: activities 1 and 5 tie
    # and keep their topological order.
    assert orders["toy5"] == [2, 4, 1, 5, 3]


def _rebuilt_weights(bb: _BranchAndBound) -> list[float]:
    weights = list(bb.durations)
    for idx, cand_idx in enumerate(bb.chosen):
        resources = bb.cand_resources[idx][cand_idx]
        if resources:
            weights[bb.acts[idx]] += max(bb.wait_table[k][len(bb.users[k])] for k in resources)
    return weights


def test_assignment_search_keeps_weights_and_heads_exact(corpus, monkeypatch):
    # At every assignment node the weights that ``_assign`` recomputed
    # equal a rebuild from the chosen candidates and counts, and its heads
    # and tails equal fresh precedence passes over them, bit for bit.  The
    # level keeps one frame per depth, an assignment's with no arc, and a
    # solve hands back the root's values with no frame left on the stack.
    original = _BranchAndBound._dfs
    checked = []

    def checking_dfs(self):
        assert len(self.frames) == len(self.chosen)
        assert all(frame[-1] is None for frame in self.frames)
        weights = _rebuilt_weights(self)
        assert self.weights == weights
        assert self.heads == earliest_starts(self.n, pristine[0], weights)
        assert self.after == earliest_starts(self.n, pristine[1], weights)
        checked.append(len(self.chosen))
        original(self)

    monkeypatch.setattr(_BranchAndBound, "_dfs", checking_dfs)
    rng = np.random.default_rng(7)
    draws = {f"random{draw}": random_small_instance(rng) for draw in range(30)}
    specs = (SubproblemSpec(primary="makespan"), SubproblemSpec(primary="cost"))
    for name, instance in {**corpus, **draws}.items():
        for spec in specs:
            bb = _BranchAndBound(instance)
            pristine = _pristine(bb)
            root_heads = earliest_starts(bb.n, pristine[0], bb.durations)
            root_after = earliest_starts(bb.n, pristine[1], bb.durations)
            assert solve(instance, spec, warm=bb).status == "optimal", name
            assert bb.weights == bb.durations, name
            assert bb.heads == root_heads, name
            assert bb.after == root_after, name
            assert bb.users == [[] for _ in instance.resources], name
            assert (bb.succ, bb.pred, bb.reach) == pristine, name
            assert bb.frames == [], name
    assert max(checked) > 1


def test_frames_are_never_written_after_the_push(corpus, toy5, monkeypatch):
    # Backtracking restores the very lists a frame holds, which is sound
    # only because no list is written once it is pushed: every pop hands
    # back the objects pushed, still equal to copies taken at the push.
    # Solves cut at any node limit must unwind the stack the same way.
    pushed = []  # (frame, copies of its four lists) per frame on the stack
    popped = {"_unassign": 0, "_remove_arc": 0}

    def pushing(original):
        def push(self, *args):
            original(self, *args)
            frame = self.frames[-1]
            pushed.append((frame, [list(values) for values in frame[:4]]))

        return push

    def popping(name, original):
        def pop(self):
            frame, copies = pushed.pop()
            assert self.frames[-1] is frame
            original(self)
            restored = (self.weights, self.heads, self.after, self.reach)
            assert all(now is then for now, then in zip(restored, frame[:4]))
            assert [list(values) for values in restored] == copies
            popped[name] += 1

        return pop

    for name in ("_assign", "_add_arc"):
        monkeypatch.setattr(_BranchAndBound, name, pushing(getattr(_BranchAndBound, name)))
    for name in popped:
        monkeypatch.setattr(_BranchAndBound, name, popping(name, getattr(_BranchAndBound, name)))
    rng = np.random.default_rng(7)
    draws = {f"random{draw}": random_small_instance(rng) for draw in range(30)}
    for name, instance in {**corpus, **draws}.items():
        for primary in ("makespan", "cost"):
            bb = _BranchAndBound(instance)
            assert solve(instance, SubproblemSpec(primary=primary), warm=bb).status == "optimal"
            assert (pushed, bb.frames) == ([], []), name
    spec = SubproblemSpec(primary="makespan")
    search = _BranchAndBound(toy5)
    full = solve(toy5, spec, warm=search)
    for limit in range(1, full.nodes_explored + 1):
        search.memo.clear()
        solve(toy5, spec, SolveLimits(node_limit=limit), warm=search)
        assert (pushed, search.frames) == ([], []), limit
    assert popped["_unassign"] and popped["_remove_arc"]


def test_wait_tables_are_nondecreasing(corpus, j10):
    # An assignment node's makespan floor holds for every completion below
    # it only because no wait falls as a resource's count rises.
    for instance in [*corpus.values(), j10]:
        bb = _BranchAndBound(instance)
        for row in bb.wait_table:
            assert all(a <= b for a, b in zip(row, row[1:]))


class TestBounds:
    def test_critical_path_bound_admissible(self, corpus):
        for instance in corpus.values():
            bb = _BranchAndBound(instance)
            lb = earliest_starts(bb.n, bb.succ, list(instance.duration_array))[bb.sink]
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

    def test_stage2_timeout_without_incumbent_is_reported(self, toy5, monkeypatch):
        # Stage 2 is cut before it finds a schedule of its own: it returns
        # stage 1's, which meets its budget with no slack, and the row must
        # still say that stage 2 was not proved.  Only that schedule is built.
        stage1 = solve(toy5, SubproblemSpec(primary="makespan"))
        real_run = _BranchAndBound.run

        def stage2_cut(self, spec, limits):
            if spec.budget is not None:
                limits = SolveLimits(node_limit=1)
            return real_run(self, spec, limits)

        monkeypatch.setattr(_BranchAndBound, "run", stage2_cut)
        builds = count_builds(monkeypatch)
        outcome = lexicographic_outcome(toy5, ("makespan", "cost"))
        assert len(builds) == 1
        assert outcome.statuses == ("optimal", "timeout")
        assert outcome.result.status == "timeout"
        assert outcome.result.solution is builds[0]
        assert outcome.result.slack == 0.0
        assert outcome.objectives == stage1.objectives
        assert np.array_equal(outcome.result.solution.assignment, stage1.solution.assignment)
        assert np.array_equal(outcome.result.solution.sequencing, stage1.solution.sequencing)


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


class TestJ20Exact:
    def test_payoff_row_is_proved(self, data_dir):
        from msrcpspr.instance import instance_from_files

        instance = instance_from_files(data_dir / "j20.sm", data_dir / "j20_skills.json")
        outcome = lexicographic_outcome(instance, ("makespan", "cost"))
        assert outcome.statuses == ("optimal", "optimal")
        assert outcome.objectives.makespan == pytest.approx(205 / 3, abs=1e-9)
        assert outcome.objectives.cost == pytest.approx(65500.0, abs=1e-9)


def _sized_instance(activities: int, resources: int, skills: int):
    """Parallel activities, the first needing skill 1 of resources that master every skill."""
    n = activities + 2
    return build_instance(
        durations={i: 0 if i in (1, n) else 1 for i in range(1, n + 1)},
        successors={1: tuple(range(2, n)), **{i: (n,) for i in range(2, n)}},
        skill_count=skills,
        resources=[
            (set(range(1, skills + 1)), dict.fromkeys(range(1, skills + 1), 100.0), (0.5, 0.5, 8.0))
        ] * resources,
        requirements={2: {1: 1}},
    )


class TestBruteForce:
    def test_single_activity_two_resources(self):
        front = brute_force_front(single1_instance())
        assert 1 <= len(front.points) <= 2
        # cheap resource: makespan 5 + W(1)=2 -> 7; dear: 5 + 1.5 -> 6.5
        assert front.pairs() == [(6.5, 1000.0), (7.0, 500.0)]

    def test_chain_identical_resources_single_point(self):
        front = brute_force_front(chain3_instance())
        assert len(front.points) == 1

    @pytest.mark.parametrize(
        "activities,resources,skills,named",
        [(7, 4, 3, "7 executable activities > 6"), (6, 5, 3, "5 resources > 4"),
         (6, 4, 4, "4 skills > 3")],
        ids=["activities", "resources", "skills"],
    )
    def test_guard_rails(self, activities, resources, skills, named):
        # Each rail trips on its own, the other two values within bounds.
        with pytest.raises(GuardRailError, match=named):
            brute_force_front(_sized_instance(activities, resources, skills))

    def test_guard_rail_maximum_is_accepted(self):
        front = brute_force_front(_sized_instance(6, 4, 3))
        assert len(front.points) == 1

    def test_front_sorted_and_nondominated(self, corpus):
        for instance in corpus.values():
            front = brute_force_front(instance)
            pairs = front.pairs()
            assert pairs == sorted(pairs)
            costs = [c for _, c in pairs]
            assert costs == sorted(costs, reverse=True)
            assert len(set(costs)) == len(costs)


@st.composite
def _guard_rail_instances(draw):
    """Guard-rail instances with zero and tied durations, tied costs, and
    service rates at or just above twice an integer count.  Both breakdown
    rates are 0.5, so the critical arrival rate is mu / 2: that count is
    either unstable or has a wait of up to about (count + 1) * 1e3."""
    n_exec = draw(st.integers(2, 5))
    n = n_exec + 2
    acts = range(2, n)
    durations = {1: 0, n: 0, **{a: draw(st.sampled_from((0, 0, 2, 3, 3))) for a in acts}}
    successors = {
        a: tuple(sorted(draw(st.sets(st.integers(a + 1, n - 1), max_size=2)))) or (n,)
        if a + 1 < n else (n,)
        for a in acts
    }
    has_pred = {v for targets in successors.values() for v in targets}
    successors[1] = tuple(a for a in acts if a not in has_pred)
    n_skills = draw(st.integers(1, 2))
    every_skill = set(range(1, n_skills + 1))
    resources = []
    for k in range(draw(st.integers(2, 3))):
        skills = every_skill if k == 0 else draw(st.sets(st.integers(1, n_skills), min_size=1))
        costs = {skill: draw(st.sampled_from((100.0, 100.0, 250.0))) for skill in skills}
        count = draw(st.integers(1, n_exec))
        mu = 2.0 * (count + draw(st.sampled_from((0.0, 1e-3, 0.5, 2.0))))
        resources.append((skills, costs, (0.5, 0.5, mu)))
    requirements = {
        a: {draw(st.integers(1, n_skills)): draw(st.sampled_from((0, 1, 1)))} for a in acts
    }
    # At most one activity needs both skills, which keeps the oracle fast.
    both = draw(st.sampled_from((None, *acts))) if n_skills == 2 else None
    if both is not None:
        requirements[both] = {1: 1, 2: 1}
    return build_instance(
        durations=durations,
        successors=successors,
        skill_count=n_skills,
        resources=resources,
        requirements=requirements,
    )


@settings(max_examples=150, deadline=None)
@given(instance=_guard_rail_instances())
@example(
    # Two schedules with makespans one ulp apart, 6.664668664668665 at cost
    # 500 and 6.664668664668666 at cost 200: within the budget tolerance
    # they are one makespan, so only the cheaper is an oracle point.
    instance=build_instance(
        durations={1: 0, 2: 0, 3: 2, 4: 0},
        successors={1: (2,), 2: (3,), 3: (4,)},
        skill_count=1,
        resources=[
            ({1}, {1: 250.0}, (0.5, 0.5, 4.002)),
            ({1}, {1: 100.0}, (0.5, 0.5, 2.0)),
            ({1}, {1: 100.0}, (0.5, 0.5, 8.0)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}},
    )
)
def test_solve_matches_oracle_on_drawn_instances(instance):
    # Every oracle point is the optimum of both budgeted subproblems that
    # pass through it; an empty oracle front means no feasible schedule.
    front = brute_force_front(instance)
    if not front.points:
        assert solve(instance, SubproblemSpec(primary="makespan")).status == "infeasible"
    for point in front.points:
        by_makespan = solve(instance, SubproblemSpec(primary="makespan", budget=point.cost))
        assert by_makespan.status == "optimal"
        assert by_makespan.objectives.makespan == pytest.approx(point.makespan, abs=1e-9)
        by_cost = solve(instance, SubproblemSpec(primary="cost", budget=point.makespan))
        assert by_cost.status == "optimal"
        assert by_cost.objectives.cost == pytest.approx(point.cost, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(instance=_guard_rail_instances(), data=st.data())
def test_front_does_not_depend_on_activity_numbering(instance, data):
    # The search orders its activities, pairs and memo keys by label; a
    # relabelling, topological or not, must still give the oracle's front.
    order = data.draw(st.permutations(list(instance.executable_ids)))
    relabelled = relabel(instance, order)
    assert validate(relabelled) == []
    oracle = brute_force_front(instance)
    front = pareto.enumerate_front(relabelled, sufficient_grid(oracle), eps=1e-4)
    # An array, not a list of tuples: approx compares tuples exactly, and
    # two tied orientations' makespans may differ in the last bit.
    assert np.array(front.pairs()) == pytest.approx(np.array(oracle.pairs()), abs=TOL)


@pytest.mark.parametrize("name", ["j10", "j20"])
def test_bundled_fronts_do_not_depend_on_activity_numbering(name, request):
    # Point schedules and node counts follow the labels; the objective
    # pairs of the front must not.
    instance = request.getfixturevalue(name)
    front = pareto.enumerate_front(instance, 10, eps=1e-4)
    rng = np.random.default_rng(20261019)
    for _ in range(2):
        order = [int(a) for a in rng.permutation(list(instance.executable_ids))]
        relabelled = relabel(instance, order)
        assert validate(relabelled) == []
        assert np.tril(relabelled.precedence).any()  # an arc runs against the numbering
        got = pareto.enumerate_front(relabelled, 10, eps=1e-4)
        assert np.array(got.pairs()) == pytest.approx(np.array(front.pairs()), abs=TOL)


def _leaves(instance) -> list:
    """Every stable, acyclic leaf as (assignment, solution, makespan, cost):
    the candidates of ``acts`` in product order, then, per assignment, the
    orientations of its sorted sharing pairs with i->j before j->i."""
    bb = _BranchAndBound(instance)
    n, shape = bb.n, (bb.n, instance.skill_count, len(instance.resources))
    leaves = []
    for chosen in itertools.product(*(range(len(c)) for c in bb.candidates)):
        X = np.zeros(shape, dtype=np.int8)
        users = {}
        for u, candidates, cand_idx in zip(bb.acts, bb.candidates, chosen):
            for skill, res in candidates[cand_idx]:
                X[u, skill - 1, res - 1] = 1
                users.setdefault(res, []).append(u)
        pairs = sorted(
            {p for nodes in users.values() for p in itertools.combinations(sorted(nodes), 2)}
        )
        for flips in itertools.product((False, True), repeat=len(pairs)):
            Z = np.zeros((n, n), dtype=np.int8)
            for (i, j), flip in zip(pairs, flips):
                Z[(j, i) if flip else (i, j)] = 1
            try:
                solution = tighten_starts(instance, X, Z)
            except (CycleError, InstabilityError):
                continue
            objectives = evaluate(instance, solution)
            leaves.append((chosen, solution, objectives.makespan, objectives.cost))
    return leaves


def _first_optimal_leaf(leaves, spec: SubproblemSpec):
    """The leaf an exhaustive scan keeps: each assignment offers its first
    shortest orientation and a later assignment replaces the kept one only
    when better on ``spec`` by more than ``TIE_TOL``, both as
    ``_first_kept`` scans."""

    def objective(leaf):
        _, _, makespan, cost = leaf
        if spec.primary == "makespan":
            if spec.budget is not None and cost > spec.budget + TOL:
                return math.inf
            return makespan - _slack_reward(spec, cost)
        if spec.budget is not None and not makespan < spec.budget + TOL:
            return math.inf
        return cost

    shortest = [
        _first_kept(group, operator.itemgetter(2))
        for _, group in itertools.groupby(leaves, key=operator.itemgetter(0))
    ]
    return _first_kept(shortest, objective)


@settings(max_examples=100, deadline=None)
@given(
    instance=_guard_rail_instances(),
    pick=st.integers(0, 2**16),
    eps=st.sampled_from((1e-6, 1e-4, 1e-3)),
)
@example(
    # One assignment has orientations at 2010.3333333335538 and, later, at
    # 2010.3333333335536: one makespan summed in two orders.  A sequencing
    # search that compares them exactly keeps the later one.
    instance=build_instance(
        durations={1: 0, 2: 0, 3: 0, 4: 2, 5: 0, 6: 0},
        successors={1: (2, 3, 4, 5), 2: (6,), 3: (6,), 4: (6,), 5: (6,)},
        skill_count=2,
        resources=[
            ({1, 2}, {1: 100.0, 2: 100.0}, (0.5, 0.5, 9.0)),
            ({1}, {1: 100.0}, (0.5, 0.5, 2.0)),
            ({1}, {1: 250.0}, (0.5, 0.5, 2.002)),
        ],
        requirements={2: {1: 1}, 3: {1: 1, 2: 1}, 4: {1: 1}, 5: {1: 0}},
    ),
    pick=0,
    eps=1e-4,
)
def test_solve_returns_the_first_optimal_leaf(instance, pick, eps):
    # The returned schedule is defined without the search: of the leaves in
    # the scan order of ``_leaves``, the first optimal one.  Any later
    # change of branching order must keep this.
    leaves = _leaves(instance)
    specs = [SubproblemSpec(primary="makespan"), SubproblemSpec(primary="cost")]
    if leaves:
        costs = sorted({cost for *_, cost in leaves})
        makespans = sorted({makespan for _, _, makespan, _ in leaves})
        cost_budget = costs[pick % len(costs)]
        specs += [
            SubproblemSpec(primary="makespan", budget=cost_budget),
            SubproblemSpec(
                primary="makespan",
                budget=cost_budget,
                eps=eps,
                objective_range=max(costs[-1] - costs[0], 1.0),
            ),
            SubproblemSpec(primary="cost", budget=makespans[pick % len(makespans)]),
        ]
    for spec in specs:
        result = solve(instance, spec)
        kept = _first_optimal_leaf(leaves, spec)
        if kept is None:
            assert result.status == "infeasible", spec
            continue
        assert result.status == "optimal", spec
        solution = kept[1]
        assert np.array_equal(result.solution.assignment, solution.assignment), spec
        assert np.array_equal(result.solution.sequencing, solution.sequencing), spec


@settings(max_examples=150, deadline=None)
@given(instance=_guard_rail_instances())
@example(
    # At chosen [0, 1, 0, 0, 0] the floor reads 6015.000000000662 and the
    # best orientation 6015.00000000066: 2 ulps over, as the floor adds
    # min head + load + min tail in an order that no path uses.
    instance=build_instance(
        durations={a: 0 for a in range(1, 8)},
        successors={1: (2,), 2: (3,), 3: (4, 5), 4: (7,), 5: (6,), 6: (7,)},
        skill_count=2,
        resources=[
            ({1, 2}, {1: 100.0, 2: 100.0}, (0.5, 0.5, 11.0)),
            ({1}, {1: 100.0}, (0.5, 0.5, 4.002)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}, 4: {1: 1, 2: 1}, 5: {1: 1}, 6: {1: 1}},
    )
)
def test_makespan_bound_is_admissible(instance):
    # Walk every stable assignment: the bound at each node, full or not,
    # never exceeds the best makespan, over every orientation of the open
    # pairs sharing a resource, of any full assignment below it, by more
    # than the rounding ``_makespan_lb`` allows: 4n units of 2**-53 of it.
    bb = _BranchAndBound(instance)

    def walk(idx):
        bound = bb._makespan_lb()
        if idx == len(bb.acts):
            reach = bb.reach
            decisions = [
                (i, j)
                for nodes in bb.users
                for i, j in itertools.combinations(sorted(nodes), 2)
                if not (reach[i] >> j) & 1 and not (reach[j] >> i) & 1
            ]
            best = _exhaustive_makespan(bb, sorted(set(decisions)))
        else:
            best = math.inf
            for cand_idx, resources in enumerate(bb.cand_resources[idx]):
                if any(len(bb.users[k]) + 1 >= len(bb.wait_table[k]) for k in resources):
                    continue
                bb._assign(idx, cand_idx)
                best = min(best, walk(idx + 1))
                bb._unassign()
        assert bound <= best + 4 * bb.n * 2.0**-53 * best, (bb.chosen, bound, best)
        return best

    if all(bb.candidates):
        walk(0)


def test_makespan_bound_adds_the_one_machine_floor():
    # Two parallel activities on one resource: the critical path holds one
    # of them, the floor both, and the floor is the best orientation.
    instance = build_instance(
        durations={1: 0, 2: 3, 3: 4, 4: 0},
        successors={1: (2, 3), 2: (4,), 3: (4,)},
        skill_count=1,
        resources=[({1}, {1: 10.0}, (0.5, 0.5, 8.0))],
        requirements={2: {1: 1}, 3: {1: 1}},
    )
    bb = _BranchAndBound(instance)
    bb._assign(0, 0)
    bb._assign(1, 0)
    wait = bb.wait_table[0][2]
    assert bb.heads[bb.sink] == 4 + wait
    assert bb._makespan_lb() == pytest.approx(7 + 2 * wait)
    assert bb._makespan_lb() == _exhaustive_makespan(bb, [(1, 2)])


@pytest.mark.parametrize("budget", [math.nan, math.inf])
def test_non_finite_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="budget must be finite"):
        SubproblemSpec(primary="makespan", budget=budget)


@pytest.mark.parametrize(
    "limits",
    [{"time_limit": math.nan}, {"time_limit": 0.0}, {"time_limit": -1.0}, {"node_limit": 0}],
)
def test_limits_that_never_or_always_stop_are_rejected(limits):
    with pytest.raises(ValueError, match=next(iter(limits))):
        SolveLimits(**limits)


_REAL_RUN = _BranchAndBound.run


def _cold_run(self, spec, limits):
    """``_BranchAndBound.run`` on an empty memo, so every search of a front
    (each grid level and both stages of each payoff row) is cold."""
    self.memo = {}
    return _REAL_RUN(self, spec, limits)


def record_searches(monkeypatch) -> list:
    """The search object of every ``_BranchAndBound.run``, in call order."""
    searches = []
    real_run = _BranchAndBound.run

    def recorded(self, spec, limits):
        searches.append(self)
        return real_run(self, spec, limits)

    monkeypatch.setattr(_BranchAndBound, "run", recorded)
    return searches


def count_builds(monkeypatch) -> list:
    """Every schedule the solver builds, in build order."""
    builds = []

    def counted(instance, X, Z):
        builds.append(tighten_starts(instance, X, Z))
        return builds[-1]

    monkeypatch.setattr(solver, "tighten_starts", counted)
    return builds


def test_memo_entries_equal_fresh_sequencing(j10, monkeypatch):
    # Every entry a j10 front memoizes is what a fresh search of its
    # assignment returns, whatever the bound: the proven makespan and arcs
    # below any bound above it and nothing at or below it, or no
    # orientation below the stored bound.  A leaf reading the entry gets
    # what the fresh search gets.
    searches = record_searches(monkeypatch)
    pareto.enumerate_front(j10, 10, eps=1e-4)
    assert len(searches) == 7 and all(s is searches[0] for s in searches)
    bb = _BranchAndBound(j10)
    kinds = set()
    for key, (value, arcs) in searches[0].memo.items():
        for idx, cand_idx in enumerate(key):
            bb._assign(idx, cand_idx)
        for upper in (value - 1.0, value, value + 1e-9, value + 10.0, math.inf):
            bb.memo = {}
            outcome = bb._sequenced(upper)
            if upper <= value:
                assert outcome is None
            elif arcs is not None:
                assert outcome == (value, arcs)
            elif upper == math.inf:
                assert outcome[0] >= value
            bb.memo = {key: (value, arcs)}
            assert bb._sequenced(upper) == outcome
        kinds.add(arcs is None)
        for _ in bb.chosen[:]:
            bb._unassign()
    assert kinds == {True, False}
    assert not bb.timed_out


@settings(max_examples=100, deadline=None)
@given(instance=_guard_rail_instances(), eps=st.sampled_from((1e-4, 0.0)))
@example(
    # With eps 0, grid level 1 has two makespan optima at different costs;
    # the memo must not change which of the two comes back.
    instance=build_instance(
        durations={1: 0, 2: 2, 3: 3, 4: 0},
        successors={1: (2,), 2: (3,), 3: (4,)},
        skill_count=2,
        resources=[
            ({1, 2}, {1: 100.0, 2: 100.0}, (0.5, 0.5, 4.0)),
            ({1, 2}, {1: 100.0, 2: 250.0}, (0.5, 0.5, 6.0)),
            ({2}, {2: 250.0}, (0.5, 0.5, 3.0)),
        ],
        requirements={2: {2: 1}, 3: {1: 1, 2: 1}},
    ),
    eps=0.0,
)
def test_warm_front_equals_cold_front(instance, eps):
    warm = pareto.enumerate_front(instance, 10, eps=eps)
    with mock.patch.object(_BranchAndBound, "run", _cold_run):
        cold = pareto.enumerate_front(instance, 10, eps=eps)
    assert pareto.front_csv(warm, include_timing=False) == pareto.front_csv(
        cold, include_timing=False
    )
    assert (warm.payoff, warm.diagnosis) == (cold.payoff, cold.diagnosis)
    assert len(warm.points) == len(cold.points)
    for a, b in zip(warm.points, cold.points):
        assert np.array_equal(a.solution.assignment, b.solution.assignment)
        assert np.array_equal(a.solution.sequencing, b.solution.sequencing)


def test_cut_solve_memoizes_nothing(j10, monkeypatch):
    spec = SubproblemSpec(primary="makespan")
    proved = solve(j10, spec)
    searches = []
    original = _BranchAndBound._sequenced

    def watched(self, upper):
        outcome = original(self, upper)
        searches.append(self.timed_out)
        return outcome

    monkeypatch.setattr(_BranchAndBound, "_sequenced", watched)
    search = _BranchAndBound(j10)
    for limit in range(1, proved.nodes_explored):
        searches.clear()
        cut = solve(j10, spec, SolveLimits(node_limit=limit), warm=search)
        if searches:
            break
    # The first limit that reaches a sequencing search cuts it short.
    assert searches == [True]
    assert search.memo == {}
    assert cut.status == "timeout" and cut.solution is None

    # A leaf is len(acts) assignments below the root, so a solve cut at
    # len(acts) nodes reaches none and has no schedule, however full the
    # memo is.
    solve(j10, spec, warm=search)
    assert search.memo
    early = solve(j10, spec, SolveLimits(node_limit=len(search.acts)), warm=search)
    assert early.status == "timeout"
    assert early.solution is None and early.objectives is None


def test_one_search_per_front_and_per_payoff_row(j10, toy5, monkeypatch):
    # A front builds its search once, for both payoff rows and every grid
    # level; a payoff row called on its own builds one for both stages.
    built = []
    original = _BranchAndBound.__init__

    def counted_init(self, instance):
        built.append(instance)
        original(self, instance)

    monkeypatch.setattr(_BranchAndBound, "__init__", counted_init)
    searches = record_searches(monkeypatch)
    pareto.enumerate_front(j10, 10, eps=1e-4)
    assert built == [j10]
    assert len(searches) == 7 and all(s is searches[0] for s in searches)
    built.clear()
    lexicographic_outcome(toy5, ("makespan", "cost"))
    assert built == [toy5]


def test_search_of_another_instance_is_refused(j10):
    # The memo is keyed by the candidate indices of one instance's tables.
    # On j10 with faster retrieval an entry read back from j10's search
    # would close leaves that are shorter there, so it must not be read.
    search = _BranchAndBound(j10)
    spec = SubproblemSpec(primary="makespan")
    solve(j10, spec, warm=search)
    scaled = scale_reliability(j10, "retrieval", 1.4)
    with pytest.raises(ValueError, match="another instance"):
        solve(scaled, spec, warm=search)
    with pytest.raises(ValueError, match="another instance"):
        lexicographic_outcome(scaled, warm=search)


_BUILT_STATE = (
    "weights", "heads", "after", "frames", "reach", "succ", "pred",
    "users", "res_of", "chosen", "prefix_costs",
)


@pytest.mark.parametrize("name, primary", [("toy5", "makespan"), ("j10", "cost")])
def test_reused_search_returns_to_its_built_state(name, primary, request):
    # A solve, proved or cut at any node limit, hands the shared search
    # back as built, so the next solve of a front starts where a fresh
    # object would.  The memo is emptied before each cut so that every
    # limit cuts the same tree at another node.
    instance = request.getfixturevalue(name)
    spec = SubproblemSpec(primary=primary)
    fresh = {attr: getattr(_BranchAndBound(instance), attr) for attr in _BUILT_STATE}
    search = _BranchAndBound(instance)
    full = solve(instance, spec, warm=search)
    assert full.status == "optimal"
    assert {attr: getattr(search, attr) for attr in _BUILT_STATE} == fresh
    for limit in range(1, full.nodes_explored + 1):
        search.memo.clear()
        cut = solve(instance, spec, SolveLimits(node_limit=limit), warm=search)
        assert cut.status == ("optimal" if limit == full.nodes_explored else "timeout")
        assert {attr: getattr(search, attr) for attr in _BUILT_STATE} == fresh, limit


def _real_cost_instance():
    """Three activities on three resources whose cost rates are not integers,
    so a total cost is a float sum whose value depends on its order."""
    return build_instance(
        durations={1: 0, 2: 4, 3: 6, 4: 1, 5: 0},
        successors={1: (2, 3), 2: (4,), 3: (4,), 4: (5,)},
        skill_count=2,
        resources=[
            ({1}, {1: 252986.06679553768}, (0.5, 0.5, 8.0)),
            ({1}, {1: 127920.8318388447}, (0.5, 0.5, 8.0)),
            ({2}, {2: 626997.3669996801}, (0.5, 0.5, 8.0)),
        ],
        requirements={2: {1: 1, 2: 1}, 3: {1: 1, 2: 1}, 4: {1: 1}},
    )


def test_real_cost_payoff_row_is_proved():
    # Stage 2 of the cost-first row is budgeted by stage 1's cost as its
    # search summed it, not as ``evaluate`` sums the schedule, so it finds
    # stage 1's leaf again and the front's last level reads "optimal".
    from msrcpspr import cli

    instance = _real_cost_instance()
    assert lexicographic_outcome(instance, ("cost", "makespan")).statuses == ("optimal", "optimal")
    front = pareto.enumerate_front(instance, 10, eps=1e-4)
    assert front.diagnosis is None
    assert all(rec.status != "timeout" for rec in front.grid_log)
    assert (front.grid_log[-1].grid_point, front.grid_log[-1].status) == (10, "optimal")
    assert not cli._unproven(front)


def test_cost_first_rows_are_proved_at_large_costs():
    # Above 2**22 two ulps exceed TOL, so a cost bound summed in another
    # order than a leaf's cost could prune stage 1's own leaf in stage 2 of
    # the cost-first row.  The bound folds left like the leaf, never above
    # it, so every row is proved at any cost scale.
    rng = np.random.default_rng(2024)
    unproved = {}
    for draw in range(200):
        instance = random_small_instance(rng)
        resources = []
        for res in instance.resources:
            scale = rng.uniform(1e3, 1e5)
            costs = tuple((skill, cost * scale) for skill, cost in res.cost_per_skill)
            resources.append(replace(res, cost_per_skill=costs))
        instance = replace(instance, resources=tuple(resources))
        statuses = lexicographic_outcome(instance, ("cost", "makespan")).statuses
        if statuses != ("optimal", "optimal"):
            unproved[draw] = statuses
    assert unproved == {}


def test_each_assignment_has_one_cost(monkeypatch):
    # Every solve of a real-cost front values a full assignment alike: the
    # left fold of its candidates' costs in ``acts`` order, whatever path
    # the search took to reach it.
    instance = build_instance(
        durations={1: 0, 2: 2, 3: 3, 4: 5, 5: 3, 6: 0},
        successors={1: (2, 3, 4), 2: (6,), 3: (6,), 4: (5,), 5: (6,)},
        skill_count=1,
        resources=[
            ({1}, {1: 303019.5482511926}, (0.5, 0.5, 12.0)),
            ({1}, {1: 235056.0369748025}, (0.5, 0.5, 10.0)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}, 4: {1: 1}, 5: {1: 1}},
    )
    costs: dict[tuple[int, ...], set[float]] = {}
    folds: dict[tuple[int, ...], float] = {}
    real_leaf = _BranchAndBound._leaf

    def recorded(self):
        key = tuple(self.chosen)
        costs.setdefault(key, set()).add(self.prefix_costs[-1])
        fold = 0.0
        for idx, cand_idx in enumerate(key):
            fold += self.cand_costs[idx][cand_idx]
        folds[key] = fold
        return real_leaf(self)

    monkeypatch.setattr(_BranchAndBound, "_leaf", recorded)
    pareto.enumerate_front(instance, 10, eps=1e-4)
    assert len(costs) > 1
    assert {key: values for key, values in costs.items() if len(values) > 1} == {}
    assert {key: values.pop() for key, values in costs.items()} == folds


def test_only_kept_leaves_become_schedules(j10, monkeypatch):
    # A payoff row builds stage 2's schedule alone; a front builds one per
    # payoff row and one per solved interior level.
    builds = count_builds(monkeypatch)
    lexicographic_outcome(j10)
    assert len(builds) == 1
    builds.clear()
    front = pareto.enumerate_front(j10, 10, eps=1e-4)
    assert len(builds) == 5
    assert len([rec for rec in front.grid_log if rec.status != "bypassed"]) == 5
