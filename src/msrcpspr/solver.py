"""Exact optimization of one objective under a budget on the other.

The search branches on (a) the skill-to-resource assignment of every
activity and (b) the orientation of every pair of activities that share
a resource.  Because arrival rates are integer assignment counts, each
resource has finitely many possible waits; they are tabulated up front,
which keeps the whole problem combinatorial.  Both levels bound their
nodes with heads and tails of the disjunctive graph and a one-machine
floor per shared resource; an assignment node counts only its assigned
activities, with their waits at the current counts, and adds the
cheapest cost of the rest.  An assignment node is first screened with
its parent's heads and tails: waits do not fall as counts rise, and
longest paths are max/+ sums with monotone rounding, so a parent's heads
and tails never exceed its child's, that floor never exceeds the node's
own, and every prune rule is monotone in the floor.  Only a node the
screen leaves open recomputes its heads and tails over the fixed
precedence graph; the sequencing search raises copies of them as it
inserts arcs.  Both levels backtrack by popping the lists they replaced
off one stack (see :class:`_BranchAndBound`).  The solves of one front
share one search object, so its tables are built and each assignment is
sequenced once.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .instance import ProjectInstance, ValidationError, topological_order
from .queueing import InstabilityError, QueueOperatingPoint, waiting_time
from .schedule import (
    TIE_TOL,
    TOL,
    CycleError,
    ObjectiveValues,
    ScheduleSolution,
    earliest_starts,
    evaluate,
    tighten_starts,
)

EPS_RANGE = (1e-6, 1e-3)


def check_eps(eps: float) -> None:
    """Reject a slack reward that is neither 0 nor inside ``EPS_RANGE``."""
    if eps != 0.0 and not EPS_RANGE[0] <= eps <= EPS_RANGE[1]:
        raise ValueError(f"eps must be 0 or within {EPS_RANGE}, got {eps!r}")


@dataclass(frozen=True)
class SubproblemSpec:
    """One single-objective subproblem, optionally budgeted.

    A nonzero ``eps`` augments a makespan primary with the budget-slack
    reward of AUGMECON2; a cost primary takes no augmentation.
    """

    primary: str  # "makespan" or "cost"
    budget: float | None = None
    eps: float = 0.0
    objective_range: float | None = None

    def __post_init__(self):
        if self.primary not in ("makespan", "cost"):
            raise ValueError(f"primary must be 'makespan' or 'cost', got {self.primary!r}")
        if self.budget is not None and not 0 <= self.budget < math.inf:
            raise ValueError(f"budget must be finite and >= 0, got {self.budget!r}")
        check_eps(self.eps)
        if self.eps != 0.0:
            if self.primary != "makespan":
                raise ValueError("augmentation needs primary 'makespan'")
            if self.budget is None:
                raise ValueError("augmentation needs a budget to produce slack")
            if not self.objective_range or self.objective_range <= 0:
                raise ValueError("augmentation needs a positive objective_range")


@dataclass(frozen=True)
class SolveLimits:
    """Wall-clock seconds and a cap on nodes (outer and inner counted alike).

    A ``node_limit`` of L explores at most L nodes; a search that needs
    more stops there and reports "timeout".
    """

    time_limit: float = 300.0
    node_limit: int | None = None

    def __post_init__(self):
        if not self.time_limit > 0:
            raise ValueError(f"time_limit must be > 0, got {self.time_limit!r}")
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit!r}")


@dataclass(frozen=True)
class SolveResult:
    status: str  # "optimal" | "infeasible" | "timeout"
    solution: ScheduleSolution | None
    objectives: ObjectiveValues | None
    slack: float | None
    nodes_explored: int
    wall_time: float


def enumerate_assignments(
    instance: ProjectInstance, activity_id: int
) -> list[tuple[tuple[int, int], ...]]:
    """All assignments of one activity meeting its skill requirements.

    Every returned tuple lists (skill, resource) pairs (1-based) such
    that each required skill gets exactly its required count of distinct
    mastering resources and no resource appears twice.
    """
    act = instance.activities[activity_id - 1]
    needed = [(skill, count) for skill, count in act.skill_requirements if count > 0]
    if not needed:
        return [()]
    mastery = instance.mastery_matrix
    per_skill: list[list[tuple[int, ...]]] = []
    for skill, count in needed:
        masters = [k + 1 for k in range(len(instance.resources)) if mastery[skill - 1, k]]
        combos = list(itertools.combinations(masters, count))
        if not combos:
            return []
        per_skill.append(combos)
    results: list[tuple[tuple[int, int], ...]] = []
    for choice in itertools.product(*per_skill):
        used = [res for resources in choice for res in resources]
        if len(set(used)) == len(used):
            results.append(
                tuple(
                    sorted(
                        (skill, res)
                        for (skill, _), resources in zip(needed, choice)
                        for res in resources
                    )
                )
            )
    return results


def _slack_reward(spec: SubproblemSpec, cost: float) -> float:
    """AUGMECON2's reward eps * slack / range for a makespan primary."""
    if not spec.eps:
        return 0.0
    return spec.eps * max(0.0, spec.budget - cost) / spec.objective_range


def _raise_longest_paths(
    values: list[float],
    arcs: list[list[int]],
    weights: list[float],
    source: int,
) -> list[float]:
    """A copy of ``values`` with ``values[y] >= values[x] + weights[x]``
    restored along ``arcs`` after an arc out of ``source`` was added to them.

    ``values`` held longest paths over ``arcs`` except along the new arc;
    values only rise, so a work list from ``source`` reaches the same
    maxima as a full pass.  ``values`` itself is left as it was.
    """
    values = list(values)
    stack = [source]
    while stack:
        x = stack.pop()
        release = values[x] + weights[x]
        for y in arcs[x]:
            if release > values[y]:
                values[y] = release
                stack.append(y)
    return values


class _BranchAndBound:
    """Both search levels of the solves of one front, on one disjunctive graph.

    ``_dfs`` assigns the activities, those with a single candidate first
    and the rest by descending gap between their dearest and cheapest
    candidate, topological order breaking ties; at each full assignment
    ``_sequenced`` orients the pairs sharing a resource.  One object serves
    the solves of one front: ``__init__`` checks the precedence graph and
    tabulates, once, the candidate assignments of every activity (cheapest
    first, with their resources and costs) and each resource's wait per
    assignment count; ``run`` searches one subproblem for its best leaf,
    and ``result`` builds the schedule of a kept leaf.  The search owns the
    graph (``succ``, ``pred``, and ``reach``: bit v of ``reach[u]`` means u
    has a path to v), the node weights, the heads (earliest starts over
    ``succ``), the tails ``after`` (longest path from a node's end to the
    sink's start, over ``pred``), one node count and each prefix's cost.

    Both levels backtrack by one stack, ``frames``.  ``_assign`` and
    ``_add_arc`` push the weights, heads, tails and reach they replace with
    new lists, and the arc inserted (None for an assignment); ``_unassign``
    and ``_remove_arc`` pop them back, so no list is written once a frame
    holds it.  Whenever ``_assign`` runs, ``succ`` and ``pred`` hold only
    precedence arcs (the sequencing search removes every arc it adds): it
    raises a copy of the weights of its resources' users to their new wait,
    with no rebuild, and keeps the parent's heads and tails.  ``_prunable`` screens the node with
    them (``_raised_floor``); a node left open takes ``_longest_paths``, one
    :func:`earliest_starts` pass each in the order ``topo``, so heads and
    tails are the parent's at a screened node and fresh at every expanded
    node and every leaf that is sequenced.  ``_add_arc`` u->v raises heads
    forward from u and tails backward from v.  Each value is the maximum of
    the same float sums as in a full pass, so they equal
    :func:`earliest_starts` bit for bit.  A leaf's sequencing starts from
    the assignment search's heads and tails.

    ``_sequenced`` is the sequencing root: it takes the root's floor
    (most leaves end there, before any pair is built) and hands the pairs
    the graph leaves open to ``_branch``, the one sequencing recursion.
    ``_branch`` selects arcs (Carlier & Pinson) and tries its pair (i, j)
    as i->j, then as j->i, so the tree is fixed and the schedule returned
    is the first optimal leaf: in the order of the candidates of ``acts``,
    then of the orientations of the sorted pairs.  A budget holds within
    ``TOL``; at both levels a later leaf replaces the kept one only when
    better by more than ``TIE_TOL``, so two orders of one float sum tie;
    pruning and selection drop only leaves that would not replace it.

    A leaf reads its sequencing outcome from ``memo``, which the object
    keeps across its solves, when the entry decides the leaf's bound (see
    ``_sequenced``).  That does not change the schedule returned.
    """

    def __init__(self, instance: ProjectInstance):
        self.instance = instance
        n = instance.n_nodes
        self.n = n
        self.sink = n - 1
        self.durations = [float(x) for x in instance.duration_array]
        self.succ = [[int(v) for v in np.flatnonzero(instance.precedence[u])] for u in range(n)]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for u in range(n):
            for v in self.succ[u]:
                self.pred[v].append(u)
        topo, stuck = topological_order(self.succ)
        if stuck:
            raise CycleError("instance precedence graph is cyclic")
        self.topo = topo
        self.reverse_topo = topo[::-1]
        self.reach = [0] * n
        for u in self.reverse_topo:
            for v in self.succ[u]:
                self.reach[u] |= (1 << v) | self.reach[v]
        # The makespan is the sink's start, so sequencing tails are measured
        # to the sink; an activity with no path there would escape them.
        dangling = [u + 1 for u in range(n - 1) if not (self.reach[u] >> self.sink) & 1]
        if dangling:
            raise ValidationError(f"activities {dangling} have no path to the dummy sink {n}")

        # Candidate assignments per activity, cheapest first.  Forced
        # activities (one candidate) come first, above every branch; the rest
        # follow by descending gap between their dearest and cheapest
        # candidate, so the choices that move the cost most are made near the
        # root, with topological order (the sort is stable) breaking ties.
        cost_rate = instance.cost_rate_matrix
        tabled = []
        for u in topo:
            if 0 < u < n - 1:
                entries = sorted(
                    (self.durations[u] * sum(cost_rate[l - 1, k - 1] for l, k in pairs), pairs)
                    for pairs in enumerate_assignments(instance, u + 1)
                )
                tabled.append((u, entries))
        tabled.sort(
            key=lambda item: (len(item[1]) != 1, item[1][0][0] - item[1][-1][0] if item[1] else 0.0)
        )
        self.acts = [u for u, _ in tabled]
        self.candidates = [[pairs for _, pairs in entries] for _, entries in tabled]
        self.cand_resources = [
            [tuple(sorted(k - 1 for _, k in pairs)) for _, pairs in entries] for _, entries in tabled
        ]
        self.cand_costs = [[cost for cost, _ in entries] for _, entries in tabled]

        # Wait per resource as a function of its integer assignment count,
        # up to the first unstable count: stable counts form a prefix.
        self.wait_table: list[list[float]] = []
        for res in instance.resources:
            table: list[float] = []
            for m in range(len(self.acts) + 1):
                try:
                    table.append(waiting_time(QueueOperatingPoint(float(m), res.reliability)))
                except InstabilityError:
                    break
            self.wait_table.append(table)

        self.chosen: list[int] = []
        self.prefix_costs = [0.0]  # per depth, folded left in ``acts`` order
        # Node weights (duration plus the largest wait at the current counts),
        # the assigned users of every resource (its count) and, once it has
        # two, a stack of getters over them, set by ``_assign``; ``frames``
        # holds what each ``_assign`` and ``_add_arc`` replaced.
        self.weights = list(self.durations)
        self._longest_paths()  # sets ``heads`` and ``after``
        self.frames: list[tuple[list[float], list[float], list[float], list[int], tuple | None]] = []
        self.users: list[list[int]] = [[] for _ in instance.resources]
        self.getters: list[list[operator.itemgetter]] = [[] for _ in instance.resources]
        self.memo: dict[tuple[int, ...], tuple[float, list[tuple[int, int]] | None]] = {}
        # The current solve, set by ``run``; ``best`` is (chosen, arcs, makespan, cost).
        self.spec: SubproblemSpec | None = None
        self.limits = SolveLimits()
        self.deadline = math.inf
        self.nodes = 0
        self.timed_out = False
        self.best_f = math.inf
        self.best: tuple[list[int], list[tuple[int, int]], float, float] | None = None
        # The sequencing search of the current full assignment: the resources
        # ``_floor`` reads (compiled by ``_makespan_lb``), the root's floor,
        # the value a leaf must beat and the kept leaf (makespan, arcs).
        self.machines: list[tuple[operator.itemgetter, float]] = []
        self.root_bound = -math.inf
        self.seq_best = math.inf
        self.seq_leaf: tuple[float, list[tuple[int, int]]] | None = None

    # -- bounds -------------------------------------------------------

    def _makespan_lb(self) -> float:
        """Admissible makespan bound: the sink's precedence head
        (the critical path with the waits implied by the current partial
        counts), versus each resource's one-machine floor, smallest head +
        weights + smallest tail of its assigned users, who run one at a
        time.  Waits only rise as counts rise, so no node below does better.
        It reads fresh heads and tails and each shared resource's getter off
        ``getters``; a load is a left fold in ``users`` order.  At a full
        assignment this is the sequencing root's floor: the resources
        compiled here are the ``machines`` that ``_floor`` reads.

        ``_raised_floor`` is this bound from the parent's heads and tails,
        over the resources the latest activity joined.  Waits do not fall,
        and longest paths are max/+ sums with monotone rounding, so the
        parent's heads and tails never exceed the node's, and that floor
        never exceeds this one, bit for bit.

        Rounding: the bound holds in exact arithmetic.  In floats a floor
        adds head + load + tail in an order that no path uses, so it can
        exceed the best makespan below by the rounding of both sums, about
        4n units of 2**-53 of that makespan at most on an n-node graph (2 ulps
        of 6015 on one drawn instance).  A node it prunes has no leaf better
        than ``best_f`` by more than ``TIE_TOL`` plus that rounding."""
        weights = self.weights
        self.machines = [(stack[-1], sum(stack[-1](weights))) for stack in self.getters if stack]
        return self._floor()

    def _raised_floor(self) -> float:
        """The sink's head, versus the one-machine floor of each shared
        resource the latest activity joined, from the heads and tails that
        ``_assign`` left in place (the parent's) at the node's weights: at
        most ``_makespan_lb`` at the node (see there)."""
        heads, after, weights = self.heads, self.after, self.weights
        floor = heads[self.sink]
        if self.chosen:
            getters = self.getters
            for k in self.cand_resources[len(self.chosen) - 1][self.chosen[-1]]:
                if getters[k]:
                    get = getters[k][-1]
                    machine = min(get(heads)) + sum(get(weights)) + min(get(after))
                    if machine > floor:
                        floor = machine
        return floor

    def _cost_lb(self) -> float:
        """The prefix's cost plus each remaining activity's cheapest candidate,
        added left to right as a leaf's cost is: no leaf below costs less."""
        cost = self.prefix_costs[-1]
        for costs in self.cand_costs[len(self.chosen):]:
            cost += costs[0]
        return cost

    def _closes(self, floor: float) -> bool:
        """The spec's prune rule with ``floor`` as the makespan bound; each
        rule is monotone in it, and an unbudgeted cost primary reads none."""
        spec = self.spec
        primary_lb = floor if spec.primary == "makespan" else self._cost_lb()
        if spec.budget is None:
            return primary_lb >= self.best_f - TIE_TOL
        secondary_lb = self._cost_lb() if spec.primary == "makespan" else floor
        if secondary_lb > spec.budget + TOL:
            return True
        return primary_lb - _slack_reward(spec, secondary_lb) >= self.best_f - TIE_TOL

    def _prunable(self) -> bool:
        """Whether no leaf below the current assignment node can replace the
        kept one.  The node is screened at ``_raised_floor``, which never
        exceeds its own floor, so it closes only nodes that ``_makespan_lb``
        closes.  A node left open is brought current by ``_longest_paths``
        and decided at ``_makespan_lb``, so every expanded node and every
        leaf that reaches ``_sequenced`` holds fresh heads and tails."""
        reads_floor = self.spec.primary == "makespan" or self.spec.budget is not None
        if self._closes(self._raised_floor() if reads_floor else -math.inf):
            return True
        self._longest_paths()
        return reads_floor and self._closes(self._makespan_lb())

    # -- search -------------------------------------------------------

    def _longest_paths(self) -> None:
        """Replace heads and tails with one :func:`earliest_starts` pass each
        over the current graph and weights; the old lists are not written."""
        self.heads = earliest_starts(self.n, self.succ, self.weights, self.topo)
        self.after = earliest_starts(self.n, self.pred, self.weights, self.reverse_topo)

    def _assign(self, idx: int, cand_idx: int) -> None:
        """Give activity ``acts[idx]`` its candidate ``cand_idx``: its resources'
        counts rise by one, so their users' weights are raised to their new
        wait, and each resource with two users or more pushes a getter over
        them.  Heads and tails stay the parent's (see ``_prunable``); the
        replaced weights wait on ``frames``."""
        u = self.acts[idx]
        resources = self.cand_resources[idx][cand_idx]
        users, getters = self.users, self.getters
        self.prefix_costs.append(self.prefix_costs[-1] + self.cand_costs[idx][cand_idx])
        self.chosen.append(cand_idx)

        self.frames.append((self.weights, self.heads, self.after, self.reach, None))
        weights = list(self.weights)
        durations = self.durations
        for k in resources:
            nodes = users[k]
            nodes.append(u)
            if len(nodes) > 1:
                getters[k].append(operator.itemgetter(*nodes))
            # Waits do not fall as counts rise and rounding is monotone, so
            # this keeps each weight at its duration plus its largest wait.
            wait = self.wait_table[k][len(nodes)]
            for x in nodes:
                raised = durations[x] + wait
                if raised > weights[x]:
                    weights[x] = raised
        self.weights = weights

    def _unassign(self) -> None:
        """Undo the latest ``_assign``."""
        self.weights, self.heads, self.after, self.reach, _ = self.frames.pop()
        idx = len(self.chosen) - 1
        cand_idx = self.chosen.pop()
        self.prefix_costs.pop()
        for k in self.cand_resources[idx][cand_idx]:
            if len(self.users[k]) > 1:
                self.getters[k].pop()
            self.users[k].pop()

    def _add_arc(self, u: int, v: int) -> None:
        """Insert u->v, which must not close a cycle, replacing reach, heads
        and after with raised copies; the old ones wait on ``frames``."""
        reach = self.reach
        self.frames.append((self.weights, self.heads, self.after, reach, (u, v)))
        gain = reach[v] | (1 << v)
        bit_u = 1 << u
        self.reach = [mask | gain if x == u or mask & bit_u else mask for x, mask in enumerate(reach)]
        self.succ[u].append(v)
        self.pred[v].append(u)
        self.heads = _raise_longest_paths(self.heads, self.succ, self.weights, u)
        self.after = _raise_longest_paths(self.after, self.pred, self.weights, v)

    def _remove_arc(self) -> None:
        """Undo the latest ``_add_arc``."""
        self.weights, self.heads, self.after, self.reach, (u, v) = self.frames.pop()
        self.succ[u].pop()
        self.pred[v].pop()

    def _out_of_budget(self) -> bool:
        if not self.timed_out:
            limit = self.limits.node_limit
            self.timed_out = time.perf_counter() > self.deadline or (
                limit is not None and self.nodes >= limit
            )
        return self.timed_out

    def _dfs(self) -> None:
        if self._out_of_budget():
            return
        self.nodes += 1
        idx = len(self.chosen)
        if self._prunable():
            return
        if idx == len(self.acts):
            self._leaf()
            return
        for cand_idx in range(len(self.candidates[idx])):
            resources = self.cand_resources[idx][cand_idx]
            if any(len(self.users[k]) + 1 >= len(self.wait_table[k]) for k in resources):
                continue
            self._assign(idx, cand_idx)
            self._dfs()
            self._unassign()
            if self.timed_out:
                return

    def _leaf(self) -> None:
        """Sequence a full assignment and keep it if it beats the incumbent."""
        spec = self.spec
        cost = self.prefix_costs[-1]
        # _prunable has already held the leaf's cost to the budget (makespan
        # primary) or below the incumbent (cost primary).
        if spec.primary == "makespan":
            bonus = _slack_reward(spec, cost)
            upper = self.best_f - TIE_TOL + bonus
        else:
            upper = math.inf if spec.budget is None else spec.budget + TOL
        outcome = self._sequenced(upper)
        if outcome is None:
            return
        makespan, arcs = outcome
        # The search returns only makespans below ``upper``.
        f = makespan - bonus if spec.primary == "makespan" else cost
        if f < self.best_f:
            self.best_f = f
            self.best = (list(self.chosen), arcs, makespan, cost)

    def _sequenced(self, upper: float) -> tuple[float, list[tuple[int, int]]] | None:
        """Best makespan below ``upper`` of the current assignment, with every
        arc between users of one resource.

        The memo maps an assignment (its candidate indices ``chosen``) to an
        outcome that does not depend on the subproblem: ``(makespan,
        arcs)``, its first shortest orientation, once proven, or ``(upper,
        None)`` when no orientation has a makespan below ``upper``.  It is
        read when its entry decides ``upper``; else the assignment counts a
        root node, whose floor may close it, is searched by ``_branch`` and
        is memoized unless a limit cut the search short."""
        memo = self.memo
        key = tuple(self.chosen)
        entry = memo.get(key)
        if entry is not None:
            value, arcs = entry
            if arcs is not None:
                return entry if value < upper else None
            if upper <= value:
                return None
        if self._out_of_budget():
            return None
        self.nodes += 1
        self.root_bound = self._makespan_lb()
        self.seq_leaf = None
        if self.root_bound < upper:
            # The sharing pairs, those the graph orients already first;
            # ``_branch`` decides the rest in sorted order.
            pairs = {p for nodes in self.users for p in itertools.combinations(sorted(nodes), 2)}
            reach = self.reach
            oriented, undecided = [], []
            for i, j in sorted(pairs):
                (oriented if (reach[i] >> j | reach[j] >> i) & 1 else undecided).append((i, j))
            self.seq_best = upper
            self._branch(oriented + undecided, len(oriented))
        if not self.timed_out:
            memo[key] = self.seq_leaf or (upper, None)
        return self.seq_leaf

    def _floor(self) -> float:
        """No orientation of the current graph ends before the sink's head,
        nor before one resource's smallest head + load + smallest tail."""
        heads, after = self.heads, self.after
        floor = heads[self.sink]
        for get, load in self.machines:
            machine = min(get(heads)) + load + min(get(after))
            if machine > floor:
                floor = machine
        return floor

    def _select(self, decisions: list[tuple[int, int]], idx: int) -> bool:
        """Orient each open pair of ``decisions[idx:]`` against the one
        orientation that reaches the incumbent, by ``_add_arc``, until no pair
        changes; False once a pair reaches it both ways or the floor does."""
        heads, after, w, reach = self.heads, self.after, self.weights, self.reach
        best, changed = self.seq_best, True
        while changed:
            changed = False
            for i, j in decisions[idx:]:
                if (reach[i] >> j) & 1 or (reach[j] >> i) & 1:
                    continue
                i_first = heads[i] + w[i] + (after[j] + w[j]) >= best
                j_first = heads[j] + w[j] + (after[i] + w[i]) >= best
                if i_first and j_first:
                    return False
                if i_first or j_first:
                    arc = (j, i) if i_first else (i, j)
                    self._add_arc(*arc)
                    heads, after, reach = self.heads, self.after, self.reach
                    changed = True
        return self._floor() < best

    def _branch(self, pairs: list[tuple[int, int]], idx: int) -> None:
        """Orient the sharing pairs ``pairs[idx:]`` (the graph orients the rest).

        Past the last pair the node is a leaf, kept when below ``seq_best``.
        Else selection, whose arcs only raise the floor, may close the node;
        a child u->v of ``pairs[idx]`` = (i, j), i->j first, has makespan
        ``max(current, head[u] + w[u] + after[v] + w[v])`` and is skipped
        when that reaches ``seq_best``.  The search stops once a leaf reaches
        the root's floor; on return ``frames`` is popped back to its entry."""
        if idx == len(pairs):
            makespan = self.heads[self.sink]
            if makespan < self.seq_best:
                self.seq_best = makespan - TIE_TOL
                reach = self.reach
                arcs = [(i, j) if (reach[i] >> j) & 1 else (j, i) for i, j in pairs]
                self.seq_leaf = (makespan, arcs)
            return
        mark = len(self.frames)
        if self._select(pairs, idx):
            # Read after selection replaced them; each child hands these back.
            heads, after, w, reach = self.heads, self.after, self.weights, self.reach
            current = heads[self.sink]
            i, j = pairs[idx]
            for u, v in ((i, j), (j, i)):
                if (reach[v] >> u) & 1:
                    continue
                child = max(heads[u] + w[u] + (after[v] + w[v]), current)
                if child >= self.seq_best:
                    continue
                if self._out_of_budget():
                    break
                self.nodes += 1
                self._add_arc(u, v)
                self._branch(pairs, idx + 1)
                self._remove_arc()
                if self.seq_best <= self.root_bound:
                    break
        while len(self.frames) > mark:
            self._remove_arc()

    # -- one solve ---------------------------------------------------

    def run(self, spec: SubproblemSpec, limits: SolveLimits | None) -> str:
        """Search ``spec`` on these tables and this memo (see :func:`solve`) and
        return its status; every per-solve attribute starts afresh.  The best
        leaf, valued as the search valued it, stays in ``best`` and the node
        count in ``nodes``: only ``result`` builds a schedule, of a kept leaf."""
        self.spec, self.limits, self.nodes, self.timed_out = spec, limits or SolveLimits(), 0, False
        self.best_f, self.best = math.inf, None
        self.deadline = time.perf_counter() + self.limits.time_limit
        if all(self.candidates):
            self._dfs()
        if self.timed_out:
            return "timeout"
        return "infeasible" if self.best is None else "optimal"

    def result(self, status: str, leaf, started: float) -> SolveResult:
        """The last ``run`` as a :class:`SolveResult` with the schedule of ``leaf`` (a ``best``)."""
        wall = time.perf_counter() - started
        if leaf is None:
            return SolveResult(status, None, None, None, self.nodes, wall)
        chosen, arcs, makespan, cost = leaf
        instance, n, spec = self.instance, self.n, self.spec
        X = np.zeros((n, instance.skill_count, len(instance.resources)), dtype=np.int8)
        for idx, cand_idx in enumerate(chosen):
            for skill, res in self.candidates[idx][cand_idx]:
                X[self.acts[idx], skill - 1, res - 1] = 1
        Z = np.zeros((n, n), dtype=np.int8)
        for u, v in arcs:
            Z[u, v] = 1
        solution = tighten_starts(instance, X, Z)
        slack = None
        if spec.budget is not None:
            slack = max(0.0, spec.budget - (cost if spec.primary == "makespan" else makespan))
        return SolveResult(status, solution, evaluate(instance, solution), slack, self.nodes, wall)


def solve(
    instance: ProjectInstance,
    spec: SubproblemSpec,
    limits: SolveLimits | None = None,
    *,
    warm: _BranchAndBound | None = None,
) -> SolveResult:
    """Prove the optimum of ``spec`` by depth-first branch and bound.

    With a makespan primary, a cost budget ``e`` and a nonzero ``eps``,
    the optimized quantity is makespan - eps * slack / objective_range
    with slack = e - cost, i.e. ties in makespan are broken toward larger
    budget slack.  Returns a timeout status with the incumbent when a
    limit is hit, or with none when the limit came before the first
    leaf.  Only that leaf becomes a schedule; ``wall_time`` covers the
    search, not that build.  ``warm`` is the search object of the solves of
    one front on ``instance``, whose tables and memo save work; a solve
    without it builds its own, within ``wall_time``, and returns the same
    schedule: the first optimal leaf in a fixed order (see :class:`_BranchAndBound`).
    """
    started = time.perf_counter()
    warm = warm or _BranchAndBound(instance)
    if warm.instance is not instance:
        raise ValueError("warm is the search object of another instance")
    status = warm.run(spec, limits)
    return warm.result(status, warm.best, started)


class InfeasibleProblemError(ValueError):
    """No feasible schedule found: none exists, or a limit came first (the message says which)."""


@dataclass(frozen=True)
class LexOutcome:
    """One payoff-table row with the solve that produced it."""

    objectives: ObjectiveValues
    result: SolveResult
    statuses: tuple[str, str]


def lexicographic_outcome(
    instance: ProjectInstance,
    order: tuple[str, str] = ("makespan", "cost"),
    limits: SolveLimits | None = None,
    *,
    warm: _BranchAndBound | None = None,
) -> LexOutcome:
    """Optimize ``order[0]``, then ``order[1]`` with the first held at its optimum.

    Both stages run on the search object ``warm`` (or one of their own).
    Stage 2's budget is stage 1's own value, as its search summed it, so
    stage 2 meets it bit for bit.  One schedule is built: stage 2's leaf,
    or stage 1's (slack 0) with stage 2's status when stage 2 has none.
    A stage 1 without a leaf raises :class:`InfeasibleProblemError`, saying
    "timed out" if a limit cut it.
    """
    first, second = order
    if {first, second} != {"makespan", "cost"}:
        raise ValueError(f"order must name makespan and cost, got {order!r}")
    warm = warm or _BranchAndBound(instance)
    if warm.instance is not instance:
        raise ValueError("warm is the search object of another instance")
    status1 = warm.run(SubproblemSpec(primary=first), limits)
    stage1 = warm.best
    if stage1 is None:
        stopped = "timed out" if status1 == "timeout" else "infeasible"
        raise InfeasibleProblemError(f"{stopped}: no feasible solution while optimizing {first}")
    started = time.perf_counter()
    budget = stage1[2] if first == "makespan" else stage1[3]
    status2 = warm.run(SubproblemSpec(primary=second, budget=budget), limits)
    result = warm.result(status2, warm.best or stage1, started)
    return LexOutcome(objectives=result.objectives, result=result, statuses=(status1, status2))


def lexicographic_optimum(
    instance: ProjectInstance,
    order: tuple[str, str] = ("makespan", "cost"),
    limits: SolveLimits | None = None,
) -> ObjectiveValues:
    return lexicographic_outcome(instance, order, limits).objectives
