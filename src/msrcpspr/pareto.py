"""Pareto front enumeration with the augmented epsilon-constraint grid.

The cost range between the two lexicographic optima is divided into
``grid_count`` steps; each grid level asks for the minimum makespan with
cost at most that level, rewarding budget slack through the augmented
objective.  Bypass follows from the reward: with ``eps`` > 0 (AUGMECON2)
integer slack jumps skip levels that would repeat the previous solution,
and ``eps`` 0 (the classic epsilon-constraint method) solves every level.

Grid levels 0 and N are the payoff table's own points, so they are
read from it instead of being solved again (as AUGMECON-R does).
Level N (budget ``cost_pis``) leaves no slack, so its subproblem is the
makespan stage of the cost-first row.  Level 0 (budget ``cost_nis``) is
the makespan-first row: a makespan-optimal schedule within that budget
costs exactly ``cost_nis``, and the slack reward (at most ``eps``) could
only trade it for a point within ``eps`` of the optimal makespan, which
would drop the table's proven point from the front.  A zero cost range
leaves level 0 alone.  An end level reads "optimal" only when both
stages of its table row were proved, and "timeout" otherwise.

``brute_force_front`` is the independent exhaustive oracle, without the
search, for instances within its guard rails (``GUARD_MAX_*``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .instance import ProjectInstance
from .queueing import InstabilityError
from .schedule import TOL, CycleError, ScheduleSolution, csv_text, evaluate, tighten_starts
from .solver import (
    InfeasibleProblemError,
    LexOutcome,
    SolveLimits,
    SolveResult,
    SubproblemSpec,
    _BranchAndBound,
    check_eps,
    enumerate_assignments,
    lexicographic_outcome,
    solve,
)

DEFAULT_GRID_COUNT = 10
DEFAULT_EPS = 1e-4

GUARD_MAX_ACTIVITIES = 6
GUARD_MAX_RESOURCES = 4
GUARD_MAX_SKILLS = 3


class GuardRailError(ValueError):
    """The brute-force oracle refuses instances beyond its guard rails."""


@dataclass(frozen=True)
class ParetoPoint:
    makespan: float
    cost: float
    grid_index: int | None = None
    solution: ScheduleSolution | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PayoffTable:
    """Best and worst attainable value of each objective (lexicographic)."""

    makespan_pis: float
    makespan_nis: float
    cost_pis: float
    cost_nis: float


@dataclass(frozen=True)
class GridRecord:
    """Outcome at one grid level, for reporting and CSV export."""

    grid_point: int
    epsilon: float
    status: str  # "optimal" | "bypassed" | "infeasible" | "timeout"
    makespan: float | None
    cost: float | None
    slack: float | None
    wall_time: float


@dataclass(frozen=True)
class ParetoFront:
    points: tuple[ParetoPoint, ...]
    payoff: PayoffTable | None
    grid_count: int
    grid_log: tuple[GridRecord, ...] = ()
    diagnosis: str | None = None

    def pairs(self) -> list[tuple[float, float]]:
        return [(p.makespan, p.cost) for p in self.points]


def dominance_filter(points):
    """Points not weakly dominated by any other, makespan ascending; a
    cheaper point within ``TOL`` of the last kept makespan replaces it.
    Works on anything exposing ``makespan``/``cost`` or indexable pairs;
    duplicates collapse to their first occurrence.
    """

    def key(p):
        if hasattr(p, "makespan"):
            return p.makespan, p.cost
        return p[0], p[1]

    kept = []
    best_cost = math.inf
    for p in sorted(points, key=key):
        makespan, cost = key(p)
        if cost < best_cost:
            if kept and makespan <= key(kept[-1])[0] + TOL:
                kept.pop()
            kept.append(p)
            best_cost = cost
    return kept


def brute_force_front(instance: ProjectInstance) -> ParetoFront:
    """Exhaustive bi-objective front for guard-rail instances.

    Enumerates every assignment satisfying the skill requirements, every
    orientation of every resource-sharing pair, completes start times
    through :func:`~msrcpspr.schedule.tighten_starts`, and keeps the
    (makespan, cost) pairs that :func:`dominance_filter` keeps, the rule
    the solver's fronts share.  Refuses instances beyond 6 executable
    activities, 4 resources or 3 skills.
    """
    executables = list(instance.executable_ids)
    if len(executables) > GUARD_MAX_ACTIVITIES:
        raise GuardRailError(f"{len(executables)} executable activities > {GUARD_MAX_ACTIVITIES}")
    if len(instance.resources) > GUARD_MAX_RESOURCES:
        raise GuardRailError(f"{len(instance.resources)} resources > {GUARD_MAX_RESOURCES}")
    if instance.skill_count > GUARD_MAX_SKILLS:
        raise GuardRailError(f"{instance.skill_count} skills > {GUARD_MAX_SKILLS}")

    n = instance.n_nodes
    per_activity = [enumerate_assignments(instance, i) for i in executables]
    if any(not options for options in per_activity):
        return ParetoFront(
            points=(),
            payoff=None,
            grid_count=0,
            diagnosis="some activity has no feasible assignment",
        )

    points: list[ParetoPoint] = []
    for combo in itertools.product(*per_activity):
        X = np.zeros((n, instance.skill_count, len(instance.resources)), dtype=np.int8)
        users: dict[int, list[int]] = {}
        for act_id, pairs in zip(executables, combo):
            for skill, res in pairs:
                X[act_id - 1, skill - 1, res - 1] = 1
                users.setdefault(res, []).append(act_id - 1)
        sharing = sorted(
            {
                (min(a, b), max(a, b))
                for nodes in users.values()
                for a, b in itertools.combinations(nodes, 2)
            }
        )
        for orientation in itertools.product((0, 1), repeat=len(sharing)):
            Z = np.zeros((n, n), dtype=np.int8)
            for (i, j), flip in zip(sharing, orientation):
                if flip:
                    Z[j, i] = 1
                else:
                    Z[i, j] = 1
            try:
                solution = tighten_starts(instance, X, Z)
            except (CycleError, InstabilityError):
                continue
            objectives = evaluate(instance, solution)
            points.append(
                ParetoPoint(
                    makespan=objectives.makespan,
                    cost=objectives.cost,
                    grid_index=None,
                    solution=solution,
                )
            )
    front_points = dominance_filter(points)
    if not front_points:
        return ParetoFront(
            points=(), payoff=None, grid_count=0, diagnosis="no feasible solution"
        )
    payoff = PayoffTable(
        makespan_pis=front_points[0].makespan,
        makespan_nis=front_points[-1].makespan,
        cost_pis=front_points[-1].cost,
        cost_nis=front_points[0].cost,
    )
    return ParetoFront(points=tuple(front_points), payoff=payoff, grid_count=0)


def _grid_spec(level: float, eps: float, objective_range: float) -> SubproblemSpec:
    return SubproblemSpec(
        primary="makespan",
        budget=level,
        eps=eps,
        objective_range=objective_range if eps else None,
    )


def enumerate_front(
    instance: ProjectInstance,
    grid_count: int = DEFAULT_GRID_COUNT,
    eps: float = DEFAULT_EPS,
    *,
    limits: SolveLimits | None = None,
) -> ParetoFront:
    """Enumerate the nondominated (makespan, cost) points.

    Builds the payoff table from the two lexicographic optima, grids the
    cost range into ``grid_count`` steps (levels p = 0..N), and minimizes
    makespan at every interior level with the augmented slack reward;
    levels 0 and N are the payoff table's points.  With ``eps`` > 0,
    later levels whose budget an optimal point meets within ``TOL`` are
    skipped.  An unproven payoff table makes its end levels "timeout".
    All solves share one search object, so its tables are built once and
    each assignment's orientation search runs once per front.
    """
    if grid_count < 2:
        raise ValueError(f"grid_count must be >= 2, got {grid_count}")
    check_eps(eps)
    search = _BranchAndBound(instance)
    try:
        lex_makespan = lexicographic_outcome(instance, ("makespan", "cost"), limits, warm=search)
        lex_cost = lexicographic_outcome(instance, ("cost", "makespan"), limits, warm=search)
    except InfeasibleProblemError as exc:
        return ParetoFront(points=(), payoff=None, grid_count=grid_count, diagnosis=str(exc))

    payoff = PayoffTable(
        makespan_pis=lex_makespan.objectives.makespan,
        makespan_nis=lex_cost.objectives.makespan,
        cost_pis=lex_cost.objectives.cost,
        cost_nis=lex_makespan.objectives.cost,
    )
    diagnosis = None
    statuses = set(lex_makespan.statuses) | set(lex_cost.statuses)
    if statuses - {"optimal"}:
        diagnosis = f"payoff table built from non-optimal solves: {sorted(statuses)}"

    objective_range = payoff.cost_nis - payoff.cost_pis
    last = grid_count if objective_range > TOL else 0
    step = objective_range / grid_count
    levels = [payoff.cost_nis - p * step for p in range(last + 1)]
    records: list[GridRecord] = []
    found: list[ParetoPoint] = []

    p = 0
    while p <= last:
        if p == 0:
            result = _table_level(lex_makespan, levels[p])
        elif p == last:
            result = _table_level(lex_cost, levels[p])
        else:
            result = solve(instance, _grid_spec(levels[p], eps, objective_range), limits, warm=search)
        records.append(_record_for(p, levels[p], result))
        skip = 0
        if result.solution is not None and result.status == "optimal":
            found.append(_point_for(p, result))
            if eps and step > 0:
                skip = math.floor((result.slack + TOL) / step)
        for bypassed in range(p + 1, min(p + skip, last) + 1):
            records.append(
                GridRecord(
                    grid_point=bypassed,
                    epsilon=levels[bypassed],
                    status="bypassed",
                    makespan=None,
                    cost=None,
                    slack=None,
                    wall_time=0.0,
                )
            )
        p += 1 + skip

    points = tuple(dominance_filter(found))
    return ParetoFront(
        points=points,
        payoff=payoff,
        grid_count=grid_count,
        grid_log=tuple(records),
        diagnosis=diagnosis,
    )


def plain_epsilon_front(
    instance: ProjectInstance,
    grid_count: int = DEFAULT_GRID_COUNT,
    *,
    limits: SolveLimits | None = None,
) -> ParetoFront:
    """Classic epsilon-constraint sweep: ``eps`` 0, no slack reward, no bypass.

    Shares the payoff table and grid with :func:`enumerate_front` so the
    two methods are comparable at equal ``grid_count``.
    """
    return enumerate_front(instance, grid_count, 0.0, limits=limits)


def _table_level(lex: LexOutcome, level: float) -> SolveResult:
    """A payoff-table row read as the grid level with budget ``level``."""
    status = "optimal" if lex.statuses == ("optimal", "optimal") else "timeout"
    return replace(lex.result, status=status, slack=max(0.0, level - lex.objectives.cost))


def _record_for(p: int, level: float, result) -> GridRecord:
    return GridRecord(
        grid_point=p,
        epsilon=level,
        status=result.status,
        makespan=result.objectives.makespan if result.objectives else None,
        cost=result.objectives.cost if result.objectives else None,
        slack=result.slack,
        wall_time=result.wall_time,
    )


def _point_for(p: int, result) -> ParetoPoint:
    return ParetoPoint(
        makespan=result.objectives.makespan,
        cost=result.objectives.cost,
        grid_index=p,
        solution=result.solution,
    )


def front_csv(front: ParetoFront, include_timing: bool = True) -> str:
    """Grid-level log as CSV: grid_point,makespan,cost,slack,solve_status,wall_time."""
    return csv_text("grid_point,makespan,cost,slack,solve_status,wall_time", [
        (rec.grid_point, rec.makespan, rec.cost, rec.slack, rec.status,
         round(rec.wall_time, 6) if include_timing else None)
        for rec in front.grid_log
    ])
