"""Decision variables, constraint checking, objectives and Gantt data.

A complete solution carries the assignment tensor X (activity, skill,
resource), the pairwise sequencing matrix Z, the derived usage matrix Y,
per-resource arrival rates and waits, per-activity waits T and start
times S.  ``check_feasibility`` verifies the twelve model relations and
labels each violation with its equation number; ``tighten_starts``
completes a valid (X, Z) pair into the earliest-start solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instance import ProjectInstance, topological_order
from .queueing import InstabilityError, QueueOperatingPoint, waiting_time

# Model quantities (times, costs, budgets, residuals, weight sums) within TOL
# are one value.  A later candidate replaces the kept one only when better by
# more than TIE_TOL, so one float sum taken in two orders ties.  TIE_TOL is
# absolute and absorbs that only below magnitude 4096, where two ulps are
# 9.1e-13 (j20's front makespans are 68-125); a cost such as j20's 65,500 has
# an ulp of 7.3e-12, so budgets derived from cost_nis - p*step need TOL.
# Bounds keep the same contract: a makespan floor can exceed the makespan it
# bounds by a few ulps (see solver._BranchAndBound._makespan_lb), so above 4096
# a leaf that beats the incumbent by less may be pruned as a tie, and above
# 2**22 (about 4.2e6), where two ulps exceed TOL, so may one that just meets a
# makespan budget.  The cost bound sums in a leaf's order and never exceeds its cost.
TOL = 1e-9
TIE_TOL = 1e-12


class CycleError(ValueError):
    """The union of precedence and sequencing arcs is cyclic."""


class InfeasibleSolutionError(ValueError):
    """A solution handed to :func:`to_gantt` breaks a model relation."""


@dataclass(eq=False)
class ScheduleSolution:
    """Full decision-variable vector; arrays are indexed by id - 1."""

    assignment: np.ndarray      # X, (n, skills, resources) in {0, 1}
    sequencing: np.ndarray      # Z, (n, n) in {0, 1}
    usage: np.ndarray           # Y, (n, resources) in {0, 1}
    arrival_rates: np.ndarray   # lambda, (resources,)
    waits: np.ndarray           # W, (resources,)
    activity_waits: np.ndarray  # T, (n,)
    starts: np.ndarray          # S, (n,)


@dataclass(frozen=True)
class ObjectiveValues:
    makespan: float
    cost: float


@dataclass(frozen=True)
class Violation:
    """One broken model relation, labeled by its equation number."""

    equation: int
    indices: tuple[int, ...]
    residual: float
    message: str


@dataclass(frozen=True)
class GanttRow:
    activity: int
    start: float
    duration: float
    wait: float
    resources: tuple[tuple[int, int], ...]  # (resource id, skill id)


def _check_shapes(instance: ProjectInstance, sol: ScheduleSolution) -> None:
    n = instance.n_nodes
    n_skills = instance.skill_count
    n_res = len(instance.resources)
    expected = {
        "assignment": (n, n_skills, n_res),
        "sequencing": (n, n),
        "usage": (n, n_res),
        "arrival_rates": (n_res,),
        "waits": (n_res,),
        "activity_waits": (n,),
        "starts": (n,),
    }
    for name, shape in expected.items():
        actual = getattr(sol, name).shape
        if actual != shape:
            raise ValueError(f"solution field {name} has shape {actual}, expected {shape}")


def check_feasibility(instance: ProjectInstance, sol: ScheduleSolution) -> list[Violation]:
    """Violations of the model relations (3)-(12); empty means feasible.

    Finish-to-start precedence (10) is checked in its activated form:
    whenever i precedes j or is sequenced before j, the start of j must
    be at least start(i) + duration(i) + wait(i).  The linking relation
    (9) covers both the usage definition Y and the per-activity wait
    bound T >= W on every used resource.
    """
    _check_shapes(instance, sol)
    violations: list[Violation] = []
    n = instance.n_nodes
    # Read as Python lists: a numpy scalar per element costs more than its test.
    X = sol.assignment.tolist()
    skill_load = sol.assignment.sum(axis=2).tolist()  # [i][l]: resources on skill l
    res_load = sol.assignment.sum(axis=1).tolist()    # [i][k]: skills on resource k
    Z = sol.sequencing.tolist()
    req = instance.requirement_matrix.tolist()
    mastery = instance.mastery_matrix.tolist()
    d = instance.duration_array.tolist()
    rates = sol.arrival_rates.tolist()
    waits = sol.waits.tolist()
    T = sol.activity_waits.tolist()
    S = sol.starts.tolist()
    executables = list(instance.executable_ids)

    for i in executables:
        for skill in range(1, instance.skill_count + 1):
            assigned = int(skill_load[i - 1][skill - 1])
            needed = int(req[i - 1][skill - 1])
            if assigned != needed:
                violations.append(
                    Violation(3, (i, skill), assigned - needed,
                              f"eq3: activity {i} skill {skill} has {assigned} resources, needs {needed}")
                )
        for res in range(1, len(instance.resources) + 1):
            used = int(res_load[i - 1][res - 1])
            if used > 1:
                violations.append(
                    Violation(4, (i, res), used - 1,
                              f"eq4: activity {i} uses resource {res} for {used} skills (max 1)")
                )

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            both = int(Z[i - 1][j - 1]) + int(Z[j - 1][i - 1])
            if both > 1:
                violations.append(
                    Violation(5, (i, j), both - 1,
                              f"eq5: activities {i} and {j} sequence each other both ways")
                )
            for res in range(1, len(instance.resources) + 1):
                load = int(res_load[i - 1][res - 1]) + int(res_load[j - 1][res - 1])
                if load > 1 + both:
                    violations.append(
                        Violation(6, (i, j, res), load - 1 - both,
                                  f"eq6: unsequenced activities {i} and {j} share resource {res}")
                    )

    counts = sol.assignment.sum(axis=(0, 1)).astype(float).tolist()
    for res in range(1, len(instance.resources) + 1):
        stored = float(rates[res - 1])
        if abs(stored - counts[res - 1]) > TOL:
            violations.append(
                Violation(7, (res,), stored - counts[res - 1],
                          f"eq7: resource {res} arrival rate {stored:g} != assignment count {counts[res - 1]:g}")
            )

    for res_profile in instance.resources:
        res = res_profile.id
        stored = float(waits[res - 1])
        point = QueueOperatingPoint(float(rates[res - 1]), res_profile.reliability)
        try:
            expected = waiting_time(point)
        except (InstabilityError, ValueError):
            violations.append(
                Violation(8, (res,), float("inf"),
                          f"eq8: resource {res} operates at an unstable arrival rate")
            )
            continue
        if not math.isfinite(stored) or abs(stored - expected) > TOL:
            violations.append(
                Violation(8, (res,), stored - expected,
                          f"eq8: resource {res} wait {stored:g} != queue value {expected:g}")
            )

    usage = sol.usage.tolist()
    for i in executables:
        for res in range(1, len(instance.resources) + 1):
            uses = int(res_load[i - 1][res - 1]) >= 1
            flagged = bool(usage[i - 1][res - 1])
            if uses != flagged:
                violations.append(
                    Violation(9, (i, res), float(flagged) - float(uses),
                              f"eq9: activity {i} usage flag for resource {res} is {int(flagged)}, "
                              f"assignments say {int(uses)}")
                )
            if flagged:
                gap = float(waits[res - 1]) - float(T[i - 1])
                if gap > TOL:
                    violations.append(
                        Violation(9, (i, res), gap,
                                  f"eq9: activity {i} wait {T[i - 1]:g} below "
                                  f"resource {res} wait {waits[res - 1]:g}")
                    )

    prec = instance.precedence.tolist()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j or not (prec[i - 1][j - 1] or Z[i - 1][j - 1]):
                continue
            lhs = float(S[i - 1] + d[i - 1] + T[i - 1])
            gap = lhs - float(S[j - 1])
            if gap > TOL:
                violations.append(
                    Violation(10, (i, j), gap,
                              f"eq10: activity {j} starts {S[j - 1]:g}, "
                              f"predecessor {i} releases it at {lhs:g}")
                )

    for i in range(1, n + 1):
        for skill in range(1, instance.skill_count + 1):
            for res in range(1, len(instance.resources) + 1):
                if X[i - 1][skill - 1][res - 1] and not mastery[skill - 1][res - 1]:
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
        for idx, value in enumerate(np.asarray(eq_values, dtype=float).tolist(), start=1):
            if not math.isfinite(value) or value < -TOL:
                violations.append(
                    Violation(12, (idx,), value,
                              f"eq12: {name} {idx} is {value!r}, must be finite and >= 0")
                )
    return violations


def evaluate(instance: ProjectInstance, sol: ScheduleSolution) -> ObjectiveValues:
    """Makespan (start of the dummy sink) and total assignment cost."""
    _check_shapes(instance, sol)
    makespan = float(sol.starts[instance.sink_id - 1])
    cost = float(
        np.einsum(
            "i,ilk,lk->",
            instance.duration_array,
            sol.assignment.astype(float),
            instance.cost_rate_matrix,
        )
    )
    return ObjectiveValues(makespan=makespan, cost=cost)


def earliest_starts(
    n_nodes: int, arcs: list[list[int]], node_weights: list[float], order: list[int] | None = None
) -> list[float]:
    """Longest-path earliest start times over weighted nodes.

    ``arcs[u]`` lists the 0-based successors of node u; a node's weight
    is its duration plus wait, charged on every outgoing arc.  ``order``,
    a topological order of ``arcs`` the caller already holds, skips the
    sort; without it a cyclic arc set raises :class:`CycleError`.
    """
    order, stuck = topological_order(arcs) if order is None else (order, ())
    if stuck:
        raise CycleError(f"precedence plus sequencing is cyclic through activities {list(stuck)}")
    starts = [0.0] * n_nodes
    for u in order:
        release = starts[u] + node_weights[u]
        for v in arcs[u]:
            if release > starts[v]:
                starts[v] = release
    return starts


def tighten_starts(
    instance: ProjectInstance, assignment: np.ndarray, sequencing: np.ndarray
) -> ScheduleSolution:
    """Earliest-start completion of an assignment/sequencing pair.

    Derives arrival rates from the assignment counts, resource waits from
    the breakdown-queue formula, per-activity waits as the maximum over
    used resources, and start times by longest path over the union of
    precedence and sequencing arcs.  The result is the minimum-makespan
    completion of (X, Z); an unstable resource raises
    :class:`~msrcpspr.queueing.InstabilityError` naming it.
    """
    X = np.asarray(assignment)
    Z = np.asarray(sequencing)
    n = instance.n_nodes
    counts = X.sum(axis=(0, 1)).astype(float)
    waits = np.zeros(len(instance.resources))
    for res_profile in instance.resources:
        k = res_profile.id - 1
        try:
            waits[k] = waiting_time(QueueOperatingPoint(counts[k], res_profile.reliability))
        except InstabilityError as exc:
            raise InstabilityError(exc.arrival_rate, exc.critical_rate, resource=res_profile.id) from exc

    usage = (X.sum(axis=1) >= 1).astype(np.int8)
    activity_waits = np.where(usage.any(axis=1), (usage * waits).max(axis=1), 0.0)

    union = instance.precedence | (Z != 0)
    arcs = [np.flatnonzero(union[u]).tolist() for u in range(n)]
    weights = (instance.duration_array + activity_waits).tolist()
    starts = earliest_starts(n, arcs, weights)

    return ScheduleSolution(
        assignment=X.astype(np.int8),
        sequencing=Z.astype(np.int8),
        usage=usage,
        arrival_rates=counts,
        waits=waits,
        activity_waits=activity_waits.astype(float),
        starts=np.array(starts, dtype=float),
    )


def to_gantt(instance: ProjectInstance, sol: ScheduleSolution) -> list[GanttRow]:
    """Gantt rows for the executable activities, sorted by start time.

    The wait block trails the processing block: an activity occupies
    [start, start + duration) and releases its successors at
    start + duration + wait.
    """
    violations = check_feasibility(instance, sol)
    if violations:
        raise InfeasibleSolutionError(
            "cannot render an infeasible solution: " + "; ".join(v.message for v in violations[:3])
        )
    X = sol.assignment.tolist()
    rows = []
    for i in instance.executable_ids:
        pairs = [
            (res, skill)
            for skill in range(1, instance.skill_count + 1)
            for res in range(1, len(instance.resources) + 1)
            if X[i - 1][skill - 1][res - 1]
        ]
        rows.append(
            GanttRow(
                activity=i,
                start=float(sol.starts[i - 1]),
                duration=float(instance.duration_array[i - 1]),
                wait=float(sol.activity_waits[i - 1]),
                resources=tuple(sorted(pairs)),
            )
        )
    rows.sort(key=lambda row: (row.start, row.activity))
    return rows


def gantt_csv(rows: list[GanttRow]) -> str:
    """CSV rendering: activity,start,wait,duration,resources."""
    return csv_text("activity,start,wait,duration,resources", [
        (row.activity, row.start, row.wait, row.duration,
         "|".join(f"{res}:{skill}" for res, skill in row.resources))
        for row in rows
    ])


_ROW_HEIGHT = 26
_MARGIN_LEFT = 70
_MARGIN_TOP = 30
_CHART_WIDTH = 720


def gantt_svg(rows: list[GanttRow]) -> str:
    """Standalone SVG chart; waits are drawn as light blocks after processing."""
    span = max((row.start + row.duration + row.wait for row in rows), default=1.0)
    span = max(span, TOL)
    scale = _CHART_WIDTH / span
    height = _MARGIN_TOP + _ROW_HEIGHT * len(rows) + 40
    width = _MARGIN_LEFT + _CHART_WIDTH + 20

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{_MARGIN_LEFT}" y="18" font-family="sans-serif" font-size="13">schedule</text>',
    ]
    for idx, row in enumerate(rows):
        y = _MARGIN_TOP + idx * _ROW_HEIGHT
        x0 = _MARGIN_LEFT + row.start * scale
        w_proc = row.duration * scale
        w_wait = row.wait * scale
        label = f"A{row.activity} " + ",".join(f"R{r}" for r, _ in row.resources)
        parts.append(
            f'<text x="4" y="{y + 15:.2f}" font-family="sans-serif" font-size="11">{label}</text>'
        )
        if row.duration > 0:
            parts.append(
                f'<rect x="{x0:.2f}" y="{y + 3}" width="{max(w_proc, 0.5):.2f}" '
                f'height="{_ROW_HEIGHT - 8}" fill="#4878a8" />'
            )
        if row.wait > 0:
            parts.append(
                f'<rect x="{x0 + w_proc:.2f}" y="{y + 3}" width="{max(w_wait, 0.5):.2f}" '
                f'height="{_ROW_HEIGHT - 8}" fill="#f4d06f" />'
            )
    axis_y = _MARGIN_TOP + len(rows) * _ROW_HEIGHT + 12
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + _CHART_WIDTH}" '
        f'y2="{axis_y}" stroke="#444" />'
    )
    ticks = 8
    for t in range(ticks + 1):
        x = _MARGIN_LEFT + _CHART_WIDTH * t / ticks
        value = span * t / ticks
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 16}" font-family="sans-serif" font-size="10" '
            f'text-anchor="middle">{value:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def csv_text(header: str, rows: list[tuple]) -> str:
    """The CSV writers' one format: the header line, then one line per row
    whose cells are a ``str`` as is, ``None`` as empty and any other value
    through :func:`_fmt`; LF line ends and a trailing newline."""
    lines = [header]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else "" if cell is None else _fmt(cell) for cell in row
        ))
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Decimal formatting shared by the CSV writers (dot decimal, no exponent noise)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")
