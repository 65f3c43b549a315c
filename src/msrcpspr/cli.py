"""Command-line surface: validate, solve, pareto, sweep, simulate, gantt.

Exit codes are a stable contract: 0 on success, 1 when the problem is
infeasible or a solve timed out, 2 on input errors.  Logs go to stderr,
data artifacts to files in the --out directory only.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import instance as instance_mod
from . import pareto as pareto_mod
from . import queueing, schedule, vikor
from .instance import ProjectInstance, ValidationError
from .schedule import _fmt
from .solver import InfeasibleProblemError, SolveLimits, SubproblemSpec, lexicographic_outcome, solve

logger = logging.getLogger("msrcpspr")

EXIT_OK = 0
EXIT_UNSOLVED = 1
EXIT_INPUT = 2

DEFAULT_HORIZON = 1e6


@dataclass(frozen=True)
class SweepRow:
    grid_point: int
    multiplier: float
    makespan: float | None
    cost: float | None
    makespan_change_pct: float | None
    cost_change_pct: float | None
    flagged: bool


def load_problem(args: argparse.Namespace, check: bool = True) -> ProjectInstance:
    """The instance named by ``--instance`` and ``--extension``.

    With ``check`` the instance must also pass :func:`instance.validate`,
    so no command solves or simulates an input that ``validate`` rejects,
    and each skill-coverage issue is logged as a warning.
    """
    if args.extension is None:
        raise ValidationError("extension required: supply --extension with the skill sidecar")
    problem = instance_mod.instance_from_files(args.instance, args.extension)
    if check:
        for issue in instance_mod.skill_coverage_issues(problem):
            logger.warning("%s", issue)
        violations = instance_mod.validate(problem)
        if violations:
            raise ValidationError("invalid instance: " + "; ".join(violations))
    return problem


def _limits(args: argparse.Namespace) -> SolveLimits:
    return SolveLimits(time_limit=args.time_limit)


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(content, encoding="utf-8", newline="\n")
    logger.info("wrote %s", path)
    return path


def cmd_validate(args: argparse.Namespace) -> int:
    problem = load_problem(args, check=False)
    violations = instance_mod.validate(problem)
    warnings = instance_mod.skill_coverage_issues(problem)
    for issue in warnings:
        print(f"warning: {issue}")
    if violations:
        for violation in violations:
            print(f"violation: {violation}")
        print(f"INVALID: {len(violations)} violation(s)")
        return EXIT_INPUT
    print(
        f"OK: {problem.n_nodes} activities ({len(list(problem.executable_ids))} executable), "
        f"{len(problem.resources)} resources, {problem.skill_count} skills"
    )
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    problem = load_problem(args)
    spec = SubproblemSpec(primary=args.primary, budget=args.budget)
    result = solve(problem, spec, _limits(args))
    print(f"status: {result.status}")
    print(f"nodes explored: {result.nodes_explored}")
    if result.objectives is not None:
        print(f"makespan: {_fmt(result.objectives.makespan)}")
        print(f"cost: {_fmt(result.objectives.cost)}")
        if result.slack is not None:
            print(f"budget slack: {_fmt(result.slack)}")
        rows = schedule.to_gantt(problem, result.solution)
        _write(args.out, "solution_gantt.csv", schedule.gantt_csv(rows))
        _write(args.out, "solution_gantt.svg", schedule.gantt_svg(rows))
    return EXIT_OK if result.status == "optimal" else EXIT_UNSOLVED


def _unproven(front: pareto_mod.ParetoFront) -> bool:
    """No point, a diagnosis (a payoff-table solve not proved, even when its
    grid level was bypassed) or a timed-out grid level."""
    timeouts = any(rec.status == "timeout" for rec in front.grid_log)
    return not front.points or bool(front.diagnosis) or timeouts


def cmd_pareto(args: argparse.Namespace) -> int:
    problem = load_problem(args)
    vikor.check_weights(args.weights, args.v)
    front = pareto_mod.enumerate_front(problem, args.grid, args.eps, limits=_limits(args))
    if front.diagnosis:
        logger.warning("%s", front.diagnosis)
    _write(args.out, "front.csv", pareto_mod.front_csv(front, not args.no_timing))
    if not front.points:
        print("no Pareto points found")
        return EXIT_UNSOLVED

    ranking = vikor.rank(front, args.weights, args.v)
    _write(args.out, "ranking.csv", vikor.ranking_csv(ranking))

    print("point  makespan      cost")
    for idx, point in enumerate(front.points, start=1):
        print(f"{idx:5d}  {point.makespan:>8.4g}  {point.cost:>12.6g}")
    for rank_pos, j in enumerate(ranking.order, start=1):
        if j not in ranking.compromise:
            continue
        rows = schedule.to_gantt(problem, front.points[j].solution)
        _write(args.out, f"gantt_rank{rank_pos}.svg", schedule.gantt_svg(rows))
    return EXIT_UNSOLVED if _unproven(front) else EXIT_OK


def run_sweep(
    problem: ProjectInstance,
    parameter: str,
    multipliers: list[float] | tuple[float, ...],
    grid_count: int,
    eps: float,
    limits: SolveLimits,
) -> tuple[list[SweepRow], dict[float, pareto_mod.ParetoFront]]:
    """Re-enumerate the front per scaled reliability parameter.

    Rows align fronts position by position (both sorted by ascending
    makespan), flagging a position either front lacks.  A front that fails
    has no points, only a ``diagnosis``, so every row with it is flagged.
    """
    if not multipliers or not all(0 < m < math.inf for m in multipliers):
        raise ValidationError(f"multipliers must be one or more finite values > 0, got {multipliers!r}")
    if len(set(multipliers)) < len(multipliers):
        raise ValidationError(f"multipliers must not be repeated, got {multipliers!r}")
    baseline = pareto_mod.enumerate_front(problem, grid_count, eps, limits=limits)
    fronts: dict[float, pareto_mod.ParetoFront] = {}
    rows: list[SweepRow] = []
    for multiplier in multipliers:
        if multiplier == 1.0:
            front = baseline
        else:
            scaled = instance_mod.scale_reliability(problem, parameter, multiplier)
            front = pareto_mod.enumerate_front(scaled, grid_count, eps, limits=limits)
        fronts[multiplier] = front
        pairs = itertools.zip_longest(baseline.points, front.points)
        for idx, (base_point, point) in enumerate(pairs, start=1):
            m_pct = c_pct = None
            if base_point is not None and point is not None:
                m_pct = _change_pct(point.makespan, base_point.makespan)
                c_pct = _change_pct(point.cost, base_point.cost)
            rows.append(
                SweepRow(idx, multiplier, point.makespan if point else None,
                         point.cost if point else None, m_pct, c_pct,
                         m_pct is None or c_pct is None)
            )
    return rows, fronts


def _change_pct(new: float, old: float) -> float | None:
    """Percent change from ``old`` to ``new``; None from a zero baseline."""
    return (new - old) / old * 100.0 if old else None


def sweep_csv(rows: list[SweepRow]) -> str:
    def pct(value: float | None) -> float | None:
        return None if value is None else round(value, 9)

    return schedule.csv_text(
        "grid_point,multiplier,makespan,cost,makespan_change_pct,cost_change_pct,flagged",
        [(row.grid_point, row.multiplier, row.makespan, row.cost, pct(row.makespan_change_pct),
          pct(row.cost_change_pct), int(row.flagged)) for row in rows],
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    problem = load_problem(args)
    parameter = args.parameter
    rows, fronts = run_sweep(problem, parameter, args.multipliers, args.grid, args.eps, _limits(args))
    _write(args.out, f"sweep_{parameter}.csv", sweep_csv(rows))
    flagged = sum(1 for row in rows if row.flagged)
    print(f"sweep over {parameter}: {len(rows)} rows, {flagged} flagged")
    for multiplier, front in fronts.items():
        pis = front.payoff.makespan_pis if front.payoff else math.nan
        print(f"  x{multiplier:g}: {len(front.points)} points, makespan PIS {pis:g}")
        if front.diagnosis:
            logger.warning("x%g: %s", multiplier, front.diagnosis)
    return EXIT_UNSOLVED if any(map(_unproven, fronts.values())) else EXIT_OK


def simulation_rows(
    problem: ProjectInstance, horizon: float, seed: int
) -> list[tuple[float, float, float, float, float, queueing.SimEstimate]]:
    """One row per resource and arrival count 1, 2, ... up to the total
    demand, for as long as the operating point is stable.

    The i-th row is simulated with seed ``seed + 7919 * i``.  The points
    run on a thread pool as wide as the available CPUs, heaviest first: a
    point's work grows with its arrival rate, so the pool does not end on
    one long point alone.  Rows and seeds do not depend on that order, and
    a failing point raises the first error in row order.
    """
    # Imported here: it costs the other commands' cold start ~12 ms.
    from concurrent.futures import ThreadPoolExecutor

    # Checked before the pool starts: a point already running cannot be cancelled.
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    total_demand = int(problem.requirement_matrix.sum())
    points = []
    for res in problem.resources:
        for lam in range(1, total_demand + 1):
            point = queueing.QueueOperatingPoint(float(lam), res.reliability)
            if not point.is_stable():
                break
            points.append(point)
    pool = ThreadPoolExecutor(max_workers=_available_cpus())
    try:
        futures = {}
        for i in sorted(range(len(points)), key=lambda i: points[i].arrival_rate, reverse=True):
            futures[i] = pool.submit(queueing.simulate_queue, points[i], horizon, seed + 7919 * i)
        estimates = [futures[i].result() for i in range(len(points))]
    finally:
        pool.shutdown(cancel_futures=True)
    return [
        (p.arrival_rate, p.params.service_rate, p.params.disruption_rate, p.params.retrieval_rate,
         queueing.waiting_time(p), estimate)
        for p, estimate in zip(points, estimates)
    ]


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulation_csv(rows) -> str:
    return schedule.csv_text("lambda,mu,upsilon,r,analytic_W,sim_W,ci_half_width", [
        (lam, mu, upsilon, r, round(analytic, 9), round(estimate.mean_wait, 9),
         round(estimate.half_width, 9))
        for lam, mu, upsilon, r, analytic, estimate in rows
    ])


def cmd_simulate(args: argparse.Namespace) -> int:
    problem = load_problem(args)
    rows = simulation_rows(problem, args.horizon, args.seed)
    _write(args.out, "simulate.csv", simulation_csv(rows))
    worst_gap = 0.0
    for lam, mu, upsilon, r, analytic, estimate in rows:
        gap = abs(estimate.mean_wait - analytic) / analytic
        worst_gap = max(worst_gap, gap)
        if gap > 0.05:
            logger.warning(
                "analytic/simulated gap %.1f%% at lambda=%g mu=%g upsilon=%g r=%g "
                "(analytic %.4f, simulated %.4f +/- %.4f)",
                gap * 100, lam, mu, upsilon, r, analytic, estimate.mean_wait, estimate.half_width,
            )
    print(f"{len(rows)} operating points simulated, worst relative gap {worst_gap * 100:.2f}%")
    return EXIT_OK


def cmd_gantt(args: argparse.Namespace) -> int:
    problem = load_problem(args)
    outcome = lexicographic_outcome(problem, ("makespan", "cost"), _limits(args))
    rows = schedule.to_gantt(problem, outcome.result.solution)
    _write(args.out, "gantt.csv", schedule.gantt_csv(rows))
    _write(args.out, "gantt.svg", schedule.gantt_svg(rows))
    print(
        f"rendered {len(rows)} activities, makespan {_fmt(outcome.objectives.makespan)}, "
        f"cost {_fmt(outcome.objectives.cost)}"
    )
    if outcome.statuses != ("optimal", "optimal"):
        print(f"not proved: stage statuses {outcome.statuses[0]}, {outcome.statuses[1]}")
        return EXIT_UNSOLVED
    return EXIT_OK


def _parse_weights(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("weights must be two comma-separated numbers, e.g. 0.5,0.5")
    return float(parts[0]), float(parts[1])


def _parse_multipliers(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once and shared: parsing never changes it, and no default is mutable."""
    parser = argparse.ArgumentParser(
        prog="msrcpspr",
        description="Bi-objective multi-skill project scheduling with unreliable resources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, run, solves: bool = False) -> argparse.ArgumentParser:
        """A subcommand that ``run(args)`` carries out, with the input and output
        flags; ``solves`` adds --time-limit."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--instance", required=True, type=Path, help="PSPLIB .sm file")
        p.add_argument("--extension", type=Path, help="skill/reliability sidecar JSON")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        if solves:
            p.add_argument("--time-limit", type=float, default=SolveLimits.time_limit,
                           help="seconds per subproblem")
        return p

    command("validate", "check instance and sidecar", cmd_validate)

    p = command("solve", "single-objective exact solve", cmd_solve, solves=True)
    p.add_argument("--primary", choices=("makespan", "cost"), default="makespan")
    p.add_argument("--budget", type=float, help="bound on the other objective")

    p = command("pareto", "enumerate the Pareto front and rank it", cmd_pareto, solves=True)
    p.add_argument("--no-timing", action="store_true", help="omit wall times from front.csv")
    p.add_argument("--grid", type=int, default=pareto_mod.DEFAULT_GRID_COUNT, metavar="N")
    p.add_argument("--eps", type=float, default=pareto_mod.DEFAULT_EPS)
    p.add_argument("--weights", type=_parse_weights, default=(0.5, 0.5), metavar="a,b")
    p.add_argument("--v", type=float, default=0.5, help="VIKOR strategy weight")

    p = command("sweep", "sensitivity of the front to reliability scaling", cmd_sweep, solves=True)
    p.add_argument("--parameter", choices=("retrieval", "disruption"), required=True)
    p.add_argument("--multipliers", type=_parse_multipliers, default=(1.0, 1.4))
    p.add_argument("--grid", type=int, default=pareto_mod.DEFAULT_GRID_COUNT, metavar="N")
    p.add_argument("--eps", type=float, default=pareto_mod.DEFAULT_EPS)

    p = command("simulate", "validate waiting times against simulation", cmd_simulate)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON, help="simulated time units")

    command("gantt", "render the makespan-optimal schedule", cmd_gantt, solves=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An unknown MSRCPSPR_LOG level is input: ValueError, exit 2.
        logging.basicConfig(stream=sys.stderr, level=os.environ.get("MSRCPSPR_LOG", "INFO"))
        return args.run(args)
    except (schedule.CycleError, schedule.InfeasibleSolutionError, queueing.InstabilityError):
        # Parsing rejects cyclic precedence, the solver skips unstable counts
        # and returns only feasible schedules: program faults, not input errors.
        raise
    except (OSError, ValueError) as exc:
        # OSError: an input that cannot be read or an --out that cannot be made.
        if isinstance(exc, InfeasibleProblemError):  # says "infeasible" or "timed out"
            print(exc, file=sys.stderr)
            return EXIT_UNSOLVED
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
