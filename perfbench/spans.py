"""Spans around the public functions of each msrcpspr layer.

The benchmark wraps functions from its own files; nothing inside the
program changes.  A function bound with ``from .x import y`` is wrapped in
the module whose globals its caller reads, so a call is recorded exactly
once whichever path reaches it.  Spans stay in memory while the workload
runs; ``layer_metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import time


class Tracer:
    """In-memory span recorder.

    A span is a dict with ``id``, ``parent`` (the enclosing span's id or
    None), ``run`` (the command it belongs to), ``name``, ``start`` and
    ``end`` (perf_counter seconds) and any attributes read off the result.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, attrs=None) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        ``attrs(args, result)`` returns extra span fields from the call.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        setattr(module, attr, traced)


def _solve_attrs(args, result) -> dict:
    return {"primary": args[1].primary, "nodes": result.nodes_explored, "status": result.status}


def _front_attrs(args, result) -> dict:
    return {
        "points": len(result.points),
        "bypassed": sum(1 for rec in result.grid_log if rec.status == "bypassed"),
    }


def _sim_attrs(args, result) -> dict:
    return {"samples": result.samples}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of an imported msrcpspr."""
    from msrcpspr import cli, instance, pareto, queueing, schedule, solver, vikor

    tracer.wrap(cli, "main", "cli.command")
    tracer.wrap(instance, "instance_from_files", "instance.load")
    tracer.wrap(pareto, "enumerate_front", "pareto.front", _front_attrs)
    tracer.wrap(pareto, "lexicographic_outcome", "solver.lex")
    tracer.wrap(pareto, "solve", "solver.solve", _solve_attrs)
    tracer.wrap(solver, "solve", "solver.solve", _solve_attrs)
    for module in (solver, schedule, queueing):
        tracer.wrap(module, "waiting_time", "queueing.wait")
    tracer.wrap(queueing, "simulate_queue", "queueing.sim", _sim_attrs)
    tracer.wrap(solver, "tighten_starts", "schedule.tighten")
    tracer.wrap(schedule, "check_feasibility", "schedule.check")
    for attr in ("to_gantt", "gantt_svg"):
        tracer.wrap(schedule, attr, "schedule.gantt")
    tracer.wrap(vikor, "rank", "vikor.rank")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span["id"], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result[span["id"]] = (end - start) - covered
    return result


# (metric, unit) in print order; every one is reported on every workload.
LAYER_METRICS = (
    ("solver.solve_calls", "count"),
    ("solver.solve_s", "s"),
    ("solver.nodes", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("solver.timeouts", "count"),
    ("solver.lex_s", "s"),
    ("solver.lex_nodes", "count"),
    ("solver.makespan_solve_s", "s"),
    ("solver.makespan_nodes", "count"),
    ("solver.cost_solve_s", "s"),
    ("solver.cost_nodes", "count"),
    ("pareto.fronts", "count"),
    ("pareto.front_s", "s"),
    ("pareto.self_s", "s"),
    ("pareto.grid_s", "s"),
    ("pareto.grid_solved", "count"),
    ("pareto.grid_bypassed", "count"),
    ("pareto.points", "count"),
    ("pareto.point_yield", "ratio"),
    ("queueing.wait_calls", "count"),
    ("queueing.wait_s", "s"),
    ("queueing.sim_calls", "count"),
    ("queueing.sim_s", "s"),
    ("queueing.sim_samples", "count"),
    ("queueing.sim_samples_per_s", "1/s"),
    ("schedule.tighten_calls", "count"),
    ("schedule.tighten_s", "s"),
    ("schedule.check_s", "s"),
    ("schedule.gantt_s", "s"),
    ("vikor.rank_calls", "count"),
    ("vikor.rank_s", "s"),
    ("instance.load_calls", "count"),
    ("instance.load_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import_scipy_s", "s"),
    ("cli.command_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "B"),
)

# Counts that do not depend on the machine: two traced runs must agree.
DETERMINISTIC = (
    "solver.nodes",
    "solver.solve_calls",
    "queueing.wait_calls",
    "queueing.sim_samples",
    "pareto.grid_solved",
    "pareto.grid_bypassed",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer counts and times from one traced run's spans.

    ``cli.import_*`` and ``cli.out_bytes`` are not span figures; the
    caller adds them.
    """
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(items):
        return sum(s["end"] - s["start"] for s in items)

    def parent_name(span):
        parent = by_id.get(span["parent"])
        return parent["name"] if parent else None

    solves = named("solver.solve")
    grid = [s for s in solves if parent_name(s) == "pareto.front"]
    fronts = named("pareto.front")
    sims = named("queueing.sim")
    commands = named("cli.command")
    m = {
        "solver.solve_calls": len(solves),
        "solver.solve_s": total(solves),
        "solver.nodes": sum(s.get("nodes", 0) for s in solves),
        "solver.timeouts": sum(1 for s in solves if s.get("status") == "timeout"),
        "solver.lex_s": total(named("solver.lex")),
        "solver.lex_nodes": sum(s.get("nodes", 0) for s in solves if parent_name(s) == "solver.lex"),
        "pareto.fronts": len(fronts),
        "pareto.front_s": total(fronts),
        "pareto.self_s": sum(own[s["id"]] for s in fronts),
        "pareto.grid_s": total(grid),
        "pareto.grid_solved": len(grid),
        "pareto.grid_bypassed": sum(s.get("bypassed", 0) for s in fronts),
        "pareto.points": sum(s.get("points", 0) for s in fronts),
        "queueing.wait_calls": len(named("queueing.wait")),
        "queueing.wait_s": total(named("queueing.wait")),
        "queueing.sim_calls": len(sims),
        "queueing.sim_s": total(sims),
        "queueing.sim_samples": sum(s.get("samples", 0) for s in sims),
        "schedule.tighten_calls": len(named("schedule.tighten")),
        "schedule.tighten_s": total(named("schedule.tighten")),
        "schedule.check_s": total(named("schedule.check")),
        "schedule.gantt_s": total(named("schedule.gantt")),
        "vikor.rank_calls": len(named("vikor.rank")),
        "vikor.rank_s": total(named("vikor.rank")),
        "instance.load_calls": len(named("instance.load")),
        "instance.load_s": total(named("instance.load")),
        "cli.command_s": total(commands),
        "cli.self_s": sum(own[s["id"]] for s in commands),
    }
    for primary in ("makespan", "cost"):
        mine = [s for s in solves if s.get("primary") == primary]
        m[f"solver.{primary}_solve_s"] = total(mine)
        m[f"solver.{primary}_nodes"] = sum(s.get("nodes", 0) for s in mine)
    m["solver.nodes_per_s"] = _ratio(m["solver.nodes"], m["solver.solve_s"])
    m["pareto.point_yield"] = _ratio(m["pareto.points"], m["pareto.grid_solved"])
    m["queueing.sim_samples_per_s"] = _ratio(m["queueing.sim_samples"], m["queueing.sim_s"])
    return m
