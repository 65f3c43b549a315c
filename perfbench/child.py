"""Workload process: one closed-loop client calling ``msrcpspr.cli.main``.

Usage: ``python3 child.py SPEC.json RESULT.json`` with ``src`` on the
path.  SPEC names the workload, seed, seconds, trace flag and work
directory.  The process writes the workload's inputs, then runs its
commands back to back, one pass after another, while one more pass still
fits in ``seconds`` (always at least one pass; exactly one when traced).
Each pass writes its artifacts under ``out/p<pass>/<command id>``.
RESULT records every command's exit code and latency, each pass's wall
time, the peak resident memory and, when traced, the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from msrcpspr import cli

import gen
import spans

SIM_INSTANCE = gen.DATA / "j10.sm"
SIM_EXTENSION = gen.DATA / "j10_skills.json"


def plan(spec: dict) -> list[dict]:
    """Commands as dicts with ``id`` and ``args`` (argv without --out)."""
    workload, seed, work = spec["workload"], spec["seed"], Path(spec["work"])
    if workload == "simulate-j10":
        args = ["simulate", "--instance", str(SIM_INSTANCE), "--extension", str(SIM_EXTENSION),
                "--seed", str(seed)]
        return [{"id": "j10", "args": args}]
    return [
        {"id": cmd["id"], "args": ["pareto", "--instance", cmd["instance"],
                                   "--extension", cmd["extension"], *gen.PARETO_FLAGS]}
        for cmd in gen.write_pareto_inputs(workload, seed, spec["strata"], work / "inputs")
    ]


def run_command(argv: list[str]) -> dict:
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation; keep measuring the rest
        traceback.print_exc()
        code = None
    return {
        "exit": code,
        "latency_s": time.perf_counter() - started,
        "stdout_bytes": len(out.getvalue().encode("utf-8")),
    }


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    commands = plan(spec)
    tracer = spans.Tracer()
    if spec["trace"]:
        spans.install(tracer)
    out_root = Path(spec["work"]) / "out"
    passes = []
    began = time.perf_counter()
    while True:
        index = len(passes)
        results = []
        pass_start = time.perf_counter()
        for cmd in commands:
            tracer.run_id = f"{index}/{cmd['id']}"
            record = run_command([*cmd["args"], "--out", str(out_root / f"p{index}" / cmd["id"])])
            results.append({"id": cmd["id"], **record})
        passes.append({"wall_s": time.perf_counter() - pass_start, "commands": results})
        if spec["trace"] or time.perf_counter() - began + passes[-1]["wall_s"] > spec["seconds"]:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
