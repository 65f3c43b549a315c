"""Benchmark of the exact front pipeline of msrcpspr.

    python3 perfbench/run.py --workload pareto-j20 --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

Run from a source checkout; the program is imported from ``src``.  One
run of a workload measures set-up (cold starts of ``import msrcpspr.cli``
in fresh processes), then starts one fresh child process that writes the
workload's seeded inputs and runs its CLI commands back to back through
``msrcpspr.cli.main`` (a closed loop with one client, no ``--parallel``).
The outputs are checked, every metric is printed with its unit and sample
count, and the last line is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced child with ``--trace 1``.
The exit code is nonzero when an output check fails.

``--workload all`` runs every workload untraced and then traced twice,
prints everything, the tracing overhead (traced minus untraced wall_s)
and checks that both traced runs give identical machine-independent
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("pareto-j20", "pareto-batch", "simulate-j10")
COLD_STARTS = 3
CHILD_TIMEOUT_S = 170.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark could not run the workload at all."""


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; None with fewer than 11 samples.
    """
    if len(values) <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["MSRCPSPR_LOG"] = "INFO"
    return env


def cold_starts() -> list[float]:
    """Wall seconds of ``import msrcpspr.cli`` in fresh interpreters."""
    times = []
    for _ in range(COLD_STARTS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import msrcpspr.cli"], env=_env(), check=True)
        times.append(time.perf_counter() - started)
    return times


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cumulative seconds of msrcpspr.cli, self seconds of all scipy modules)."""
    cli_us = scipy_us = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "msrcpspr.cli":
            cli_us = cumulative_us
        if name.split(".")[0] == "scipy":
            scipy_us += self_us
    return cli_us / 1e6, scipy_us / 1e6


def import_times() -> tuple[list[float], list[float]]:
    cli_s, scipy_s = [], []
    for _ in range(COLD_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import msrcpspr.cli"],
            env=_env(), check=True, capture_output=True, text=True,
        )
        a, b = parse_importtime(proc.stderr)
        cli_s.append(a)
        scipy_s.append(b)
    return cli_s, scipy_s


def run_child(workload: str, seed: int, seconds: float, traced: bool, work: Path, pool: dict) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "work": str(work),
        "strata": pool["strata"],
    }
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                env=_env(), stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S:g} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{workload}: child exited {proc.returncode}; see {work / 'child.log'}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _out_bytes(result: dict, out_root: Path) -> int:
    stdout = sum(c["stdout_bytes"] for p in result["passes"] for c in p["commands"])
    return stdout + sum(f.stat().st_size for f in out_root.rglob("*") if f.is_file())


def measure(workload: str, seed: int, seconds: float, traced: bool, pool: dict) -> dict:
    """One run: set-up figures, one child, checks and metrics.

    Returns ``attempted``, ``failed``, ``metrics`` ({name: (value, unit,
    samples)}) and ``notes`` (extra printed lines).
    """
    work = WORK / (workload + ("-trace" if traced else ""))
    if traced:
        cli_s, scipy_s = import_times()
    else:
        setup = cold_starts()
    result = run_child(workload, seed, seconds, traced, work, pool)
    attempted, failed = checks.count_failures(workload, result["passes"], work / "out", pool)
    walls = [p["wall_s"] for p in result["passes"]]
    latencies = [c["latency_s"] for p in result["passes"] for c in p["commands"]]
    notes = [f"failed_frac = {failed / attempted:.6g} fraction ({failed} of {attempted} operations)"]
    metrics: dict[str, tuple[float, str, int]] = {}
    if traced:
        layer = spans.layer_metrics(result["spans"])
        layer["cli.import_s"] = statistics.median(cli_s)
        layer["cli.import_scipy_s"] = statistics.median(scipy_s)
        layer["cli.out_bytes"] = _out_bytes(result, work / "out")
        for name, unit in spans.LAYER_METRICS:
            samples = COLD_STARTS if name.startswith("cli.import") else 1
            metrics[name] = (layer[name], unit, samples)
        notes.append(f"traced wall_s = {walls[0]:.6g} s (n=1)")
    else:
        metrics["wall_s"] = (statistics.median(walls), "s", len(walls))
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", 1)
        metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
        if workload == "pareto-batch":
            notes.append(f"front_p50_s = {statistics.median(latencies):.6g} s (n={len(latencies)})")
            high = tail(latencies)
            if high is not None:
                notes.append(
                    f"front_tail_s = {high[0]:.6g} s (p{high[1]:.1f}, {TAIL_BEYOND} beyond, n={len(latencies)})"
                )
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes,
            "wall_s": statistics.median(walls)}


def _print_run(workload: str, traced: bool, run: dict) -> None:
    label = f"{workload} ({'traced' if traced else 'untraced'})"
    for name, (value, unit, samples) in run["metrics"].items():
        print(f"{label:<26} {name:<28} {value:>16.6g} {unit:<6} n={samples}")
    for note in run["notes"]:
        print(f"{label:<26} {note}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    })


def report_all(seed: int, seconds: float, pool: dict) -> int:
    """Every workload untraced, then traced twice; prints overhead and self-check."""
    attempted = failed = 0
    deterministic = True
    combined = {}
    for workload in WORKLOADS:
        plain = measure(workload, seed, seconds, False, pool)
        _print_run(workload, False, plain)
        traced = [measure(workload, seed, seconds, True, pool) for _ in range(2)]
        _print_run(workload, True, traced[0])
        overhead = traced[0]["wall_s"] - plain["wall_s"]
        print(f"{workload + ' (traced)':<26} tracing overhead = {overhead:.6g} s "
              f"({100 * overhead / plain['wall_s']:.2f}% of untraced wall_s)")
        for name in spans.DETERMINISTIC:
            first, second = (t["metrics"][name][0] for t in traced)
            if first != second:
                deterministic = False
                print(f"{workload}: {name} differs between traced runs: {first} vs {second}")
        for run in (plain, *traced):
            attempted += run["attempted"]
            failed += run["failed"]
        for run in (plain, traced[0]):
            combined.update({f"{workload}/{k}": v for k, v in run["metrics"].items()})
    print(f"traced counts identical across two runs: {deterministic}")
    correct = failed == 0 and deterministic
    print(_result_line(correct, attempted, failed, combined))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="untraced measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "msrcpspr" / "cli.py").is_file():
        print(f"error: no msrcpspr sources under {SRC}", file=sys.stderr)
        return 2
    pool = checks.load_pool()
    try:
        if args.workload == "all":
            return report_all(args.seed, args.seconds, pool)
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), pool)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_run(args.workload, bool(args.trace), run)
    correct = run["failed"] == 0
    print(_result_line(correct, run["attempted"], run["failed"], run["metrics"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
