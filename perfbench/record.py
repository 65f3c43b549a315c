"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``ref/j20_front.csv`` (the pareto-j20 front) and
``ref/batch_pool.json``: for each of the POOL_SIZE generated batch
projects, its exit code, the sha256 of its ``front.csv`` and its median
latency over three runs.  Run it only at a commit whose fronts are
trusted; the references then hold every later commit to the same bytes.

The latencies define the strata ``select_batch`` draws from: projects at
or above CERTAIN_MS are always in the batch, the rest are sorted by
latency and cut into groups of STRATUM_SIZE, one drawn per seed.  This
keeps the batch's total work nearly the same for every seed while every
project of the pool can be drawn.  Latencies differ from run to run, so
re-recording changes the strata, and with them the batch each seed
draws: it starts a new baseline.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from msrcpspr import cli

import checks
import gen

POOL_SIZE = 250
CERTAIN_MS = 400.0
STRATUM_SIZE = 2
REPEATS = 3


def _pareto(instance: Path, extension: Path, out: Path) -> tuple[int, float]:
    argv = ["pareto", "--instance", str(instance), "--extension", str(extension),
            *gen.PARETO_FLAGS, "--out", str(out)]
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, time.perf_counter() - started


def strata(projects: list[dict]) -> list[list[int]]:
    certain = [[p["index"]] for p in projects if p["ms"] >= CERTAIN_MS]
    rest = sorted((p["ms"], p["index"]) for p in projects if p["ms"] < CERTAIN_MS)
    groups = [[index for _, index in rest[i : i + STRATUM_SIZE]] for i in range(0, len(rest), STRATUM_SIZE)]
    return groups + certain


def main() -> None:
    work_root = checks.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    try:
        sidecar = work / "j20_skills.json"
        sidecar.write_text(json.dumps(gen.j20_sidecar()), encoding="utf-8")
        code, _ = _pareto(gen.DATA / "j20.sm", sidecar, work / "j20")
        if code != 0:
            raise SystemExit(f"j20 front exited {code}")
        shutil.copyfile(work / "j20" / "front.csv", checks.J20_FRONT)

        projects = []
        for index in range(POOL_SIZE):
            sm_text, sidecar_text = gen.batch_project(index)
            instance, extension = work / f"b{index}.sm", work / f"b{index}.json"
            instance.write_text(sm_text, encoding="utf-8")
            extension.write_text(sidecar_text, encoding="utf-8")
            runs = [_pareto(instance, extension, work / f"b{index}") for _ in range(REPEATS)]
            front = (work / f"b{index}" / "front.csv").read_bytes()
            projects.append({
                "index": index,
                "exit": runs[0][0],
                "front_sha256": checks.sha256(front),
                "ms": round(1000 * statistics.median(t for _, t in runs), 3),
            })
        pool = {
            "pool_size": POOL_SIZE,
            "certain_ms": CERTAIN_MS,
            "stratum_size": STRATUM_SIZE,
            "strata": strata(projects),
            "projects": projects,
        }
        checks.POOL.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
