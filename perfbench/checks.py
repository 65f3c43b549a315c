"""Output checks; every failed check is one failed operation.

An operation is one front (one ``pareto`` command) or one simulated
operating point.  A front fails when its command exits with a code other
than its reference's, when ``front.csv`` differs from the reference by a
single byte, or when a grid level ended ``timeout`` (a payoff-table
solve cannot time out unnoticed: its 300 s limit outlasts the child's
170 s budget, which fails the whole run).  A simulated point
fails when its row is missing or unexpected, when ``analytic_W`` is not
relation 8 recomputed here within 1e-9, or when ``sim_W`` is more than the
CLI's own 5% from it.  These checks import nothing from msrcpspr.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL = HERE / "ref" / "batch_pool.json"
J20_FRONT = HERE / "ref" / "j20_front.csv"
TOY5_GOLDEN = ROOT / "tests" / "data" / "toy5_front_golden.csv"
SIM_EXTENSION = ROOT / "src" / "msrcpspr" / "data" / "j10_skills.json"

ANALYTIC_TOL = 1e-9
SIM_GAP = 0.05


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pool() -> dict:
    return json.loads(POOL.read_text(encoding="utf-8"))


def front_reference(cmd_id: str, pool: dict) -> tuple[int, str]:
    """(expected exit code, sha256 of the expected front.csv) of a command.

    A batch project proven infeasible has exit code 1 and a header-only
    front in its reference; nothing else may exit 1.
    """
    if cmd_id == "toy5":
        return 0, sha256(TOY5_GOLDEN.read_bytes())
    if cmd_id == "j20":
        return 0, sha256(J20_FRONT.read_bytes())
    entry = pool["projects"][int(cmd_id[1:])]
    return entry["exit"], entry["front_sha256"]


def front_ok(exit_code: int | None, out_dir: Path, reference: tuple[int, str]) -> bool:
    expected_exit, expected_sha = reference
    path = out_dir / "front.csv"
    if exit_code != expected_exit or not path.is_file():
        return False
    data = path.read_bytes()
    return b",timeout," not in data and sha256(data) == expected_sha


def relation8(lam: float, mu: float, upsilon: float, r: float) -> float:
    """W_k of relation 8: breakdown-queue time in system."""
    return ((r + upsilon) ** 2 + mu * upsilon) / (
        (r + upsilon) * (r * mu - r * lam - lam * upsilon)
    )


def expected_points(sidecar: dict) -> list[tuple[float, float, float, float]]:
    """(lambda, mu, upsilon, r) rows ``simulate`` must write, in order.

    Per resource, every integer arrival count from 1 up to the smaller of
    the total demand and the last count below the critical rate
    r*mu/(r+upsilon).
    """
    demand = sum(req["count"] for req in sidecar["requirements"])
    points = []
    for res in sidecar["resources"]:
        mu, upsilon, r = res["service_rate"], res["disruption_rate"], res["retrieval_rate"]
        top = min(demand, math.ceil(r * mu / (r + upsilon)) - 1)
        points.extend((float(lam), mu, upsilon, r) for lam in range(1, top + 1))
    return points


def simulation_failures(csv_text: str | None, sidecar: dict) -> tuple[int, int]:
    """(attempted, failed) simulated points of one ``simulate.csv``.

    ``None`` (no file, or a bad exit code) fails every expected point.
    """
    expected = expected_points(sidecar)
    if csv_text is None:
        return len(expected), len(expected)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    attempted = max(len(expected), len(rows))
    failed = attempted - min(len(expected), len(rows))
    for (lam, mu, upsilon, r), row in zip(expected, rows):
        try:
            got = tuple(float(row[key]) for key in ("lambda", "mu", "upsilon", "r"))
            analytic, simulated = float(row["analytic_W"]), float(row["sim_W"])
        except (KeyError, TypeError, ValueError):
            failed += 1
            continue
        want = relation8(lam, mu, upsilon, r)
        if (
            got != (lam, mu, upsilon, r)
            or abs(analytic - want) > ANALYTIC_TOL
            or abs(simulated - want) > SIM_GAP * want
        ):
            failed += 1
    return attempted, failed


def count_failures(workload: str, passes: list[dict], out_root: Path, pool: dict) -> tuple[int, int]:
    """(attempted, failed) operations over every pass of a workload run."""
    attempted = failed = 0
    sidecar = json.loads(SIM_EXTENSION.read_text(encoding="utf-8"))
    for index, run in enumerate(passes):
        for cmd in run["commands"]:
            out_dir = out_root / f"p{index}" / cmd["id"]
            if workload == "simulate-j10":
                path = out_dir / "simulate.csv"
                text = path.read_text(encoding="utf-8") if cmd["exit"] == 0 and path.is_file() else None
                tried, bad = simulation_failures(text, sidecar)
            else:
                tried, bad = 1, int(not front_ok(cmd["exit"], out_dir, front_reference(cmd["id"], pool)))
            attempted += tried
            failed += bad
    return attempted, failed
