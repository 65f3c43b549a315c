"""Problem instances: PSPLIB project files plus a skill/reliability sidecar.

A PSPLIB single-mode ``.sm`` file contributes the activity network
(durations, precedence, per-type resource requests).  A JSON sidecar
contributes everything PSPLIB does not know about: skills, the
skill-by-resource mastery sets, per-skill usage costs, and the
breakdown/repair/service rates of every resource.
:func:`default_extension` derives a documented, reproducible sidecar
from the parsed file; the CLI always reads one from ``--extension``.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .queueing import ReliabilityParams

DEFAULT_RESOURCE_COUNT = 4
DEFAULT_DISRUPTION_RATE = 0.5
DEFAULT_RETRIEVAL_RATE = 0.5
DEFAULT_COST_SEED = 7
DEFAULT_REQUEST_CAP = 2


class ParseError(ValueError):
    """Malformed PSPLIB text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ValidationError(ValueError):
    """Structurally broken instance data (cycles, bad sidecar, ...)."""


@dataclass(frozen=True)
class Activity:
    """One project activity; ids are 1-based, dummies are 1 and |N|."""

    id: int
    duration: int
    skill_requirements: tuple[tuple[int, int], ...]  # (skill, required count)


@dataclass(frozen=True)
class ResourceProfile:
    """One renewable resource unit with its mastered skills and rates."""

    id: int
    skills: frozenset[int]
    cost_per_skill: tuple[tuple[int, float], ...]  # (skill, cost per time unit)
    reliability: ReliabilityParams


@dataclass(frozen=True)
class PartialInstance:
    """What a PSPLIB file alone determines: network, durations, requests."""

    job_count: int
    renewable_count: int
    durations: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    requests: tuple[tuple[int, ...], ...]
    availabilities: tuple[int, ...] | None = None

    def precedence_matrix(self) -> np.ndarray:
        mat = np.zeros((self.job_count, self.job_count), dtype=bool)
        for job, succs in enumerate(self.successors, start=1):
            for succ in succs:
                mat[job - 1, succ - 1] = True
        return mat


@dataclass(frozen=True, eq=False)
class ProjectInstance:
    """Fully specified problem: network, skills, resources, reliability."""

    activities: tuple[Activity, ...]
    precedence: np.ndarray  # boolean (n, n); entry [i-1, j-1] means i precedes j
    resources: tuple[ResourceProfile, ...]
    skill_count: int

    @property
    def n_nodes(self) -> int:
        return len(self.activities)

    @property
    def sink_id(self) -> int:
        return self.n_nodes

    @property
    def executable_ids(self) -> range:
        return range(2, self.n_nodes)

    @cached_property
    def duration_array(self) -> np.ndarray:
        return np.array([a.duration for a in self.activities], dtype=float)

    @cached_property
    def requirement_matrix(self) -> np.ndarray:
        """Required resource counts, shape (n, skill_count)."""
        req = np.zeros((self.n_nodes, self.skill_count), dtype=int)
        for act in self.activities:
            for skill, count in act.skill_requirements:
                req[act.id - 1, skill - 1] = count
        return req

    @cached_property
    def mastery_matrix(self) -> np.ndarray:
        """Boolean mastery, shape (skill_count, |R|)."""
        b = np.zeros((self.skill_count, len(self.resources)), dtype=bool)
        for res in self.resources:
            for skill in res.skills:
                b[skill - 1, res.id - 1] = True
        return b

    @cached_property
    def cost_rate_matrix(self) -> np.ndarray:
        """Per-time-unit costs, shape (skill_count, |R|); zero where unmastered."""
        c = np.zeros((self.skill_count, len(self.resources)), dtype=float)
        for res in self.resources:
            for skill, cost in res.cost_per_skill:
                c[skill - 1, res.id - 1] = cost
        return c


_JOBS_RE = re.compile(r"jobs\s*\(incl\.\s*supersource/sink\s*\)\s*:\s*(\d+)")
_RENEWABLE_RE = re.compile(r"-\s*renewable\s*:\s*(\d+)")


def _int_fields(line: str, lineno: int) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise ParseError(f"expected whitespace-separated integers, got {line.strip()!r}", lineno) from exc


def parse_psplib(text: str) -> PartialInstance:
    """Parse a PSPLIB single-mode ``.sm`` document.

    Reads the job count, the PRECEDENCE RELATIONS section, the
    REQUESTS/DURATIONS section, and (when present) the resource
    availabilities.  The precedence graph is required to be a DAG.
    """
    lines = text.splitlines()
    job_count: int | None = None
    renewable_count: int | None = None
    for line in lines:
        m = _JOBS_RE.search(line)
        if m and job_count is None:
            job_count = int(m.group(1))
        m = _RENEWABLE_RE.search(line)
        if m and renewable_count is None:
            renewable_count = int(m.group(1))
    if job_count is None:
        raise ParseError("missing 'jobs (incl. supersource/sink )' header")
    if renewable_count is None:
        raise ParseError("missing '- renewable' resource count header")

    def section_start(title: str) -> int:
        for idx, line in enumerate(lines):
            if line.strip().startswith(title):
                return idx
        raise ParseError(f"missing section header {title!r}")

    # PRECEDENCE RELATIONS: one row per job after the column header.
    prec_idx = section_start("PRECEDENCE RELATIONS:")
    header = prec_idx + 1
    if header >= len(lines) or not lines[header].lstrip().startswith("jobnr."):
        raise ParseError("PRECEDENCE RELATIONS must be followed by a 'jobnr.' header", header + 1)
    successors: dict[int, tuple[int, ...]] = {}
    row = header + 1
    while row < len(lines) and not lines[row].startswith("****"):
        if lines[row].strip():
            fields = _int_fields(lines[row], row + 1)
            if len(fields) < 3:
                raise ParseError("precedence row needs jobnr, #modes, #successors", row + 1)
            job, _modes, nsucc = fields[0], fields[1], fields[2]
            if not 1 <= job <= job_count:
                raise ParseError(f"precedence row for job {job} outside 1..{job_count}", row + 1)
            succs = tuple(fields[3:])
            if len(succs) != nsucc:
                raise ParseError(
                    f"job {job} declares {nsucc} successors but lists {len(succs)}", row + 1
                )
            if job in successors:
                raise ParseError(f"duplicate precedence row for job {job}", row + 1)
            successors[job] = succs
        row += 1

    # REQUESTS/DURATIONS: job, mode, duration, one request per renewable type.
    req_idx = section_start("REQUESTS/DURATIONS:")
    header = req_idx + 1
    if header >= len(lines) or not lines[header].lstrip().startswith("jobnr."):
        raise ParseError("REQUESTS/DURATIONS must be followed by a 'jobnr.' header", header + 1)
    durations: dict[int, int] = {}
    requests: dict[int, tuple[int, ...]] = {}
    row = header + 1
    while row < len(lines) and not lines[row].startswith("****"):
        stripped = lines[row].strip()
        if stripped and not set(stripped) <= {"-"}:
            fields = _int_fields(lines[row], row + 1)
            if len(fields) != 3 + renewable_count:
                raise ParseError(
                    f"request row needs jobnr, mode, duration and {renewable_count} requests",
                    row + 1,
                )
            job = fields[0]
            if not 1 <= job <= job_count:
                raise ParseError(f"request row for job {job} outside 1..{job_count}", row + 1)
            if job in durations:
                raise ParseError(f"duplicate request row for job {job}", row + 1)
            durations[job] = fields[2]
            requests[job] = tuple(fields[3:])
        row += 1

    availabilities: tuple[int, ...] | None = None
    for idx, line in enumerate(lines):
        if line.strip().startswith("RESOURCEAVAILABILITIES"):
            for cand in lines[idx + 1 :]:
                stripped = cand.strip()
                if not stripped or stripped.startswith("****"):
                    break
                if re.fullmatch(r"[\d\s]+", stripped):
                    availabilities = tuple(_int_fields(cand, 0))
                    break
            break

    for job in range(1, job_count + 1):
        if job not in successors:
            raise ParseError(f"job {job} missing from PRECEDENCE RELATIONS")
        if job not in durations:
            raise ParseError(f"job {job} missing from REQUESTS/DURATIONS")
    for job, succs in successors.items():
        for succ in succs:
            if not 1 <= succ <= job_count:
                raise ParseError(f"job {job} lists unknown successor {succ}")
            if succ == job:
                raise ValidationError(f"precedence is not a DAG: job {job} succeeds itself")

    partial = PartialInstance(
        job_count=job_count,
        renewable_count=renewable_count,
        durations=tuple(durations[j] for j in range(1, job_count + 1)),
        successors=tuple(successors[j] for j in range(1, job_count + 1)),
        requests=tuple(requests[j] for j in range(1, job_count + 1)),
        availabilities=availabilities,
    )
    _, stuck = topological_order([[s - 1 for s in succs] for succs in partial.successors])
    if stuck:
        raise ValidationError(f"precedence is not a DAG: cycle through jobs {stuck}")
    return partial


def topological_order(successors: Sequence[Iterable[int]]) -> tuple[list[int], tuple[int, ...]]:
    """Kahn order of 0-based successor lists, smallest ready node first.

    Returns (order, stuck): ``stuck`` lists, 1-based, the nodes on or
    behind a cycle, so it is empty exactly for a DAG.
    """
    n = len(successors)
    indegree = [0] * n
    for succs in successors:
        for v in succs:
            indegree[v] += 1
    heap = [u for u in range(n) if indegree[u] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        u = heapq.heappop(heap)
        order.append(u)
        for v in successors[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                heapq.heappush(heap, v)
    stuck = tuple(u + 1 for u in range(n) if indegree[u] > 0)
    return order, stuck


def serialize_psplib(partial: PartialInstance) -> str:
    """Write a canonical ``.sm`` document; parse -> serialize -> parse is identity."""
    bar = "*" * 72
    out: list[str] = [bar]
    out.append(f"jobs (incl. supersource/sink ):  {partial.job_count}")
    out.append("RESOURCES")
    out.append(f"  - renewable                 :  {partial.renewable_count}   R")
    out.append("  - nonrenewable              :  0   N")
    out.append("  - doubly constrained        :  0   D")
    out.append(bar)
    out.append("PRECEDENCE RELATIONS:")
    out.append("jobnr.    #modes  #successors   successors")
    for job in range(1, partial.job_count + 1):
        succs = partial.successors[job - 1]
        succ_txt = "   ".join(str(s) for s in succs)
        out.append(f"{job:4d}        1          {len(succs)}           {succ_txt}".rstrip())
    out.append(bar)
    out.append("REQUESTS/DURATIONS:")
    names = "  ".join(f"R {t}" for t in range(1, partial.renewable_count + 1))
    out.append(f"jobnr. mode duration  {names}")
    out.append("-" * 72)
    for job in range(1, partial.job_count + 1):
        req_txt = "    ".join(str(q) for q in partial.requests[job - 1])
        out.append(f"{job:4d}      1    {partial.durations[job - 1]:4d}       {req_txt}")
    out.append(bar)
    if partial.availabilities is not None:
        out.append("RESOURCEAVAILABILITIES:")
        out.append("  " + "  ".join(f"R {t}" for t in range(1, partial.renewable_count + 1)))
        out.append("  " + "  ".join(str(a) for a in partial.availabilities))
        out.append(bar)
    return "\n".join(out) + "\n"


def read_psplib(path: str | Path) -> PartialInstance:
    return parse_psplib(Path(path).read_text(encoding="utf-8"))


_SIDECAR_KEYS = {"skill_count", "resources", "requirements"}
_RESOURCE_KEYS = {
    "id",
    "skills",
    "cost_per_skill",
    "disruption_rate",
    "retrieval_rate",
    "service_rate",
}
_REQUIREMENT_KEYS = {"activity", "skill", "count"}


def _check_keys(entry: object, keys: set[str], where: str) -> None:
    """Require ``entry`` to be a JSON object with exactly ``keys``; name
    every unknown and every missing key, sorted."""
    if not isinstance(entry, Mapping):
        raise ValidationError(f"{where} must be a JSON object")
    problems = []
    unknown = sorted(set(entry) - keys)
    if unknown:
        problems.append(f"unknown key(s) {unknown}")
    missing = sorted(keys - set(entry))
    if missing:
        problems.append(f"missing key(s) {missing}")
    if problems:
        raise ValidationError(f"{' and '.join(problems)} in {where}")


def _integer(value: object) -> int:
    """``value`` as an int; a bool or a fractional number, which ``int``
    would truncate, or a string, which ``int`` would parse, raises ValueError."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _real(value: object) -> float:
    """``value`` as a float; a bool or a string, which ``float`` takes, raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a real number: {value!r}")
    return float(value)


def _entries(data: Mapping, key: str) -> list:
    if not isinstance(data[key], list):
        raise ValidationError(f"sidecar {key!r} must be a JSON list")
    return data[key]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; ``json`` alone would keep the last of two equal keys."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValidationError(f"sidecar repeats key {key!r} in one object")
        data[key] = value
    return data


def load_extension(partial: PartialInstance, sidecar: str | Mapping) -> ProjectInstance:
    """Combine a parsed PSPLIB file with a skill/reliability sidecar.

    The sidecar is a JSON document (or an equivalent mapping) with keys
    ``skill_count``, ``resources`` and ``requirements``; unknown or
    missing keys, a key repeated in one JSON object and values of the
    wrong type are rejected.  Demand that the resources cannot cover is
    accepted silently: callers read it from :func:`skill_coverage_issues`,
    and the solver proves such an instance infeasible.
    """
    data = json.loads(sidecar, object_pairs_hook=_unique_keys) if isinstance(sidecar, str) else sidecar
    _check_keys(data, _SIDECAR_KEYS, "sidecar")
    try:
        skill_count = _integer(data["skill_count"])
    except (TypeError, ValueError):
        raise ValidationError(f"skill_count must be an integer, got {data['skill_count']!r}") from None
    if skill_count < 1:
        raise ValidationError("skill_count must be >= 1")

    resources: list[ResourceProfile] = []
    for entry in _entries(data, "resources"):
        where = f"resource entry {entry!r}"
        _check_keys(entry, _RESOURCE_KEYS, where)
        try:
            res_id = _integer(entry["id"])
            skills = frozenset(_integer(s) for s in entry["skills"])
            # JSON object keys are strings, so the skill keys alone are parsed.
            given = [(_integer(int(k) if isinstance(k, str) else k), _real(v))
                     for k, v in entry["cost_per_skill"].items()]
            reliability = ReliabilityParams(
                disruption_rate=_real(entry["disruption_rate"]),
                retrieval_rate=_real(entry["retrieval_rate"]),
                service_rate=_real(entry["service_rate"]),
            )
        except (TypeError, ValueError, AttributeError):
            raise ValidationError(f"wrongly typed value in {where}") from None
        costs: dict[int, float] = {}
        for skill, cost in given:  # "1" and "01" name one skill
            if skill in costs:
                raise ValidationError(f"resource {res_id} gives skill {skill} more than one cost")
            costs[skill] = cost
        if not skills <= set(range(1, skill_count + 1)):
            raise ValidationError(f"resource {res_id} masters skills outside 1..{skill_count}")
        if set(costs) != skills:
            raise ValidationError(
                f"resource {res_id} must give a cost for exactly its mastered skills"
            )
        resources.append(
            ResourceProfile(
                id=res_id,
                skills=skills,
                cost_per_skill=tuple(sorted(costs.items())),
                reliability=reliability,
            )
        )
    resources.sort(key=lambda r: r.id)
    if [r.id for r in resources] != list(range(1, len(resources) + 1)):
        raise ValidationError("resource ids must be contiguous starting at 1")

    requirements: dict[int, dict[int, int]] = {}
    seen: set[tuple[int, int]] = set()
    for entry in _entries(data, "requirements"):
        where = f"requirement entry {entry!r}"
        _check_keys(entry, _REQUIREMENT_KEYS, where)
        try:
            act, skill, count = (_integer(entry[key]) for key in ("activity", "skill", "count"))
        except (TypeError, ValueError):
            raise ValidationError(f"wrongly typed value in {where}") from None
        if not 1 < act < partial.job_count:
            raise ValidationError(f"requirement targets non-executable activity {act}")
        if not 1 <= skill <= skill_count:
            raise ValidationError(f"requirement uses skill {skill} outside 1..{skill_count}")
        if count < 0:
            raise ValidationError(f"requirement count must be >= 0, got {count}")
        if (act, skill) in seen:
            raise ValidationError(f"second requirement entry for activity {act} skill {skill}")
        seen.add((act, skill))
        if count > 0:
            requirements.setdefault(act, {})[skill] = count

    activities = tuple(
        Activity(
            id=job,
            duration=partial.durations[job - 1],
            skill_requirements=tuple(sorted(requirements.get(job, {}).items())),
        )
        for job in range(1, partial.job_count + 1)
    )
    return ProjectInstance(
        activities=activities,
        precedence=partial.precedence_matrix(),
        resources=tuple(resources),
        skill_count=skill_count,
    )


def skill_coverage_issues(instance: ProjectInstance) -> tuple[str, ...]:
    """Demand the resource pool cannot possibly cover (likely infeasible)."""
    issues: list[str] = []
    masters = {
        skill: sum(1 for res in instance.resources if skill in res.skills)
        for skill in range(1, instance.skill_count + 1)
    }
    for act in instance.activities:
        for skill, count in act.skill_requirements:
            if masters[skill] == 0:
                issues.append(
                    f"activity {act.id} requires skill {skill}, mastered by no resource"
                )
            elif masters[skill] < count:
                issues.append(
                    f"activity {act.id} requires {count} resources with skill {skill}, "
                    f"only {masters[skill]} master it"
                )
    return tuple(issues)


def default_extension(partial: PartialInstance, cost_seed: int = DEFAULT_COST_SEED) -> dict:
    """Documented reproducible sidecar derived from a PSPLIB file.

    Adaptation rule: each PSPLIB renewable type becomes one skill;
    resource k (of ``DEFAULT_RESOURCE_COUNT``) masters skill
    ceil(k*|S|/|R|) plus its cyclic successor; activity requirements are
    the per-type requests capped at ``DEFAULT_REQUEST_CAP``; per-skill
    costs are drawn once from a generator seeded with ``cost_seed``
    (100 x uniform{1..9}, resources in id order, skills ascending); every
    resource has the default disruption and retrieval rates, and service
    rates are sized to the total demand U as
    mu = (retrieval + disruption) / retrieval * (ceil(U / |R|) + 2), so a
    balanced allocation sits safely inside the stability region while an
    unbalanced one does not.  A file with no renewable type has no skill
    to derive and raises ``ValueError``.
    """
    skill_count = partial.renewable_count
    if skill_count < 1:
        raise ValueError("the PSPLIB file has no renewable resource type to become a skill")
    requirements = []
    total_demand = 0
    for job in range(2, partial.job_count):
        for skill, request in enumerate(partial.requests[job - 1], start=1):
            count = min(request, DEFAULT_REQUEST_CAP)
            if count > 0:
                requirements.append({"activity": job, "skill": skill, "count": count})
                total_demand += count

    balanced_load = math.ceil(total_demand / DEFAULT_RESOURCE_COUNT) if total_demand else 1
    rates = DEFAULT_RETRIEVAL_RATE + DEFAULT_DISRUPTION_RATE
    service_rate = rates / DEFAULT_RETRIEVAL_RATE * (balanced_load + 2)

    rng = np.random.default_rng(cost_seed)
    resources = []
    for k in range(1, DEFAULT_RESOURCE_COUNT + 1):
        base_skill = math.ceil(k * skill_count / DEFAULT_RESOURCE_COUNT)
        neighbor = base_skill % skill_count + 1
        skills = sorted({base_skill, neighbor})
        costs = {str(skill): 100 * int(rng.integers(1, 10)) for skill in skills}
        resources.append(
            {
                "id": k,
                "skills": skills,
                "cost_per_skill": costs,
                "disruption_rate": DEFAULT_DISRUPTION_RATE,
                "retrieval_rate": DEFAULT_RETRIEVAL_RATE,
                "service_rate": service_rate,
            }
        )
    return {"skill_count": skill_count, "resources": resources, "requirements": requirements}


def scale_reliability(
    instance: ProjectInstance, parameter: str, multiplier: float
) -> ProjectInstance:
    """New instance with every resource's retrieval or disruption rate scaled."""
    if parameter not in ("retrieval", "disruption"):
        raise ValueError(f"parameter must be 'retrieval' or 'disruption', got {parameter!r}")
    if not 0 < multiplier < math.inf:
        raise ValueError(f"multiplier must be finite and > 0, got {multiplier!r}")
    scaled = []
    for res in instance.resources:
        rel = res.reliability
        if parameter == "retrieval":
            rel = ReliabilityParams(rel.disruption_rate, rel.retrieval_rate * multiplier, rel.service_rate)
        else:
            rel = ReliabilityParams(rel.disruption_rate * multiplier, rel.retrieval_rate, rel.service_rate)
        scaled.append(ResourceProfile(res.id, res.skills, res.cost_per_skill, rel))
    return ProjectInstance(
        activities=instance.activities,
        precedence=instance.precedence,
        resources=tuple(scaled),
        skill_count=instance.skill_count,
    )


def validate(instance: ProjectInstance) -> list[str]:
    """All invariant violations of the instance (empty list means valid)."""
    violations: list[str] = []
    n = instance.n_nodes
    if n < 2:
        violations.append("instance needs at least the two dummy activities")
        return violations

    for idx, act in enumerate(instance.activities, start=1):
        if act.id != idx:
            violations.append(f"activity ids must be 1..{n} in order; position {idx} has id {act.id}")
    for dummy in (1, n):
        act = instance.activities[dummy - 1]
        if act.duration != 0:
            violations.append(f"dummy activity {dummy} must have duration 0, has {act.duration}")
        if act.skill_requirements:
            violations.append(f"dummy activity {dummy} must not require skills")
    for act in instance.activities:
        if act.duration < 0:
            violations.append(f"activity {act.id} has negative duration {act.duration}")
        total = 0
        for skill, count in act.skill_requirements:
            if not 1 <= skill <= instance.skill_count:
                violations.append(f"activity {act.id} requires unknown skill {skill}")
            if count < 0:
                violations.append(f"activity {act.id} has negative requirement for skill {skill}")
            total += count
        if total > len(instance.resources):
            violations.append(
                f"activity {act.id} demands {total} resources, only {len(instance.resources)} exist"
            )

    prec = instance.precedence
    if prec.shape != (n, n):
        violations.append(f"precedence matrix must be {n}x{n}, is {prec.shape}")
        return violations
    if prec.diagonal().any():
        violations.append("precedence matrix has self-loops on the diagonal")
    if prec[:, 0].any():
        violations.append("dummy source (activity 1) must have no predecessors")
    if prec[n - 1].any():
        violations.append(f"dummy sink (activity {n}) must have no successors")
    successors = [np.flatnonzero(prec[i]) for i in range(n)]
    order, stuck = topological_order(successors)
    if stuck:
        violations.append(f"precedence not a DAG: cycle through activities {stuck}")
    else:
        reaches_sink = {n - 1}
        for u in reversed(order):
            if any(v in reaches_sink for v in successors[u]):
                reaches_sink.add(u)
        dangling = [u + 1 for u in range(n) if u not in reaches_sink]
        if dangling:
            violations.append(f"activities {dangling} have no path to the dummy sink {n}")

    for res in instance.resources:
        if not res.skills:
            violations.append(f"resource {res.id} masters no skill")
        cost_skills = {skill for skill, _ in res.cost_per_skill}
        if not cost_skills <= res.skills:
            violations.append(
                f"resource {res.id} lists costs for unmastered skills {sorted(cost_skills - res.skills)}"
            )
        for skill, cost in res.cost_per_skill:
            if not 0 <= cost < math.inf:
                violations.append(
                    f"resource {res.id}: cost of skill {skill} must be finite and >= 0, is {cost!r}"
                )
        rel = res.reliability
        for name, value in (
            ("disruption_rate", rel.disruption_rate),
            ("retrieval_rate", rel.retrieval_rate),
            ("service_rate", rel.service_rate),
        ):
            if not (value > 0 and math.isfinite(value)):
                violations.append(f"resource {res.id}: {name} must be > 0 and finite, is {value!r}")
    return violations


def instance_from_files(instance_path: str | Path, extension_path: str | Path) -> ProjectInstance:
    partial = read_psplib(instance_path)
    return load_extension(partial, Path(extension_path).read_text(encoding="utf-8"))
