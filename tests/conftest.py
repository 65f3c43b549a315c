from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from msrcpspr.instance import (
    Activity,
    ProjectInstance,
    ResourceProfile,
    load_extension,
    read_psplib,
)
from msrcpspr.queueing import ReliabilityParams

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "msrcpspr" / "data"


def build_instance(*, durations, successors, skill_count, resources, requirements):
    """Assemble a ProjectInstance from plain dicts (ids are 1-based).

    ``durations``: {activity: duration}; ``successors``: {activity: ids};
    ``resources``: list of (skills, cost_per_skill, (disruption, retrieval,
    service)); ``requirements``: {activity: {skill: count}}.
    """
    n = len(durations)
    activities = tuple(
        Activity(
            id=i,
            duration=durations[i],
            skill_requirements=tuple(sorted(requirements.get(i, {}).items())),
        )
        for i in range(1, n + 1)
    )
    precedence = np.zeros((n, n), dtype=bool)
    for i, succs in successors.items():
        for j in succs:
            precedence[i - 1, j - 1] = True
    profiles = tuple(
        ResourceProfile(
            id=k + 1,
            skills=frozenset(skills),
            cost_per_skill=tuple(sorted(costs.items())),
            reliability=ReliabilityParams(*rates),
        )
        for k, (skills, costs, rates) in enumerate(resources)
    )
    return ProjectInstance(
        activities=activities,
        precedence=precedence,
        resources=profiles,
        skill_count=skill_count,
    )


def relabel(instance: ProjectInstance, order) -> ProjectInstance:
    """``instance`` with executable activity ``order[k]`` renamed k + 2.

    The dummies keep ids 1 and n, and every activity keeps its duration,
    requirements and arcs, so the new numbering need not be topological.
    """
    old = [1, *order, instance.n_nodes]
    rows = np.array(old) - 1
    return ProjectInstance(
        activities=tuple(
            dataclasses.replace(instance.activities[o - 1], id=new)
            for new, o in enumerate(old, start=1)
        ),
        precedence=instance.precedence[np.ix_(rows, rows)],
        resources=instance.resources,
        skill_count=instance.skill_count,
    )


def toy5_instance() -> ProjectInstance:
    return load_extension(
        read_psplib(DATA_DIR / "toy5.sm"),
        (DATA_DIR / "toy5_skills.json").read_text(encoding="utf-8"),
    )


def single1_instance() -> ProjectInstance:
    """One activity, two capable resources with distinct waits and costs."""
    return build_instance(
        durations={1: 0, 2: 5, 3: 0},
        successors={1: (2,), 2: (3,)},
        skill_count=1,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 6.0)),
            ({1}, {1: 200.0}, (0.5, 0.5, 10.0)),
        ],
        requirements={2: {1: 1}},
    )


def chain3_instance() -> ProjectInstance:
    """Three chained activities on two identical resources: no trade-off."""
    return build_instance(
        durations={1: 0, 2: 2, 3: 3, 4: 4, 5: 0},
        successors={1: (2,), 2: (3,), 3: (4,), 4: (5,)},
        skill_count=1,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 8.0)),
            ({1}, {1: 100.0}, (0.5, 0.5, 8.0)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}, 4: {1: 1}},
    )


def parallel2_instance() -> ProjectInstance:
    """Two parallel activities: share the cheap resource or pay for speed."""
    return build_instance(
        durations={1: 0, 2: 4, 3: 4, 4: 0},
        successors={1: (2, 3), 2: (4,), 3: (4,)},
        skill_count=1,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 6.0)),
            ({1}, {1: 250.0}, (0.5, 0.5, 6.0)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}},
    )


def diamond4_instance() -> ProjectInstance:
    """Two skill lanes through a diamond with a versatile expensive resource."""
    return build_instance(
        durations={1: 0, 2: 3, 3: 2, 4: 4, 5: 3, 6: 0},
        successors={1: (2, 3), 2: (4,), 3: (5,), 4: (6,), 5: (6,)},
        skill_count=2,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 6.0)),
            ({1, 2}, {1: 250.0, 2: 220.0}, (0.5, 0.5, 10.0)),
            ({2}, {2: 120.0}, (0.5, 0.5, 6.0)),
        ],
        requirements={2: {1: 1}, 3: {2: 1}, 4: {1: 1}, 5: {2: 1}},
    )


def star3_instance() -> ProjectInstance:
    """Three parallel activities racing for one cheap and one dear resource."""
    return build_instance(
        durations={1: 0, 2: 5, 3: 3, 4: 4, 5: 0},
        successors={1: (2, 3, 4), 2: (5,), 3: (5,), 4: (5,)},
        skill_count=1,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 8.0)),
            ({1}, {1: 180.0}, (0.5, 0.5, 8.0)),
        ],
        requirements={2: {1: 1}, 3: {1: 1}, 4: {1: 1}},
    )


def wide6_instance() -> ProjectInstance:
    """Guard-rail maximum: six executables, four resources, three skills."""
    return build_instance(
        durations={1: 0, 2: 4, 3: 3, 4: 5, 5: 2, 6: 3, 7: 4, 8: 0},
        successors={1: (2, 3, 4), 2: (5,), 3: (5, 6), 4: (7,), 5: (7,), 6: (8,), 7: (8,)},
        skill_count=3,
        resources=[
            ({1}, {1: 100.0}, (0.5, 0.5, 8.0)),
            ({1, 2}, {1: 240.0, 2: 200.0}, (0.5, 0.5, 10.0)),
            ({2, 3}, {2: 110.0, 3: 130.0}, (0.5, 0.5, 8.0)),
            ({3}, {3: 90.0}, (0.5, 0.5, 6.0)),
        ],
        requirements={2: {1: 1}, 3: {2: 1}, 4: {1: 1, 3: 1}, 5: {2: 1}, 6: {3: 1}, 7: {1: 1}},
    )


CORPUS_BUILDERS = {
    "toy5": toy5_instance,
    "single1": single1_instance,
    "chain3": chain3_instance,
    "parallel2": parallel2_instance,
    "diamond4": diamond4_instance,
    "star3": star3_instance,
    "wide6": wide6_instance,
}


def random_small_instance(rng: np.random.Generator) -> ProjectInstance:
    """Random guard-rail instance for differential solver-vs-oracle tests.

    Activities, precedence density, skill demand, mastery, costs and
    service rates all vary; service rates are drawn high enough that at
    least balanced allocations stay stable.
    """
    n_exec = int(rng.integers(2, 5))
    n = n_exec + 2
    n_res = int(rng.integers(2, 4))
    n_skills = int(rng.integers(1, 3))

    durations = {1: 0, n: 0}
    for act in range(2, n):
        durations[act] = int(rng.integers(1, 7))

    successors = {1: tuple()}
    succ_sets: dict[int, set] = {i: set() for i in range(1, n + 1)}
    for act in range(2, n):
        if rng.random() < 0.5 and act + 1 < n:
            later = int(rng.integers(act + 1, n))
            succ_sets[act].add(later)
    # connect everything through the dummies
    for act in range(2, n):
        has_pred = any(act in targets for targets in succ_sets.values())
        if not has_pred:
            succ_sets[1].add(act)
        if not succ_sets[act]:
            succ_sets[act].add(n)
    successors = {i: tuple(sorted(targets)) for i, targets in succ_sets.items() if targets}

    resources = []
    for k in range(n_res):
        n_mastered = int(rng.integers(1, n_skills + 1))
        skills = set(rng.choice(np.arange(1, n_skills + 1), size=n_mastered, replace=False).tolist())
        costs = {int(s): float(100 * rng.integers(1, 6)) for s in skills}
        mu = float(2.0 * (n_exec + int(rng.integers(1, 4))))
        resources.append((skills, costs, (0.5, 0.5, mu)))
    # make sure every skill has at least one master
    mastered = set().union(*(spec[0] for spec in resources))
    for skill in range(1, n_skills + 1):
        if skill not in mastered:
            skills, costs, rates = resources[0]
            skills = set(skills) | {skill}
            costs = dict(costs)
            costs[skill] = float(100 * rng.integers(1, 6))
            resources[0] = (skills, costs, rates)

    requirements = {}
    for act in range(2, n):
        skill = int(rng.integers(1, n_skills + 1))
        requirements[act] = {skill: 1}
        if n_skills > 1 and rng.random() < 0.3:
            other = skill % n_skills + 1
            requirements[act][other] = 1

    return build_instance(
        durations=durations,
        successors=successors,
        skill_count=n_skills,
        resources=resources,
        requirements=requirements,
    )


@pytest.fixture(scope="session")
def toy5():
    return toy5_instance()


@pytest.fixture(scope="session")
def j10():
    return load_extension(
        read_psplib(DATA_DIR / "j10.sm"),
        json.loads((DATA_DIR / "j10_skills.json").read_text(encoding="utf-8")),
    )


@pytest.fixture(scope="session")
def j20():
    return load_extension(
        read_psplib(DATA_DIR / "j20.sm"),
        json.loads((DATA_DIR / "j20_skills.json").read_text(encoding="utf-8")),
    )


@pytest.fixture(scope="session")
def corpus():
    return {name: builder() for name, builder in CORPUS_BUILDERS.items()}


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


def assignment_tensor(instance, chosen: dict[int, tuple[tuple[int, int], ...]]) -> np.ndarray:
    """X tensor from {activity id: ((skill, resource), ...)}."""
    X = np.zeros((instance.n_nodes, instance.skill_count, len(instance.resources)), dtype=np.int8)
    for act, pairs in chosen.items():
        for skill, res in pairs:
            X[act - 1, skill - 1, res - 1] = 1
    return X


def sequencing_from_order(instance, X: np.ndarray, order: list[int]) -> np.ndarray:
    """Z orienting every resource-sharing pair along a linear extension."""
    n = instance.n_nodes
    position = {act: pos for pos, act in enumerate(order)}
    Z = np.zeros((n, n), dtype=np.int8)
    usage = X.sum(axis=1)
    for k in range(len(instance.resources)):
        users = [u + 1 for u in range(n) if usage[u, k]]
        for a_idx in range(len(users)):
            for b_idx in range(a_idx + 1, len(users)):
                a, b = users[a_idx], users[b_idx]
                if position[a] < position[b]:
                    Z[a - 1, b - 1] = 1
                else:
                    Z[b - 1, a - 1] = 1
    return Z


def random_linear_extension(instance, rng: np.random.Generator) -> list[int]:
    """Random topological order of the activity ids (1-based)."""
    n = instance.n_nodes
    indeg = instance.precedence.sum(axis=0).astype(int).tolist()
    available = [u + 1 for u in range(n) if indeg[u] == 0]
    order: list[int] = []
    while available:
        pick = available.pop(int(rng.integers(len(available))))
        order.append(pick)
        for v in np.flatnonzero(instance.precedence[pick - 1]):
            indeg[v] -= 1
            if indeg[v] == 0:
                available.append(int(v) + 1)
    return order


def random_completion(instance, rng: np.random.Generator):
    """A random feasible (X, Z) pair: uniform assignment choice per activity
    over the valid candidates (redrawn when a resource would be pushed to an
    unstable arrival count), sequencing along a random linear extension."""
    from msrcpspr.queueing import critical_arrival_rate
    from msrcpspr.solver import enumerate_assignments

    options = {act: enumerate_assignments(instance, act) for act in instance.executable_ids}
    for act, opts in options.items():
        if not opts:
            raise ValueError(f"activity {act} has no feasible assignment")
    criticals = [critical_arrival_rate(res.reliability) for res in instance.resources]
    for _ in range(500):
        chosen = {act: opts[int(rng.integers(len(opts)))] for act, opts in options.items()}
        counts = [0] * len(instance.resources)
        for pairs in chosen.values():
            for _, res in pairs:
                counts[res - 1] += 1
        if all(count < crit for count, crit in zip(counts, criticals)):
            break
    else:
        raise ValueError("could not draw a stable assignment")
    X = assignment_tensor(instance, chosen)
    Z = sequencing_from_order(instance, X, random_linear_extension(instance, rng))
    return X, Z
