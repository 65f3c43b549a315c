"""VIKOR compromise ranking of the enumerated Pareto points.

Both criteria (makespan, cost) are minimized.  Per alternative j the
group utility S_j sums the weighted normalized distances to the best
value of each criterion, the individual regret R_j takes their maximum,
and the compromise index Q_j blends both through the strategy weight v.
Alternatives are ranked by ascending Q; the compromise set applies the
acceptable-advantage and acceptable-stability conditions.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schedule import TIE_TOL, TOL, csv_text

logger = logging.getLogger(__name__)

CRITERIA = ("makespan", "cost")


@dataclass(frozen=True)
class VikorRanking:
    """Scores, rank order and compromise set over the alternatives."""

    alternatives: tuple[tuple[float, float], ...]  # (makespan, cost) per alternative
    s: tuple[float, ...]
    r: tuple[float, ...]
    q: tuple[float, ...]
    weights: tuple[float, float]
    v: float
    order: tuple[int, ...]  # alternative indices, best first
    compromise: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    @property
    def best(self) -> int:
        return self.order[0]


def _as_matrix(front_or_points) -> np.ndarray:
    points = getattr(front_or_points, "points", front_or_points)
    rows = []
    for p in points:
        if hasattr(p, "makespan"):
            rows.append((float(p.makespan), float(p.cost)))
        else:
            rows.append((float(p[0]), float(p[1])))
    return np.array(rows, dtype=float)


def check_weights(weights: Sequence[float], v: float) -> None:
    """Reject criterion weights other than two nonnegative values summing
    to 1, and a strategy weight outside [0, 1]; NaN fails both."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (2,) or not ((w >= 0).all() and abs(float(w.sum()) - 1.0) <= TOL):
        raise ValueError(f"weights must be two nonnegative values summing to 1, got {weights!r}")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"strategy weight v must lie in [0, 1], got {v!r}")


def rank(
    front_or_points,
    weights: Sequence[float] = (0.5, 0.5),
    v: float = 0.5,
) -> VikorRanking:
    """Score and order the alternatives of a front (or raw value pairs).

    A criterion whose values coincide across all alternatives carries no
    information; its terms are defined as zero, and with two or more
    alternatives a warning is kept on the ranking.  Ties in Q break by R,
    then S, then makespan, then the original position, so the order is
    always total and deterministic.
    """
    matrix = _as_matrix(front_or_points)
    if matrix.ndim != 2 or matrix.shape[0] < 1:
        raise ValueError("ranking needs at least one alternative")
    check_weights(weights, v)
    w = np.asarray(weights, dtype=float)

    notes: list[str] = []
    n_alt = matrix.shape[0]
    terms = np.zeros_like(matrix)
    for c, name in enumerate(CRITERIA):
        best = matrix[:, c].min()
        worst = matrix[:, c].max()
        span = worst - best
        if span <= 0.0:
            if n_alt > 1:
                notes.append(f"criterion {name} is degenerate (all values {best:g}); terms set to 0")
            continue
        terms[:, c] = w[c] * (matrix[:, c] - best) / span
    s = terms.sum(axis=1)
    r = terms.max(axis=1)

    q = np.zeros(n_alt)
    s_span = s.max() - s.min()
    r_span = r.max() - r.min()
    if s_span > 0.0:
        q += v * (s - s.min()) / s_span
    elif n_alt > 1:
        notes.append("group utility S is degenerate; its share of Q set to 0")
    if r_span > 0.0:
        q += (1.0 - v) * (r - r.min()) / r_span
    elif n_alt > 1:
        notes.append("individual regret R is degenerate; its share of Q set to 0")

    order = tuple(
        sorted(range(n_alt), key=lambda j: (q[j], r[j], s[j], matrix[j, 0], j))
    )
    for note in notes:
        logger.warning("%s", note)

    ranking = VikorRanking(
        alternatives=tuple((float(m), float(c)) for m, c in matrix),
        s=tuple(float(x) for x in s),
        r=tuple(float(x) for x in r),
        q=tuple(float(x) for x in q),
        weights=(float(w[0]), float(w[1])),
        v=float(v),
        order=order,
        compromise=(),
        warnings=tuple(notes),
    )
    return dataclasses.replace(ranking, compromise=select_compromise(ranking))


def select_compromise(ranking: VikorRanking) -> tuple[int, ...]:
    """Alternatives proposed as the compromise solution.

    With acceptable advantage (Q gap to the runner-up at least 1/(m - 1))
    and acceptable stability (the Q-best also leads by S or by R) the best
    alternative stands alone.  Failing only stability keeps the runner-up as
    well; failing advantage keeps every alternative whose Q gap stays below
    the threshold.  Each test counts values within ``TIE_TOL`` as equal.
    """
    m = len(ranking.alternatives)
    if m == 1:
        return (ranking.order[0],)
    order = ranking.order
    q = ranking.q
    best = order[0]
    dq = 1.0 / (m - 1)
    advantage = q[order[1]] - q[best] >= dq - TIE_TOL
    stability = (
        abs(ranking.s[best] - min(ranking.s)) <= TIE_TOL
        or abs(ranking.r[best] - min(ranking.r)) <= TIE_TOL
    )
    if advantage and stability:
        return (best,)
    if advantage:
        return (best, order[1])
    cutoff = [j for j in order if q[j] - q[best] < dq - TIE_TOL]
    return tuple(cutoff)


def ranking_csv(ranking: VikorRanking) -> str:
    """CSV export: rank,makespan,cost,S,R,Q,in_compromise_set."""
    return csv_text("rank,makespan,cost,S,R,Q,in_compromise_set", [
        (position, *ranking.alternatives[j], round(ranking.s[j], 12), round(ranking.r[j], 12),
         round(ranking.q[j], 12), int(j in ranking.compromise))
        for position, j in enumerate(ranking.order, start=1)
    ])
