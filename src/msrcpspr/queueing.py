"""Waiting times of a single server subject to random breakdowns.

Every renewable resource is modelled as an M/M/1 station whose server
breaks down at rate ``disruption_rate`` in any state (busy or idle), is
repaired at rate ``retrieval_rate``, and serves at rate ``service_rate``
while operational.  Repairs are work-conserving: an interrupted job
resumes where it stopped.  The closed-form mean time in system is
evaluated by :func:`waiting_time`; :func:`simulate_queue` runs an exact
event-driven simulation of the same dynamics and acts as the independent
cross-check for the closed form.  The simulation is vectorised: customers
are mapped to the server's up-time clock and back by merge-ranks over
sorted arrays, and the queue itself is a running maximum on that clock.
Each run is streamed in batch-sized pieces, so its memory grows with the
batch size and the breakdown trajectory, not with the number of customers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_WARMUP_FRACTION = 0.1
_BATCH_COUNT = 30
# Controls per batch: mean interarrival gap, mean service, up fraction.
_CONTROL_COUNT = 3
# 97.5% quantile of Student's t with _BATCH_COUNT - 1 - _CONTROL_COUNT = 26
# degrees of freedom.
_T_QUANTILE = 2.0555294386428735
_CHUNK = 1 << 14


@dataclass(frozen=True)
class ReliabilityParams:
    """Breakdown/repair/service rates of one resource, all per time unit."""

    disruption_rate: float
    retrieval_rate: float
    service_rate: float


@dataclass(frozen=True)
class QueueOperatingPoint:
    """A resource together with the arrival rate it currently sees."""

    arrival_rate: float
    params: ReliabilityParams

    def is_stable(self) -> bool:
        """Whether the mean wait is finite: the denominator of
        :func:`waiting_time` is positive.  That denominator never grows
        with the arrival rate, so the stable rates form a prefix."""
        return _denominator(self) > 0.0


@dataclass(frozen=True)
class SimEstimate:
    """Batch-means estimate of the mean time in system, with control variates."""

    mean_wait: float
    half_width: float
    samples: int


class InstabilityError(ValueError):
    """Raised when an operating point is not stable (see ``is_stable``)."""

    def __init__(self, arrival_rate: float, critical_rate: float, resource: int | None = None):
        self.arrival_rate = arrival_rate
        self.critical_rate = critical_rate
        self.resource = resource
        where = f" at resource {resource}" if resource is not None else ""
        super().__init__(
            f"unstable operating point{where}: arrival rate {arrival_rate:g} "
            f">= critical rate {critical_rate:g}"
        )


def critical_arrival_rate(params: ReliabilityParams) -> float:
    """Supremum of the stable arrival rates, ``r * mu / (r + v)``.

    Reported in messages only: rounding can put it on either side of the
    exact stability test, :meth:`QueueOperatingPoint.is_stable`.
    """
    r, v, mu = params.retrieval_rate, params.disruption_rate, params.service_rate
    return r * mu / (r + v)


def _denominator(point: QueueOperatingPoint) -> float:
    r, v, mu = point.params.retrieval_rate, point.params.disruption_rate, point.params.service_rate
    lam = point.arrival_rate
    return (r + v) * (r * mu - r * lam - lam * v)


def waiting_time(point: QueueOperatingPoint) -> float:
    """Mean time in system at a stable operating point.

    With the disruption rate at zero this reduces to the classic M/M/1
    sojourn time ``1 / (service_rate - arrival_rate)``.  Strictly
    increasing in the arrival and disruption rates, strictly decreasing
    in the retrieval and service rates, and divergent as the arrival
    rate approaches the critical rate.  Raises :class:`InstabilityError`
    exactly when ``point.is_stable()`` is false.
    """
    lam = point.arrival_rate
    if lam < 0:
        raise ValueError(f"arrival rate must be >= 0, got {lam!r}")
    denominator = _denominator(point)
    if not denominator > 0.0:
        raise InstabilityError(lam, critical_arrival_rate(point.params))
    r, v, mu = point.params.retrieval_rate, point.params.disruption_rate, point.params.service_rate
    return ((r + v) ** 2 + mu * v) / denominator


def _arrival_count(rng: np.random.Generator, rate: float, horizon: float) -> int:
    """Number of exponential(rate) epochs up to ``horizon``, keeping none.

    Blocks of ``_CHUNK`` gaps are drawn until their total passes
    ``horizon``, which fixes how far the stream advances; the epochs are
    a sequential cumsum carried from block to block.
    """
    count = 0
    epoch = total = 0.0
    while total <= horizon:
        block = rng.exponential(1.0 / rate, _CHUNK)
        total += float(block.sum())
        block[0] += epoch
        np.cumsum(block, out=block)
        epoch = float(block[-1])
        count += int(np.searchsorted(block, horizon, side="right"))
    return count


def _environment(
    rng: np.random.Generator, disruption: float, retrieval: float, operational_needed: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating up/down trajectory covering ``operational_needed`` up-time.

    Returns (up_starts, up_lengths, op_offsets): the i-th up period spans
    real time [up_starts[i], up_starts[i] + up_lengths[i]) and begins at
    cumulative operational time op_offsets[i].  The server starts up at 0.
    """
    ups: list[np.ndarray] = []
    downs: list[np.ndarray] = []
    up_total = 0.0
    while up_total <= operational_needed:
        up_block = rng.exponential(1.0 / disruption, _CHUNK)
        down_block = rng.exponential(1.0 / retrieval, _CHUNK)
        ups.append(up_block)
        downs.append(down_block)
        up_total += float(up_block.sum())
    up_lengths = np.concatenate(ups)
    down_lengths = np.concatenate(downs)
    cycle = up_lengths + down_lengths
    up_starts = np.concatenate(([0.0], np.cumsum(cycle)[:-1]))
    op_offsets = np.concatenate(([0.0], np.cumsum(up_lengths)[:-1]))
    return up_starts, up_lengths, op_offsets


def _op_clock(
    t: float, up_starts: np.ndarray, up_lengths: np.ndarray, op_offsets: np.ndarray
) -> float:
    """The server's cumulative up-time at real time ``t``, mapped as
    :func:`_departure_times` maps an arrival."""
    i = int(np.searchsorted(up_starts, t, side="right")) - 1
    return float(min(t - up_starts[i], up_lengths[i]) + op_offsets[i])


def _controlled_mean(
    batch_means: np.ndarray, controls: np.ndarray, known: np.ndarray
) -> tuple[float, float]:
    """Regression control-variate estimate of the mean of ``batch_means``
    and its 95% half-width (Lavenberg & Welch, 1981).

    ``controls`` holds one row per batch of quantities whose means,
    ``known``, are exact.  The batch means are regressed on the controls,
    and the estimate is the fitted value at the known means: the sample
    mean less the part of its error the controls' errors explain.  Its
    variance is the residual variance, on n - 1 - q degrees of freedom for
    n batches and q controls, times ``1/n + d' S^+ d``, where d is the
    controls' mean error and S their centred cross-product.  A control
    that never varies gets no weight (the pseudo-inverse).
    """
    n, q = controls.shape
    centred = controls - controls.mean(axis=0)
    response = batch_means - batch_means.mean()
    inverse = np.linalg.pinv(centred.T @ centred)
    beta = inverse @ (centred.T @ response)
    offset = controls.mean(axis=0) - known
    residuals = response - centred @ beta
    variance = residuals @ residuals / (n - 1 - q) * (1.0 / n + offset @ inverse @ offset)
    return float(batch_means.mean() - offset @ beta), float(_T_QUANTILE * math.sqrt(variance))


def _clock_rank(keys: np.ndarray, boundaries: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(boundaries, keys, side)`` for non-empty, non-decreasing
    ``keys`` and non-decreasing ``boundaries``.

    A merge-rank: each boundary between the first and the last key is
    searched into the keys with the opposite tie rule, and a running count
    of those positions, started at the number of boundaries before the
    first key, gives every key's rank.  That is one binary search per
    boundary in the keys' range plus a linear pass over the keys, instead
    of one binary search per key, and the same integers.
    """
    lo, hi = np.searchsorted(boundaries, keys[[0, -1]], side=side)
    flipped = "left" if side == "right" else "right"
    positions = np.searchsorted(keys, boundaries[lo:hi], side=flipped)
    counts = np.bincount(positions, minlength=keys.size + 1)[:-1]
    counts[0] += lo
    return np.cumsum(counts, out=counts)


def _departure_times(
    arrivals: np.ndarray,
    services: np.ndarray,
    up_starts: np.ndarray,
    up_lengths: np.ndarray,
    op_offsets: np.ndarray,
    carry: tuple[float, float, int] = (0.0, -math.inf, 0),
) -> tuple[np.ndarray, tuple[float, float, int]]:
    """Exact FIFO departure instants of one piece of a run, and its carry.

    Works on the operational clock (cumulative server up-time): mapping
    arrivals onto that clock turns the halted-server system into an
    ordinary single-server queue, whose departure epochs follow the
    Lindley recursion; mapping back yields real departure times.

    ``carry`` is (service total, running maximum, up period of the last
    departure) of the customers before the piece; the default starts a
    run.  The returned carry continues it, so a run cut anywhere gives the
    departures of the uncut run bit for bit: the service total is a
    sequential cumsum, a maximum is exact, and departures never go back to
    an earlier up period.

    Both clock mappings are merge-ranks (:func:`_clock_rank`), so both
    need sorted keys: ``arrivals`` must be non-empty and non-decreasing,
    and then so are the operational departures, a running sum of services
    plus a running maximum (rounding is monotone).  They pick the same up
    periods as ``np.searchsorted(up_starts, arrivals, "right") - 1`` and
    ``np.searchsorted(op_offsets + up_lengths, op_departures, "left")``,
    and the arithmetic is the same, only done in place, so the result is
    bit-identical to that formulation.
    """
    idx = _clock_rank(arrivals, up_starts, "right") - 1
    op = arrivals - up_starts[idx]
    np.minimum(op, up_lengths[idx], out=op)
    op += op_offsets[idx]
    del idx

    # delta_n = max(alpha_n, delta_{n-1}) + s_n, unrolled to a running max.
    service_total, running_max, period = carry
    service_cum = services.copy()
    service_cum[0] += service_total
    np.cumsum(service_cum, out=service_cum)
    op -= service_cum - services
    op[0] = max(op[0], running_max)
    np.maximum.accumulate(op, out=op)
    service_total, running_max = float(service_cum[-1]), float(op[-1])
    op += service_cum
    del service_cum

    # Only periods from the carried one up to the first that starts at or
    # after the last departure can end before a departure of this piece.
    end = int(np.searchsorted(op_offsets, op[-1], side="left"))
    j = _clock_rank(op, op_offsets[period:end] + up_lengths[period:end], "left")
    j += period
    op -= op_offsets[j]
    op += up_starts[j]
    return op, (service_total, running_max, int(j[-1]))


def simulate_queue(point: QueueOperatingPoint, horizon: float, seed: int) -> SimEstimate:
    """Simulate the breakdown queue and estimate the mean time in system.

    Poisson arrivals, exponential services, breakdowns arriving at the
    disruption rate in every server state, exponential repairs, service
    halted while down and resumed afterwards.  The estimate uses
    non-overlapping batch means (30 batches, 95% confidence) after
    discarding the first 10% of customers, with three control variates
    per batch (:func:`_controlled_mean`): the mean interarrival gap (mean
    1/lambda), the mean service (1/mu) and the server's up fraction over
    the batch's arrival window, from the previous batch's last arrival to
    its own, read from the up-time clock at both ends (r/(r+upsilon)).
    Deterministic for a fixed seed.

    The run is streamed: one pass counts the arrivals within the horizon
    and one sums their services, keeping neither; the breakdown
    trajectory is then drawn whole, and a last pass re-draws arrivals and
    services from the same stream positions in batch-sized pieces, the
    warm-up first and then one piece per batch.  Memory grows with the
    batch size and the trajectory, not with the number of customers, and
    every estimate is the one the whole-array run gives.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if not point.is_stable():
        raise InstabilityError(point.arrival_rate, critical_arrival_rate(point.params))
    lam = point.arrival_rate
    if lam <= 0:
        raise ValueError("simulation needs a positive arrival rate")
    params = point.params

    rng = np.random.default_rng(seed)
    customers = _arrival_count(rng, lam, horizon)
    if customers == 0:
        raise ValueError("no arrivals within the horizon; increase it")
    warmup = int(_WARMUP_FRACTION * customers)
    kept = customers - warmup
    if kept < _BATCH_COUNT:
        raise ValueError(f"horizon too short: {kept} post-warmup samples, need >= {_BATCH_COUNT}")
    batch_size = kept // _BATCH_COUNT

    services_state = rng.bit_generator.state
    service_total = 0.0
    for start in range(0, customers, _CHUNK):
        size = min(_CHUNK, customers - start)
        service_total += float(rng.exponential(1.0 / params.service_rate, size).sum())
    # The +1 absorbs the rounding of the total; periods beyond the last
    # departure are drawn after every used one and change no value.
    environment = _environment(
        rng, params.disruption_rate, params.retrieval_rate, horizon + service_total + 1.0
    )

    arrival_rng = np.random.default_rng(seed)
    rng.bit_generator.state = services_state
    epoch, op_epoch, carry = 0.0, 0.0, (0.0, -math.inf, 0)
    batch_means = np.empty(_BATCH_COUNT)
    controls = np.empty((_BATCH_COUNT, _CONTROL_COUNT))
    warmup_pieces = [min(batch_size, warmup - start) for start in range(0, warmup, batch_size)]
    for row, size in enumerate(
        warmup_pieces + [batch_size] * _BATCH_COUNT, start=-len(warmup_pieces)
    ):
        arrivals = arrival_rng.exponential(1.0 / lam, size)
        arrivals[0] += epoch
        np.cumsum(arrivals, out=arrivals)
        window_start, epoch = epoch, float(arrivals[-1])
        op_window_start, op_epoch = op_epoch, _op_clock(epoch, *environment)
        services = rng.exponential(1.0 / params.service_rate, size)
        service_start = carry[0]
        sojourns, carry = _departure_times(arrivals, services, *environment, carry)
        sojourns -= arrivals
        if row >= 0:
            batch_means[row] = sojourns.mean()
            # The running totals give the batch's gap and service sums.
            window = epoch - window_start
            service_mean = (carry[0] - service_start) / size
            controls[row] = window / size, service_mean, (op_epoch - op_window_start) / window
    r, v = params.retrieval_rate, params.disruption_rate
    known = np.array([1.0 / lam, 1.0 / params.service_rate, r / (r + v)])
    mean_wait, half_width = _controlled_mean(batch_means, controls, known)
    return SimEstimate(
        mean_wait=mean_wait,
        half_width=half_width,
        samples=_BATCH_COUNT * batch_size,
    )
