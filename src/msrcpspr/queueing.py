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
Each run is streamed in pieces of at most ``_PIECE`` customers, and the
breakdown trajectory is drawn in blocks beside them and dropped behind
them, so a run holds those pieces plus one float per customer of the
current batch, not the whole run or the whole trajectory.  Every running
sum and running maximum writes a fresh array: numpy holds the GIL for the
whole of an accumulate whose ``out=`` is its own input, which would
serialise the points ``simulate`` runs on a thread pool.
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
# Customers simulated at once within the warm-up or a batch.  Unlike
# _CHUNK it does not shape the random stream, only the working set.
_PIECE = 1 << 15


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
        block = np.cumsum(block)
        epoch = float(block[-1])
        count += int(np.searchsorted(block, horizon, side="right"))
    return count


class _Trajectory:
    """The server's alternating up/down trajectory, which maps each piece of
    a run onto its up-time clock (cumulative up-time) and back.

    The server starts up at 0.  Held period k spans real time
    [_up_starts[k], _up_starts[k] + _up_lengths[k]) and begins at up-time
    _op_offsets[k].  Periods are drawn only when a run reaches them, in
    blocks of ``_CHUNK`` up lengths followed by ``_CHUNK`` down lengths,
    and both start times are sequential cumsums carried from block to
    block, so every period has the values of the trajectory drawn whole
    from the same stream.  :meth:`real_time` drops the periods a run has
    left behind.
    """

    def __init__(self, rng: np.random.Generator, disruption: float, retrieval: float):
        self._rng = rng
        self._up_mean, self._down_mean = 1.0 / disruption, 1.0 / retrieval
        self._up_starts = self._up_lengths = self._op_offsets = np.empty(0)
        # Real start and up-time offset of the first period not drawn yet.
        self._next_start = self._next_offset = 0.0
        # Window indices of the last mapped arrival's and departure's periods.
        self._arrival_period = self._departure_period = 0

    def up_time(self, arrivals: np.ndarray) -> np.ndarray:
        """The up-time clock of a piece's ``arrivals``, as a fresh array.

        The arrivals must be non-empty, non-decreasing and none before the
        previous piece's last one.  The mapping is a merge-rank
        (:func:`_clock_rank`): it picks the same up periods as
        ``np.searchsorted(up_starts, arrivals, "right") - 1``, and the
        arithmetic is the same.
        """
        while self._next_start <= arrivals[-1]:
            self._extend()
        idx = _clock_rank(arrivals, self._up_starts, "right") - 1
        self._arrival_period = int(idx[-1])
        op = arrivals - self._up_starts[idx]
        np.minimum(op, self._up_lengths[idx], out=op)
        op += self._op_offsets[idx]
        return op

    def real_time(self, op: np.ndarray) -> np.ndarray:
        """Real times of the piece's up-time departures ``op``, mapped back in
        place, after :meth:`up_time` has mapped the piece's arrivals.

        Departures never go back to an earlier period, so the mapping
        starts from the previous departure's period, and a run cut anywhere
        maps as the uncut run does.  A merge-rank against the up-period
        ends from there on, it picks the same periods as
        ``np.searchsorted(op_offsets + up_lengths, op, "left")`` on the
        whole trajectory.  Later arrivals come at or after the piece's last
        one, and later departures map to the last one's period or after
        it, so the periods before both are dropped.
        """
        while self._next_offset < op[-1]:
            self._extend()
        # Only periods from the previous departure's up to the first that
        # starts at or after the last departure can end before a departure
        # of this piece.
        first = self._departure_period
        end = int(np.searchsorted(self._op_offsets, op[-1], side="left"))
        j = _clock_rank(op, self._op_offsets[first:end] + self._up_lengths[first:end], "left")
        j += first
        op -= self._op_offsets[j]
        op += self._up_starts[j]
        last = int(j[-1])
        drop = min(self._arrival_period, last)
        self._up_starts, self._up_lengths, self._op_offsets = (
            a[drop:] for a in (self._up_starts, self._up_lengths, self._op_offsets)
        )
        self._departure_period = last - drop
        return op

    def _extend(self) -> None:
        ups = self._rng.exponential(self._up_mean, _CHUNK)
        ends = ups + self._rng.exponential(self._down_mean, _CHUNK)
        ends[0] += self._next_start
        ends = np.cumsum(ends)
        op_ends = ups.copy()
        op_ends[0] += self._next_offset
        op_ends = np.cumsum(op_ends)
        self._up_starts = np.concatenate((self._up_starts, [self._next_start], ends[:-1]))
        self._up_lengths = np.concatenate((self._up_lengths, ups))
        self._op_offsets = np.concatenate((self._op_offsets, [self._next_offset], op_ends[:-1]))
        self._next_start, self._next_offset = float(ends[-1]), float(op_ends[-1])


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
    return np.cumsum(counts)


def _operational_departures(
    op: np.ndarray, services: np.ndarray, service_total: float, running_max: float
) -> tuple[np.ndarray, float, float]:
    """FIFO departure epochs of one piece of a run on the up-time clock, from
    the piece's arrivals ``op`` on that clock (overwritten), and the carried
    service total and running maximum after the piece.

    On that clock the halted-server system is an ordinary single-server
    queue, whose departures follow the Lindley recursion.  The service
    total and running maximum of the customers before the piece are
    carried in (0 and -inf start a run); a cumsum carried in sequence and
    a maximum are exact, so a run cut anywhere gives the uncut run's
    values bit for bit.  Non-decreasing arrivals give non-decreasing
    departures, a running sum of services plus a running maximum
    (rounding is monotone).  The elementwise steps run in place; the
    running sum and maximum write fresh arrays, which lets numpy release
    the GIL for them (see the module docstring).
    """
    # delta_n = max(alpha_n, delta_{n-1}) + s_n, unrolled to a running max.
    service_cum = services.copy()
    service_cum[0] += service_total
    service_cum = np.cumsum(service_cum)
    op -= service_cum - services
    op[0] = max(op[0], running_max)
    op = np.maximum.accumulate(op)
    service_total, running_max = float(service_cum[-1]), float(op[-1])
    op += service_cum
    return op, service_total, running_max


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
    and one draws their services, keeping neither, which finds where the
    breakdown trajectory's draws start.  A last pass re-draws arrivals and
    services from the same stream positions, the warm-up first and then
    each batch, in pieces of at most ``_PIECE`` customers, and draws the
    trajectory from its own generator in blocks as the pieces reach it
    (:class:`_Trajectory`), dropping the periods they have left behind.
    The carried epochs, totals and running maximum, and the periods the
    trajectory keeps, make every cut exact, and each batch's sojourns
    fill one buffer whose mean is taken whole.  Memory is the pieces plus
    one float per customer of the current batch, not the number of
    customers or the trajectory, and every estimate is the one the
    whole-array run gives.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")
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
    # Drawing the services advances the stream to where the trajectory's
    # draws start; an exponential takes a variable number of raw draws, so
    # that position can only be found by drawing.
    for start in range(0, customers, _CHUNK):
        rng.exponential(1.0 / params.service_rate, min(_CHUNK, customers - start))
    trajectory = _Trajectory(rng, params.disruption_rate, params.retrieval_rate)

    arrival_rng, service_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    service_rng.bit_generator.state = services_state
    epoch, op_epoch = 0.0, 0.0
    service_total, running_max = 0.0, -math.inf
    batch_means = np.empty(_BATCH_COUNT)
    controls = np.empty((_BATCH_COUNT, _CONTROL_COUNT))
    sojourns = np.empty(batch_size)
    for row, size in enumerate([warmup] + [batch_size] * _BATCH_COUNT, start=-1):
        window_start, service_start, op_window_start = epoch, service_total, op_epoch
        for start in range(0, size, _PIECE):
            stop = min(start + _PIECE, size)
            arrivals = arrival_rng.exponential(1.0 / lam, stop - start)
            arrivals[0] += epoch
            arrivals = np.cumsum(arrivals)
            epoch = float(arrivals[-1])
            op = trajectory.up_time(arrivals)
            op_epoch = float(op[-1])
            services = service_rng.exponential(1.0 / params.service_rate, stop - start)
            op, service_total, running_max = _operational_departures(
                op, services, service_total, running_max
            )
            departures = trajectory.real_time(op)
            if row >= 0:
                np.subtract(departures, arrivals, out=sojourns[start:stop])
        if row >= 0:
            # Over the whole batch, so the sum is the one the whole-array run takes.
            batch_means[row] = sojourns.mean()
            # The running totals give the batch's gap and service sums.
            window = epoch - window_start
            service_mean = (service_total - service_start) / size
            controls[row] = window / size, service_mean, (op_epoch - op_window_start) / window
    r, v = params.retrieval_rate, params.disruption_rate
    known = np.array([1.0 / lam, 1.0 / params.service_rate, r / (r + v)])
    mean_wait, half_width = _controlled_mean(batch_means, controls, known)
    return SimEstimate(
        mean_wait=mean_wait,
        half_width=half_width,
        samples=_BATCH_COUNT * batch_size,
    )
