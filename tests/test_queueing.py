import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msrcpspr import queueing
from msrcpspr.queueing import (
    _BATCH_COUNT,
    _CHUNK,
    _CONTROL_COUNT,
    _T_QUANTILE,
    _WARMUP_FRACTION,
    InstabilityError,
    QueueOperatingPoint,
    ReliabilityParams,
    SimEstimate,
    _Trajectory,
    _clock_rank,
    _controlled_mean,
    _operational_departures,
    critical_arrival_rate,
    simulate_queue,
    waiting_time,
)


def point(lam, mu, upsilon, r):
    return QueueOperatingPoint(lam, ReliabilityParams(upsilon, r, mu))


class TestWaitingTime:
    def test_hand_value(self):
        # numerator (0.5+0.5)^2 + 2*0.5 = 2, denominator 1*(1 - 0.25 - 0.25) = 0.5
        assert waiting_time(point(0.5, 2.0, 0.5, 0.5)) == pytest.approx(4.0, abs=1e-12)

    def test_reduces_to_mm1_when_disruption_vanishes(self):
        w = waiting_time(point(1.0, 2.0, 1e-12, 0.5))
        assert abs(w - 1.0) < 1e-9
        w = waiting_time(point(0.5, 2.0, 1e-12, 0.7))
        assert abs(w - 1.0 / 1.5) < 1e-9

    def test_gap_to_mm1_shrinks_with_disruption(self):
        gaps = [
            abs(waiting_time(point(1.0, 2.0, upsilon, 0.5)) - 1.0)
            for upsilon in (1e-6, 1e-9)
        ]
        assert gaps[0] > gaps[1]
        assert gaps[1] < 1e-6

    def test_critical_point_raises(self):
        # 0.5 * 2 / (0.5 + 0.5) = 1.0 is exactly critical
        with pytest.raises(InstabilityError) as err:
            waiting_time(point(1.0, 2.0, 0.5, 0.5))
        assert err.value.critical_rate == pytest.approx(1.0)

    def test_negative_arrival_rate_rejected(self):
        with pytest.raises(ValueError):
            waiting_time(point(-0.1, 2.0, 0.5, 0.5))

    def test_divergence_near_critical(self):
        params = ReliabilityParams(0.5, 0.5, 2.0)
        crit = critical_arrival_rate(params)
        previous = 0.0
        for frac in (0.9, 0.99, 0.999, 0.9999):
            w = waiting_time(QueueOperatingPoint(frac * crit, params))
            assert w > previous
            previous = w
        assert previous > 1e3

    def test_monotonicity_over_random_stable_points(self):
        rng = np.random.default_rng(2024)
        bump = 1e-6
        for _ in range(300):
            mu = rng.uniform(0.5, 15.0)
            upsilon = rng.uniform(0.01, 5.0)
            r = rng.uniform(0.05, 5.0)
            crit = critical_arrival_rate(ReliabilityParams(upsilon, r, mu))
            lam = rng.uniform(0.05, 0.9) * crit
            w = waiting_time(point(lam, mu, upsilon, r))
            assert waiting_time(point(lam * (1 + bump), mu, upsilon, r)) > w
            assert waiting_time(point(lam, mu, upsilon * (1 + bump), r)) > w
            assert waiting_time(point(lam, mu, upsilon, r * (1 + bump))) < w
            assert waiting_time(point(lam, mu * (1 + bump), upsilon, r)) < w


class TestStability:
    # Rounding puts critical_arrival_rate on either side of the exact
    # test; is_stable and waiting_time decide by the same denominator.
    def test_rate_just_above_critical_in_floats_is_unstable(self):
        p = point(1.0, 4.5, 0.7, 0.2)
        assert p.arrival_rate < critical_arrival_rate(p.params)
        assert not p.is_stable()
        with pytest.raises(InstabilityError):
            waiting_time(p)
        with pytest.raises(InstabilityError):
            simulate_queue(p, 100.0, 0)

    def test_nan_rate_is_unstable_and_has_no_wait(self):
        # NaN makes the denominator NaN: not stable, so waiting_time must
        # raise as its docstring promises instead of returning NaN.
        p = point(1.0, 2.0, math.nan, 0.5)
        assert not p.is_stable()
        with pytest.raises(InstabilityError):
            waiting_time(p)

    def test_rate_at_critical_in_floats_is_stable(self):
        p = point(1.0, 1.5, 0.1, 0.2)
        assert not p.arrival_rate < critical_arrival_rate(p.params)
        assert p.is_stable()
        assert 0 < waiting_time(p) < np.inf

    @settings(max_examples=300, deadline=None)
    @given(
        lam=st.integers(0, 30),
        upsilon=st.floats(0.01, 5.0),
        r=st.floats(0.01, 5.0),
        mu=st.floats(0.1, 20.0),
    )
    def test_waiting_time_raises_exactly_when_unstable(self, lam, upsilon, r, mu):
        p = point(float(lam), mu, upsilon, r)
        try:
            waiting_time(p)
        except InstabilityError:
            assert not p.is_stable()
        else:
            assert p.is_stable()
        # Stable counts form a prefix: one more arrival is never more stable.
        assert p.is_stable() or not point(float(lam + 1), mu, upsilon, r).is_stable()

    @settings(max_examples=300, deadline=None)
    @given(
        upsilon=st.floats(0.01, 5.0),
        r=st.floats(0.01, 5.0),
        mu=st.floats(0.1, 20.0),
    )
    def test_waiting_time_never_falls_over_stable_counts(self, upsilon, r, mu):
        # The solver raises weights and heads incrementally as counts rise,
        # which needs the wait at integer rates to be nondecreasing.
        previous = -np.inf
        for lam in range(60):
            p = point(float(lam), mu, upsilon, r)
            if not p.is_stable():
                break
            wait = waiting_time(p)
            assert wait >= previous
            previous = wait


class TestCriticalArrivalRate:
    def test_hand_values(self):
        assert critical_arrival_rate(ReliabilityParams(0.5, 0.5, 2.0)) == pytest.approx(1.0)
        assert critical_arrival_rate(ReliabilityParams(1e-15, 0.5, 2.0)) == pytest.approx(2.0)
        assert critical_arrival_rate(ReliabilityParams(0.5, 0.7, 2.0)) == pytest.approx(7.0 / 6.0)

    def test_threshold_is_sharp(self):
        params = ReliabilityParams(0.7, 0.3, 4.0)
        crit = critical_arrival_rate(params)
        assert waiting_time(QueueOperatingPoint(crit * (1 - 1e-9), params)) > 0
        with pytest.raises(InstabilityError):
            waiting_time(QueueOperatingPoint(crit, params))


def _ctmc_mean_sojourn(lam, mu, upsilon, r, levels=800):
    """Independent oracle: truncated generator of the breakdown queue.

    States are (queue length, up/down); the stationary distribution gives
    the mean number in system and, via Little's law, the mean sojourn.
    """
    size = 2 * (levels + 1)

    def idx(n, up):
        return 2 * n + (0 if up else 1)

    generator = np.zeros((size, size))
    for n in range(levels + 1):
        up, down = idx(n, True), idx(n, False)
        if n < levels:
            generator[up, idx(n + 1, True)] += lam
            generator[down, idx(n + 1, False)] += lam
        if n >= 1:
            generator[up, idx(n - 1, True)] += mu
        generator[up, down] += upsilon
        generator[down, up] += r
    np.fill_diagonal(generator, 0.0)
    np.fill_diagonal(generator, -generator.sum(axis=1))
    # pi @ Q = 0 with sum(pi) = 1
    a = np.vstack([generator.T, np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    lengths = np.repeat(np.arange(levels + 1), 2)
    return float((pi * lengths).sum()) / lam


@pytest.mark.parametrize(
    "lam,mu,upsilon,r",
    [
        (0.5, 2.0, 0.5, 0.5),
        (1.2, 5.0, 0.3, 0.8),
        (0.7, 3.0, 1.5, 0.6),
        (2.0, 9.0, 0.2, 1.1),
    ],
)
def test_formula_matches_ctmc_oracle(lam, mu, upsilon, r):
    assert QueueOperatingPoint(lam, ReliabilityParams(upsilon, r, mu)).is_stable()
    oracle = _ctmc_mean_sojourn(lam, mu, upsilon, r)
    assert waiting_time(point(lam, mu, upsilon, r)) == pytest.approx(oracle, rel=1e-6)


def _reference_departures(arrivals, services, up_starts, up_lengths, op_offsets):
    """Plain per-customer re-implementation used to cross-check the
    vectorized recursion on identical input sequences."""
    op_ends = op_offsets + up_lengths

    def to_op(t):
        i = np.searchsorted(up_starts, t, side="right") - 1
        return op_offsets[i] + min(t - up_starts[i], up_lengths[i])

    def from_op(v):
        i = np.searchsorted(op_ends, v, side="left")
        return up_starts[i] + (v - op_offsets[i])

    departures = []
    free_at = 0.0
    for arrival, service in zip(arrivals, services):
        begin = max(to_op(arrival), free_at)
        free_at = begin + service
        departures.append(from_op(free_at))
    return np.array(departures)


class _FixedTrajectory(_Trajectory):
    """A trajectory preset to the up periods given, the last of which must
    outlast every customer of the run: drawing more periods fails.  It
    records how many periods it holds as each piece starts."""

    def __init__(self, up_starts, up_lengths, op_offsets):
        super().__init__(None, 1.0, 1.0)
        self._up_starts, self._up_lengths, self._op_offsets = up_starts, up_lengths, op_offsets
        self._next_start = up_starts[-1] + up_lengths[-1]
        self._next_offset = op_offsets[-1] + up_lengths[-1]
        self.held = []

    def up_time(self, arrivals):
        self.held.append(self._up_starts.size)
        return super().up_time(arrivals)

    def _extend(self):
        raise AssertionError("the preset up periods do not cover the run")


def _piece_departures(trajectory, arrivals, services, carry=(0.0, -math.inf)):
    """Departures of one piece of a run, the clock mappings and the Lindley
    recursion chained as ``simulate_queue`` chains them, and the carry
    (service total, running maximum) that continues the run."""
    op = trajectory.up_time(arrivals)
    op, service_total, running_max = _operational_departures(op, services, *carry)
    return trajectory.real_time(op), (service_total, running_max)


def _departure_times(arrivals, services, up_starts, up_lengths, op_offsets):
    """Departures of a whole run mapped in one piece."""
    trajectory = _FixedTrajectory(up_starts, up_lengths, op_offsets)
    return _piece_departures(trajectory, arrivals, services)[0]


def _searchsorted_departures(arrivals, services, up_starts, up_lengths, op_offsets):
    """The clock mappings as one binary search per customer: the formulation
    the merge-ranks in ``_departure_times`` must reproduce bit for bit."""
    idx = np.searchsorted(up_starts, arrivals, side="right") - 1
    op_arrivals = op_offsets[idx] + np.minimum(arrivals - up_starts[idx], up_lengths[idx])
    service_cum = np.cumsum(services)
    op_departures = service_cum + np.maximum.accumulate(op_arrivals - (service_cum - services))
    op_ends = op_offsets + up_lengths
    j = np.searchsorted(op_ends, op_departures, side="left")
    return up_starts[j] + (op_departures - op_offsets[j])


def _environment_from(ups, downs):
    up_lengths = np.asarray(ups, dtype=float)
    cycle = up_lengths + np.asarray(downs, dtype=float)
    up_starts = np.concatenate(([0.0], np.cumsum(cycle)[:-1]))
    op_offsets = np.concatenate(([0.0], np.cumsum(up_lengths)[:-1]))
    return up_starts, up_lengths, op_offsets


def _whole_array_simulate(point, horizon, seed):
    """The breakdown-queue run with every customer in memory: one array per
    draw, the clock mappings by binary search, and the batch means and
    their controls over reshaped arrays.  ``simulate_queue`` streams the
    same run and must give the same estimate, or the same error, bit for
    bit."""
    params = point.params
    rng = np.random.default_rng(seed)
    blocks, total = [], 0.0
    while total <= horizon:
        blocks.append(rng.exponential(1.0 / point.arrival_rate, _CHUNK))
        total += float(blocks[-1].sum())
    epochs = np.cumsum(np.concatenate(blocks))
    arrivals = epochs[: np.searchsorted(epochs, horizon, side="right")]
    if arrivals.size == 0:
        raise ValueError("no arrivals within the horizon; increase it")
    services = rng.exponential(1.0 / params.service_rate, arrivals.size)
    ups, downs, up_total = [], [], 0.0
    while up_total <= horizon + float(services.sum()) + 1.0:
        ups.append(rng.exponential(1.0 / params.disruption_rate, _CHUNK))
        downs.append(rng.exponential(1.0 / params.retrieval_rate, _CHUNK))
        up_total += float(ups[-1].sum())
    environment = _environment_from(np.concatenate(ups), np.concatenate(downs))
    sojourns = _searchsorted_departures(arrivals, services, *environment) - arrivals
    warmup = int(_WARMUP_FRACTION * sojourns.size)
    kept = sojourns.size - warmup
    if kept < _BATCH_COUNT:
        raise ValueError(f"horizon too short: {kept} post-warmup samples, need >= {_BATCH_COUNT}")
    batch_size = kept // _BATCH_COUNT
    rows = sojourns[warmup : warmup + _BATCH_COUNT * batch_size]
    batch_means = rows.reshape(_BATCH_COUNT, batch_size).mean(axis=1)
    # Each batch's arrival window runs from the arrival before it (time 0
    # for the first customer) to its last arrival; the gap and service
    # sums of a batch are differences of running totals.
    cuts = warmup + batch_size * np.arange(_BATCH_COUNT + 1)
    bounds = np.concatenate(([0.0], arrivals))[cuts]
    service_totals = np.concatenate(([0.0], np.cumsum(services)))[cuts]
    up_starts, up_lengths, op_offsets = environment
    period = np.searchsorted(up_starts, bounds, side="right") - 1
    op_bounds = np.minimum(bounds - up_starts[period], up_lengths[period]) + op_offsets[period]
    windows = np.diff(bounds)
    controls = np.column_stack(
        (windows / batch_size, np.diff(service_totals) / batch_size, np.diff(op_bounds) / windows)
    )
    r, v = params.retrieval_rate, params.disruption_rate
    known = np.array([1.0 / point.arrival_rate, 1.0 / params.service_rate, r / (r + v)])
    mean_wait, half_width = _controlled_mean(batch_means, controls, known)
    return SimEstimate(mean_wait, half_width, _BATCH_COUNT * batch_size)


def _outcome(simulate, point, horizon, seed):
    try:
        return simulate(point, horizon, seed)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def _traced_peak(pt, horizon, seed):
    """Peak of the memory Python allocators hand out during one run."""
    tracemalloc.start()
    try:
        simulate_queue(pt, horizon, seed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _oracle_cases(count):
    """Seeded (point, horizon, seed) cases in four kinds, in turn: horizons
    around the 30 post-warm-up samples the estimate needs, an arrival rate
    of 1e-3, breakdowns far more frequent than services, and up to five
    arrival blocks.  A case whose breakdown trajectory would be long is
    drawn again, so the cases stay small."""
    rng = np.random.default_rng(2026)
    cases = []
    while len(cases) < count:
        kind = len(cases) % 4
        mu = float(rng.uniform(0.5, 20.0))
        upsilon, r = (float(x) * (40.0 if kind == 2 else 1.0) for x in rng.uniform(0.05, 3.0, 2))
        lam = 1e-3 if kind == 1 else r * mu / (r + upsilon) * float(rng.uniform(0.05, 0.95))
        customers = float(rng.uniform(*{0: (30, 40), 1: (40, 400)}.get(kind, (40, 8e4))))
        horizon = customers / lam
        if horizon * (upsilon + lam) <= 4e5:
            cases.append((point(lam, mu, upsilon, r), horizon, int(rng.integers(1 << 31))))
    return cases


def _cut_run(trajectory, arrivals, services, bounds):
    """Departures of a run fed to one trajectory in the pieces between
    consecutive ``bounds``, the carry passed from piece to piece; after
    each piece the trajectory drops the periods the run has left behind."""
    carry = (0.0, -math.inf)
    pieces = []
    for lo, hi in zip(bounds, bounds[1:]):
        departures, carry = _piece_departures(trajectory, arrivals[lo:hi], services[lo:hi], carry)
        pieces.append(departures)
    return np.concatenate(pieces)


@st.composite
def _tied_queues(draw):
    """Small queues on a half-unit lattice, so that arrivals fall exactly on
    up-period starts and departures exactly on up-period ends."""
    periods = draw(st.integers(1, 6))
    half = st.integers(1, 6).map(lambda k: k / 2)
    ups = draw(st.lists(half, min_size=periods, max_size=periods))
    downs = draw(st.lists(half, min_size=periods, max_size=periods))
    ups[-1] = 1e3  # the last up period outlasts every departure
    up_starts, up_lengths, op_offsets = _environment_from(ups, downs)
    lattice = st.integers(0, int(2 * up_starts[-1]) + 4).map(lambda k: k / 2)
    points = st.one_of(st.sampled_from(up_starts.tolist()), lattice)
    n = draw(st.integers(1, 12))
    arrivals = np.sort(np.array(draw(st.lists(points, min_size=n, max_size=n))))
    services = np.array(draw(st.lists(st.integers(0, 4).map(lambda k: k / 2), min_size=n, max_size=n)))
    return arrivals, services, up_starts, up_lengths, op_offsets


class TestSimulation:
    def test_hand_trace(self):
        # Up on [0, 1), down on [1, 3), up afterwards.
        up_starts = np.array([0.0, 3.0])
        up_lengths = np.array([1.0, 100.0])
        op_offsets = np.array([0.0, 1.0])
        arrivals = np.array([0.0, 1.0])
        services = np.array([2.0, 2.0])
        departures = _departure_times(arrivals, services, up_starts, up_lengths, op_offsets)
        # First job: 1 unit before the breakdown, resumes at 3, done at 4.
        # Second job: queued behind it, served on [4, 6).
        assert departures == pytest.approx([4.0, 6.0])
        reference = _searchsorted_departures(arrivals, services, up_starts, up_lengths, op_offsets)
        assert np.array_equal(departures, reference)

    def test_bit_identical_to_searchsorted_mapping(self):
        rng = np.random.default_rng(11)
        trimmed = 0
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            arrivals = np.cumsum(rng.exponential(rng.uniform(0.2, 2.0), n))
            services = rng.exponential(rng.uniform(0.1, 1.0), n)
            periods = int(rng.integers(1, 400))
            ups = rng.exponential(rng.uniform(0.5, 5.0), periods)
            ups[-1] += arrivals[-1] + services.sum()
            case = (arrivals, services, *_environment_from(ups, rng.exponential(0.8, periods)))
            want = _searchsorted_departures(*case)
            assert np.array_equal(_departure_times(*case), want)
            bounds = np.unique([0, n, *rng.integers(0, n, 8)]).tolist()
            trajectory = _FixedTrajectory(*case[2:])
            assert np.array_equal(_cut_run(trajectory, arrivals, services, bounds), want)
            trimmed += min(trajectory.held) < periods
        # Most cut runs mapped a piece after the trajectory had dropped periods.
        assert trimmed >= 30

    @settings(max_examples=300, deadline=None)
    @given(_tied_queues())
    @example((  # arrival on an up start, departure on an up end, zero service
        np.array([0.0, 1.0, 3.0, 3.0]), np.array([1.0, 0.0, 0.0, 2.0]),
        *_environment_from([1.0, 1e3], [2.0, 1.0]),
    ))
    @example((  # a single up period
        np.array([0.0, 0.5, 0.5]), np.array([0.0, 1.5, 0.5]), *_environment_from([1e3], [1.0]),
    ))
    def test_bit_identical_under_ties(self, case):
        assert np.array_equal(_departure_times(*case), _searchsorted_departures(*case))
        # The up-time clock of the last arrival, read by one binary search.
        arrivals, _, up_starts, up_lengths, op_offsets = case
        t = arrivals[-1]
        i = int(np.searchsorted(up_starts, t, "right")) - 1
        want = op_offsets[i] + min(t - up_starts[i], up_lengths[i])
        assert _FixedTrajectory(up_starts, up_lengths, op_offsets).up_time(arrivals)[-1] == want

    @settings(max_examples=300, deadline=None)
    @given(_tied_queues(), st.data())
    def test_cut_runs_carry_to_the_same_departures(self, case, data):
        arrivals, services, *environment = case
        n = arrivals.size
        bounds = [0, *sorted(set(data.draw(st.lists(st.integers(1, n), max_size=n))) - {n}), n]
        whole = _departure_times(*case)
        cut = _cut_run(_FixedTrajectory(*environment), arrivals, services, bounds)
        assert np.array_equal(cut, whole)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=12),
        st.lists(st.integers(-2, 10), max_size=12),
        st.sampled_from(["left", "right"]),
    )
    def test_clock_rank_is_searchsorted(self, keys, boundaries, side):
        keys, boundaries = np.sort(np.array(keys, float)), np.sort(np.array(boundaries, float))
        assert np.array_equal(_clock_rank(keys, boundaries, side),
                              np.searchsorted(boundaries, keys, side=side))

    def test_streamed_run_equals_whole_array_run(self, monkeypatch):
        """The piece size only sets the working set: pieces of 97 cut
        inside batches and the warm-up, pieces of 1 after every customer
        (on the cases of at most 400 customers expected), and every
        outcome stays the whole-array run's."""
        cases = _oracle_cases(40)
        wanted = [_outcome(_whole_array_simulate, *case) for case in cases]
        assert any(isinstance(o, str) and "too short" in o for o in wanted)
        assert sum(isinstance(o, SimEstimate) for o in wanted) >= 25
        for piece, most in ((queueing._PIECE, math.inf), (97, math.inf), (1, 400)):
            monkeypatch.setattr(queueing, "_PIECE", piece)
            for (pt, horizon, seed), want in zip(cases, wanted):
                if horizon * pt.arrival_rate <= most:
                    assert _outcome(simulate_queue, pt, horizon, seed) == want, (piece, pt, horizon)

    def test_trajectory_window_paths(self, monkeypatch):
        """The trajectory draws blocks as the run reaches them, drops periods
        across block boundaries and grows while mapping departures back,
        and the run still equals the whole-array run bit for bit."""
        runs = []

        class Recording(_Trajectory):
            def __init__(self, *args):
                super().__init__(*args)
                self.blocks = self.boundary_trims = self.departure_blocks = 0
                runs.append(self)

            def _extend(self):
                super()._extend()
                self.blocks += 1

            def dropped(self):
                return self.blocks * _CHUNK - self._up_starts.size

            def real_time(self, op):
                blocks, dropped = self.blocks, self.dropped()
                departures = super().real_time(op)
                self.departure_blocks += self.blocks - blocks
                self.boundary_trims += self.dropped() // _CHUNK > dropped // _CHUNK
                return departures

        monkeypatch.setattr(queueing, "_Trajectory", Recording)
        # With breakdowns and repairs at rate 40, a block of 16,384 periods
        # spans about 800 time units, so a run over 3,000 draws four; at 98%
        # of the critical rate the backlog reaches past the drawn periods.
        for pt, seed in ((point(2.0, 10.0, 40.0, 40.0), 0), (point(4.9, 10.0, 40.0, 40.0), 2)):
            assert simulate_queue(pt, 3000.0, seed) == _whole_array_simulate(pt, 3000.0, seed)
        heavy = runs[-1]
        assert heavy.blocks >= 3
        assert heavy.boundary_trims >= 1
        assert heavy.departure_blocks >= 1

    def test_no_accumulate_writes_over_its_input(self):
        # numpy holds the GIL for the whole of an accumulate whose ``out=``
        # is its own input, so the pooled points of ``simulate`` queue
        # behind each other there.  On 180k-element arrays, two threads
        # against two serial calls: ``np.cumsum(a, out=a)`` 1.05x,
        # ``np.maximum.accumulate(a, out=a)`` 1.03x, in-place int64 cumsum
        # 1.04x; the same calls into fresh arrays 1.94-2.01x.
        def aliased(source):
            return [
                ast.unparse(node)
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("cumsum", "accumulate")
                and node.args
                and any(
                    kw.arg == "out" and ast.dump(kw.value) == ast.dump(node.args[0])
                    for kw in node.keywords
                )
            ]

        assert aliased("np.cumsum(block, out=block)\nnp.maximum.accumulate(op, out=op)") == [
            "np.cumsum(block, out=block)", "np.maximum.accumulate(op, out=op)"
        ]
        assert aliased("np.cumsum(block, out=spare)\nnp.maximum.accumulate(op)") == []
        assert aliased(inspect.getsource(queueing)) == []

    def test_peak_memory_at_the_worst_j10_point(self):
        # j10's heaviest operating point: 6 M customers at the default
        # horizon.  Drawing the trajectory whole peaked at 44 MiB, streaming
        # whole batches of 180k customers at 9.62 MiB, and pieces of at
        # most _PIECE customers with one batch-sized buffer at 4.03 MiB.
        assert _traced_peak(point(6.0, 14.0, 0.5, 0.5), 1e6, 7) < 6 << 20

    @pytest.mark.slow
    def test_peak_memory_stays_bounded_at_ten_times_the_horizon(self):
        # 60 M customers, about 5 s: 15.7 MiB, of which 13.7 MiB is the one
        # buffer of 1.8 M sojourns.  Streaming whole batches peaked at
        # 85.6 MiB here, nine times its figure at the default horizon.
        assert _traced_peak(point(6.0, 14.0, 0.5, 0.5), 1e7, 7) < 20 << 20

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            arrivals = np.cumsum(rng.exponential(1.0, n))
            services = rng.exponential(0.7, n)
            pieces = int(rng.integers(1, 30))
            ups = rng.exponential(1.5, pieces + 200)
            downs = rng.exponential(0.8, pieces + 200)
            up_starts = np.concatenate(([0.0], np.cumsum(ups + downs)[:-1]))
            op_offsets = np.concatenate(([0.0], np.cumsum(ups)[:-1]))
            got = _departure_times(arrivals, services, up_starts, ups, op_offsets)
            want = _reference_departures(arrivals, services, up_starts, ups, op_offsets)
            assert got == pytest.approx(want, abs=1e-9)

    def test_recovers_classic_mm1(self):
        est = simulate_queue(point(0.5, 2.0, 1e-9, 0.5), horizon=1e6, seed=11)
        assert est.mean_wait == pytest.approx(1.0 / 1.5, rel=0.05)

    def test_agrees_with_formula_under_breakdowns(self):
        pt = point(0.5, 2.0, 0.5, 0.5)
        est = simulate_queue(pt, horizon=1e6, seed=23)
        analytic = waiting_time(pt)
        assert est.mean_wait == pytest.approx(analytic, rel=0.05)
        assert abs(est.mean_wait - analytic) < 4 * est.half_width

    def test_deterministic_per_seed(self):
        pt = point(0.8, 4.0, 0.6, 0.9)
        first = simulate_queue(pt, horizon=5e4, seed=99)
        second = simulate_queue(pt, horizon=5e4, seed=99)
        assert first == second
        assert isinstance(first, SimEstimate)
        third = simulate_queue(pt, horizon=5e4, seed=100)
        assert third != first

    def test_unstable_point_rejected(self):
        with pytest.raises(InstabilityError):
            simulate_queue(point(1.5, 2.0, 0.5, 0.5), horizon=1e4, seed=1)

    def test_estimate_invariants(self):
        est = simulate_queue(point(1.0, 6.0, 0.4, 0.8), horizon=2e4, seed=5)
        assert est.half_width >= 0
        assert est.samples > 0
        assert est.mean_wait > 0

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            simulate_queue(point(0.5, 2.0, 0.5, 0.5), horizon=0.0, seed=1)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, horizon):
        # An infinite horizon would draw arrivals without end.
        with pytest.raises(ValueError, match=f"horizon must be finite and > 0, got {horizon}"):
            simulate_queue(point(0.5, 2.0, 0.5, 0.5), horizon=horizon, seed=1)

    def test_t_quantile_is_scipy_value(self):
        stats = pytest.importorskip("scipy.stats")
        assert _T_QUANTILE == stats.t.ppf(0.975, _BATCH_COUNT - 1 - _CONTROL_COUNT)

    def test_controlled_mean_is_the_regression_intercept(self):
        # The estimate is the intercept of an ordinary least-squares fit of
        # the batch means on the controls less their known means, and the
        # half-width the intercept's standard error times Student's t.
        rng = np.random.default_rng(31)
        for _ in range(20):
            controls = rng.normal(size=(_BATCH_COUNT, _CONTROL_COUNT)) * rng.uniform(1e-3, 1.0, 3)
            known = rng.normal(size=_CONTROL_COUNT) * 0.1
            noise = rng.normal(0, 0.1, _BATCH_COUNT)
            means = 2.0 + controls @ rng.normal(size=_CONTROL_COUNT) + noise
            design = np.column_stack((np.ones(_BATCH_COUNT), controls - known))
            coef, residual, *_ = np.linalg.lstsq(design, means, rcond=None)
            dof = _BATCH_COUNT - 1 - _CONTROL_COUNT
            se = math.sqrt(residual[0] / dof * np.linalg.inv(design.T @ design)[0, 0])
            estimate, half_width = _controlled_mean(means, controls, known)
            assert estimate == pytest.approx(coef[0], rel=1e-9)
            assert half_width == pytest.approx(_T_QUANTILE * se, rel=1e-9)

    def test_controlled_mean_ignores_a_constant_control(self):
        # A server that never breaks down has an up fraction of exactly 1 in
        # every batch: that control gets no weight and the estimate is the
        # one the other two give.
        rng = np.random.default_rng(32)
        controls = np.column_stack((rng.normal(size=(_BATCH_COUNT, 2)), np.ones(_BATCH_COUNT)))
        means = 1.0 + controls[:, 0] + rng.normal(0, 0.1, _BATCH_COUNT)
        known = np.array([0.0, 0.0, 1.0 - 1e-9])
        design = np.column_stack((np.ones(_BATCH_COUNT), controls[:, :2]))
        coef = np.linalg.lstsq(design, means, rcond=None)[0]
        estimate, half_width = _controlled_mean(means, controls, known)
        assert estimate == pytest.approx(coef[0], rel=1e-9)
        assert math.isfinite(half_width) and half_width > 0
