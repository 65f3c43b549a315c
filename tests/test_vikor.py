import math

import numpy as np
import pytest

from msrcpspr.vikor import rank, ranking_csv, select_compromise

# Published seven-point front used as the golden ranking fixture.
SEVEN_POINTS = [
    (48.86, 7080000.0),
    (52.35, 6740000.0),
    (56.89, 6240000.0),
    (63.71, 6190000.0),
    (72.11, 5760000.0),
    (73.86, 5540000.0),
    (74.11, 4960000.0),
]

# Frozen from an exact-fraction spreadsheet-style recomputation of the
# S/R/Q formulas (weights 1/2, v = 1/2), performed before implementation.
GOLDEN_S = [
    0.5,
    0.4889202316458061,
    0.4608966934429292,
    0.5841537455632355,
    0.6490752848869793,
    0.6318419577806837,
    0.5,
]
GOLDEN_R = [
    0.5,
    0.419811320754717,
    0.3018867924528302,
    0.29405940594059404,
    0.4603960396039604,
    0.49504950495049505,
    0.5,
]
GOLDEN_Q = [
    0.6038994559822102,
    0.37977109247535906,
    0.01900399129172714,
    0.3275001985466386,
    0.9038461538461539,
    0.9421909507023969,
    0.6038994559822102,
]
GOLDEN_ORDER = (2, 3, 1, 0, 6, 4, 5)


class TestGoldenRanking:
    def test_scores_match_hand_recomputation(self):
        ranking = rank(SEVEN_POINTS, weights=(0.5, 0.5), v=0.5)
        assert ranking.s == pytest.approx(GOLDEN_S, abs=1e-12)
        assert ranking.r == pytest.approx(GOLDEN_R, abs=1e-12)
        assert ranking.q == pytest.approx(GOLDEN_Q, abs=1e-12)
        assert ranking.order == GOLDEN_ORDER

    def test_all_scores_within_unit_interval(self):
        ranking = rank(SEVEN_POINTS)
        for value in (*ranking.s, *ranking.r, *ranking.q):
            assert -1e-12 <= value <= 1 + 1e-12

    def test_compromise_is_single_best(self):
        ranking = rank(SEVEN_POINTS)
        assert ranking.compromise == (2,)
        assert select_compromise(ranking) == (2,)


class TestProperties:
    def test_two_point_symmetry(self):
        ranking = rank([(10.0, 900.0), (20.0, 100.0)], weights=(0.5, 0.5), v=0.5)
        assert ranking.s == pytest.approx((0.5, 0.5))
        assert ranking.r == pytest.approx((0.5, 0.5))
        assert ranking.q[0] == pytest.approx(ranking.q[1])

    def test_ideal_point_scores_zero(self):
        ranking = rank([(10.0, 100.0), (20.0, 200.0), (15.0, 300.0)])
        assert ranking.s[0] == 0.0
        assert ranking.r[0] == 0.0
        assert ranking.q[0] == 0.0
        assert ranking.order[0] == 0

    def test_affine_scale_invariance(self):
        base = rank(SEVEN_POINTS)
        for factor, offset, criterion in ((1000.0, 0.0, 0), (1000.0, 0.0, 1), (3.5, 17.0, 0)):
            scaled_points = [
                (m * factor + offset, c) if criterion == 0 else (m, c * factor + offset)
                for m, c in SEVEN_POINTS
            ]
            scaled = rank(scaled_points)
            assert scaled.order == base.order
            assert scaled.q == pytest.approx(base.q, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        base = rank(SEVEN_POINTS)
        for _ in range(10):
            perm = rng.permutation(len(SEVEN_POINTS))
            shuffled = rank([SEVEN_POINTS[i] for i in perm])
            for new_idx, old_idx in enumerate(perm):
                assert shuffled.q[new_idx] == pytest.approx(base.q[old_idx], abs=1e-12)

    def test_v_extremes_reduce_to_s_and_r_orders(self):
        by_s = rank(SEVEN_POINTS, v=1.0)
        assert [by_s.s[j] for j in by_s.order] == sorted(by_s.s)
        by_r = rank(SEVEN_POINTS, v=0.0)
        assert [by_r.r[j] for j in by_r.order] == sorted(by_r.r)

    def test_worsening_never_improves_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(200)[:200]:
            m = int(rng.integers(3, 8))
            pts = [(float(rng.uniform(10, 100)), float(rng.uniform(1000, 9000))) for _ in range(m)]
            if len({p[0] for p in pts}) < 2 or len({p[1] for p in pts}) < 2:
                continue
            base = rank(pts)
            j = int(rng.integers(m))
            criterion = int(rng.integers(2))
            delta = float(rng.uniform(0.1, 40.0 if criterion == 0 else 2500.0))
            worse = list(pts)
            worse[j] = (
                (pts[j][0] + delta, pts[j][1]) if criterion == 0 else (pts[j][0], pts[j][1] + delta)
            )
            bumped = rank(worse)
            assert bumped.order.index(j) >= base.order.index(j)


class TestDegenerateInputs:
    def test_degenerate_criterion_warns_and_zeroes(self):
        ranking = rank([(50.0, 100.0), (50.0, 200.0), (50.0, 300.0)])
        assert any("degenerate" in w for w in ranking.warnings)
        # selection falls back to the remaining criterion
        assert ranking.order[0] == 0
        assert ranking.alternatives[ranking.order[0]][1] == 100.0

    def test_single_alternative(self):
        ranking = rank([(50.0, 100.0)])
        assert ranking.order == (0,)
        assert ranking.compromise == (0,)

    def test_single_alternative_warns_nothing(self):
        # One alternative compares nothing, so no criterion is degenerate.
        assert rank([(50.0, 100.0)]).warnings == ()

    def test_two_point_trade_off_keeps_both(self):
        # Symmetric trade-off: Q gap 0 < DQ = 1, advantage fails, both stay.
        ranking = rank([(10.0, 900.0), (20.0, 100.0)])
        assert set(ranking.compromise) == {0, 1}

    def test_two_point_dominant_keeps_one(self):
        # One alternative best in both criteria: Q = (0, 1), gap 1 >= DQ = 1.
        ranking = rank([(10.0, 100.0), (20.0, 900.0)])
        assert ranking.compromise == (0,)


class TestValidation:
    def test_weights_checked(self):
        with pytest.raises(ValueError):
            rank(SEVEN_POINTS, weights=(0.7, 0.7))
        with pytest.raises(ValueError):
            rank(SEVEN_POINTS, weights=(-0.5, 1.5))

    @pytest.mark.parametrize("weights", [(math.nan, math.nan), (0.5, math.nan)])
    def test_nan_weights_checked(self, weights):
        with pytest.raises(ValueError, match="weights must be .*nan"):
            rank(SEVEN_POINTS, weights=weights)

    def test_v_checked(self):
        with pytest.raises(ValueError):
            rank(SEVEN_POINTS, v=1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank([])


class TestCsv:
    def test_header_and_flags(self):
        ranking = rank(SEVEN_POINTS)
        text = ranking_csv(ranking)
        lines = text.splitlines()
        assert lines[0] == "rank,makespan,cost,S,R,Q,in_compromise_set"
        assert len(lines) == 8
        assert lines[1].startswith("1,56.89,6240000,")
        assert lines[1].endswith(",1")
        assert all(line.endswith(",0") for line in lines[2:])

    def test_deterministic(self):
        a = ranking_csv(rank(SEVEN_POINTS))
        b = ranking_csv(rank(SEVEN_POINTS))
        assert a == b
