"""Broadcast-channel schedule tests.

Informativeness values are frozen from the defining ratio
(1 - 2q) / (1 - q); schedule formulas are checked against direct
evaluation at small stage indices.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycast.channels import (
    ErasureSchedule,
    FlipSchedule,
    erasure_levels,
    flip_probs,
    informativeness,
    target_informativeness,
)


class TestInformativeness:
    def test_frozen_values(self):
        assert informativeness(0.0) == pytest.approx(1.0)
        assert informativeness(0.5) == pytest.approx(0.0)
        assert informativeness(0.25) == pytest.approx(2.0 / 3.0)
        assert informativeness(0.1) == pytest.approx(8.0 / 9.0)

    def test_inversion_frozen(self):
        # Q_1 = scale under the reciprocal family, inverted by flip_probs
        assert flip_probs(FlipSchedule("reciprocal", scale=8.0 / 9.0), [1])[0] == pytest.approx(0.1)
        assert flip_probs(FlipSchedule("reciprocal"), [1])[0] == 0.0
        assert flip_probs(FlipSchedule("reciprocal"), [10**9])[0] == pytest.approx(0.5)

    @given(q=st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_roundtrip(self, q):
        # the constant family maps q to Q and flip_probs maps it back
        assert flip_probs(FlipSchedule("constant", q=q), [3])[0] == pytest.approx(q, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            informativeness(0.6)


class TestFlipScheduleValidation:
    def test_constant_folds_above_half(self):
        with pytest.warns(UserWarning):
            sched = FlipSchedule("constant", q=0.7)
        assert flip_probs(sched, [1])[0] == pytest.approx(0.3)

    def test_constant_range(self):
        with pytest.raises(ValueError):
            FlipSchedule("constant", q=1.5)
        with pytest.raises(ValueError):
            FlipSchedule("constant", q=-0.1)

    def test_power_exponent_open_interval(self):
        FlipSchedule("power", p=0.4)
        for bad in (0.0, 1.0, 1.3):
            with pytest.raises(ValueError):
                FlipSchedule("power", p=bad)

    def test_log_power_needs_positive_exponent(self):
        FlipSchedule("log_power", p=2.0)
        with pytest.raises(ValueError):
            FlipSchedule("log_power", p=0.0)

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            FlipSchedule("reciprocal", scale=0.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            FlipSchedule("quadratic")


class TestFlipFamilies:
    def test_constant_series(self):
        qs = flip_probs(FlipSchedule("constant", q=0.2), np.arange(1, 6))
        np.testing.assert_allclose(qs, 0.2)

    def test_single_stage_lookup(self):
        assert flip_probs(FlipSchedule("constant", q=0.2), [3])[0] == pytest.approx(0.2)
        with pytest.raises(ValueError):
            flip_probs(FlipSchedule("constant", q=0.2), [0])[0]

    def test_power_informativeness(self):
        sched = FlipSchedule("power", p=0.4)
        target = target_informativeness(sched, np.arange(1, 7))
        # stage k carries k**(p - 1)
        np.testing.assert_allclose(target, np.arange(1.0, 7.0) ** (-0.6), rtol=1e-12)
        assert target[3] == pytest.approx(4.0 ** (-0.6))

    def test_power_probs_invert_informativeness(self):
        sched = FlipSchedule("power", p=0.4)
        ks = np.arange(1, 9)
        qs = flip_probs(sched, ks)
        big_q = target_informativeness(sched, ks)
        np.testing.assert_allclose(qs, (1.0 - big_q) / (2.0 - big_q), rtol=1e-12)

    def test_reciprocal(self):
        sched = FlipSchedule("reciprocal", scale=2.0)
        target = target_informativeness(sched, np.arange(1, 11))
        assert target[0] == pytest.approx(1.0)  # capped at one
        assert target[3] == pytest.approx(0.5)

    def test_log_families_floor_the_index(self):
        # k = 1 would hit log(1) = 0, so both log forms evaluate at k = 2
        lp = FlipSchedule("log_power", p=2.0)
        lg = FlipSchedule("log", scale=1.0)
        t_lp = target_informativeness(lp, np.arange(1, 4))
        t_lg = target_informativeness(lg, np.arange(1, 4))
        assert t_lp[0] == pytest.approx(t_lp[1])
        assert t_lg[0] == pytest.approx(t_lg[1])
        assert t_lp[2] == pytest.approx(min(1.0, 1.0 / (3 * math.log(3) ** 2)))
        assert t_lg[2] == pytest.approx(min(1.0, 1.0 / (3 * math.log(3))))

    def test_stages_are_one_based(self):
        with pytest.raises(ValueError):
            target_informativeness(FlipSchedule("reciprocal"), np.array([0, 1]))

    def test_cap_at_one(self):
        sched = FlipSchedule("reciprocal", scale=100.0)
        ks = np.arange(1, 51)
        target = target_informativeness(sched, ks)
        assert target.max() <= 1.0
        qs = flip_probs(sched, ks)
        assert qs.min() >= 0.0


class TestErasureSchedule:
    def test_constant_levels(self):
        lv0, lv1 = erasure_levels(ErasureSchedule("constant", level=0.3), np.arange(1, 5))
        np.testing.assert_allclose(lv0, 0.3)
        np.testing.assert_allclose(lv1, 0.3)
        assert erasure_levels(ErasureSchedule("constant", level=0.3), [2])[0][0] == pytest.approx(0.3)

    def test_asymmetric_levels(self):
        sched = ErasureSchedule("constant", level=0.2, level_one=0.6)
        lv0, lv1 = erasure_levels(sched, np.arange(1, 4))
        np.testing.assert_allclose(lv0, 0.2)
        np.testing.assert_allclose(lv1, 0.6)

    def test_growing_family_frozen_value(self):
        sched = ErasureSchedule("theorem4", c=1.0, eps=2.0)
        (lv10,), (lv10_one,) = erasure_levels(sched, [10])
        assert lv10 == lv10_one == pytest.approx(10.0 ** (-0.2))
        assert lv10 == pytest.approx(0.6309573444801932, abs=1e-15)
        # (c n)^(-eps/n) exceeds one near the origin and is capped
        assert erasure_levels(sched, [1])[0][0] == pytest.approx(1.0)

    def test_growing_family_approaches_one(self):
        sched = ErasureSchedule("theorem4", c=1.0, eps=2.0)
        lv0, _ = erasure_levels(sched, np.arange(1, 100_001))
        assert lv0[-1] > 0.999
        assert np.all(np.diff(lv0[10:]) >= 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErasureSchedule("constant", level=1.0)
        with pytest.raises(ValueError):
            ErasureSchedule("theorem4", c=1.0, eps=1.0)
        with pytest.raises(ValueError):
            ErasureSchedule("theorem4", c=0.0, eps=2.0)
        with pytest.raises(ValueError):
            ErasureSchedule("constant", level=0.3, c=1.0)
        with pytest.raises(ValueError):
            ErasureSchedule("theorem4", c=1.0, eps=2.0, level=0.5)

