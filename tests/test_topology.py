"""Observation-window and backward-search tests.

The backward-search depth values were frozen by hand: with full memory a
node k can anchor a relay chain of n hops iff n**2 <= k - 1, so the depth
is isqrt(k - 1).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from noisycast.topology import (
    MemorySchedule,
    backward_search_depth,
    chain_success_probability,
    memory_size,
)

FULL = MemorySchedule("full")


class TestMemorySize:
    def test_first_node_sees_nothing(self):
        for sched in (FULL, MemorySchedule("bounded", capacity=3), MemorySchedule("power", sigma=0.5)):
            assert memory_size(sched, 1) == 0

    def test_full(self):
        assert memory_size(FULL, 5) == 4
        assert memory_size(FULL, 1000) == 999

    def test_bounded(self):
        sched = MemorySchedule("bounded", capacity=3)
        assert [memory_size(sched, k) for k in range(1, 7)] == [0, 1, 2, 3, 3, 3]

    def test_power(self):
        sched = MemorySchedule("power", sigma=0.5)
        assert memory_size(sched, 100) == 10
        assert memory_size(sched, 101) == pytest.approx(math.ceil(101**0.5))
        # never more than the number of predecessors
        assert memory_size(sched, 2) == 1

    def test_sporadic(self):
        sched = MemorySchedule("sporadic")
        assert memory_size(sched, 9) == 3
        assert memory_size(sched, 10) == 1
        assert memory_size(sched, 16) == 4
        assert memory_size(sched, 2) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorySchedule("bounded")
        with pytest.raises(ValueError):
            MemorySchedule("bounded", capacity=0)
        with pytest.raises(ValueError):
            MemorySchedule("power", sigma=1.5)
        with pytest.raises(ValueError):
            MemorySchedule("full", capacity=2)
        with pytest.raises(ValueError):
            MemorySchedule("ring")


class TestBackwardSearchDepth:
    def test_frozen_full(self):
        assert backward_search_depth(FULL, 101) == 10
        assert backward_search_depth(FULL, 100) == 9
        assert backward_search_depth(FULL, 2) == 1
        assert backward_search_depth(FULL, 1) == 0

    def test_full_is_isqrt(self):
        for k in (2, 5, 17, 50, 101, 1024, 99_999):
            assert backward_search_depth(FULL, k) == math.isqrt(k - 1)

    def test_frozen_bounded(self):
        sched = MemorySchedule("bounded", capacity=4)
        assert backward_search_depth(sched, 1000) == 4
        # capacity caps the depth however large k grows
        assert backward_search_depth(sched, 10**6) == 4
        assert backward_search_depth(MemorySchedule("bounded", capacity=1), 1000) == 1

    def test_power_sits_between(self):
        sched = MemorySchedule("power", sigma=0.3)
        for k in (100, 1000, 10_000):
            depth = backward_search_depth(sched, k)
            assert 1 <= depth < math.isqrt(k - 1)

    def _naive_depth(self, sched, k):
        """Largest n with n*n <= k - 1 whose whole hop-origin window keeps n."""
        best = 0
        n = 1
        while n * n <= k - 1:
            start = k - n * n + n
            if min(memory_size(sched, j) for j in range(start, k + 1)) >= n:
                best = n
            n += 1
        return best

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=3000),
        sched=st.sampled_from(
            [
                FULL,
                MemorySchedule("bounded", capacity=2),
                MemorySchedule("bounded", capacity=7),
                MemorySchedule("power", sigma=0.25),
                MemorySchedule("power", sigma=0.3),
                MemorySchedule("power", sigma=0.5),
                MemorySchedule("power", sigma=0.7),
                MemorySchedule("power", sigma=1.0),
                MemorySchedule("sporadic"),
            ]
        ),
    )
    def test_matches_exhaustive_search(self, k, sched):
        assert backward_search_depth(sched, k) == self._naive_depth(sched, k)

    @pytest.mark.parametrize(
        "sched",
        [
            FULL,
            MemorySchedule("bounded", capacity=1),
            MemorySchedule("bounded", capacity=5),
            MemorySchedule("bounded", capacity=40),
            MemorySchedule("power", sigma=0.25),
            MemorySchedule("power", sigma=0.5),
            MemorySchedule("power", sigma=1.0),
            MemorySchedule("sporadic"),
        ],
        ids=["full", "cap1", "cap5", "cap40", "sigma0.25", "sigma0.5", "sigma1", "sporadic"],
    )
    def test_every_k_up_to_300(self, sched):
        """The docstring's definition, checked for every n and every k <= 300
        without assuming that the feasible n are downward closed."""
        mem = [0] + [memory_size(sched, j) for j in range(1, 301)]
        for k in range(1, 301):
            feasible = [n for n in range(1, k) if n * n <= k - 1 and min(mem[k - n * n + n : k + 1]) >= n]
            assert backward_search_depth(sched, k) == max(feasible, default=0), k

    @pytest.mark.parametrize("sigma", [0.25, 0.5, 1.0])
    def test_power_at_integer_powers(self, sigma):
        """k around every node count where the search asks whether the first
        hop origin j0 = k - n*n + n keeps n with j0**sigma an integer, up to
        about 10**5.  Power memory does not fall with the node, so the window
        minimum is memory_size at j0, which still rounds with ceil."""
        sched = MemorySchedule("power", sigma=sigma)
        p = round(1 / sigma)
        ks = {m**p + n * n - n + dk for m in range(1, 320) if m**p <= 10**5 for n in range(m, m + 3) for dk in (-1, 0, 1)}
        for k in sorted(k for k in ks if 2 <= k <= 2 * 10**5):
            depth = max(
                (n for n in range(1, math.isqrt(k - 1) + 1) if memory_size(sched, k - n * n + n) >= n), default=0
            )
            assert backward_search_depth(sched, k) == depth, k


class TestChainSuccess:
    def test_frozen_value(self):
        assert chain_success_probability(0.5, 10) == pytest.approx(
            0.9902771787762996, abs=1e-15
        )

    def test_formula(self):
        # each of n hops independently survives unless all n copies erase
        assert chain_success_probability(0.3, 2) == pytest.approx((1 - 0.09) ** 2)
        assert chain_success_probability(0.0, 5) == 1.0
        assert chain_success_probability(1.0, 5) == 0.0

    @given(
        level=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        hops=st.integers(min_value=1, max_value=200),
    )
    def test_probability_range(self, level, hops):
        p = chain_success_probability(level, hops)
        assert 0.0 <= p <= 1.0

    def test_increases_with_hops_at_half(self):
        probs = [chain_success_probability(0.5, n) for n in range(1, 30)]
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_success_probability(1.2, 3)
        with pytest.raises(ValueError):
            chain_success_probability(0.5, 0)
