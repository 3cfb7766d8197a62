"""Signal-family oracle tests.

Expected values are closed forms of the Beta pair: at beta = 0 the
densities are (2(1-r), 2r) and the distribution functions
(1-(1-r)**2, r**2); at beta = 1 the normaliser is 12 and the distribution
functions are degree-4 polynomials, expanded below by hand.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special

import noisycast
from noisycast.belief_model import (
    BeliefModel,
    cdf,
    cdf_pair,
    cdfs,
    tail_constants,
)

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestNormaliser:
    def test_beta_zero(self):
        assert BeliefModel(0.0).norm_constant == pytest.approx(2.0, abs=1e-14)

    def test_beta_one(self):
        assert BeliefModel(1.0).norm_constant == pytest.approx(12.0, abs=1e-12)

    def test_beta_two(self):
        # 1 / B(3, 4) = 6! / (2! 3!) = 60
        assert BeliefModel(2.0).norm_constant == pytest.approx(60.0, rel=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BeliefModel(-0.5)
        with pytest.raises(ValueError):
            BeliefModel(0.0, prior_1=0.0)
        with pytest.raises(ValueError):
            BeliefModel(0.0, prior_1=1.0)
        for bad in (dict(beta=None), dict(prior_1=None)):  # a missing number once failed on "<" (TypeError)
            with pytest.raises(ValueError, match="must be a real number"):
                BeliefModel(**bad)

    def test_integer_beta_is_the_exact_integer(self):
        # 1 / B(beta + 1, beta + 2) = k * C(2k, k) with k = beta + 1
        for beta in range(31):
            k = beta + 1
            assert BeliefModel(float(beta)).norm_constant == float(k * math.comb(2 * k, k))

    def test_preset_and_non_integer_betas_match_library_bit_for_bit(self):
        for beta in (0.0, 1.0, 2.0, 3.0, 0.5, 1.25, 2.5, 7.75):
            assert BeliefModel(beta).norm_constant == float(1.0 / special.beta(beta + 1.0, beta + 2.0))

    def test_past_the_float_range_is_inf(self):
        assert math.isfinite(BeliefModel(509.0).norm_constant)
        for beta in (510.0, 511.0, 600.0, 1e9):
            assert BeliefModel(beta).norm_constant == math.inf


class TestClosedFormBetaZero:
    """beta = 0: everything is a polynomial of degree two."""

    model = BeliefModel(0.0)

    def test_densities(self):
        # the cdfs integrate the densities (2(1 - r), 2r): central differences
        # of a quadratic are exact up to rounding
        r, h = np.linspace(0.05, 0.95, 19), 1e-6
        for hyp, dens in ((0, 2.0 * (1.0 - r)), (1, 2.0 * r)):
            slope = (cdf(self.model, hyp, r + h) - cdf(self.model, hyp, r - h)) / (2.0 * h)
            np.testing.assert_allclose(slope, dens, atol=1e-8)

    def test_cdfs(self):
        r = np.linspace(0.0, 1.0, 21)
        np.testing.assert_allclose(cdf(self.model, 0, r), 1.0 - (1.0 - r) ** 2, atol=1e-14)
        np.testing.assert_allclose(cdf(self.model, 1, r), r**2, atol=1e-14)

    def test_point_values(self):
        assert cdf(self.model, 0, 0.3) == pytest.approx(0.51, abs=1e-15)
        assert cdf(self.model, 1, 0.3) == pytest.approx(0.09, abs=1e-15)


class TestClosedFormBetaOne:
    model = BeliefModel(1.0)

    def test_cdfs_match_expanded_polynomials(self):
        # under 0: Beta(2,3), I_r(2,3) = 6r^2 - 8r^3 + 3r^4
        # under 1: Beta(3,2), I_r(3,2) = 4r^3 - 3r^4
        r = np.linspace(0.0, 1.0, 41)
        np.testing.assert_allclose(
            cdf(self.model, 0, r), 6 * r**2 - 8 * r**3 + 3 * r**4, atol=1e-13
        )
        np.testing.assert_allclose(cdf(self.model, 1, r), 4 * r**3 - 3 * r**4, atol=1e-13)


class TestCdfGeneral:
    def test_non_integer_beta_matches_library(self):
        model = BeliefModel(0.5)
        r = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(cdf(model, 0, r), special.betainc(1.5, 2.5, r), rtol=1e-12)
        np.testing.assert_allclose(cdf(model, 1, r), special.betainc(2.5, 1.5, r), rtol=1e-12)

    def test_integer_beta_matches_library(self):
        # the binomial-sum branch must agree with quadrature
        for beta in (0.0, 1.0, 3.0):
            model = BeliefModel(beta)
            r = np.linspace(0.0, 1.0, 17)
            np.testing.assert_allclose(
                cdf(model, 1, r), special.betainc(beta + 2, beta + 1, r), atol=1e-12
            )

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 509.0])
    def test_integer_beta_bit_identical_to_plain_binomial_sum(self, beta, hypothesis):
        """The shortcut terms must round exactly as the plain sum does,
        because the exact recursion and the Monte Carlo decisions are
        compared bit for bit."""

        def plain_sum(model, h, r):
            a, b = (model.beta + 1.0, model.beta + 2.0) if h == 0 else (model.beta + 2.0, model.beta + 1.0)
            n = int(a + b) - 1
            out = np.zeros_like(r)
            for j in range(int(a), n + 1):
                out = out + math.comb(n, j) * r**j * (1.0 - r) ** (n - j)
            return out

        model = BeliefModel(beta)
        r = np.concatenate([[0.0, 1.0, 1e-300, 1.0 - 1e-16], np.random.default_rng(4).random(10_000)])
        assert np.array_equal(cdf(model, hypothesis, r), plain_sum(model, hypothesis, r))
        # a float rounds as its element in an array does (a 0-d plain sum
        # would take libm's pow for (1 - r)**e on a numpy scalar)
        assert cdf(model, hypothesis, 0.3) == plain_sum(model, hypothesis, np.array([0.3]))[0]

    @pytest.mark.parametrize("beta", [510.0, 514.0, 600.0])
    def test_integer_beta_past_float_coefficients_reads_betainc(self, beta):
        """Past beta = 509 some C(2k, j), k = beta + 1, passes the float
        range: cdf, cdfs and cdf_pair once raised OverflowError there."""
        model = BeliefModel(beta)
        r = np.linspace(0.45, 0.55, 21)
        pair = cdf_pair(model)
        for h, (a, b) in enumerate([(beta + 1.0, beta + 2.0), (beta + 2.0, beta + 1.0)]):
            want = special.betainc(a, b, r)
            np.testing.assert_allclose(cdf(model, h, r), want, rtol=1e-12)
            np.testing.assert_allclose(cdfs(model, r)[h], want, rtol=1e-12)
            np.testing.assert_allclose([pair(x)[h] for x in r.tolist()], want, rtol=1e-12)
        assert model.norm_constant == math.inf

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("beta", [0.5, 1.5, 2.25])
    def test_non_integer_beta_bit_identical_to_library(self, beta, hypothesis):
        a, b = (beta + 1.0, beta + 2.0) if hypothesis == 0 else (beta + 2.0, beta + 1.0)
        r = np.concatenate([[0.0, 1.0, 1e-300], np.random.default_rng(5).random(1000)])
        assert np.array_equal(cdf(BeliefModel(beta), hypothesis, r), special.betainc(a, b, r))
        out = np.empty_like(r)
        assert cdf(BeliefModel(beta), hypothesis, r, out=out) is out
        assert np.array_equal(out, special.betainc(a, b, r))

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_buffers_change_no_bit(self, beta, hypothesis):
        """With out and scratch the result lands in out, bit-identical to the
        allocating call."""
        model = BeliefModel(beta)
        r = np.random.default_rng(6).random(1000)
        out = np.empty_like(r)
        scratch = tuple(np.empty_like(r) for _ in range(3))
        assert cdf(model, hypothesis, r, out=out, scratch=scratch) is out
        assert np.array_equal(out, cdf(model, hypothesis, r))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 5.0])
    def test_pair_is_bit_identical_to_two_cdf_calls(self, beta):
        """cdfs shares hypothesis 1's terms with hypothesis 0's sum; each
        row must still be the bits of its own cdf call."""
        model = BeliefModel(beta)
        r = np.concatenate([[0.0, 1.0, 5e-324, 1.0 - 2.0**-53], np.random.default_rng(9).random(5000)])
        got = cdfs(model, r)
        assert got.shape == (2, r.size)
        assert np.array_equal(got[0], cdf(model, 0, r)) and np.array_equal(got[1], cdf(model, 1, r))
        out = np.empty((2, r.size))
        assert cdfs(model, r, out=out, scratch=np.empty((3, r.size))) is out
        assert np.array_equal(out, got)
        rows = cdfs(model, r, out=np.empty((2, r.size))[::-1])  # strided rows, as a decide-1 table takes them
        assert np.array_equal(rows, got)
        assert [float(x) for x in cdfs(model, 0.3)] == [float(cdf(model, h, 0.3)) for h in (0, 1)]

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 5.0])
    def test_pair_with_buffers_allocates_nothing(self, beta):
        model = BeliefModel(beta)
        r = np.random.default_rng(10).random(4096)
        out, scratch = np.empty((2, r.size)), np.empty((3, r.size))
        cdfs(model, r, out=out, scratch=scratch)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                cdfs(model, r, out=out, scratch=scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 4096  # one (4096,) float row would take 32 KB

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 5.0, 0.5])
    def test_scalar_pair_is_bit_identical_to_array_call(self, beta):
        """cdf_pair serves scalar recursions; each of its values must be the
        bits of the same point inside an array call."""
        model = BeliefModel(beta)
        r = np.concatenate([[0.0, 1.0, 1e-300, 1.0 - 1e-16], np.random.default_rng(7).random(2000)])
        pair = cdf_pair(model)
        got = np.array([pair(x) for x in r.tolist()])
        assert np.array_equal(got[:, 0], cdf(model, 0, r))
        assert np.array_equal(got[:, 1], cdf(model, 1, r))
        assert all(type(v) is float for v in pair(0.3))

    @pytest.mark.parametrize("hypothesis", [0, 1])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_float_argument_is_bit_identical_to_array_element(self, beta, hypothesis):
        """A float argument is a 0-d array whose 1 - r is a numpy scalar; its
        powers must still round as the array's do, not as libm's pow."""
        model = BeliefModel(beta)
        r = np.random.default_rng(8).random(5000)
        got = np.array([cdf(model, hypothesis, x) for x in r.tolist()])
        want = np.array([cdf(model, hypothesis, [x])[0] for x in r.tolist()])
        assert np.array_equal(got, want)
        assert np.array_equal(got, cdf(model, hypothesis, r))

    @given(r=_unit, beta=st.sampled_from([0.0, 1.0, 2.0, 0.5]))
    def test_symmetry(self, r, beta):
        """f1 is f0 mirrored, so G0(r) + G1(1 - r) = 1."""
        model = BeliefModel(beta)
        assert float(cdf(model, 0, r) + cdf(model, 1, 1.0 - r)) == pytest.approx(1.0, abs=1e-10)

    @given(lo=_unit, hi=_unit, beta=st.sampled_from([0.0, 1.0, 0.5]))
    def test_monotone_and_dominated(self, lo, hi, beta):
        model = BeliefModel(beta)
        lo, hi = min(lo, hi), max(lo, hi)
        g0_lo, g0_hi = float(cdf(model, 0, lo)), float(cdf(model, 0, hi))
        assert g0_lo <= g0_hi + 1e-12
        # hypothesis 1 pushes beliefs up, so its cdf sits below
        assert float(cdf(model, 1, lo)) <= g0_lo + 1e-12


class TestSampling:
    def test_sample_matches_cdf(self):
        # under hypothesis 0 the belief is Beta(beta + 1, beta + 2): independent draws against cdf
        model = BeliefModel(1.0)
        rng = np.random.default_rng(7)
        draws = rng.beta(2.0, 3.0, size=100_000)
        for r in (0.2, 0.5, 0.8):
            assert (draws <= r).mean() == pytest.approx(float(cdf(model, 0, r)), abs=5e-3)


def test_tail_constants():
    assert tail_constants(BeliefModel(0.0)) == (0.0, pytest.approx(2.0))
    beta, gamma = tail_constants(BeliefModel(1.0))
    assert beta == 1.0 and gamma == pytest.approx(12.0)


def test_integer_beta_runs_without_scipy():
    """Importing the package, running all three engines at integer beta,
    cross-checking each Monte Carlo run against its reference and writing
    a preset's verdict load no scipy module: scipy is only needed for
    non-integer beta.  The runs take 14 stages, the most the full-memory
    flip reference enumerates."""
    code = textwrap.dedent(
        """
        import sys
        import tempfile
        import noisycast as nc
        from noisycast.presets import cross_check, reference

        model = nc.BeliefModel(1.0, prior_1=0.4)
        flip = nc.FlipSchedule("constant", q=0.2)
        erasure = nc.ErasureSchedule("constant", level=0.3)
        nc.exact_error_series(model, erasure, nc.MemorySchedule("bounded", capacity=3), 20)
        for channel, memory in [
            (flip, nc.MemorySchedule("full")),
            (flip, nc.MemorySchedule("bounded", capacity=2)),
            (erasure, nc.MemorySchedule("full")),
        ]:
            config = nc.ExperimentConfig(model, channel, memory, stages=14, trials=100, seed=3)
            cross_check(nc.estimate_error_series(config), reference(config), 1e-4)
        nc.iterate_recursion(nc.rate_recursion(model, flip, 0.4), 1000)
        with tempfile.TemporaryDirectory() as out:  # the verdict records scipy's version
            nc.run_preset("lemma3_n1", out, nc.Overrides(stages=2000))
        loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
        assert not loaded, loaded
        """
    )
    _run_fresh(code)


def test_an_engine_run_imports_only_what_it_uses():
    """An engine run, herding statistics included, loads no numpy.ma
    (np.unique and np.percentile import it), no thread pool when one block
    of trials needs none, and neither the preset
    registry nor the CLI; a preset run loads the registry, still without
    numpy.ma."""
    code = textwrap.dedent(
        """
        import sys
        import tempfile
        import noisycast as nc

        model = nc.BeliefModel(0.0)
        flip = nc.FlipSchedule("constant", q=0.2)
        erasure = nc.ErasureSchedule("constant", level=0.3)
        nc.exact_error_series(model, erasure, nc.MemorySchedule("bounded", capacity=2), 150)
        nc.scan_error_series(model, erasure, nc.MemorySchedule("full"), 150)
        nc.iterate_recursion(nc.rate_recursion(model, flip, 0.4), 1000)
        for channel, memory in [
            (flip, nc.MemorySchedule("full")),
            (flip, nc.MemorySchedule("bounded", capacity=2)),
            (erasure, nc.MemorySchedule("full")),
        ]:
            nc.estimate_error_series(nc.ExperimentConfig(model, channel, memory, stages=150, trials=100, seed=3),
                                     threads=2)
        nc.herding_stats(nc.ExperimentConfig(model, flip, nc.MemorySchedule("full"), stages=50, trials=100, seed=3))
        unused = ("numpy.ma", "concurrent.futures", "noisycast.presets", "noisycast.cli")
        loaded = [m for m in unused if m in sys.modules]
        assert not loaded, loaded
        with tempfile.TemporaryDirectory() as out:
            nc.run_preset("thm7_plateau", out, nc.Overrides(stages=5000))
        assert "noisycast.presets" in sys.modules
        assert "numpy.ma" not in sys.modules
        """
    )
    _run_fresh(code)


def _run_fresh(code: str) -> None:
    """Run code in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(noisycast.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
