"""Decision-rule and public-belief update tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisycast.belief_model import BeliefModel, cdf, cdfs
from noisycast.strategy import (
    BELIEF_CEIL,
    BELIEF_FLOOR,
    clamp_belief,
    conditional_decision_probs,
    public_belief_step,
)

MODEL = BeliefModel(0.0)

_open_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def _cutoff_probs(c, model=MODEL):
    """(P(decide 0 | h = 0), P(decide 0 | h = 1)) at the private-belief cutoff c."""
    return float(cdf(model, 0, c)), float(cdf(model, 1, c))


class TestThresholds:
    def test_map_cutoff_frozen(self):
        # public likelihood ratio L = b / (1 - b): the cutoff is 1 / (1 + L) = 1 - b
        for b, c in ((0.5, 0.5), (0.75, 0.25), (1.0, 0.0), (0.0, 1.0)):
            assert tuple(map(float, conditional_decision_probs(b, MODEL))) == _cutoff_probs(c)

    def test_cutoff_from_public_equal_priors(self):
        # with symmetric priors the cutoff mirrors the public belief
        p0, p1 = conditional_decision_probs(0.35, MODEL)
        assert (float(p0), float(p1)) == pytest.approx(_cutoff_probs(0.65), rel=1e-15)

    def test_cutoff_from_public_skewed_prior(self):
        # the private belief r is a posterior at even odds, r / (1 - r) its
        # likelihood ratio, and the public belief b already holds the prior:
        # decide one iff (r / (1 - r)) (b / (1 - b)) > 1, i.e. r > 1 - b.
        # The prior enters only where b starts, so it moves no cutoff.
        model = BeliefModel(0.0, prior_1=0.25)
        b = np.array([0.4, 0.25, 0.9])
        got = conditional_decision_probs(b, model)
        assert np.array_equal(got, conditional_decision_probs(b, MODEL))
        np.testing.assert_allclose(got, cdfs(model, [0.6, 0.75, 0.1]), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("beta", [0.0, 2.0])
    @pytest.mark.parametrize("prior", [0.25, 0.5, 0.8])
    def test_first_cutoff_is_the_bayes_test(self, beta, prior):
        """The first node reads a public belief of prior_1, so its cutoff is
        prior_0, and its error pi0 (1 - F0(c)) + pi1 F1(c) is the least over
        every cutoff c: the Bayes test at every prior.  At beta = 0 and
        prior_1 = 0.8 it is 0.2 * 0.64 + 0.8 * 0.04 = 0.16."""
        model = BeliefModel(beta, prior_1=prior)
        pi0, pi1 = model.prior_0, model.prior_1
        f0, f1 = conditional_decision_probs(prior, model)
        assert (float(f0), float(f1)) == _cutoff_probs(1.0 - prior, model)
        err = pi0 * (1.0 - f0) + pi1 * f1
        cuts = np.linspace(0.0, 1.0, 2001)
        assert err <= (pi0 * (1.0 - cdf(model, 0, cuts)) + pi1 * cdf(model, 1, cuts)).min() + 1e-15
        if (beta, prior) == (0.0, 0.8):
            assert err == pytest.approx(0.16, abs=1e-15)


class TestConditionalDecisionProbs:
    def test_matches_signal_cdf_at_cutoff(self):
        b = 0.35
        c = 1.0 - b
        p0, p1 = conditional_decision_probs(b, MODEL)
        assert p0 == pytest.approx(float(cdf(MODEL, 0, c)))
        assert p1 == pytest.approx(float(cdf(MODEL, 1, c)))

    def test_degenerate_beliefs(self):
        # certainty of 0 pushes the cutoff to 1: nobody decides 1
        p0, p1 = conditional_decision_probs(0.0, MODEL)
        assert (float(p0), float(p1)) == (1.0, 1.0)
        p0, p1 = conditional_decision_probs(1.0, MODEL)
        assert (float(p0), float(p1)) == (0.0, 0.0)


def _update(b, q, observed, model=MODEL):
    """The clamped Bayes step at the decision probabilities of the belief's own cutoff."""
    return clamp_belief(public_belief_step(b, q, observed, conditional_decision_probs(b, model)))


class TestPublicBeliefUpdate:
    def test_frozen_example(self):
        # even split, quarter flip noise, observing a one:
        # likelihoods are (q + (1-2q) G(cutoff)) with cutoff 0.5
        assert _update(0.5, 0.25, 1) == pytest.approx(0.625)
        assert _update(0.5, 0.25, 0) == pytest.approx(0.375)

    def test_pure_noise_is_inert(self):
        for b in (0.1, 0.5, 0.9):
            assert _update(b, 0.5, 1) == pytest.approx(b)

    def test_vectorised(self):
        b = np.full(4, 0.5)
        obs = np.array([1, 0, 1, 0])
        out = _update(b, 0.25, obs)
        np.testing.assert_allclose(out, [0.625, 0.375, 0.625, 0.375])

    def test_q_domain(self):
        with pytest.raises(ValueError):
            _update(0.5, 0.75, 1)
        with pytest.raises(ValueError):
            _update(0.5, -0.1, 1)

    def test_clamping(self):
        assert _update(0.0, 0.1, 0) == BELIEF_FLOOR
        assert _update(1.0, 0.1, 1) == BELIEF_CEIL
        assert _update(BELIEF_FLOOR, 0.1, 0) == BELIEF_FLOOR

    def test_step_leaves_clamping_to_the_caller(self):
        assert public_belief_step(0.0, 0.1, 0, conditional_decision_probs(0.0, MODEL)) == 0.0

    @given(b=_open_unit, q=st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_one_step_martingale(self, b, q):
        """Averaged over what gets observed, the public belief stays put."""
        g0, g1 = conditional_decision_probs(b, MODEL)
        g0, g1 = float(g0), float(g1)
        like0 = {0: q + (1 - 2 * q) * g0, 1: 1 - (q + (1 - 2 * q) * g0)}
        like1 = {0: q + (1 - 2 * q) * g1, 1: 1 - (q + (1 - 2 * q) * g1)}
        mean = 0.0
        for obs in (0, 1):
            weight = b * like1[obs] + (1 - b) * like0[obs]
            mean += weight * float(_update(b, q, obs))
        assert mean == pytest.approx(b, abs=1e-10)

    @given(b=_open_unit, q=st.floats(min_value=0.0, max_value=0.49, allow_nan=False))
    def test_observing_one_raises_belief(self, b, q):
        up = float(_update(b, q, 1))
        down = float(_update(b, q, 0))
        assert down <= b + 1e-12 <= up + 2e-12


class TestBufferedStep:
    """The flip kernel passes output and work buffers, with its belief as
    the output, its decision probabilities as the work and the 1 - b of
    the cutoff as rest; none may change a bit of what the allocating calls
    return."""

    @pytest.mark.parametrize("model", [MODEL, BeliefModel(2.0, prior_1=0.3)], ids=["beta0", "beta2_prior03"])
    def test_buffers_and_aliases_change_no_bit(self, model):
        rng = np.random.default_rng(12)
        b = np.concatenate([[BELIEF_FLOOR, BELIEF_CEIL, 0.5], rng.random(997)]).reshape(2, 500)
        seen = rng.random((2, 500)) < 0.5
        q = 0.15
        c = 1.0 - b
        f0, f1 = cdf(model, 0, c), cdf(model, 1, c)
        w = 1.0 - 2.0 * q
        like1 = np.where(seen, q + w * (1.0 - f1), q + w * f1)
        like0 = np.where(seen, q + w * (1.0 - f0), q + w * f0)
        want = np.clip(like1 * b / (like1 * b + like0 * (1.0 - b)), BELIEF_FLOOR, BELIEF_CEIL)
        assert np.array_equal(clamp_belief(public_belief_step(b, q, seen.astype(np.int64), (f0, f1))), want)

        f = np.empty((2,) + b.shape)
        work = np.empty((4,) + b.shape)
        assert conditional_decision_probs(b, model, out=f, work=work) is f
        assert np.array_equal(f[0], f0) and np.array_equal(f[1], f1)
        np.testing.assert_array_equal(work[0], c)
        out, bit = b.copy(), np.empty_like(f)
        np.copyto(bit, seen)  # as the kernel passes the bit: floats in both likelihood rows
        assert public_belief_step(out, q, bit, f, out=out, work=f, rest=work[0]) is out
        assert np.array_equal(clamp_belief(out, out=out), want)
        assert (want == BELIEF_FLOOR).any()  # the clip ran

    def test_scalar_belief(self):
        step = public_belief_step(0.5, 0.25, 1, (0.75, 0.25))
        assert step == pytest.approx(0.625) and np.ndim(step) == 0
        assert public_belief_step(0.5, 0.25, True, (0.75, 0.25)) == step


class TestStateBookkeeping:
    def test_clamp_belief(self):
        assert clamp_belief(0.5) == 0.5
        assert clamp_belief(0.0) == BELIEF_FLOOR
        assert clamp_belief(1.0) == BELIEF_CEIL
        np.testing.assert_allclose(
            clamp_belief(np.array([-1.0, 0.5, 2.0])), [BELIEF_FLOOR, 0.5, BELIEF_CEIL]
        )
