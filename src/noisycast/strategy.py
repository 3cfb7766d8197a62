"""Per-node decision rule and the shared public-belief update.

A node decides 1 when its private likelihood ratio times the public odds
exceeds one; ties go to 0.  The private belief r is the posterior at even
odds (belief_model's densities obey f0(r) / f1(r) = (1 - r) / r), so its
likelihood ratio is r / (1 - r).  The public belief b, the posterior
probability of hypothesis 1 given the corrupted broadcasts, starts at
prior_1 and so carries the prior: the Bayes test decides 1 when r > 1 - b,
at every prior.  The same cutoff in the masses m_h of what a node sees
under hypothesis h is pi0 * m0 / (pi0 * m0 + pi1 * m1).  b advances one
observation at a time; a flip at rate q enters through the two-sided
mixture q + (1 - 2q) * P(decision | .).  clamp_belief keeps updated beliefs
away from 0 and 1 so a long one-sided run cannot round them into an
absorbing state.
"""

from __future__ import annotations

import numpy as np

from .belief_model import BeliefModel, cdfs

BELIEF_FLOOR = 1e-300
BELIEF_CEIL = 1.0 - 1e-16


def conditional_decision_probs(public_belief, model: BeliefModel, out=None, work=(None,) * 4):
    """P(decide 0 | hypothesis h) at the cutoff 1 - b of a public belief b, in
    out[h], (2, *shape).  work, (4, *shape), takes 1 - b in work[0] and cdfs'
    scratch in work[1:]."""
    return cdfs(model, np.subtract(1.0, public_belief, out=work[0]), out=out, scratch=work[1:])


def clamp_belief(belief, out=None):
    return np.clip(belief, BELIEF_FLOOR, BELIEF_CEIL, out=out)


def public_belief_step(public_belief, flip_probability: float, observed, dec0, out=None, work=None, rest=None):
    """One Bayes step from an observed, possibly flipped, broadcast bit.

    dec0[h] is P(decide 0 | hypothesis h) at the cutoff the public belief
    sets, as conditional_decision_probs returns it and a simulated node
    decides with it, so a caller pays for no second cdf evaluation.
    public_belief, observed (boolean, 0/1 floats, or integers compared with
    0) and dec0[h] may be arrays of matching shape; the flip probability is
    the single rate of the stage being absorbed.  The result is not
    clamped: the caller applies clamp_belief where its range test fails.

    out receives the result and may be public_belief itself.  work, shaped
    like dec0, receives the likelihoods of the bit under h = 0, 1: it may be
    dec0 but never public_belief, observed or out.  rest, if given, is
    1 - public_belief, as conditional_decision_probs leaves it in work[0].
    With out, work, rest and observed shaped like dec0, nothing allocates.
    """
    q = float(flip_probability)
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"flip probability must lie in [0, 1/2], got {flip_probability!r}")
    b = np.asarray(public_belief, dtype=float)
    seen = observed if np.asarray(observed).dtype.kind in "bf" else np.not_equal(observed, 0)
    work = np.subtract(seen, dec0, out=work)  # 1 - dec0 after a 1, -dec0 after a 0
    np.abs(work, out=work)
    np.multiply(work, 1.0 - 2.0 * q, out=work)
    np.add(work, q, out=work)  # q + (1 - 2q) * P(decision read | h)
    like0, like1 = work[0, ...], work[1, ...]  # views even when 0-d
    num = np.multiply(like1, b, out=like1)
    if rest is None:
        rest = np.subtract(1.0, b, out=out)  # the last read of b, so out may be b
    return np.divide(num, np.add(num, np.multiply(like0, rest, out=like0), out=like0), out=out)
