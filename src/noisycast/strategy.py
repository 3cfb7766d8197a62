"""Per-node decision rule and the shared public-belief update.

A node decides 1 when its private likelihood ratio times the public
likelihood ratio clears the prior odds; ties go to 0.  Expressed in belief
coordinates with equal priors that is simply 'private belief above one minus
the public belief'.  The public belief, the posterior probability of
hypothesis 1 given the corrupted broadcasts, advances one observation at a
time; a flip at rate q enters through the two-sided mixture
q + (1 - 2q) * P(decision | .).  Updated beliefs are clamped away from 0 and
1 so a long one-sided run cannot round them into an absorbing state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .belief_model import BeliefModel, cdf
from .channels import ERASED

BELIEF_FLOOR = 1e-300
BELIEF_CEIL = 1.0 - 1e-16


@dataclass(frozen=True)
class ThresholdRule:
    """Likelihood-ratio threshold: MAP (prior odds), ML (1), or a fixed value."""

    mode: str = "map"
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("map", "ml", "fixed"):
            raise ValueError(f"mode must be map, ml, or fixed, got {self.mode!r}")
        if self.mode == "fixed" and (self.threshold is None or not self.threshold > 0.0):
            raise ValueError(f"fixed mode needs a positive threshold, got {self.threshold!r}")
        if self.mode != "fixed" and self.threshold is not None:
            raise ValueError(f"{self.mode} mode takes no explicit threshold")


MAP_RULE = ThresholdRule()


def likelihood_threshold(rule: ThresholdRule, model: BeliefModel) -> float:
    if rule.mode == "map":
        return model.prior_ratio
    if rule.mode == "ml":
        return 1.0
    return rule.threshold


def map_belief_cutoff(public_likelihood: float) -> float:
    """Private-belief cutoff of the MAP test given the public likelihood ratio.

    Decide 1 when the private belief exceeds 1 / (1 + L).  The prior cancels:
    it enters the private belief and the threshold in exactly opposite ways.
    """
    if math.isnan(public_likelihood) or public_likelihood < 0.0:
        raise ValueError(f"likelihood ratio must be >= 0, got {public_likelihood!r}")
    if math.isinf(public_likelihood):
        return 0.0
    return 1.0 / (1.0 + public_likelihood)


def belief_cutoff_from_public(public_belief, model: BeliefModel):
    """Same cutoff in public-belief coordinates.  Vectorised."""
    pi1 = model.prior_1
    if pi1 == 0.5:
        return 1.0 - np.asarray(public_belief, dtype=float)
    b = np.asarray(public_belief, dtype=float)
    top = pi1 * (1.0 - b)
    return top / (top + (1.0 - pi1) * b)


def decide(private_belief: float, cutoff: float) -> int:
    """1 when the private belief strictly exceeds the cutoff, else 0."""
    return int(private_belief > cutoff)


def conditional_decision_probs(public_belief, model: BeliefModel):
    """(P(decide 0 | hyp 0), P(decide 0 | hyp 1)) at a public belief."""
    c = belief_cutoff_from_public(public_belief, model)
    return cdf(model, 0, c), cdf(model, 1, c)


def clamp_belief(belief):
    return np.clip(belief, BELIEF_FLOOR, BELIEF_CEIL)


def public_belief_step(public_belief, flip_probability: float, observed, dec0_h0, dec0_h1):
    """One Bayes step from an observed, possibly flipped, broadcast bit.

    dec0_h0 and dec0_h1 are P(decide 0 | hypothesis) at the cutoff the
    public belief sets, the same two cdf values a simulated node decides
    with, so a caller that has them pays for no second cdf evaluation.
    public_belief, observed and both probabilities may be arrays of matching
    shape; the flip probability is the single rate of the stage being
    absorbed.  The result is clamped to [BELIEF_FLOOR, BELIEF_CEIL].
    """
    q = float(flip_probability)
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"flip probability must lie in [0, 1/2], got {flip_probability!r}")
    b = np.asarray(public_belief, dtype=float)
    w = 1.0 - 2.0 * q
    is0 = np.asarray(observed) == 0
    like1 = np.where(is0, q + w * dec0_h1, q + w * (1.0 - dec0_h1))
    like0 = np.where(is0, q + w * dec0_h0, q + w * (1.0 - dec0_h0))
    num = like1 * b
    return clamp_belief(num / (num + like0 * (1.0 - b)))


def update_public_belief(public_belief, flip_probability: float, observed, model: BeliefModel):
    """public_belief_step with the decision probabilities computed from the
    model at the public belief's own cutoff."""
    b = np.asarray(public_belief, dtype=float)
    dec0_h0, dec0_h1 = conditional_decision_probs(b, model)
    return public_belief_step(b, flip_probability, observed, dec0_h0, dec0_h1)


def tandem_posterior(observed: int, sender_marginals, prior_belief: float) -> float:
    """Posterior on hypothesis 1 after one relayed symbol from a known sender.

    sender_marginals = (P(sent 1 | hyp 0), P(sent 1 | hyp 1)).  An erased
    symbol returns the prior untouched.  The survival factor of a symbol
    that did arrive is hypothesis-independent, so erasure levels cancel out
    of the posterior whatever they are, and the channel is not an argument.
    """
    if observed == ERASED:
        return float(prior_belief)
    if observed not in (0, 1):
        raise ValueError(f"observed symbol must be 0, 1, or ERASED, got {observed!r}")
    if not 0.0 <= prior_belief <= 1.0:
        raise ValueError(f"prior belief must lie in [0, 1], got {prior_belief!r}")
    m0, m1 = float(sender_marginals[0]), float(sender_marginals[1])
    if not (0.0 <= m0 <= 1.0 and 0.0 <= m1 <= 1.0):
        raise ValueError(f"sender marginals must lie in [0, 1], got {sender_marginals!r}")
    l1 = m1 if observed == 1 else 1.0 - m1
    l0 = m0 if observed == 1 else 1.0 - m0
    num = l1 * prior_belief
    den = num + l0 * (1.0 - prior_belief)
    if den == 0.0:
        raise ValueError(f"symbol {observed} has probability zero under both hypotheses")
    return num / den


@dataclass
class PublicBeliefState:
    """Running public belief with bookkeeping for clamp events."""

    belief: float
    stage: int = 0
    clamp_count: int = 0


def advance_public_belief(
    state: PublicBeliefState, flip_probability: float, observed: int, model: BeliefModel
) -> PublicBeliefState:
    b = float(update_public_belief(state.belief, flip_probability, observed, model))
    clamped = b <= BELIEF_FLOOR or b >= BELIEF_CEIL
    return PublicBeliefState(b, state.stage + 1, state.clamp_count + int(clamped))
