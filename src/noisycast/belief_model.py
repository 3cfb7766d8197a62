"""Private-signal model: a matched pair of belief densities on (0, 1).

Each node summarises its own signal as the posterior probability of
hypothesis 1, its private belief.  The conditional belief densities used
throughout are

    f0(r) = z * r**beta * (1 - r)**(beta + 1)     under hypothesis 0,
    f1(r) = z * r**(beta + 1) * (1 - r)**beta     under hypothesis 1,

with the shared normaliser z = 1 / B(beta + 1, beta + 2).  The pair obeys
f0(r) / f1(r) = (1 - r) / r, the consistency identity any private-belief
distribution must satisfy, and the mass near both endpoints vanishes like a
power with exponent beta: small beta means near-certain signals are common,
large beta makes them rare and slows everything downstream.

beta = 0 is the fully closed-form case, densities (2(1 - r), 2r) with
distribution functions (1 - (1 - r)**2, r**2).  Every integer beta up to
509 is closed form; its binomial coefficients reach C(1020, 510), the last
that fits a float.  scipy is imported only when a larger or non-integer
beta needs its beta functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import store_floats


@dataclass(frozen=True)
class BeliefModel:
    """Tail exponent of the signal family plus the prior on hypothesis 1."""

    beta: float = 0.0
    prior_1: float = 0.5

    def __post_init__(self) -> None:
        store_floats(self, "beta", "prior_1", optional=False)
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be a finite float >= 0, got {self.beta!r}")
        if not 0.0 < self.prior_1 < 1.0:
            raise ValueError(f"prior_1 must lie strictly inside (0, 1), got {self.prior_1!r}")

    @property
    def prior_0(self) -> float:
        return 1.0 - self.prior_1

    @property
    def norm_constant(self) -> float:
        """Shared normaliser z of both conditional densities.

        For integer beta up to 509, 1 / B(beta + 1, beta + 2) is the integer
        k * C(2k, k) with k = beta + 1, returned correctly rounded.  Any
        other beta inverts scipy's beta function: z passes the float range
        near beta = 509.2, and inf is returned from there on.
        """
        if k := _closed_form(self):
            return float(k * math.comb(2 * k, k))
        from scipy import special

        with np.errstate(over="ignore", divide="ignore"):
            return float(1.0 / special.beta(self.beta + 1.0, self.beta + 2.0))


def _closed_form(model: BeliefModel) -> int:
    """k = beta + 1 when the cdfs are binomial sums: integer beta with every
    C(2k, j) a float, k <= 510.  0 sends the model to scipy's betainc."""
    k = int(model.beta) + 1
    return k if float(model.beta).is_integer() and k <= 510 else 0


def _shape(model: BeliefModel, hypothesis: int) -> tuple[float, float]:
    """Beta-distribution shape parameters of the belief under the hypothesis."""
    if hypothesis not in (0, 1):
        raise ValueError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    if hypothesis == 0:
        return model.beta + 1.0, model.beta + 2.0
    return model.beta + 2.0, model.beta + 1.0


def cdf(model: BeliefModel, hypothesis: int, r, out=None, scratch=(None, None, None)):
    """Conditional distribution function of the private belief.

    Integer beta up to 509 uses the exact binomial-sum form of the
    regularised incomplete beta function, so the frequently hit beta = 0
    case costs a couple of polynomial terms and carries no quadrature
    error.  Any other beta falls back to scipy's betainc.

    out, if given, receives the values; with it and three scratch arrays
    shaped like r, an integer-beta call allocates nothing.
    """
    a, b = _shape(model, hypothesis)
    r = np.asarray(r, dtype=float)
    if _closed_form(model):
        return _binomial_sums(r, int(a), int(a + b) - 1, (out,), *scratch)[0]
    from scipy import special

    return special.betainc(a, b, r, out=out)


def cdfs(model: BeliefModel, r, out=None, scratch=(None, None, None)):
    """cdf(model, h, r) for h = 0, 1, bit for bit, stacked in out, (2, *shape).
    With out and cdf's three scratch arrays the call allocates nothing."""
    r = np.asarray(r, dtype=float)
    out = np.empty((2,) + r.shape) if out is None else out
    if lo := _closed_form(model):
        _binomial_sums(r, lo, 2 * lo, (out[0, ...], out[1, ...]), *scratch)  # views even when 0-d
    else:
        for h in (0, 1):
            cdf(model, h, r, out=out[h, ...])
    return out


def _binomial_sums(r, lo: int, n: int, outs, s, term, spow):
    """Sum i of comb(n, j) * r**j * (1 - r)**(n - j) over j = lo + i..n,
    I_r(lo + i, n + 1 - lo - i), in outs[i], each first term first.  A term
    is computed once, skipping a factor of 1 and with powers below 3 as
    products (numpy's x**2 is x * x), so every bit is the plain sum's."""
    if lo < n:
        s = np.subtract(1.0, r, out=s)
    sums = []
    for j in range(lo, n + 1):
        opens = len(sums) < len(outs)
        dst = outs[len(sums)] if opens else term
        c = math.comb(n, j)
        t = _ipow(r, j, dst)
        if c != 1:
            t = np.multiply(c, t, out=dst)
        if j < n:
            t = np.multiply(t, _ipow(s, n - j, spow), out=dst)
        sums = [np.add(acc, t, out=o) for acc, o in zip(sums, outs)] + ([t] if opens else [])
    return sums


def _ipow(x, e: int, out=None):
    """x**e for an integer e >= 1: no power call below 3, then np.power (a numpy scalar's ** is libm pow)."""
    if e == 1:
        return x
    if e == 2:
        return np.multiply(x, x, out=out)
    return np.power(x, e, out=out)


def cdf_pair(model: BeliefModel):
    """x -> (cdf(model, 0, x), cdf(model, 1, x)) for one float x, with every
    bit of x's element in an array call, for scalar recursions that cannot
    afford a numpy call per value.  Integer beta sums the terms of
    _binomial_sums in its order; hypothesis 1 drops the first term."""
    if not (lo := _closed_form(model)):
        return lambda x: (float(cdf(model, 0, x)), float(cdf(model, 1, x)))
    terms = [(j, math.comb(2 * lo, j), 2 * lo - j) for j in range(lo, 2 * lo + 1)]

    def pw(x, e):  # _ipow, with numpy's power above the square as for an array
        return x if e == 1 else x * x if e == 2 else float(np.power(x, e))

    def pair(x):
        s = 1.0 - x
        f0 = f1 = 0.0
        for j, c, m in terms:
            t = c * pw(x, j) * pw(s, m) if m else c * pw(x, j)
            f0 += t
            f1 += t if j > lo else 0.0
        return f0, f1

    return pair


def tail_constants(model: BeliefModel) -> tuple[float, float]:
    """(beta, gamma) with f1(r) ~ gamma * (1 - r)**beta as r -> 1.

    By symmetry the same gamma governs f0 near 0.  These two numbers are all
    the rate laws need from the signal family.
    """
    return model.beta, model.norm_constant
