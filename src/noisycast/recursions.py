"""Deterministic shrink recursions c_{k+1} = c_k * (1 - delta_k * c_k**n).

These one-line recursions are the backbone of every convergence-rate law in
the package: c_k is a public-belief (or error) proxy, delta_k the per-stage
informativeness times a constant from the signal tails, and n = beta + 1 the
tail exponent plus one.  Summable delta forces a positive limit, divergent
delta forces zero, and constant delta gives the clean k**(-1/n) decay whose
extremes lemma3_sandwich pins down.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import SeriesResult, _sorted_union, check_count, check_grid, default_grid, store_floats
from .belief_model import BeliefModel, tail_constants
from .channels import FlipSchedule, target_informativeness

# stages per chunk: recursion memory is O(chunk + grid) at any stage count.
# At 2**14 each chunk-sized float64 temporary (deltas, trail, factor) takes
# 128 KiB, and the few numpy calls made per chunk still cost little next to
# its 2**14 Python steps.
_CHUNK = 1 << 14


class StepSizeError(ValueError):
    """delta_k * c_k**n reached 1 and the next iterate would not be positive."""

    def __init__(self, stage: int, next_value: float):
        self.stage = stage
        self.next_value = next_value
        super().__init__(
            f"step at stage {stage} drives the iterate to {next_value}; "
            f"the recursion needs delta_k * c_k**n < 1"
        )


@dataclass(frozen=True)
class RecursionSpec:
    """initial value c_1, exponent n, and delta as a float or a callable
    mapping an integer stage array to per-stage values."""

    initial: float
    exponent: int
    delta: object

    def __post_init__(self) -> None:
        store_floats(self, "initial", optional=False)
        if not 0.0 < self.initial < 1.0:
            raise ValueError(f"initial value must lie in (0, 1), got {self.initial!r}")
        object.__setattr__(self, "exponent", check_count(self.exponent, "exponent"))
        if not callable(self.delta) and not np.isscalar(self.delta):
            raise ValueError("delta must be a float or a callable on stage arrays")


def _chunks(delta, last: int):
    """(lo, hi, deltas of stages lo..hi) over stages 1..last, _CHUNK at a time."""
    for lo in range(1, last + 1, _CHUNK):
        hi = min(lo + _CHUNK - 1, last)
        ks = np.arange(lo, hi + 1, dtype=np.int64)
        darr = np.broadcast_to(np.asarray(delta(ks) if callable(delta) else delta, dtype=float), ks.shape)
        if (darr < 0.0).any() or not np.isfinite(darr).all():
            raise ValueError("delta must be finite and nonnegative at every stage")
        yield lo, hi, darr


def _steps(c: float, n: int, ds):
    """Yield c_{k0}, then each iterate ds steps it to; only n >= 3 tests, to hold a bad one."""
    yield c
    if n == 1:
        for d in ds:
            c -= d * c * c
            yield c
    elif n == 2:
        for d in ds:
            c -= d * c * c * c
            yield c
    else:
        for d in ds:
            if c > 0.0:  # the pow of a large negative iterate would raise OverflowError
                c -= d * c ** (n + 1)
            yield c


def _advance(c: float, n: int, ds, k0: int) -> float:
    """Step c_{k0} to c_{k0 + len(ds)} with ds[i] the delta of stage k0 + i.
    c - step rounds to <= 0 exactly when step >= c.  For n = 1 the step is never
    negative, so once an iterate is <= 0 every later one is <= 0, -inf or NaN (deltas
    are finite and nonnegative) and one test at the end decides the run.  For n = 2 a
    negative iterate can step back above 0, and for n >= 3 its pow can overflow, so
    those bodies test every step.  A failed run is replayed to name its first bad stage."""
    c0 = c
    if n == 1:
        for d in ds:
            c -= d * c * c
    elif n == 2:
        for d in ds:
            c -= d * c * c * c
            if c <= 0.0:
                break
    else:
        for d in ds:
            c -= d * c ** (n + 1)
            if c <= 0.0:
                break
    if c > 0.0:
        return c
    for stage, c in enumerate(_steps(c0, n, ds), k0 - 1):
        if not c > 0.0:
            raise StepSizeError(stage, c)


def iterate_recursion(spec: RecursionSpec, stages: int, grid=None) -> SeriesResult:
    """Run the recursion to c_stages, recording values on the grid."""
    stages = check_count(stages, "stages")
    targets = check_grid(default_grid(stages) if grid is None else grid, stages)
    vals = np.empty(targets.size)
    ts, out = memoryview(targets), memoryview(vals)
    n, c = spec.exponent, float(spec.initial)
    ti = 0
    if ts[0] == 1:
        out[0], ti = c, 1
    # the deltas of stages lo..hi carry c_lo to c_{hi + 1}
    for lo, hi, darr in _chunks(spec.delta, stages - 1):
        ds = memoryview(darr)
        k = lo
        while ti < len(ts) and ts[ti] <= hi + 1:
            c = _advance(c, n, ds[k - lo : ts[ti] - lo], k)
            k = ts[ti]
            out[ti] = c
            ti += 1
        c = _advance(c, n, ds[k - lo :], k)
    return _series(spec, stages, targets, vals)


def _series(spec: RecursionSpec, stages: int, targets: np.ndarray, vals: np.ndarray) -> SeriesResult:
    meta = {"producer": "recursion", "exponent": spec.exponent, "initial": spec.initial, "stages": stages}
    return SeriesResult(targets, vals, meta=meta)


@dataclass(frozen=True)
class SandwichResult:
    low: float
    high: float
    k_min: int
    stages: int
    series: SeriesResult | None = None


def lemma3_sandwich(spec: RecursionSpec, k_min: int, stages: int, grid=None) -> SandwichResult:
    """Extremes of c_k * (delta_k * k)**(1/n) over k_min <= k <= stages.

    For constant delta the normalised iterate converges, so the band between
    the extremes certifies c_k = Theta(k**(-1/n)) on the window.  Given a
    grid, the result also carries the iterates on it, taken from the same
    pass: the series iterate_recursion(spec, stages, grid) would return.
    """
    if not 1 <= k_min <= stages:
        raise ValueError(f"need 1 <= k_min <= stages, got {k_min!r}, {stages!r}")
    targets = np.empty(0, dtype=np.int64) if grid is None else check_grid(grid, stages)
    vals, ti = np.empty(targets.size), 0
    n, inv_n, c = spec.exponent, 1.0 / spec.exponent, float(spec.initial)
    low, high = math.inf, -math.inf
    for lo, hi, darr in _chunks(spec.delta, stages):
        ds = memoryview(darr)
        # the last stage takes no step; traj[i] is c_{lo + i}
        steps = ds[: stages - lo]
        traj = np.fromiter(_steps(c, n, steps), float, len(steps) + 1)
        if not traj.min() > 0.0:
            _advance(c, n, steps, lo)  # fails the same way and raises StepSizeError
        c = float(traj[-1])
        tj = int(np.searchsorted(targets, hi, side="right"))
        vals[ti:tj] = traj[targets[ti:tj] - lo]
        ti = tj
        i0 = max(k_min - lo, 0)
        if i0 < len(ds):
            ks = np.arange(lo + i0, hi + 1, dtype=np.int64)
            # float * int64 rounds as d * k does; numpy's SIMD power is not libm's pow, the builtin pow is
            factor = darr[i0:] * ks
            if n > 1:
                factor = np.fromiter(map(pow, factor.tolist(), itertools.repeat(inv_n)), float, factor.size)
            r = traj[i0 : len(ds)] * factor
            low, high = min(low, float(r.min())), max(high, float(r.max()))
    return SandwichResult(low, high, k_min, stages, None if grid is None else _series(spec, stages, targets, vals))


@dataclass(frozen=True)
class LimitClassification:
    label: str
    estimate: float
    checkpoints: tuple
    values: tuple
    relative_changes: tuple
    series: SeriesResult = field(compare=False)


def lemma4_classify(spec: RecursionSpec, stages: int, tol: float = 1e-3) -> LimitClassification:
    """Label the recursion's limit by comparing checkpoint values.

    Checkpoints sit at stages/8, /4, /2, and stages.  A final doubling that
    moves the iterate by a relative tol or less reads as a positive limit; an
    iterate that has collapsed below tol * initial, or that keeps moving by
    at least tol across every doubling, reads as convergence to zero.  tol
    sets the plateau resolution: limits smaller than roughly tol * initial
    cannot be told apart from zero at the given horizon.  The same pass
    records the iterates on default_grid(stages) as the series.
    """
    if stages < 8 or not 0.0 < tol < 1.0:
        raise ValueError(f"classification needs stages >= 8 and tol in (0, 1), got {stages!r}, {tol!r}")
    cps, grid = [stages // 8, stages // 4, stages // 2, stages], default_grid(stages)
    run = iterate_recursion(spec, stages, grid=_sorted_union(grid, cps))
    # grid, cps and run.stages are each sorted and distinct: searchsorted finds each stage
    v = run.values[np.searchsorted(run.stages, cps)]
    rel = tuple(float(abs(v[i + 1] - v[i]) / v[i]) for i in range(3))
    estimate = float(v[-1])
    if rel[-1] < tol and estimate > 1e-12:
        label = "positive_limit"
    elif estimate < tol * spec.initial or min(rel) >= tol:
        label = "converges_to_zero"
    else:
        label = "inconclusive"
    series = _series(spec, stages, grid, run.values[np.searchsorted(run.stages, grid)])
    return LimitClassification(label, estimate, tuple(cps), tuple(float(x) for x in v), rel, series)


def type1_lower_bound(series: SeriesResult, model: BeliefModel) -> SeriesResult:
    """Lower bound on the stage error implied by a public-belief series.

    With beta = 0 the bound is (gamma / 4) * b_k**2 and charges the node
    after the one whose belief is b_k; for beta > 0 it is
    (gamma / (beta + 1)) * b_k**(beta + 2) at the same stage.
    """
    beta, gamma = tail_constants(model)
    if beta == 0:
        stages = series.stages + 1
        values = 0.25 * gamma * series.values**2
    else:
        stages = series.stages
        values = (gamma / (beta + 1.0)) * series.values ** (beta + 2.0)
    meta = dict(series.meta)
    meta["derived"] = "type1_lower_bound"
    return SeriesResult(stages, values, meta=meta)


def rate_recursion(model: BeliefModel, schedule: FlipSchedule, initial: float,
                   denominator: str = "beta_plus_one") -> RecursionSpec:
    """Recursion spec for a belief chain: exponent beta + 1 and delta_k =
    coeff * Q_k.  denominator 'beta_plus_one' takes coeff = gamma / (beta + 1),
    the constant the tail integral produces; 'beta' takes gamma / beta, a
    looser classical normalisation (at beta = 0 both are gamma, the endpoint density)."""
    if abs(model.beta - round(model.beta)) > 1e-9:
        raise ValueError(f"rate recursion needs integer beta, got {model.beta!r}")
    beta, gamma = tail_constants(model)
    if denominator == "beta_plus_one":
        coeff = gamma / (beta + 1.0)
    elif denominator == "beta":
        coeff = gamma if beta == 0 else gamma / beta
    else:
        raise ValueError(f"denominator must be beta_plus_one or beta, got {denominator!r}")
    return RecursionSpec(initial, int(round(beta)) + 1, lambda ks: coeff * target_informativeness(schedule, ks))
