"""Broadcast corruption: stage-indexed bit-flip and erasure schedules.

Each broadcast decision is corrupted independently of everything else.  A
flip channel replaces the bit with its complement with probability q_k, a
half at most; an erasure channel drops it with a stage-dependent
probability, so the receiver sees no symbol.  Flip schedules are parametrised through the
informativeness Q = (1 - 2q) / (1 - q), the scale on which the learning-rate
laws are additive, and mapped back through q = (1 - Q) / (2 - Q).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .analysis import store_floats

_FLIP_FAMILIES = ("constant", "power", "reciprocal", "log_power", "log")
_ERASURE_FAMILIES = ("constant", "theorem4")


@dataclass(frozen=True)
class FlipSchedule:
    """Stage-indexed flip probabilities, given through the informativeness.

    family 'constant' takes q directly.  The rest prescribe Q_k and invert:
    'power' uses Q_k = scale * k**(p - 1) with p in (0, 1), 'reciprocal'
    uses Q_k = scale / k, 'log_power' uses Q_k = scale / (k * log(k)**p)
    with p > 0, and 'log' uses Q_k = scale / (k * log(k)).  The log-based
    families evaluate stage 1 as stage 2 so the expression stays finite, and
    every Q_k is capped at 1.
    """

    family: str
    q: float | None = None
    p: float | None = None
    scale: float = 1.0

    def __post_init__(self) -> None:
        store_floats(self, "q", "p", "scale")
        if self.family not in _FLIP_FAMILIES:
            raise ValueError(f"unknown flip family {self.family!r}, expected one of {_FLIP_FAMILIES}")
        if self.family == "constant":
            if self.q is None or not 0.0 <= self.q <= 1.0:
                raise ValueError(f"constant family needs q in [0, 1], got {self.q!r}")
            if self.q > 0.5:
                folded = 1.0 - self.q
                warnings.warn(
                    f"flip probability {self.q} exceeds 1/2; relabelling makes it "
                    f"equivalent to {folded:g}, which is what will be used",
                    stacklevel=2,
                )
                object.__setattr__(self, "q", folded)
            return
        if not self.scale > 0.0:
            raise ValueError(f"{self.family} family needs scale > 0, got {self.scale!r}")
        if self.family == "power" and (self.p is None or not 0.0 < self.p < 1.0):
            raise ValueError(f"power family needs p in (0, 1), got {self.p!r}")
        if self.family == "log_power" and (self.p is None or not self.p > 0.0):
            raise ValueError(f"log_power family needs p > 0, got {self.p!r}")


@dataclass(frozen=True)
class ErasureSchedule:
    """Stage-indexed erasure probabilities.

    family 'constant' erases every broadcast at the given level; level_one,
    when set, gives transmitted 1s their own level so the two inputs can be
    dropped at different rates.  family 'theorem4' uses level(n) =
    (c * n)**(-eps / n) at index n: the level climbs to one while its n-th
    power (c * n)**(-eps) stays summable whenever eps > 1, which is the
    regime where relayed evidence keeps getting through.
    """

    family: str
    level: float | None = None
    c: float | None = None
    eps: float | None = None
    level_one: float | None = None

    def __post_init__(self) -> None:
        store_floats(self, "level", "c", "eps", "level_one")
        if self.family not in _ERASURE_FAMILIES:
            raise ValueError(f"unknown erasure family {self.family!r}, expected one of {_ERASURE_FAMILIES}")
        if self.family == "constant":
            if self.level is None or not 0.0 <= self.level < 1.0:
                raise ValueError(f"constant family needs level in [0, 1), got {self.level!r}")
            if self.level_one is not None and not 0.0 <= self.level_one < 1.0:
                raise ValueError(f"level_one must lie in [0, 1), got {self.level_one!r}")
            if self.c is not None or self.eps is not None:
                raise ValueError("constant family takes level, not c/eps")
            return
        if self.c is None or not self.c > 0.0:
            raise ValueError(f"theorem4 family needs c > 0, got {self.c!r}")
        if self.eps is None or not self.eps > 1.0:
            raise ValueError(f"theorem4 family needs eps > 1, got {self.eps!r}")
        if self.level is not None or self.level_one is not None:
            raise ValueError("theorem4 family takes c and eps, not explicit levels")


Channel = FlipSchedule | ErasureSchedule


def informativeness(q: float) -> float:
    """Q = (1 - 2q) / (1 - q), the value of one broadcast flipped at rate q."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"flip probability must lie in [0, 1/2], got {q!r}")
    return (1.0 - 2.0 * q) / (1.0 - q)


def target_informativeness(schedule: FlipSchedule, stages):
    """Q_k for each stage in `stages`, capped at 1.  Vectorised."""
    ks = np.asarray(stages, dtype=float)
    if ks.size and ks.min() < 1:
        raise ValueError("stages are 1-based")
    if schedule.family == "constant":
        return np.full(ks.shape, informativeness(schedule.q))
    if schedule.family == "power":
        raw = schedule.scale * ks ** (schedule.p - 1.0)
    elif schedule.family == "reciprocal":
        raw = schedule.scale / ks
    else:
        kk = np.maximum(ks, 2.0)
        if schedule.family == "log_power":
            raw = schedule.scale / (kk * np.log(kk) ** schedule.p)
        else:
            raw = schedule.scale / (kk * np.log(kk))
    return np.minimum(raw, 1.0)


def flip_probs(schedule: FlipSchedule, stages):
    """Flip probability at each stage; the informativeness map inverted."""
    targets = target_informativeness(schedule, stages)
    return (1.0 - targets) / (2.0 - targets)


def erasure_levels(schedule: ErasureSchedule, stages):
    """Per-stage erasure levels as a (for 0s, for 1s) pair of arrays."""
    ks = np.asarray(stages, dtype=float)
    if ks.size and ks.min() < 1:
        raise ValueError("stages are 1-based")
    if schedule.family == "constant":
        lv0 = np.full(ks.shape, schedule.level)
        lv1 = np.full(ks.shape, schedule.level if schedule.level_one is None else schedule.level_one)
        return lv0, lv1
    lv = np.minimum((schedule.c * ks) ** (-schedule.eps / ks), 1.0)
    return lv, lv.copy()
