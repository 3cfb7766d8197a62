"""Who sees whom: per-node observation windows and relay-chain depth.

Node k observes the corrupted broadcasts of its m_k immediate predecessors,
m_k given by a memory schedule.  backward_search_depth measures how far
information can be relayed to node k through unerased hops: it is the
largest n such that a chain of n hops, each spanning at most n stages, fits
among the existing nodes (n * n < k) with every node along the trailing
stretch able to look back at least n stages.  With full memory this equals
isqrt(k - 1) exactly; the sporadic family shows how rare long windows choke
the depth down to 1 no matter how large they individually are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import check_count, store_floats

_MEMORY_FAMILIES = ("bounded", "power", "full", "sporadic")


@dataclass(frozen=True)
class MemorySchedule:
    """family 'bounded' looks back capacity stages, 'power' ceil(k**sigma),
    'full' sees everything, 'sporadic' sees isqrt(k) at perfect squares and
    a single stage otherwise.  All are truncated to the k - 1 existing nodes."""

    family: str
    capacity: int | None = None
    sigma: float | None = None

    def __post_init__(self) -> None:
        store_floats(self, "sigma")
        if self.family not in _MEMORY_FAMILIES:
            raise ValueError(f"unknown memory family {self.family!r}, expected one of {_MEMORY_FAMILIES}")
        if self.family == "bounded":
            object.__setattr__(self, "capacity", check_count(self.capacity, "bounded family's capacity"))
        elif self.capacity is not None:
            raise ValueError(f"{self.family} family takes no capacity")
        if self.family == "power":
            if self.sigma is None or not 0.0 < self.sigma <= 1.0:
                raise ValueError(f"power family needs sigma in (0, 1], got {self.sigma!r}")
        elif self.sigma is not None:
            raise ValueError(f"{self.family} family takes no sigma")


def memory_size(schedule: MemorySchedule, k: int) -> int:
    """Number of predecessors node k observes.  Node 1 observes nobody."""
    if k < 1:
        raise ValueError(f"nodes are 1-based, got {k!r}")
    if k == 1:
        return 0
    fam = schedule.family
    if fam == "bounded":
        return min(schedule.capacity, k - 1)
    if fam == "power":
        return min(math.ceil(k**schedule.sigma), k - 1)
    if fam == "full":
        return k - 1
    r = math.isqrt(k)
    return min(r if r * r == k else 1, k - 1)


def backward_search_depth(schedule: MemorySchedule, k: int) -> int:
    """Largest n with n * n <= k - 1 and memory >= n over nodes k - n*n + n .. k.

    The window is the set of possible hop origins of an n-hop chain ending
    at node k with hops of length at most n.  Its first node j0 has
    j0 - 1 >= n, so full memory allows every such n and bounded memory
    every n up to its capacity.  Sporadic memory is 1 at every non-square
    node and no two consecutive integers above 1 are squares, so every
    window of two or more nodes rules out n >= 2: the depth is 1 from
    k = 2 on.  For power memory, growing n only enlarges the window and
    raises the bar, so the feasible set of n is downward closed and a
    binary search applies.
    """
    if k < 1:
        raise ValueError(f"nodes are 1-based, got {k!r}")
    if k < 2:
        return 0
    fam = schedule.family
    if fam == "full":
        return math.isqrt(k - 1)
    if fam == "bounded":
        return min(schedule.capacity, math.isqrt(k - 1))
    if fam == "sporadic":
        return 1
    sg = schedule.sigma
    best = 0
    lo, hi = 1, math.isqrt(k - 1)
    while lo <= hi:
        n = (lo + hi) // 2
        # min(ceil(j0**sg), j0 - 1) >= n at j0 = k - n*n + n: ceil(x) >= n iff x > n - 1, and j0 - 1 >= n
        if (k - n * n + n) ** sg > n - 1:
            best = n
            lo = n + 1
        else:
            hi = n - 1
    return best


def chain_success_probability(erasure_level: float, hops: int) -> float:
    """Probability that `hops` scans of `hops` candidates each find an
    unerased broadcast, erasures independent at the given level."""
    if not 0.0 <= erasure_level <= 1.0:
        raise ValueError(f"erasure level must lie in [0, 1], got {erasure_level!r}")
    hops = check_count(hops, "hops")
    return (1.0 - erasure_level**hops) ** hops
