"""Permutations of {0, ..., n-1} represented as tuples of images."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import permutations as _permutations

Perm = tuple[int, ...]


def is_perm(seq: Sequence[int], n: int | None = None) -> bool:
    if n is None:
        n = len(seq)
    return len(seq) == n and sorted(seq) == list(range(n))


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """(p o q)(i) = p[q[i]]."""
    return tuple([p[i] for i in q])


def inverse(p: Sequence[int]) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def power(p: Sequence[int], k: int) -> Perm:
    if k < 0:
        return power(inverse(p), -k)
    result, base = None, tuple(p)
    while k:
        if k & 1:
            result = base if result is None else compose(base, result)
        k >>= 1
        if k:
            base = compose(base, base)
    return identity(len(p)) if result is None else result


def order(p: Sequence[int]) -> int:
    return math.lcm(*(len(c) for c in cycles(p))) if len(p) else 1


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition, including fixed points as 1-cycles."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def from_cycles(n: int, cycle_list: Iterable[Sequence[int]]) -> Perm:
    """Build a permutation of range(n) from disjoint cycles (0-indexed)."""
    img = list(range(n))
    for cyc in cycle_list:
        for i, a in enumerate(cyc):
            img[a] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


def all_perms(n: int) -> list[Perm]:
    return [tuple(p) for p in _permutations(range(n))]

