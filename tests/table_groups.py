"""Finite groups as dense multiplication tables: the test oracle.

A ``TableGroup`` holds an N x N table and reads every invariant from it by
brute force (commutator closure, centre and classes by scanning rows, the
abelianization by counting element orders prime by prime).  ``dense(fg)``
wraps the table of a ``ybe.fpgroups.FiniteGroup``, whose fingerprint comes
from the coset action instead; ``reference_group`` builds explicit small
groups to compare fingerprints against.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property

from ybe import perm
from ybe.errors import UnknownName


@dataclass(frozen=True)
class TableGroup:
    order: int
    mult: tuple[tuple[int, ...], ...]
    gen_images: tuple[int, ...] = field(default=())

    def __post_init__(self):
        assert self.mult[0] == tuple(range(self.order))  # 0 is the identity
        assert all(self.mult[a][0] == a for a in range(self.order))
        rng = random.Random(0)
        for _ in range(min(64, self.order**3)):
            a, b, c = (rng.randrange(self.order) for _ in range(3))
            assert self.mult[self.mult[a][b]][c] == self.mult[a][self.mult[b][c]]
        assert all(0 in row for row in self.mult)  # inverses exist

    @cached_property
    def _inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.mult)

    def inv(self, a: int) -> int:
        return self._inverses[a]

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != 0:
            cur = self.mult[cur][a]
            k += 1
        return k

    def subgroup_closure(self, seeds) -> frozenset[int]:
        seen = {0} | set(seeds)
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(seeds) + [self.inv(a)]:
                    c = self.mult[a][b]
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return frozenset(seen)

    @cached_property
    def derived_subgroup(self) -> frozenset[int]:
        comms = {
            self.mult[self.mult[self.inv(a)][self.inv(b)]][self.mult[a][b]]
            for a in range(self.order)
            for b in range(self.order)
        }
        return self.subgroup_closure(comms)

    @cached_property
    def center_order(self) -> int:
        return sum(
            1
            for a in range(self.order)
            if all(self.mult[a][b] == self.mult[b][a] for b in range(self.order))
        )

    @property
    def is_abelian(self) -> bool:
        return len(self.derived_subgroup) == 1

    def conjugacy_class_sizes(self) -> tuple[int, ...]:
        seen = [False] * self.order
        sizes = []
        for a in range(self.order):
            if seen[a]:
                continue
            cls = {self.mult[self.mult[g][a]][self.inv(g)] for g in range(self.order)}
            for c in cls:
                seen[c] = True
            sizes.append(len(cls))
        return tuple(sorted(sizes))

    def quotient(self, normal: frozenset[int]) -> "TableGroup":
        """Quotient by a normal subgroup, as a new multiplication table."""
        coset_of: dict[int, int] = {}
        reps: list[int] = []
        for a in range(self.order):
            if a in coset_of:
                continue
            idx = len(reps)
            reps.append(a)
            for h in normal:
                coset_of[self.mult[a][h]] = idx
        # force the identity coset to index 0
        if coset_of[0] != 0:
            zero = coset_of[0]
            swap = {zero: 0, 0: zero}
            coset_of = {a: swap.get(c, c) for a, c in coset_of.items()}
            reps[0], reps[zero] = reps[zero], reps[0]
        k = len(reps)
        mult = tuple(
            tuple(coset_of[self.mult[reps[a]][reps[b]]] for b in range(k))
            for a in range(k)
        )
        return TableGroup(k, mult, tuple(coset_of[g] for g in self.gen_images))

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors of the abelianization of this group."""
        ab = self.quotient(self.derived_subgroup)
        return _abelian_group_invariants(ab)

    @cached_property
    def fingerprint(self) -> tuple:
        element_orders = tuple(sorted(self.element_order(a) for a in range(self.order)))
        return (
            self.order,
            self.abelian_invariants,
            element_orders,
            self.center_order,
            len(self.derived_subgroup),
            self.conjugacy_class_sizes(),
        )


def _abelian_group_invariants(g: TableGroup) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group via per-prime order counts.

    For each prime p, the number of elements of order dividing p^k is
    p^(sum_i min(lambda_i, k)) where lambda is the partition of the p-part;
    successive count ratios recover the number of parts >= k.
    """
    assert g.is_abelian
    orders = [g.element_order(a) for a in range(g.order)]
    prime_parts: dict[int, list[int]] = {}
    for p in _prime_factors(g.order):
        parts_ge: list[int] = []  # parts_ge[k-1] = number of parts >= k
        prev = 1
        k = 1
        while True:
            count = sum(1 for o in orders if p**k % o == 0)
            ratio = count // prev
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            if e == 0:
                break
            parts_ge.append(e)
            prev = count
            k += 1
        sizes = []
        for i, cnt in enumerate(parts_ge):
            nxt = parts_ge[i + 1] if i + 1 < len(parts_ge) else 0
            sizes += [i + 1] * (cnt - nxt)
        prime_parts[p] = sorted((p**e for e in sizes), reverse=True)
    nfactors = max((len(v) for v in prime_parts.values()), default=0)
    invariants = []
    for i in range(nfactors):
        d = 1
        for p, powers in prime_parts.items():
            if i < len(powers):
                d *= powers[i]
        invariants.append(d)
    return tuple(sorted(invariants))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Reference groups


def _table_from_elements(elements: list, op) -> TableGroup:
    index = {e: i for i, e in enumerate(elements)}
    mult = tuple(
        tuple(index[op(a, b)] for b in elements) for a in elements
    )
    return TableGroup(len(elements), mult)


def _cyclic(m: int) -> TableGroup:
    return _table_from_elements(list(range(m)), lambda a, b: (a + b) % m)


def _elementary_abelian(p: int, k: int) -> TableGroup:
    elements = sorted(itertools.product(range(p), repeat=k))
    elements.remove(tuple([0] * k))
    elements.insert(0, tuple([0] * k))
    return _table_from_elements(
        elements, lambda a, b: tuple((ai + bi) % p for ai, bi in zip(a, b))
    )


def _dihedral(order: int) -> TableGroup:
    if order % 2 != 0 or order < 2:
        raise UnknownName(f"dihedral groups have even order, got {order}")
    m = order // 2

    def op(a, b):
        i, si = a
        j, sj = b
        return ((i + (j if si == 0 else -j)) % m, si ^ sj)

    elements = [(i, s) for s in (0, 1) for i in range(m)]
    return _table_from_elements(elements, op)


def _symmetric(m: int) -> TableGroup:
    elements = sorted(itertools.permutations(range(m)))
    return _table_from_elements(elements, perm.compose)


def _gl23() -> TableGroup:
    mats = []
    for entries in itertools.product(range(3), repeat=4):
        a, b, c, d = entries
        if (a * d - b * c) % 3 != 0:
            mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats.insert(0, ident)

    def op(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3,
                (c * e + d * g) % 3, (c * f + d * h) % 3)

    return _table_from_elements(mats, op)


def _direct_product(g: TableGroup, h: TableGroup) -> TableGroup:
    order = g.order * h.order

    def pair(a):
        return divmod(a, h.order)

    mult = tuple(
        tuple(
            g.mult[pair(a)[0]][pair(b)[0]] * h.order + h.mult[pair(a)[1]][pair(b)[1]]
            for b in range(order)
        )
        for a in range(order)
    )
    return TableGroup(order, mult)


def reference_group(name: str) -> TableGroup:
    """Explicit small groups used as isomorphism-fingerprint oracles.

    Accepted names: "trivial", "cyclic m", "elementary_abelian p^k",
    "dihedral m" (m = order), "symmetric m", "GL(2,3)", and direct products
    joined with " x ".  The semidirect products occurring in practice
    (e.g. a cyclic group of order 4 extended by an inverting involution)
    are dihedral and should be requested as such.
    """
    name = name.strip()
    if " x " in name:
        parts = name.split(" x ")
        g = reference_group(parts[0])
        for part in parts[1:]:
            g = _direct_product(g, reference_group(part))
        return g
    if name == "trivial":
        return _cyclic(1)
    if name == "GL(2,3)":
        return _gl23()
    tokens = name.split()
    try:
        if tokens[0] == "cyclic":
            return _cyclic(int(tokens[1]))
        if tokens[0] == "elementary_abelian":
            p, k = tokens[1].split("^")
            return _elementary_abelian(int(p), int(k))
        if tokens[0] == "dihedral":
            return _dihedral(int(tokens[1]))
        if tokens[0] == "symmetric":
            return _symmetric(int(tokens[1]))
    except (IndexError, ValueError) as exc:
        raise UnknownName(name) from exc
    raise UnknownName(name)


def dense(fg) -> TableGroup:
    """The table oracle of a coset-action group (builds fg.mult)."""
    return TableGroup(fg.order, fg.mult, fg.gen_images)
