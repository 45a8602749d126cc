"""Finitely presented groups: structure presentations, abelianization via
Smith normal form, Todd-Coxeter coset enumeration, the canonical finite
quotient, injectivity testing, and reference group constructions."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from . import perm
from .core import _MEMO, Rack, Solution, is_biquandle, per_input, sd_solutions
from .derived import _quotient_solution, induced_biquandle
from .errors import CosetLimitExceeded, UnknownName
from .words import Word, _rack_degree, degrees, free_reduce

DEFAULT_COSET_CAP = 10**6


@dataclass(frozen=True)
class Presentation:
    generator_count: int
    relators: tuple[Word, ...]
    _memo: dict = field(**_MEMO)


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors >= 2, each dividing the next


@per_input
def structure_presentation(s: Solution) -> Presentation:
    """<X | x y = sigma_x(y) tau_y(x)>, one relator per ordered pair."""
    seen = set()
    relators = []
    for x in range(s.n):
        for y in range(s.n):
            u, v = s.r(x, y)
            w = free_reduce(((x, 1), (y, 1), (v, -1), (u, -1)))
            if w and w not in seen:
                seen.add(w)
                relators.append(w)
    return Presentation(s.n, tuple(relators))


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def _snf_diagonalize(mat: list[list[int]], ncols: int) -> tuple[list[int], list[list[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diagonal entries, V) where V is the accumulated column
    transform: for the input A there are unimodular U, V with U A V diagonal.
    The diagonal is non-negative but not yet a divisibility chain.  Duplicate
    and zero rows are dropped first; they change neither the row lattice nor
    the cokernel.
    """
    a = [list(row) for row in dict.fromkeys(map(tuple, mat)) if any(row)]
    m = len(a)
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    diag = []
    r = 0
    while r < m and r < ncols:
        # locate the entry of smallest absolute value in the working block
        pivot = None
        for i in range(r, m):
            for j in range(r, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[r], a[pi] = a[pi], a[r]
        for row in a:
            row[r], row[pj] = row[pj], row[r]
        for row in v:
            row[r], row[pj] = row[pj], row[r]
        while True:
            # clear the pivot column by row operations
            dirty = False
            for i in range(r + 1, m):
                if a[i][r] != 0:
                    q = a[i][r] // a[r][r]
                    for j in range(r, ncols):
                        a[i][j] -= q * a[r][j]
                    if a[i][r] != 0:  # nonzero remainder becomes new pivot
                        a[r], a[i] = a[i], a[r]
                        dirty = True
            # clear the pivot row by column operations (tracked in V)
            for j in range(r + 1, ncols):
                if a[r][j] != 0:
                    q = a[r][j] // a[r][r]
                    for i in range(m):
                        a[i][j] -= q * a[i][r]
                    for i in range(ncols):
                        v[i][j] -= q * v[i][r]
                    if a[r][j] != 0:
                        for row in a:
                            row[r], row[j] = row[j], row[r]
                        for row in v:
                            row[r], row[j] = row[j], row[r]
                        dirty = True
            if not dirty and all(a[i][r] == 0 for i in range(r + 1, m)) and all(
                a[r][j] == 0 for j in range(r + 1, ncols)
            ):
                break
        if a[r][r] < 0:
            for i in range(m):
                a[i][r] = -a[i][r]
            for i in range(ncols):
                v[i][r] = -v[i][r]
        diag.append(a[r][r])
        r += 1
    return diag, v


def _divisibility_chain(diag: list[int]) -> list[int]:
    """Turn a diagonal into invariant factors d1 | d2 | ... (gcd/lcm passes)."""
    d = [x for x in diag if x != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(d) - 1):
            if d[i + 1] % d[i] != 0:
                g = math.gcd(d[i], d[i + 1])
                d[i], d[i + 1] = g, d[i] * d[i + 1] // g
                changed = True
    return sorted(d)


def smith_invariants(mat: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank of the cokernel Z^ncols / rowspace, invariant factors > 1)."""
    return _cokernel(_snf_diagonalize(mat, ncols)[0], ncols)


def _cokernel(diag: list[int], ncols: int) -> tuple[int, tuple[int, ...]]:
    chain = _divisibility_chain(diag)
    return ncols - len(chain), tuple(x for x in chain if x > 1)


def row_lattice_membership(mat: list[list[int]], ncols: int) -> Callable[[Sequence[int]], bool]:
    """Membership test for the integer row span of mat, from a single SNF."""
    return _membership(_snf_diagonalize(mat, ncols), ncols)


def _membership(snf: tuple, ncols: int) -> Callable[[Sequence[int]], bool]:
    """With U A V = diag(d), a vector lies in the row span of A exactly when
    every entry of vec.V is divisible by the matching d_j (d_j = 0 past the
    diagonal); V does not depend on vec, so every query reuses it.
    """
    diag, v = snf
    divisors = diag + [0] * (ncols - len(diag))

    def contains(vec: Sequence[int]) -> bool:
        for j, d in enumerate(divisors):
            w = sum(vec[i] * v[i][j] for i in range(ncols))
            if (w % d if d else w) != 0:
                return False
        return True

    return contains


def in_row_lattice(mat: list[list[int]], vec: list[int]) -> bool:
    """Whether vec lies in the integer row span of mat."""
    return row_lattice_membership(mat, len(vec))(vec)


def _exponent_matrix(p: Presentation) -> list[list[int]]:
    mat = []
    for w in p.relators:
        row = [0] * p.generator_count
        for g, e in w:
            row[g] += e
        mat.append(row)
    return mat


@per_input
def _relator_snf(p: Presentation) -> tuple[list[int], list[list[int]]]:
    """The diagonalized exponent matrix of p, one SNF per presentation."""
    return _snf_diagonalize(_exponent_matrix(p), p.generator_count)


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group Z^n / relator lattice."""
    return AbelianInvariants(*_cokernel(_relator_snf(p)[0], p.generator_count))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration (trivial subgroup, HLT-style scanning)


class _CosetTable:
    """Coset table over symbols 2g (generator g) and 2g+1 (its inverse)."""

    def __init__(self, ngens: int, cap: int):
        self.nsym = 2 * ngens
        self.cap = cap
        self.table: list[list[int | None]] = [[None] * self.nsym]
        self.p = [0]  # union-find forest for coincidences
        self.queue: deque[int] = deque()

    def alive(self, a: int) -> bool:
        return self.p[a] == a

    def define(self, a: int, x: int) -> None:
        if len(self.table) >= self.cap:
            raise CosetLimitExceeded(self.cap)
        b = len(self.table)
        self.table.append([None] * self.nsym)
        self.p.append(b)
        self.table[a][x] = b
        self.table[b][x ^ 1] = a

    def rep(self, k: int) -> int:
        root = k
        while self.p[root] != root:
            root = self.p[root]
        while self.p[k] != k:
            self.p[k], k = root, self.p[k]
        return root

    def _merge(self, a: int, b: int) -> None:
        a, b = self.rep(a), self.rep(b)
        if a != b:
            lo, hi = min(a, b), max(a, b)
            self.p[hi] = lo
            self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        self._merge(a, b)
        while self.queue:
            e = self.queue.popleft()
            for x in range(self.nsym):
                d = self.table[e][x]
                if d is None:
                    continue
                self.table[d][x ^ 1] = None
                mu, nu = self.rep(e), self.rep(d)
                if self.table[mu][x] is not None:
                    self._merge(nu, self.table[mu][x])
                elif self.table[nu][x ^ 1] is not None:
                    self._merge(mu, self.table[nu][x ^ 1])
                else:
                    self.table[mu][x] = nu
                    self.table[nu][x ^ 1] = mu

    def scan_and_fill(self, a: int, w: list[int]) -> None:
        f, i = a, 0
        b, j = a, len(w) - 1
        while True:
            while i <= j and self.table[f][w[i]] is not None:
                f = self.table[f][w[i]]
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][w[j] ^ 1] is not None:
                b = self.table[b][w[j] ^ 1]
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if i == j:
                self.table[f][w[i]] = b
                self.table[b][w[i] ^ 1] = f
                return
            self.define(f, w[i])


def _word_to_symbols(w: Word) -> list[int]:
    return [2 * g if e > 0 else 2 * g + 1 for g, e in w]


def coset_enumeration(p: Presentation, cap: int = DEFAULT_COSET_CAP) -> list[perm.Perm]:
    """Enumerate cosets of the trivial subgroup.

    Returns the action of each generator on the cosets of the (finite)
    quotient: a list of generator_count permutations, with coset 0 the
    identity coset.
    """
    rel_syms = [_word_to_symbols(w) for w in p.relators]
    ct = _CosetTable(p.generator_count, cap)
    i = 0
    while i < len(ct.table):
        if ct.alive(i):
            for w in rel_syms:
                if not ct.alive(i):
                    break
                ct.scan_and_fill(i, w)
            if ct.alive(i):
                for x in range(ct.nsym):
                    if ct.table[i][x] is None:
                        ct.define(i, x)
        i += 1
    live = [c for c in range(len(ct.table)) if ct.alive(c)]
    index = {c: k for k, c in enumerate(live)}
    actions = []
    for g in range(p.generator_count):
        images = []
        for c in live:
            d = ct.table[c][2 * g]
            assert d is not None
            images.append(index[ct.rep(d)])
        assert perm.is_perm(tuple(images), len(live))
        actions.append(tuple(images))
    # final consistency check: every relator closes at every coset
    sym_actions = [act for a in actions for act in (a, perm.inverse(a))]
    for w in rel_syms:
        for c in range(len(live)):
            cur = c
            for x in w:
                cur = sym_actions[x][cur]
            assert cur == c
    return actions


# ---------------------------------------------------------------------------
# Finite groups as multiplication tables


@dataclass(frozen=True)
class FiniteGroup:
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

    def quotient(self, normal: frozenset[int]) -> "FiniteGroup":
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
        return FiniteGroup(k, mult, tuple(coset_of[g] for g in self.gen_images))

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


def _abelian_group_invariants(g: FiniteGroup) -> tuple[int, ...]:
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


def group_from_actions(actions: list[perm.Perm]) -> FiniteGroup:
    """The group whose regular representation is a transitive coset action.

    Coset 0 is the identity; each coset is the image of 0 under a unique
    group element, recovered as a word in the generators by breadth-first
    search, so mult[i][j] traces j's word starting from coset i.
    """
    ncos = len(actions[0]) if actions else 1
    inv_actions = [perm.inverse(a) for a in actions]
    word: list[list[tuple[int, int]] | None] = [None] * ncos
    word[0] = []
    frontier = [0]
    while frontier:
        nxt = []
        for c in frontier:
            for g, act in enumerate(actions):
                for d, sign in ((act[c], 1), (inv_actions[g][c], -1)):
                    if word[d] is None:
                        word[d] = word[c] + [(g, sign)]
                        nxt.append(d)
        frontier = nxt
    assert all(w is not None for w in word)

    def trace(start: int, w: list[tuple[int, int]]) -> int:
        for g, sign in w:
            start = actions[g][start] if sign > 0 else inv_actions[g][start]
        return start

    mult = tuple(
        tuple(trace(i, word[j]) for j in range(ncos)) for i in range(ncos)
    )
    gen_images = tuple(act[0] for act in actions)
    return FiniteGroup(ncos, mult, gen_images)


# ---------------------------------------------------------------------------
# Finite quotients of structure groups


@per_input
def finite_quotient(
    s: Solution, coset_cap: int = DEFAULT_COSET_CAP
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The canonical finite quotient of the structure group.

    Quotients by the normal subgroup generated by the twisted powers
    y^[d_y].  Non-biquandle inputs are first replaced by their induced
    biquandle, which leaves the structure group unchanged; the generator
    map is pre-composed with the quotient surjection.
    """
    if not is_biquandle(s):
        bq, proj = induced_biquandle(s)
        fg, iota = finite_quotient(bq, coset_cap)
        return fg, tuple(iota[proj[x]] for x in range(s.n))
    pres = structure_presentation(s)
    deg = degrees(s)
    relators = pres.relators + deg.twisted_powers
    actions = coset_enumeration(Presentation(s.n, relators), coset_cap)
    fg = group_from_actions(actions)
    return fg, fg.gen_images


@per_input
def rack_finite_quotient(
    rk: Rack, variant: str = "right", coset_cap: int = DEFAULT_COSET_CAP
) -> FiniteGroup:
    """Finite quotient of a rack's structure group by plain powers x^{D_x}."""
    if variant not in ("right", "left"):
        raise ValueError("variant must be 'right' or 'left'")
    sol = sd_solutions(rk)[0 if variant == "right" else 1]
    pres = structure_presentation(sol)
    power_relators = tuple(
        tuple((x, 1) for _ in range(_rack_degree(rk.rho(x)))) for x in range(rk.n)
    )
    actions = coset_enumeration(
        Presentation(rk.n, pres.relators + power_relators), coset_cap
    )
    return group_from_actions(actions)


def is_injective(
    s: Solution, coset_cap: int = DEFAULT_COSET_CAP
) -> tuple[bool, tuple[tuple[int, ...], ...]]:
    """Whether the generator map into the finite quotient is injective."""
    _, iota = finite_quotient(s, coset_cap)
    blocks: dict[int, list[int]] = {}
    for x in range(s.n):
        blocks.setdefault(iota[x], []).append(x)
    partition = tuple(tuple(b) for b in sorted(blocks.values()))
    return len(partition) == s.n, partition


def induced_injective_solution(s: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient solution on classes of generators with equal quotient image."""
    _, iota = finite_quotient(s)
    result, class_of = _quotient_solution(s, list(iota))
    assert is_injective(result)[0]
    return result, class_of


def permutation_image(s: Solution) -> tuple[int, int]:
    """Order of the permutation group generated by the paired actions
    (tau_x on one copy of X, sigma_x on another); equals the index of the
    connected kernel Z0 in the structure group."""
    n = s.n
    gens = [
        tuple(list(s.tau[x]) + [n + v for v in s.sigma[x]]) for x in range(n)
    ]
    order = len(perm.closure(gens))
    return order, order


# ---------------------------------------------------------------------------
# Reference groups


def _table_from_elements(elements: list, op) -> FiniteGroup:
    index = {e: i for i, e in enumerate(elements)}
    mult = tuple(
        tuple(index[op(a, b)] for b in elements) for a in elements
    )
    return FiniteGroup(len(elements), mult)


def _cyclic(m: int) -> FiniteGroup:
    return _table_from_elements(list(range(m)), lambda a, b: (a + b) % m)


def _elementary_abelian(p: int, k: int) -> FiniteGroup:
    elements = sorted(itertools.product(range(p), repeat=k))
    elements.remove(tuple([0] * k))
    elements.insert(0, tuple([0] * k))
    return _table_from_elements(
        elements, lambda a, b: tuple((ai + bi) % p for ai, bi in zip(a, b))
    )


def _dihedral(order: int) -> FiniteGroup:
    if order % 2 != 0 or order < 2:
        raise UnknownName(f"dihedral groups have even order, got {order}")
    m = order // 2

    def op(a, b):
        i, si = a
        j, sj = b
        return ((i + (j if si == 0 else -j)) % m, si ^ sj)

    elements = [(i, s) for s in (0, 1) for i in range(m)]
    return _table_from_elements(elements, op)


def _symmetric(m: int) -> FiniteGroup:
    elements = sorted(itertools.permutations(range(m)))
    return _table_from_elements(elements, perm.compose)


def _gl23() -> FiniteGroup:
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


def _direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
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
    return FiniteGroup(order, mult)


def reference_group(name: str) -> FiniteGroup:
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
