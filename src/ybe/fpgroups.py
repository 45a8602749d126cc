"""Finitely presented groups: structure presentations, abelianization via
Smith normal form, Todd-Coxeter coset enumeration, the canonical finite
quotient and injectivity testing.

A finite quotient is held as its generators' action on its cosets; its
fingerprint and the verdicts read that action and the quotient's own
presentation, and the multiplication table is built only to be printed."""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from . import perm
from .core import _MEMO, Rack, Solution, is_biquandle, per_input, sd_solutions
from .derived import _quotient_solution, induced_biquandle
from .errors import CosetLimitExceeded
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
        # locate the first entry of smallest absolute value in the working
        # block; nothing beats a unit, so the scan stops at the first one
        pivot, best = None, 0
        for i in range(r, m):
            for j in range(r, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < best):
                    pivot, best = (i, j), abs(a[i][j])
            if best == 1:
                break
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
    """Membership test for the integer row span of mat, from a single SNF.

    With U A V = diag(d), a vector lies in the row span of A exactly when
    every entry of vec.V is divisible by the matching d_j (d_j = 0 past the
    diagonal); V does not depend on vec, so every query reuses it.
    """
    diag, v = _snf_diagonalize(mat, ncols)
    divisors = diag + [0] * (ncols - len(diag))

    def contains(vec: Sequence[int]) -> bool:
        for j, d in enumerate(divisors):
            w = sum(vec[i] * v[i][j] for i in range(ncols))
            if (w % d if d else w) != 0:
                return False
        return True

    return contains


def _generator_keys(snf: tuple, ncols: int) -> list[tuple[int, ...]]:
    """The image of each basis vector e_x in the cokernel, as a key: with
    U A V = diag(d), e_x maps to V[x] reduced mod each d_j (kept whole where
    d_j = 0), so e_y - e_x lies in the row span of A exactly when the keys
    of x and y are equal.
    """
    diag, v = snf
    divisors = diag + [0] * (ncols - len(diag))
    return [tuple(c % d if d else c for c, d in zip(row, divisors)) for row in v]


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
# Finite groups as regular coset actions (Holt, Eick and O'Brien, Handbook of
# Computational Group Theory, 2005, chapters 4 and 5)


@dataclass(frozen=True)
class FiniteGroup:
    """The finite group of `presentation`, held as the action of its
    generators on its own elements, the cosets of the trivial subgroup.

    Coset c is the element g_c with 0.g_c = c, so coset 0 is the identity and
    actions[x] is right multiplication by generator x.  A breadth-first
    Schreier tree from coset 0 spells each g_c as a word in the generators;
    products, inverses and orders are traced along the actions, and the
    N x N table `mult` is built only when it is asked for.
    """

    actions: tuple[perm.Perm, ...]
    presentation: Presentation

    @cached_property
    def order(self) -> int:
        return len(self.actions[0]) if self.actions else 1

    @cached_property
    def gen_images(self) -> tuple[int, ...]:
        return tuple(act[0] for act in self.actions)

    @cached_property
    def _symbols(self) -> tuple[perm.Perm, ...]:
        """Right multiplication by symbol 2x (generator x) and 2x+1 (its inverse)."""
        return tuple(a for act in self.actions for a in (act, perm.inverse(act)))

    @cached_property
    def _tree(self) -> tuple[list[int], list[int], list[int]]:
        """(the cosets in breadth-first order, the parent of each coset in
        the tree, and the symbol on the edge from that parent)."""
        parent, edge = [-1] * self.order, [-1] * self.order
        parent[0] = 0
        bfs = [0]
        for c in bfs:
            for s, act in enumerate(self._symbols):
                d = act[c]
                if parent[d] < 0:
                    parent[d], edge[d] = c, s
                    bfs.append(d)
        return bfs, parent, edge

    def _word(self, c: int) -> list[int]:
        """The symbols of g_c, from coset 0 down the tree to c."""
        _, parent, edge = self._tree
        word = []
        while c:
            word.append(edge[c])
            c = parent[c]
        return word[::-1]

    def _trace(self, c: int, word: list[int]) -> int:
        for s in word:
            c = self._symbols[s][c]
        return c

    def mul(self, a: int, b: int) -> int:
        return self._trace(a, self._word(b))

    def inv(self, a: int) -> int:
        # g_a^-1 spells the word of g_a backwards, each symbol inverted
        return self._trace(0, [s ^ 1 for s in reversed(self._word(a))])

    def element_order(self, a: int) -> int:
        word, k, c = self._word(a), 1, a
        while c:
            c = self._trace(c, word)
            k += 1
        return k

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors of the abelianization: the cokernel of the
        relators' exponent matrix, finite and of order dividing the group's."""
        p = self.presentation
        free_rank, torsion = _cokernel(_relator_snf(p)[0], p.generator_count)
        if free_rank or self.order % math.prod(torsion):
            raise ValueError("the presentation does not present this coset action")
        return torsion

    @property
    def is_abelian(self) -> bool:
        return math.prod(self.abelian_invariants) == self.order

    @cached_property
    def fingerprint(self) -> tuple:
        """(order, abelian invariants, element orders, centre order, derived
        subgroup order, conjugacy class sizes).

        The left multiplication c -> x.g_c by a generator x is filled in down
        the tree, as x.g_c = (x.g_parent).s for the edge symbol s.  g_c is
        central when x.g_c = g_c.x for every generator x.  Since x.g and g.x
        are conjugate, joining the two for every g and x gives the conjugacy
        classes, and an element order is traced once per class.  The derived
        subgroup has index |abelianization|.
        """
        bfs, parent, edge = self._tree
        n, sym = self.order, self._symbols
        central = [True] * n
        root = list(range(n))  # union-find forest; a root is its class's least coset

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = root[root[c]]
                c = root[c]
            return c

        for act in self.actions:
            left = [act[0]] * n
            for c in bfs[1:]:
                left[c] = sym[edge[c]][left[parent[c]]]
            for c in range(n):
                if left[c] != act[c]:
                    central[c] = False
                    a, b = find(left[c]), find(act[c])
                    root[max(a, b)] = min(a, b)
        classes = Counter(find(c) for c in range(n))
        orders = []
        for c, size in classes.items():
            orders += [self.element_order(c)] * size
        ab = self.abelian_invariants
        return (
            n,
            ab,
            tuple(sorted(orders)),
            sum(central),
            n // math.prod(ab),
            tuple(sorted(classes.values())),
        )

    @cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table: mult[a][b] is the coset of g_a.g_b.

        Column b is right multiplication by g_b, composed down the tree.
        """
        bfs, parent, edge = self._tree
        columns = [perm.identity(self.order)] * self.order
        for c in bfs[1:]:
            columns[c] = perm.compose(self._symbols[edge[c]], columns[parent[c]])
        return tuple(zip(*columns))


def group_from_actions(actions: Sequence[perm.Perm], presentation: Presentation) -> FiniteGroup:
    """The group of a presentation from its generators' transitive action on
    the cosets of the trivial subgroup, coset 0 being the identity."""
    return FiniteGroup(tuple(actions), presentation)


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
    quotient = Presentation(s.n, structure_presentation(s).relators + degrees(s).twisted_powers)
    fg = group_from_actions(coset_enumeration(quotient, coset_cap), quotient)
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
    quotient = Presentation(rk.n, pres.relators + power_relators)
    return group_from_actions(coset_enumeration(quotient, coset_cap), quotient)


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
    return _quotient_solution(s, list(finite_quotient(s)[1]))
