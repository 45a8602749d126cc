"""Finitely presented groups: structure presentations, abelianization via
Smith normal form, Todd-Coxeter coset enumeration, the canonical finite
quotient and injectivity testing.

When a presentation has a pure power relator g^k, as the quotients of racks
and self-distributive solutions do, Ḡ is first enumerated over the cosets of
<g>.  With m of them, |Ḡ| <= m k; when g acts on them with order k, the
action is faithful and certifies |Ḡ| = m k (the proof is in
coset_enumeration), and for m <= 256 a breadth-first search of that
permutation group, one bytes.translate per edge, gives the regular action.
Otherwise Felsch enumerates the cosets of the trivial subgroup.

A finite quotient is held as its generators' action on its cosets; its
fingerprint and the verdicts read that action and the quotient's own
presentation, and the multiplication table is built only to be printed."""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Iterable, Sequence
from functools import cached_property

from . import perm
from .core import BYTE_BOUND, Frozen, Rack, Solution, is_biquandle, per_input, sd_solutions, solution_orbits
from .derived import _quotient_solution, induced_biquandle
from .errors import CosetLimitExceeded, InvariantViolation
from .words import Word, _rack_degree, degrees, free_reduce

DEFAULT_COSET_CAP = 10**6
_POWER_LIVE = 16 * BYTE_BOUND  # live cosets of <g> at most; past them _felsch runs instead


class Presentation(Frozen):
    """<generators | relators>.  `implied` lists further relators that hold
    in this group by a theorem; coset enumeration checks them at the end
    but does not enumerate over them."""

    generator_count: int
    relators: tuple[Word, ...]
    implied: tuple[Word, ...] = ()
    _memo: dict


class AbelianInvariants(Frozen):
    free_rank: int
    torsion: tuple[int, ...]  # invariant factors >= 2, each dividing the next


def _pair_relators(s: Solution, pairs: Iterable[tuple[int, int]]) -> dict[Word, None]:
    """The distinct nontrivial relators x y = sigma_x(y) tau_y(x) of the
    pairs.  Each letter (g, +-1) is one shared tuple, so the n^2 relators of
    a structure presentation hold 2n letter tuples between them."""
    pos = [(g, 1) for g in range(s.n)]
    neg = [(g, -1) for g in range(s.n)]
    relators = {}
    for x, y in pairs:
        u, v = s.r(x, y)
        relators[free_reduce((pos[x], pos[y], neg[v], neg[u]))] = None
    relators.pop((), None)
    return relators


@per_input
def structure_presentation(s: Solution) -> Presentation:
    """<X | x y = sigma_x(y) tau_y(x)>, one relator per ordered pair."""
    pairs = ((x, y) for x in range(s.n) for y in range(s.n))
    return Presentation(s.n, tuple(_pair_relators(s, pairs)))


# ---------------------------------------------------------------------------
# Smith normal form over the integers


def _snf_diagonalize(mat: list[list[int]], ncols: int) -> list[int]:
    """The invariant factors d1 | d2 | ... of A: the positive diagonal of
    U A V for unimodular U, V, found by row and column operations on A.
    Duplicate and zero rows are dropped first; they change neither the row
    lattice nor the cokernel.

    Each round moves an entry p of least |value| in the working block to
    (r, r) and divides it into its column, then into its row; once the
    column is clear, the column operations change only row r.  If |p| > 1
    fails to divide an entry left in the block, that entry's row is added
    to row r, by then p e_r.  A nonzero remainder is smaller than |p| and
    starts the next round, so the rounds end.  A finished round leaves only
    multiples of p in the block, so every later pivot is one: d_i | d_(i+1).
    """
    a = [list(row) for row in dict.fromkeys(map(tuple, mat)) if any(row)]
    m = len(a)
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
        if pj != r:
            for row in a[r:]:
                row[r], row[pj] = row[pj], row[r]
        p, top = a[r][r], a[r]
        # clear the pivot column by row operations
        for row in a[r + 1:]:
            q = row[r] // p
            if q:
                for j in range(r, ncols):
                    row[j] -= q * top[j]
        if any(row[r] for row in a[r + 1:]):
            continue
        # clear the pivot row by column operations; rows other than r are
        # now zero in column r, so only row r changes
        for j in range(r + 1, ncols):
            top[j] %= p
        if any(top[r + 1:]):
            continue
        if abs(p) > 1:
            bad = next((row for row in a[r + 1:] if any(x % p for x in row[r + 1:])), None)
            if bad is not None:
                top[r + 1:] = bad[r + 1:]
                continue
        diag.append(abs(p))
        r += 1
    return diag


def smith_invariants(mat: list[list[int]], ncols: int) -> tuple[int, tuple[int, ...]]:
    """(free rank of the cokernel Z^ncols / rowspace, invariant factors > 1)."""
    return _cokernel(_snf_diagonalize(mat, ncols), ncols)


def _cokernel(diag: list[int], ncols: int) -> tuple[int, tuple[int, ...]]:
    return ncols - len(diag), tuple(x for x in diag if x > 1)


def in_row_lattice(mat: list[list[int]], vec: list[int]) -> bool:
    """Whether vec lies in the integer row span L of mat: exactly when adding
    it as a row leaves the cokernel's invariants unchanged.  Z^n/L maps onto
    Z^n/(L + vec); if the two are isomorphic, that surjection is one of a
    finitely generated abelian group onto itself, hence injective (such
    groups are Hopfian), so vec already lies in L."""
    n = len(vec)
    return smith_invariants(mat + [vec], n) == smith_invariants(mat, n)


def _exponent_matrix(p: Presentation) -> list[list[int]]:
    mat = []
    for w in p.relators:
        row = [0] * p.generator_count
        for g, e in w:
            row[g] += e
        mat.append(row)
    return mat


@per_input
def _relator_snf(p: Presentation) -> list[int]:
    """The invariant factors of p's exponent matrix, one per presentation."""
    return _snf_diagonalize(_exponent_matrix(p), p.generator_count)


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariant factors of the abelianized group Z^n / relator lattice."""
    return AbelianInvariants(*_cokernel(_relator_snf(p), p.generator_count))


# ---------------------------------------------------------------------------
# Todd-Coxeter coset enumeration over the trivial subgroup, Felsch strategy
# (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
# sections 5.1-5.2; Havas, ISSAC 1991)


def _word_to_symbols(w: Word) -> list[int]:
    return [2 * g if e > 0 else 2 * g + 1 for g, e in w]


@per_input
def _relator_cycles(p: Presentation) -> tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]:
    """For each symbol x, the distinct cyclic conjugates w = x u that begin
    with x of the relators and their inverses, each relator cyclically
    reduced first, as pairs (u, w^-1).

    A relator holds at every coset exactly when each of its cyclic
    conjugates does.
    """
    cycles: list[dict] = [{} for _ in range(2 * p.generator_count)]
    for w in p.relators:
        syms = _word_to_symbols(w)
        while len(syms) > 1 and syms[0] == syms[-1] ^ 1:
            syms = syms[1:-1]
        inv, n = [x ^ 1 for x in reversed(syms)], len(syms)
        for word, other in ((syms, inv), (inv, syms)):
            # the k-th rotation of word is twice[k:k + n]; its inverse is
            # the (n - k)-th rotation of other
            twice, other_twice = word * 2, other * 2
            for k in range(n):
                cycles[word[k]][tuple(twice[k + 1:k + n])] = tuple(other_twice[n - k:2 * n - k])
    return tuple(tuple(c.items()) for c in cycles)


class _CosetTable:
    """A coset table over symbols 2g (generator g) and 2g+1 (its inverse).

    The table is flat, and a coset c is named in it by its row offset
    c * nsym: row c sends symbol x to table[c * nsym + x], the offset of the
    image coset, or -1 while undefined.  p is the union-find forest of
    coincidences, over coset numbers.  Every entry set since it was last
    scanned waits on `deductions` as its index c * nsym + x.
    """

    def __init__(self, p: Presentation, cap: int):
        self.nsym = 2 * p.generator_count
        self.cycles = _relator_cycles(p)
        self.cap = cap
        self.blank = [-1] * self.nsym
        self.table = list(self.blank)
        self.p = [0]
        self.live = 1
        self.deductions: list[int] = []
        self.queue: deque[int] = deque()

    def define(self, a: int, x: int) -> None:
        """A new coset as the image of offset a under symbol x."""
        if self.live >= self.cap:
            raise CosetLimitExceeded(self.cap, len(self.p), self.live)
        self.p.append(len(self.p))
        self.live += 1
        b = len(self.table)
        self.table += self.blank
        self._set(a, x, b)

    def _set(self, a: int, x: int, b: int) -> None:
        """Set a.x = b and b.x^-1 = a (offsets), and queue the entry."""
        self.table[a + x] = b
        self.table[b + (x ^ 1)] = a
        self.deductions.append(a + x)

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
            self.live -= 1
            self.queue.append(hi)

    def coincidence(self, a: int, b: int) -> None:
        """Identify the cosets at offsets a and b, and every pair this
        forces; the surviving coset is the least, and each entry it takes
        over from a dead one is queued for scanning."""
        t, nsym = self.table, self.nsym
        self._merge(a // nsym, b // nsym)
        while self.queue:
            e = self.queue.popleft()
            for x in range(nsym):
                d = t[e * nsym + x]
                if d < 0:
                    continue
                t[d + (x ^ 1)] = -1
                mu, nu = self.rep(e), self.rep(d // nsym)
                if t[mu * nsym + x] >= 0:
                    self._merge(nu, t[mu * nsym + x] // nsym)
                elif t[nu * nsym + (x ^ 1)] >= 0:
                    self._merge(mu, t[nu * nsym + (x ^ 1)] // nsym)
                else:
                    self._set(mu * nsym, x, nu * nsym)

    def fill(self) -> None:
        """Felsch: define the first undefined entry, then scan every relator
        cycle through each new entry before the next definition."""
        t, p, nsym = self.table, self.p, self.nsym
        self.process_deductions()
        c = 0
        while c < len(p):
            for x in range(nsym):
                if p[c] != c:
                    break
                if t[c * nsym + x] < 0:
                    self.define(c * nsym, x)
                    self.process_deductions()
            c += 1

    def process_deductions(self) -> None:
        """Scan the relator cycles through each queued entry a.x = b, while
        a is live: those that begin with x, traced from b after their first
        letter, and backwards from a along their inverse.  If the traces
        meet, their ends coincide; if one entry is missing between them, it
        is deduced.  Nothing is defined.

        The cycles are closed under inversion, so these scans follow every
        closed relator path through the edge from a to b, in both
        directions; the cycles that begin with x^-1 need no scan at b.
        """
        t, p, nsym, cycles, stack = self.table, self.p, self.nsym, self.cycles, self.deductions
        while stack:
            e = stack.pop()
            c, x = divmod(e, nsym)
            if p[c] != c:
                continue
            a = e - x
            for tail, back in cycles[x]:
                f, i = t[e], 0
                for s in tail:
                    d = t[f + s]
                    if d < 0:
                        break
                    f, i = d, i + 1
                else:
                    if f != a:
                        self.coincidence(f, a)
                        if p[c] != c:
                            break
                    continue
                b, j = a, len(tail) - 1
                for s in back:
                    d = t[b + s]
                    if d < 0:
                        break
                    b, j = d, j - 1
                    if j < i:
                        # b.tail[i] leads back to where f.tail[i] must lead
                        self.coincidence(f, b)
                        break
                if j == i:
                    self._set(f, tail[i], b)
                elif j < i and p[c] != c:
                    break


def coset_enumeration(p: Presentation, cap: int = DEFAULT_COSET_CAP) -> list[perm.Perm]:
    """Enumerate the cosets of the trivial subgroup, at most `cap` live at once.

    Returns the action of each generator on the cosets of the (finite)
    quotient: a list of generator_count permutations.  The cosets are in
    standard order: breadth-first from the identity coset 0 over the
    symbols g0, g0^-1, g1, g1^-1, ..., so the result depends only on the
    group and its generators, not on how the table was filled.

    When a relator is a pure power g^k (the first one), the cosets of
    H = <g> are enumerated first (_power_action).  The completed table is
    Ḡ's action on its m = [Ḡ:H] cosets of H: every relator holds on it, so
    its image G' is a quotient of Ḡ; G' is transitive, and the stabilizer
    of coset 0 is the image <g'> of H, g' the permutation by which g acts,
    so |G'| = m ord(g').  And |Ḡ| = m |H| <= m k, as g^k is a relator.  So
    when ord(g') = k, |G'| = m k >= |Ḡ| >= |G'|: the action is faithful and
    G' is Ḡ.  A breadth-first search of G' from the identity over the
    symbols in standard order then numbers Ḡ's elements, coset c being the
    element reached c-th, and right multiplication by each generator is the
    regular action.  Otherwise (m > 256, or ord(g') < k) _felsch enumerates
    the cosets of the trivial subgroup directly.
    """
    power = next((w for w in p.relators if len(set(w)) == 1), None)
    if power is not None:
        action = _power_action(p, power[0][0], len(power), cap)
        if action is not None:
            return action
    return _felsch(p, cap)


def _closed_action(p: Presentation, ct: _CosetTable) -> list[perm.Perm]:
    """Each symbol's action on the live cosets of the filled table `ct`,
    renumbered breadth-first from coset 0 over the symbols in order, after
    the closing check: every entry is defined, each generator acts as a
    permutation and every relator fixes every coset."""
    t, nsym = ct.table, ct.nsym
    new = [-1] * len(ct.p)
    new[0] = 0
    order = [0]
    for c in order:
        for d in t[c * nsym:(c + 1) * nsym]:
            if d < 0:
                raise InvariantViolation(f"coset {c} has an undefined entry")
            d //= nsym
            if new[d] < 0:
                new[d] = len(order)
                order.append(d)
    sym = [tuple(new[t[c * nsym + x] // nsym] for c in order) for x in range(nsym)]
    ident = list(range(len(order)))
    for g in range(p.generator_count):
        if list(map(sym[2 * g + 1].__getitem__, sym[2 * g])) != ident:
            raise InvariantViolation(f"generator {g} does not act as a permutation")
    for w in p.relators:
        cur = ident
        for x in _word_to_symbols(w):
            cur = list(map(sym[x].__getitem__, cur))
        if cur != ident:
            raise InvariantViolation(f"relator {w} fails on the coset table")
    return sym


def _felsch(p: Presentation, cap: int) -> list[perm.Perm]:
    """coset_enumeration over the trivial subgroup, by the Felsch strategy
    (_CosetTable.fill), with the closing check of _closed_action.

    The relators in p.implied are traced at coset 0 only: the table of the
    enumerated relators is the regular action, coset c being the element
    g_c, so a word fixes c exactly when it is trivial, exactly when it
    fixes 0.
    """
    ct = _CosetTable(p, cap)
    ct.fill()
    sym = _closed_action(p, ct)
    for w in p.implied:
        c = 0
        for x in _word_to_symbols(w):
            c = sym[x][c]
        if c:
            raise InvariantViolation(f"implied relator {w} fails at the identity coset")
    return sym[::2]


def _power_action(p: Presentation, g: int, k: int, cap: int) -> list[perm.Perm] | None:
    """coset_enumeration from the m cosets of <g>, g^k being a relator of p,
    when they certify |Ḡ| = m k; else None.

    Felsch enumerates them with the one seeded entry 0.g = 0, at most
    _POWER_LIVE cosets live, and each symbol's action on them becomes a
    byte row padded to a translate table.  An element of G' is held as its
    images of a base, a set of points that only the identity fixes.  g'^j
    fixes a point exactly when the length of the point's cycle divides j.
    So 0 and one point of each cycle of g' that raises the lcm of the
    lengths are a base: an element fixing 0 lies in <g'>, the stabilizer of
    0, and the power of g' that fixes the other points is a power of the
    lcm, ord(g').  The implied relators are checked at the identity, the
    base itself, as _felsch checks them at coset 0.

    The search keeps only the generator columns; the inverse symbols are
    followed for the order alone.  It must reach exactly m k elements,
    which checks that the stabilizer of coset 0 is <g'>.  A certified order
    above `cap` raises CosetLimitExceeded, as a search stopped at element
    cap + 1 would, with cap cosets defined and live.
    """
    ct = _CosetTable(p, min(cap, _POWER_LIVE))
    ct._set(0, 2 * g, 0)
    try:
        ct.fill()
    except CosetLimitExceeded:
        return None
    if ct.live > BYTE_BOUND:
        return None
    sym = _closed_action(p, ct)
    m = len(sym[0])
    base, lcm = [0], 1
    for cyc in perm.cycles(sym[2 * g]):
        if lcm % len(cyc):
            base.append(cyc[0])
            lcm = math.lcm(lcm, len(cyc))
    if lcm != k:
        return None
    pad = bytes(range(m, BYTE_BOUND))
    rows = [bytes(s) + pad for s in sym]
    ident = bytes(base)
    for w in p.implied:
        cur = ident
        for x in _word_to_symbols(w):
            cur = cur.translate(rows[x])
        if cur != ident:
            raise InvariantViolation(f"implied relator {w} fails at the identity coset")
    order = m * k
    if order > cap:
        raise CosetLimitExceeded(cap, cap, cap)
    # the coset numbers are made before the search, so that no int the
    # columns keep shares heap with the keys that the search frees
    numbers = list(range(order))
    index = {ident: 0}
    elements = [ident]
    columns = [[0] * order for _ in range(p.generator_count)]
    gens = list(zip(columns, rows[::2], rows[1::2]))
    try:
        for c, e in enumerate(elements):
            for col, fwd, back in gens:
                f = e.translate(fwd)
                i = index.get(f)
                if i is None:
                    i = index[f] = numbers[len(elements)]
                    elements.append(f)
                col[c] = i
                b = e.translate(back)
                if b not in index:
                    index[b] = numbers[len(elements)]
                    elements.append(b)
    except IndexError:
        raise InvariantViolation(f"the coset action has more than {order} elements") from None
    if len(elements) != order:
        raise InvariantViolation(f"the coset action has {len(elements)} elements, not {order}")
    del index, elements
    return [tuple(col) for col in columns]


# ---------------------------------------------------------------------------
# Finite groups as regular coset actions (Holt, Eick and O'Brien, Handbook of
# Computational Group Theory, 2005, chapters 4 and 5)


class FiniteGroup(Frozen):
    """The finite group of `presentation`, held as the action of its
    generators on its own elements, the cosets of the trivial subgroup.

    Coset c is the element g_c with 0.g_c = c, so coset 0 is the identity and
    actions[x] is right multiplication by generator x.  A breadth-first
    Schreier tree from coset 0 over the generators spells each g_c as a
    positive word (in a finite group g^-1 = g^(ord g - 1)), so no inverse
    table is built; the N x N table `mult` is built only when asked for.
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
    def _tree(self) -> tuple[list[int], list[int], list[perm.Perm]]:
        """(the cosets in breadth-first order, the parent of each coset in
        the tree, and the action of the generator on the edge from it)."""
        parent, edge = [-1] * self.order, [()] * self.order
        parent[0] = 0
        bfs = [0]
        for c in bfs:
            for act in self.actions:
                d = act[c]
                if parent[d] < 0:
                    parent[d], edge[d] = c, act
                    bfs.append(d)
        return bfs, parent, edge

    def element_order(self, a: int) -> int:
        """The order of g_a: the least k >= 1 with 0.g_a^k = 0, along its tree word."""
        _, parent, edge = self._tree
        word, c = [], a
        while c:  # the generators of g_a, from a up the tree to coset 0
            word.append(edge[c])
            c = parent[c]
        k, c = 1, a
        while c:
            for act in reversed(word):
                c = act[c]
            k += 1
        return k

    @cached_property
    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors of the abelianization: the cokernel of the
        relators' exponent matrix, finite and of order dividing the group's."""
        ab = abelianization(self.presentation)
        if ab.free_rank or self.order % math.prod(ab.torsion):
            raise InvariantViolation("the presentation does not present this coset action")
        return ab.torsion

    @property
    def is_abelian(self) -> bool:
        return math.prod(self.abelian_invariants) == self.order

    @cached_property
    def fingerprint(self) -> tuple:
        """(order, abelian invariants, element orders, centre order, derived
        subgroup order, conjugacy class sizes).

        The left multiplication c -> x.g_c by a generator x is filled in down
        the tree, as x.g_c = (x.g_parent).s for the edge generator s.  g_c is
        central when x.g_c = g_c.x for every generator x.  Since x.g and g.x
        are conjugate, joining the two for every g and x gives the conjugacy
        classes, and an element order is traced once per class.  The derived
        subgroup has index |abelianization|.
        """
        bfs, parent, edge = self._tree
        n = self.order
        # the tree's edges in breadth-first order, so that each fill reads them in sequence
        steps = bfs[1:], [parent[c] for c in bfs[1:]], [edge[c] for c in bfs[1:]]
        central = [True] * n
        root = list(range(n))  # union-find forest; a root is its class's least coset

        def find(c: int) -> int:
            while root[c] != c:
                root[c] = root[root[c]]
                c = root[c]
            return c

        for act in self.actions:
            left = [act[0]] * n
            for c, p, s in zip(*steps):
                left[c] = s[left[p]]
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
            columns[c] = perm.compose(edge[c], columns[parent[c]])
        return tuple(zip(*columns))


def group_from_actions(actions: Sequence[perm.Perm], presentation: Presentation) -> FiniteGroup:
    """The group of a presentation from its generators' transitive action on
    the cosets of the trivial subgroup, coset 0 being the identity."""
    return FiniteGroup(tuple(actions), presentation)


# ---------------------------------------------------------------------------
# Finite quotients of structure groups


def _rack_generators(rho: Sequence[perm.Perm]) -> list[int]:
    """A generating set of the rack with right translations rho[y] = (x ->
    x < y), chosen greedily: y joins when the subrack generated by the
    earlier choices misses it.  A finite subrack is closed under < alone,
    since each x <^-1 y is a power of rho[y] applied to x.
    """
    inside = [False] * len(rho)
    members: list[int] = []
    gens = []
    done = 0
    for y in range(len(rho)):
        if inside[y]:
            continue
        gens.append(y)
        inside[y] = True
        members.append(y)
        # each new member e is combined with every member before it, both ways
        while done < len(members):
            e = members[done]
            done += 1
            for c in members[:done]:
                for z in (rho[e][c], rho[c][e]):
                    if not inside[z]:
                        inside[z] = True
                        members.append(z)
    return gens


def _quotient_presentation(s: Solution, powers: tuple[Word, ...]) -> Presentation:
    """The structure presentation of s with the relators `powers` added,
    powers[y] being the one of generator y.

    For a self-distributive s only the relators of the pairs through a
    generating set S of the structure rack, and one power per orbit of that
    rack, are enumerated; the others follow from them and are kept in
    `implied`.

    sigma = id: the relators read x y = y (x < y), with x < y = tau_y(x)
    the structure rack.  Let R_y be those with second letter y, that is
    x^y = x < y for every x, where x^y = y^-1 x y.  If R_y and R_z hold,
    so do R_(y<z) and R_(y<^-1 z): R_z gives y < z = y^z and
    x^(z^-1) = x <^-1 z, and right self-distributivity gives

        x^(y<z) = ((x^(z^-1))^y)^z = ((x <^-1 z) < y) < z = x < (y < z),
        x^(y<^-1 z) = ((x^z)^y)^(z^-1) = ((x < z) < y) <^-1 z = x < (y <^-1 z).

    So R_y holds for every y in the subrack generated by S, which is X.

    tau = id: the relators read x y = sigma_x(y) x.  Reversing every word
    is an anti-automorphism of the free group; it maps the normal closure
    of a set of relators onto that of their reversals, which read
    y x = x (y < x) with y < x = sigma_x(y), a right rack.  That is the
    case above, its R_x being the reversed relators with first letter x.
    So the relators with first letter in a generating set S of that rack
    suffice.  Both arguments only need the group to satisfy the kept
    relators, so `powers` may be added to either side.

    Powers: at every call powers[y] is y^d_y, with d_y a function of rho_y
    (d_y = D_y, as T = id), where the rack's right translations rho_y are
    the tau rows or the sigma rows.  As rho_(y<w) = rho_w^-1 rho_y rho_w is
    conjugate to rho_y, d is constant on each orbit; and z = y < w reads
    z = w^-1 y w in the group, so z^d = w^-1 y^d w (for tau = id,
    z = sigma_w(y) = w y w^-1).  So the power of the least point of each
    orbit implies the others.
    """
    full = structure_presentation(s).relators
    n, ident = s.n, perm.identity(s.n)
    if all(row == ident for row in s.sigma):
        pairs = [(x, y) for y in _rack_generators(s.tau) for x in range(n)]
    elif all(row == ident for row in s.tau):
        pairs = [(x, y) for x in _rack_generators(s.sigma) for y in range(n)]
    else:
        return Presentation(n, full + powers)
    kept = _pair_relators(s, pairs)
    orbits = solution_orbits(s)  # with sigma = id or tau = id, the rack's orbits
    implied = [w for w in full if w not in kept]
    implied += [powers[y] for block in orbits for y in block[1:]]
    return Presentation(n, (*kept, *(powers[block[0]] for block in orbits)), tuple(implied))


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
    quotient = _quotient_presentation(s, degrees(s).twisted_powers)
    fg = group_from_actions(coset_enumeration(quotient, coset_cap), quotient)
    return fg, fg.gen_images


@per_input
def rack_finite_quotient(rk: Rack, coset_cap: int = DEFAULT_COSET_CAP) -> FiniteGroup:
    """Finite quotient of a rack's structure group by plain powers x^{D_x}.
    For a quandle, finite_quotient(sd_solutions(rk)[1]) is its left one."""
    sol = sd_solutions(rk)[0]
    power_relators = tuple(
        tuple((x, 1) for _ in range(_rack_degree(rk.rho(x)))) for x in range(rk.n)
    )
    quotient = _quotient_presentation(sol, power_relators)
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
