"""Structures derived from a solution: structure racks, induced quotients,
retraction tower, cabling, and isomorphism testing.

Every construction here returns a solution or rack by theorem, so each is
built with the plain Solution / Rack constructor and is not validated again;
quotients check only that their classes form a congruence.  Isomorphism
testing compares flattened relabeled tables and builds no objects.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from functools import cached_property
from itertools import permutations

from . import perm
from .core import Frozen, Rack, Solution, Table, per_input, t_map_of
from .errors import SizeTooLarge
from .words import structure_rho, twisted_power

ISO_BOUND = 6  # factorial search cap for canonical forms


class StructureRackPair(Frozen, hide=("solution",)):
    """The structure racks of a solution with its T and Sq maps; the left
    rack and T are built when first read."""

    right: Rack            # x >_r y
    Sq: perm.Perm
    solution: Solution

    @cached_property
    def left(self) -> Table:
        """left[y][x] = y <_r x = sigma_y(sigma^_y^-1(x)) = sigma_y(tau_w(x)),
        w = sigma_x^-1(y), as r(x, w) = (y, tau_w(x)): Soloviev's x < y,
        which is x >_r y by core._ybe_holds, so left is right.op transposed."""
        return tuple(zip(*self.right.op))

    @cached_property
    def T(self) -> perm.Perm:
        return t_map_of(self.solution)


class RetractionTower(Frozen):
    levels: tuple[Solution, ...]
    mp_level: int | None  # None means "not MP"


@per_input
def structure_racks(s: Solution) -> StructureRackPair:
    """Both structure racks of a solution, with the T and Sq maps.

    The right operation is x >_r y = tau_y(tau^_y^{-1}(x)) and the left one
    is y <_r x = sigma_y(sigma^_y^{-1}(x)); T(y) = tau_y^{-1}(y) and
    Sq(x) = x >_r x = x <_r x.  The structure rack of a solution is a rack,
    so its table is not checked again.
    """
    right = Rack(s.n, tuple(zip(*structure_rho(s))))
    return StructureRackPair(right, sq_map(right), s)


def sq_map(rk: Rack) -> perm.Perm:
    """The squaring map x -> x > x; bijective for every rack."""
    return tuple(rk.op[x][x] for x in range(rk.n))


def _quotient_tables(
    tables: Sequence[Table], class_of: Sequence[Hashable]
) -> tuple[list[Table], tuple[int, ...]]:
    """Each table's quotient along the classes, numbered 0..k-1 by first
    occurrence, with the class of each point.

    Raises ValueError unless the classes form a congruence of every table.
    A congruence makes the quotient of a solution a solution, and of a rack
    a rack, so the quotient tables are not validated again: the projection
    X -> X/~ carries each row (and the pair map) onto its quotient, so the
    quotient row is a surjective self-map of a finite set, hence bijective;
    and the Yang-Baxter and self-distributive identities, holding on X, hold
    on X/~ through the surjection.
    """
    number: dict[Hashable, int] = {}
    reps: list[int] = []
    for x, c in enumerate(class_of):
        if c not in number:
            number[c] = len(reps)
            reps.append(x)
    cls = tuple(number[c] for c in class_of)
    quotients = []
    for t in tables:
        q = tuple(tuple(cls[t[a][b]] for b in reps) for a in reps)
        for x, row in enumerate(t):
            if any(q[cls[x]][cls[y]] != cls[v] for y, v in enumerate(row)):
                raise ValueError("the classes are not a congruence")
        quotients.append(q)
    return quotients, cls


def _quotient_solution(s: Solution, class_of: Sequence[Hashable]) -> tuple[Solution, tuple[int, ...]]:
    (sigma, tau), cls = _quotient_tables((s.sigma, s.tau), class_of)
    return Solution(len(sigma), sigma, tau), cls


def _quotient_rack(rk: Rack, class_of: Sequence[Hashable]) -> tuple[Rack, tuple[int, ...]]:
    (op,), cls = _quotient_tables((rk.op,), class_of)
    return Rack(len(op), op), cls


def _orbit_classes(p: perm.Perm) -> list[int]:
    class_of = [0] * len(p)
    for i, cyc in enumerate(perm.cycles(p)):
        for x in cyc:
            class_of[x] = i
    return class_of


def induced_biquandle(s: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient by the orbits of Sq; the result is a biquandle and the
    structure group is unchanged."""
    return _quotient_solution(s, _orbit_classes(structure_racks(s).Sq))


def induced_quandle(rk: Rack) -> tuple[Rack, tuple[int, ...]]:
    """Quotient of a rack by the orbits of its squaring map; a quandle."""
    return _quotient_rack(rk, _orbit_classes(sq_map(rk)))


def retraction(s: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient by equality of sigma- and tau-rows."""
    return _quotient_solution(s, [(s.sigma[x], s.tau[x]) for x in range(s.n)])


@per_input
def mp_level(s: Solution) -> RetractionTower:
    """Iterate retraction until the size stabilizes.

    mp_level is the number of steps needed to reach one point, or None when
    the tower stalls at a fixed point of size > 1 (not multipermutation).
    """
    levels = [s]
    while levels[-1].n > 1:
        nxt, _ = retraction(levels[-1])
        if nxt.n == levels[-1].n:
            break
        levels.append(nxt)
    level = len(levels) - 1 if levels[-1].n == 1 else None
    return RetractionTower(tuple(levels), level)


def cable(s: Solution, m: int) -> Solution:
    """The m-cabled solution

    r^[m](x, y) = (T^{-(m-1)}(x^[m] acting on T^{m-1}(y)), x acted by y^[m]).

    With x^[m] = w_1 ... w_m, each row is a composite of rows of s:
    sigma^[m]_x = T^{-(m-1)} sigma_{w_1} ... sigma_{w_m} T^{m-1} and
    tau^[m]_x = tau_{w_m} ... tau_{w_1}.

    So every row is a permutation, and r^[m] is the m-cabled braiding on
    X^m restricted to the twisted diagonal x -> x^[m]; it is a solution and
    is not validated again.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    n = s.n
    t_fwd = perm.power(t_map_of(s), m - 1)
    t_back = perm.inverse(t_fwd)
    sigma_c, tau_c = [], []
    for x in range(n):
        letters = [g for g, _ in twisted_power(s, x, m)]
        row = t_fwd
        for g in reversed(letters):
            row = perm.compose(s.sigma[g], row)
        sigma_c.append(perm.compose(t_back, row))
        row = perm.identity(n)
        for g in letters:
            row = perm.compose(s.tau[g], row)
        tau_c.append(row)
    return Solution(n, tuple(sigma_c), tuple(tau_c))


def _tables(obj: Solution | Rack) -> tuple[Table, ...]:
    return (obj.sigma, obj.tau) if isinstance(obj, Solution) else (obj.op,)


def _relabeled(obj: Solution | Rack, f: perm.Perm) -> tuple[int, ...]:
    """obj's table(s) relabeled by f and flattened, sigma rows before tau
    rows: entry (f(x), f(y)) is f(t[x][y]).  No object is built."""
    g = perm.inverse(f)
    return tuple(f[t[x][y]] for t in _tables(obj) for x in g for y in g)


def _rows(flat: tuple[int, ...], n: int) -> Table:
    return tuple(zip(*[iter(flat)] * n))


def relabel_solution(s: Solution, f: perm.Perm) -> Solution:
    rows = _rows(_relabeled(s, f), s.n)
    return Solution(s.n, rows[:s.n], rows[s.n:])


def relabel_rack(rk: Rack, f: perm.Perm) -> Rack:
    return Rack(rk.n, _rows(_relabeled(rk, f), rk.n))


def canonical_form(obj: Solution | Rack) -> tuple[int, ...]:
    """Lexicographically least flattened table over all n! relabelings.

    Branch and bound over g = f^{-1}: labels 0, 1, ... are given out in
    order, g[m] being the point that receives label m.  Once labels < m are
    given out, each table's relabeled row i < m is partly known:
      - entry j < m is f(t[g_i][g_j]), exact when that point has a label and
        otherwise at least m, the least label still free;
      - entries j >= m are the values f(t[g_i][u]) over the unlabelled u in
        some order, so their sorted values (each unknown one taken as m) are
        a lexicographic lower bound, and they are determined once all of
        them are exact and equal.
    Reading the flattened table in order, a branch is cut as soon as this
    bound exceeds the least table found so far; the reading stops at the
    first entry that is neither determined nor decisive.  Points are tried
    in decreasing order of how often t[x][y] = x in their row of the first
    table: those zeros are what row 0 of the least table begins with, so it
    tends to be found early.  The order only speeds up the cut.

    A leaf g that equals the least table, found earlier at leaf g', gives an
    automorphism g g'^{-1} that fixes the points labelled before the first
    level l where g and g' differ.  It carries the subtree explored through
    g'_l onto the one being explored through g_l, so the search returns to
    level l at once.
    """
    n = obj.n
    if n > ISO_BOUND:
        raise SizeTooLarge(f"canonicalization bound is {ISO_BOUND}, got size {n}")
    tables = _tables(obj)
    g, f = [0] * n, [n] * n  # f[x] == n: x has no label yet
    best: tuple[int, ...] = ()
    best_g: list[int] = []
    order = sorted(range(n), key=lambda x: -tables[0][x].count(x))

    def compare(m: int) -> int:
        """1 if every completion of g[:m] exceeds best, 0 if g (m = n)
        gives best, -1 otherwise."""
        labelled = g[:m]
        free = [u for u in range(n) if f[u] == n]
        pos = 0
        for t in tables:
            for x in labelled:
                row = t[x]
                for y in labelled:
                    v, b = f[row[y]], best[pos]
                    pos += 1
                    if v >= m:  # unlabelled, so at least m
                        return 1 if b < m else -1
                    if v != b:
                        return 1 if v > b else -1
                if free:
                    tail = sorted([f[row[u]] for u in free])
                    for v in tail:
                        b = best[pos]
                        pos += 1
                        if v >= m:
                            return 1 if b < m else -1
                        if v != b:
                            return 1 if v > b else -1
                    if tail[0] != tail[-1]:
                        return -1
            if free:
                return -1
        return 0

    def search(m: int) -> int | None:
        """Give label m to each free point in turn; return the level to go
        back to, if an automorphism cuts the search short."""
        nonlocal best
        for u in order:
            if f[u] != n:
                continue
            g[m], f[u] = u, m
            jump = None
            if m + 1 == n:
                c = compare(n) if best else -1
                if c < 0:
                    best, best_g[:] = tuple(f[t[x][y]] for t in tables for x in g for y in g), g
                elif c == 0:
                    jump = next(i for i in range(n) if g[i] != best_g[i])
            elif m + 2 == n or not best or compare(m + 1) < 1:
                jump = search(m + 1)  # with one point left, its leaf decides
            f[u] = n
            if jump is not None and jump < m:
                return jump
        return None

    search(0)
    return best


def are_isomorphic(a: Solution | Rack, b: Solution | Rack) -> perm.Perm | None:
    """A relabeling carrying a onto b, or None."""
    if type(a) is not type(b):
        raise TypeError("can only compare two Solutions or two Racks")
    if a.n != b.n:
        return None
    if a.n > ISO_BOUND:
        raise SizeTooLarge(f"isomorphism search bound is {ISO_BOUND}, got size {a.n}")
    target = _relabeled(b, perm.identity(b.n))
    return next((f for f in permutations(range(a.n)) if _relabeled(a, f) == target), None)


def automorphism_count(obj: Solution | Rack) -> int:
    if obj.n > ISO_BOUND:
        raise SizeTooLarge(f"isomorphism search bound is {ISO_BOUND}, got size {obj.n}")
    own = _relabeled(obj, perm.identity(obj.n))
    return sum(1 for f in permutations(range(obj.n)) if _relabeled(obj, f) == own)
