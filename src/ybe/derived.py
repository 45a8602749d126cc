"""Structures derived from a solution: structure racks, induced quotients,
retraction tower, cabling, and isomorphism testing.

Every construction here returns a solution or rack by theorem, so each is
built with the plain Solution / Rack constructor and is not validated again;
quotients check only that their classes form a congruence.  Canonical
forms, isomorphisms and automorphism counts come from one row-by-row filter
over the relabelings (_least_relabelings), which builds no objects.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from functools import lru_cache

from . import perm
from .core import BYTE_BOUND, Frozen, Rack, Solution, Table, _derived_op, per_input, t_map_of
from .errors import InvariantViolation, SizeTooLarge
from .words import _twisted_actions, structure_rho

ISO_BOUND = 6  # n! relabelings are tried


class StructureRackPair(Frozen):
    """A solution's structure racks, T and Sq; no field refers back to it."""

    right: Rack            # x >_r y
    left: Table            # left[y][x] = y <_r x
    T: perm.Perm
    Sq: perm.Perm


class RetractionTower(Frozen):
    levels: tuple[Solution, ...]  # the successive retractions, each smaller
    mp_level: int | None  # None means "not MP"


@per_input
def structure_racks(s: Solution) -> StructureRackPair:
    """Both structure racks of a solution, with the T and Sq maps.

    The right operation is x >_r y = tau_y(tau^_y^{-1}(x)) and the left one
    is y <_r x = sigma_y(sigma^_y^{-1}(x)); T(y) = tau_y^{-1}(y) and
    Sq(x) = x >_r x = x <_r x.  The right rack is core._derived_op (J lemma
    there); it is a rack, so its table is not checked again.  The left one
    is its transpose, words.structure_rho: y <_r x = sigma_y(tau_w(x)) =
    x < y, w = sigma_x^{-1}(y), as r(x, w) = (y, tau_w(x)).
    """
    right = Rack(s.n, tuple(map(tuple, _derived_op(s))))
    return StructureRackPair(right, structure_rho(s), t_map_of(s), sq_map(right))


def sq_map(rk: Rack) -> perm.Perm:
    """The squaring map x -> x > x; bijective for every rack."""
    return tuple(rk.op[x][x] for x in range(rk.n))


def _quotient_tables(
    tables: Sequence[Table], class_of: Sequence[Hashable]
) -> tuple[list[Table], tuple[int, ...]]:
    """Each table's quotient along the classes, numbered 0..k-1 by first
    occurrence, with the class of each point.

    Every caller passes classes that a theorem makes a congruence, so a
    failed check is a bug and raises InvariantViolation.  A congruence
    makes the quotient of a solution a solution, and of a rack a rack, so
    the quotient tables are not validated again: the projection X -> X/~
    carries each row (and the pair map) onto its quotient, so the quotient
    row is a surjective self-map of a finite set, hence bijective; and the
    Yang-Baxter and self-distributive identities, holding on X, hold on X/~
    through the surjection.
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
                raise InvariantViolation("the classes are not a congruence")
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
    for cyc in perm.cycles(p):
        for x in cyc:
            class_of[x] = cyc[0]
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

    The levels are the retractions, not s itself.  mp_level is the number
    of steps needed to reach one point, or None when the tower stalls at a
    fixed point of size > 1 (not multipermutation).
    """
    levels = [s]
    while levels[-1].n > 1:
        nxt, _ = retraction(levels[-1])
        if nxt.n == levels[-1].n:
            break
        levels.append(nxt)
    level = len(levels) - 1 if levels[-1].n == 1 else None
    return RetractionTower(tuple(levels[1:]), level)


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
    t_fwd = perm.power(t_map_of(s), m - 1)
    t_back = perm.inverse(t_fwd)
    sigma_c, tau_c = [], []
    for x in range(s.n):
        left, right = _twisted_actions(s, x, m)(m)
        sigma_c.append(perm.compose(t_back, perm.compose(left, t_fwd)))
        tau_c.append(right)
    return Solution(s.n, tuple(sigma_c), tuple(tau_c))


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


@lru_cache(maxsize=None)
def _relabelings(n: int) -> tuple[tuple[tuple[bytes, bytes], ...], ...]:
    """(g, f + pad) for every g in S_n, f = g^{-1}, as byte strings, in
    blocks by g_0: a constant table of each n, so it is cached by n."""
    pad = bytes(BYTE_BOUND - n)
    pairs = [(bytes(g), bytes(perm.inverse(g)) + pad) for g in perm.all_perms(n)]
    return tuple(tuple(gf for gf in pairs if gf[0][0] == x) for x in range(n))


def _least_relabelings(obj: Solution | Rack) -> tuple[bytes, list[tuple[bytes, bytes]]]:
    """The least flattened table over all n! relabelings, and the (g, f + pad)
    that give it.

    Relabeled by f = g^{-1}, row i of a table t is f(t[g_i][g_j]) over j, the
    byte string g.translate(t[g_i] + pad).translate(f + pad).  Rows are read
    in flattened order (sigma rows, then tau rows), and only the relabelings
    whose row equals the least one are kept: a flattened table is least
    exactly when each of its rows is least given the rows before it.  The
    survivors of the last row are g_0 Aut(obj), for any one survivor g_0.

    First-point cut: relabeled row 0 of the first table t has a zero for
    each y with t[g_0][y] = g_0.  If t[g_0][g_0] = g_0 they can all lead
    (the other such y taking labels 1, 2, ...); otherwise the row begins
    with a nonzero entry.  So when some a has t[a][a] = a, only the points
    g_0 with t[g_0][g_0] = g_0 and the most such y can start the least
    table, as more leading zeros is lexicographically smaller.
    """
    n = obj.n
    if n > ISO_BOUND:
        raise SizeTooLarge(f"isomorphism search bound is {ISO_BOUND}, got size {n}")
    pad = bytes(BYTE_BOUND - n)
    tables = _tables(obj)
    zeros = {x: tables[0][x].count(x) for x in range(n) if tables[0][x][x] == x}
    most = max(zeros.values(), default=0)  # with no such a, every g_0 is tried
    live = [gf for x in range(n) if zeros.get(x, 0) == most for gf in _relabelings(n)[x]]
    least = []
    for t in tables:
        padded = [bytes(row) + pad for row in t]
        for i in range(n):
            rows = [g.translate(padded[g[i]]).translate(f) for g, f in live]
            row = min(rows)
            live = [gf for gf, r in zip(live, rows) if r == row]
            least.append(row)
    return b"".join(least), live


def canonical_form(obj: Solution | Rack) -> tuple[int, ...]:
    """Lexicographically least flattened table over all n! relabelings."""
    return tuple(_least_relabelings(obj)[0])


def are_isomorphic(a: Solution | Rack, b: Solution | Rack) -> perm.Perm | None:
    """The least relabeling carrying a onto b, or None.

    With f_a, f_b carrying a and b onto their common canonical form, the
    isomorphisms are f_b^{-1} f_a over the survivors f_a of a."""
    if type(a) is not type(b):
        raise TypeError("can only compare two Solutions or two Racks")
    if a.n != b.n:
        return None
    canon_a, live_a = _least_relabelings(a)
    canon_b, live_b = _least_relabelings(b)
    if canon_a != canon_b:
        return None
    g_b = live_b[0][0] + bytes(BYTE_BOUND - b.n)
    return min(tuple(f[:a.n].translate(g_b)) for _, f in live_a)


def automorphism_count(obj: Solution | Rack) -> int:
    return len(_least_relabelings(obj)[1])
