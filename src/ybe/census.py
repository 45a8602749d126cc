"""Exhaustive enumeration of small racks, quandles, and solutions up to
isomorphism."""

from __future__ import annotations

from collections.abc import Callable

from . import perm
from .core import BYTE_BOUND, Frozen, Rack, Solution
from .derived import _rows, canonical_form, structure_racks
from .errors import SizeTooLarge

RACK_BOUND = 4
SOLUTION_BOUND = 3


class Census(Frozen):
    n: int
    kind: str  # rack | quandle | involutive | biquandle | all-solutions
    representatives: tuple[Solution | Rack, ...]
    iso_class_sizes: tuple[int, ...]

    @property
    def total_labeled(self) -> int:
        return sum(self.iso_class_sizes)


def _symmetric_group(n: int) -> tuple[list[perm.Perm], list[int], list[list[int]]]:
    """perm.all_perms(n), the index of each one's inverse, and comp[i][j],
    the index of perms[i] o perms[j] (p o q = q.translate(p + pad) on bytes)."""
    perms = perm.all_perms(n)
    rows = [bytes(p) for p in perms]
    pindex = {row: i for i, row in enumerate(rows)}
    pad = bytes(BYTE_BOUND - n)
    comp = [[pindex[q.translate(a)] for q in rows] for a in [row + pad for row in rows]]
    return perms, [pindex[bytes(perm.inverse(p))] for p in perms], comp


def _search(perms, inv, comp, rows: list, rho: list[int] | None,
            found: Callable[[list[int]], None]) -> None:
    """Call found(sig) once on each assignment sig (a reused list; sig[k]
    indexes sigma_k in perms and is taken from rows[k]) such that, for all x, y,
      (1) sigma_x sigma_y = sigma_w sigma_t,  w = sigma_x(y),
          t = sigma_w^{-1}(rho_w(x)).
    rho indexes the columns of a rack, or is None for the rack census, where
    rho = sigma, t = x and (1) is self-distributivity in translation form.

    Each node assigns one point k, chosen by the node alone:
      (a) a point that occurs once in an instance (x, y) of (1) whose other
          three rows are assigned, which forces its row: y = k gives
          sigma_x^{-1} sigma_w sigma_t, t = k gives sigma_w^{-1} sigma_x sigma_y,
          and for racks, where t = x, w = k gives sigma_x sigma_y sigma_t^{-1};
      (b) otherwise an unassigned w = sigma_x(y) with x and y assigned;
      (c) otherwise the least unassigned point.
    A row is kept if every instance through k with its four rows assigned
    holds, so each instance is checked once its last row is assigned.  A
    table that meets (1) and extends the node has the forced row at k, as
    (1) solves for the row that occurs once; so it is the only candidate.
    It lies in rows[k] (S_n, or the group Aut(rho) of the earlier rows); for
    quandles each earlier row fixes its point, so sigma_x sigma_y
    sigma_x^{-1} fixes sigma_x(y) = k, and sigma_x^{-1} sigma_w sigma_x
    fixes sigma_x^{-1}(w) = k.  As k depends on the node alone and its
    candidates are distinct, each table that meets (1) is found exactly
    once, at the leaf its rows select.
    """
    n = len(rows)
    sig = [-1] * n
    back = [0] * n  # back[w] indexes sigma_w^{-1} rho_w, so t = perms[back[w]][x]
    done: list[int] = []

    def choose() -> tuple[int, int | None]:
        free = -1
        for x in done:
            sx = sig[x]
            for y in done:
                w = perms[sx][y]
                if sig[w] < 0:
                    if rho is None:  # t = x
                        return w, comp[comp[sx][sig[y]]][inv[sx]]
                    if free < 0:
                        free = w
                elif sig[t := perms[back[w]][x]] < 0:
                    return t, comp[inv[sig[w]]][comp[sx][sig[y]]]
            for w in done:
                if sig[k := perms[inv[sx]][w]] < 0 and sig[t := perms[back[w]][x]] >= 0:
                    return k, comp[inv[sx]][comp[sig[w]][sig[t]]]
        return (free if free >= 0 else sig.index(-1)), None

    def holds(k: int, a: int) -> bool:
        for y in done:  # x = k
            w = perms[a][y]
            if (sig[w] >= 0 and sig[t := perms[back[w]][k]] >= 0
                    and comp[a][sig[y]] != comp[sig[w]][sig[t]]):
                return False
        for x in done[:-1]:  # done[-1] = k
            sx = sig[x]
            w = perms[sx][k]  # y = k
            if (sig[w] >= 0 and sig[t := perms[back[w]][x]] >= 0
                    and comp[sx][a] != comp[sig[w]][sig[t]]):
                return False
            y = perms[inv[sx]][k]  # w = k
            if (y != k and sig[y] >= 0 and sig[t := perms[back[k]][x]] >= 0
                    and comp[sx][sig[y]] != comp[a][sig[t]]):
                return False
        for w in done[:-1] if rho is not None else ():  # t = k; for racks t = x
            x = perms[inv[back[w]]][k]
            if (x != k and sig[x] >= 0 and (y := perms[inv[sig[x]]][w]) != k
                    and sig[y] >= 0 and comp[sig[x]][sig[y]] != comp[sig[w]][a]):
                return False
        return True

    def step() -> None:
        if len(done) == n:
            found(sig)
            return
        k, only = choose()
        done.append(k)
        for a in rows[k] if only is None else (only,):
            sig[k] = a
            back[k] = comp[inv[a]][a if rho is None else rho[k]]
            if holds(k, a):
                step()
        sig[k] = -1
        done.pop()

    step()


def enumerate_racks(n: int, quandles_only: bool = False, bound: int = RACK_BOUND) -> Census:
    """All racks (or quandles) on n points up to isomorphism; each class
    keeps its least column-major table."""
    if n > bound:
        raise SizeTooLarge(f"rack census bound is {bound}, got {n}")
    perms, inv, comp = _symmetric_group(n)
    classes: dict[tuple[int, ...], list] = {}  # canonical form -> [(least cols, rack), count]

    def found(cols: list[int]) -> None:
        table = (cols[:], Rack(n, tuple(zip(*map(perms.__getitem__, cols)))))
        entry = classes.setdefault(canonical_form(table[1]), [table, 0])
        entry[0] = min(entry[0], table)
        entry[1] += 1

    rows = [[i for i, p in enumerate(perms) if p[k] == k or not quandles_only] for k in range(n)]
    _search(perms, inv, comp, rows, None, found)
    order = sorted(classes)
    return Census(n, "quandle" if quandles_only else "rack",
                  tuple(classes[c][0][1] for c in order), tuple(classes[c][1] for c in order))


def enumerate_solutions(
    n: int, restrict: str | None = None, bound: int = SOLUTION_BOUND
) -> Census:
    """All solutions on n points up to isomorphism; restrict may be None,
    "involutive", or "biquandle".  A class is its canonical form and its count.

    By Soloviev's criterion (core._ybe_holds) the solutions are the labeled
    racks > (their structure racks) with rows sigma_x in Aut(>) that meet
    (1) of _search for rho_w(x) = x > w, with tau read from t = tau_y(x).
    Biquandles are the solutions over quandles (is_biquandle).

    The racks searched are the rack (or quandle) census's representatives.
    Relabeling commutes with core._derived_op, so every class has tables
    over the representative R of its derived rack, and an isomorphism
    between two solutions over R is an automorphism of R.  So a class s has
    |Aut(R)|/|Aut(s)| tables over R; each counts n!/|Aut(R)|, the labeled
    racks isomorphic to R, which gives n!/|Aut(s)| labeled tables in all.

    Only the tau rows are checked; right non-degeneracy is not derived here.
    A candidate meets (1), its sigma rows lie in Aut(>), and its derived
    operation is the rack > by the choice of t, so it is a solution by
    core._ybe_holds.  Its pair map is r = J^{-1} r' J, r'(x, w) =
    (w, x > w) (the J lemma of core._derived_op): a bijection, as the right
    translations of > are.  And r^2 = J^{-1} r'^2 J is the identity iff
    x > w = x for all x, w: the involutive solutions are those over the
    trivial rack (perms[0] = id), with Aut = S_n and weight 1.
    """
    if restrict not in (None, "involutive", "biquandle"):
        raise ValueError(f"unknown restriction {restrict!r}")
    if n > bound:
        raise SizeTooLarge(f"solution census bound is {bound}, got {n}")
    perms, inv, comp = _symmetric_group(n)
    counts: dict[tuple[int, ...], int] = {}  # canonical form -> labeled tables
    if restrict == "involutive":
        racks = [[0] * n]
    else:
        racks = [[perms.index(rk.rho(y)) for y in range(n)]
                 for rk in enumerate_racks(n, restrict == "biquandle", bound=n).representatives]
    for cols in racks:
        auts = [a for a, p in enumerate(perms)
                if all(comp[a][c] == comp[cols[p[y]]][a] for y, c in enumerate(cols))]
        weight = len(perms) // len(auts)

        def found(sig: list[int]) -> None:
            sigma = tuple(map(perms.__getitem__, sig))
            tau = tuple(zip(*[[perms[comp[inv[sig[w]]][cols[w]]][x] for w in sigma[x]]
                              for x in range(n)]))
            if all(len(set(row)) == n for row in tau):
                canon = canonical_form(Solution(n, sigma, tau))
                counts[canon] = counts.get(canon, 0) + weight

        _search(perms, inv, comp, [auts] * n, cols, found)
    order = sorted(counts)
    tables = [_rows(c, n) for c in order]
    return Census(n, restrict or "all-solutions",
                  tuple(Solution(n, rows[:n], rows[n:]) for rows in tables),
                  tuple(map(counts.__getitem__, order)))


def group_by_structure_rack(c: Census) -> dict[tuple[int, ...], tuple[Solution, ...]]:
    """Partition a solution census by the canonical form of the right
    structure rack of each representative."""
    blocks: dict[tuple[int, ...], list[Solution]] = {}
    for s in c.representatives:
        if not isinstance(s, Solution):
            raise TypeError("group_by_structure_rack expects a solution census")
        canon = canonical_form(structure_racks(s).right)
        blocks.setdefault(canon, []).append(s)
    return {canon: tuple(blocks[canon]) for canon in sorted(blocks)}
