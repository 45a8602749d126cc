"""Exhaustive enumeration of small racks, quandles, and solutions up to
isomorphism."""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import chain

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


def _labeled_racks(n: int, quandles_only: bool, perms, inv, comp,
                   found: Callable[[list[int]], None]) -> None:
    """Call found(cols) on each labeled rack (or quandle) on n points, in
    lexicographic order of cols, where cols[y] (a reused list) indexes rho_y
    in perms.  Backtracks over the columns in order, using the translation
    form of self-distributivity: rho_z rho_y = rho_{rho_z(y)} rho_z.

    Pruning.  When column k is chosen, the constraints among columns < k have
    all been checked, so only those that involve column k are new: (k, z),
    (y, k), and (y, z) with y, z < k and rho_z(y) = k.  Two of these leave
    column k no freedom: if rho_z(k) = t < k for some z < k, then
    rho_k = rho_z^{-1} rho_t rho_z, and if rho_z(y) = k for some y, z < k,
    then rho_k = rho_z rho_y rho_z^{-1}.  Such a forced column is the only
    candidate; it still passes the full check of column k.  For quandles it
    fixes k, as g^{-1} rho_t g fixes g^{-1}(t) and each earlier rho_t fixes t.
    """
    if quandles_only:
        free = [[i for i, p in enumerate(perms) if p[k] == k] for k in range(n)]
    else:
        free = [range(len(perms))] * n
    cols = [0] * n

    def consistent(k: int) -> bool:
        # the constraints (y, z) whose largest index among y, z, rho_z(y) is k
        c = cols[k]
        comp_c = comp[c]
        for y, t in enumerate(perms[c][:k + 1]):        # z = k
            if t <= k and comp_c[cols[y]] != comp[cols[t]][c]:
                return False
        for z in range(k):
            cz = cols[z]
            t = perms[cz][k]                             # y = k
            if t <= k and comp[cz][c] != comp[cols[t]][cz]:
                return False
            y = perms[inv[cz]][k]                        # rho_z(y) = k
            if y < k and comp[cz][cols[y]] != comp_c[cz]:
                return False
        return True

    def forced(k: int) -> int | None:
        for z in range(k):
            cz = cols[z]
            t = perms[cz][k]
            if t < k:  # rho_z^{-1} rho_t rho_z
                return comp[inv[cz]][comp[cols[t]][cz]]
            y = perms[inv[cz]][k]
            if y < k:  # rho_z rho_y rho_z^{-1}
                return comp[cz][comp[cols[y]][inv[cz]]]
        return None

    def backtrack(k: int) -> None:
        if k == n:
            found(cols)
            return
        only = forced(k)
        if only is None:
            choices = free[k]
        else:
            choices = (only,)
        for choice in choices:
            cols[k] = choice
            if consistent(k):
                backtrack(k + 1)

    backtrack(0)


@lru_cache(maxsize=None)
def enumerate_racks(n: int, quandles_only: bool = False, bound: int = RACK_BOUND) -> Census:
    """All racks (or quandles) on n points up to isomorphism.  The labeled
    tables come in lexicographic order of their columns, so the first one
    of each class, which the class keeps, is its least column-major table."""
    if n > bound:
        raise SizeTooLarge(f"rack census bound is {bound}, got {n}")
    perms, *group = _symmetric_group(n)
    classes: dict[tuple[int, ...], list] = {}  # canonical form -> [first table, count]

    def found(cols: list[int]) -> None:
        rk = Rack(n, tuple(zip(*map(perms.__getitem__, cols))))
        classes.setdefault(canonical_form(rk), [rk, 0])[1] += 1

    _labeled_racks(n, quandles_only, perms, *group, found)
    order = sorted(classes)
    return Census(n, "quandle" if quandles_only else "rack",
                  tuple(classes[c][0] for c in order), tuple(classes[c][1] for c in order))


@lru_cache(maxsize=None)
def enumerate_solutions(
    n: int, restrict: str | None = None, bound: int = SOLUTION_BOUND
) -> Census:
    """All solutions on n points up to isomorphism; restrict may be None,
    "involutive", or "biquandle".  A class is its canonical form and its count.

    By Soloviev's criterion (core._ybe_holds) the solutions are the labeled
    racks > (their structure racks) with rows sigma_x in Aut(>) such that
      (1) sigma_x sigma_y = sigma_w sigma_t,  w = sigma_x(y),
          t = tau_y(x) = sigma_w^{-1}(x > w).
    Over a labeled rack sigma_0, sigma_1, ... are chosen from Aut(>), (1) is
    checked on (x, y) once rows x, y, w and t are chosen, and tau is read
    from t.  Biquandles are the solutions over quandles (is_biquandle).

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
    trivial rack (perms[0] = id).  The other censuses take those classes
    from the involutive census, exactly (Aut = S_n gives each table weight
    1, and a representative flattens back to its canonical form), and
    search only the racks with a non-identity column.
    """
    if restrict not in (None, "involutive", "biquandle"):
        raise ValueError(f"unknown restriction {restrict!r}")
    if n > bound:
        raise SizeTooLarge(f"solution census bound is {bound}, got {n}")
    perms, inv, comp = _symmetric_group(n)
    counts: dict[tuple[int, ...], int] = {}  # canonical form -> labeled tables
    sig = [0] * n
    back = [()] * n  # back[w][x] = sigma_w^{-1}(x > w) = t

    def over(cols: list[int]) -> None:
        auts = [a for a, p in enumerate(perms)
                if all(comp[a][c] == comp[cols[p[y]]][a] for y, c in enumerate(cols))]
        weight = len(perms) // len(auts)

        def extend(k: int) -> None:
            if k == n:
                sigma = tuple(map(perms.__getitem__, sig))
                tau = tuple(zip(*[[back[w][x] for w in sigma[x]] for x in range(n)]))
                if all(len(set(row)) == n for row in tau):
                    canon = canonical_form(Solution(n, sigma, tau))
                    counts[canon] = counts.get(canon, 0) + weight
                return
            for a in auts:
                sig[k], back[k] = a, perms[comp[inv[a]][cols[k]]]
                if all(comp[sig[x]][sig[y]] == comp[sig[w]][sig[t]]
                       for x in range(k + 1) for y, w in enumerate(perms[sig[x]][:k + 1])
                       if w <= k and (t := back[w][x]) <= k):
                    extend(k + 1)

        extend(0)

    if restrict == "involutive":
        over([0] * n)
    else:
        trivial = enumerate_solutions(n, "involutive", bound=bound)
        for s, size in zip(trivial.representatives, trivial.iso_class_sizes):
            counts[tuple(chain(*s.sigma, *s.tau))] = size
        for rk in enumerate_racks(n, restrict == "biquandle", bound=n).representatives:
            cols = [perms.index(rk.rho(y)) for y in range(n)]
            if any(cols):
                over(cols)
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
