"""Exhaustive enumeration of small racks, quandles, and solutions up to
isomorphism."""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import product

from . import perm
from .core import BYTE_BOUND, Frozen, Rack, Solution
from .core import _is_biquandle_tables, _is_involutive, _pair_bijective, _ybe_witness
from .derived import canonical_form, structure_racks
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


def _tally() -> tuple[Callable[[Solution | Rack], None], Callable[[], tuple]]:
    """Count labeled tables by canonical form as they are found, keeping the
    first table of each class, so memory grows with the number of classes,
    not with the number of labeled tables.  Returns add(table) and a
    function giving the representatives and class sizes in order of
    canonical form."""
    classes: dict[tuple[int, ...], list] = {}  # canonical form -> [first table, count]

    def add(obj: Solution | Rack) -> None:
        canon = canonical_form(obj)
        entry = classes.get(canon)
        if entry is None:
            classes[canon] = [obj, 1]
        else:
            entry[1] += 1

    def result() -> tuple[tuple, tuple[int, ...]]:
        order = sorted(classes)
        return tuple(classes[c][0] for c in order), tuple(classes[c][1] for c in order)

    return add, result


@lru_cache(maxsize=None)
def enumerate_racks(n: int, quandles_only: bool = False, bound: int = RACK_BOUND) -> Census:
    """All racks (or quandles) on n points up to isomorphism.

    Backtracks over the columns rho_0, rho_1, ... in order, using the
    translation form of self-distributivity: for every pair (y, z),
    rho_z rho_y = rho_{rho_z(y)} rho_z.  Columns are tried in the order of
    perm.all_perms, so racks are found in lexicographic order of their
    column indices.

    Pruning.  When column k is chosen, the constraints among columns < k have
    all been checked, so only those that involve column k are new: (k, z),
    (y, k), and (y, z) with y, z < k and rho_z(y) = k.  Two of these leave
    column k no freedom: if rho_z(k) = t < k for some z < k, then
    rho_k = rho_z^{-1} rho_t rho_z, and if rho_z(y) = k for some y, z < k,
    then rho_k = rho_z rho_y rho_z^{-1}.  Such a forced column is the only
    candidate; it still passes the full check of column k, and for quandles
    it must fix k.
    """
    if n > bound:
        raise SizeTooLarge(f"rack census bound is {bound}, got {n}")
    perms = perm.all_perms(n)
    # A product is composed as bytes, q.translate(p + pad).
    rows = [bytes(p) for p in perms]
    after = [row + bytes(BYTE_BOUND - n) for row in rows]  # q.translate(after[i]) = perms[i] o q
    pindex = {row: i for i, row in enumerate(rows)}
    inv = [pindex[bytes(perm.inverse(p))] for p in perms]
    comp = [[pindex[q.translate(a)] for q in rows] for a in after]  # comp[i][j]: perms[i] o perms[j]
    if quandles_only:
        free = [[i for i, p in enumerate(perms) if p[k] == k] for k in range(n)]
    else:
        free = [range(len(perms))] * n

    add, result = _tally()
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
                return pindex[rows[cz].translate(after[cols[t]]).translate(after[inv[cz]])]
            y = perms[inv[cz]][k]
            if y < k:  # rho_z rho_y rho_z^{-1}
                return pindex[rows[inv[cz]].translate(after[cols[y]]).translate(after[cz])]
        return None

    def backtrack(k: int) -> None:
        if k == n:
            table = [[perms[cols[y]][x] for y in range(n)] for x in range(n)]
            add(Rack(n, tuple(map(tuple, table))))
            return
        only = forced(k)
        if only is None:
            choices = free[k]
        elif quandles_only and perms[only][k] != k:
            return
        else:
            choices = (only,)
        for choice in choices:
            cols[k] = choice
            if consistent(k):
                backtrack(k + 1)

    backtrack(0)
    return Census(n, "quandle" if quandles_only else "rack", *result())


def _tau_rows(sigma: tuple[perm.Perm, ...], perms: list[perm.Perm]) -> list[list[perm.Perm]]:
    """For each y, the permutations tau_y, in the order of perms, that meet the
    first coordinate of the braid relation with these sigma rows:
    sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for every x."""
    n = len(sigma)
    after = [[perm.compose(sigma[a], sigma[w]) for w in range(n)] for a in range(n)]
    rows = []
    for y in range(n):
        allowed = []
        for x in range(n):
            target, row = perm.compose(sigma[x], sigma[y]), after[sigma[x][y]]
            allowed.append({w for w in range(n) if row[w] == target})
        rows.append([p for p in perms if all(p[x] in allowed[x] for x in range(n))])
    return rows


@lru_cache(maxsize=None)
def enumerate_solutions(
    n: int, restrict: str | None = None, bound: int = SOLUTION_BOUND
) -> Census:
    """All solutions on n points up to isomorphism.

    restrict may be None, "involutive", or "biquandle".  Iterates over the
    sigma-rows in the order of product(perms, repeat=n), and for each over
    the tau-rows in the same order.

    Pruning.  The first coordinate of the braid relation on (x, y, z) reads
    sigma_x sigma_y (z) = sigma_{sigma_x(y)} sigma_{tau_y(x)} (z), so for
    given sigma rows each value tau_y(x) lies among the w with
    sigma_{sigma_x(y)} sigma_w = sigma_x sigma_y.  Only tau rows that meet
    this on every x are combined, in their original order, so the solutions
    are found in the same order as by the full product.  Every candidate is
    still checked for pair-bijectivity, the restriction and the whole
    Yang-Baxter equation.
    """
    if restrict not in (None, "involutive", "biquandle"):
        raise ValueError(f"unknown restriction {restrict!r}")
    if n > bound:
        raise SizeTooLarge(f"solution census bound is {bound}, got {n}")
    perms = perm.all_perms(n)
    add, result = _tally()
    for sigma in product(perms, repeat=n):
        for tau in product(*_tau_rows(sigma, perms)):
            if not _pair_bijective(sigma, tau, n):
                continue
            if restrict == "involutive" and not _is_involutive(sigma, tau, n):
                continue
            if restrict == "biquandle" and not _is_biquandle_tables(sigma, tau, n):
                continue
            # _ybe_holds is slower at these sizes: the uncached n = 3 search 23 -> 32 ms
            if _ybe_witness(sigma, tau, n) is not None:
                continue
            add(Solution(n, sigma, tau))
    kind = {None: "all-solutions", "involutive": "involutive", "biquandle": "biquandle"}
    return Census(n, kind[restrict], *result())


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
