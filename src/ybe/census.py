"""Exhaustive enumeration of small racks, quandles, and solutions up to
isomorphism."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional, Union

from . import perm
from .core import Rack, Solution
from .core import _is_biquandle_tables, _is_involutive, _pair_bijective, _ybe_witness
from .derived import canonical_form, structure_racks
from .errors import SizeTooLarge

RACK_BOUND = 4
SOLUTION_BOUND = 3


@dataclass(frozen=True)
class Census:
    n: int
    kind: str  # rack | quandle | involutive | biquandle | all-solutions
    representatives: tuple[Union[Solution, Rack], ...]
    iso_class_sizes: tuple[int, ...]

    @property
    def total_labeled(self) -> int:
        return sum(self.iso_class_sizes)


def _dedupe(objects: list) -> tuple[list, list[int]]:
    """Group labeled tables by canonical form; return reps and class sizes."""
    classes: dict[tuple[int, ...], list] = {}
    for obj in objects:
        classes.setdefault(canonical_form(obj), []).append(obj)
    reps, sizes = [], []
    for canon in sorted(classes):
        block = classes[canon]
        reps.append(block[0])
        sizes.append(len(block))
    return reps, sizes


@lru_cache(maxsize=None)
def enumerate_racks(n: int, quandles_only: bool = False, bound: int = RACK_BOUND) -> Census:
    """All racks (or quandles) on n points up to isomorphism.

    Backtracks over the columns rho_y, using the translation form of
    self-distributivity: rho_z rho_y = rho_{rho_z(y)} rho_z.
    """
    if n > bound:
        raise SizeTooLarge(f"rack census bound is {bound}, got {n}")
    perms = perm.all_perms(n)
    pindex = {p: i for i, p in enumerate(perms)}
    comp = [[pindex[perm.compose(p, q)] for q in perms] for p in perms]

    def column_choices(y: int) -> list[int]:
        if quandles_only:
            return [i for i, p in enumerate(perms) if p[y] == y]
        return list(range(len(perms)))

    valid: list[Rack] = []
    cols = [0] * n

    def consistent(k: int) -> bool:
        # check every constraint whose three column indices are all <= k
        for y in range(k + 1):
            for z in range(k + 1):
                target = perms[cols[z]][y]
                if target <= k and comp[cols[z]][cols[y]] != comp[cols[target]][cols[z]]:
                    return False
        return True

    def backtrack(k: int) -> None:
        if k == n:
            table = [[perms[cols[y]][x] for y in range(n)] for x in range(n)]
            valid.append(Rack(n, tuple(map(tuple, table))))
            return
        for choice in column_choices(k):
            cols[k] = choice
            if consistent(k):
                backtrack(k + 1)

    backtrack(0)
    reps, sizes = _dedupe(valid)
    return Census(n, "quandle" if quandles_only else "rack", tuple(reps), tuple(sizes))


@lru_cache(maxsize=None)
def enumerate_solutions(
    n: int, restrict: Optional[str] = None, bound: int = SOLUTION_BOUND
) -> Census:
    """All solutions on n points up to isomorphism.

    restrict may be None, "involutive", or "biquandle".  Iterates over all
    choices of sigma-rows and tau-rows, pruning on pair-bijectivity before
    the full Yang-Baxter check.
    """
    if restrict not in (None, "involutive", "biquandle"):
        raise ValueError(f"unknown restriction {restrict!r}")
    if n > bound:
        raise SizeTooLarge(f"solution census bound is {bound}, got {n}")
    perms = perm.all_perms(n)
    valid: list[Solution] = []
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            if not _pair_bijective(sigma, tau, n):
                continue
            if restrict == "involutive" and not _is_involutive(sigma, tau, n):
                continue
            if restrict == "biquandle" and not _is_biquandle_tables(sigma, tau, n):
                continue
            if _ybe_witness(sigma, tau, n) is not None:
                continue
            valid.append(Solution(n, sigma, tau))
    reps, sizes = _dedupe(valid)
    kind = {None: "all-solutions", "involutive": "involutive", "biquandle": "biquandle"}
    return Census(n, kind[restrict], tuple(reps), tuple(sizes))


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
