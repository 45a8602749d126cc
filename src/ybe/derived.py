"""Structures derived from a solution: structure racks, induced quotients,
retraction tower, cabling, and isomorphism testing."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Hashable, Optional, Union

from . import perm
from .core import (
    Rack,
    Solution,
    Table,
    invert_solution,
    is_biquandle,
    per_input,
    t_map_of,
    verify_rack,
    verify_solution,
)
from .errors import SizeTooLarge
from .words import _sigma_inv, structure_rho, twisted_power

ISO_BOUND = 6  # factorial search cap for canonical forms


@dataclass(frozen=True)
class StructureRackPair:
    right: Rack            # x >_r y
    left: Table            # left[y][x] = y <_r x
    T: perm.Perm
    Sq: perm.Perm


@dataclass(frozen=True)
class RetractionTower:
    levels: tuple[Solution, ...]
    mp_level: Optional[int]  # None means "not MP"


@per_input
def structure_racks(s: Solution) -> StructureRackPair:
    """Both structure racks of a solution, with the T and Sq maps.

    The right operation is x >_r y = tau_y(tau^_y^{-1}(x)) and the left one
    is y <_r x = sigma_y(sigma^_y^{-1}(x)); T(y) = tau_y^{-1}(y) and
    Sq(x) = x >_r x = x <_r x.  The structure rack of a solution is a rack,
    so its table is not checked again.
    """
    n = s.n
    right = Rack(n, tuple(zip(*structure_rho(s))))
    sigma_hat_inv = _sigma_inv(invert_solution(s))
    left = tuple(
        tuple(s.sigma[y][sigma_hat_inv[y][x]] for x in range(n)) for y in range(n)
    )
    sq = tuple(right.op[x][x] for x in range(n))
    assert all(left[x][x] == sq[x] for x in range(n))
    assert perm.is_perm(sq, n)
    return StructureRackPair(right, left, t_map_of(s), sq)


def sq_map(rk: Rack) -> perm.Perm:
    """The squaring map x -> x > x; bijective for every rack."""
    sq = tuple(rk.op[x][x] for x in range(rk.n))
    assert perm.is_perm(sq, rk.n), "squaring map must be bijective on a rack"
    return sq


def _quotient_classes(n: int, class_of: list[Hashable]) -> tuple[list[int], list[int]]:
    """Renumber class labels to 0..k-1 by first occurrence; return
    (normalized class_of, representative of each class)."""
    relabel: dict[int, int] = {}
    reps: list[int] = []
    out = []
    for x in range(n):
        c = class_of[x]
        if c not in relabel:
            relabel[c] = len(reps)
            reps.append(x)
        out.append(relabel[c])
    return out, reps


def _quotient_solution(s: Solution, class_of: list[Hashable]) -> tuple[Solution, tuple[int, ...]]:
    """Quotient tables along a congruence, asserting well-definedness."""
    n = s.n
    cls, reps = _quotient_classes(n, class_of)
    k = len(reps)
    sigma_q = [[cls[s.sigma[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    tau_q = [[cls[s.tau[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    for x in range(n):
        for y in range(n):
            assert sigma_q[cls[x]][cls[y]] == cls[s.sigma[x][y]]
            assert tau_q[cls[x]][cls[y]] == cls[s.tau[x][y]]
    return verify_solution(sigma_q, tau_q), tuple(cls)


def _quotient_rack(rk: Rack, class_of: list[int]) -> tuple[Rack, tuple[int, ...]]:
    n = rk.n
    cls, reps = _quotient_classes(n, class_of)
    k = len(reps)
    op_q = [[cls[rk.op[reps[a]][reps[b]]] for b in range(k)] for a in range(k)]
    for x in range(n):
        for y in range(n):
            assert op_q[cls[x]][cls[y]] == cls[rk.op[x][y]]
    return verify_rack(op_q), tuple(cls)


def _orbit_classes(p: perm.Perm) -> list[int]:
    class_of = [0] * len(p)
    for i, cyc in enumerate(perm.cycles(p)):
        for x in cyc:
            class_of[x] = i
    return class_of


def induced_biquandle(s: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient by the orbits of Sq; the result is a biquandle and the
    structure group is unchanged."""
    sq = structure_racks(s).Sq
    result, cls = _quotient_solution(s, _orbit_classes(sq))
    assert is_biquandle(result)
    return result, cls


def induced_quandle(rk: Rack) -> tuple[Rack, tuple[int, ...]]:
    """Quotient of a rack by the orbits of its squaring map; a quandle."""
    result, cls = _quotient_rack(rk, _orbit_classes(sq_map(rk)))
    assert result.is_quandle
    return result, cls


def retraction(s: Solution) -> tuple[Solution, tuple[int, ...]]:
    """Quotient by equality of sigma- and tau-rows."""
    return _quotient_solution(s, [(s.sigma[x], s.tau[x]) for x in range(s.n)])


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
    return verify_solution(sigma_c, tau_c)


def relabel_solution(s: Solution, f: perm.Perm) -> Solution:
    n = s.n
    sigma = [[0] * n for _ in range(n)]
    tau = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            sigma[f[x]][f[y]] = f[s.sigma[x][y]]
            tau[f[x]][f[y]] = f[s.tau[x][y]]
    return Solution(n, tuple(map(tuple, sigma)), tuple(map(tuple, tau)))


def relabel_rack(rk: Rack, f: perm.Perm) -> Rack:
    n = rk.n
    op = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            op[f[x]][f[y]] = f[rk.op[x][y]]
    return Rack(n, tuple(map(tuple, op)))


def _flat(obj: Union[Solution, Rack]) -> tuple[int, ...]:
    if isinstance(obj, Solution):
        return tuple(v for row in obj.sigma + obj.tau for v in row)
    return tuple(v for row in obj.op for v in row)


def canonical_form(obj: Union[Solution, Rack], bound: int = ISO_BOUND) -> tuple[int, ...]:
    """Lexicographically least flattened table over all relabelings."""
    n = obj.n
    if n > bound:
        raise SizeTooLarge(f"canonicalization bound is {bound}, got size {n}")
    relabel = relabel_solution if isinstance(obj, Solution) else relabel_rack
    return min(_flat(relabel(obj, f)) for f in permutations(range(n)))


def are_isomorphic(
    a: Union[Solution, Rack], b: Union[Solution, Rack], bound: int = ISO_BOUND
) -> Optional[perm.Perm]:
    """A relabeling carrying a onto b, or None."""
    if type(a) is not type(b):
        raise TypeError("can only compare two Solutions or two Racks")
    if a.n != b.n:
        return None
    if a.n > bound:
        raise SizeTooLarge(f"isomorphism search bound is {bound}, got size {a.n}")
    relabel = relabel_solution if isinstance(a, Solution) else relabel_rack
    for f in permutations(range(a.n)):
        if relabel(a, f) == b:
            return tuple(f)
    return None


def automorphism_count(obj: Union[Solution, Rack], bound: int = ISO_BOUND) -> int:
    if obj.n > bound:
        raise SizeTooLarge(f"isomorphism search bound is {bound}, got size {obj.n}")
    relabel = relabel_solution if isinstance(obj, Solution) else relabel_rack
    return sum(1 for f in permutations(range(obj.n)) if relabel(obj, f) == obj)
