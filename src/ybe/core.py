"""Core finite objects: Yang-Baxter solutions and racks.

A solution is a pair of n x n tables (sigma, tau) encoding the braiding
r(x, y) = (sigma_x(y), tau_y(x)) with sigma[x][y] = sigma_x(y) and
tau[y][x] = tau_y(x).  A rack is a single table op[x][y] = x > y whose right
translations are bijections and which is right self-distributive.
Elements are always 0-based integers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain, repeat
from operator import add, itemgetter, mul
from types import SimpleNamespace
from typing import Optional, Sequence

from . import perm
from .errors import (
    DegenerateRow,
    InvalidInput,
    NonBijectiveTranslation,
    NotInvertible,
    SelfDistributivityFailure,
    YBEFailure,
)

Table = tuple[tuple[int, ...], ...]


def _freeze(table: Sequence[Sequence[int]]) -> Table:
    try:
        table = tuple(tuple(row) for row in table)
    except TypeError:
        raise InvalidInput("a table must be a list of lists of integers") from None
    for row in table:
        for v in row:
            if type(v) is not int:
                raise InvalidInput(f"table entries must be integers, got {v!r}")
    return table


def per_input(fn):
    """Memoise fn(obj, *args) in obj._memo, so each value is computed once
    per input object and lives exactly as long as it.

    Defaults are filled in before the key is built, so f(obj), f(obj, v) and
    f(obj, name=v) share one entry; cache_info() counts hits and misses over
    all objects.
    """
    signature = inspect.signature(fn)
    arity = len(signature.parameters) - 1
    counts = {"hits": 0, "misses": 0}

    @wraps(fn)
    def call(obj, *args, **kwargs):
        if kwargs or len(args) < arity:
            bound = signature.bind(obj, *args, **kwargs)
            bound.apply_defaults()
            args = bound.args[1:]
        key, memo = (fn, *args), obj._memo
        counts["hits" if key in memo else "misses"] += 1
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]

    call.cache_info = lambda: SimpleNamespace(**counts)
    return call


# A per-object memo for per_input; it takes no part in equality, hashing or repr.
_MEMO = dict(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Solution:
    """A finite invertible non-degenerate set-theoretic YBE solution."""

    n: int
    sigma: Table  # sigma[x][y] = sigma_x(y)
    tau: Table    # tau[y][x] = tau_y(x)
    _memo: dict = field(**_MEMO)

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]


@dataclass(frozen=True)
class Rack:
    """A finite rack, op[x][y] = x > y."""

    n: int
    op: Table
    _memo: dict = field(**_MEMO)

    def rho(self, y: int) -> perm.Perm:
        """The right translation by y as a permutation."""
        return tuple(self.op[x][y] for x in range(self.n))

    @property
    def is_quandle(self) -> bool:
        return all(self.op[x][x] == x for x in range(self.n))


@dataclass(frozen=True)
class SolutionClass:
    involutive: bool
    biquandle: bool
    self_distributive_right: bool
    self_distributive_left: bool
    decomposable: bool
    t_map: Optional[perm.Perm]


@dataclass(frozen=True)
class ChainReport:
    period_pattern: tuple[int, ...]  # sorted multiset of chain periods
    orbit_count: int


def verify_solution(sigma: Sequence[Sequence[int]], tau: Sequence[Sequence[int]]) -> Solution:
    """Validate the two tables and return a Solution.

    Checks non-degeneracy row by row, bijectivity of the pair map, and the
    Yang-Baxter equation on all n^3 triples.
    """
    sigma = _freeze(sigma)
    tau = _freeze(tau)
    n = len(sigma)
    if n == 0 or len(tau) != n or any(len(row) != n for row in sigma + tau):
        raise ValueError("sigma and tau must be non-empty n x n tables of equal size")
    for x in range(n):
        if not perm.is_perm(sigma[x], n):
            raise DegenerateRow("sigma", x)
    for y in range(n):
        if not perm.is_perm(tau[y], n):
            raise DegenerateRow("tau", y)
    if not _pair_bijective(sigma, tau, n):
        raise NotInvertible("the pair map (x,y) -> (sigma_x(y), tau_y(x)) is not bijective")

    witness = _ybe_witness(sigma, tau, n)
    if witness is not None:
        raise YBEFailure(witness)
    return Solution(n, sigma, tau)


def _ybe_witness(sigma: Table, tau: Table, n: int) -> Optional[tuple[int, int, int]]:
    """The lexicographically first triple on which r1 r2 r1 and r2 r1 r2
    differ, or None when the braid relation holds on all n^3 triples.

    Entries must lie in range(n).  With (a, b) = r(x, y), the two sides agree
    on (x, y, z) exactly when
      sigma_a sigma_b (z) = sigma_x sigma_y (z)   and
      (tau_{sigma_b(z)}(a), tau_z(b)) = r(tau_{sigma_y(z)}(x), tau_z(y)).
    Each (x, y) is checked for every z at once by C-level gathers; only a
    row that differs is scanned in Python, for its first z.
    """
    if n == 1:
        return None  # every entry is 0, so both sides are (0, 0, 0)
    cols = tuple(zip(*tau))  # cols[x][y] = tau_y(x)
    after = [itemgetter(*row) for row in sigma]  # after[b](p)[z] = p[sigma_b(z)]
    # A pair (u, v) is coded u*n + v; blocks[u] holds the codes of (u, 0..n-1).
    # pair_sigma and pair_tau take the code of (u, v) to the two points of
    # r(u, v), r_code[y] gathers over z the code of r(y, z), and left_x takes
    # the code of (u, v) to the code of (tau_u(x), v).
    pair_sigma = tuple(chain.from_iterable(sigma))
    pair_tau = tuple(chain.from_iterable(cols))
    codes = map(add, map(mul, pair_sigma, repeat(n)), pair_tau)
    r_code = [itemgetter(*row) for row in zip(*[codes] * n)]
    blocks = list(zip(*[iter(range(n * n))] * n))
    for x in range(n):
        left_x = tuple(chain.from_iterable(itemgetter(*cols[x])(blocks)))
        sigma_x = sigma[x]
        for y in range(n):
            a, b = sigma_x[y], tau[y][x]
            first_l, first_r = after[b](sigma[a]), after[y](sigma_x)
            mid_l, last_l = after[b](cols[a]), cols[b]
            at = itemgetter(*r_code[y](left_x))
            mid_r, last_r = at(pair_sigma), at(pair_tau)
            if first_l != first_r or mid_l != mid_r or last_l != last_r:
                for z in range(n):
                    if (first_l[z], mid_l[z], last_l[z]) != (first_r[z], mid_r[z], last_r[z]):
                        return x, y, z
    return None


def _pair_bijective(sigma, tau, n: int) -> bool:
    """Whether the pair map (x, y) -> (sigma_x(y), tau_y(x)) is a bijection."""
    seen = set()
    for x in range(n):
        for y in range(n):
            pair = (sigma[x][y], tau[y][x])
            if pair in seen:
                return False
            seen.add(pair)
    return True


def _is_involutive(sigma, tau, n: int) -> bool:
    """Whether r(r(x, y)) = (x, y) for all x, y."""
    for x in range(n):
        for y in range(n):
            u, v = sigma[x][y], tau[y][x]
            if (sigma[u][v], tau[v][u]) != (x, y):
                return False
    return True


def _is_biquandle_tables(sigma, tau, n: int) -> bool:
    """Whether r(T(x), x) = (T(x), x) for all x, with T(x) = tau_x^{-1}(x)."""
    for x in range(n):
        t = tau[x].index(x)
        if sigma[t][x] != t:
            return False
    return True


@per_input
def invert_solution(s: Solution) -> Solution:
    """The inverse braiding r^{-1}(x,y) = (sigma^_x(y), tau^_y(x)).

    r^{-1} of a valid solution is valid, so the tables are not checked again.
    """
    n = s.n
    sigma_hat = [[0] * n for _ in range(n)]
    tau_hat = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            u, v = s.r(x, y)
            # r^{-1}(u, v) = (x, y)
            sigma_hat[u][v] = x
            tau_hat[v][u] = y
    return Solution(n, tuple(map(tuple, sigma_hat)), tuple(map(tuple, tau_hat)))


def verify_rack(op: Sequence[Sequence[int]]) -> Rack:
    """Validate a rack table and return a Rack."""
    op = _freeze(op)
    n = len(op)
    if n == 0 or any(len(row) != n for row in op):
        raise ValueError("op must be a non-empty n x n table")
    for y in range(n):
        if not perm.is_perm(tuple(op[x][y] for x in range(n)), n):
            raise NonBijectiveTranslation(y)
    witness = _sd_witness(op, n)
    if witness is not None:
        raise SelfDistributivityFailure(witness)
    return Rack(n, op)


def _sd_witness(op: Table, n: int) -> Optional[tuple[int, int, int]]:
    """The lexicographically first (x, y, z) with (x > y) > z != (x > z) > (y > z),
    or None when op is right self-distributive.

    Entries must lie in range(n).  Uses the translation form
    rho_z rho_y = rho_{rho_z(y)} rho_z, one pair (y, z) at a time over every
    x.  A pair that fails is scanned for its first x; the witness is the
    least (x, y, z) over all failing pairs.
    """
    rho = tuple(zip(*op))  # rho[y][x] = x > y
    after = [itemgetter(*col) for col in rho]  # after[y](p)[x] = p[x > y]
    best = None
    for y in range(n):
        for z in range(n):
            lhs, rhs = after[y](rho[z]), after[z](rho[rho[z][y]])
            if lhs != rhs:
                x = next(x for x in range(n) if lhs[x] != rhs[x])
                if best is None or x < best[0]:
                    best = (x, y, z)
    return best


@per_input
def sd_solutions(rk: Rack) -> tuple[Solution, Solution]:
    """The two self-distributive solutions of a rack.

    Returns (r_op, r'_op) with r_op(x,y) = (y, x > y) and
    r'_op(x,y) = (y > x, x).  Both are solutions for every rack, so their
    tables are not checked again.
    """
    n = rk.n
    ident = (perm.identity(n),) * n
    rho = tuple(rk.rho(y) for y in range(n))
    # r_op: sigma_x = id, tau_y = rho_y; r'_op: sigma_x = rho_x, tau_y = id
    return Solution(n, ident, rho), Solution(n, rho, ident)


def _partition_from_perms(n: int, perms: list[perm.Perm]) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for x in range(n):
            ra, rb = find(x), find(p[x])
            if ra != rb:
                parent[ra] = rb
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(tuple(sorted(b)) for b in sorted(blocks.values()))


def rack_orbits(rk: Rack) -> tuple[tuple[int, ...], ...]:
    """Partition of X under all right translations; block count is K."""
    return _partition_from_perms(rk.n, [rk.rho(y) for y in range(rk.n)])


def solution_orbits(s: Solution) -> tuple[tuple[int, ...], ...]:
    """Partition of X under all sigma_z and tau_z; block count is k_r."""
    perms = [s.sigma[z] for z in range(s.n)] + [s.tau[z] for z in range(s.n)]
    return _partition_from_perms(s.n, list(perms))


def chain_periods(rk: Rack) -> ChainReport:
    """Minimal periods of all chains, via cycles of (x,y) -> (y, x > y) on X^2."""
    n = rk.n
    pair_map = {}
    for x in range(n):
        for y in range(n):
            pair_map[(x, y)] = (y, rk.op[x][y])
    seen: set[tuple[int, int]] = set()
    periods = []
    for start in sorted(pair_map):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = pair_map[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = pair_map[cur]
        periods.append(len(cyc))
    return ChainReport(tuple(sorted(periods)), len(rack_orbits(rk)))


def t_map_of(s: Solution) -> perm.Perm:
    """The map T(y) = tau_y^{-1}(y); always a bijection for valid solutions."""
    return tuple(s.tau[y].index(y) for y in range(s.n))


def is_biquandle(s: Solution) -> bool:
    """A solution is a biquandle iff r(T(x), x) = (T(x), x) for all x."""
    return _is_biquandle_tables(s.sigma, s.tau, s.n)


def classify(s: Solution) -> SolutionClass:
    n = s.n
    ident = perm.identity(n)
    involutive = _is_involutive(s.sigma, s.tau, n)
    bq = is_biquandle(s)
    sd_right = all(s.sigma[x] == ident for x in range(n))
    sd_left = all(s.tau[y] == ident for y in range(n))
    return SolutionClass(
        involutive=involutive,
        biquandle=bq,
        self_distributive_right=sd_right,
        self_distributive_left=sd_left,
        # r restricts to Y x Y and Z x Z for X = Y | Z exactly when Y is a
        # union of orbits (for y in Y, sigma_y and tau_y map the finite Y
        # into, hence onto, itself, so they preserve Z): a split needs k_r >= 2
        decomposable=len(solution_orbits(s)) >= 2,
        t_map=t_map_of(s) if bq else None,
    )

