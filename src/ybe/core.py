"""Core finite objects: Yang-Baxter solutions and racks.

A solution is a pair of n x n tables (sigma, tau) encoding the braiding
r(x, y) = (sigma_x(y), tau_y(x)) with sigma[x][y] = sigma_x(y) and
tau[y][x] = tau_y(x).  A rack is a single table op[x][y] = x > y whose right
translations are bijections and which is right self-distributive.
Elements are always 0-based integers.

Every table law reads Soloviev's derived operation x < w (_derived_op),
built once per Solution: bijectivity of the pair map, the Yang-Baxter
equation, involutivity and the structure rack.  A rack is validated as its
self-distributive solution r(x, y) = (y, x > y), whose derived operation
is the rack itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import wraps
from itertools import chain, repeat
from operator import add, itemgetter, mul
from types import SimpleNamespace

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


def _bind(owner: str, names: tuple[str, ...], defaults: dict, args: tuple, kwargs: dict) -> tuple:
    """The values of the parameters `names` of owner(*args, **kwargs): args,
    then each later name from kwargs, else from defaults."""
    later = names[len(args) :]
    if len(args) > len(names) or not kwargs.keys() <= set(later):
        raise TypeError(f"{owner}() got unexpected arguments {args!r}, {kwargs!r}")
    given = {**defaults, **kwargs}
    missing = [name for name in later if name not in given]
    if missing:
        raise TypeError(f"{owner}() missing arguments {missing!r}")
    return args + tuple(map(given.__getitem__, later))


def per_input(fn):
    """Memoise fn(obj, *args) in obj._memo, so each value is computed once
    per input object and freed with it: no value may refer back to obj.

    Defaults are filled in before the key is built, so f(obj), f(obj, v) and
    f(obj, name=v) share one entry; cache_info() counts hits and misses over
    all objects.  The parameters are read from fn.__code__ and
    fn.__defaults__; fn takes no *args, **kwargs or keyword-only parameters.
    """
    code = fn.__code__
    names = code.co_varnames[1 : code.co_argcount]
    values = fn.__defaults__ or ()
    defaults = dict(zip(names[len(names) - len(values) :], values))
    counts = {"hits": 0, "misses": 0}

    @wraps(fn)
    def call(obj, *args, **kwargs):
        if kwargs or len(args) < len(names):
            args = _bind(fn.__name__, names, defaults, args, kwargs)
        key, memo = (fn, *args), obj._memo
        counts["hits" if key in memo else "misses"] += 1
        if key not in memo:
            memo[key] = fn(obj, *args)
        return memo[key]

    call.cache_info = lambda: SimpleNamespace(**counts)
    return call


class Frozen:
    """Base of the immutable value classes: __init__, equality, hashing and
    repr over the fields, the class's own annotated names in order.

    The methods are plain functions shared by every subclass, so defining a
    subclass generates no code.  A class attribute named like a field is its
    default.  The annotation `_memo: dict` gives each instance a fresh dict
    for per_input; it is not a field, so it takes no part in __init__,
    equality, hashing or repr.  Instances compare equal only to instances
    of the same class, and assigning or deleting an attribute raises
    AttributeError; functools.cached_property still works, because it
    writes to the instance __dict__ directly.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = tuple(name for name in names if name != "_memo")
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._has_memo = "_memo" in names

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self).__name__, fields, self._defaults, args, kwargs)
        self.__dict__.update(zip(fields, args))
        if self._has_memo:
            self.__dict__["_memo"] = {}

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Solution(Frozen):
    """A finite invertible non-degenerate set-theoretic YBE solution."""

    n: int
    sigma: Table  # sigma[x][y] = sigma_x(y)
    tau: Table    # tau[y][x] = tau_y(x)
    _memo: dict

    def r(self, x: int, y: int) -> tuple[int, int]:
        return self.sigma[x][y], self.tau[y][x]


class Rack(Frozen):
    """A finite rack, op[x][y] = x > y."""

    n: int
    op: Table
    _memo: dict

    def rho(self, y: int) -> perm.Perm:
        """The right translation by y as a permutation."""
        return tuple(self.op[x][y] for x in range(self.n))

    @property
    def is_quandle(self) -> bool:
        return all(self.op[x][x] == x for x in range(self.n))


class SolutionClass(Frozen):
    involutive: bool
    biquandle: bool
    self_distributive_right: bool
    self_distributive_left: bool
    decomposable: bool
    t_map: perm.Perm | None


class ChainReport(Frozen):
    period_pattern: tuple[int, ...]  # sorted multiset of chain periods
    orbit_count: int


def verify_solution(sigma: Sequence[Sequence[int]], tau: Sequence[Sequence[int]]) -> Solution:
    """Validate the two tables and return a Solution.

    Checks non-degeneracy row by row, then builds the Solution and reads
    from its derived operation (_derived_op) the bijectivity of the pair map
    and the Yang-Baxter equation on all n^3 triples: by _ybe_holds when n <=
    BYTE_BOUND, and by the exact scan _ybe_witness, which names the first
    failing triple, when that fails or n is larger.  The returned object
    keeps the derived operation, so the structure rack reuses it.
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
    s = Solution(n, sigma, tau)
    op = _derived_op(s)
    if any(len(set(column)) != n for column in zip(*op)):
        raise NotInvertible("the pair map (x,y) -> (sigma_x(y), tau_y(x)) is not bijective")
    if n > BYTE_BOUND or not _ybe_holds(sigma, tau, op, n):
        witness = _ybe_witness(sigma, tau, n)
        if witness is not None:
            raise YBEFailure(witness)
    return s


@per_input
def _derived_op(s: Solution) -> list:
    """Rows of Soloviev's derived operation op[x][w] = x < w =
    sigma_w(tau_{sigma_x^{-1}(w)}(x)), for permutation sigma rows and tau
    entries in range(n); for a solution, its right structure rack.

    J lemma: J(x, y) = (x, sigma_x(y)) is a bijection of X^2, and
    J r J^{-1}(x, w) = (w, sigma_w(tau_y(x))) = (w, x < w) for w = sigma_x(y).
    So r is a bijection exactly when every column x -> x < w is one.  []
    Rows are bytes when n <= BYTE_BOUND, so op takes n^2 bytes.
    """
    sigma, n = s.sigma, s.n
    op = []
    for sigma_x, col in zip(sigma, zip(*s.tau)):  # col[y] = tau_y(x)
        row = [0] * n
        for w, v in zip(sigma_x, col):  # w = sigma_x(y), v = tau_y(x)
            row[w] = sigma[w][v]
        op.append(bytes(row) if n <= BYTE_BOUND else row)
    return op


# Tables on at most this many points have every entry in a byte, so their
# rows are bytes objects and p o q is the single C call q.translate(p + pad).
BYTE_BOUND = 256


def _ybe_holds(sigma: Table, tau: Table, op: list[bytes], n: int) -> bool:
    """Whether r(x, y) = (sigma_x(y), tau_y(x)) satisfies the braid relation,
    decided by Soloviev's criterion (Math. Res. Lett. 2000; Lebed-Vendramin,
    Adv. Math. 2017) in O(n^2) compositions of byte rows.

    Every sigma row must be a permutation of range(n), every tau entry must
    lie in range(n), and n <= BYTE_BOUND.  Write r_1 = r x id and
    r_2 = id x r on X^3, and let op = _derived_op(s) hold
      x < w = sigma_w(tau_{sigma_x^{-1}(w)}(x)),  so  x < sigma_x(y) = sigma_a(b)
    with (a, b) = r(x, y).  Then r is a solution exactly when
      (1) sigma_x sigma_y = sigma_{sigma_x(y)} sigma_{tau_y(x)} for all x, y,
      (2) < is right self-distributive, and
      (3) every sigma_x is an endomorphism of <.

    Proof.  Let J(x, y, z) = (x, sigma_x(y), sigma_x sigma_y(z)).  This is
    the one step that uses non-degeneracy, and it needs only the sigma rows
    to be permutations: then J is a bijection of X^3, undone coordinate by
    coordinate.  Let r'(x, w) = (w, x < w), so that
      J r_1 (x, y, z) = (a, sigma_a(b), sigma_a sigma_b(z))
      r'_1 J (x, y, z) = (a, sigma_a(b), sigma_x sigma_y(z))
    with (a, b) = r(x, y): J r_1 J^{-1} = r'_1 iff (1).  With
    (c, d) = r(y, z), that is c = sigma_y(z), the second map's last point
    reads y < c = sigma_c(d), and
      J r_2 (x, y, z) = (x, sigma_x(c), sigma_x(y < c))
      r'_2 J (x, y, z) = (x, sigma_x(c), sigma_x(y) < sigma_x(c)),
    where c runs over all of X as z does: J r_2 J^{-1} = r'_2 iff (3).
    The two sides of the braid relation of r' send (x, y, z) to
    (z, y < z, (x < y) < z) and (z, y < z, (x < z) < (y < z)): r' is a
    solution iff (2).  So (1) and (3) make r = J^{-1} r' J factorwise, and
    then r is a solution iff r' is, iff (2).  Conversely, if r is a
    solution, the first point of its braid relation on (x, y, z) is
    sigma_a sigma_b(z) = sigma_x sigma_y(z), which is (1).  Then
    R = J r_2 J^{-1} maps (x, u, v) to (x, v, u <_x v), where
    u <_x v = sigma_x(sigma_x^{-1}(u) < sigma_x^{-1}(v)).  Conjugated by J,
    the braid relation reads r'_1 R r'_1 = R r'_1 R, and the middle points
    of its two sides at (x, u, v) are u < v and u <_x v, which is (3).  []

    For a solution, < is its right structure rack (derived.structure_racks).
    Here (1) is checked a row x at a time, each side one bytes object of the
    n products over y; (2) says that every right translation of < preserves
    <, and (3) that every sigma_x does, which _preserve checks together.
    This answers only yes or no: _ybe_witness stays the exact scan that
    finds the first failing triple when this fails, and the check for
    n > BYTE_BOUND.
    """
    pad = bytes(BYTE_BOUND - n)
    rows = [bytes(row) for row in sigma]
    after = [row + pad for row in rows]  # q.translate(after[x]) = sigma_x o q
    sigmas = b"".join(rows)  # sigmas.translate(after[x]) holds sigma_x sigma_y for each y
    for x, (sigma_x, col) in enumerate(zip(rows, zip(*tau))):
        # over y, (a, b) = r(x, y) runs through zip(sigma_x, col)
        products = map(bytes.translate, map(rows.__getitem__, col), map(after.__getitem__, sigma_x))
        if sigmas.translate(after[x]) != b"".join(products):  # (1)
            return False
    # (2) and (3): every right translation of < and every sigma_x preserve <
    flat = b"".join(op)
    return _preserve(op, [flat[w::n] for w in range(n)] + rows, n)


def _preserve(op: list[bytes], maps: list[bytes], n: int) -> bool:
    """Whether every map f satisfies f(u > v) = f(u) > f(v), where op[u][v]
    is u > v.  Row u of the left side is f o (u > .) and of the right side
    (f(u) > .) o f: one translation of the whole table and n of rows for
    each distinct f.
    """
    pad = bytes(BYTE_BOUND - n)
    flat = b"".join(op)
    after = [row + pad for row in op]  # q.translate(after[u]) = (u > .) o q
    return all(
        flat.translate(f + pad)
        == b"".join(map(bytes.translate, repeat(f), map(after.__getitem__, f)))
        for f in set(maps)
    )


def _ybe_witness(sigma: Table, tau: Table, n: int) -> tuple[int, int, int] | None:
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
    """Validate a rack table and return a Rack.

    A table whose right translations are bijections is a rack exactly when
    r(x, y) = (y, x > y), with sigma = id and tau_y = rho_y, is a solution:
    for sigma = id, conditions (1) and (3) of _ybe_holds hold trivially and
    its derived operation is > itself, so (2) is self-distributivity, which
    _preserve decides when n <= BYTE_BOUND.  When that fails, or n is
    larger, the exact scan _ybe_witness(id rows, columns, n) names the first
    failing triple, which is the first failing triple of self-distributivity:
    both sides of the braid relation of r map (x, y, z) to (z, y > z, .),
    with last points (x > y) > z and (x > z) > (y > z).
    """
    op = _freeze(op)
    n = len(op)
    if n == 0 or any(len(row) != n for row in op):
        raise ValueError("op must be a non-empty n x n table")
    columns = tuple(zip(*op))
    for y, column in enumerate(columns):
        if not perm.is_perm(column, n):
            raise NonBijectiveTranslation(y)
    if n > BYTE_BOUND or not _preserve(list(map(bytes, op)), list(map(bytes, columns)), n):
        witness = _ybe_witness((perm.identity(n),) * n, columns, n)
        if witness is not None:
            raise SelfDistributivityFailure(witness)
    return Rack(n, op)


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


def _partition_from_perms(n: int, perms: Sequence[perm.Perm]) -> tuple[tuple[int, ...], ...]:
    """The orbits of the permutations, each sorted, in order of least point.

    Each orbit grows from its least point a layer at a time: the images of
    the newest points under every distinct permutation, gathered by map.
    """
    gens = set(perms)
    blocks = []
    unseen = set(range(n))
    for start in range(n):
        if start not in unseen:
            continue
        orbit, layer = {start}, [start]
        while layer:
            layer = set().union(*[map(p.__getitem__, layer) for p in gens]) - orbit
            orbit |= layer
        unseen -= orbit
        blocks.append(tuple(sorted(orbit)))
    return tuple(blocks)


def rack_orbits(rk: Rack) -> tuple[tuple[int, ...], ...]:
    """Partition of X under all right translations; block count is K."""
    return _partition_from_perms(rk.n, tuple(zip(*rk.op)))


def solution_orbits(s: Solution) -> tuple[tuple[int, ...], ...]:
    """Partition of X under all sigma_z and tau_z; block count is k_r."""
    return _partition_from_perms(s.n, s.sigma + s.tau)


def chain_periods(rk: Rack) -> ChainReport:
    """Minimal periods of all chains, via cycles of (x,y) -> (y, x > y) on X^2.

    The map is a bijection (its inverse is (y, z) -> (rho_y^{-1}(z), y)), so
    walking from a pair not yet seen returns to it through unseen pairs only.
    The walk marks pair (x, y) at x n + y of a bytearray, so it holds n^2
    bytes and the periods, not the map."""
    n, op = rk.n, rk.op
    seen = bytearray(n * n)
    periods = []
    start = seen.find(0)
    while start >= 0:
        x, y = divmod(start, n)
        i, length = start, 0
        while not seen[i]:
            seen[i] = 1
            x, y = y, op[x][y]
            i = x * n + y
            length += 1
        periods.append(length)
        start = seen.find(0, start)
    periods.sort()
    return ChainReport(tuple(periods), len(rack_orbits(rk)))


@per_input
def t_map_of(s: Solution) -> perm.Perm:
    """The map T(y) = tau_y^{-1}(y); always a bijection for valid solutions."""
    return tuple(s.tau[y].index(y) for y in range(s.n))


def is_biquandle(s: Solution) -> bool:
    """Whether r(T(x), x) = (T(x), x) for all x, T(x) = tau_x^{-1}(x): iff
    the right structure rack is a quandle.

    Proof.  A fixed point (x, y) of r has y = sigma_x^{-1}(x) and x = T(y),
    so the fixed points pair first coordinates one to one with second ones.
    r is a biquandle iff every y is a second coordinate, iff every x is a
    first one.  By _ybe_holds, x < x = sigma_x(tau_y(x)) for
    y = sigma_x^{-1}(x), which is x iff (x, y) is fixed.  []
    """
    return all(s.sigma[t][x] == t for x, t in enumerate(t_map_of(s)))


def classify(s: Solution) -> SolutionClass:
    n = s.n
    ident = perm.identity(n)
    bq = is_biquandle(s)
    sd_right = all(s.sigma[x] == ident for x in range(n))
    sd_left = all(s.tau[y] == ident for y in range(n))
    return SolutionClass(
        # r = J^{-1} r' J with r'(x, w) = (w, x < w) (J lemma of _derived_op),
        # and r'(r'(x, w)) = (x < w, w < (x < w)): r^2 = id iff x < w = x for
        # all x and w
        involutive=all(row.count(x) == n for x, row in enumerate(_derived_op(s))),
        biquandle=bq,
        self_distributive_right=sd_right,
        self_distributive_left=sd_left,
        # r restricts to Y x Y and Z x Z for X = Y | Z exactly when Y is a
        # union of orbits (for y in Y, sigma_y and tau_y map the finite Y
        # into, hence onto, itself, so they preserve Z): a split needs k_r >= 2
        decomposable=len(solution_orbits(s)) >= 2,
        t_map=t_map_of(s) if bq else None,
    )

