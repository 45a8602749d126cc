"""Words over a solution's generators and their actions on X.

A Word is a tuple of (generator, exponent) letters with exponent +1 or -1.
Words act on X on the right through the tau-maps and on the left through the
sigma-maps; the guitar map J rewrites a word letterwise by letting each
letter absorb the right action of its suffix.
"""

from __future__ import annotations

import math

from . import perm
from .core import Frozen, Solution, _derived_op, is_biquandle, per_input, t_map_of
from .errors import BoundExceeded, SignedWordOnNonBiquandle

Word = tuple[tuple[int, int], ...]


def word_of(*gens: int) -> Word:
    """A positive word from a sequence of generator indices."""
    return tuple((g, 1) for g in gens)


def free_reduce(w: Word) -> Word:
    """w with each adjacent pair (g, e)(g, -e) cancelled; the letters kept
    are w's own tuples."""
    out: list[tuple[int, int]] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@per_input
def _tau_inv(s: Solution) -> tuple[perm.Perm, ...]:
    return tuple(perm.inverse(s.tau[y]) for y in range(s.n))


@per_input
def _sigma_inv(s: Solution) -> tuple[perm.Perm, ...]:
    return tuple(perm.inverse(s.sigma[x]) for x in range(s.n))


def act_right(s: Solution, x: int, w: Word) -> int:
    """x^w, folding leftmost letter first: x^(uv) = (x^u)^v."""
    tau_inv = _tau_inv(s)
    for g, e in w:
        x = s.tau[g][x] if e > 0 else tau_inv[g][x]
    return x


def act_left(s: Solution, w: Word, x: int) -> int:
    """w acting on x from the left, folding rightmost letter first."""
    sigma_inv = _sigma_inv(s)
    for g, e in reversed(w):
        x = s.sigma[g][x] if e > 0 else sigma_inv[g][x]
    return x


def _require_positive_or_biquandle(s: Solution, w: Word) -> None:
    if any(e < 0 for _, e in w) and not is_biquandle(s):
        raise SignedWordOnNonBiquandle(
            "signed words need the t-map; pass to the induced biquandle first"
        )


def guitar(s: Solution, w: Word) -> Word:
    """The guitar rewriting J.

    Each letter is replaced by its image under the right action of the suffix
    that follows it; the last letter is left unchanged.  Negative letters are
    first rewritten through the t-map (x^-1 maps to t(x)^-1), which requires
    a biquandle.  J satisfies the cocycle identity J(uv) = J(u)^v J(v).
    """
    _require_positive_or_biquandle(s, w)
    t = t_map_of(s)
    out = []
    for i, (g, e) in enumerate(w):
        base = g if e > 0 else t[g]
        out.append((act_right(s, base, w[i + 1:]), e))
    return tuple(out)


def guitar_inverse(s: Solution, w: Word) -> Word:
    """The inverse of guitar on words of the same length."""
    _require_positive_or_biquandle(s, w)
    t_inv = perm.inverse(t_map_of(s))
    tau_inv = _tau_inv(s)
    m = len(w)
    out: list[tuple[int, int]] = [(0, 0)] * m
    for i in range(m - 1, -1, -1):
        g, e = w[i]
        # undo the right action of the already recovered suffix
        x = g
        for h, eh in reversed(out[i + 1:]):
            x = tau_inv[h][x] if eh > 0 else s.tau[h][x]
        out[i] = (x, 1) if e > 0 else (t_inv[x], -1)
    return tuple(out)


@per_input
def structure_rho(s: Solution) -> tuple[perm.Perm, ...]:
    """rho_y = tau_y o tau^_y^{-1}, the columns of core._derived_op(s)."""
    return tuple(zip(*_derived_op(s)))


def rho_of_word(s: Solution, w: Word) -> perm.Perm:
    """The composite rho_{w_m} o ... o rho_{w_1} for a positive word."""
    if any(e < 0 for _, e in w):
        raise ValueError("rho_of_word expects a positive word")
    rho = structure_rho(s)
    result = perm.identity(s.n)
    for g, _ in w:
        result = perm.compose(rho[g], result)
    return result


def twisted_power(s: Solution, y: int, d: int) -> Word:
    """The word T^{d-1}(y) ... T(y) y, the preimage of y^d under guitar."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    t = t_map_of(s)
    letters = []
    x = y
    for _ in range(d):
        letters.append((x, 1))
        x = t[x]
    return tuple(reversed(letters))


def _twisted_actions(s: Solution, y: int, most: int):
    """d -> (L_d, R_d), the left and right actions on X of y^[d].

    The letters of y^[d], right to left, are c_j = T^j(y), of period l, the
    length of y's cycle under T.  So L_k = sigma_{c_{k-1}} ... sigma_{c_0}
    and R_k = tau_{c_0} ... tau_{c_{k-1}}, and d = k l + r gives L_r L_l^k
    and R_l^k R_r.  At most min(most, l) letters are walked, so an answer is
    valid for d <= most, and for every d once most >= l.
    """
    t = t_map_of(s)
    lefts, rights, c = [s.sigma[y]], [s.tau[y]], t[y]  # lefts[j] is L_{j+1}; c is c_1
    while c != y and len(lefts) < most:
        lefts.append(perm.compose(s.sigma[c], lefts[-1]))
        rights.append(perm.compose(rights[-1], s.tau[c]))
        c = t[c]
    ell = len(lefts)  # l when the walk closed y's cycle, as a valid d > ell needs

    def at(d: int) -> tuple[perm.Perm, perm.Perm]:
        if d <= ell:
            return lefts[d - 1], rights[d - 1]
        k, r = divmod(d, ell)
        left, right = perm.power(lefts[-1], k), perm.power(rights[-1], k)
        if r:
            left, right = perm.compose(lefts[r - 1], left), perm.compose(right, rights[r - 1])
        return left, right

    return at


class DegreeTable(Frozen):
    d: tuple[int, ...]
    D: tuple[int, ...]
    twisted_powers: tuple[Word, ...]


def _rack_degree(rho_y: perm.Perm) -> int:
    """Minimal D >= 2 with rho_y^D = identity."""
    return max(2, perm.order(rho_y))


@per_input
def degrees(s: Solution) -> DegreeTable:
    """Element degrees d_y and rack degrees D_y.

    d_y is the minimal d such that (1) d is even whenever rho_y is the
    identity, (2) rho_y^d is the identity, and (3) the twisted power y^[d]
    acts trivially on X from both sides.  The search is capped by the
    provable bound lcm(2, ord(rho_y), p * lcm(q, q')) where p is the order
    of T and q, q' the orders of the two actions of y^[p].  The actions of
    y^[d] are _twisted_actions(s, y, p)(d): p is at least y's T-cycle length.
    """
    D = tuple(_rack_degree(rho_y) for rho_y in structure_rho(s))
    p = perm.order(t_map_of(s))
    trivial = (perm.identity(s.n),) * 2
    d_list = []
    for y, D_y in enumerate(D):
        at = _twisted_actions(s, y, p)
        bound = math.lcm(2, D_y, p * math.lcm(*map(perm.order, at(p))))
        # d is a multiple of D_y: of ord(rho_y), and even when rho_y = id
        d = next((d for d in range(D_y, bound + 1, D_y) if at(d) == trivial), None)
        if d is None:
            raise BoundExceeded(f"no degree found for element {y} up to {bound}")
        d_list.append(d)
    return DegreeTable(tuple(d_list), D, tuple(twisted_power(s, y, d) for y, d in enumerate(d_list)))
