"""Word actions, the guitar rewriting, twisted powers, and degrees."""

from itertools import product

import pytest

from ybe import (
    act_left,
    act_right,
    degrees,
    enumerate_solutions,
    guitar,
    guitar_inverse,
    rho_of_word,
    sd_solutions,
    twisted_power,
    verify_rack,
    word_of,
)
from ybe.core import Solution, classify, t_map_of
from ybe.errors import SignedWordOnNonBiquandle
from ybe.fixtures import fixture_solution
from ybe.words import _twisted_actions, free_reduce, structure_rho
from ybe import perm


def all_positive_words(n, max_len):
    for length in range(max_len + 1):
        yield from (word_of(*letters) for letters in product(range(n), repeat=length))


def test_free_reduce():
    assert free_reduce(((0, 1), (0, -1))) == ()
    assert free_reduce(((1, 1), (0, 1), (0, -1), (1, -1))) == ()
    assert free_reduce(((0, 1), (1, 1), (1, -1), (2, 1))) == ((0, 1), (2, 1))


def test_empty_word_acts_trivially(solution_fixtures):
    for s in solution_fixtures.values():
        for x in range(s.n):
            assert act_right(s, x, ()) == x
            assert act_left(s, (), x) == x


def test_single_letter_actions():
    s = fixture_solution("solution/invol3-b")
    for x in range(3):
        for y in range(3):
            assert act_right(s, x, word_of(y)) == s.tau[y][x]
            assert act_left(s, word_of(y), x) == s.sigma[y][x]
            assert act_right(s, s.tau[y][x], ((y, -1),)) == x


def test_right_action_is_an_action(solution_fixtures):
    # x^(uv) = (x^u)^v and w acting on the left composes the other way
    for s in solution_fixtures.values():
        if s.n > 3:
            continue
        for u in all_positive_words(s.n, 2):
            for v in all_positive_words(s.n, 2):
                for x in range(s.n):
                    assert act_right(s, x, u + v) == act_right(s, act_right(s, x, u), v)
                    assert act_left(s, u + v, x) == act_left(s, u, act_left(s, v, x))


def test_actions_respect_the_defining_relations(solution_fixtures):
    # substituting x y -> sigma_x(y) tau_y(x) inside a word never changes
    # either action, since both factor through the structure group
    for s in solution_fixtures.values():
        if s.n > 3:
            continue
        for x in range(s.n):
            for y in range(s.n):
                u, v = s.r(x, y)
                for z in range(s.n):
                    assert act_right(s, z, word_of(x, y)) == act_right(s, z, word_of(u, v))
                    assert act_left(s, word_of(x, y), z) == act_left(s, word_of(u, v), z)


def test_guitar_on_short_words():
    s = fixture_solution("solution/twisted-flip2")  # r(x,y) = (1-y, 1-x) on {0,1}
    # J fixes length-one words and rewrites the first letter of a pair by
    # the right action of the second
    assert guitar(s, word_of(0)) == word_of(0)
    assert guitar(s, word_of(0, 1)) == word_of(1, 1)
    assert guitar(s, word_of(0, 0)) == word_of(1, 0)


def test_guitar_inverse_recovers_printed_value():
    s = fixture_solution("solution/twisted-flip2")
    # the preimage of the constant word aa is ba
    assert guitar_inverse(s, word_of(0, 0)) == word_of(1, 0)


def test_guitar_round_trip(solution_fixtures):
    for s in solution_fixtures.values():
        if s.n > 3:
            continue
        for w in all_positive_words(s.n, 3):
            assert guitar_inverse(s, guitar(s, w)) == w
            assert guitar(s, guitar_inverse(s, w)) == w


def test_guitar_round_trip_on_signed_words():
    s = fixture_solution("solution/dihedral3-b")
    letters = [(g, e) for g in range(3) for e in (1, -1)]
    for w in product(letters, repeat=2):
        assert guitar_inverse(s, guitar(s, w)) == w


def test_guitar_cocycle_identity(solution_fixtures):
    # J(uv) = J(u)^v J(v), where the suffix acts letterwise on the right
    for s in solution_fixtures.values():
        if s.n > 3:
            continue
        for u in all_positive_words(s.n, 2):
            for v in all_positive_words(s.n, 2):
                ju_twisted = tuple(
                    (act_right(s, g, v), e) for g, e in guitar(s, u)
                )
                assert guitar(s, u + v) == ju_twisted + guitar(s, v)


def test_signed_words_require_a_biquandle():
    shift = verify_rack([[(x + 1) % 3] * 3 for x in range(3)])
    s = sd_solutions(shift)[0]
    with pytest.raises(SignedWordOnNonBiquandle):
        guitar(s, ((0, -1),))
    with pytest.raises(SignedWordOnNonBiquandle):
        guitar_inverse(s, ((0, -1),))
    # positive words are still fine
    assert guitar(s, word_of(0, 1)) == (
        (act_right(s, 0, word_of(1)), 1),
        (1, 1),
    )


def test_twisted_power_structure():
    s = fixture_solution("solution/twisted-flip2")
    t = t_map_of(s)
    assert twisted_power(s, 0, 1) == word_of(0)
    assert twisted_power(s, 0, 2) == word_of(t[0], 0) == word_of(1, 0)
    with pytest.raises(ValueError):
        twisted_power(s, 0, 0)


def test_twisted_power_of_quandle_sd_solution_is_plain_power():
    s = fixture_solution("solution/dihedral3-sd")
    for y in range(3):
        for d in (1, 2, 3):
            assert twisted_power(s, y, d) == word_of(*[y] * d)


def test_structure_rho_translations():
    s = fixture_solution("solution/dihedral3-sd")
    rho = structure_rho(s)
    rk = verify_rack([[(2 * y - x) % 3 for y in range(3)] for x in range(3)])
    for y in range(3):
        assert rho[y] == rk.rho(y)


def test_rho_of_guitar_word_matches_conjugated_actions(solution_fixtures):
    # composing the structure-rack translations along the guitar image of a
    # positive word, first letter outermost, recovers tau_w o tau^_w^{-1},
    # the comparison of the two right actions of w
    from ybe.core import invert_solution

    for s in solution_fixtures.values():
        if s.n > 3:
            continue
        inv = invert_solution(s)
        for w in all_positive_words(s.n, 3):
            tw = tuple(act_right(s, x, w) for x in range(s.n))
            tw_hat = tuple(act_right(inv, x, w) for x in range(s.n))
            lhs = rho_of_word(s, tuple(reversed(guitar(s, w))))
            assert lhs == perm.compose(tw, perm.inverse(tw_hat))


def test_rho_of_word_rejects_signed_words():
    s = fixture_solution("solution/dihedral3-sd")
    with pytest.raises(ValueError):
        rho_of_word(s, ((0, -1),))


def test_degrees_of_two_point_twisted_flip():
    table = degrees(fixture_solution("solution/twisted-flip2"))
    assert table.d == (2, 2)
    assert table.D == (2, 2)
    assert table.twisted_powers == (word_of(1, 0), word_of(0, 1))


def test_degrees_definition_holds(solution_fixtures):
    # d_y is minimal: even when rho_y = id, a multiple of ord(rho_y), and
    # the twisted power acts trivially on both sides
    for s in solution_fixtures.values():
        table = degrees(s)
        rho = structure_rho(s)
        ident = perm.identity(s.n)
        for y in range(s.n):
            d = table.d[y]
            w = table.twisted_powers[y]
            assert len(w) == d
            assert all(act_right(s, x, w) == x for x in range(s.n))
            assert all(act_left(s, w, x) == x for x in range(s.n))
            o = perm.order(rho[y])
            assert d % o == 0
            if rho[y] == ident:
                assert d % 2 == 0
            for smaller in range(1, d):
                if rho[y] == ident and smaller % 2 == 1:
                    continue
                if smaller % o != 0:
                    continue
                ws = twisted_power(s, y, smaller)
                trivial = all(
                    act_right(s, x, ws) == x and act_left(s, ws, x) == x
                    for x in range(s.n)
                )
                assert not trivial, (y, smaller)


def test_degrees_constant_on_orbits(solution_fixtures):
    from ybe.core import solution_orbits

    for s in solution_fixtures.values():
        table = degrees(s)
        for block in solution_orbits(s):
            assert len({table.d[x] for x in block}) == 1
            assert len({table.D[x] for x in block}) == 1


def test_rack_degree_of_identity_translation_is_two():
    s = verify_solution_trivial()
    table = degrees(s)
    assert table.D == (2, 2) and table.d == (2, 2)


def verify_solution_trivial() -> Solution:
    from ybe.core import verify_solution

    ident = [[0, 1], [0, 1]]
    return verify_solution(ident, ident)


def test_involutive_rack_degrees_are_two(involutive3):
    # involutive solutions have trivial structure racks, so every rack
    # degree is two; the element degrees are even but can be larger
    for s in involutive3.representatives:
        table = degrees(s)
        assert table.D == (2,) * s.n
        assert all(d % 2 == 0 for d in table.d)


def _degree_oracle(s, y):
    """The least d >= 1 meeting the definition of d_y, by a plain scan."""
    rho_y = structure_rho(s)[y]
    d = 1
    while True:
        even_enough = rho_y != perm.identity(s.n) or d % 2 == 0
        if even_enough and d % perm.order(rho_y) == 0:
            w = twisted_power(s, y, d)
            if all(act_right(s, x, w) == x and act_left(s, w, x) == x for x in range(s.n)):
                return d
        d += 1


def _lyubashenko(n):
    """r(x, y) = (y + 1, x + 1) mod n; T is an n-cycle."""
    shift = tuple((v + 1) % n for v in range(n))
    return Solution(n, (shift,) * n, (shift,) * n)


def _product(a, b):
    """The direct product solution on X x Y, (x, u) numbered x * |Y| + u."""
    pairs = [(x, u) for x in range(a.n) for u in range(b.n)]

    def rows(ta, tb):
        return tuple(tuple(ta[x][y] * b.n + tb[u][v] for y, v in pairs) for x, u in pairs)

    return Solution(len(pairs), rows(a.sigma, b.sigma), rows(a.tau, b.tau))


def test_degrees_match_a_plain_scan(fixture_and_sd_solutions, census_solutions):
    # T is an n-cycle on the Lyubashenko solutions; on the product, T-cycles
    # of length 6 pass through letters with different rows
    long_cycles = [_lyubashenko(n) for n in (5, 8)]
    long_cycles.append(_product(_lyubashenko(3), fixture_solution("solution/4pt-irretractable")))
    for s in list(fixture_and_sd_solutions) + list(census_solutions) + long_cycles:
        assert degrees(s).d == tuple(_degree_oracle(s, y) for y in range(s.n)), s


def test_twisted_actions_match_the_word_actions(solution_fixtures, census_solutions):
    # d = k l + r for every k <= 2 and r < l, read with most = d (only the
    # letters of y^[d] walked) and with most = ord T (y's whole T-cycle)
    solutions = list(solution_fixtures.values()) + list(census_solutions)
    solutions += enumerate_solutions(4, bound=4).representatives
    for s in solutions:
        t = t_map_of(s)
        p = perm.order(t)
        for y in range(s.n):
            ell = len(next(c for c in perm.cycles(t) if y in c))
            for d in range(1, 2 * ell + 3):
                w = twisted_power(s, y, d)
                actions = (tuple(act_left(s, w, x) for x in range(s.n)),
                           tuple(act_right(s, x, w) for x in range(s.n)))
                for most in (d, p):
                    assert _twisted_actions(s, y, most)(d) == actions, (s, y, d, most)
