"""The row-at-a-time Yang-Baxter and self-distributivity kernels and the
composed-permutation cabling, each against its scalar reference."""

import random
from itertools import product

import pytest

from ybe import perm
from ybe.core import (
    Solution,
    _sd_witness,
    _ybe_witness,
    verify_rack,
    verify_solution,
)
from ybe.derived import cable, structure_racks
from ybe.errors import SelfDistributivityFailure, YBEFailure
from ybe.words import act_left, act_right, twisted_power


def ybe_oracle(sigma, tau, n):
    """The first (x, y, z) in lexicographic order with r1 r2 r1 != r2 r1 r2."""

    def r(x, y):
        return sigma[x][y], tau[y][x]

    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = r(x, y)
                b2, c = r(b, z)
                a2, b3 = r(a, b2)
                b4, c2 = r(y, z)
                a3, b5 = r(x, b4)
                b6, c3 = r(b5, c2)
                if (a2, b3, c) != (a3, b6, c3):
                    return x, y, z
    return None


def sd_oracle(op, n):
    """The first (x, y, z) in lexicographic order with (x>y)>z != (x>z)>(y>z)."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if op[op[x][y]][z] != op[op[x][z]][op[y][z]]:
                    return x, y, z
    return None


def cable_oracle(s, m):
    """The cabled tables entry by entry, through the word actions."""
    n = s.n
    t_fwd = perm.power(structure_racks(s).T, m - 1)
    t_back = perm.inverse(t_fwd)
    powers = [twisted_power(s, x, m) for x in range(n)]
    sigma = tuple(
        tuple(t_back[act_left(s, powers[x], t_fwd[y])] for y in range(n)) for x in range(n)
    )
    tau = tuple(tuple(act_right(s, x, powers[y]) for x in range(n)) for y in range(n))
    return sigma, tau


def _table(rng, n):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))


def _perm_rows(rng, n):
    rows = []
    for _ in range(n):
        p = list(range(n))
        rng.shuffle(p)
        rows.append(tuple(p))
    return tuple(rows)


def _affine_rack(p, a):
    return tuple(tuple((a * x + (1 - a) * y) % p for y in range(p)) for x in range(p))


def _affine_sd(p, a):
    op = _affine_rack(p, a)
    return (tuple(range(p)),) * p, tuple(tuple(op[x][y] for x in range(p)) for y in range(p))


def _lyubashenko(n):
    shift = tuple((v + 1) % n for v in range(n))
    return (shift,) * n, (shift,) * n


def _swaps(table):
    """Every table obtained by exchanging two entries of one row."""
    n = len(table)
    for row in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                rows = [list(r) for r in table]
                rows[row][i], rows[row][j] = rows[row][j], rows[row][i]
                yield tuple(map(tuple, rows))


@pytest.mark.parametrize("n", range(1, 7))
def test_kernels_match_oracles_on_random_tables(n):
    rng = random.Random(1000 + n)
    failing = 0
    for trial in range(300):
        # arbitrary entries, then rows that are permutations
        make = _table if trial % 2 else _perm_rows
        sigma, tau, op = make(rng, n), make(rng, n), make(rng, n)
        witness = ybe_oracle(sigma, tau, n)
        assert _ybe_witness(sigma, tau, n) == witness, (sigma, tau)
        assert _sd_witness(op, n) == sd_oracle(op, n), op
        failing += witness is not None
    if n > 1:
        assert failing > 150


def test_kernels_accept_every_fixture(solution_fixtures, rack_fixtures):
    for s in solution_fixtures.values():
        assert _ybe_witness(s.sigma, s.tau, s.n) is None
    for rk in rack_fixtures.values():
        assert _sd_witness(rk.op, rk.n) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ybe_kernel_on_every_census_candidate(n):
    perms = perm.all_perms(n)
    valid = 0
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            witness = ybe_oracle(sigma, tau, n)
            assert _ybe_witness(sigma, tau, n) == witness
            valid += witness is None
    assert valid > 0


def test_sd_kernel_on_the_rack_census(racks4):
    for n in (1, 2, 3):
        perms = perm.all_perms(n)
        for cols in product(perms, repeat=n):
            op = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            assert _sd_witness(op, n) == sd_oracle(op, n)
    for rk in racks4.representatives:
        assert _sd_witness(rk.op, 4) is None
    rng = random.Random(4)
    perms = perm.all_perms(4)
    for _ in range(2000):
        cols = [rng.choice(perms) for _ in range(4)]
        op = tuple(tuple(cols[y][x] for y in range(4)) for x in range(4))
        assert _sd_witness(op, 4) == sd_oracle(op, 4)


@pytest.mark.parametrize("tables", [_affine_sd(5, 2), _affine_sd(7, 3), _lyubashenko(5)])
def test_ybe_kernel_on_single_swap_corruptions(tables):
    sigma, tau = tables
    n = len(sigma)
    witnessed = 0
    for bad in _swaps(sigma):
        witness = ybe_oracle(bad, tau, n)
        assert _ybe_witness(bad, tau, n) == witness
        witnessed += witness is not None
    for bad in _swaps(tau):
        witness = ybe_oracle(sigma, bad, n)
        assert _ybe_witness(sigma, bad, n) == witness
        witnessed += witness is not None
    assert witnessed > 0


@pytest.mark.parametrize("p,a", [(5, 2), (7, 3)])
def test_sd_kernel_on_single_swap_corruptions(p, a):
    op = _affine_rack(p, a)
    columns = tuple(zip(*op))
    for bad_columns in _swaps(columns):
        bad = tuple(zip(*bad_columns))
        assert _sd_witness(bad, p) == sd_oracle(bad, p)
    for bad in _swaps(op):
        assert _sd_witness(bad, p) == sd_oracle(bad, p)


def test_verify_errors_carry_the_first_witness():
    sigma, tau = _lyubashenko(5)
    bad_tau = ((1, 0, 2, 3, 4),) + tau[1:]
    with pytest.raises(YBEFailure) as err:
        verify_solution(sigma, bad_tau)
    assert err.value.triple == ybe_oracle(sigma, bad_tau, 5)
    op = [list(row) for row in _affine_rack(5, 2)]
    for x in range(5):  # swap the images of 1 and 2 in the translation by 0
        op[x][0] = {1: 2, 2: 1}.get(op[x][0], op[x][0])
    with pytest.raises(SelfDistributivityFailure) as err:
        verify_rack(op)
    assert err.value.triple == sd_oracle(op, 5)


def test_cable_matches_the_word_actions(solution_fixtures, census_solutions):
    for s in list(solution_fixtures.values()) + census_solutions:
        for m in range(1, 5):
            c = cable(s, m)
            assert (c.sigma, c.tau) == cable_oracle(s, m), (s, m)


def test_cable_makes_no_word_action_calls(monkeypatch):
    from ybe import derived, words

    calls = []

    def counting(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    for module in (derived, words):
        monkeypatch.setattr(module, "act_left", counting(words.act_left), raising=False)
        monkeypatch.setattr(module, "act_right", counting(words.act_right), raising=False)
    sigma, tau = _affine_sd(97, 3)
    s = Solution(97, sigma, tau)
    c = cable(s, 2)
    assert c.n == 97
    assert len(calls) == 0


def test_cable_validates_nothing(monkeypatch):
    from collections import Counter

    from ybe import core

    calls = Counter()

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in ("_ybe_witness", "_sd_witness"):
        monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
    sigma, tau = _affine_sd(13, 3)
    c = cable(Solution(13, sigma, tau), 2)
    assert c.n == 13
    # the cable of a solution is a solution, so its output is not re-checked
    assert calls == {}
