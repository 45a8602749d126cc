"""The row-at-a-time Yang-Baxter and self-distributivity kernels and the
composed-permutation cabling, each against its scalar reference."""

import random
from itertools import product

import pytest

from ybe import perm
from ybe.census import enumerate_solutions
from ybe.core import (
    Solution,
    _derived_op,
    _preserve,
    _ybe_holds,
    _ybe_witness,
    invert_solution,
    verify_rack,
    verify_solution,
)
from ybe.derived import cable, structure_racks
from ybe.errors import SelfDistributivityFailure, YBEFailure
from ybe.words import act_left, act_right, degrees, twisted_power


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


def ybe_holds(sigma, tau, n):
    return _ybe_holds(sigma, tau, _derived_op(Solution(n, sigma, tau)), n)


def sd_witness(op, n):
    """The first failing triple of the braid relation of r(x, y) = (y, x > y),
    the scan verify_rack names; for any table with entries in range(n) it is
    the first failing triple of self-distributivity."""
    return _ybe_witness((tuple(range(n)),) * n, tuple(zip(*op)), n)


def sd_holds(op, n):
    """Whether every right translation preserves op, as verify_rack asks it."""
    return _preserve(list(map(bytes, op)), list(map(bytes, zip(*op))), n)


def rack_triple(op):
    """verify_rack's witness for a table whose columns are permutations, or
    None when it is a rack."""
    try:
        verify_rack(op)
    except SelfDistributivityFailure as err:
        return err.triple
    return None


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


@pytest.mark.parametrize("n", range(1, 9))
def test_kernels_match_oracles_on_random_tables(n):
    rng = random.Random(1000 + n)
    failing = 0
    for trial in range(300):
        # arbitrary entries, then rows that are permutations
        make = _table if trial % 2 else _perm_rows
        sigma, tau, op = make(rng, n), make(rng, n), make(rng, n)
        witness = ybe_oracle(sigma, tau, n)
        assert _ybe_witness(sigma, tau, n) == witness, (sigma, tau)
        assert sd_witness(op, n) == sd_oracle(op, n), op
        if trial % 2 == 0:  # columns that are permutations
            columns = tuple(zip(*op))
            assert rack_triple(columns) == sd_oracle(columns, n), columns
        failing += witness is not None
    if n > 1:
        assert failing > 150


def test_kernels_accept_every_fixture(solution_fixtures, rack_fixtures):
    for s in solution_fixtures.values():
        assert _ybe_witness(s.sigma, s.tau, s.n) is None
    for rk in rack_fixtures.values():
        assert sd_witness(rk.op, rk.n) is None


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
            assert sd_witness(op, n) == rack_triple(op) == sd_oracle(op, n)
    for rk in racks4.representatives:
        assert sd_witness(rk.op, 4) is None
        assert rack_triple(rk.op) is None
    rng = random.Random(4)
    perms = perm.all_perms(4)
    for _ in range(2000):
        cols = [rng.choice(perms) for _ in range(4)]
        op = tuple(tuple(cols[y][x] for y in range(4)) for x in range(4))
        assert sd_witness(op, 4) == rack_triple(op) == sd_oracle(op, 4)


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
        assert sd_witness(bad, p) == rack_triple(bad) == sd_oracle(bad, p)
    for bad in _swaps(op):  # columns that are no longer permutations
        assert sd_witness(bad, p) == sd_oracle(bad, p)


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
    # m = k l + r walks l letters and takes powers: every k <= 2 and r < l
    # occurs for each cycle length l of T
    for s in list(solution_fixtures.values()) + census_solutions:
        longest = max(map(len, perm.cycles(structure_racks(s).T)))
        for m in range(1, max(5, 2 * longest + 2)):
            c = cable(s, m)
            assert (c.sigma, c.tau) == cable_oracle(s, m), (s, m)


@pytest.mark.parametrize("derive", [lambda s: cable(s, 2).n, lambda s: len(degrees(s).d)],
                         ids=["cable", "degrees"])
def test_cable_makes_no_word_action_calls(monkeypatch, derive):
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
    assert derive(Solution(97, sigma, tau)) == 97
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

    for name in ("_ybe_witness", "_ybe_holds", "_preserve"):
        monkeypatch.setattr(core, name, counting(name, getattr(core, name)))
    sigma, tau = _affine_sd(13, 3)
    c = cable(Solution(13, sigma, tau), 2)
    assert c.n == 13
    # the cable of a solution is a solution, so its output is not re-checked
    assert calls == {}


def _left_nondegenerate_maps(n):
    """Every (sigma, tau) on n points with permutation sigma rows."""
    perms = perm.all_perms(n)
    rows = list(product(range(n), repeat=n))
    for sigma in product(perms, repeat=n):
        for tau in product(rows, repeat=n):
            yield sigma, tau


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ybe_predicate_on_every_census_candidate(n):
    perms = perm.all_perms(n)
    valid = 0
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            holds = ybe_holds(sigma, tau, n)
            assert holds == (ybe_oracle(sigma, tau, n) is None), (sigma, tau)
            valid += holds
    assert valid > 0


def test_ybe_predicate_on_every_left_nondegenerate_map_at_n2():
    maps = list(_left_nondegenerate_maps(2))
    assert len(maps) == 64
    for sigma, tau in maps:
        assert ybe_holds(sigma, tau, 2) == (ybe_oracle(sigma, tau, 2) is None), (sigma, tau)


@pytest.mark.slow
def test_ybe_predicate_on_every_left_nondegenerate_map_at_n3():
    count = 0
    for sigma, tau in _left_nondegenerate_maps(3):
        assert ybe_holds(sigma, tau, 3) == (ybe_oracle(sigma, tau, 3) is None), (sigma, tau)
        count += 1
    assert count == 6 ** 3 * 3 ** 9 == 4_251_528


@pytest.mark.parametrize("n", range(3, 7))
def test_ybe_predicate_on_random_left_nondegenerate_maps(n):
    rng = random.Random(2000 + n)
    for trial in range(300):
        sigma = _perm_rows(rng, n)
        tau = _perm_rows(rng, n) if trial % 2 else _table(rng, n)
        assert ybe_holds(sigma, tau, n) == (ybe_oracle(sigma, tau, n) is None), (sigma, tau)
    for sigma, tau in (_affine_sd(5, 2), _lyubashenko(6)):
        m = len(sigma)
        for bad in _swaps(tau):
            assert ybe_holds(sigma, bad, m) == (ybe_oracle(sigma, bad, m) is None), bad


def test_predicates_accept_every_fixture(fixture_and_sd_solutions, rack_fixtures):
    for s in fixture_and_sd_solutions:
        assert ybe_holds(s.sigma, s.tau, s.n)
    for rk in rack_fixtures.values():
        assert sd_holds(rk.op, rk.n)


def test_derived_operation_is_the_right_structure_rack(fixture_and_sd_solutions):
    # the paper's right structure rack, x >_r w = tau_w(tau^_w^{-1}(x)), read
    # from the inverse solution
    census = enumerate_solutions(4, bound=4).representatives
    assert len(census) == 253
    for s in list(fixture_and_sd_solutions) + list(census):
        tau_hat = invert_solution(s).tau
        rho = [perm.compose(s.tau[w], perm.inverse(tau_hat[w])) for w in range(s.n)]
        assert structure_racks(s).right.op == tuple(zip(*rho)), s


def test_sd_predicate_matches_the_oracle():
    for n in (1, 2, 3):
        perms = perm.all_perms(n)
        for cols in product(perms, repeat=n):
            op = tuple(tuple(cols[y][x] for y in range(n)) for x in range(n))
            assert sd_holds(op, n) == (sd_oracle(op, n) is None), op
    rng = random.Random(6)
    for n in range(1, 7):
        for _ in range(300):
            op = _table(rng, n)
            assert sd_holds(op, n) == (sd_oracle(op, n) is None), op
    for p, a in [(5, 2), (7, 3)]:
        for bad in _swaps(_affine_rack(p, a)):
            assert sd_holds(bad, p) == (sd_oracle(bad, p) is None), bad


def _swap(table, row, i, j):
    rows = [list(r) for r in table]
    rows[row][i], rows[row][j] = rows[row][j], rows[row][i]
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("tables,where", [
    (_lyubashenko(128), "sigma"),
    (_lyubashenko(128), "tau"),
    (_affine_sd(97, 3), "tau"),
])
def test_verify_solution_reports_the_exact_witness_on_large_tables(tables, where):
    # a swap inside a row keeps the rows permutations and, for these
    # families, the pair map bijective, so only the braid relation fails
    sigma, tau = tables
    n = len(sigma)
    rng = random.Random(n)
    i, j = rng.sample(range(n), 2)
    row = rng.randrange(n)
    if where == "sigma":
        sigma = _swap(sigma, row, i, j)
    else:
        tau = _swap(tau, row, i, j)
    assert not ybe_holds(sigma, tau, n)
    with pytest.raises(YBEFailure) as err:
        verify_solution(sigma, tau)
    assert err.value.triple == _ybe_witness(sigma, tau, n) is not None


def test_verify_rack_reports_the_exact_witness_on_a_large_table():
    # above BYTE_BOUND = 256 the braid relation scan alone decides
    for p in (127, 263):
        columns = tuple(zip(*_affine_rack(p, 3)))
        rng = random.Random(p)
        for _ in range(2):
            i, j = rng.sample(range(p), 2)
            bad = tuple(zip(*_swap(columns, rng.randrange(p), i, j)))
            if p <= 256:
                assert not sd_holds(bad, p)
            with pytest.raises(SelfDistributivityFailure) as err:
                verify_rack(bad)
            assert err.value.triple == sd_witness(bad, p) == sd_oracle(bad, p) is not None


def test_verify_accepts_a_256_point_table_without_the_exact_scan(
    monkeypatch, rack_fixtures, racks4
):
    from ybe import core

    def refuse(*args):
        raise AssertionError("the exact scan ran on a valid table")

    monkeypatch.setattr(core, "_ybe_witness", refuse)
    sigma, tau = _lyubashenko(256)
    assert verify_solution(sigma, tau).n == 256
    assert verify_rack(_affine_rack(251, 3)).n == 251
    # racks that are not left distributive too, such as conjugation quandles
    for rk in list(rack_fixtures.values()) + list(racks4.representatives):
        assert verify_rack(rk.op) == rk
