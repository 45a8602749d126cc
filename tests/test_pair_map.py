"""The pair-map criterion of core._derived_op, that r is a bijection exactly
when every column of the derived operation is a permutation, against the set
of all n^2 image pairs."""

import random
from itertools import chain, product

import pytest

from ybe import perm
from ybe.core import Solution, _derived_op


def pair_bijective_oracle(sigma, tau, n):
    """Whether the n^2 pairs (sigma_x(y), tau_y(x)) are distinct."""
    return len(set(zip(chain.from_iterable(sigma), chain.from_iterable(zip(*tau))))) == n * n


def _both(sigma, tau, n):
    got = all(len(set(column)) == n for column in zip(*_derived_op(Solution(n, sigma, tau))))
    assert got == pair_bijective_oracle(sigma, tau, n)
    return got


def test_every_fixture(fixture_and_sd_solutions):
    for s in fixture_and_sd_solutions:
        assert _both(s.sigma, s.tau, s.n)


@pytest.mark.parametrize("n", [1, 2])
def test_every_table_with_permutation_sigma_rows(n):
    """All sigma with permutation rows against all tau with entries in range(n)."""
    rows = list(product(range(n), repeat=n))
    seen = {True: 0, False: 0}
    for sigma in product(perm.all_perms(n), repeat=n):
        for tau in product(rows, repeat=n):
            seen[_both(sigma, tau, n)] += 1
    assert seen[True] and (n == 1 or seen[False])


def test_every_census_candidate_at_n3():
    """Every pair of tables with permutation rows on three points, the
    candidates that enumerate_solutions(3) checks."""
    perms = perm.all_perms(3)
    seen = {True: 0, False: 0}
    for sigma in product(perms, repeat=3):
        for tau in product(perms, repeat=3):
            seen[_both(sigma, tau, 3)] += 1
    assert seen[True] and seen[False]


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


@pytest.mark.parametrize("n", [4, 5, 9, 16, 31, 64])
def test_seeded_tables(n):
    rng = random.Random(n)
    for _ in range(20):
        sigma = tuple(_random_perm(rng, n) for _ in range(n))
        tau = tuple(_random_perm(rng, n) for _ in range(n))
        assert not _both(sigma, tau, n)


@pytest.mark.parametrize("n", [2, 3, 7, 97, 128, 257])
def test_one_changed_tau_entry_breaks_a_bijection(n):
    """From the bijective Lyubashenko pair map relabeled at random, changing
    one entry of tau makes some image pair appear twice."""
    rng = random.Random(n)
    f = _random_perm(rng, n)
    g = perm.inverse(f)
    shift = tuple(f[(g[v] + 1) % n] for v in range(n))  # f shift f^{-1}
    sigma, tau = (shift,) * n, (shift,) * n
    assert _both(sigma, tau, n)
    for _ in range(5):
        x, y = rng.randrange(n), rng.randrange(n)
        row = list(tau[y])
        row[x] = (row[x] + 1 + rng.randrange(n - 1)) % n
        changed = tau[:y] + (tuple(row),) + tau[y + 1:]
        assert not _both(sigma, changed, n)
