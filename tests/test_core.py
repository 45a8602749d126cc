"""Validation, inversion, orbits, chain periods, and classification."""

import pytest

from ybe import (
    chain_periods,
    classify,
    enumerate_racks,
    invert_solution,
    perm,
    rack_orbits,
    sd_solutions,
    solution_orbits,
    verify_rack,
    verify_solution,
)
from ybe.core import is_biquandle, t_map_of
from ybe.errors import (
    DegenerateRow,
    NonBijectiveTranslation,
    NotInvertible,
    SelfDistributivityFailure,
    UnknownName,
    YBEFailure,
)
from ybe.fixtures import fixture_document, fixture_rack, fixture_solution, object_from_document

IDENT3 = [[0, 1, 2]] * 3


def test_fixture_accessors_reject_the_other_kind():
    with pytest.raises(TypeError):
        fixture_solution("rack/dihedral3")
    with pytest.raises(TypeError):
        fixture_rack("solution/dihedral3-sd")


def test_fixture_lookups_reject_unknown_names_and_schemas():
    # the CLI checks names and schemas first, so only a library call gets here
    with pytest.raises(UnknownName):
        fixture_document("rack/nope")
    doc = dict(fixture_document("rack/dihedral3"), schema="ybe-group/1")
    with pytest.raises(ValueError, match="unknown document schema 'ybe-group/1'"):
        object_from_document(doc)


def test_negative_power_is_the_power_of_the_inverse():
    p = (1, 2, 3, 0, 5, 4)
    for k in range(1, 6):
        assert perm.power(p, -k) == perm.power(perm.inverse(p), k)
        assert perm.compose(perm.power(p, -k), perm.power(p, k)) == perm.identity(6)


def test_trivial_flip_is_valid_and_involutive():
    s = verify_solution(IDENT3, IDENT3)
    assert classify(s).involutive
    assert all(s.r(x, y) == (y, x) for x in range(3) for y in range(3))


def test_degenerate_row_rejected():
    bad = [[0, 0, 2], [0, 1, 2], [0, 1, 2]]
    with pytest.raises(DegenerateRow) as exc:
        verify_solution(bad, IDENT3)
    assert exc.value.which == "sigma" and exc.value.index == 0
    with pytest.raises(DegenerateRow) as exc:
        verify_solution(IDENT3, bad)
    assert exc.value.which == "tau"


def test_pair_map_bijectivity_rejected():
    # sigma and tau rows are all permutations, but the pair map collapses
    sigma = [[1, 0, 2], [0, 1, 2], [0, 1, 2]]
    tau = [[1, 0, 2], [0, 1, 2], [0, 1, 2]]
    with pytest.raises(NotInvertible):
        verify_solution(sigma, tau)


def test_ybe_failure_carries_witness_triple():
    sigma = [[0, 2, 1], [0, 1, 2], [0, 1, 2]]
    tau = [[0, 1, 2], [0, 1, 2], [0, 2, 1]]
    with pytest.raises(YBEFailure) as exc:
        verify_solution(sigma, tau)
    assert exc.value.triple == (0, 1, 1)


def test_empty_tables_rejected():
    with pytest.raises(ValueError):
        verify_solution([], [])
    with pytest.raises(ValueError):
        verify_rack([])


def test_invert_solution_composes_to_identity(solution_fixtures):
    for s in solution_fixtures.values():
        inv = invert_solution(s)
        for x in range(s.n):
            for y in range(s.n):
                u, v = s.r(x, y)
                assert inv.r(u, v) == (x, y)
                u2, v2 = inv.r(x, y)
                assert s.r(u2, v2) == (x, y)


def test_involutive_solutions_are_self_inverse(solution_fixtures):
    for s in solution_fixtures.values():
        if classify(s).involutive:
            assert invert_solution(s) == s


def test_double_inversion_is_identity(solution_fixtures):
    for s in solution_fixtures.values():
        assert invert_solution(invert_solution(s)) == s


def test_verify_rack_accepts_dihedral_table():
    rk = verify_rack([[(2 * y - x) % 3 for y in range(3)] for x in range(3)])
    assert rk.is_quandle
    assert rk.rho(0) == (0, 2, 1)


def test_non_bijective_translation_rejected():
    with pytest.raises(NonBijectiveTranslation) as exc:
        verify_rack([[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    assert exc.value.index == 0


def test_self_distributivity_failure_carries_witness():
    # columns are permutations but self-distributivity fails
    cols = [(0, 1, 2), (0, 1, 2), (0, 2, 1)]
    op = [[cols[y][x] for y in range(3)] for x in range(3)]
    with pytest.raises(SelfDistributivityFailure) as exc:
        verify_rack(op)
    assert exc.value.triple == (1, 1, 2)


def test_sd_solutions_shapes():
    rk = fixture_rack("rack/dihedral3")
    first, second = sd_solutions(rk)
    ident = tuple(range(3))
    assert all(first.sigma[x] == ident for x in range(3))
    assert all(first.tau[y] == rk.rho(y) for y in range(3))
    assert all(second.tau[y] == ident for y in range(3))
    flags = classify(first)
    assert flags.self_distributive_right and not flags.self_distributive_left


def test_rack_orbit_counts():
    assert len(rack_orbits(fixture_rack("rack/trivial3"))) == 3
    assert len(rack_orbits(fixture_rack("rack/two-orbit3"))) == 2
    assert len(rack_orbits(fixture_rack("rack/dihedral3"))) == 1


def test_solution_orbits():
    assert len(solution_orbits(verify_solution(IDENT3, IDENT3))) == 3
    assert len(solution_orbits(fixture_solution("solution/invol3-b"))) == 1
    assert len(solution_orbits(fixture_solution("solution/twisted-flip3"))) == 2


def test_chain_periods_of_three_point_quandles():
    assert chain_periods(fixture_rack("rack/trivial3")).period_pattern == (1, 1, 1, 2, 2, 2)
    assert chain_periods(fixture_rack("rack/two-orbit3")).period_pattern == (1, 1, 1, 2, 4)
    assert chain_periods(fixture_rack("rack/dihedral3")).period_pattern == (1, 1, 1, 3, 3)


def test_chain_periods_sum_to_n_squared(rack_fixtures):
    for rk in rack_fixtures.values():
        report = chain_periods(rk)
        assert sum(report.period_pattern) == rk.n * rk.n


def test_t_map_examples():
    # twisted two-point flip: tau_y(x) = 1 - x, so T(y) = tau_y^{-1}(y) = 1 - y
    s = fixture_solution("solution/twisted-flip2")
    assert t_map_of(s) == (1, 0)
    assert is_biquandle(s)


def test_non_biquandle_shift_rack():
    shift = verify_rack([[(x + 1) % 3] * 3 for x in range(3)])
    assert not shift.is_quandle
    s = sd_solutions(shift)[0]
    assert not is_biquandle(s)
    assert classify(s).t_map is None


def test_classification_flags(solution_fixtures):
    flags = classify(solution_fixtures["solution/dihedral3-sd"])
    assert flags.biquandle and flags.self_distributive_right
    assert not flags.involutive and not flags.decomposable
    flags = classify(solution_fixtures["solution/invol3-a"])
    assert flags.involutive and flags.decomposable
    flags = classify(solution_fixtures["solution/twisted-flip2"])
    assert flags.involutive and not flags.decomposable


def test_decomposability_matches_invariant_splits(solution_fixtures):
    expected = {
        "solution/invol3-a": True,
        "solution/invol3-b": False,
        "solution/invol3-c": True,
        "solution/invol3-d": True,
        "solution/invol3-e": True,
        "solution/two-orbit3-b": True,
        "solution/dihedral3-b": False,
        "solution/dihedral3-c": False,
        "solution/dihedral3-sd": False,
        "solution/two-orbit3-sd": True,
        "solution/trivial3-sd": True,
        "solution/twisted-flip2": False,
        "solution/twisted-flip3": True,
        "solution/4pt-irretractable": False,
    }
    for name, want in expected.items():
        assert classify(solution_fixtures[name]).decomposable is want, name


def _decomposable_by_bipartition(s):
    """Oracle: try every split X = Y | Z with r closed on Y x Y and Z x Z."""
    n = s.n

    def closed(block):
        return all(set(s.r(x, y)) <= block for x in block for y in block)

    # subsets containing element 0, by masking the other n-1 bits
    for mask in range((1 << (n - 1)) - 1):
        y_set = {0} | {i + 1 for i in range(n - 1) if (mask >> i) & 1}
        if closed(y_set) and closed(set(range(n)) - y_set):
            return True
    return False


def test_decomposability_matches_bipartition_oracle(
    fixture_and_sd_solutions, census_solutions, racks4
):
    small_racks = [
        rk for n in (1, 2, 3) for rk in enumerate_racks(n).representatives
    ] + list(racks4.representatives)
    objects = list(fixture_and_sd_solutions) + list(census_solutions)
    objects += [s for rk in small_racks for s in sd_solutions(rk)]
    for s in objects:
        assert classify(s).decomposable is _decomposable_by_bipartition(s), s
