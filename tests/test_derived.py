"""Structure racks, induced quotients, retraction, cabling, isomorphism."""

import gc
import weakref
from functools import partial

import pytest

from ybe import (
    analyze,
    are_isomorphic,
    cable,
    canonical_form,
    classify,
    enumerate_racks,
    induced_biquandle,
    induced_quandle,
    invert_solution,
    mp_level,
    retraction,
    sd_dichotomy,
    sd_solutions,
    sq_map,
    structure_racks,
    verify_rack,
    verify_solution,
)
from ybe.core import Rack, Solution, is_biquandle
from ybe.derived import (
    _quotient_rack,
    _quotient_solution,
    automorphism_count,
    relabel_rack,
    relabel_solution,
)
from ybe.errors import InvariantViolation, SizeTooLarge
from ybe.fpgroups import induced_injective_solution, is_injective
from ybe.fixtures import fixture_rack, fixture_solution
from ybe import perm


def shift_rack(n: int) -> Rack:
    return verify_rack([[(x + 1) % n] * n for x in range(n)])


def test_involutive_solutions_have_trivial_structure_rack(solution_fixtures):
    for s in solution_fixtures.values():
        if classify(s).involutive:
            pair = structure_racks(s)
            assert all(
                pair.right.op[x][y] == x for x in range(s.n) for y in range(s.n)
            )


def test_sd_solution_recovers_its_rack(rack_fixtures):
    for rk in rack_fixtures.values():
        s = sd_solutions(rk)[0]
        assert structure_racks(s).right == rk


def test_structure_rack_of_dihedral_block_solution_is_dihedral():
    pair = structure_racks(fixture_solution("solution/dihedral3-c"))
    dihedral = fixture_rack("rack/dihedral3")
    assert are_isomorphic(pair.right, dihedral) is not None


def test_structure_rack_alternative_formulas(solution_fixtures):
    # x >_r y = tau_y(sigma_{tau_x^{-1}(y)}(x)) and the mirrored form for <_r
    for s in solution_fixtures.values():
        pair = structure_racks(s)
        for x in range(s.n):
            tau_x_inv = perm.inverse(s.tau[x])
            sigma_x_inv = perm.inverse(s.sigma[x])
            for y in range(s.n):
                assert pair.right.op[x][y] == s.tau[y][s.sigma[tau_x_inv[y]][x]]
                assert pair.left[y][x] == s.sigma[y][s.tau[sigma_x_inv[y]][x]]


def test_analyzed_inputs_are_freed_with_their_last_reference():
    # no memoised value refers back to its input, so reference counting
    # alone frees a solution or rack, with all its memos, after analysis
    names = ["solution/4pt-irretractable", "solution/dihedral3-sd", "solution/twisted-flip3"]
    shift = [[(v + 1) % 8 for v in range(8)]] * 8
    makers = [partial(fixture_solution, name) for name in names]
    makers.append(partial(verify_solution, shift, shift))  # Lyubashenko, n = 8
    gc.disable()
    try:
        for make in makers:
            s = make()
            analyze(s)
            ref = weakref.ref(s)
            del s
            assert ref() is None, make
        for name in ("rack/12pt-gl23", "rack/two-orbit3"):  # torsion, then free abelian
            rk = fixture_rack(name)
            sd_dichotomy(rk)
            refs = [weakref.ref(rk), weakref.ref(sd_solutions(rk)[0])]
            del rk
            assert [ref() for ref in refs] == [None, None], name
    finally:
        gc.enable()


def test_biquandle_iff_structure_rack_is_quandle(solution_fixtures):
    for s in solution_fixtures.values():
        assert is_biquandle(s) == structure_racks(s).right.is_quandle


def test_squaring_map():
    assert sq_map(fixture_rack("rack/dihedral3")) == (0, 1, 2)
    assert sq_map(shift_rack(3)) == (1, 2, 0)


def test_induced_biquandle_is_identity_on_biquandles(solution_fixtures):
    for s in solution_fixtures.values():
        if is_biquandle(s):
            result, cls = induced_biquandle(s)
            assert result == s
            assert cls == tuple(range(s.n))


def test_induced_biquandle_collapses_shift_rack():
    s = sd_solutions(shift_rack(3))[0]
    result, cls = induced_biquandle(s)
    assert result.n == 1
    assert cls == (0, 0, 0)


def test_induced_quandle():
    rk = fixture_rack("rack/dihedral3")
    assert induced_quandle(rk)[0] == rk
    collapsed, _ = induced_quandle(shift_rack(4))
    assert collapsed.n == 1
    # a disjoint union of the dihedral quandle and a two-point shift rack
    # retracts onto the dihedral quandle plus a point
    op = [
        [0, 2, 1, 0, 0],
        [2, 1, 0, 1, 1],
        [1, 0, 2, 2, 2],
        [3, 3, 3, 4, 4],
        [4, 4, 4, 3, 3],
    ]
    union = verify_rack(op)
    quotient, cls = induced_quandle(union)
    assert quotient.n == 4
    assert cls == (0, 1, 2, 3, 3)
    assert quotient.is_quandle


def test_retraction_and_mp_levels(solution_fixtures):
    assert retraction(solution_fixtures["solution/invol3-b"])[0].n == 1
    assert retraction(solution_fixtures["solution/two-orbit3-sd"])[0].n == 2
    assert retraction(solution_fixtures["solution/dihedral3-sd"])[0].n == 3
    expected = {
        "solution/invol3-a": 1,
        "solution/invol3-b": 1,
        "solution/invol3-c": 1,
        "solution/invol3-d": 2,
        "solution/invol3-e": 2,
        "solution/two-orbit3-b": 2,
        "solution/dihedral3-b": None,
        "solution/dihedral3-c": None,
        "solution/trivial3-sd": 1,
        "solution/two-orbit3-sd": 2,
        "solution/dihedral3-sd": None,
        "solution/twisted-flip2": 1,
        "solution/twisted-flip3": 1,
        "solution/4pt-irretractable": None,
    }
    for name, level in expected.items():
        assert mp_level(solution_fixtures[name]).mp_level == level, name


def test_mp_tower_levels_shrink(solution_fixtures):
    for s in solution_fixtures.values():
        tower = mp_level(s)
        sizes = [s.n] + [lvl.n for lvl in tower.levels]
        assert sizes[0] == s.n
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        if tower.mp_level is not None:
            assert sizes[-1] == 1
            assert tower.mp_level == len(sizes) - 1


def test_one_point_solution_has_level_zero():
    s = verify_solution([[0]], [[0]])
    assert mp_level(s).mp_level == 0


def test_cable_one_is_identity(solution_fixtures):
    for s in solution_fixtures.values():
        assert cable(s, 1) == s


def test_cable_rejects_nonpositive_m():
    with pytest.raises(ValueError):
        cable(fixture_solution("solution/twisted-flip2"), 0)


def test_cable_two_of_twisted_flip_is_trivial_flip():
    c = cable(fixture_solution("solution/twisted-flip2"), 2)
    ident = (0, 1)
    assert all(c.sigma[x] == ident and c.tau[x] == ident for x in range(2))


def test_cables_preserve_involutivity(solution_fixtures):
    for s in solution_fixtures.values():
        if s.n <= 3 and classify(s).involutive:
            for m in (2, 3):
                assert classify(cable(s, m)).involutive


def test_cables_are_eventually_periodic():
    s = fixture_solution("solution/dihedral3-b")
    seen = {}
    for m in range(1, 13):
        c = cable(s, m)
        if c in seen:
            assert (seen[c], m) == (1, 7)
            return
        seen[c] = m
    pytest.fail("no period found")


def test_relabeling_roundtrip():
    s = fixture_solution("solution/dihedral3-b")
    f = (2, 0, 1)
    assert relabel_solution(relabel_solution(s, f), perm.inverse(f)) == s
    rk = fixture_rack("rack/two-orbit3")
    assert relabel_rack(relabel_rack(rk, f), perm.inverse(f)) == rk


def test_canonical_form_is_relabeling_invariant():
    s = fixture_solution("solution/dihedral3-c")
    for f in perm.all_perms(3):
        assert canonical_form(relabel_solution(s, f)) == canonical_form(s)


def test_are_isomorphic_behaviour():
    d = fixture_rack("rack/dihedral3")
    f = (1, 2, 0)
    relabeled = relabel_rack(d, f)
    g = are_isomorphic(d, relabeled)
    assert g is not None and relabel_rack(d, g) == relabeled
    assert are_isomorphic(d, fixture_rack("rack/two-orbit3")) is None
    assert are_isomorphic(d, fixture_rack("rack/4pt-torsion")) is None
    with pytest.raises(TypeError):
        are_isomorphic(d, fixture_solution("solution/dihedral3-c"))
    with pytest.raises(SizeTooLarge):
        are_isomorphic(
            fixture_rack("rack/8pt-noninjective"),
            fixture_rack("rack/8pt-noninjective"),
        )


def test_isomorphism_respected_by_inversion():
    # inverting commutes with relabeling
    s = fixture_solution("solution/dihedral3-b")
    f = (1, 2, 0)
    assert invert_solution(relabel_solution(s, f)) == relabel_solution(
        invert_solution(s), f
    )


def test_automorphism_counts():
    assert automorphism_count(fixture_rack("rack/trivial3")) == 6
    assert automorphism_count(fixture_rack("rack/dihedral3")) == 6
    assert automorphism_count(fixture_rack("rack/two-orbit3")) == 2


def test_structure_rack_commutes_with_biquandle_reduction(solution_fixtures):
    # the right structure rack of the induced biquandle is the induced
    # quandle of the right structure rack
    for s in solution_fixtures.values():
        if s.n > 4:
            continue
        lhs = structure_racks(induced_biquandle(s)[0]).right
        rhs = induced_quandle(structure_racks(s).right)[0]
        assert are_isomorphic(lhs, rhs) is not None


def _checked(obj):
    """obj, validated again from its tables."""
    if isinstance(obj, Rack):
        return verify_rack(obj.op)
    return verify_solution(obj.sigma, obj.tau)


def test_unchecked_constructions_pass_the_checks(
    fixture_and_sd_solutions, census_solutions, rack_fixtures, racks4
):
    # invert_solution, sd_solutions, the structure racks, every quotient
    # (retraction levels, induced biquandle, quandle and injective solution)
    # and cables skip validation because they are valid by construction;
    # re-check them all
    racks = list(rack_fixtures.values())
    racks += [rk for n in (1, 2, 3) for rk in enumerate_racks(n).representatives]
    racks += list(racks4.representatives)
    solutions = list(fixture_and_sd_solutions) + list(census_solutions)
    for rk in racks:
        for sd in sd_solutions(rk):
            assert _checked(sd) == sd
            solutions.append(sd)
        sq = sq_map(rk)
        assert perm.is_perm(sq, rk.n)
        quandle, _ = induced_quandle(rk)
        assert _checked(quandle) == quandle and quandle.is_quandle
    for s in solutions:
        inv = invert_solution(s)
        assert _checked(inv) == inv
        assert invert_solution(inv) == s
        pair = structure_racks(s)
        assert _checked(pair.right) == pair.right
        assert perm.is_perm(pair.Sq, s.n)
        assert all(pair.left[x][x] == pair.Sq[x] for x in range(s.n))
        for level in mp_level(s).levels:
            assert _checked(level) == level
        biquandle, _ = induced_biquandle(s)
        assert _checked(biquandle) == biquandle and is_biquandle(biquandle)
        iis, _ = induced_injective_solution(s)
        assert _checked(iis) == iis and is_injective(iis)[0]
        for m in range(1, 5):
            c = cable(s, m)
            assert _checked(c) == c


def test_quotients_reject_classes_that_are_not_a_congruence():
    # every caller passes a congruence by theorem, so a failure is internal
    s = fixture_solution("solution/dihedral3-sd")
    with pytest.raises(InvariantViolation, match="congruence"):
        _quotient_solution(s, [0, 0, 1])
    with pytest.raises(InvariantViolation, match="congruence"):
        _quotient_rack(fixture_rack("rack/dihedral3"), [0, 0, 1])
    assert _quotient_solution(s, [5, 5, 5])[0].n == 1


# -- the old object-per-relabeling search, kept as the oracle ---------------


def _relabel_oracle(obj, f):
    n = obj.n
    tables = (obj.sigma, obj.tau) if isinstance(obj, Solution) else (obj.op,)
    out = []
    for t in tables:
        new = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                new[f[x]][f[y]] = f[t[x][y]]
        out.append(tuple(map(tuple, new)))
    return Solution(n, *out) if isinstance(obj, Solution) else Rack(n, *out)


def _flat_oracle(obj):
    if isinstance(obj, Solution):
        return tuple(v for row in obj.sigma + obj.tau for v in row)
    return tuple(v for row in obj.op for v in row)


def test_isomorphism_search_matches_the_object_oracle(census_solutions, racks4):
    racks = [rk for n in (1, 2, 3) for rk in enumerate_racks(n).representatives]
    racks += list(racks4.representatives)
    # points 2..5 have x > x != x and four y with x > y = x; only 0 and 1,
    # with two such y each, may take label 0, because they fix themselves
    racks.append(verify_rack([(0, 0, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0), (2, 2, 3, 3, 2, 2),
                              (3, 3, 2, 2, 3, 3), (4, 4, 4, 4, 5, 5), (5, 5, 5, 5, 4, 4)]))
    for objects in (list(census_solutions), racks):
        for a in objects:
            perms = perm.all_perms(a.n)
            relabel = relabel_solution if isinstance(a, Solution) else relabel_rack
            for f in perms:
                assert relabel(a, f) == _relabel_oracle(a, f)
            assert canonical_form(a) == min(_flat_oracle(_relabel_oracle(a, f)) for f in perms)
            assert automorphism_count(a) == sum(_relabel_oracle(a, f) == a for f in perms)
            others = [b for b in objects if b.n == a.n] + [_relabel_oracle(a, perms[-1])]
            for b in others:
                want = next((f for f in perms if _relabel_oracle(a, f) == b), None)
                assert are_isomorphic(a, b) == want
