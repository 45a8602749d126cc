"""Exhaustive small censuses and their cross-checks."""

from itertools import product

import pytest

from ybe import (
    Rack,
    canonical_form,
    chain_periods,
    classify,
    enumerate_racks,
    enumerate_solutions,
    group_by_structure_rack,
    verify_rack,
)
from ybe.core import Solution
from ybe.derived import are_isomorphic, automorphism_count
from ybe.errors import SizeTooLarge
from ybe.fixtures import fixture_rack


def test_singleton_censuses():
    assert len(enumerate_racks(1).representatives) == 1
    assert len(enumerate_solutions(1).representatives) == 1


def test_two_point_censuses():
    assert len(enumerate_racks(2).representatives) == 2  # trivial and shift
    assert len(enumerate_racks(2, quandles_only=True).representatives) == 1
    c = enumerate_solutions(2)
    assert len(c.representatives) == 4
    assert c.total_labeled == 4
    assert len(enumerate_solutions(2, restrict="involutive").representatives) == 2


def test_two_point_rack_census_against_brute_force():
    found = []
    for flat in product(range(2), repeat=4):
        op = [list(flat[:2]), list(flat[2:])]
        try:
            found.append(verify_rack(op))
        except Exception:
            continue
    canon = {canonical_form(rk) for rk in found}
    census = enumerate_racks(2)
    assert canon == {canonical_form(rk) for rk in census.representatives}
    assert census.total_labeled == len(found)


def test_three_point_quandles(quandles3):
    assert len(quandles3.representatives) == 3
    assert sorted(quandles3.iso_class_sizes) == [1, 1, 3]
    patterns = sorted(
        chain_periods(rk).period_pattern for rk in quandles3.representatives
    )
    assert patterns == [
        (1, 1, 1, 2, 2, 2),
        (1, 1, 1, 2, 4),
        (1, 1, 1, 3, 3),
    ]


def test_three_point_quandles_match_fixtures(quandles3):
    names = ["rack/trivial3", "rack/two-orbit3", "rack/dihedral3"]
    for name in names:
        rk = fixture_rack(name)
        assert any(
            are_isomorphic(rk, rep) is not None for rep in quandles3.representatives
        ), name


def test_four_point_racks(racks4):
    assert len(racks4.representatives) == 19
    assert racks4.total_labeled == 114


def test_three_point_solutions(solutions3):
    assert len(solutions3.representatives) == 26
    assert solutions3.total_labeled == 66


def test_three_point_involutive_solutions(involutive3):
    assert len(involutive3.representatives) == 5
    for s in involutive3.representatives:
        assert classify(s).involutive


def test_biquandle_census_nested_in_full_census(solutions3):
    bq = enumerate_solutions(3, restrict="biquandle")
    all_canon = {canonical_form(s) for s in solutions3.representatives}
    bq_canon = {canonical_form(s) for s in bq.representatives}
    assert bq_canon <= all_canon
    flagged = {
        canonical_form(s)
        for s in solutions3.representatives
        if classify(s).biquandle
    }
    assert bq_canon == flagged


def test_involutive_census_nested_in_full_census(solutions3, involutive3):
    flagged = {
        canonical_form(s)
        for s in solutions3.representatives
        if classify(s).involutive
    }
    assert flagged == {canonical_form(s) for s in involutive3.representatives}


def test_representatives_pairwise_nonisomorphic(quandles3, involutive3):
    for census in (quandles3, involutive3):
        reps = census.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert are_isomorphic(reps[i], reps[j]) is None


def test_orbit_stabilizer_counting(quandles3, involutive3):
    import math

    for census in (quandles3, involutive3):
        for rep, size in zip(census.representatives, census.iso_class_sizes):
            assert size * automorphism_count(rep) == math.factorial(rep.n)


def test_group_by_structure_rack(solutions3, quandles3):
    blocks = group_by_structure_rack(solutions3)
    by_fixture = {}
    for canon, sols in blocks.items():
        for name in ("rack/trivial3", "rack/two-orbit3", "rack/dihedral3"):
            if canon == canonical_form(fixture_rack(name)):
                by_fixture[name] = len(sols)
    assert by_fixture == {"rack/trivial3": 5, "rack/two-orbit3": 4, "rack/dihedral3": 6}
    # the remaining blocks belong to the non-quandle racks
    rest = sorted(
        len(sols)
        for canon, sols in blocks.items()
        if canon not in {canonical_form(fixture_rack(n)) for n in by_fixture}
    )
    assert rest == [3, 4, 4]
    assert sum(by_fixture.values()) + sum(rest) == 26


def test_involutive_classes_form_the_trivial_rack_block(solutions3, involutive3):
    blocks = group_by_structure_rack(solutions3)
    t_block = blocks[canonical_form(fixture_rack("rack/trivial3"))]
    inv_canon = {canonical_form(s) for s in involutive3.representatives}
    assert {canonical_form(s) for s in t_block} == inv_canon


def test_size_bounds_enforced():
    with pytest.raises(SizeTooLarge):
        enumerate_racks(5)
    with pytest.raises(SizeTooLarge):
        enumerate_solutions(4)
    with pytest.raises(ValueError):
        enumerate_solutions(3, restrict="linear")


def test_census_entries_are_valid(solutions3, racks4):
    from ybe.core import verify_rack, verify_solution

    for s in solutions3.representatives:
        assert isinstance(s, Solution)
        verify_solution(s.sigma, s.tau)
    for rk in racks4.representatives:
        assert isinstance(rk, Rack)
        verify_rack(rk.op)


def test_rack_census_builds_one_rack_per_labeled_table(monkeypatch):
    # canonical forms compare flattened tables, so no Rack is built per
    # relabeling, and the found racks are not validated again
    built = []
    real_init = Rack.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Rack, "__init__", counting_init)
    census = enumerate_racks.__wrapped__(4)
    assert census.total_labeled == 114
    assert len(built) == 114
