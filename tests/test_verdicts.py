"""Orderability verdicts, the self-distributive dichotomy, and reports."""

import pytest

from ybe import (
    abelianization,
    analyze,
    biorderability,
    enumerate_racks,
    enumerate_solutions,
    finite_quotient,
    involutive_orderability,
    sd_dichotomy,
    sd_solutions,
    structure_presentation,
    verify_rack,
    verify_solution,
)
from ybe.core import Solution, rack_orbits, solution_orbits
from ybe.derived import structure_racks
from ybe.errors import CosetLimitExceeded, NotInvolutive
from ybe.fixtures import fixture_rack, fixture_solution
from ybe.fpgroups import DEFAULT_COSET_CAP


def test_trivial_flip_is_biorderable():
    ident = [[0, 1, 2]] * 3
    verdict = biorderability(verify_solution(ident, ident))
    assert verdict.bi_orderable
    kind, rank, orbit_of = verdict.certificate
    assert kind == "free_abelian" and rank == 3
    assert orbit_of == (0, 1, 2)


def test_free_abelian_certificate_verifies(fixture_and_sd_solutions, census_solutions):
    # every relator must map to zero under the orbit indicator map; the
    # verdict itself no longer re-checks this
    yes = 0
    for s in list(fixture_and_sd_solutions) + list(census_solutions):
        verdict = biorderability(s)
        if not verdict.bi_orderable:
            continue
        yes += 1
        _, rank, orbit_of = verdict.certificate
        for x in range(s.n):
            for y in range(s.n):
                u, v = s.r(x, y)
                image = [0] * rank
                image[orbit_of[x]] += 1
                image[orbit_of[y]] += 1
                image[orbit_of[u]] -= 1
                image[orbit_of[v]] -= 1
                assert all(c == 0 for c in image)
    assert yes > 0


def test_dihedral_sd_solution_is_separated():
    s = fixture_solution("solution/dihedral3-sd")
    verdict = biorderability(s)
    assert not verdict.bi_orderable
    assert verdict.certificate == ("separated", 0, 2)
    # 2 = tau_1(0), and the finite quotient keeps 0 and 2 apart
    assert s.tau[1][0] == 2
    _, iota = finite_quotient(s)
    assert iota[0] != iota[2]


def test_separated_certificates_with_abelianization_torsion():
    assert biorderability(fixture_solution("solution/dihedral3-c")).certificate == (
        "separated", 0, 2)
    verdict = biorderability(fixture_solution("solution/twisted-flip2"))
    assert not verdict.bi_orderable
    assert verdict.certificate == ("separated", 0, 1)


def test_involutive_nontrivial_flip_not_biorderable():
    verdict = biorderability(fixture_solution("solution/invol3-c"))
    assert not verdict.bi_orderable
    assert verdict.certificate == ("separated", 1, 2)


def test_sd_dichotomy_on_three_point_quandles():
    assert sd_dichotomy(fixture_rack("rack/trivial3")).verdict == "FREE_ABELIAN"
    assert sd_dichotomy(fixture_rack("rack/two-orbit3")).verdict == "FREE_ABELIAN"
    d = sd_dichotomy(fixture_rack("rack/dihedral3"))
    assert d.verdict == "TORSION_NONABELIAN"
    assert d.witness is not None


def test_sd_dichotomy_on_torsion_quandle_with_injectivity():
    from ybe.fpgroups import is_injective

    rk = fixture_rack("rack/4pt-torsion")
    assert sd_dichotomy(rk).verdict == "TORSION_NONABELIAN"
    # the torsion case can still have an injective generator map
    assert is_injective(sd_solutions(rk)[0])[0]


def check_certificate(s, verdict, coset_cap=DEFAULT_COSET_CAP):
    """Re-derive a biorderability verdict from the tables, the orbits and the
    finite quotient.  A separated pair lies in one orbit and has distinct
    quotient images; the verdict must agree with the criterion that the
    quotient is abelian, G^ab is free of rank k_r and k_r = K_r."""
    kind = verdict.certificate[0]
    assert kind in ("free_abelian", "separated"), verdict
    orbits = solution_orbits(s)
    fg, iota = finite_quotient(s, coset_cap)
    if kind == "separated":
        _, x, z = verdict.certificate
        assert any(x in block and z in block for block in orbits), (s, verdict)
        assert iota[x] != iota[z], (s, verdict)
    k = len(orbits)
    K = len(rack_orbits(structure_racks(s).right))
    ab = abelianization(structure_presentation(s))
    criterion = fg.is_abelian and (ab.free_rank, ab.torsion) == (k, ()) and k == K
    assert verdict.bi_orderable is criterion, (s, verdict)
    assert verdict.bi_orderable is (kind == "free_abelian"), (s, verdict)


def test_biorderability_certificates_check_out(fixture_and_sd_solutions, census_solutions):
    solutions = list(fixture_and_sd_solutions) + list(census_solutions)
    solutions += enumerate_solutions(4, bound=4).representatives
    yes = 0
    for s in solutions:
        verdict = biorderability(s)
        check_certificate(s, verdict)
        yes += verdict.bi_orderable
    assert (len(solutions), yes) == (312, 173)


@pytest.mark.slow
def test_five_point_biorderability_certificates():
    # 3,607 classes: the census takes about 1.5 s, the checks about 11 s,
    # and one class needs more than 2 * 10^4 cosets
    cap, capped, checked = 2 * 10**4, 0, 0
    for s in enumerate_solutions(5, None, bound=5).representatives:
        try:
            verdict = biorderability(s, cap)
        except CosetLimitExceeded:
            capped += 1
            continue
        check_certificate(s, verdict, cap)
        checked += 1
    assert (checked, capped) == (3606, 1)


def _sd_dichotomy_reference(rk):
    """The self-distributive dichotomy by its own loop over (x, x > y)."""
    _, iota = finite_quotient(sd_solutions(rk)[0])
    for x in range(rk.n):
        for y in range(rk.n):
            if iota[x] != iota[rk.op[x][y]]:
                return "TORSION_NONABELIAN", ("separated", x, rk.op[x][y])
    return "FREE_ABELIAN", None


def test_sd_dichotomy_matches_its_reference_loop(rack_fixtures):
    racks = list(rack_fixtures.values())
    racks += [rk for n in range(1, 5) for rk in enumerate_racks(n).representatives]
    torsion = 0
    for rk in racks:
        verdict = sd_dichotomy(rk)
        assert (verdict.verdict, verdict.witness) == _sd_dichotomy_reference(rk), rk
        torsion += verdict.witness is not None
    assert torsion > 0


def test_sd_dichotomy_free_abelian_case():
    rk = fixture_rack("rack/3pt-free-image")
    assert sd_dichotomy(rk).verdict == "FREE_ABELIAN"
    sol = sd_solutions(rk)[0]
    verdict = biorderability(sol)
    assert verdict.bi_orderable
    assert verdict.certificate[1] == 2  # free abelian of rank two


def test_sd_dichotomy_checks_the_level_with_a_typed_error(monkeypatch):
    # equal quotient images force level at most 2; a tower that says more
    # is a bug, reported even under python -O
    from types import SimpleNamespace

    from ybe import verdicts
    from ybe.errors import InvariantViolation

    monkeypatch.setattr(verdicts, "mp_tower", lambda s: SimpleNamespace(mp_level=3))
    with pytest.raises(InvariantViolation, match="level is 3"):
        sd_dichotomy(fixture_rack("rack/3pt-free-image"))


def test_biorderability_checks_the_old_criterion_with_a_typed_error(monkeypatch):
    # a quotient constant on orbits with G^ab not free of rank k_r is a bug
    from ybe import verdicts
    from ybe.errors import InvariantViolation
    from ybe.fpgroups import AbelianInvariants

    sol = sd_solutions(fixture_rack("rack/3pt-free-image"))[0]
    assert biorderability(sol).bi_orderable
    monkeypatch.setattr(verdicts, "abelianization", lambda p: AbelianInvariants(2, (2,)))
    with pytest.raises(InvariantViolation, match="constant on orbits"):
        biorderability(Solution(sol.n, sol.sigma, sol.tau))


def test_sd_dichotomy_agrees_with_biorderability(rack_fixtures):
    for rk in rack_fixtures.values():
        if rk.n > 4:
            continue
        verdict = sd_dichotomy(rk)
        bi = biorderability(sd_solutions(rk)[0])
        assert (verdict.verdict == "FREE_ABELIAN") == bi.bi_orderable


def test_involutive_orderability():
    trivial = verify_solution([[0, 1]] * 2, [[0, 1]] * 2)
    v = involutive_orderability(trivial)
    assert v.bi_orderable and v.left_orderable and v.diffuse
    assert v.mp_level == 1

    v = involutive_orderability(fixture_solution("solution/twisted-flip2"))
    assert not v.bi_orderable and v.left_orderable and v.diffuse
    assert v.mp_level == 1

    v = involutive_orderability(fixture_solution("solution/4pt-irretractable"))
    assert not v.left_orderable and not v.diffuse
    assert v.mp_level is None

    with pytest.raises(NotInvolutive):
        involutive_orderability(fixture_solution("solution/dihedral3-sd"))


def test_involutive_biorderable_only_for_trivial_flip(involutive3):
    ident = (0, 1, 2)
    for s in involutive3.representatives:
        trivial = all(s.sigma[x] == ident and s.tau[x] == ident for x in range(3))
        assert involutive_orderability(s).bi_orderable == trivial
        assert biorderability(s).bi_orderable == trivial


def test_analyze_report_fields():
    report = analyze(fixture_solution("solution/dihedral3-sd"))
    assert report.n == 3
    assert not report.involutive and report.biquandle
    assert report.self_distributive_right
    assert report.k_r == 1 and report.K_r == 1
    assert report.degrees_d == (2, 2, 2)
    assert report.ab_free_rank == 1 and report.ab_torsion == ()
    assert report.quotient_order == 6
    assert report.injective and report.iis_size == 3
    assert report.mp_level is None
    assert report.bi_orderable == "no"
    assert report.left_orderable == "no" and report.diffuse == "no"
    assert report.notes


def test_analyze_involutive_branch():
    report = analyze(fixture_solution("solution/invol3-d"))
    assert report.involutive
    assert report.mp_level == 2
    assert report.bi_orderable == "no"
    assert report.left_orderable == "yes" and report.diffuse == "yes"


def test_analyze_unknown_branch():
    report = analyze(fixture_solution("solution/dihedral3-b"))
    assert not report.involutive
    assert not report.self_distributive_right
    assert report.left_orderable == "unknown" and report.diffuse == "unknown"
    assert report.bi_orderable == "no"


def test_analyze_biorderable_branch():
    sol = sd_solutions(fixture_rack("rack/3pt-free-image"))[0]
    report = analyze(sol)
    assert report.bi_orderable == "yes"
    assert report.left_orderable == "yes" and report.diffuse == "yes"
    assert report.ab_free_rank == 2 and report.ab_torsion == ()


def test_analyze_is_deterministic():
    a = analyze(fixture_solution("solution/dihedral3-c"))
    b = analyze(fixture_solution("solution/dihedral3-c"))
    assert a == b
    assert a.to_dict()["quotient_order"] == 6


def test_analyze_one_point_solution():
    report = analyze(verify_solution([[0]], [[0]]))
    assert report.mp_level == 0
    assert report.quotient_order == 2
    assert report.bi_orderable == "yes"


def test_analyze_rank_always_matches_orbits(solution_fixtures):
    for name, s in solution_fixtures.items():
        if s.n > 4:
            continue
        report = analyze(s)
        assert report.ab_free_rank == report.k_r, name


def test_structure_rack_orbits_refine_solution_orbits(solution_fixtures):
    # every structure-rack orbit is contained in a solution orbit, so K >= k
    from ybe.core import rack_orbits, solution_orbits
    from ybe.derived import structure_racks

    for s in solution_fixtures.values():
        sol_orbits = solution_orbits(s)
        block_of = {}
        for i, block in enumerate(sol_orbits):
            for x in block:
                block_of[x] = i
        for rack_block in rack_orbits(structure_racks(s).right):
            assert len({block_of[x] for x in rack_block}) == 1
        assert len(rack_orbits(structure_racks(s).right)) >= len(sol_orbits)


def test_biorderability_diagonalizes_a_constant_number_of_times(monkeypatch):
    from ybe import fpgroups

    calls = []
    real = fpgroups._snf_diagonalize

    def counting(mat, ncols):
        calls.append(len(mat))
        return real(mat, ncols)

    monkeypatch.setattr(fpgroups, "_snf_diagonalize", counting)
    n = 8
    shift = [(v + 1) % n for v in range(n)]
    s = verify_solution([shift] * n, [shift] * n)  # r(x, y) = (y + 1, x + 1)
    verdict = biorderability(s)
    # the quotient separates 0 from tau_0(0) = 1 at once, before any SNF
    assert verdict.certificate == ("separated", 0, 1)
    assert len(calls) <= 2


def test_analyze_computes_each_derived_object_once(monkeypatch):
    from collections import Counter

    from ybe import core, fpgroups

    calls = Counter()
    snf_matrices = []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            if name == "_snf_diagonalize":
                snf_matrices.append(tuple(map(tuple, args[0])))
            return real(*args)
        return wrapper

    n = 8
    shift = [(v + 1) % n for v in range(n)]
    s = verify_solution([shift] * n, [shift] * n)  # r(x, y) = (y + 1, x + 1)
    for module, name in ((fpgroups, "_snf_diagonalize"), (core, "_ybe_witness")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    report = analyze(s)
    assert report.quotient_order == 4
    # one SNF of the structure relators serves the abelianization,
    # biorderability and its membership queries; the finite quotient's own
    # relators (here those of the induced biquandle, with its twisted powers)
    # get one SNF for the quotient's abelian invariants
    structure = tuple(map(tuple, fpgroups._exponent_matrix(fpgroups.structure_presentation(s))))
    assert calls["_snf_diagonalize"] == len(set(snf_matrices)) == 2
    assert structure in snf_matrices
    # the inverse, the structure rack, the induced biquandle and the
    # retraction are valid by construction and are not validated again
    assert calls["_ybe_witness"] == 0


def test_derived_values_live_as_long_as_their_input():
    import gc
    import weakref

    # inputs no other test builds, so no equal object is cached anywhere
    shift = [(v + 1) % 7 for v in range(7)]
    s = verify_solution([shift] * 7, [shift] * 7)
    rk = verify_rack([[(3 * x - 2 * y) % 7 for y in range(7)] for x in range(7)])
    analyze(s)
    sd_dichotomy(rk)
    refs = [weakref.ref(s), weakref.ref(rk)]
    del s, rk
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_analyze_builds_the_retraction_tower_once(monkeypatch):
    from ybe import core, derived

    s = fixture_solution("solution/4pt-irretractable")  # loaded and validated here
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(derived, "retraction", counting("retraction", derived.retraction))
    monkeypatch.setattr(core, "_ybe_witness", counting("_ybe_witness", core._ybe_witness))
    report = analyze(s)
    assert report.mp_level is None and report.bi_orderable == "no"
    # mp_level and involutive_orderability share one tower; its single
    # level is a quotient solution, which is not validated again
    assert calls == ["retraction"]
