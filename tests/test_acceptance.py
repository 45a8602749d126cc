"""End-to-end acceptance checks against the frozen expected values.

Each test covers one headline capability: the small censuses, the canonical
finite quotients of the worked examples, the full classification of
three-point solutions, the order identity between a solution's quotient and
its structure rack's, the structure-rack lemma suite, orderability verdicts,
and the compatibility squares between reductions.
"""

import math
import time
from itertools import product

from ybe import (
    abelianization,
    are_isomorphic,
    biorderability,
    canonical_form,
    chain_periods,
    classify,
    degrees,
    enumerate_solutions,
    finite_quotient,
    group_by_structure_rack,
    guitar,
    induced_biquandle,
    induced_quandle,
    invert_solution,
    involutive_orderability,
    is_injective,
    mp_level,
    rack_finite_quotient,
    rack_orbits,
    rho_of_word,
    sd_dichotomy,
    sd_solutions,
    solution_orbits,
    structure_presentation,
    structure_racks,
    twisted_power,
    word_of,
)
from ybe.core import Solution, is_biquandle
from ybe.fixtures import fixture_names, fixture_object, fixture_rack, fixture_solution
from ybe.fpgroups import Presentation, coset_enumeration, group_from_actions
from ybe.words import act_right
from ybe import perm

from table_groups import reference_group


def quotient_fingerprint_matches(fg, name: str) -> bool:
    return fg.fingerprint == reference_group(name).fingerprint


# -- 1. the three-point quandle census --------------------------------------


def test_criterion_1_three_point_quandle_census(quandles3):
    assert len(quandles3.representatives) == 3
    by_name = {}
    for name in ("rack/trivial3", "rack/two-orbit3", "rack/dihedral3"):
        rk = fixture_rack(name)
        for rep, size in zip(quandles3.representatives, quandles3.iso_class_sizes):
            if are_isomorphic(rk, rep) is not None:
                by_name[name] = (rep, size)
    assert set(by_name) == {"rack/trivial3", "rack/two-orbit3", "rack/dihedral3"}
    assert by_name["rack/trivial3"][1] == 1
    assert by_name["rack/two-orbit3"][1] == 3
    assert by_name["rack/dihedral3"][1] == 1
    assert chain_periods(by_name["rack/trivial3"][0]).period_pattern == (1, 1, 1, 2, 2, 2)
    assert chain_periods(by_name["rack/two-orbit3"][0]).period_pattern == (1, 1, 1, 2, 4)
    assert chain_periods(by_name["rack/dihedral3"][0]).period_pattern == (1, 1, 1, 3, 3)


# -- 2. quotients of the three-point quandles -------------------------------


def test_criterion_2_quotients_of_three_point_quandles():
    cases = {
        "rack/trivial3": (8, "elementary_abelian 2^3"),
        "rack/two-orbit3": (4, "elementary_abelian 2^2"),
        "rack/dihedral3": (6, "symmetric 3"),
    }
    for name, (order, ref) in cases.items():
        fg = rack_finite_quotient(fixture_rack(name))
        assert fg.order == order, name
        assert quotient_fingerprint_matches(fg, ref), name


# -- 3. the large worked examples -------------------------------------------


def test_criterion_3_eight_and_twelve_point_examples():
    start = time.monotonic()

    s8 = sd_solutions(fixture_rack("rack/8pt-noninjective"))[0]
    injective, partition = is_injective(s8)
    assert not injective
    # the first two generators coincide in the quotient, as do each of the
    # remaining doubled pairs
    assert partition == ((0, 1), (2, 3), (4, 5), (6, 7))

    fg12 = rack_finite_quotient(fixture_rack("rack/12pt-gl23"))
    assert fg12.order == 48
    assert quotient_fingerprint_matches(fg12, "GL(2,3)")
    assert len(set(fg12.gen_images)) == 12

    assert time.monotonic() - start < 30.0


# -- 4. the two twisted-flip examples ---------------------------------------


def test_criterion_4_twisted_flips():
    s = fixture_solution("solution/twisted-flip2")
    ab = abelianization(structure_presentation(s))
    assert (ab.free_rank, ab.torsion) == (1, (2,))
    fg, iota = finite_quotient(s)
    assert fg.order == 4
    assert quotient_fingerprint_matches(fg, "cyclic 4")
    assert len(set(iota)) == 2

    s = fixture_solution("solution/twisted-flip3")
    ab = abelianization(structure_presentation(s))
    assert (ab.free_rank, ab.torsion) == (2, ())
    fg, iota = finite_quotient(s)
    assert fg.order == 8
    assert quotient_fingerprint_matches(fg, "dihedral 8")
    assert len(set(iota)) == 3


# -- 5. the full three-point classification ---------------------------------


def test_criterion_5_three_point_classification(solutions3):
    # five involutive classes, realized by the named fixtures
    rows = {
        #              ab_free  ab_tor  |Q|  quotient reference       mp  k  inj
        "solution/invol3-a": (3, (), 8, "elementary_abelian 2^3", 1, 3, True),
        "solution/invol3-b": (1, (3,), 216, None, 1, 1, True),
        "solution/invol3-c": (2, (), 8, "dihedral 8", 1, 2, True),
        "solution/invol3-d": (2, (2,), 8, "cyclic 4 x cyclic 2", 2, 2, True),
        "solution/invol3-e": (2, (), 8, "dihedral 8", 2, 2, True),
    }
    seen_canons = set()
    for name, (free, torsion, order, ref, level, k, injective) in rows.items():
        s = fixture_solution(name)
        assert classify(s).involutive, name
        ab = abelianization(structure_presentation(s))
        assert (ab.free_rank, ab.torsion) == (free, torsion), name
        fg, _ = finite_quotient(s)
        assert fg.order == order, name
        if ref is not None:
            assert quotient_fingerprint_matches(fg, ref), name
        assert mp_level(s).mp_level == level, name
        assert len(solution_orbits(s)) == k, name
        assert is_injective(s)[0] is injective, name
        seen_canons.add(canonical_form(s))
    assert len(seen_canons) == 5

    blocks = group_by_structure_rack(solutions3)
    t_block = blocks[canonical_form(fixture_rack("rack/trivial3"))]
    assert {canonical_form(s) for s in t_block} == seen_canons

    # four classes over the two-orbit quandle: decomposable, level two,
    # non-injective with a two-point injective image, free abelian of rank 2
    s_block = blocks[canonical_form(fixture_rack("rack/two-orbit3"))]
    assert len(s_block) == 4
    for s in s_block:
        flags = classify(s)
        assert flags.decomposable and not flags.involutive
        ab = abelianization(structure_presentation(s))
        assert (ab.free_rank, ab.torsion) == (2, ())
        fg, _ = finite_quotient(s)
        assert fg.order == 4 and fg.is_abelian
        assert quotient_fingerprint_matches(fg, "elementary_abelian 2^2")
        assert mp_level(s).mp_level == 2
        injective, partition = is_injective(s)
        assert not injective and len(partition) == 2
        assert len(solution_orbits(s)) == 2
    assert canonical_form(fixture_solution("solution/two-orbit3-b")) in {
        canonical_form(s) for s in s_block
    }

    # six classes over the dihedral quandle: indecomposable, irretractable,
    # injective, one orbit; this block is closed under inversion
    d_block = blocks[canonical_form(fixture_rack("rack/dihedral3"))]
    assert len(d_block) == 6
    d_canons = {canonical_form(s) for s in d_block}
    for s in d_block:
        flags = classify(s)
        assert not flags.decomposable
        assert mp_level(s).mp_level is None
        assert is_injective(s)[0]
        assert len(solution_orbits(s)) == 1
        assert canonical_form(invert_solution(s)) in d_canons

    # the three named dihedral-block solutions
    sd = fixture_solution("solution/dihedral3-sd")
    fg, _ = finite_quotient(sd)
    assert fg.order == 6 and quotient_fingerprint_matches(fg, "symmetric 3")
    assert canonical_form(sd) in d_canons

    sb = fixture_solution("solution/dihedral3-b")
    fgb, _ = finite_quotient(sb)
    assert fgb.order == 18
    assert canonical_form(sb) in d_canons
    ref = reference_group("cyclic 3 x symmetric 3")
    assert fgb.fingerprint == ref.fingerprint
    assert fgb.fingerprint != reference_group("symmetric 3").fingerprint
    assert fgb.abelian_invariants == (6,)
    # independent cross-check of the order: the quotient presentation maps
    # onto the direct product of a three-cycle and a symmetric group, via
    # frozen generator images verified against every relator
    pres = structure_presentation(sb)
    relators = pres.relators + degrees(sb).twisted_powers
    images = (7, 8, 11)
    for w in relators:
        cur = 0
        for g, e in w:
            x = images[g] if e > 0 else ref.inv(images[g])
            cur = ref.mult[cur][x]
        assert cur == 0
    assert len(ref.subgroup_closure(images)) == ref.order

    sc = fixture_solution("solution/dihedral3-c")
    ab = abelianization(structure_presentation(sc))
    assert (ab.free_rank, ab.torsion) == (1, (3,))
    fgc, _ = finite_quotient(sc)
    assert fgc.order == 6 and quotient_fingerprint_matches(fgc, "cyclic 6")
    assert canonical_form(sc) in d_canons
    assert are_isomorphic(
        structure_racks(sc).right, fixture_rack("rack/dihedral3")
    ) is not None

    # census totals
    assert len(solutions3.representatives) == 26
    assert solutions3.total_labeled == 66
    inv_census = enumerate_solutions(3, restrict="involutive")
    assert len(inv_census.representatives) == 5


# -- 6. orbit count equals abelianization rank ------------------------------


def test_criterion_6_rank_equals_orbit_count(solutions3):
    for s in solutions3.representatives:
        ab = abelianization(structure_presentation(s))
        assert ab.free_rank == len(solution_orbits(s))


# -- 7. the order identity --------------------------------------------------


def rack_group_order_with_solution_degrees(s: Solution) -> int:
    """Independent computation of |structure group of the structure rack
    modulo x^{d_x}|, using the left-style rack solution r'."""
    rk = structure_racks(s).right
    d = degrees(s).d
    sol = sd_solutions(rk)[1]
    pres = structure_presentation(sol)
    powers = tuple(tuple((x, 1) for _ in range(d[x])) for x in range(rk.n))
    quotient = Presentation(rk.n, pres.relators + powers)
    return group_from_actions(coset_enumeration(quotient), quotient).order


def test_criterion_7_order_identity(all_fixture_objects):
    for name, obj in all_fixture_objects.items():
        s = obj if isinstance(obj, Solution) else sd_solutions(obj)[0]
        lhs = finite_quotient(s)[0].order
        # both sides are computed on the induced biquandle, through which
        # the quotient factors
        base = s if is_biquandle(s) else induced_biquandle(s)[0]
        assert lhs == rack_group_order_with_solution_degrees(base), name


def test_criterion_7_order_identity_on_census(solutions3):
    for s in solutions3.representatives:
        lhs = finite_quotient(s)[0].order
        base = s if is_biquandle(s) else induced_biquandle(s)[0]
        assert lhs == rack_group_order_with_solution_degrees(base)


# -- 8. the structure-rack lemma suite --------------------------------------


def lemma_suite(s: Solution) -> None:
    n = s.n
    pair = structure_racks(s)
    T, Sq, R, L = pair.T, pair.Sq, pair.right.op, pair.left
    inv = invert_solution(s)
    ident = perm.identity(n)

    # T and U(x) = sigma_x^{-1}(Sq(x)) are mutually inverse
    U = tuple(perm.inverse(s.sigma[x])[Sq[x]] for x in range(n))
    assert perm.compose(T, U) == ident and perm.compose(U, T) == ident

    # pointwise compatibilities of T with the solution maps
    for y in range(n):
        assert s.tau[y][T[y]] == y
        assert s.sigma[T[y]][y] == Sq[T[y]]

    # both squarings agree and Sq is equivariant for the right operation
    for x in range(n):
        assert R[x][x] == L[x][x] == Sq[x]
        for y in range(n):
            assert Sq[R[x][y]] == R[Sq[x]][y]
            assert R[x][Sq[y]] == R[x][y]

    # the left and right operations intertwine through T
    for x in range(n):
        for y in range(n):
            assert T[L[y][x]] == R[T[x]][T[y]]

    # every tau_z and tau^_z is an endomorphism of the right structure rack
    for z in range(n):
        for f in (s.tau[z], inv.tau[z]):
            for x in range(n):
                for y in range(n):
                    assert f[R[x][y]] == R[f[x]][f[y]]

    # rho_y^d compares the two right actions of the twisted power y^[d],
    # and the guitar image of y^[d] is the constant word y^d
    rho = tuple(
        perm.compose(s.tau[y], perm.inverse(inv.tau[y])) for y in range(n)
    )
    for y in range(n):
        for d in range(1, 5):
            w = twisted_power(s, y, d)
            assert guitar(s, w) == word_of(*[y] * d)
            tw = tuple(act_right(s, x, w) for x in range(n))
            tw_hat = tuple(act_right(inv, x, w) for x in range(n))
            assert perm.power(rho[y], d) == perm.compose(tw, perm.inverse(tw_hat))

    # passing a letter from the right through a twisted power yields the
    # twisted power of the letter's tau-image, computed by an independent
    # letterwise braiding oracle
    def extended_r(letters, z):
        out = [0] * len(letters)
        cur = z
        for i in range(len(letters) - 1, -1, -1):
            out[i] = s.tau[cur][letters[i]]
            cur = s.sigma[letters[i]][cur]
        return cur, tuple(out)

    for y in range(n):
        for z in range(n):
            for m in range(1, 5):
                letters = tuple(g for g, _ in twisted_power(s, y, m))
                _, out = extended_r(letters, z)
                assert out == tuple(
                    g for g, _ in twisted_power(s, s.tau[z][y], m)
                )


def test_criterion_8_lemma_suite_on_fixtures(all_fixture_objects):
    for obj in all_fixture_objects.values():
        s = obj if isinstance(obj, Solution) else sd_solutions(obj)[0]
        lemma_suite(s)


def test_criterion_8_lemma_suite_on_census(solutions3):
    for s in solutions3.representatives:
        lemma_suite(s)


def test_criterion_8_degree_condition_equivalence(solutions3):
    # of the three conditions "rho_y^d trivial", "y^[d] acts trivially on
    # the right", "y^[d] acts trivially on the right of the inverse
    # braiding", any two imply the third
    for s in solutions3.representatives:
        inv = invert_solution(s)
        pair = structure_racks(s)
        rho = tuple(
            perm.compose(s.tau[y], perm.inverse(inv.tau[y])) for y in range(s.n)
        )
        ident = perm.identity(s.n)
        for y in range(s.n):
            for d in range(1, 7):
                w = twisted_power(s, y, d)
                conds = [
                    perm.power(rho[y], d) == ident,
                    all(act_right(s, x, w) == x for x in range(s.n)),
                    all(act_right(inv, x, w) == x for x in range(s.n)),
                ]
                assert sum(conds) != 2, (y, d, conds)


# -- 9. orderability verdicts -----------------------------------------------


def test_criterion_9_orderability(involutive3):
    ident = (0, 1, 2)
    for s in involutive3.representatives:
        trivial = all(
            s.sigma[x] == ident and s.tau[x] == ident for x in range(3)
        )
        verdict = biorderability(s)
        assert verdict.bi_orderable == trivial
        iv = involutive_orderability(s)
        assert iv.left_orderable == (mp_level(s).mp_level is not None)
        assert iv.diffuse == iv.left_orderable

    d_verdict = biorderability(fixture_solution("solution/dihedral3-sd"))
    assert d_verdict.certificate == ("quotient_torsion", 0, 1, 3)

    rk4 = fixture_rack("rack/4pt-torsion")
    assert sd_dichotomy(rk4).verdict == "TORSION_NONABELIAN"
    assert is_injective(sd_solutions(rk4)[0])[0]

    rk3 = fixture_rack("rack/3pt-free-image")
    assert sd_dichotomy(rk3).verdict == "FREE_ABELIAN"
    sol3 = sd_solutions(rk3)[0]
    ab = abelianization(structure_presentation(sol3))
    assert (ab.free_rank, ab.torsion) == (2, ())
    assert biorderability(sol3).bi_orderable


# -- 10. compatibility of the two reductions --------------------------------


def test_criterion_10_reduction_squares(solutions3, racks4):
    # structure rack then quandle reduction = biquandle reduction then
    # structure rack
    for s in solutions3.representatives:
        lhs = structure_racks(induced_biquandle(s)[0]).right
        rhs = induced_quandle(structure_racks(s).right)[0]
        assert are_isomorphic(lhs, rhs) is not None

    # rack solution then biquandle reduction = quandle reduction then rack
    # solution
    for rk in racks4.representatives:
        lhs = induced_biquandle(sd_solutions(rk)[0])[0]
        rhs = sd_solutions(induced_quandle(rk)[0])[0]
        assert are_isomorphic(lhs, rhs) is not None
