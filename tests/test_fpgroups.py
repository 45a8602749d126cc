"""Presentations, abelianization, coset enumeration, finite quotients,
injectivity, and the table oracle with its reference groups."""

import random

import pytest

from ybe import (
    AbelianInvariants,
    FiniteGroup,
    Presentation,
    Rack,
    Solution,
    abelianization,
    enumerate_racks,
    enumerate_solutions,
    finite_quotient,
    induced_injective_solution,
    is_injective,
    rack_finite_quotient,
    sd_solutions,
    structure_presentation,
    verify_solution,
)
from ybe.errors import CosetLimitExceeded, InvariantViolation, UnknownName
from ybe.fixtures import fixture_rack, fixture_solution
from ybe.fpgroups import (
    DEFAULT_COSET_CAP,
    _exponent_matrix,
    _quotient_presentation,
    _snf_diagonalize,
    coset_enumeration,
    group_from_actions,
    in_row_lattice,
    smith_invariants,
)
from ybe.core import is_biquandle, rack_orbits, solution_orbits
from ybe.derived import induced_biquandle
from ybe.words import _rack_degree, degrees, word_of

from coset_oracle import hlt_enumeration, standardize
from table_groups import TableGroup, dense, reference_group


def test_structure_presentation_of_trivial_flip():
    ident = [[0, 1], [0, 1]]
    s = verify_solution(ident, ident)
    pres = structure_presentation(s)
    assert pres.generator_count == 2
    # the diagonal relators reduce to nothing; what survives are the two
    # commutation relators ab = ba written from either side
    assert set(pres.relators) == {
        ((0, 1), (1, 1), (0, -1), (1, -1)),
        ((1, 1), (0, 1), (1, -1), (0, -1)),
    }


def test_structure_presentation_of_twisted_flip():
    s = fixture_solution("solution/twisted-flip2")
    pres = structure_presentation(s)
    # r(0,0) = (1,1) gives the relator a a b^-1 b^-1; r(0,1) = (0,0) gives
    # a b a^-1 a^-1, and r(1,1) = (0,0) the mirror image
    assert ((0, 1), (0, 1), (1, -1), (1, -1)) in pres.relators


def test_presentation_has_no_empty_or_duplicate_relators(solution_fixtures):
    for s in solution_fixtures.values():
        pres = structure_presentation(s)
        assert () not in pres.relators
        assert len(set(pres.relators)) == len(pres.relators)
        # one tuple per letter (g, +-1), shared by every relator
        assert len({id(letter) for w in pres.relators for letter in w}) <= 2 * s.n


# -- Smith normal form ------------------------------------------------------


def test_smith_invariants_known_matrices():
    assert smith_invariants([[2, 0], [0, 3]], 2) == (0, (6,))
    assert _snf_diagonalize([[2, 0], [0, 3]], 2) == [1, 6]
    assert smith_invariants([[1, 0], [0, 1]], 2) == (0, ())
    assert smith_invariants([[0, 0, 0]], 3) == (3, ())
    assert smith_invariants([[2, 4], [4, 8]], 2) == (1, (2,))


def test_smith_invariants_match_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(42)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        free, torsion = smith_invariants(mat, cols)
        snf = smith_normal_form(sympy.Matrix(mat))
        diag = [abs(snf[i, i]) for i in range(min(rows, cols))]
        expected_nonzero = sorted(d for d in diag if d != 0)
        assert free == cols - len(expected_nonzero)
        assert list(torsion) == [d for d in expected_nonzero if d > 1]


def _row_lattice_oracle(mat, ncols):
    """Membership in the row lattice of mat, decided from sympy's Smith
    decomposition D = S A T: vec is in the lattice of A exactly when vec.T is
    in that of D, i.e. divisible by each nonzero d_j and zero past them."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_decomp

    rows = [row for row in mat if any(row)]
    if not rows:
        return lambda vec: not any(vec)
    d, _, t = smith_normal_decomp(sympy.Matrix(rows), domain=sympy.ZZ)
    divisors = [d[j, j] if j < d.rows else 0 for j in range(ncols)]

    def member(vec):
        image = sympy.Matrix([vec]) * t
        return all(c % m == 0 if m else c == 0 for c, m in zip(image, divisors))

    return member


def test_in_row_lattice():
    mat = [[2, 0], [0, 3]]
    assert in_row_lattice(mat, [2, 3])
    assert in_row_lattice(mat, [-4, 6])
    assert not in_row_lattice(mat, [1, 0])
    assert not in_row_lattice(mat, [0, 1])
    assert in_row_lattice([[1, 1]], [3, 3])
    assert not in_row_lattice([[1, 1]], [1, 0])


# a matrix on which a loop that swaps rows and columns mid-pass, and applies
# column operations to every row, grows entries past 2,000 bits
SWAP_TRAP = [
    [-5, 0, 8, -9, 8, -8],
    [6, -4, 0, -4, 0, 0],
    [9, -2, -8, -2, -1, 0],
    [-8, 0, -6, 2, 0, -3],
    [-3, -1, 0, 1, -8, -4],
    [5, -9, 3, 0, 6, 0],
    [4, -5, 5, -1, -4, 5],
]


def test_snf_of_random_integer_matrices():
    # the diagonal is sympy's nonzero invariant factors, the invariants
    # match sympy, and membership matches sympy's Smith decomposition
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    assert smith_invariants(SWAP_TRAP, 6) == (0, (2,))
    rng = random.Random(10)
    shapes = [(rng.randint(1, 8), rng.randint(1, 7)) for _ in range(120)]
    matrices = [SWAP_TRAP] + [
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)] for rows, cols in shapes
    ]
    for mat in matrices:
        cols = len(mat[0])
        snf = smith_normal_form(sympy.Matrix(mat))
        want = sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0)
        assert _snf_diagonalize(mat, cols) == want, mat
        before = smith_invariants(mat, cols)
        assert before == (cols - len(want), tuple(d for d in want if d > 1)), mat
        combo = [rng.randint(-3, 3) for _ in mat]
        member = [sum(c * row[j] for c, row in zip(combo, mat)) for j in range(cols)]
        assert in_row_lattice(mat, member), mat
        vec = [rng.randint(-2, 2) for _ in range(cols)]
        assert in_row_lattice(mat, vec) is _row_lattice_oracle(mat, cols)(vec), mat


def test_abelianization_examples(solution_fixtures):
    expected = {
        "solution/invol3-a": (3, ()),
        "solution/invol3-b": (1, (3,)),
        "solution/invol3-c": (2, ()),
        "solution/invol3-d": (2, (2,)),
        "solution/invol3-e": (2, ()),
        "solution/dihedral3-b": (1, ()),
        "solution/dihedral3-c": (1, (3,)),
        "solution/dihedral3-sd": (1, ()),
        "solution/two-orbit3-sd": (2, ()),
        "solution/trivial3-sd": (3, ()),
        "solution/twisted-flip2": (1, (2,)),
        "solution/twisted-flip3": (2, ()),
        "solution/4pt-irretractable": (1, (2,)),
    }
    for name, (free, torsion) in expected.items():
        ab = abelianization(structure_presentation(solution_fixtures[name]))
        assert ab == AbelianInvariants(free, torsion), name


# -- coset enumeration ------------------------------------------------------


def test_coset_enumeration_cyclic_group():
    pres = Presentation(1, (word_of(0, 0, 0, 0, 0),))
    actions = coset_enumeration(pres)
    assert len(actions[0]) == 5


def test_coset_enumeration_symmetric_group():
    # <a, b | a^2, b^2, (ab)^3> is the symmetric group on three letters
    pres = Presentation(
        2, (word_of(0, 0), word_of(1, 1), word_of(0, 1, 0, 1, 0, 1))
    )
    fg = group_from_actions(coset_enumeration(pres), pres)
    assert fg.fingerprint == reference_group("symmetric 3").fingerprint


def test_coset_cap_enforced():
    pres = Presentation(1, (word_of(*[0] * 120),))
    with pytest.raises(CosetLimitExceeded, match=r"cap of 50 cosets \(50 defined, 50 live\)$"):
        coset_enumeration(pres, cap=50)
    # A5 = <a, b | a^2, b^3, (ab)^5> peaks at 60 live cosets: it fits under
    # a cap of 70, and one below its peak trips
    a5 = Presentation(2, (word_of(0, 0), word_of(1, 1, 1), word_of(*[0, 1] * 5)))
    assert len(coset_enumeration(a5, cap=70)[0]) == 60
    with pytest.raises(CosetLimitExceeded) as exc:
        coset_enumeration(a5, cap=59)
    assert (exc.value.cap, exc.value.live) == (59, 59)
    assert str(exc.value).endswith("cap of 59 cosets (59 defined, 59 live)")


@pytest.fixture
def felsch_calls(monkeypatch):
    """The presentation of each call to _felsch during the test."""
    from ybe import fpgroups

    calls = []
    real_felsch = fpgroups._felsch

    def counting_felsch(p, cap):
        calls.append(p)
        return real_felsch(p, cap)

    monkeypatch.setattr(fpgroups, "_felsch", counting_felsch)
    return calls


@pytest.fixture
def cosets_defined(monkeypatch):
    """One entry per coset that enumeration defines during the test."""
    from ybe import fpgroups

    calls = []
    real_define = fpgroups._CosetTable.define

    def counting_define(self, a, x):
        calls.append(x)
        real_define(self, a, x)

    monkeypatch.setattr(fpgroups._CosetTable, "define", counting_define)
    return calls


def test_coset_cap_counts_live_cosets(cosets_defined, felsch_calls):
    # Felsch over the quotient relators of affine Z_17, a = 3 defines more
    # cosets than the cap, but coincidences keep the live ones below it.
    # The power relator g^k is written conjugated, h g^k h^-1, so no relator
    # is a pure power and _felsch runs; cyclically reduced, its relator
    # cycles are those of g^k
    fg, _ = finite_quotient(_affine_sd(17, 3))
    *pairs, power = fg.presentation.relators
    assert len(set(power)) == 1
    h = (power[0][0] + 1) % 17
    pres = Presentation(17, (*pairs, ((h, 1), *power, (h, -1))), fg.presentation.implied)
    cosets_defined.clear()
    assert coset_enumeration(pres, 1000) == list(fg.actions)
    assert felsch_calls == [pres]
    assert len(fg.actions[0]) == 272
    assert len(cosets_defined) > 1000


def test_power_subgroup_defines_few_cosets_on_affine_z17(cosets_defined, felsch_calls):
    # Felsch over the trivial subgroup defines 1,154 cosets here for index
    # 272; over <g> it enumerates the 17 cosets of the power subgroup
    fg, _ = finite_quotient(_affine_sd(17, 3))
    assert fg.order == 272
    assert len(cosets_defined) <= 2 * 17
    assert felsch_calls == []


def _commutator(a, b):
    return ((a, 1), (b, 1), (a, -1), (b, -1))


@pytest.mark.parametrize("third", [
    _commutator(0, 1),  # Z/2 x Z/300
    word_of(0, 1, 0, 1),  # dihedral: <a> has trivial core, but index 300
], ids=["abelian", "dihedral"])
def test_more_than_256_cosets_of_the_power_subgroup_take_felsch(felsch_calls, third):
    pres = Presentation(2, (word_of(0, 0), word_of(*[1] * 300), third))
    actions = coset_enumeration(pres)
    assert felsch_calls == [pres]
    assert len(actions[0]) == 600
    assert actions == standardize(hlt_enumeration(pres))


def test_an_image_smaller_than_m_k_takes_felsch(felsch_calls):
    # S3 = <a, b | b^3, a^2, (ab)^2>: <b> is normal, so b fixes both of its
    # cosets and the image has 2 elements, not 2 * 3
    s3 = (word_of(1, 1, 1), word_of(0, 0), word_of(0, 1, 0, 1))
    pres = Presentation(2, s3)
    actions = coset_enumeration(pres)
    assert felsch_calls == [pres] and len(actions[0]) == 6
    # with a^2 first, <a> has trivial core: its 3 cosets certify the order
    swapped = Presentation(2, (s3[1], s3[0], s3[2]))
    assert coset_enumeration(swapped) == actions
    assert felsch_calls == [pres]


def test_the_power_subgroup_path_checks_implied_relators(felsch_calls):
    # S3 from the cosets of <a>, with b^2 claimed implied: b acts on the
    # three cosets as a 3-cycle, so the faithful action refutes it
    s3 = (word_of(0, 0), word_of(1, 1, 1), word_of(0, 1, 0, 1))
    with pytest.raises(InvariantViolation, match="implied relator"):
        coset_enumeration(Presentation(2, s3, implied=(word_of(1, 1),)))
    assert len(coset_enumeration(Presentation(2, s3, implied=(word_of(*[1] * 6),)))[0]) == 6
    assert felsch_calls == []


def test_subgroup_path_agrees_with_felsch(all_fixture_objects, racks4, felsch_calls):
    # every fixture, both SD solutions of each rack class with n <= 5, the
    # solution census with n <= 4, and affine Z_p with p <= 31 at a = 2 and
    # a = -1: the subgroup path and _felsch give the same action
    from ybe import fpgroups

    racks = [rk for rk in all_fixture_objects.values() if isinstance(rk, Rack)]
    racks += [rk for n in (1, 2, 3) for rk in enumerate_racks(n).representatives]
    racks += racks4.representatives + enumerate_racks(5, bound=5).representatives
    solutions = [s for s in all_fixture_objects.values() if isinstance(s, Solution)]
    solutions += [s for rk in racks for s in sd_solutions(rk)]
    solutions += [s for n in range(1, 5) for s in enumerate_solutions(n, bound=4).representatives]
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    solutions += [_affine_sd(p, a) for p in primes for a in {2 % p, p - 1} if a > 1]
    # the presentations that finite_quotient enumerates, built without it
    bqs = [s if is_biquandle(s) else induced_biquandle(s)[0] for s in solutions]
    presentations = [_quotient_presentation(s, degrees(s).twisted_powers) for s in bqs]
    presentations += [rack_finite_quotient(rk).presentation for rk in all_fixture_objects.values()
                      if isinstance(rk, Rack)]
    presentations = list(dict.fromkeys(presentations))
    reference = [fpgroups._felsch(pres, DEFAULT_COSET_CAP) for pres in presentations]
    felsch_calls.clear()
    for pres, actions in zip(presentations, reference):
        assert coset_enumeration(pres) == actions, pres
    certified = len(presentations) - len(felsch_calls)
    assert (len(presentations), certified) == (193, 65)


def test_a_failing_implied_relator_is_a_typed_error():
    # a^2 is claimed to follow from a^3; the table of Z/3 refutes it at coset 0
    cube = (word_of(0, 0, 0),)
    with pytest.raises(InvariantViolation, match="implied relator"):
        coset_enumeration(Presentation(1, cube, implied=(word_of(0, 0),)))
    assert len(coset_enumeration(Presentation(1, cube, implied=(word_of(*[0] * 6),)))[0]) == 3


def test_group_from_actions_identity_coset():
    fg = group_from_actions([(1, 2, 0)], Presentation(1, (word_of(0, 0, 0),)))
    assert fg.order == 3
    assert fg.element_order(fg.gen_images[0]) == 3


# -- FiniteGroup ------------------------------------------------------------


def test_finite_group_basics():
    s3 = reference_group("symmetric 3")
    assert s3.order == 6
    assert not s3.is_abelian
    assert s3.center_order == 1
    assert len(s3.derived_subgroup) == 3
    assert s3.conjugacy_class_sizes() == (1, 2, 3)
    assert s3.abelian_invariants == (2,)
    assert sorted(s3.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]


def test_finite_group_quotient():
    d8 = reference_group("dihedral 8")
    center = frozenset(
        a
        for a in range(8)
        if all(d8.mult[a][b] == d8.mult[b][a] for b in range(8))
    )
    q = d8.quotient(center)
    assert q.fingerprint == reference_group("elementary_abelian 2^2").fingerprint


def test_abelian_invariants_of_products():
    assert reference_group("cyclic 12").abelian_invariants == (12,)
    assert reference_group("cyclic 2 x cyclic 4").abelian_invariants == (2, 4)
    assert reference_group("cyclic 2 x cyclic 3").abelian_invariants == (6,)
    assert reference_group("elementary_abelian 3^2").abelian_invariants == (3, 3)
    assert reference_group("cyclic 6 x cyclic 4").abelian_invariants == (2, 12)


def test_reference_group_names():
    assert reference_group("trivial").order == 1
    assert reference_group("GL(2,3)").order == 48
    assert reference_group("dihedral 6").fingerprint == reference_group(
        "symmetric 3"
    ).fingerprint
    with pytest.raises(UnknownName):
        reference_group("sporadic 1")
    with pytest.raises(UnknownName):
        reference_group("dihedral 7")


# -- finite quotients -------------------------------------------------------


def test_finite_quotient_orders(solution_fixtures):
    expected = {
        "solution/invol3-a": 8,
        "solution/invol3-b": 216,
        "solution/invol3-c": 8,
        "solution/invol3-d": 8,
        "solution/invol3-e": 8,
        "solution/two-orbit3-b": 4,
        "solution/dihedral3-b": 18,
        "solution/dihedral3-c": 6,
        "solution/dihedral3-sd": 6,
        "solution/two-orbit3-sd": 4,
        "solution/trivial3-sd": 8,
        "solution/twisted-flip2": 4,
        "solution/twisted-flip3": 8,
        "solution/4pt-irretractable": 16,
    }
    for name, order in expected.items():
        fg, _ = finite_quotient(solution_fixtures[name])
        assert fg.order == order, name


def test_finite_quotient_fingerprints():
    cases = {
        "solution/twisted-flip2": "cyclic 4",
        "solution/twisted-flip3": "dihedral 8",
        "solution/invol3-d": "cyclic 4 x cyclic 2",
        "solution/invol3-e": "dihedral 8",
        "solution/dihedral3-c": "cyclic 6",
        "solution/dihedral3-sd": "symmetric 3",
    }
    for name, ref in cases.items():
        fg, _ = finite_quotient(fixture_solution(name))
        assert fg.fingerprint == reference_group(ref).fingerprint, name


def test_quotient_generators_generate(solution_fixtures):
    for name, s in solution_fixtures.items():
        if s.n > 4:
            continue
        fg, iota = finite_quotient(s)
        assert len(dense(fg).subgroup_closure(iota)) == fg.order, name


def test_quotient_of_one_point_solution():
    fg, iota = finite_quotient(verify_solution([[0]], [[0]]))
    assert fg.order == 2
    assert iota == (1,)


def test_non_biquandle_quotient_goes_through_reduction():
    from ybe import verify_rack

    shift = verify_rack([[(x + 1) % 3] * 3 for x in range(3)])
    s = sd_solutions(shift)[0]
    fg, iota = finite_quotient(s)
    assert fg.order == 2
    assert iota == (1, 1, 1)


def test_rack_finite_quotients():
    cases = {
        "rack/trivial3": (8, "elementary_abelian 2^3"),
        "rack/two-orbit3": (4, "elementary_abelian 2^2"),
        "rack/dihedral3": (6, "symmetric 3"),
    }
    for name, (order, ref) in cases.items():
        rk = fixture_rack(name)
        fg = rack_finite_quotient(rk)
        assert fg.order == order
        assert fg.fingerprint == reference_group(ref).fingerprint
        if rk.is_quandle:
            assert finite_quotient(sd_solutions(rk)[1])[0].order == order


def test_rack_quotient_rank_consistency(rack_fixtures):
    # adding the power relators x^{D_x} kills the free part entirely: the
    # abelianized quotient is finite, of rank zero
    from ybe.fpgroups import _exponent_matrix
    from ybe.words import degrees

    for rk in rack_fixtures.values():
        if rk.n > 4:
            continue
        sol = sd_solutions(rk)[0]
        pres = structure_presentation(sol)
        mat = _exponent_matrix(pres)
        free_rank, _ = smith_invariants(mat, rk.n)
        from ybe.core import rack_orbits

        assert free_rank == len(rack_orbits(rk))
        powers = [
            [degrees(sol).d[x] if i == x else 0 for i in range(rk.n)]
            for x in range(rk.n)
        ]
        extended_rank, _ = smith_invariants(mat + powers, rk.n)
        assert extended_rank == 0


def test_injectivity(solution_fixtures):
    injective = {
        "solution/invol3-a": True,
        "solution/two-orbit3-b": False,
        "solution/two-orbit3-sd": False,
        "solution/dihedral3-sd": True,
        "solution/dihedral3-b": True,
        "solution/twisted-flip2": True,
    }
    for name, want in injective.items():
        got, _ = is_injective(solution_fixtures[name])
        assert got is want, name


def test_noninjective_eight_point_quandle():
    s = sd_solutions(fixture_rack("rack/8pt-noninjective"))[0]
    ok, partition = is_injective(s)
    assert not ok
    assert partition == ((0, 1), (2, 3), (4, 5), (6, 7))


def test_induced_injective_solution():
    s = fixture_solution("solution/two-orbit3-sd")
    result, cls = induced_injective_solution(s)
    assert result.n == 2
    assert cls == (0, 1, 1)
    assert is_injective(result)[0]
    # already injective solutions are left untouched
    d = fixture_solution("solution/dihedral3-sd")
    same, cls_d = induced_injective_solution(d)
    assert same == d and cls_d == (0, 1, 2)


def test_induced_injective_solution_over_the_censuses():
    # the two solutions have one structure group, so one abelianization.
    # Their finite quotients can differ: on 11 classes of size 4, |G-bar|
    # falls from 6 or 18 to 4, or from 32 to 8
    classes = [s for n in (2, 3, 4) for s in enumerate_solutions(n, bound=n).representatives]
    for s in classes:
        iis, _ = induced_injective_solution(s)
        assert is_injective(iis)[0], s
        assert abelianization(structure_presentation(iis)) == abelianization(
            structure_presentation(s)), s
    assert len(classes) == 283


def test_quotient_word_length_reachability():
    # every quotient element is reachable by a short word in the generators:
    # breadth-first distance is bounded by n * max(d) on these examples
    from collections import deque

    for name in ("solution/trivial3-sd", "solution/two-orbit3-sd", "solution/dihedral3-sd"):
        s = fixture_solution(name)
        fg, iota = finite_quotient(s)
        dist = {0: 0}
        queue = deque([0])
        while queue:
            a = queue.popleft()
            for g in iota:
                for b in (fg.mult[a][g], fg.mult[a][fg.mult[g].index(0)]):
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        queue.append(b)
        assert len(dist) == fg.order
        from ybe.words import degrees

        assert max(dist.values()) <= 2 * s.n * (max(degrees(s).d) - 1)


# -- loop invariants: one SNF, hoisted inverses -----------------------------


def test_in_row_lattice_agrees_with_fresh_queries(
    fixture_and_sd_solutions, census_solutions
):
    # e_y - e_x against sympy's Smith decomposition, one per matrix
    pytest.importorskip("sympy")
    for s in list(fixture_and_sd_solutions) + list(census_solutions):
        matrix = _exponent_matrix(structure_presentation(s))
        member = _row_lattice_oracle(matrix, s.n)
        for x in range(s.n):
            for y in range(s.n):
                diff = [0] * s.n
                diff[x] -= 1
                diff[y] += 1
                assert in_row_lattice(matrix, diff) is member(diff), (s, x, y)


def test_smith_invariants_ignore_duplicate_and_zero_rows(fixture_and_sd_solutions):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(7)
    for s in fixture_and_sd_solutions:
        matrix = _exponent_matrix(structure_presentation(s))
        padded = matrix + [[0] * s.n] + [rng.choice(matrix) for _ in range(3)]
        rng.shuffle(padded)
        distinct = [list(r) for r in dict.fromkeys(map(tuple, padded)) if any(r)]
        assert len(distinct) < len(padded)
        got = smith_invariants(padded, s.n)
        assert got == smith_invariants(distinct, s.n) == smith_invariants(matrix, s.n)
        snf = smith_normal_form(sympy.Matrix(padded))
        diag = sorted(abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i] != 0)
        assert got == (s.n - len(diag), tuple(d for d in diag if d > 1)), s


def test_closing_check_inverts_each_generator_once(monkeypatch):
    from ybe import perm
    from ybe.words import degrees

    s = fixture_solution("solution/invol3-b")
    relators = structure_presentation(s).relators + degrees(s).twisted_powers
    calls = []
    real_inverse = perm.inverse

    def counting_inverse(p):
        calls.append(p)
        return real_inverse(p)

    monkeypatch.setattr(perm, "inverse", counting_inverse)
    actions = coset_enumeration(Presentation(s.n, relators))
    assert len(actions[0]) == 216
    assert len(calls) <= s.n


def test_fingerprint_scans_each_row_for_the_identity_once():
    scans = []

    class Row(tuple):
        def index(self, value, *args):
            scans.append(id(self))
            return super().index(value, *args)

    fg = rack_finite_quotient(fixture_rack("rack/12pt-gl23"))
    counted = TableGroup(fg.order, tuple(Row(r) for r in fg.mult), fg.gen_images)
    assert counted.fingerprint == fg.fingerprint
    assert len(scans) == len(set(scans)) <= fg.order


def test_quotient_cache_ignores_how_the_cap_is_spelled(monkeypatch):
    from ybe import fpgroups

    calls = []
    real_enumeration = fpgroups.coset_enumeration

    def counting_enumeration(*args, **kwargs):
        calls.append(args)
        return real_enumeration(*args, **kwargs)

    monkeypatch.setattr(fpgroups, "coset_enumeration", counting_enumeration)
    cap = fpgroups.DEFAULT_COSET_CAP
    s = fixture_solution("solution/invol3-b")  # a fresh object, with an empty memo
    assert finite_quotient(s) == finite_quotient(s, cap) == finite_quotient(s, coset_cap=cap)
    assert len(calls) == 1
    rk = fixture_rack("rack/dihedral3")
    first = rack_finite_quotient(rk)
    assert first == rack_finite_quotient(rk, cap) == rack_finite_quotient(rk, coset_cap=cap)
    assert len(calls) == 2


def test_quotient_memo_keeps_one_entry_per_cap():
    s = fixture_solution("solution/invol3-b")
    assert finite_quotient(s)[0].order == 216
    with pytest.raises(CosetLimitExceeded):
        finite_quotient(s, 100)
    before = finite_quotient.cache_info()
    assert finite_quotient(s)[0].order == 216
    after = finite_quotient.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# -- the coset action against the table oracle ------------------------------


def _affine_sd(p, a):
    """The right SD solution of the affine quandle x > y = a x + (1 - a) y on Z_p."""
    ident = list(range(p))
    tau = [[(a * x + (1 - a) * y) % p for x in range(p)] for y in range(p)]
    return verify_solution([ident] * p, tau)


def _lyubashenko(n):
    shift = [(v + 1) % n for v in range(n)]
    return verify_solution([shift] * n, [shift] * n)


def _agrees_with_table(fg, label):
    table = dense(fg)
    assert fg.fingerprint == table.fingerprint, label
    assert fg.is_abelian is table.is_abelian, label
    assert fg.abelian_invariants == table.abelian_invariants, label
    elements = range(fg.order) if fg.order <= 64 else range(0, fg.order, fg.order // 64)
    for a in elements:
        assert fg.mult[fg.mult[a].index(0)][a] == 0, (label, a)
        assert fg.element_order(a) == table.element_order(a), (label, a)
        for x, act in enumerate(fg.actions):  # column g_x is the action of x
            assert fg.mult[a][fg.gen_images[x]] == act[a], (label, a, x)


def test_fingerprint_matches_the_table_oracle(
    fixture_and_sd_solutions, census_solutions, rack_fixtures
):
    for s in list(fixture_and_sd_solutions) + list(census_solutions):
        _agrees_with_table(finite_quotient(s)[0], s)
    for name, rk in rack_fixtures.items():
        _agrees_with_table(rack_finite_quotient(rk), name)


def test_fingerprint_matches_the_table_oracle_on_benchmark_inputs():
    # the quotient and analyze inputs of the benchmark's groups workload:
    # affine quandles of index p * ord_p(a) up to 342, GL(2,3), Lyubashenko
    for p, a in [(31, -1), (11, 2), (13, 2), (17, 3), (19, 2)]:
        fg, _ = finite_quotient(_affine_sd(p, a))
        _agrees_with_table(fg, (p, a))
    fg = rack_finite_quotient(fixture_rack("rack/12pt-gl23"))
    assert fg.fingerprint == reference_group("GL(2,3)").fingerprint
    _agrees_with_table(fg, "GL(2,3)")
    for n in (16, 20, 24):
        _agrees_with_table(finite_quotient(_lyubashenko(n))[0], n)


def test_mismatched_presentation_is_rejected():
    # a presentation that does not match the coset action is an internal
    # fault (exit 4), not invalid input
    three_cycle = [(1, 2, 0)]
    for relators in ((), (word_of(0, 0),)):  # Z, and Z/2 of order not dividing 3
        fg = FiniteGroup(tuple(three_cycle), Presentation(1, relators))
        assert fg.order == 3
        for read in (lambda: fg.abelian_invariants, lambda: fg.fingerprint):
            with pytest.raises(InvariantViolation):
                read()
    assert abelianization(Presentation(1, (word_of(0, 0),))).torsion == (2,)


# -- Felsch over the reduced relators against HLT over all of them ----------


def _oracle_solution_quotient(s):
    """(actions, generator images) of the finite quotient, by HLT over the
    paper's full presentation plus the twisted powers, in standard order."""
    if not is_biquandle(s):
        bq, proj = induced_biquandle(s)
        actions, iota = _oracle_solution_quotient(bq)
        return actions, tuple(iota[proj[x]] for x in range(s.n))
    full = Presentation(s.n, structure_presentation(s).relators + degrees(s).twisted_powers)
    actions = standardize(hlt_enumeration(full))
    return actions, tuple(act[0] for act in actions)


def _oracle_rack_quotient(rk, side):
    sol = sd_solutions(rk)[side]
    powers = tuple(word_of(*[x] * _rack_degree(rk.rho(x))) for x in range(rk.n))
    return standardize(hlt_enumeration(
        Presentation(rk.n, structure_presentation(sol).relators + powers)))


def _agrees_with_oracle(s, label):
    fg, iota = finite_quotient(s)
    assert (list(fg.actions), iota) == _oracle_solution_quotient(s), label


def test_felsch_matches_hlt_on_fixtures_and_censuses(
    fixture_and_sd_solutions, census_solutions, all_fixture_objects
):
    for s in list(fixture_and_sd_solutions) + list(census_solutions):
        _agrees_with_oracle(s, s)
    racks = [rk for rk in all_fixture_objects.values() if isinstance(rk, Rack)]
    racks += [rk for n in range(1, 5) for rk in enumerate_racks(n).representatives]
    assert len(racks) == 7 + 1 + 2 + 6 + 19
    for rk in racks:
        assert list(rack_finite_quotient(rk).actions) == _oracle_rack_quotient(rk, 0), rk
        if rk.is_quandle:
            # tau = id: the left self-distributive solution, whose twisted
            # powers are the plain powers x^{D_x}
            fg, _ = finite_quotient(sd_solutions(rk)[1])
            assert list(fg.actions) == _oracle_rack_quotient(rk, 1), rk


@pytest.mark.parametrize("p, a", [(31, -1), (11, 2), (13, 2), (19, 2), (17, 3), (29, 2)])
def test_felsch_matches_hlt_on_affine_quandles(p, a):
    s = _affine_sd(p, a)
    _agrees_with_oracle(s, (p, a))
    # two points generate the rack: at most 2p pair relators, and p twisted
    # powers, are enumerated
    pres = finite_quotient(s)[0].presentation
    assert len(pres.relators) <= 3 * p
    assert set(pres.relators + pres.implied) == set(
        structure_presentation(s).relators + degrees(s).twisted_powers)


def test_felsch_defines_few_cosets_on_affine_z29(cosets_defined):
    # HLT over the full relators defined 40,279 cosets here for index 812
    fg, _ = finite_quotient(_affine_sd(29, 2))
    assert fg.order == 812
    assert len(cosets_defined) <= 2 * 812


@pytest.mark.slow
def test_affine_z197_quotient_from_the_power_subgroup(felsch_calls):
    # index 197 * ord_197(2) = 197 * 196: certified from the 197 cosets of
    # <g>, so _felsch (about 29 s on a shared 2-core host) never runs
    fg, iota = finite_quotient(_affine_sd(197, 2))
    assert fg.order == 38_612 == 197 * 196
    assert felsch_calls == []
    assert len(set(iota)) == 197
    assert {fg.element_order(a) for a in iota[:3]} == {196}
    assert fg.abelian_invariants == (196,)


def test_left_quandle_quotient_has_the_plain_power_presentation(all_fixture_objects):
    # tau = id and T = id, so d_x = D_x and each twisted power is x^{D_x}
    quandles = [rk for rk in all_fixture_objects.values() if isinstance(rk, Rack) and rk.is_quandle]
    quandles += [rk for n in range(1, 6)
                 for rk in enumerate_racks(n, quandles_only=True, bound=5).representatives]
    assert len(quandles) == 41
    for rk in quandles:
        sol = sd_solutions(rk)[1]
        powers = tuple(word_of(*[x] * _rack_degree(rk.rho(x))) for x in range(rk.n))
        assert finite_quotient(sol)[0].presentation == _quotient_presentation(sol, powers), rk


def test_left_sd_quotient_drops_relators_by_the_mirror_argument():
    # tau = id: the relators x y = sigma_x(y) x are kept for x in a
    # generating set of the rack y < x = sigma_x(y)
    rk = fixture_rack("rack/12pt-gl23")
    sol = sd_solutions(rk)[1]
    fg, _ = finite_quotient(sol)
    pres = fg.presentation
    powers = len(rack_orbits(rk))  # one power relator per orbit ends the relators
    assert pres.implied and {w[0][0] for w in pres.relators[:-powers]} < set(range(rk.n))
    assert fg.order == 48
    assert set(pres.relators + pres.implied) >= set(structure_presentation(sol).relators)


def _sd_quotient_inputs(all_fixture_objects, racks4, solutions3):
    """Every rack class with n <= 4 and rack fixture, and every solution
    fixture and three-point solution class."""
    racks = [rk for rk in all_fixture_objects.values() if isinstance(rk, Rack)]
    racks += [rk for n in (1, 2, 3) for rk in enumerate_racks(n).representatives]
    racks += racks4.representatives
    solutions = [s for s in all_fixture_objects.values() if isinstance(s, Solution)]
    solutions += [s for rk in racks for s in sd_solutions(rk)] + list(solutions3.representatives)
    return racks, solutions


def test_power_degrees_are_constant_on_rack_orbits(all_fixture_objects, racks4, solutions3):
    # rho_(y<w) = rho_w^-1 rho_y rho_w, so a degree read from rho_y is
    # constant on each orbit of the rack
    racks, solutions = _sd_quotient_inputs(all_fixture_objects, racks4, solutions3)
    for rk in racks:
        D = [_rack_degree(rk.rho(x)) for x in range(rk.n)]
        assert all(len({D[x] for x in block}) == 1 for block in rack_orbits(rk)), rk
        # the orbits of either self-distributive solution are the rack's
        assert [solution_orbits(s) for s in sd_solutions(rk)] == [rack_orbits(rk)] * 2
    sd = 0
    for s in solutions:
        ident = tuple(range(s.n))
        if is_biquandle(s) and (set(s.sigma) == {ident} or set(s.tau) == {ident}):
            d, powers = degrees(s).d, degrees(s).twisted_powers
            assert all(len({d[x] for x in block}) == 1 for block in solution_orbits(s)), s
            assert powers == tuple(word_of(*[x] * d[x]) for x in range(s.n)), s
            sd += 1
    assert sd > 40


def test_one_power_per_orbit_gives_the_quotient_of_all_powers(
    all_fixture_objects, racks4, solutions3
):
    # the quotient presentations enumerate one power relator per orbit and
    # keep the others in implied; enumerating all of them gives the same action
    racks, solutions = _sd_quotient_inputs(all_fixture_objects, racks4, solutions3)
    cut = 0
    for rk in racks:
        sol = sd_solutions(rk)[0]
        powers = tuple(word_of(*[x] * _rack_degree(rk.rho(x))) for x in range(rk.n))
        full = Presentation(rk.n, structure_presentation(sol).relators + powers)
        fg = rack_finite_quotient(rk)
        assert list(fg.actions) == coset_enumeration(full), rk
        kept = [w for w in fg.presentation.relators if w in powers]
        assert [w[0][0] for w in kept] == [block[0] for block in rack_orbits(rk)], rk
        cut += len(kept) < rk.n
    for s in solutions:
        bq = s if is_biquandle(s) else induced_biquandle(s)[0]
        full = Presentation(bq.n, structure_presentation(bq).relators + degrees(bq).twisted_powers)
        assert list(finite_quotient(bq)[0].actions) == coset_enumeration(full), s
    assert cut > 0
