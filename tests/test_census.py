"""Exhaustive small censuses and their cross-checks."""

import hashlib
import math
import random
from itertools import permutations, product

import pytest

import ybe.census as census_module
from ybe import (
    Census,
    Rack,
    canonical_form,
    chain_periods,
    classify,
    enumerate_racks,
    enumerate_solutions,
    group_by_structure_rack,
    perm,
    verify_rack,
    verify_solution,
)
from ybe.core import Solution, _ybe_witness, is_biquandle, sd_solutions
from ybe.derived import (
    _relabeled, are_isomorphic, automorphism_count, relabel_rack, relabel_solution, structure_racks,
)
from ybe.errors import SizeTooLarge
from ybe.fixtures import fixture_names, fixture_object, fixture_rack

from test_pair_map import pair_bijective_oracle


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

    # the solution censuses weight each table found over a rack
    # representative R by n!/|Aut(R)|; this checks the weights class by class
    censuses = [quandles3, involutive3]
    censuses += [enumerate_solutions(4, r, bound=4) for r in (None, "involutive", "biquandle")]
    censuses += [enumerate_racks(n, q, bound=n) for n in (4, 5) for q in (False, True)]
    for census in censuses:
        for rep, size in zip(census.representatives, census.iso_class_sizes):
            assert size * automorphism_count(rep) == math.factorial(rep.n)


def test_group_by_structure_rack_rejects_a_rack_census(quandles3):
    with pytest.raises(TypeError, match="expects a solution census"):
        group_by_structure_rack(quandles3)


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
    census = enumerate_racks(4)
    assert census.total_labeled == 114
    assert len(built) == 114


# -- every census up to one size past its bound, pinned ----------------------

# sha256 of the repr of each census.  They were computed by an earlier,
# independent search (columns, then sigma rows, in a fixed order), so they
# cross-check the forced-first one.
RACK_DIGESTS = {
    (1, False): "08617d5329694399ecee7ae115ee1e701ed238ed800af1f083d5a2c8424fd730",
    (1, True): "0c3d454df80a41b0239e081460908ef22138654974e70abe18177111d0fab034",
    (2, False): "ce8e48a7b8a2bce565c10c96ffa0d1cf3f1d834271656241d84687722a877d4d",
    (2, True): "65fd201b6d7051584ef1b16bcf14eaced567f773f0262417fa6ecf893969d39e",
    (3, False): "9f99ae6088af90cf4fa90406e926f688242f0db01ae433eb1a3cb6c4c8eeecfb",
    (3, True): "83b3508ad8ad36b17fce13f9258a3db6bc88f83a3925e0dcdd90bdc4da87b14a",
    (4, False): "ad1de3e3a132842ac7e84b2499c7df1d198bf38898f233ae4c375e5589be32cf",
    (4, True): "b1efe7081b6b1338bce063e6612b84cb530932117e9d4f22cf27acbfa024ebaf",
    (5, False): "cd7697d1a04fde57ed7763e1d37e868b536d6b42826c34ecc58ea47a4eafa529",
    (5, True): "7a6a0e0a0905064a8906b355fa0ac8cd0a59568ab4d583150858d9c9e43bebf6",
}
SOLUTION_DIGESTS = {  # the census, then its group_by_structure_rack blocks
    (1, None): ("19e27b4d99a0bf4315d6b90a5754da0e14a94e2bacc669df531c8af822de4ecb",
                "19ba90c9f525aa3289398fda4a81c23d3f9b1f62983cffd4cf2c3d8b52e96e5b"),
    (1, "involutive"): ("a23a8854216db51654ed26d0d38a36967511bca3d98ea363974ffa68d2d3c4e2",
                        "19ba90c9f525aa3289398fda4a81c23d3f9b1f62983cffd4cf2c3d8b52e96e5b"),
    (1, "biquandle"): ("4a292f51789815ed09f6e3098fa73649f2833dea74f914bd32945236c0b3969d",
                       "19ba90c9f525aa3289398fda4a81c23d3f9b1f62983cffd4cf2c3d8b52e96e5b"),
    (2, None): ("81e3d6a0f514b2a71dbc4ee99cff187493820cf63234e2d6fba8a53c67e74fd2",
                "e4d83df8f49573c9e0a94f1c5b44229f5d18f1da2891a101c46f81ca38ff2dd7"),
    (2, "involutive"): ("b76cc9aae995c0912c64446544f20c09a1f23067ec29f082e8738b3433c139a5",
                        "ca21573dc036a3c7a04ca78f7e7894722bf6697b241a6d8ff702738220c3ef34"),
    (2, "biquandle"): ("3a00c209de18586749f6291dea4242dbee17bcc313e770b334db11b020d9346f",
                       "ca21573dc036a3c7a04ca78f7e7894722bf6697b241a6d8ff702738220c3ef34"),
    (3, None): ("00ba41d2b273b48b2b56ebbbec940b9e1e65c8f7c77d6109ce73b249c64c6b5e",
                "f4052832f2a7f88dad0245bba4c3df30880c240319eb0f4e6581e2b197232a9a"),
    (3, "involutive"): ("585a79a2c654ed965b76ddc9e13a3cb5e88bf55d7f305ed9e95d246c2ebc5dde",
                        "5b699c4cf6d5faae405ce66b9d91e0523ba8e2ba7d46b86ff73926d53dd381a3"),
    (3, "biquandle"): ("641b128a791da56c288c29a869b258bf7efc85bd2d9db02f0e49f4ed06a25c8d",
                       "c0c9874c4dfe3b17fe07f13999e0ae051fecff61ebc35ae853cd6cb0f7828f3e"),
    (4, None): ("dd23e3fc586b2893f4c3390e8d47d28d20262ab95daf855a4b37a307d7a42797",
                "7a770b8998fcaaabe3e237dfa8ebcfa13a2bb237d69dfa1ce83003e81b5c87df"),
    (4, "involutive"): ("c14ddbb9ec24b6663336fa293bf461cc2ca1aebfc1b693abd6860d7711737028",
                        "8f8114b75f537fd0c05b0db5ff1e77b1913c02a5858c4d44c86fe91100fd6c70"),
    (4, "biquandle"): ("578708ad987d270caf113c01eed6054c85971e7a0e73d6c95628688961ffb1bc",
                       "d3a6533b7bd828f3f5d829ddfcf21f083c5aa649bbcf1a49a15958151fd2ba20"),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n, quandles_only", list(RACK_DIGESTS))
def test_rack_census_digests(n, quandles_only):
    assert _digest(enumerate_racks(n, quandles_only, bound=n)) == RACK_DIGESTS[n, quandles_only]


@pytest.mark.parametrize("n, restrict", list(SOLUTION_DIGESTS))
def test_solution_census_digests(n, restrict):
    census = enumerate_solutions(n, restrict, bound=n)
    blocks = group_by_structure_rack(census)
    assert (_digest(census), _digest(blocks)) == SOLUTION_DIGESTS[n, restrict]


# -- the pruned searches against the exhaustive ones, kept as oracles -------


def _oracle_canonical_form(obj):
    """The least flattened table over all n! relabelings."""
    return min(_relabeled(obj, f) for f in permutations(range(obj.n)))


def _oracle_automorphism_count(obj):
    """The relabelings, over all n!, that leave the flattened table fixed."""
    own = _relabeled(obj, perm.identity(obj.n))
    return sum(_relabeled(obj, f) == own for f in permutations(range(obj.n)))


def _oracle_census(n, kind, labeled):
    classes = {}
    for obj in labeled:
        classes.setdefault(_oracle_canonical_form(obj), []).append(obj)
    canons = sorted(classes)
    return Census(n, kind, tuple(classes[c][0] for c in canons),
                  tuple(len(classes[c]) for c in canons))


def _all_column_racks(n, quandles_only):
    """Every labeled rack on n points: every column is tried at every node,
    and every constraint among the chosen columns is checked again."""
    perms = perm.all_perms(n)
    found = []

    def extend(rho):
        k = len(rho)
        if k == n:
            found.append(Rack(n, tuple(tuple(rho[y][x] for y in range(n)) for x in range(n))))
            return
        for p in perms:
            if quandles_only and p[k] != k:
                continue
            cand = rho + [p]
            if all(perm.compose(cand[z], cand[y]) == perm.compose(cand[cand[z][y]], cand[z])
                   for y in range(k + 1) for z in range(k + 1) if cand[z][y] <= k):
                extend(cand)

    extend([])
    return found


def involutive_oracle(sigma, tau, n):
    """Whether r(r(x, y)) = (x, y) for all x, y."""
    for x in range(n):
        for y in range(n):
            u, v = sigma[x][y], tau[y][x]
            if (sigma[u][v], tau[v][u]) != (x, y):
                return False
    return True


def _full_product_solutions(n, restrict):
    """Every labeled solution on n points from all (n!)^(2n) row choices."""
    perms = perm.all_perms(n)
    found = []
    for sigma in product(perms, repeat=n):
        for tau in product(perms, repeat=n):
            if not pair_bijective_oracle(sigma, tau, n):
                continue
            if restrict == "involutive" and not involutive_oracle(sigma, tau, n):
                continue
            if restrict == "biquandle" and not is_biquandle(Solution(n, sigma, tau)):
                continue
            if _ybe_witness(sigma, tau, n) is None:
                found.append(Solution(n, sigma, tau))
    return found


@pytest.mark.parametrize("quandles_only", [False, True], ids=["rack", "quandle"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rack_search_matches_the_all_column_oracle(n, quandles_only):
    kind = "quandle" if quandles_only else "rack"
    oracle = _oracle_census(n, kind, _all_column_racks(n, quandles_only))
    assert enumerate_racks(n, quandles_only) == oracle


def test_rack_representatives_have_the_least_column_major_table():
    # the search finds a class's tables in no fixed order, and the class
    # keeps the least of them
    for n in range(1, 6):
        for quandles_only in (False, True):
            for rk in enumerate_racks(n, quandles_only, bound=n).representatives:
                relabeled = [relabel_rack(rk, f) for f in perm.all_perms(n)]
                assert tuple(zip(*rk.op)) == min(tuple(zip(*r.op)) for r in relabeled)


@pytest.mark.parametrize("restrict", [None, "involutive", "biquandle"])
def test_solution_search_matches_the_full_product_oracle(restrict):
    kind = restrict or "all-solutions"
    for n in (1, 2, 3):
        oracle = _oracle_census(n, kind, _full_product_solutions(n, restrict))
        assert enumerate_solutions(n, restrict) == oracle


def test_canonical_form_is_the_least_relabeling_on_labeled_censuses():
    censuses = [enumerate_racks(5, bound=5), enumerate_solutions(4, bound=4)]
    censuses += [enumerate_solutions(n) for n in (1, 2, 3)]
    rack_reps, solution4_reps = censuses[0].representatives, censuses[1].representatives
    labeled = {relabel_rack(rk, f) for rk in rack_reps for f in perm.all_perms(5)}
    assert len(labeled) == 1708
    solutions4 = {relabel_solution(s, f) for s in solution4_reps for f in perm.all_perms(4)}
    assert len(solutions4) == 1800
    solutions = [s for n in (1, 2, 3) for s in _full_product_solutions(n, None)]
    assert len(solutions) == 1 + 4 + 66
    rep_of = {canonical_form(rep): rep for c in censuses for rep in c.representatives}
    for obj in list(labeled) + list(solutions4) + solutions:
        canon = canonical_form(obj)
        assert canon == _oracle_canonical_form(obj)
        assert automorphism_count(obj) == _oracle_automorphism_count(obj)
        relabel = relabel_rack if isinstance(obj, Rack) else relabel_solution
        assert relabel(obj, are_isomorphic(obj, rep_of[canon])) == rep_of[canon]


def test_solution_search_checks_only_sigma_compatible_tau_rows(monkeypatch):
    # the search checks only that the tau rows are permutations; every table
    # it tallies passes the full checks, which stay here as oracles.  It
    # walks one labeled rack per class, so the full census tallies fewer
    # tables than it counts; the involutive one, over the trivial rack
    # alone, tallies each labeled table once.
    tallied = []
    real = census_module.canonical_form
    monkeypatch.setattr(census_module, "canonical_form",
                        lambda obj: tallied.append(obj) or real(obj))
    for n, restrict, labeled in [(3, None, 66), (4, None, 1800), (4, "involutive", 168)]:
        tallied.clear()
        census = enumerate_solutions(n, restrict, bound=n)
        solutions = [s for s in tallied if isinstance(s, Solution)]  # not the rack census's
        assert census.total_labeled == labeled
        if restrict is None:
            assert len(solutions) < labeled
        else:
            assert len(solutions) == labeled
        for s in solutions:
            assert verify_solution(s.sigma, s.tau) == s
            assert restrict != "involutive" or involutive_oracle(s.sigma, s.tau, n)


@pytest.mark.parametrize("restrict, digest", [
    (None, "dd23e3fc586b2893f4c3390e8d47d28d20262ab95daf855a4b37a307d7a42797"),
    ("biquandle", "578708ad987d270caf113c01eed6054c85971e7a0e73d6c95628688961ffb1bc"),
])
def test_solution_censuses_hold_the_involutive_classes(restrict, digest):
    # the full and biquandle censuses search the trivial rack among the
    # others, and find each involutive class with the involutive census's
    # representative and count
    trivial = enumerate_solutions(4, "involutive", bound=4)
    assert trivial.total_labeled == 168
    census = enumerate_solutions(4, restrict, bound=4)
    assert _digest(census) == digest
    for s, size in zip(trivial.representatives, trivial.iso_class_sizes):
        assert census.iso_class_sizes[census.representatives.index(s)] == size


def test_involutive_solutions_are_those_over_the_trivial_rack():
    # r = J^{-1} r' J, so r^2 = id iff x > w = x (proof in enumerate_solutions)
    names = fixture_names()
    solutions = [fixture_object(name) for name in names if name.startswith("solution/")]
    solutions += [s for name in names if name.startswith("rack/")
                  for s in sd_solutions(fixture_rack(name))]
    solutions += [s for n in (1, 2, 3) for s in _full_product_solutions(n, None)]
    solutions += enumerate_solutions(4, bound=4).representatives
    verdicts = [classify(s).involutive for s in solutions]
    trivial = [all(b == x for x, row in enumerate(structure_racks(s).right.op) for b in row)
               for s in solutions]
    assert verdicts == trivial
    assert verdicts == [involutive_oracle(s.sigma, s.tau, s.n) for s in solutions]
    assert True in verdicts and False in verdicts


def test_biquandles_are_the_solutions_with_a_quandle_structure_rack():
    # the equivalence proved in core.is_biquandle
    names = fixture_names()
    solutions = [fixture_object(name) for name in names if name.startswith("solution/")]
    solutions += [s for name in names if name.startswith("rack/")
                  for s in sd_solutions(fixture_rack(name))]
    solutions += [s for n in (1, 2, 3) for s in _full_product_solutions(n, None)]
    verdicts = [is_biquandle(s) for s in solutions]
    assert verdicts == [structure_racks(s).right.is_quandle for s in solutions]
    assert True in verdicts and False in verdicts


# -- the four-point solution censuses, one size past SOLUTION_BOUND ---------


@pytest.mark.parametrize("restrict, classes, labeled", [
    (None, 253, 1800),
    ("involutive", 23, 168),  # Etingof-Schedler-Soloviev, Duke Math. J. 1999
    ("biquandle", 98, 744),
])
def test_four_point_solution_censuses(restrict, classes, labeled):
    census = enumerate_solutions(4, restrict, bound=4)
    assert len(census.representatives) == classes
    assert census.total_labeled == labeled


@pytest.mark.parametrize("restrict", ["involutive", "biquandle"])
def test_four_point_restricted_censuses_filter_the_full_one(restrict):
    # the biquandle census walks quandles only, the full census every rack
    keep = is_biquandle if restrict == "biquandle" else (lambda s: classify(s).involutive)
    full = enumerate_solutions(4, bound=4)
    kept = [(s, k) for s, k in zip(full.representatives, full.iso_class_sizes) if keep(s)]
    assert enumerate_solutions(4, restrict, bound=4) == Census(4, restrict, *map(tuple, zip(*kept)))


def _sigma_compatible_tau_rows(sigma):
    """For each y, the permutations tau_y whose every value t = tau_y(x)
    meets (1): sigma_x sigma_y = sigma_w sigma_t with w = sigma_x(y)."""
    n = len(sigma)
    rows = []
    for y in range(n):
        allowed = [{t for t in range(n) if perm.compose(sigma[sigma[x][y]], sigma[t])
                    == perm.compose(sigma[x], sigma[y])} for x in range(n)]
        rows.append([p for p in perm.all_perms(n) if all(p[x] in allowed[x] for x in range(n))])
    return rows


def test_sampled_sigma_rows_give_only_census_classes():
    # sigma_x = g^(k_x) for a random g and random k_x.  A constant sigma
    # allows every tau row, 24^4 choices, so sigma that allow more than
    # 6^4 are skipped.
    classes = {canonical_form(s) for s in enumerate_solutions(4, bound=4).representatives}
    rng = random.Random(4)
    perms = perm.all_perms(4)
    found = []
    for _ in range(200):
        g = rng.choice(perms)
        sigma = tuple(perm.power(g, rng.randrange(4)) for _ in range(4))
        rows = _sigma_compatible_tau_rows(sigma)
        if math.prod(map(len, rows)) <= 6 ** 4:
            found += [Solution(4, sigma, tau) for tau in product(*rows)
                      if pair_bijective_oracle(sigma, tau, 4) and _ybe_witness(sigma, tau, 4) is None]
    assert len(found) > 100
    assert {canonical_form(s) for s in found} <= classes


@pytest.mark.slow
def test_six_point_rack_and_quandle_censuses():
    # 353 racks and 73 quandles (Vojtechovsky-Yang, Math. Comp. 2019)
    assert len(enumerate_racks(6, quandles_only=True, bound=6).representatives) == 73
    assert len(enumerate_racks(6, bound=6).representatives) == 353


@pytest.mark.parametrize("restrict, classes, labeled, digest", [
    # 88: Etingof-Schedler-Soloviev, Duke Math. J. 1999
    ("involutive", 88, 2640, "5c129e8d65c970c89852bfbce01119f23379b7c526d58000eb9f0d9a4c130010"),
    (None, 3607, 102720, "af71c892623fe9de23f994ca0bf09c7d7479365c6cbadec041b8cfef7c4bbdb2"),
])
def test_five_point_involutive_census(restrict, classes, labeled, digest):
    # about 0.5 s for the involutive census, the search over the trivial
    # rack, and 1-1.5 s for the full one, which searches every rack
    census = enumerate_solutions(5, restrict, bound=5)
    assert len(census.representatives) == classes
    assert census.total_labeled == labeled
    assert sum(120 // automorphism_count(s) for s in census.representatives) == labeled
    assert _digest(census) == digest


@pytest.mark.slow
@pytest.mark.parametrize("restrict, classes, labeled, digest", [
    # 595 classes: Etingof-Schedler-Soloviev, Duke Math. J. 1999; 85-125 s
    ("involutive", 595, 82080, "9616353d1e75ed4845bd9ce76dfd85a7d48aea534cf727169bcce34a823b1427"),
    # 82,080 tables over the trivial rack and 11,913,120 over the others;
    # 2-3 minutes and 280 MB
    (None, 100666, 11995200, "3bc6623b18435275c9cab0969a5aad4417199e9bb08204d0df4958fdcef086e5"),
], ids=["involutive", "all"])
def test_six_point_involutive_census(restrict, classes, labeled, digest):
    census = enumerate_solutions(6, restrict, bound=6)
    assert len(census.representatives) == classes
    assert census.total_labeled == labeled
    assert sum(720 // automorphism_count(s) for s in census.representatives) == labeled
    assert _digest(census) == digest
