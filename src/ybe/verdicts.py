"""High-level verdicts: orderability, the self-distributive dichotomy, and a
consolidated analysis report assembled from the other modules."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from .core import (
    Rack,
    Solution,
    classify,
    rack_orbits,
    sd_solutions,
    solution_orbits,
)
from .derived import mp_level as mp_tower
from .derived import structure_racks
from .errors import NotInvolutive
from .fpgroups import (
    DEFAULT_COSET_CAP,
    _membership,
    _relator_snf,
    abelianization,
    finite_quotient,
    is_injective,
    structure_presentation,
)
from .words import degrees


@dataclass(frozen=True)
class OrderabilityVerdict:
    bi_orderable: bool
    # ("free_abelian", rank, orbit_of) when YES;
    # ("quotient_torsion", x, y, order) / ("ab_torsion", factors) /
    # ("rank_mismatch", k_r, K_r) / ("noncommuting", x, y) /
    # ("not_free_abelian",) when NO.
    certificate: Optional[tuple]


@dataclass(frozen=True)
class SDVerdict:
    verdict: str  # "FREE_ABELIAN" or "TORSION_NONABELIAN"
    witness: Optional[tuple]  # identified pair or torsion element description


@dataclass(frozen=True)
class InvolutiveVerdict:
    bi_orderable: bool
    left_orderable: bool
    diffuse: bool
    mp_level: Optional[int]


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    involutive: bool
    biquandle: bool
    self_distributive_right: bool
    self_distributive_left: bool
    decomposable: bool
    k_r: int
    K_r: int
    degrees_d: tuple[int, ...]
    degrees_D: tuple[int, ...]
    ab_free_rank: int
    ab_torsion: tuple[int, ...]
    quotient_order: int
    quotient_fingerprint: tuple
    injective: bool
    iis_size: int
    mp_level: Optional[int]
    bi_orderable: str
    left_orderable: str
    diffuse: str
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return asdict(self)


def biorderability(s: Solution, coset_cap: int = DEFAULT_COSET_CAP) -> OrderabilityVerdict:
    """Whether the structure group is bi-orderable, i.e. free abelian.

    The group is free abelian exactly when the finite quotient is abelian,
    the abelianization is free of rank equal to the orbit count k_r, and
    k_r equals the structure-rack orbit count K_r; the certificate is then
    the map sending each generator to the indicator of its orbit in Z^k.
    """
    orbits = solution_orbits(s)
    k = len(orbits)
    K = len(rack_orbits(structure_racks(s).right))
    ab = abelianization(structure_presentation(s))
    fg, iota = finite_quotient(s, coset_cap)
    if fg.is_abelian and ab.torsion == () and ab.free_rank == k and k == K:
        orbit_of = [0] * s.n
        for i, block in enumerate(orbits):
            for x in block:
                orbit_of[x] = i
        # confirm every defining relator already holds in Z^k under nu
        for x in range(s.n):
            for y in range(s.n):
                u, v = s.r(x, y)
                image = [0] * k
                image[orbit_of[x]] += 1
                image[orbit_of[y]] += 1
                image[orbit_of[u]] -= 1
                image[orbit_of[v]] -= 1
                assert all(c == 0 for c in image)
        return OrderabilityVerdict(True, ("free_abelian", k, tuple(orbit_of)))
    # build a NO witness
    flags = classify(s)
    if not flags.involutive:
        # look for a generator pair whose difference dies in the
        # abelianization but survives with finite order in the quotient:
        # the class of x^{-1} y witnessing torsion
        # the SNF that gave the abelianization answers every membership query
        in_lattice = _membership(_relator_snf(structure_presentation(s)), s.n)
        for x in range(s.n):
            for y in range(s.n):
                g = fg.mul(fg.inv(iota[x]), iota[y])
                if g == 0:
                    continue
                diff = [0] * s.n
                diff[x] -= 1
                diff[y] += 1
                if in_lattice(diff):
                    return OrderabilityVerdict(
                        False, ("quotient_torsion", x, y, fg.element_order(g))
                    )
    if ab.torsion:
        return OrderabilityVerdict(False, ("ab_torsion", ab.torsion))
    if k != K:
        return OrderabilityVerdict(False, ("rank_mismatch", k, K))
    for x in range(s.n):
        for y in range(s.n):
            if fg.mul(iota[x], iota[y]) != fg.mul(iota[y], iota[x]):
                return OrderabilityVerdict(False, ("noncommuting", x, y))
    return OrderabilityVerdict(False, ("not_free_abelian",))


def sd_dichotomy(rk: Rack, coset_cap: int = DEFAULT_COSET_CAP) -> SDVerdict:
    """The dichotomy for structure groups of self-distributive solutions.

    Decided by testing whether x and x > y always become equal in the
    finite quotient (the induced injective rack is then trivial); in that
    case the structure group is free abelian and the rack is
    multipermutation of level at most 2.  Otherwise the group has torsion
    and is not left-orderable.
    """
    sol = sd_solutions(rk)[0]
    _, iota = finite_quotient(sol, coset_cap)
    for x in range(rk.n):
        for y in range(rk.n):
            if iota[x] != iota[rk.op[x][y]]:
                return SDVerdict("TORSION_NONABELIAN", ("separated", x, rk.op[x][y]))
    tower = mp_tower(sol)
    assert tower.mp_level is not None and tower.mp_level <= 2
    return SDVerdict("FREE_ABELIAN", None)


def involutive_orderability(s: Solution) -> InvolutiveVerdict:
    """Orderability of involutive solutions.

    Left-orderability and diffuseness are both equivalent to the solution
    being multipermutation; bi-orderability happens only for the trivial
    flip.
    """
    flags = classify(s)
    if not flags.involutive:
        raise NotInvolutive("this verdict applies to involutive solutions only")
    tower = mp_tower(s)
    trivial = flags.self_distributive_right and flags.self_distributive_left
    lo = tower.mp_level is not None
    return InvolutiveVerdict(trivial, lo, lo, tower.mp_level)


def analyze(s: Solution, coset_cap: int = DEFAULT_COSET_CAP) -> AnalysisReport:
    """Run all modules on a solution and assemble the consolidated report.

    Every finite quotient is enumerated under coset_cap.
    """
    flags = classify(s)
    k = len(solution_orbits(s))
    K = len(rack_orbits(structure_racks(s).right))
    deg = degrees(s)
    ab = abelianization(structure_presentation(s))
    fg, _ = finite_quotient(s, coset_cap)
    injective, partition = is_injective(s, coset_cap)
    tower = mp_tower(s)
    notes = [
        "k_r and the abelianization rank agree by the orbit-rank theorem",
        "the finite quotient divides out the twisted powers y^[d_y] and "
        "preserves injectivity of the generator map",
    ]
    bi = biorderability(s, coset_cap)
    if bi.bi_orderable:
        left = diffuse = "yes"
        notes.append(
            "bi-orderable: the structure group is free abelian, hence "
            "left-orderable and diffuse"
        )
    elif flags.involutive:
        iv = involutive_orderability(s)
        left = diffuse = "yes" if iv.left_orderable else "no"
        notes.append(
            "involutive case: left-orderability and diffuseness are both "
            "equivalent to being multipermutation"
        )
    elif flags.self_distributive_right or flags.self_distributive_left:
        # non-free-abelian SD case: the structure group has torsion, so it
        # is neither left-orderable nor diffuse
        left = diffuse = "no"
        notes.append(
            "self-distributive case: the structure group is either free "
            "abelian or has torsion; torsion rules out left orders and "
            "diffuseness"
        )
    else:
        left = diffuse = "unknown"
        notes.append(
            "left-orderability of general non-involutive injective "
            "solutions is an open problem"
        )
    return AnalysisReport(
        n=s.n,
        involutive=flags.involutive,
        biquandle=flags.biquandle,
        self_distributive_right=flags.self_distributive_right,
        self_distributive_left=flags.self_distributive_left,
        decomposable=flags.decomposable,
        k_r=k,
        K_r=K,
        degrees_d=deg.d,
        degrees_D=deg.D,
        ab_free_rank=ab.free_rank,
        ab_torsion=ab.torsion,
        quotient_order=fg.order,
        quotient_fingerprint=fg.fingerprint,
        injective=injective,
        iis_size=len(partition),
        mp_level=tower.mp_level,
        bi_orderable="yes" if bi.bi_orderable else "no",
        left_orderable=left,
        diffuse=diffuse,
        notes=tuple(notes),
    )
