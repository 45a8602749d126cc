"""High-level verdicts: orderability, the self-distributive dichotomy, and a
consolidated analysis report assembled from the other modules."""

from __future__ import annotations

from .core import (
    Frozen,
    Rack,
    Solution,
    _flags,
    classify,
    per_input,
    rack_orbits,
    sd_solutions,
    solution_orbits,
)
from .derived import mp_level as mp_tower
from .derived import structure_racks
from .errors import InvariantViolation, NotInvolutive
from .fpgroups import (
    DEFAULT_COSET_CAP,
    AbelianInvariants,
    abelianization,
    finite_quotient,
    is_injective,
    structure_presentation,
)
from .words import degrees


class OrderabilityVerdict(Frozen):
    bi_orderable: bool
    # ("free_abelian", rank, orbit_of) when YES; ("separated", x, z) when
    # NO, x and z in one orbit with distinct finite-quotient images
    certificate: tuple | None


class SDVerdict(Frozen):
    verdict: str  # "FREE_ABELIAN" or "TORSION_NONABELIAN"
    witness: tuple | None  # identified pair or torsion element description


class InvolutiveVerdict(Frozen):
    bi_orderable: bool
    left_orderable: bool
    diffuse: bool
    mp_level: int | None


class AnalysisReport(Frozen):
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
    mp_level: int | None
    bi_orderable: str
    left_orderable: str
    diffuse: str
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


def _separated(s: Solution, iota: tuple[int, ...]) -> tuple[int, int] | None:
    """The first (x, z), z = tau_y(x) or sigma_y(x), with iota[x] != iota[z];
    None exactly when iota is constant on the orbits of X."""
    for x in range(s.n):
        for y in range(s.n):
            for z in (s.tau[y][x], s.sigma[y][x]):
                if iota[x] != iota[z]:
                    return x, z
    return None


@per_input
def biorderability(s: Solution, coset_cap: int = DEFAULT_COSET_CAP) -> OrderabilityVerdict:
    """Whether the structure group G is bi-orderable, i.e. free abelian.

    It is exactly when the generator map into the finite quotient is
    constant on each orbit; the certificate is then the map sending each
    generator to the indicator of its orbit in Z^k, k = k_r, and otherwise
    the first pair of one orbit that the quotient separates.

    Proof.  Every relator x y = sigma_x(y) tau_y(x) dies under the indicator
    map, as sigma_x(y) lies in the orbit of y and tau_y(x) in that of x.  If
    G is free abelian, it has rank k by the orbit-rank theorem, so the map
    induces a surjection G -> Z^k, hence an isomorphism: the points of one
    orbit are equal in G, so in the quotient.  Conversely, X -> G and X ->
    quotient identify the same generators, so G is generated by one point
    per orbit, which commute by the relators: a quotient of Z^k of rank k,
    hence Z^k.  The YES branch still checks the criterion this replaces.
    """
    fg, iota = finite_quotient(s, coset_cap)
    pair = _separated(s, iota)
    if pair:
        return OrderabilityVerdict(False, ("separated", *pair))
    orbits = solution_orbits(s)
    k = len(orbits)
    K = len(rack_orbits(structure_racks(s).right))
    ab = abelianization(structure_presentation(s))
    if not fg.is_abelian or ab != AbelianInvariants(k, ()) or k != K:
        raise InvariantViolation(
            f"the quotient is constant on orbits, but G^ab = {ab}, k_r = {k}, K_r = {K}"
        )
    orbit_of = [0] * s.n
    for i, block in enumerate(orbits):
        for x in block:
            orbit_of[x] = i
    return OrderabilityVerdict(True, ("free_abelian", k, tuple(orbit_of)))


def sd_dichotomy(rk: Rack, coset_cap: int = DEFAULT_COSET_CAP) -> SDVerdict:
    """The dichotomy for structure groups of self-distributive solutions.

    Decided by biorderability of r(x, y) = (y, x > y): whether x and x > y
    always become equal in the finite quotient (the induced injective rack
    is then trivial).  In that case the structure group is free abelian and
    the rack is multipermutation of level at most 2.  Otherwise the group
    has torsion and is not left-orderable, and the witness is
    biorderability's certificate ("separated", x, x > y).
    """
    sol = sd_solutions(rk)[0]
    bi = biorderability(sol, coset_cap)
    if not bi.bi_orderable:
        return SDVerdict("TORSION_NONABELIAN", bi.certificate)
    tower = mp_tower(sol)
    if tower.mp_level is None or tower.mp_level > 2:
        raise InvariantViolation(
            "generators equal in the finite quotient, but the multipermutation "
            f"level is {tower.mp_level}, not at most 2"
        )
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
    flags = _flags(s)
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
    elif flags["involutive"]:
        iv = involutive_orderability(s)
        left = diffuse = "yes" if iv.left_orderable else "no"
        notes.append(
            "involutive case: left-orderability and diffuseness are both "
            "equivalent to being multipermutation"
        )
    elif flags["self_distributive_right"] or flags["self_distributive_left"]:
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
        **flags,
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
