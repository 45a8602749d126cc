"""Finite set-theoretic Yang-Baxter solutions: structure racks, structure
groups, canonical finite quotients, and orderability verdicts."""

from .census import Census, enumerate_racks, enumerate_solutions, group_by_structure_rack
from .core import (
    ChainReport,
    Rack,
    Solution,
    SolutionClass,
    chain_periods,
    classify,
    invert_solution,
    rack_orbits,
    sd_solutions,
    solution_orbits,
    verify_rack,
    verify_solution,
)
from .derived import (
    RetractionTower,
    StructureRackPair,
    are_isomorphic,
    cable,
    canonical_form,
    induced_biquandle,
    induced_quandle,
    mp_level,
    retraction,
    sq_map,
    structure_racks,
)
from .fpgroups import (
    AbelianInvariants,
    FiniteGroup,
    Presentation,
    abelianization,
    finite_quotient,
    induced_injective_solution,
    is_injective,
    rack_finite_quotient,
    structure_presentation,
)
from .verdicts import (
    AnalysisReport,
    analyze,
    biorderability,
    involutive_orderability,
    sd_dichotomy,
)
from .words import (
    DegreeTable,
    Word,
    act_left,
    act_right,
    degrees,
    guitar,
    guitar_inverse,
    rho_of_word,
    twisted_power,
    word_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
