"""Finite set-theoretic Yang-Baxter solutions: structure racks, structure
groups, canonical finite quotients, and orderability verdicts."""

import importlib.util
import sys

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "census": "Census enumerate_racks enumerate_solutions group_by_structure_rack",
    "core": "ChainReport Rack Solution SolutionClass chain_periods classify invert_solution"
            " rack_orbits sd_solutions solution_orbits verify_rack verify_solution",
    "derived": "RetractionTower StructureRackPair are_isomorphic cable canonical_form"
               " induced_biquandle induced_quandle mp_level retraction sq_map structure_racks",
    "fpgroups": "AbelianInvariants FiniteGroup Presentation abelianization finite_quotient"
                " induced_injective_solution is_injective rack_finite_quotient"
                " structure_presentation",
    "verdicts": "AnalysisReport analyze biorderability involutive_orderability sd_dichotomy",
    "words": "DegreeTable Word act_left act_right degrees guitar guitar_inverse rho_of_word"
             " twisted_power word_of",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, *_EXPORTS, "errors", "perm"])
__version__ = "0.1.0"


def _lazy(name: str):
    """ybe.<name>, put in sys.modules now and executed at its first attribute
    access, so a program compiles only the submodules it uses."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


for _name in (*_EXPORTS, "errors", "perm"):
    globals()[_name] = _lazy(_name)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
