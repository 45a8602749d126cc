"""The package surface: what `import ybe` exports, and what it loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ybe

ROOT = Path(__file__).resolve().parents[1]

# home module -> the names the package re-exports from it
HOMES = {
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
MODULES = [*HOMES, "errors", "perm"]
ALL = [
    "AbelianInvariants", "AnalysisReport", "Census", "ChainReport", "DegreeTable",
    "FiniteGroup", "Presentation", "Rack", "RetractionTower", "Solution", "SolutionClass",
    "StructureRackPair", "Word", "abelianization", "act_left", "act_right", "analyze",
    "are_isomorphic", "biorderability", "cable", "canonical_form", "census", "chain_periods",
    "classify", "core", "degrees", "derived", "enumerate_racks", "enumerate_solutions",
    "errors", "finite_quotient", "fpgroups", "group_by_structure_rack", "guitar",
    "guitar_inverse", "induced_biquandle", "induced_injective_solution", "induced_quandle",
    "invert_solution", "involutive_orderability", "is_injective", "mp_level", "perm",
    "rack_finite_quotient", "rack_orbits", "retraction", "rho_of_word", "sd_dichotomy",
    "sd_solutions", "solution_orbits", "sq_map", "structure_presentation", "structure_racks",
    "twisted_power", "verdicts", "verify_rack", "verify_solution", "word_of", "words",
]


def test_all_is_the_pinned_list():
    assert ybe.__all__ == ALL
    assert sorted([*MODULES, *(n for names in HOMES.values() for n in names.split())]) == ALL


@pytest.mark.parametrize("module", HOMES)
def test_each_name_is_the_object_of_its_home_module(module):
    home = sys.modules[f"ybe.{module}"]
    for name in HOMES[module].split():
        assert getattr(ybe, name) is getattr(home, name)


def test_each_submodule_is_bound_on_the_package():
    for module in MODULES:
        assert getattr(ybe, module) is sys.modules[f"ybe.{module}"]


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ybe import *", namespace)
    assert {name: namespace[name] for name in ALL} == {name: getattr(ybe, name) for name in ALL}


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ybe.no_such_name
    with pytest.raises(ImportError):
        from ybe import no_such_name  # noqa: F401


def test_import_ybe_registers_the_traced_modules_without_executing_them():
    # ybebench/traced.py scans sys.modules right after `import ybe`, so every
    # module it wraps must already be there; a lazily registered module is
    # not a plain ModuleType until its first attribute access executes it
    code = (
        "import json, sys, types; import ybe; "
        "modules = {name: type(m) is types.ModuleType for name, m in sys.modules.items() "
        "if name.startswith('ybe.')}; "
        f"sys.path.insert(0, {str(ROOT / 'ybebench')!r}); from traced import LAYERS; "
        "print(json.dumps([modules, sorted({module for module, _ in LAYERS})]))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stderr == ""
    modules, layers = json.loads(out.stdout)
    assert modules == {f"ybe.{name}": False for name in MODULES}
    assert layers == ["census", "core", "derived", "fpgroups", "verdicts", "words"]
