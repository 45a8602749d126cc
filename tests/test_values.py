"""The immutable value classes built on core.Frozen, per_input's argument
binding, and the modules that starting the CLI must not load."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybe import (
    AbelianInvariants,
    AnalysisReport,
    Census,
    ChainReport,
    DegreeTable,
    FiniteGroup,
    Presentation,
    Rack,
    RetractionTower,
    Solution,
    SolutionClass,
    StructureRackPair,
    abelianization,
    analyze,
    biorderability,
    cable,
    chain_periods,
    classify,
    degrees,
    enumerate_racks,
    finite_quotient,
    involutive_orderability,
    mp_level,
    rack_finite_quotient,
    sd_dichotomy,
    structure_presentation,
    structure_racks,
)
from ybe.core import t_map_of
from ybe.fixtures import fixture_rack, fixture_solution
from ybe.fpgroups import DEFAULT_COSET_CAP
from ybe.verdicts import InvolutiveVerdict, OrderabilityVerdict, SDVerdict

SRC = Path(__file__).resolve().parents[1] / "src"

# Each class with its fields in order, as repr, equality and hashing read them.
FIELDS = {
    Solution: ("n", "sigma", "tau"),
    Rack: ("n", "op"),
    SolutionClass: ("involutive", "biquandle", "self_distributive_right",
                    "self_distributive_left", "decomposable", "t_map"),
    ChainReport: ("period_pattern", "orbit_count"),
    DegreeTable: ("d", "D", "twisted_powers"),
    StructureRackPair: ("right", "left", "T", "Sq"),
    RetractionTower: ("levels", "mp_level"),
    Presentation: ("generator_count", "relators", "implied"),
    AbelianInvariants: ("free_rank", "torsion"),
    FiniteGroup: ("actions", "presentation"),
    OrderabilityVerdict: ("bi_orderable", "certificate"),
    SDVerdict: ("verdict", "witness"),
    InvolutiveVerdict: ("bi_orderable", "left_orderable", "diffuse", "mp_level"),
    AnalysisReport: ("n", "involutive", "biquandle", "self_distributive_right",
                     "self_distributive_left", "decomposable", "k_r", "K_r",
                     "degrees_d", "degrees_D", "ab_free_rank", "ab_torsion",
                     "quotient_order", "quotient_fingerprint", "injective",
                     "iis_size", "mp_level", "bi_orderable", "left_orderable",
                     "diffuse", "notes"),
    Census: ("n", "kind", "representatives", "iso_class_sizes"),
}


def _fresh_solution(name="solution/invol3-b"):
    """A new Solution object, with an empty memo, equal to the fixture."""
    s = fixture_solution(name)
    return Solution(s.n, s.sigma, s.tau)


def _fresh_rack(name="rack/dihedral3"):
    rk = fixture_rack(name)
    return Rack(rk.n, rk.op)


BUILDERS = {
    Solution: _fresh_solution,
    Rack: _fresh_rack,
    SolutionClass: lambda: classify(_fresh_solution()),
    ChainReport: lambda: chain_periods(_fresh_rack()),
    DegreeTable: lambda: degrees(_fresh_solution()),
    StructureRackPair: lambda: structure_racks(_fresh_solution()),
    RetractionTower: lambda: mp_level(_fresh_solution()),
    Presentation: lambda: structure_presentation(_fresh_solution()),
    AbelianInvariants: lambda: abelianization(structure_presentation(_fresh_solution())),
    FiniteGroup: lambda: rack_finite_quotient(_fresh_rack()),
    OrderabilityVerdict: lambda: biorderability(_fresh_solution()),
    SDVerdict: lambda: sd_dichotomy(_fresh_rack()),
    InvolutiveVerdict: lambda: involutive_orderability(_fresh_solution()),
    AnalysisReport: lambda: analyze(_fresh_solution()),
    Census: lambda: enumerate_racks(2),
}


def test_every_value_class_is_covered():
    assert set(BUILDERS) == set(FIELDS)
    assert len(FIELDS) == 15
    for cls, fields in FIELDS.items():
        assert cls._fields == fields


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_equality_hash_and_repr(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[cls]))
    expected = f"{cls.__name__}({', '.join(f'{f}={getattr(a, f)!r}' for f in FIELDS[cls])})"
    assert repr(a) == repr(b) == expected
    assert a != object() and a != tuple(getattr(a, f) for f in FIELDS[cls])


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    a = BUILDERS[cls]()
    for name in FIELDS[cls] + ("anything_else",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    with pytest.raises(AttributeError):
        delattr(a, FIELDS[cls][0])
    assert a == BUILDERS[cls]()


def test_repr_text_matches_the_field_layout():
    assert repr(Rack(2, ((0, 0), (1, 1)))) == "Rack(n=2, op=((0, 0), (1, 1)))"
    assert repr(AbelianInvariants(1, (2,))) == "AbelianInvariants(free_rank=1, torsion=(2,))"
    pair = structure_racks(Solution(1, ((0,),), ((0,),)))
    assert repr(pair) == "StructureRackPair(right=Rack(n=1, op=((0,),)), left=((0,),), T=(0,), Sq=(0,))"


def test_instances_of_different_classes_are_never_equal():
    assert ChainReport((1,), 1) != AbelianInvariants((1,), 1)
    assert SDVerdict("x", None) != OrderabilityVerdict("x", None)
    assert ChainReport((1,), 1) == ChainReport(period_pattern=(1,), orbit_count=1)


def test_memo_is_per_instance_and_outside_equality_hash_and_repr():
    a, b = _fresh_solution(), _fresh_solution()
    assert a._memo == {} and a._memo is not b._memo
    degrees(a)
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert "_memo" not in repr(a) and "_memo" not in Solution._fields
    with pytest.raises(TypeError):
        Solution(1, ((0,),), ((0,),), {})


def test_constructor_arguments():
    assert Presentation(2, ((0, 1),)).implied == ()
    assert Presentation(2, ((0, 1),), implied=((1,),)).implied == ((1,),)
    assert Rack(op=((0,),), n=1) == Rack(1, ((0,),))
    with pytest.raises(TypeError):
        Rack(1)
    with pytest.raises(TypeError):
        Rack(1, ((0,),), ())
    with pytest.raises(TypeError):
        Rack(1, n=1)
    with pytest.raises(TypeError):
        Rack(1, ((0,),), opp=())


def test_cached_properties_still_work():
    assert isinstance(FiniteGroup.__dict__["fingerprint"], functools.cached_property)
    fg = rack_finite_quotient(_fresh_rack())
    assert fg.fingerprint is fg.fingerprint
    assert "fingerprint" in vars(fg)


def test_analysis_report_to_dict():
    report = analyze(_fresh_solution())
    out = report.to_dict()
    assert list(out) == list(FIELDS[AnalysisReport])
    assert out == {name: getattr(report, name) for name in FIELDS[AnalysisReport]}


def test_per_input_spellings_share_one_entry():
    s = _fresh_solution()
    first = finite_quotient(s)
    assert finite_quotient(s, DEFAULT_COSET_CAP) is first
    assert finite_quotient(s, coset_cap=DEFAULT_COSET_CAP) is first
    assert sum(key[0] is finite_quotient.__wrapped__ for key in s._memo) == 1
    rk = _fresh_rack()
    fg = rack_finite_quotient(rk)
    assert rack_finite_quotient(rk, coset_cap=DEFAULT_COSET_CAP) is fg
    assert rack_finite_quotient(rk, DEFAULT_COSET_CAP) is fg
    with pytest.raises(TypeError):
        finite_quotient(s, cap=DEFAULT_COSET_CAP)
    with pytest.raises(TypeError):
        finite_quotient(s, DEFAULT_COSET_CAP, coset_cap=DEFAULT_COSET_CAP)
    with pytest.raises(TypeError):
        rack_finite_quotient(rk, DEFAULT_COSET_CAP, 1)


def test_t_is_computed_once_per_input():
    s = _fresh_solution("solution/two-orbit3-b")
    misses = t_map_of.cache_info().misses
    cable(s, 3)
    degrees(s)
    classify(s)
    structure_racks(s).T
    assert t_map_of.cache_info().misses == misses + 1


def test_starting_the_cli_loads_no_code_generation_modules():
    code = (
        "import ybe.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_no_assert_statement_in_the_package():
    # checks that the results depend on must survive python -O
    import ast

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "ybe").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list((SRC / "ybe").glob("*.py"))) > 5
    assert found == []
