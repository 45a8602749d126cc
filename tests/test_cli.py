"""CLI behaviour: commands, exit codes, and document round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybe.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    json_pieces,
    main,
    parse_document,
)
from ybe.fixtures import catalog, fixture_document, fixture_names


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture_solution(capsys):
    code, out, _ = run(capsys, "check", "solution/trivial3-sd")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["valid"] and payload["kind"] == "solution"
    assert payload["involutive"] and payload["biquandle"]


def test_check_fixture_rack(capsys):
    code, out, _ = run(capsys, "check", "rack/8pt-noninjective")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "rack" and payload["quandle"]
    assert payload["n"] == 8


def test_check_rejects_bad_document(capsys, tmp_path):
    doc = fixture_document("solution/trivial3-sd").copy()
    doc = json.loads(json.dumps(doc))
    doc["tau"][0][0] = doc["tau"][0][1]  # break a row
    path = tmp_path / "bad.json"
    path.write_text("".join(json_pieces(doc)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert not payload["valid"]
    assert payload["error"] == "DegenerateRow"


def test_check_reports_ybe_witness(capsys, tmp_path):
    doc = {
        "schema": "ybe-solution/1",
        "n": 3,
        "sigma": [[0, 2, 1], [0, 1, 2], [0, 1, 2]],
        "tau": [[0, 1, 2], [0, 1, 2], [0, 2, 1]],
    }
    path = tmp_path / "ybe-fail.json"
    path.write_text("".join(json_pieces(doc)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_INVALID
    payload = json.loads(out)
    assert payload["error"] == "YBEFailure"
    assert payload["witness"] == [0, 1, 1]


def test_unknown_fixture_name(capsys):
    code, _, err = run(capsys, "check", "rack/nope")
    assert code == EXIT_INVALID


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", "solution/dihedral3-sd", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["quotient_order"] == 6
    assert payload["bi_orderable"] == "no"
    assert payload["mp_level"] is None


def test_analyze_rack_includes_dichotomy(capsys):
    code, out, _ = run(capsys, "analyze", "rack/dihedral3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rack_dichotomy"] == "TORSION_NONABELIAN"


def test_analyze_plain_text(capsys):
    code, out, _ = run(capsys, "analyze", "solution/twisted-flip2")
    assert code == EXIT_OK
    assert "quotient_order: 4" in out
    assert "note:" in out


def test_quotient_command(capsys):
    code, out, _ = run(capsys, "quotient", "solution/trivial3-sd")
    assert code == EXIT_OK
    assert "order: 8" in out
    assert "distinct generator images: 3 of 3" in out

    code, out, _ = run(capsys, "quotient", "rack/12pt-gl23")
    assert code == EXIT_OK
    assert "order: 48" in out
    assert "distinct generator images: 12 of 12" in out


@pytest.mark.parametrize("n", [3, 4])
def test_quotient_and_analyze_of_a_non_quandle_rack_divide_by_different_powers(capsys, tmp_path, n):
    # x > y = x + 1 mod n: `quotient` divides by the plain powers x^{D_x} and
    # gets Z/n, while `analyze` reports the finite quotient of the induced
    # biquandle, which is on one point
    doc = {"schema": "ybe-rack/1", "n": n, "op": [[(x + 1) % n] * n for x in range(n)]}
    path = tmp_path / "cyclic.json"
    path.write_text("".join(json_pieces(doc)))
    code, out, _ = run(capsys, "quotient", str(path))
    assert code == EXIT_OK
    assert out.splitlines()[0] == f"order: {n}"
    code, out, _ = run(capsys, "analyze", str(path), "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["quotient_order"] == 2
    assert payload["degrees_d"] == [n] * n


def test_quotient_output_survives_optimized_python(capsys):
    # the closing checks are typed errors, not asserts, so python -O runs them
    # and prints the same
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    optimized = subprocess.run([sys.executable, "-O", "-m", "ybe.cli", "quotient", "rack/12pt-gl23"],
                               env=env, capture_output=True, text=True, check=True)
    code, out, _ = run(capsys, "quotient", "rack/12pt-gl23")
    assert code == EXIT_OK
    assert optimized.stdout == out


def _cli_subprocess(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


def test_optimized_python_prints_the_same_and_exits_the_same(tmp_path):
    # a failed braid relation and a full analysis: the typed errors and the
    # checks that raise them run under -O as well
    doc = {
        "schema": "ybe-solution/1",
        "sigma": [[0, 2, 1], [0, 1, 2], [0, 1, 2]],
        "tau": [[0, 1, 2], [0, 1, 2], [0, 2, 1]],
    }
    path = tmp_path / "ybe-fail.json"
    path.write_text(json.dumps(doc))
    payloads = {}
    for argv, code in [(("check", str(path)), EXIT_INVALID),
                       (("analyze", "--json", "solution/4pt-irretractable"), EXIT_OK)]:
        plain = _cli_subprocess("-m", "ybe.cli", *argv)
        optimized = _cli_subprocess("-O", "-m", "ybe.cli", *argv)
        assert plain.returncode == optimized.returncode == code, plain.stderr
        assert plain.stdout == optimized.stdout
        payloads[argv[0]] = json.loads(plain.stdout)
    assert payloads["check"]["witness"] == [0, 1, 1]
    assert payloads["analyze"]["n"] == 4 and payloads["analyze"]["mp_level"] is None


# runs one command as `python -m ybe.cli` does and prints its exit code and
# the ybe submodules that were executed: a module that `import ybe` put in
# sys.modules lazily is still an importlib.util._LazyModule until first use
_LOADED_BY_COMMAND = """
import contextlib, io, json, runpy, sys, types
sys.argv = ["ybe", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("ybe.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(name for name, module in sys.modules.items()
                               if name.startswith("ybe.") and type(module) is types.ModuleType)]))
"""
_BASE_MODULES = ["core", "errors", "fixtures", "perm"]
_CABLE_MODULES = [*_BASE_MODULES, "derived", "words"]
_QUOTIENT_MODULES = [*_CABLE_MODULES, "fpgroups"]


@pytest.mark.parametrize("argv, modules", [
    (["check", "rack/dihedral3"], _BASE_MODULES),
    (["catalog"], _BASE_MODULES),
    (["cable", "solution/dihedral3-sd", "-m", "2"], _CABLE_MODULES),
    (["enumerate", "--size", "3"], ["census", "core", "derived", "errors", "perm"]),
    (["quotient", "rack/dihedral3"], _QUOTIENT_MODULES),
    (["analyze", "rack/dihedral3"], [*_QUOTIENT_MODULES, "verdicts"]),
], ids=["check", "catalog", "cable", "enumerate", "quotient", "analyze"])
def test_each_command_executes_only_the_modules_it_runs(argv, modules):
    out = _cli_subprocess("-W", "error", "-c", _LOADED_BY_COMMAND, *argv)
    assert out.stderr == ""
    assert json.loads(out.stdout) == [EXIT_OK, sorted(f"ybe.{name}" for name in modules)]


def test_a_broken_invariant_exits_internal(capsys, monkeypatch):
    from ybe import fpgroups
    from ybe.errors import InvariantViolation

    def broken(*args, **kwargs):
        raise InvariantViolation("relator fails on the coset table")

    monkeypatch.setattr(fpgroups, "rack_finite_quotient", broken)
    code, out, err = run(capsys, "quotient", "rack/dihedral3")
    assert code == EXIT_INTERNAL == 4
    assert out == "" and err.startswith("internal error: relator fails")


def test_quotient_table_flag(capsys):
    code, out, _ = run(capsys, "quotient", "solution/twisted-flip2", "--table")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    table = [line for line in lines if line and line[0].isdigit()]
    assert len(table) == 4  # one row per element of the order-4 quotient


def test_quotient_coset_cap(capsys):
    code, _, err = run(capsys, "quotient", "solution/invol3-b", "--coset-cap", "5")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err


def test_quotient_coset_cap_trips_in_the_power_subgroup_search(capsys, monkeypatch):
    # GL(2,3) is certified from the cosets of a powered generator, so its 48
    # elements are numbered by the breadth-first search, which a cap of 47
    # stops; _felsch never runs
    from ybe import fpgroups

    def no_felsch(p, cap):
        raise AssertionError("the power subgroup path should decide this quotient")

    monkeypatch.setattr(fpgroups, "_felsch", no_felsch)
    code, out, err = run(capsys, "quotient", "rack/12pt-gl23", "--coset-cap", "47")
    assert code == EXIT_RESOURCE == 2
    assert out == ""
    assert err == "resource limit: coset enumeration exceeded the cap of 47 cosets (47 defined, 47 live)\n"
    code, out, _ = run(capsys, "quotient", "rack/12pt-gl23", "--coset-cap", "48")
    assert code == EXIT_OK and out.startswith("order: 48\n")


def test_quotient_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("YBE_COSET_CAP", "5")
    code, _, err = run(capsys, "quotient", "solution/invol3-b")
    assert code == EXIT_RESOURCE
    # an explicit flag overrides the environment
    monkeypatch.setenv("YBE_COSET_CAP", "5")
    code, out, _ = run(capsys, "quotient", "solution/invol3-b", "--coset-cap", "100000")
    assert code == EXIT_OK
    assert "order: 216" in out


def test_enumerate_quandles(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--kind", "quandle", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class_count"] == 3
    assert payload["total_labeled"] == 5
    assert all("period_pattern" in row for row in payload["classes"])


def test_enumerate_involutive(capsys):
    code, out, _ = run(capsys, "enumerate", "--size", "3", "--kind", "involutive", "--json")
    payload = json.loads(out)
    assert code == EXIT_OK and payload["class_count"] == 5


def test_enumerate_grouped(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--size", "3", "--group-by-rack", "--json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["class_count"] == 26
    sizes = sorted(b["solution_class_count"] for b in payload["by_structure_rack"])
    assert sizes == [3, 4, 4, 4, 5, 6]


def test_enumerate_too_large(capsys):
    code, _, err = run(capsys, "enumerate", "--size", "4", "--kind", "involutive")
    assert code == EXIT_RESOURCE


def test_cable_command_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "cable", "solution/dihedral3-sd", "-m", "2")
    assert code == EXIT_OK
    doc = parse_document(out)
    path = tmp_path / "cabled.json"
    path.write_text("".join(json_pieces(doc)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["involutive"]


def test_cable_of_a_huge_degree_walks_only_the_cycles_of_t(capsys, tmp_path):
    # an m-letter word per point would need terabytes here
    code, out, _ = run(capsys, "cable", "solution/twisted-flip2", "-m", "1000000000000")
    assert code == EXIT_OK
    path = tmp_path / "cabled.json"
    path.write_text(out)
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_OK and json.loads(out)["valid"]


def test_a_closed_pipe_exits_quietly(tmp_path):
    # as `ybe cable <Z_97 doc> -m 2 | head -c 100`: the reader closes the pipe
    # long before the cabled document is written
    import os
    import subprocess
    import sys
    from pathlib import Path

    p, a = 97, 3
    tau = [[(a * x + (1 - a) * y) % p for x in range(p)] for y in range(p)]
    path = tmp_path / "affine97.json"
    path.write_text(json.dumps({"schema": "ybe-solution/1", "n": p,
                                "sigma": [list(range(p))] * p, "tau": tau}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "ybe.cli", "cable", str(path), "-m", "2"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_analyze_and_quotient_build_one_derived_operation_per_solution(capsys):
    # the document's solution keeps the derived operation its validation
    # built, and the structure rack reads it; a non-biquandle's quotient
    # also builds one for its induced biquandle, and a rack's quotient none
    from ybe.core import Rack, _derived_op, is_biquandle, sd_solutions
    from ybe.fixtures import fixture_object

    for name in fixture_names():
        obj = fixture_object(name)
        sol = sd_solutions(obj)[0] if isinstance(obj, Rack) else obj
        per_solution = 1 if is_biquandle(sol) else 2
        for command, builds in (("analyze", per_solution),
                                ("quotient", 0 if isinstance(obj, Rack) else per_solution)):
            before = _derived_op.cache_info().misses
            assert run(capsys, command, name)[0] == EXIT_OK
            assert _derived_op.cache_info().misses - before == builds, (command, name)


def test_analyze_of_a_rack_decides_biorderability_once(capsys, monkeypatch):
    # analyze and sd_dichotomy read one verdict of the rack's SD solution
    from ybe import verdicts

    calls = []
    real = verdicts._separated

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verdicts, "_separated", counting)
    assert run(capsys, "analyze", "--json", "rack/12pt-gl23")[0] == EXIT_OK
    assert len(calls) == 1


def test_cable_rejects_racks(capsys):
    code, _, err = run(capsys, "cable", "rack/dihedral3", "-m", "2")
    assert code == EXIT_INVALID


@pytest.mark.parametrize("m", ["0", "-2"])
def test_cable_degree_below_one_is_a_usage_error(capsys, m):
    code, out, err = run(capsys, "cable", "solution/dihedral3-sd", "-m", m)
    assert code == EXIT_USAGE
    assert out == "" and "cabling degree" in err


@pytest.mark.parametrize("kind", ["rack", "quandle"])
def test_group_by_rack_on_a_rack_census_is_a_usage_error(capsys, monkeypatch, kind):
    from ybe import census

    def no_census(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(census, "enumerate_racks", no_census)
    code, out, err = run(capsys, "enumerate", "--size", "3", "--kind", kind, "--group-by-rack")
    assert code == EXIT_USAGE
    assert out == "" and "--group-by-rack" in err


def test_catalog_lists_every_fixture(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == EXIT_OK
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == len(fixture_names())
    assert len(lines) >= 18


def test_every_fixture_passes_check(capsys):
    for name in fixture_names():
        code, out, _ = run(capsys, "check", name)
        assert code == EXIT_OK, name
        assert json.loads(out)["valid"], name


def test_usage_errors(capsys):
    assert run(capsys, "enumerate")[0] == EXIT_USAGE  # missing --size
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
    assert run(capsys, "--help")[0] == EXIT_OK


def test_document_roundtrip_is_bit_exact():
    for name in fixture_names():
        doc = fixture_document(name)
        text = "".join(json_pieces(doc))
        assert parse_document(text) == doc
        assert "".join(json_pieces(parse_document(text))) == text


def test_parse_document_rejects_unknown_schema():
    with pytest.raises(ValueError):
        parse_document(json.dumps({"schema": "other/1"}))
    with pytest.raises(ValueError):
        parse_document(json.dumps([1, 2, 3]))


def test_analyze_coset_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "analyze", "solution/invol3-b", "--coset-cap", "5")
    assert code == EXIT_RESOURCE
    assert "resource limit" in err
    monkeypatch.setenv("YBE_COSET_CAP", "5")
    code, _, err = run(capsys, "analyze", "rack/dihedral3")
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize("command", ["analyze", "quotient"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_nonpositive_coset_cap_is_a_usage_error(capsys, monkeypatch, command, cap):
    code, out, err = run(capsys, command, "solution/twisted-flip2", "--coset-cap", cap)
    assert code == EXIT_USAGE
    assert out == "" and "coset cap" in err
    monkeypatch.setenv("YBE_COSET_CAP", cap)
    code, out, err = run(capsys, command, "solution/twisted-flip2")
    assert code == EXIT_USAGE
    assert out == "" and "coset cap" in err


@pytest.mark.parametrize("command", ["analyze", "quotient"])
@pytest.mark.parametrize("cap", ["many", "1.5", "0x10"])
def test_non_integer_env_coset_cap_is_a_usage_error(capsys, monkeypatch, command, cap):
    monkeypatch.setenv("YBE_COSET_CAP", cap)
    code, out, err = run(capsys, command, "solution/twisted-flip2")
    assert code == EXIT_USAGE
    assert out == "" and "YBE_COSET_CAP must be an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "analyze", "quotient"])
def test_unreadable_path_is_invalid_input(capsys, tmp_path, command):
    code, out, err = run(capsys, command, str(tmp_path))
    assert code == EXIT_INVALID
    assert "Traceback" not in err
    if command == "check":
        payload = json.loads(out)
        assert not payload["valid"] and payload["error"] == "InvalidInput"
    else:
        assert "invalid input" in err


def _check_invalid(capsys, tmp_path, doc, command="check"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == EXIT_INVALID
    assert "Traceback" not in err
    if command == "check":
        payload = json.loads(out)
        assert payload["valid"] is False and payload["error"] == "InvalidInput"
    else:
        assert out == "" and "invalid input" in err


def test_string_entries_are_rejected(capsys, tmp_path):
    doc = {"schema": "ybe-rack/1", "n": 2, "op": [["0", "0"], ["1", "1"]]}
    _check_invalid(capsys, tmp_path, doc)


def test_declared_n_must_match_the_tables(capsys, tmp_path):
    doc = {"schema": "ybe-rack/1", "n": 5, "op": [[0, 0], [1, 1]]}
    _check_invalid(capsys, tmp_path, doc)


# each table coerces under int() to the trivial rack on 2 points
@pytest.mark.parametrize("op", [[[0, 0], [True, 1]], [[False, 0], [1, 1]], [[0, 0], [1.9, 1]]])
def test_boolean_and_float_entries_are_rejected(capsys, tmp_path, op):
    _check_invalid(capsys, tmp_path, {"schema": "ybe-rack/1", "n": 2, "op": op})


@pytest.mark.parametrize("command", ["check", "quotient"])
def test_labels_must_name_every_point(capsys, tmp_path, command):
    doc = {"schema": "ybe-solution/1", "n": 2, "sigma": [[0, 1], [0, 1]],
           "tau": [[0, 1], [0, 1]], "labels": ["a"]}
    _check_invalid(capsys, tmp_path, doc, command)


@pytest.mark.parametrize("command", ["check", "analyze"])
@pytest.mark.parametrize("doc", [
    {"schema": "ybe-solution/1", "sigma": [[0]], "tau": None},
    {"schema": "ybe-rack/1", "op": 5},
    {"schema": "ybe-solution/1", "sigma": [[0]]},
], ids=["null-tau", "scalar-op", "missing-tau"])
def test_tables_must_be_lists_of_lists(capsys, tmp_path, doc, command):
    _check_invalid(capsys, tmp_path, doc, command)


@pytest.mark.parametrize("kind", ["rack", "all"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_census_size_below_one_is_a_usage_error(capsys, size, kind):
    code, out, err = run(capsys, "enumerate", "--size", size, "--kind", kind)
    assert code == EXIT_USAGE
    assert out == "" and "census size" in err


@pytest.mark.parametrize(
    "argv, builds_table",
    [
        (("analyze", "rack/12pt-gl23"), False),
        (("analyze", "--json", "solution/dihedral3-b"), False),
        (("quotient", "rack/12pt-gl23"), False),
        (("quotient", "solution/dihedral3-b"), False),
        (("quotient", "--table", "solution/dihedral3-b"), True),
    ],
)
def test_only_quotient_table_builds_the_multiplication_table(capsys, monkeypatch, argv, builds_table):
    from ybe import fpgroups

    groups = []
    real = fpgroups.group_from_actions

    def keeping(*args):
        groups.append(real(*args))
        return groups[-1]

    monkeypatch.setattr(fpgroups, "group_from_actions", keeping)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK and groups
    assert ["mult" in vars(fg) for fg in groups] == [builds_table] * len(groups)
