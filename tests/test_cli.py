"""CLI behaviour: commands, exit codes, and document round-trips."""

import json

import pytest

from ybe.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
    parse_document,
    render_document,
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
    path.write_text(render_document(doc))
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
    path.write_text(render_document(doc))
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
    path.write_text(render_document(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["involutive"]


def test_cable_rejects_racks(capsys):
    code, _, err = run(capsys, "cable", "rack/dihedral3", "-m", "2")
    assert code == EXIT_INVALID


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
        text = render_document(doc)
        assert parse_document(text) == doc
        assert render_document(parse_document(text)) == text


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
