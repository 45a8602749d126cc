"""cli.json_pieces, joined, against json.dumps(sort_keys=True, indent=2),
which it replaces on the CLI's output path."""

import json

import pytest

from ybe.cli import json_pieces, main
from ybe.fixtures import fixture_document, fixture_names


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


def test_every_fixture_document():
    for name in fixture_names():
        doc = fixture_document(name)
        assert "".join(json_pieces(doc)) == reference(doc)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_fixture_cable(capsys, m):
    for name in fixture_names():
        if not name.startswith("solution/"):
            continue
        assert main(["cable", name, "-m", str(m)]) == 0
        out = capsys.readouterr().out
        assert out == reference(json.loads(out)) + "\n"


@pytest.mark.parametrize("value", [
    {},
    [],
    {"a": {}, "b": [], "c": [[]], "d": [{}]},
    [0],
    [[0]],
    {"n": 0},
    [-1, 0, 10**30, -(10**30)],
    [True, False, None],
    [1, True],
    [1, 2.5, 3],
    [1, "2"],
    [[1, 2], [3, "x"], [], [[4]]],
    [[1, [2, [3, []]]]],
    {"zeta": 1, "alpha": [1, 2], "Mid": {"b": None, "a": "x"}},
    {"quote\"": "back\\slash", "tab\t": "new\nline", "é": "☃ \x00 ÿ"},
    ["\ud800", "</script>", ""],
    [0.1, 1e300, -0.0, 1.0],
    {"t": (1, 2), "u": ((1, 2), (3,)), "v": ((), ("a", 1))},
    {"deep": [[[[[[1]]]]]], "mixed": [{"k": [1, {"j": []}]}, [2, 3]]},
])
def test_values_match_json_dumps(value):
    assert "".join(json_pieces(value)) == reference(value)


def test_analyze_and_enumerate_and_catalog_json_match(capsys):
    for argv in (["analyze", "rack/12pt-gl23", "--json"],
                 ["analyze", "solution/invol3-b", "--json"],
                 ["enumerate", "--size", "3", "--kind", "all", "--json", "--group-by-rack"],
                 ["enumerate", "--size", "3", "--kind", "rack", "--json"],
                 ["catalog", "--json"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == reference(json.loads(out)) + "\n"
