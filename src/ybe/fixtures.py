"""Built-in catalog of worked examples.

Every fixture is stored as a document dict (the same JSON shape the CLI
reads and writes); labels follow the source naming while all computation
is 0-based.
"""

from __future__ import annotations

from functools import lru_cache

from . import perm
from .core import Rack, Solution, verify_rack, verify_solution
from .errors import InvalidInput, UnknownName

SOLUTION_SCHEMA = "ybe-solution/1"
RACK_SCHEMA = "ybe-rack/1"


def _rack_doc(name: str, labels: list[str], op) -> dict:
    n = len(labels)
    return {
        "schema": RACK_SCHEMA,
        "n": n,
        "op": [[op(x, y) for y in range(n)] for x in range(n)],
        "name": name,
        "labels": labels,
    }


def _solution_doc(name: str, labels: list[str], sigma, tau) -> dict:
    n = len(labels)
    return {
        "schema": SOLUTION_SCHEMA,
        "n": n,
        "sigma": [[sigma(x, y) for y in range(n)] for x in range(n)],
        "tau": [[tau(y, x) for x in range(n)] for y in range(n)],
        "name": name,
        "labels": labels,
    }


def _rack_doc_from_columns(name: str, labels: list[str], columns: list[perm.Perm]) -> dict:
    return _rack_doc(name, labels, lambda x, y: columns[y][x])


_SWAP12 = (0, 2, 1)  # the permutation (12) on {0,1,2}
_DIGITS3 = ["0", "1", "2"]


def _neg3(x: int) -> int:
    return (-x) % 3


@lru_cache(maxsize=None)
def catalog() -> dict[str, dict]:
    docs: list[dict] = []

    # the three quandles on three points and their right SD solutions
    trivial3 = _rack_doc("rack/trivial3", _DIGITS3, lambda x, y: x)
    two_orbit = _rack_doc_from_columns(
        "rack/two-orbit3", _DIGITS3, [_SWAP12, (0, 1, 2), (0, 1, 2)]
    )
    dihedral3 = _rack_doc("rack/dihedral3", _DIGITS3, lambda x, y: (2 * y - x) % 3)
    docs += [trivial3, two_orbit, dihedral3]
    for doc in (trivial3, two_orbit, dihedral3):
        docs.append(_sd_doc(doc))

    # involutive solutions on three points (structure rack T)
    docs.append(_solution_doc("solution/invol3-a", _DIGITS3, lambda x, y: y, lambda y, x: x))
    docs.append(
        _solution_doc(
            "solution/invol3-b", _DIGITS3, lambda x, y: (y + 1) % 3, lambda y, x: (x - 1) % 3
        )
    )
    docs.append(
        _solution_doc("solution/invol3-c", _DIGITS3, lambda x, y: _neg3(y), lambda y, x: _neg3(x))
    )
    sig_d = [(0, 1, 2), _SWAP12, _SWAP12]
    docs.append(
        _solution_doc(
            "solution/invol3-d", _DIGITS3, lambda x, y: sig_d[x][y], lambda y, x: sig_d[y][x]
        )
    )
    sig_e = [_SWAP12, (0, 1, 2), (0, 1, 2)]
    docs.append(
        _solution_doc(
            "solution/invol3-e", _DIGITS3, lambda x, y: sig_e[x][y], lambda y, x: sig_e[y][x]
        )
    )

    # solutions with structure rack S and D
    docs.append(
        _solution_doc(
            "solution/two-orbit3-b", _DIGITS3, lambda x, y: sig_d[x][y], lambda y, x: _neg3(x)
        )
    )
    docs.append(
        _solution_doc(
            "solution/dihedral3-b",
            _DIGITS3,
            lambda x, y: (y + 1) % 3,
            lambda y, x: (1 - x - y) % 3,
        )
    )
    docs.append(
        _solution_doc(
            "solution/dihedral3-c", _DIGITS3, lambda x, y: _neg3(y), lambda y, x: (x - y) % 3
        )
    )

    # two-point and three-point twisted flips r(x,y) = (psi(y), psi(x))
    docs.append(
        _solution_doc("solution/twisted-flip2", ["a", "b"], lambda x, y: 1 - y, lambda y, x: 1 - x)
    )
    psi = (1, 0, 2)  # swaps a and b, fixes c
    docs.append(
        _solution_doc(
            "solution/twisted-flip3", ["a", "b", "c"], lambda x, y: psi[y], lambda y, x: psi[x]
        )
    )

    # the eight-point quandle with a non-injective generator pair
    cols8 = (
        [perm.from_cycles(8, [(2, 6, 5), (3, 7, 4)])] * 2
        + [perm.from_cycles(8, [(0, 5, 7), (1, 4, 6)])] * 2
        + [perm.from_cycles(8, [(0, 6, 3), (1, 7, 2)])] * 2
        + [perm.from_cycles(8, [(0, 2, 4), (1, 3, 5)])] * 2
    )
    docs.append(
        _rack_doc_from_columns(
            "rack/8pt-noninjective", [str(i) for i in range(1, 9)], cols8
        )
    )

    # the twelve-point quandle whose quotient is GL(2,3)
    cols12 = (
        [perm.from_cycles(12, [(2, 3), (4, 8), (5, 9), (6, 11), (7, 10)])] * 2
        + [perm.from_cycles(12, [(0, 1), (4, 10), (5, 11), (6, 9), (7, 8)])] * 2
        + [perm.from_cycles(12, [(0, 8), (1, 9), (2, 11), (3, 10), (6, 7)])] * 2
        + [perm.from_cycles(12, [(0, 11), (1, 10), (2, 8), (3, 9), (4, 5)])] * 2
        + [perm.from_cycles(12, [(0, 4), (1, 5), (2, 7), (3, 6), (10, 11)])] * 2
        + [perm.from_cycles(12, [(0, 6), (1, 7), (2, 5), (3, 4), (8, 9)])] * 2
    )
    labels12 = [str(i) for i in range(1, 10)] + ["a", "b", "c"]
    docs.append(_rack_doc_from_columns("rack/12pt-gl23", labels12, cols12))

    # the four-point quandle with 2-torsion in its structure group, and the
    # three-point quandle with free abelian structure group it maps onto
    cols4 = [perm.from_cycles(4, [(2, 3)])] * 2 + [perm.from_cycles(4, [(0, 1)])] * 2
    docs.append(_rack_doc_from_columns("rack/4pt-torsion", ["a", "b", "c", "d"], cols4))
    docs.append(
        _rack_doc_from_columns(
            "rack/3pt-free-image", ["a", "bc", "d"], [_SWAP12, (0, 1, 2), (0, 1, 2)]
        )
    )

    # the four-point irretractable involutive solution
    sig4 = [
        perm.from_cycles(4, [(1, 2)]),
        perm.from_cycles(4, [(0, 3)]),
        perm.from_cycles(4, [(0, 1, 3, 2)]),
        perm.from_cycles(4, [(0, 2, 3, 1)]),
    ]
    sig4_inv = [perm.inverse(p) for p in sig4]
    docs.append(
        _solution_doc(
            "solution/4pt-irretractable",
            ["1", "2", "3", "4"],
            lambda x, y: sig4[x][y],
            lambda y, x: sig4_inv[sig4[x][y]][x],
        )
    )

    return {doc["name"]: doc for doc in docs}


def _sd_doc(rack_doc: dict) -> dict:
    """The right SD solution document of a rack document."""
    n = rack_doc["n"]
    op = rack_doc["op"]
    return {
        "schema": SOLUTION_SCHEMA,
        "n": n,
        "sigma": [[y for y in range(n)] for _ in range(n)],
        "tau": [[op[x][y] for x in range(n)] for y in range(n)],
        "name": rack_doc["name"].replace("rack/", "solution/", 1) + "-sd",
        "labels": rack_doc["labels"],
    }


def fixture_names() -> list[str]:
    return sorted(catalog())


def fixture_document(name: str) -> dict:
    try:
        return catalog()[name]
    except KeyError:
        raise UnknownName(name) from None


def object_from_document(doc: dict) -> Solution | Rack:
    """The validated object of a document; its tables must be present, and a
    declared n and the labels, when present, must match their size."""
    schema = doc.get("schema")
    if schema == SOLUTION_SCHEMA:
        obj = verify_solution(doc.get("sigma"), doc.get("tau"))
    elif schema == RACK_SCHEMA:
        obj = verify_rack(doc.get("op"))
    else:
        raise ValueError(f"unknown document schema {schema!r}")
    n = doc.get("n", obj.n)
    if type(n) is not int or n != obj.n:
        raise InvalidInput(f"declared n = {n!r} does not match the {obj.n} x {obj.n} tables")
    labels = doc.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != obj.n):
        raise InvalidInput(f"labels must be a list of {obj.n} names, got {labels!r}")
    return obj


def fixture_object(name: str) -> Solution | Rack:
    return object_from_document(fixture_document(name))


def fixture_solution(name: str) -> Solution:
    obj = fixture_object(name)
    if not isinstance(obj, Solution):
        raise TypeError(f"{name} is not a solution fixture")
    return obj


def fixture_rack(name: str) -> Rack:
    obj = fixture_object(name)
    if not isinstance(obj, Rack):
        raise TypeError(f"{name} is not a rack fixture")
    return obj
