"""Per-job output checks built on closed forms and published values.

Each check takes a job's stdout and returns a short string naming the
invariant it confirmed; any wrong or missing value raises ``CheckFailed``.
The expected values are chosen to be invariant under relabeling, so they do
not depend on the benchmark seed.
"""

from __future__ import annotations

import ast
import json
from math import gcd


class CheckFailed(Exception):
    pass


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: expected {want!r}, got {got!r}")


def multiplicative_order(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


# ---------------------------------------------------------------------------
# closed forms


def affine_quotient_fingerprint(p: int, a: int) -> tuple:
    """Fingerprint of Z_p x| C_k, k = ord_p(a), acting by multiplication by a.

    This is the finite quotient of the structure group of the affine quandle
    x > y = a*x + (1-a)*y over Z_p (p prime, a != 0, 1): the translations
    form the derived subgroup Z_p, the centre is trivial, Z_p \\ {0} splits
    into (p-1)/k classes of size k, and each non-trivial coset of Z_p is one
    class of p elements of order ord(a^j).
    """
    k = multiplicative_order(a, p)
    orders = [1] + [p] * (p - 1) + [k // gcd(j, k) for j in range(1, k) for _ in range(p)]
    classes = [1] + [k] * ((p - 1) // k) + [p] * (k - 1)
    return (p * k, (k,), tuple(sorted(orders)), 1, p, tuple(sorted(classes)))


# GL(2,3): order 48, abelianization C_2, centre {+-1}, derived subgroup
# SL(2,3), element orders 1:1, 2:13, 3:8, 4:6, 6:8, 8:12, and eight classes.
GL23_FINGERPRINT = (
    48,
    (2,),
    tuple([1] + [2] * 13 + [3] * 8 + [4] * 6 + [6] * 8 + [8] * 12),
    2,
    24,
    (1, 1, 6, 6, 6, 8, 8, 12),
)


def lyubashenko_report(n: int) -> dict:
    """``analyze`` fields of r(x, y) = (y+1, x+1) mod n for even n >= 4.

    One orbit (k_r = 1); the structure rack is x > y = x + 2, so K_r = 2
    (parity classes) and D_y = n/2; the finite quotient is C_4 and every
    generator of one parity has the same image.
    """
    return {
        "n": n,
        "involutive": False,
        "biquandle": False,
        "self_distributive_right": False,
        "self_distributive_left": False,
        "decomposable": False,
        "k_r": 1,
        "K_r": 2,
        "degrees_d": [n] * n,
        "degrees_D": [n // 2] * n,
        "ab_free_rank": 1,
        "ab_torsion": [2],
        "quotient_order": 4,
        "quotient_fingerprint": [4, [4], [1, 2, 4, 4], 4, 1, [1, 1, 1, 1]],
        "injective": False,
        "iis_size": 2,
        "mp_level": 1,
        "bi_orderable": "no",
        "left_orderable": "unknown",
        "diffuse": "unknown",
    }


def gl23_rack_report() -> dict:
    """``analyze`` fields of the 12-point rack whose quotient is GL(2,3)."""
    return {
        "n": 12, "involutive": False, "biquandle": True,
        "self_distributive_right": True, "self_distributive_left": False,
        "decomposable": False, "k_r": 1, "K_r": 1,
        "degrees_d": [2] * 12, "degrees_D": [2] * 12,
        "ab_free_rank": 1, "ab_torsion": [],
        "quotient_order": 48,
        "quotient_fingerprint": json.loads(json.dumps(GL23_FINGERPRINT)),  # tuples as lists
        "injective": True, "iis_size": 12, "mp_level": None,
        "bi_orderable": "no", "left_orderable": "no", "diffuse": "no",
        "rack_dichotomy": "TORSION_NONABELIAN",
    }


def irretractable4_report() -> dict:
    """``analyze`` fields of the 4-point involutive irretractable solution."""
    return {
        "n": 4, "involutive": True, "biquandle": True,
        "self_distributive_right": False, "self_distributive_left": False,
        "decomposable": False, "k_r": 1, "K_r": 4,
        "degrees_d": [2] * 4, "degrees_D": [2] * 4,
        "ab_free_rank": 1, "ab_torsion": [2],
        "quotient_order": 16,
        "quotient_fingerprint": [16, [2, 2], [1, 2, 2, 2, 2, 2, 4, 4, 4, 4, 4, 4, 8, 8, 8, 8],
                                 2, 4, [1, 1, 2, 2, 2, 4, 4]],
        "injective": True, "iis_size": 4, "mp_level": None,
        "bi_orderable": "no", "left_orderable": "no", "diffuse": "no",
    }


def affine_chain_periods(p: int, a: int) -> list[int]:
    """Chain periods of the affine quandle: (x, y) -> (y, a*x + (1-a)*y) is
    linear with eigenvalues 1 and -a, so the p diagonal pairs are fixed and
    every other pair has period ord_p(-a) (for a != -1)."""
    k = multiplicative_order(-a, p)
    return [1] * p + [k] * ((p * p - p) // k)


# ---------------------------------------------------------------------------
# checks on stdout


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def check_quotient(stdout: str, n: int, fingerprint: tuple, table: bool = False) -> str:
    """``ybe quotient``: order, injective generator map and fingerprint;
    with ``--table``, an N x N Latin square with identity 0."""
    fields = _fields(stdout)
    for key in ("order", "distinct generator images", "fingerprint"):
        if key not in fields:
            raise CheckFailed(f"missing line {key!r}")
    order = fingerprint[0]
    _expect("order", int(fields["order"]), order)
    _expect("distinct generator images", fields["distinct generator images"], f"{n} of {n}")
    _expect("fingerprint", ast.literal_eval(fields["fingerprint"]), fingerprint)
    if table:
        lines = stdout.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("labels: ")) + 1
        rows = [tuple(map(int, line.split())) for line in lines[start:]]
        everything = tuple(range(order))
        _expect("table rows", len(rows), order)
        _expect("identity row", rows[0], everything)
        for a, row in enumerate(rows):
            if tuple(sorted(row)) != everything or row[0] != a:
                raise CheckFailed(f"table row {a} is not a permutation starting with {a}")
        for b in range(order):
            if len({row[b] for row in rows}) != order:
                raise CheckFailed(f"table column {b} is not a permutation")
        return f"order={order} table={order}x{order}"
    return f"order={order}"


def check_fields(stdout: str, expected: dict) -> str:
    """A JSON payload (``analyze --json``, ``check``, census) whose listed
    fields equal the expected ones."""
    payload = _json(stdout)
    for key, want in expected.items():
        if key not in payload:
            raise CheckFailed(f"missing field {key!r}")
        _expect(key, payload[key], want)
    shown = [k for k in ("quotient_order", "class_count", "total_labeled", "n") if k in expected]
    return " ".join(f"{k}={expected[k]}" for k in shown)


def check_census(stdout: str, kind: str, size: int, classes: int, labeled: int,
                 blocks: list[int] | None = None) -> str:
    """A census payload; ``blocks`` are the solution-class counts per
    structure rack, in the order ``--group-by-rack`` prints them."""
    check_fields(stdout, {"kind": kind, "size": size, "class_count": classes,
                          "total_labeled": labeled})
    payload = _json(stdout)
    _expect("class sizes sum", sum(r["labeled_count"] for r in payload["classes"]), labeled)
    if blocks is not None:
        got = [b["solution_class_count"] for b in payload["by_structure_rack"]]
        _expect("structure-rack blocks", got, blocks)
    return f"classes={classes} labeled={labeled}"


def power_rows(rows: list[list[int]], m: int) -> list[list[int]]:
    out = []
    for row in rows:
        cur = list(range(len(row)))
        for _ in range(m):
            cur = [row[v] for v in cur]
        out.append(cur)
    return out


def check_cable_of_quandle_sd(stdout: str, source: dict, m: int, reverify) -> str:
    """``ybe cable -m`` on a solution with T = id (the SD solution of a
    quandle): twisted powers are plain powers, so the cabled tables are the
    row-wise m-th powers of the source tables.  ``reverify`` re-runs the
    program's own validation on the emitted tables."""
    doc = _json(stdout)
    n = source["n"]
    _expect("schema", doc.get("schema"), source["schema"])
    _expect("n", doc.get("n"), n)
    _expect("sigma", doc.get("sigma"), power_rows(source["sigma"], m))
    _expect("tau", doc.get("tau"), power_rows(source["tau"], m))
    reverify(doc["sigma"], doc["tau"])
    return f"n={n} cable{m}=rowwise-power verified"
