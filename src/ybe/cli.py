"""Command-line interface: document I/O, analysis, quotients, censuses."""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from itertools import chain
from pathlib import Path

from .census import enumerate_racks, enumerate_solutions, group_by_structure_rack
from .core import Rack, Solution, chain_periods, classify, sd_solutions
from .derived import cable
from .errors import (
    CosetLimitExceeded,
    InvalidInput,
    InvariantViolation,
    SizeTooLarge,
    UnknownName,
    YBEError,
)
from .fixtures import (
    RACK_SCHEMA,
    SOLUTION_SCHEMA,
    catalog,
    fixture_document,
    object_from_document,
)
from .fpgroups import DEFAULT_COSET_CAP, finite_quotient, rack_finite_quotient
from .verdicts import analyze, sd_dichotomy

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process killed by SIGPIPE


class _UsageError(Exception):
    """An option value that parses but is out of range (exit EXIT_USAGE)."""


def json_pieces(value, level: int = 0) -> Iterator[str]:
    """The pieces of json.dumps(value, sort_keys=True, indent=2) for JSON
    values whose dict keys are strings, with tuples written as lists.

    A list whose items are all of type int is one str.join, so the tables of
    a document skip json's pure-Python indenting encoder; every key and
    other scalar still goes through json.dumps.  The pieces are yielded as
    they are made, so a writer holds one table row at a time, not the text.
    """
    if isinstance(value, (list, tuple)):
        brackets = "[]"
    elif isinstance(value, dict):
        brackets = "{}"
    else:
        yield json.dumps(value)
        return
    if not value:
        yield brackets
        return
    pad = "\n" + "  " * (level + 1)
    sep = brackets[0] + pad
    if isinstance(value, dict):
        for key in sorted(value):
            yield sep + json.dumps(key) + ": "
            yield from json_pieces(value[key], level + 1)
            sep = "," + pad
    elif set(map(type, value)) == {int}:
        yield sep + ("," + pad).join(map(str, value))
    else:
        for item in value:
            yield sep
            yield from json_pieces(item, level + 1)
            sep = "," + pad
    yield pad[:-2] + brackets[1]


def _print_json(value) -> None:
    """json_pieces(value) and a newline, written to stdout piece by piece."""
    sys.stdout.writelines(chain(json_pieces(value), "\n"))


def parse_document(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") not in (SOLUTION_SCHEMA, RACK_SCHEMA):
        raise ValueError("document must carry a known schema tag")
    return doc


def _load_document(path: str) -> dict:
    p = Path(path)
    if p.exists():
        try:
            text = p.read_text()
        except OSError as exc:
            raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from exc
        return parse_document(text)
    if path in catalog():
        return fixture_document(path)
    raise UnknownName(path)


def _coset_cap(args) -> int:
    """--coset-cap, else YBE_COSET_CAP, else the default; must be positive."""
    cap = args.coset_cap
    if cap is None:
        env = os.environ.get("YBE_COSET_CAP")
        if not env:
            return DEFAULT_COSET_CAP
        try:
            cap = int(env)
        except ValueError:
            raise _UsageError(f"YBE_COSET_CAP must be an integer, got {env!r}") from None
    if cap <= 0:
        raise _UsageError(f"the coset cap must be a positive integer, got {cap}")
    return cap


def cmd_check(args) -> int:
    try:
        doc = _load_document(args.path)
        obj = object_from_document(doc)
    except (InvalidInput, ValueError, UnknownName, json.JSONDecodeError) as exc:
        payload = {"valid": False, "error": type(exc).__name__, "detail": str(exc)}
        witness = getattr(exc, "triple", None)
        if witness is not None:
            payload["witness"] = list(witness)
        print(json.dumps(payload, sort_keys=True))
        return EXIT_INVALID
    if isinstance(obj, Rack):
        report = chain_periods(obj)
        payload = {
            "valid": True,
            "kind": "rack",
            "n": obj.n,
            "quandle": obj.is_quandle,
            "period_pattern": list(report.period_pattern),
            "orbit_count": report.orbit_count,
        }
    else:
        flags = classify(obj)
        payload = {
            "valid": True,
            "kind": "solution",
            "n": obj.n,
            "involutive": flags.involutive,
            "biquandle": flags.biquandle,
            "self_distributive_right": flags.self_distributive_right,
            "self_distributive_left": flags.self_distributive_left,
            "decomposable": flags.decomposable,
        }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def cmd_analyze(args) -> int:
    cap = _coset_cap(args)
    doc = _load_document(args.path)
    obj = object_from_document(doc)
    report = analyze(obj if isinstance(obj, Solution) else sd_solutions(obj)[0], cap)
    payload = report.to_dict()
    if isinstance(obj, Rack):
        verdict = sd_dichotomy(obj, cap)
        payload["rack_dichotomy"] = verdict.verdict
    if args.json:
        _print_json(payload)
    else:
        for key in sorted(payload):
            value = payload[key]
            if key == "notes":
                for note in value:
                    print(f"note: {note}")
            else:
                print(f"{key}: {value}")
    return EXIT_OK


def cmd_quotient(args) -> int:
    cap = _coset_cap(args)
    doc = _load_document(args.path)
    obj = object_from_document(doc)
    if isinstance(obj, Rack):
        fg = rack_finite_quotient(obj, coset_cap=cap)
        iota = fg.gen_images
    else:
        fg, iota = finite_quotient(obj, coset_cap=cap)
    labels = doc.get("labels") or [str(i) for i in range(obj.n)]
    print(f"order: {fg.order}")
    print(f"generator images: {list(iota)}")
    print(f"distinct generator images: {len(set(iota))} of {obj.n}")
    print(f"fingerprint: {fg.fingerprint}")
    print(f"labels: {labels}")
    if args.table:
        for row in fg.mult:
            print(" ".join(str(v) for v in row))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.size < 1:
        raise _UsageError(f"the census size must be a positive integer, got {args.size}")
    kind = args.kind
    if args.group_by_rack and kind in ("rack", "quandle"):
        raise _UsageError("--group-by-rack applies to solution censuses")
    if kind in ("rack", "quandle"):
        census = enumerate_racks(args.size, quandles_only=(kind == "quandle"))
    elif kind in ("involutive", "biquandle"):
        census = enumerate_solutions(args.size, restrict=kind)
    else:
        census = enumerate_solutions(args.size, restrict=None)
    rows = []
    for i, (rep, size) in enumerate(
        zip(census.representatives, census.iso_class_sizes)
    ):
        row = {"index": i, "labeled_count": size}
        if isinstance(rep, Rack):
            row["op"] = rep.op
            row["period_pattern"] = list(chain_periods(rep).period_pattern)
        else:
            row["sigma"] = rep.sigma
            row["tau"] = rep.tau
        rows.append(row)
    payload = {
        "size": census.n,
        "kind": census.kind,
        "class_count": len(rows),
        "total_labeled": census.total_labeled,
        "classes": rows,
    }
    if args.group_by_rack:
        groups = group_by_structure_rack(census)
        payload["by_structure_rack"] = [
            {
                "rack_canonical": list(canon),
                "solution_class_count": len(sols),
            }
            for canon, sols in groups.items()
        ]
    if args.json:
        _print_json(payload)
    else:
        print(f"{payload['kind']} census, size {payload['size']}: "
              f"{payload['class_count']} classes, {payload['total_labeled']} labeled")
        for row in rows:
            extra = f" periods {row['period_pattern']}" if "period_pattern" in row else ""
            print(f"  class {row['index']}: {row['labeled_count']} labeled{extra}")
        if "by_structure_rack" in payload:
            for block in payload["by_structure_rack"]:
                print(f"  rack block -> {block['solution_class_count']} solution classes")
    return EXIT_OK


def cmd_cable(args) -> int:
    if args.m < 1:
        raise _UsageError(f"the cabling degree must be a positive integer, got {args.m}")
    doc = _load_document(args.path)
    obj = object_from_document(doc)
    if isinstance(obj, Rack):
        raise ValueError("cabling applies to solution documents")
    result = cable(obj, args.m)
    out = {
        "schema": SOLUTION_SCHEMA,
        "n": result.n,
        "sigma": result.sigma,
        "tau": result.tau,
        "name": f"{doc.get('name', 'solution')}-cable{args.m}",
        "labels": doc.get("labels") or [str(i) for i in range(result.n)],
    }
    _print_json(out)
    return EXIT_OK


def cmd_catalog(args) -> int:
    names = sorted(catalog())
    if args.json:
        payload = [
            {"name": name, "schema": catalog()[name]["schema"], "n": catalog()[name]["n"]}
            for name in names
        ]
        _print_json(payload)
    else:
        for name in names:
            doc = catalog()[name]
            kind = "solution" if doc["schema"] == SOLUTION_SCHEMA else "rack"
            print(f"{name}\t{kind}\tn={doc['n']}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybe",
        description="Analyze finite set-theoretic Yang-Baxter solutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a document and print its class flags")
    p.add_argument("path", help="document path or fixture name")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="full analysis report")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.add_argument("--coset-cap", type=int, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", help="finite quotient of the structure group")
    p.add_argument("path")
    p.add_argument("--table", action="store_true", help="print the multiplication table")
    p.add_argument("--coset-cap", type=int, default=None)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("enumerate", help="census of small racks or solutions")
    p.add_argument("--size", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=["rack", "quandle", "involutive", "biquandle", "all"],
        default="all",
    )
    p.add_argument("--group-by-rack", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("cable", help="emit the m-cabled solution document")
    p.add_argument("path")
    p.add_argument("-m", type=int, required=True)
    p.set_defaults(func=cmd_cable)

    p = sub.add_parser("catalog", help="list built-in fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and point stdout at
        # devnull so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CosetLimitExceeded, SizeTooLarge) as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InvalidInput, UnknownName, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except YBEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
