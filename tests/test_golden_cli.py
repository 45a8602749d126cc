"""Golden CLI outputs: the exit code and the sha256 of stdout of a fixed set of
commands, run in process through ``cli.main``.

The expected values live in ``golden_cli.json`` next to this file.  After an
intended change of output, regenerate them with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ybe import cli
from ybe.fixtures import SOLUTION_SCHEMA, catalog

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def golden_commands() -> list[list[str]]:
    names = sorted(catalog())
    commands = []
    for name in names:
        commands += [
            ["check", name],
            ["analyze", name],
            ["analyze", "--json", name],
            ["quotient", name],
            ["quotient", "--table", name],
        ]
    for name in names:
        if catalog()[name]["schema"] == SOLUTION_SCHEMA:
            commands += [["cable", "-m", str(m), name] for m in (1, 2, 3)]
    for kind, sizes in (("involutive", 3), ("biquandle", 3), ("all", 3),
                        ("rack", 4), ("quandle", 4)):
        for size in range(1, sizes + 1):
            commands.append(["enumerate", "--size", str(size), "--kind", kind, "--json"])
    for kind in ("involutive", "biquandle", "all"):
        commands.append(["enumerate", "--size", "3", "--kind", kind, "--json", "--group-by-rack"])
        commands += [["enumerate", "--size", str(size), "--kind", kind] for size in (1, 2, 3)]
        commands.append(["enumerate", "--size", "3", "--kind", kind, "--group-by-rack"])
    commands.append(["enumerate", "--size", "4", "--kind", "rack"])
    return commands


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def record(argv: list[str]) -> dict:
    code, stdout = run(argv)
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def test_cli_outputs_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    commands = golden_commands()
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands)
    mismatches = []
    for argv in commands:
        key = " ".join(argv)
        code, stdout = run(argv)
        got = {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
        if got != golden[key]:
            mismatches.append(f"$ ybe {key}\nexit {code}, expected {golden[key]}\n{stdout}")
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    data = {" ".join(argv): record(argv) for argv in golden_commands()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} commands to {GOLDEN}")
