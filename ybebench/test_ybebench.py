"""Tests of the benchmark itself: inputs, closed forms, checks and tracing.

Run from the repository root with ``python3 -m pytest ybebench -q``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import run  # puts src/ on sys.path
from checks import (
    GL23_FINGERPRINT,
    CheckFailed,
    affine_chain_periods,
    affine_quotient_fingerprint,
    check_cable_of_quandle_sd,
    check_census,
    check_fields,
    check_quotient,
    lyubashenko_report,
)
from inputs import affine_rack, affine_sd, document, lyubashenko
from workloads import CENSUS_SCRIPT, WORKLOADS, Job
from ybe.cli import main as cli_main
from ybe.core import chain_periods, verify_solution
from ybe.fixtures import object_from_document
from ybe.fpgroups import finite_quotient
from ybe.verdicts import analyze

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def generated(workload: str, seed: int) -> tuple[list[Job], list[dict]]:
    docs = []

    def write(doc):
        docs.append(doc)
        return doc["name"]

    return WORKLOADS[workload].jobs(random.Random(seed), write), docs


def cli_output(capsys, *argv) -> str:
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_documents_validate(workload):
    _, docs = generated(workload, seed=7)
    for doc in docs:
        obj = object_from_document(doc)
        assert obj.n == doc["n"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_expected_values_do_not_depend_on_the_seed(workload):
    jobs_a, docs_a = generated(workload, seed=1)
    jobs_b, docs_b = generated(workload, seed=2)
    assert [j.name for j in jobs_a] == [j.name for j in jobs_b]
    for a, b in zip(jobs_a, jobs_b):
        keep = lambda kw: {k: v for k, v in kw.items() if k != "source"}  # noqa: E731
        assert keep(a.check.keywords) == keep(b.check.keywords)
    assert WORKLOADS[workload].largest in [j.name for j in jobs_a]
    if docs_a and any(d["n"] > 4 for d in docs_a):
        assert docs_a != docs_b  # the seed does relabel the tables


@pytest.mark.parametrize("p,a", [(5, 2), (7, 3), (11, 2), (5, -1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_affine_closed_forms_hold_under_relabeling(p, a, seed):
    rng = random.Random(seed)
    sol = object_from_document(document(affine_sd(p, a), "sd", rng))
    fg, iota = finite_quotient(sol)
    assert fg.fingerprint == affine_quotient_fingerprint(p, a)
    assert len(set(iota)) == p
    rack = object_from_document(document(affine_rack(p, a), "rack", rng))
    if (a + 1) % p:
        assert list(chain_periods(rack).period_pattern) == affine_chain_periods(p, a)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_lyubashenko_closed_form_holds_under_relabeling(n):
    sol = object_from_document(document(lyubashenko(n), "l", random.Random(n)))
    report = json.loads(json.dumps(analyze(sol).to_dict(), default=list))
    assert {k: report[k] for k in lyubashenko_report(n)} == lyubashenko_report(n)


def test_quotient_check_rejects_corrupted_output(capsys):
    out = cli_output(capsys, "quotient", "rack/12pt-gl23")
    check = partial(check_quotient, n=12, fingerprint=GL23_FINGERPRINT)
    assert check(out) == "order=48"
    for bad in (out.replace("order: 48", "order: 47"),
                out.replace("12 of 12", "11 of 12"),
                out.replace(", 12))", ", 13))"),
                "\n".join(line for line in out.splitlines() if not line.startswith("fingerprint"))):
        with pytest.raises(CheckFailed):
            check(bad)


def test_table_check_rejects_a_wrong_entry(capsys, tmp_path):
    path = tmp_path / "sd.json"
    path.write_text(json.dumps(document(affine_sd(5, 2), "sd", random.Random(0))))
    out = cli_output(capsys, "quotient", "--table", str(path))
    check = partial(check_quotient, n=5, fingerprint=affine_quotient_fingerprint(5, 2), table=True)
    assert check(out) == "order=20 table=20x20"
    lines = out.splitlines()
    row = lines[-1].split()
    row[1], row[2] = row[2], row[2]
    with pytest.raises(CheckFailed):
        check("\n".join(lines[:-1] + [" ".join(row)]))


def test_field_and_census_checks_reject_corrupted_output(capsys):
    out = cli_output(capsys, "enumerate", "--size", "3", "--kind", "involutive", "--json")
    check = partial(check_census, kind="involutive", size=3, classes=5, labeled=12)
    assert check(out) == "classes=5 labeled=12"
    payload = json.loads(out)
    payload["classes"][0]["labeled_count"] += 1
    with pytest.raises(CheckFailed):
        check(json.dumps(payload))
    with pytest.raises(CheckFailed):
        check(out.replace('"total_labeled": 12', '"total_labeled": 13'))
    with pytest.raises(CheckFailed):
        check_fields('{"n": 4}', {"n": 4, "k_r": 1})
    with pytest.raises(CheckFailed):
        check_fields("not json", {"n": 4})


def test_cable_check_rejects_a_wrong_table(capsys, tmp_path):
    source = document(affine_sd(7, 3), "sd", random.Random(3))
    path = tmp_path / "sd.json"
    path.write_text(json.dumps(source))
    out = cli_output(capsys, "cable", "-m", "2", str(path))
    check = partial(check_cable_of_quandle_sd, source=source, m=2, reverify=verify_solution)
    assert check(out).startswith("n=7")
    doc = json.loads(out)
    doc["tau"][0][0], doc["tau"][0][1] = doc["tau"][0][1], doc["tau"][0][0]
    with pytest.raises(CheckFailed):
        check(json.dumps(doc))


@pytest.fixture
def runner(tmp_path):
    launcher = run.Launcher(run.child_env())
    try:
        yield run.Runner(tmp_path, launcher)
    finally:
        launcher.close()


def test_a_wrong_expected_value_counts_as_failed(runner):
    argv = ("-m", "ybe.cli", "quotient", "rack/12pt-gl23")
    right = Job("gl23", argv, partial(check_quotient, n=12, fingerprint=GL23_FINGERPRINT))
    wrong = Job("gl23-wrong", argv,
                partial(check_quotient, n=12, fingerprint=(49,) + GL23_FINGERPRINT[1:]))
    runs = {job.name: [runner.run(job)] for job in (right, wrong)}
    assert run.tally(runs) == (2, 1)
    assert runs["gl23"][0]["rss"] > 1 and runs["gl23"][0]["exit"] == 0


@pytest.mark.parametrize("job", [
    ("-m", "ybe.cli", "quotient", "rack/12pt-gl23"),
    ("-m", "ybe.cli", "analyze", "--json", "solution/4pt-irretractable"),
    ("-m", "ybe.cli", "check", "solution/dihedral3-sd"),
    ("-m", "ybe.cli", "enumerate", "--size", "3", "--kind", "involutive", "--json"),
    (CENSUS_SCRIPT, "quandle"),
], ids=["quotient", "analyze", "check", "enumerate", "census5"])
def test_traced_run_agrees_with_the_cli(tmp_path, job):
    env = run.child_env()
    plain = subprocess.run([sys.executable, *job], cwd=ROOT, env=env, capture_output=True,
                           text=True, check=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(BENCH / "traced.py"), str(spans_path), *job],
                            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    assert traced.stdout == plain.stdout
    trace = json.loads(spans_path.read_text())
    counts = trace["counts"]
    layers = {span[0] for span in trace["spans"]}
    assert 0 < run.layer_metrics(trace, wall=10.0)["cli.self_s"] < 10.0
    command = job[2] if job[0] == "-m" else "census5"
    if command == "quotient":
        assert {"core.verify", "fpgroups.coset_enum", "fpgroups.group_build",
                "fpgroups.fingerprint"} <= layers
        assert counts["fpgroups.quotient_order"] == 48
        assert counts["fpgroups.table_entries"] == 48 ** 2
    elif command == "analyze":
        assert {"verdicts.biorderability", "verdicts.involutive", "fpgroups.snf",
                "words.degrees"} <= layers
        assert counts["cache.hits"] > 0
    elif command == "check":
        assert {"core.verify", "core.classify"} <= layers
        assert counts["core.triples_checked"] == 27
    else:
        assert {"census.enumerate", "derived.canonical_form"} <= layers
        assert counts["census.labeled"] == counts["derived.canonical_form_calls"]


def test_layer_time_is_the_union_of_its_spans():
    spans = [
        ["fpgroups.finite_quotient", 0.0, 5.0, None],
        ["fpgroups.finite_quotient", 1.0, 4.0, 0],
        ["fpgroups.coset_enum", 2.0, 3.0, 1],
        ["core.verify", 6.0, 7.0, None],
    ]
    metrics = run.layer_metrics({"spans": spans, "counts": {}}, wall=8.0)
    assert metrics["fpgroups.finite_quotient_s"] == 5.0
    assert metrics["fpgroups.coset_enum_s"] == 1.0
    assert metrics["cli.self_s"] == 2.0
