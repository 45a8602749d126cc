"""The benchmark's workloads: job lists with their expected outputs.

A job is one run of the interpreter: ``-m ybe.cli ...`` as a user types it,
or the census script one size past the CLI's bound.  Generated documents are
relabeled from the seed and written with ``write(doc) -> path``; fixture
names are passed as they are.  Two workloads stress disjoint layers:
``groups`` (quotient and analyze jobs) runs the group theory, ``tables``
(check, cable and census jobs) never does.  Why each was chosen is recorded
in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

from checks import (
    GL23_FINGERPRINT,
    affine_chain_periods,
    affine_quotient_fingerprint,
    check_cable_of_quandle_sd,
    check_census,
    check_fields,
    check_quotient,
    gl23_rack_report,
    irretractable4_report,
    lyubashenko_report,
)
from inputs import affine_rack, affine_sd, document, lyubashenko
from ybe.core import verify_solution

CENSUS_SCRIPT = str(Path(__file__).resolve().parent / "census5.py")


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]          # arguments to the interpreter
    check: Callable[[str], str]    # stdout -> checked invariant, or raises


def _cli(*args: str) -> tuple[str, ...]:
    return ("-m", "ybe.cli", *args)


# Affine quandles x > y = a*x + (1-a)*y over Z_p.  Z_31 with a = -1 is
# relator-heavy (930 relators) with a small index (62); the others grow the
# index p * ord_p(a) up to 342 for Z_19 (Havas, ISSAC 1991, contrasts the two
# regimes for coset enumeration).
QUOTIENT_AFFINE = [(31, -1), (11, 2), (13, 2), (17, 3), (19, 2)]
QUOTIENT_TABLE = (13, 2)
ANALYZE_LYUBASHENKO = [16, 20, 24]
DOCUMENTS_N = 128
DOCUMENTS_P, DOCUMENTS_A = 127, 3
CABLE_P, CABLE_A, CABLE_M = 97, 3, 2


def quotient_jobs(rng: random.Random, write) -> list[Job]:
    jobs = []
    paths = {}
    for p, a in QUOTIENT_AFFINE:
        paths[p, a] = write(document(affine_sd(p, a), f"affine-sd-p{p}-a{a}", rng))
        jobs.append(Job(
            f"quotient affine-sd-p{p}-a{a}",
            _cli("quotient", paths[p, a]),
            partial(check_quotient, n=p, fingerprint=affine_quotient_fingerprint(p, a)),
        ))
    jobs.append(Job("quotient rack/12pt-gl23", _cli("quotient", "rack/12pt-gl23"),
                    partial(check_quotient, n=12, fingerprint=GL23_FINGERPRINT)))
    p, a = QUOTIENT_TABLE
    jobs.append(Job(
        f"quotient --table affine-sd-p{p}-a{a}",
        _cli("quotient", "--table", paths[p, a]),
        partial(check_quotient, n=p, fingerprint=affine_quotient_fingerprint(p, a), table=True),
    ))
    return jobs


def analyze_jobs(rng: random.Random, write) -> list[Job]:
    jobs = [
        Job(f"analyze lyubashenko-{n}",
            _cli("analyze", "--json", write(document(lyubashenko(n), f"lyubashenko-{n}", rng))),
            partial(check_fields, expected=lyubashenko_report(n)))
        for n in ANALYZE_LYUBASHENKO
    ]
    jobs.append(Job("analyze rack/12pt-gl23", _cli("analyze", "--json", "rack/12pt-gl23"),
                    partial(check_fields, expected=gl23_rack_report())))
    jobs.append(Job("analyze solution/4pt-irretractable",
                    _cli("analyze", "--json", "solution/4pt-irretractable"),
                    partial(check_fields, expected=irretractable4_report())))
    return jobs


def _solution_flags(n: int, biquandle: bool, sd_right: bool) -> dict:
    return {"valid": True, "kind": "solution", "n": n, "involutive": False,
            "biquandle": biquandle, "self_distributive_right": sd_right,
            "self_distributive_left": False, "decomposable": False}


def documents_jobs(rng: random.Random, write) -> list[Job]:
    n, p, a = DOCUMENTS_N, DOCUMENTS_P, DOCUMENTS_A
    source = document(affine_sd(CABLE_P, CABLE_A), f"affine-sd-p{CABLE_P}-a{CABLE_A}", rng)
    return [
        Job(f"check lyubashenko-{n}",
            _cli("check", write(document(lyubashenko(n), f"lyubashenko-{n}", rng))),
            partial(check_fields, expected=_solution_flags(n, biquandle=False, sd_right=False))),
        Job(f"check affine-sd-p{p}-a{a}",
            _cli("check", write(document(affine_sd(p, a), f"affine-sd-p{p}-a{a}", rng))),
            partial(check_fields, expected=_solution_flags(p, biquandle=True, sd_right=True))),
        Job(f"check affine-rack-p{p}-a{a}",
            _cli("check", write(document(affine_rack(p, a), f"affine-rack-p{p}-a{a}", rng))),
            partial(check_fields, expected={
                "valid": True, "kind": "rack", "n": p, "quandle": True, "orbit_count": 1,
                "period_pattern": affine_chain_periods(p, a)})),
        Job(f"cable -m {CABLE_M} affine-sd-p{CABLE_P}-a{CABLE_A}",
            _cli("cable", "-m", str(CABLE_M), write(source)),
            partial(check_cable_of_quandle_sd, source=source, m=CABLE_M,
                    reverify=verify_solution)),
    ]


# Published counts up to isomorphism: racks 19 (n=4) and 74 (n=5), quandles 7
# and 22 (Vojtechovsky-Yang, Math. Comp. 2019), involutive solutions 5 (n=3,
# Etingof-Schedler-Soloviev 1999), and the 6 racks on 3 points that index the
# --group-by-rack blocks.  Labeled counts, and the general and biquandle
# counts at n=3, are the repository's exhaustive census, which its tests
# cross-check by brute force.
def census_jobs(rng: random.Random, write) -> list[Job]:
    def enum(size, kind, classes, labeled, *extra, blocks=None):
        args = ("enumerate", "--size", str(size), "--kind", kind, "--json", *extra)
        name = "enumerate " + " ".join(args[1:5] + extra)
        cli_kind = "all-solutions" if kind == "all" else kind
        return Job(name, _cli(*args),
                   partial(check_census, kind=cli_kind, size=size, classes=classes,
                           labeled=labeled, blocks=blocks))

    def census5(kind, classes, labeled):
        return Job(f"census5 {kind}", (CENSUS_SCRIPT, kind),
                   partial(check_census, kind=kind, size=5, classes=classes, labeled=labeled))

    return [
        enum(4, "rack", 19, 114),
        enum(4, "quandle", 7, 36),
        enum(3, "all", 26, 66),
        enum(3, "involutive", 5, 12),
        enum(3, "biquandle", 15, 36),
        enum(3, "all", 26, 66, "--group-by-rack", blocks=[5, 4, 4, 4, 6, 3]),
        census5("rack", 74, 1708),
        census5("quandle", 22, 404),
    ]


@dataclass(frozen=True)
class Workload:
    parts: tuple[Callable, ...]   # (rng, write) -> jobs
    largest: str                  # the job whose time is largest_job_s

    def jobs(self, rng: random.Random, write) -> list[Job]:
        return [job for part in self.parts for job in part(rng, write)]


WORKLOADS = {
    "groups": Workload((quotient_jobs, analyze_jobs),
                       f"analyze lyubashenko-{max(ANALYZE_LYUBASHENKO)}"),
    "tables": Workload((documents_jobs, census_jobs),
                       f"cable -m {CABLE_M} affine-sd-p{CABLE_P}-a{CABLE_A}"),
}
