"""Parametric input documents for the benchmark.

Two families are generated here, never downloaded:

* affine quandles over Z_p, ``x > y = a*x + (1 - a)*y``, as rack documents
  or as their right self-distributive solution ``r(x, y) = (y, x > y)``;
* Lyubashenko solutions ``r(x, y) = (y + 1, x + 1) mod n``.

Every generated document is relabeled by a permutation drawn from the seed
(``ybe.derived.relabel_solution`` / ``relabel_rack``), so each seed hands the
program different tables with the same invariants.
"""

from __future__ import annotations

import random

from ybe.core import Rack, Solution
from ybe.derived import relabel_rack, relabel_solution
from ybe.fixtures import RACK_SCHEMA, SOLUTION_SCHEMA


def affine_rack(p: int, a: int) -> Rack:
    return Rack(p, tuple(tuple((a * x + (1 - a) * y) % p for y in range(p)) for x in range(p)))


def affine_sd(p: int, a: int) -> Solution:
    """The right SD solution of the affine quandle: sigma_x = id, tau_y = rho_y."""
    rk = affine_rack(p, a)
    ident = tuple(range(p))
    return Solution(p, (ident,) * p, tuple(rk.rho(y) for y in range(p)))


def lyubashenko(n: int) -> Solution:
    shift = tuple((v + 1) % n for v in range(n))
    return Solution(n, (shift,) * n, (shift,) * n)


def relabel(obj, rng: random.Random):
    f = list(range(obj.n))
    rng.shuffle(f)
    if isinstance(obj, Rack):
        return relabel_rack(obj, tuple(f))
    return relabel_solution(obj, tuple(f))


def document(obj, name: str, rng: random.Random) -> dict:
    """The document of ``obj`` under a relabeling drawn from ``rng``."""
    obj = relabel(obj, rng)
    if isinstance(obj, Rack):
        return {"schema": RACK_SCHEMA, "n": obj.n, "name": name,
                "op": [list(r) for r in obj.op]}
    return {"schema": SOLUTION_SCHEMA, "n": obj.n, "name": name,
            "sigma": [list(r) for r in obj.sigma], "tau": [list(r) for r in obj.tau]}


