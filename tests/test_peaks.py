"""Peak traced allocation of input validation and document output at the
sizes of the benchmark's document jobs."""

import tracemalloc

from ybe.cli import render_document
from ybe.core import Solution, verify_solution
from ybe.derived import cable
from ybe.fixtures import SOLUTION_SCHEMA

# A set of the n^2 image pairs of the pair map alone takes about 1.3 MB at
# n = 128; the two frozen tables take about 0.28 MB.
VERIFY_PEAK_BYTES = 1_000_000


def _peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_solution_peak_on_lyubashenko_128():
    n = 128
    shift = [(v + 1) % n for v in range(n)]
    s, peak = _peak(verify_solution, [list(shift) for _ in range(n)], [list(shift) for _ in range(n)])
    assert s.n == n
    assert peak < VERIFY_PEAK_BYTES, peak


def test_render_document_peak_on_the_z97_cable():
    p, a = 97, 3
    ident = tuple(range(p))
    rho = tuple(tuple((a * x + (1 - a) * y) % p for x in range(p)) for y in range(p))
    c = cable(Solution(p, (ident,) * p, rho), 2)
    doc = {
        "schema": SOLUTION_SCHEMA,
        "n": c.n,
        "sigma": [list(r) for r in c.sigma],
        "tau": [list(r) for r in c.tau],
        "name": f"affine-sd-p{p}-a{a}-cable2",
        "labels": [str(i) for i in range(c.n)],
    }
    # json's indenting encoder holds about 1.5 MB of pieces for this 190 kB text
    text, peak = _peak(render_document, doc)
    assert len(text) > 150_000
    assert peak < 3 * len(text), peak
