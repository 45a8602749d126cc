"""Peak traced allocation of input validation, chain periods, the rack
census and document output at the sizes of the benchmark's table jobs, and
of a finite quotient's fingerprint."""

import sys
import tracemalloc
from itertools import chain

from ybe.census import enumerate_racks
from ybe.cli import EXIT_OK, json_pieces, main
from ybe.core import Rack, Solution, chain_periods, verify_solution
from ybe.derived import cable
from ybe.fixtures import SOLUTION_SCHEMA
from ybe.fpgroups import finite_quotient

# A set of the n^2 image pairs of the pair map alone takes about 1.3 MB at
# n = 128; the two frozen tables take about 0.28 MB.
VERIFY_PEAK_BYTES = 1_000_000


def _affine_rack(p, a):
    return Rack(p, tuple(tuple((a * x + (1 - a) * y) % p for y in range(p)) for x in range(p)))


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
    text, peak = _peak(lambda d: "".join(chain(json_pieces(d), "\n")), doc)
    assert len(text) > 150_000
    assert peak < 3 * len(text), peak


def test_rack_census_peak_grows_with_the_classes():
    # keeping all 1,708 labeled racks of the n = 5 census takes about 1.5 MB
    census, peak = _peak(enumerate_racks, 5, False, 5)
    assert (len(census.representatives), census.total_labeled) == (74, 1708)
    assert peak < 800_000, peak


def test_chain_periods_peak_on_the_affine_rack_over_z127():
    # a list of the n^2 pair images (ints above 256) takes about 0.9 MB
    p = 127
    report, peak = _peak(chain_periods, _affine_rack(p, 3))
    assert sum(report.period_pattern) == p * p
    assert peak < 500_000, peak


def test_fingerprint_peak_on_the_affine_quotient_over_z29():
    # inverting the 29 generators' actions on the 812 elements would take
    # about 0.7 MB; the list of one left multiplication takes 6.5 kB
    p, a = 29, 2
    rk = _affine_rack(p, a)
    s = Solution(p, (tuple(range(p)),) * p, tuple(rk.rho(y) for y in range(p)))
    fg, _ = finite_quotient(s)
    fingerprint, peak = _peak(lambda: fg.fingerprint)
    assert fingerprint[:2] == (812, (28,))
    assert peak < 250_000, peak


class _CountingSink:
    """A text stream that counts the characters it is given and keeps none."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def flush(self):
        pass


def test_cable_command_peak_on_z97(tmp_path, monkeypatch):
    # the cabled tables take about 0.6 MB; list copies of them and the whole
    # output text held at once take the peak to about 1.1 MB
    p, a = 97, 3
    rk = _affine_rack(p, a)
    ident = tuple(range(p))
    doc = {
        "schema": SOLUTION_SCHEMA,
        "n": p,
        "name": f"affine-sd-p{p}-a{a}",
        "sigma": [list(ident)] * p,
        "tau": [list(rk.rho(y)) for y in range(p)],
    }
    path = tmp_path / "affine.json"
    path.write_text("".join(json_pieces(doc)))
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    code, peak = _peak(main, ["cable", "-m", "2", str(path)])
    assert code == EXIT_OK
    assert sink.chars > 150_000
    assert peak < 1_000_000, peak
