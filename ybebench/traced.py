"""Traced run of one benchmark job: time the calls into each ybe module.

Usage: python3 ybebench/traced.py SPANS_JSON ARGV...

ARGV is what the untraced job passes to the interpreter (``-m ybe.cli ...`` or
a script and its arguments); it runs unchanged in this process.  Before its
entry point is imported, each public function named in LAYERS is replaced, in
every ybe module that binds it, by a wrapper that records a span (layer,
start, end, parent span) with ``perf_counter`` and adds the layer's work
counts.  The program therefore makes the same calls on the same objects, in
the order the CLI reaches them.  A call answered by an ``lru_cache`` is
counted as a cache hit, not as layer work.  Spans stay in memory and are
written to SPANS_JSON when the job ends.
"""

from __future__ import annotations

import functools
import json
import runpy
import sys
import time
from collections import Counter

import ybe


def _verify_counts(args, result):
    return {"core.triples_checked": len(args[0]) ** 3}


def _census_counts(args, result):
    return {"census.labeled": result.total_labeled, "census.classes": len(result.representatives)}


# (module, public function) -> (layer, work counts from (args, result))
LAYERS = {
    ("core", "verify_solution"): ("core.verify", _verify_counts),
    ("core", "verify_rack"): ("core.verify", _verify_counts),
    ("core", "classify"): ("core.classify", None),
    ("core", "chain_periods"): ("core.chain_periods", None),
    ("words", "degrees"): ("words.degrees",
                           lambda a, r: {"words.twisted_letters": sum(r.d)}),
    ("derived", "structure_racks"): ("derived.structure_racks", None),
    ("derived", "induced_biquandle"): ("derived.induced_biquandle", None),
    ("derived", "mp_level"): ("derived.mp_level", None),
    ("derived", "cable"): ("derived.cable", None),
    ("derived", "canonical_form"): ("derived.canonical_form",
                                    lambda a, r: {"derived.canonical_form_calls": 1}),
    ("fpgroups", "structure_presentation"): ("fpgroups.presentation",
                                             lambda a, r: {"fpgroups.relators": len(r.relators)}),
    ("fpgroups", "abelianization"): ("fpgroups.snf",
                                     lambda a, r: {"fpgroups.snf_rows": len(a[0].relators)}),
    ("fpgroups", "in_row_lattice"): ("fpgroups.snf",
                                     lambda a, r: {"fpgroups.snf_rows": len(a[0])}),
    ("fpgroups", "finite_quotient"): ("fpgroups.finite_quotient", None),
    ("fpgroups", "rack_finite_quotient"): ("fpgroups.finite_quotient", None),
    ("fpgroups", "coset_enumeration"): ("fpgroups.coset_enum",
                                        lambda a, r: {"fpgroups.quotient_order": len(r[0]) if r else 1}),
    ("fpgroups", "group_from_actions"): ("fpgroups.group_build",
                                         lambda a, r: {"fpgroups.table_entries": r.order ** 2}),
    ("verdicts", "analyze"): ("verdicts.analyze", None),
    ("verdicts", "biorderability"): ("verdicts.biorderability", None),
    ("verdicts", "sd_dichotomy"): ("verdicts.sd_dichotomy", None),
    ("verdicts", "involutive_orderability"): ("verdicts.involutive", None),
    ("census", "enumerate_racks"): ("census.enumerate", _census_counts),
    ("census", "enumerate_solutions"): ("census.enumerate", _census_counts),
    ("census", "group_by_structure_rack"): ("census.group_by_rack", None),
}
FINGERPRINT_LAYER = "fpgroups.fingerprint"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.stack: list[int] = []

    def wrap(self, fn, layer: str, counts=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else None
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index] = (layer, start, time.perf_counter(), parent)
                self.stack.pop()
            if cache_info and cache_info().misses == misses:
                # answered from the cache, so no layer work was done; a hit
                # makes no calls, so its span is the last one
                self.spans.pop()
                self.counts["cache.hits"] += 1
                return result
            if counts:
                self.counts.update(counts(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ybe"]
        for (mod_name, fname), (layer, counts) in LAYERS.items():
            orig = getattr(getattr(ybe, mod_name), fname)
            wrapper = self.wrap(orig, layer, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, attr, wrapper)
        group = ybe.fpgroups.FiniteGroup
        prop = functools.cached_property(
            self.wrap(group.__dict__["fingerprint"].func, FINGERPRINT_LAYER)
        )
        prop.__set_name__(group, "fingerprint")
        group.fingerprint = prop

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    main()
